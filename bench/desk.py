"""``desk`` section: one interactive session through ``freelip.cli.main``.

Why it exists: it drives the same solver as ``transport`` in another regime,
about 1000 tiny 2-9 point solves per selftest where per-call overhead
dominates and large-n ``transport`` hides it; it carries the ``push_forward``
chains (about 35% of selftest); and it pays the CLI's JSON load and write.

The verbs run in process on JSON files written at set-up.  Every verb must
exit 0 and write the same bytes every time it runs on the same input.  Each
small verb has SMALL_VERB_INPUTS inputs, drawn from the seed where its input
is seeded, so that one costly draw cannot move ``verb_small_ms``; a fixed
input is run as many times.  The untraced window times only the small verbs;
the selftest and the gallery are checked in the warm-up pass and timed per
layer in a traced run (see ``_pass_verbs``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from freelip import (
    FiniteMap,
    FiniteSpace,
    IntervalSpace,
    circle_rotation_space,
    doubling_map,
    dyadic_tail_vector,
    forward_shift_map,
    interval_map_suite,
    iterate_map,
    lip_constant,
    make_free_vector,
    map_to_json,
    norm_alpha,
    norm_flow,
    norm_line,
    operator_norm_estimate,
    orbit_norm_profile,
    push_forward,
    shift_vector,
    space_to_json,
    tempered_alpha_space,
    vector_to_json,
)
from freelip.cli import main as cli_main

from common import PassResult

SMALL_VERB_INPUTS = 5


def _grid_space(rng: random.Random, n: int) -> FiniteSpace:
    """A selftest-style space: n distinct points of a 64 x 64 grid, Euclidean."""
    pts: list[tuple[int, int]] = []
    while len(pts) < n:
        cand = (rng.randrange(64), rng.randrange(64))
        if cand not in pts:
            pts.append(cand)
    return FiniteSpace(tuple(tuple(math.hypot(a[0] - b[0], a[1] - b[1]) for b in pts) for a in pts))


def _random_map(rng: random.Random, space: FiniteSpace) -> FiniteMap:
    return FiniteMap(space, tuple(0 if i == 0 else rng.randrange(space.size) for i in space.points()))


def _fraction_vector(rng, space):
    pairs = [(p, float(Fraction(rng.randint(-8, 8) or 1, rng.randint(1, 9)))) for p in range(1, space.size)]
    return make_free_vector(space, pairs)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


class Desk:
    name = "desk"

    def __init__(self, seed: int, small: bool, workdir: Path):
        rng = random.Random(seed * 7919 + 3)
        self.small = small
        self.workdir = workdir
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.reference: dict[str, bytes] = {}

        self.selftest_seed = rng.randrange(1_000_000)
        self.rounds = 3 if small else 20

        # classify / interval-analyze: fixed maps from the suite (their cost
        # depends on the map), seeded points
        suite = interval_map_suite()
        cf = suite["doubling"]
        cmap = _write(inputs / "classify-map.json", {"space": space_to_json(cf.space), "map": map_to_json(cf)})
        pfile = _write(inputs / "params.json", {"horizon": 1000})
        af = suite["ramp"]
        amap = _write(inputs / "analyze-map.json", {"space": space_to_json(af.space), "map": map_to_json(af)})
        # rigidity: a circle rotation, which passes
        q = 7
        rspace, rf = circle_rotation_space(q)
        rmap = _write(inputs / "rotation-map.json", {"space": space_to_json(rspace), "map": map_to_json(rf)})
        times = (q, 2 * q)
        steps = 4 if small else 12

        self.small_verbs = []  # (label, argv, metric key); the label is <verb>#<input>
        for i in range(2 if small else SMALL_VERB_INPUTS):
            # norm / norm --exact
            space = _grid_space(rng, 6 if small else 12)
            vec = _write(inputs / f"vector-{i}.json", vector_to_json(_fraction_vector(rng, space)))
            # orbit: a random table map pushing a vector forward, flow norms
            ospace = _grid_space(rng, 6 if small else 10)
            omap = _write(inputs / f"orbit-map-{i}.json",
                          {"space": space_to_json(ospace), "map": map_to_json(_random_map(rng, ospace))})
            ovec = _write(inputs / f"orbit-vector-{i}.json", vector_to_json(_fraction_vector(rng, ospace)))
            x = round(rng.uniform(0.05, 0.95), 6)
            for verb, argv in (
                ("norm", ["norm", "--vector", vec]),
                ("norm-exact", ["norm", "--vector", vec, "--exact"]),
                ("orbit", ["orbit", "--map", omap, "--vector", ovec, "--steps", str(steps)]),
                ("classify", ["classify", "--map", cmap, "--point", json.dumps(x), "--params", pfile]),
                ("interval-analyze", ["interval-analyze", "--map", amap]),
                ("rigidity", ["rigidity", "--map", rmap, "--times", ",".join(map(str, times)), "--bound", "1.0"]),
            ):
                self.small_verbs.append((f"{verb}#{i}", argv, f"verb_small.{verb}"))

        # layer probes, traced runs only
        self.tiny_space = _grid_space(rng, 9)
        self.op_maps = [_random_map(rng, _grid_space(rng, rng.randint(5, 9))) for _ in range(1 if small else 3)]
        tspace, _ = tempered_alpha_space(8)
        pspace = _grid_space(rng, 10)
        self.chains = [
            (doubling_map(), dyadic_tail_vector(IntervalSpace(0.0, 1.0), 40), 30),
            (forward_shift_map(tspace), shift_vector(tspace, [1.0 / n ** 2 for n in range(1, 21)]), 30),
            (_random_map(rng, pspace), _fraction_vector(rng, pspace), 12),
        ]

    # -- verbs -----------------------------------------------------------------

    def _verb(self, tr, res, label, argv, key):
        """One verb call; ``key`` names the metric its time is a sample of, if any."""
        outdir = self.workdir / "out" / label.replace("#", "-")
        verb = label.split("#")[0]
        sink = io.StringIO()
        with tr.op("bench.desk.verb", tag=verb):
            t0 = time.perf_counter()
            with tr.span(f"cli.{verb}"), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli_main([*argv, "--outdir", str(outdir)])
            if key:
                res.sample(key, time.perf_counter() - t0)
        res.count("cli.verbs")
        res.check(rc == 0, f"desk {label}: exit code {rc}: {sink.getvalue()[-500:]}")
        for path in sorted(outdir.iterdir()):
            data = path.read_bytes()
            ref = self.reference.setdefault(f"{label}/{path.name}", data)
            res.count("cli.report_bytes", len(data))
            res.check(data == ref, f"desk {label}: {path.name} differs from the first run on the same input")

    def _pass_verbs(self, tr, warm: bool) -> list:
        """(label, argv, metric key) of every verb call in a pass.

        The selftest and the gallery take 0.15-0.8 s a call, and their best
        time over a run still moved by 2x between runs on a shared host, so
        they give no end-to-end metric and the untraced passes of the window
        leave them out: the warm-up pass runs each twice, which checks its exit code and that its
        reports repeat byte for byte, and a traced pass runs each once, for
        the per-layer figures."""
        big = [("selftest#0", ["selftest", "--seed", str(self.selftest_seed), "--rounds", str(self.rounds)], None),
               ("gallery#0", ["gallery"] + (["--fast"] if self.small else []), None)]
        if warm:
            return [v for v in self.small_verbs if v[0].endswith("#0")] + big + big
        return self.small_verbs + (big if tr.enabled else [])

    def run(self, tr, res: PassResult, warm: bool = False) -> None:
        """One pass; a traced one ends with the layer probes."""
        for label, argv, key in self._pass_verbs(tr, warm):
            self._verb(tr, res, label, argv, key)
        if tr.enabled and not warm:
            self._layer_probes(tr, res)

    # -- per-layer probes on desk-scale inputs (traced runs only) ----------------

    def _layer_probes(self, tr, res):
        space = self.tiny_space
        with tr.op("bench.desk.tiny_solves"):
            for x in range(space.size):
                for y in range(x + 1, space.size):
                    mol = make_free_vector(space, [(x, 1.0), (y, -1.0)])
                    with tr.span("norms.tiny_solve", work=1):
                        value = norm_flow(mol).value
                    res.count("norms.flow_calls")
                    res.check(abs(value - space.distance(x, y)) <= 1e-9 * (1.0 + value),
                              f"desk tiny solve {x}-{y}: {value!r} vs distance {space.distance(x, y)!r}")
        for f in self.op_maps:
            with tr.op("bench.desk.operator_norm"):
                with tr.span("maps.lip_constant"):
                    lip = lip_constant(f).value
                with tr.span("maps.operator_norm"):
                    op = operator_norm_estimate(f).value
                res.check(abs(op - lip) <= 1e-9 * (1.0 + lip), f"desk operator norm {op!r} vs lip {lip!r}")
        for f, mu, steps in self.chains:
            with tr.op("bench.desk.push_chain", tag=f.kind):
                cur = mu
                for _ in range(steps):
                    with tr.span("vectors.push_forward", tag=f.kind, work=len(cur)):
                        nxt = push_forward(f, cur)
                    res.count("vectors.terms_in", len(cur))
                    res.count("vectors.terms_out", len(nxt))
                    cur = nxt
                    if f.space.kind in ("alpha", "interval"):
                        with tr.span("norms.closed_form", tag=f.space.kind):
                            (norm_alpha if f.space.kind == "alpha" else norm_line)(cur)
                with tr.span("dynamics.orbit_norm_profile", tag=f.kind):
                    orbit_norm_profile(f, mu, steps)
                if f.kind != "alpha-rule":
                    with tr.span("maps.iterate_map", tag=f.kind):
                        iterate_map(f, 6)

