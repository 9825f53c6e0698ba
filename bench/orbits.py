"""``orbits`` section: ``classify_orbit`` with no norm work.

Why it exists: about 60% of this time is ``check_point`` being called again
on every orbit step, which ROADMAP item 2 targets; and it never calls into
``norms``, so a solver change predicts no change to its metrics.  The bulk is
drawn like the test_08 set (4 interval maps x PER_MAP points x powers 1..5,
horizon 1000, 8-radius ladder); a few orbits on the alpha, finite and lattice
presentations time every presentation's ``apply``/``check_point`` path.

The seed picks the points of each interval map from a fixed pool of 1000;
``verdicts.json`` holds the verdict of every pool point and extra orbit,
recorded at the seed commit by ``record_verdicts.py``.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

import numpy as np

from freelip import (
    ESCAPING,
    AlphaSpace,
    ClassificationParams,
    LatticeBox,
    backward_shift_map,
    backward_shift_space,
    block_cycle_map,
    block_cycle_space,
    circle_rotation_space,
    classify_orbit,
    forward_shift_map,
    interval_map_suite,
    map_from_json,
)

from common import PassResult

POOL = 1000
# Points per interval map in a pass: a quarter of the test_08 set, so that a
# pass takes about a second and every input is timed in many passes of a run.
PER_MAP = 25
POWERS = (1, 2, 3, 4, 5)
EXTRA_POWERS = (1, 2)
LETTER = {"Bounded": "B", "RecurrentEvidence": "R", "EscapingEvidence": "E", "Undecided": "U"}
VERDICT_TABLE = Path(__file__).with_name("verdicts.json")


def params() -> ClassificationParams:
    return ClassificationParams(horizon=1000, radii=tuple(2.0 ** j for j in range(1, 9)))


def pool_points(f) -> list[float]:
    hi = f.space.b if math.isfinite(f.space.b) else 10.0
    return [f.space.a + (hi - f.space.a) * (i + 1) / (POOL + 1) for i in range(POOL)]


def extra_orbits():
    """(label, map, points): one or more maps per non-interval presentation."""
    box = LatticeBox(((-6, 6), (-6, 6)))

    def lattice(mat):
        return map_from_json({"kind": "lattice-rule", "matrix": mat}, box)

    shift_space = AlphaSpace(np.arange(1.0, 401.0))
    cycle_space = block_cycle_space(10)
    _, rotation = circle_rotation_space(7)
    return [
        ("alpha-shift", forward_shift_map(shift_space), (1, 50, 200)),
        ("alpha-block-cycle", block_cycle_map(cycle_space, 10), (1, 7, 30)),
        ("finite-rotation-7", rotation, (1, 3)),
        ("finite-backward-shift", backward_shift_map(backward_shift_space(12)), (1, 5, 12)),
        ("lattice-rotation", lattice([[0, -1], [1, 0]]), ((1, 0), (3, 2))),
        ("lattice-shear", lattice([[1, 1], [0, 1]]), ((1, 1), (3, 2))),
        ("lattice-projection", lattice([[1, 0], [0, 0]]), ((3, 2), (-4, 5))),
    ]


def extra_key(label, x, power) -> str:
    return f"{label} {json.dumps(x)} p{power}"


class Orbits:
    name = "orbits"

    def __init__(self, seed: int, small: bool):
        rng = random.Random(seed * 7919 + 2)
        per_map = 5 if small else PER_MAP
        self.params = params()
        self.table = json.loads(VERDICT_TABLE.read_text())
        self.cases = []  # (family, map, point, powers, expected letters by power)
        for name, f in interval_map_suite().items():
            pool = pool_points(f)
            for i in sorted(rng.sample(range(POOL), per_map)):
                want = {k: self.table["pool"][name][str(k)][i] for k in POWERS}
                self.cases.append((name, f, pool[i], POWERS, want))
        for label, f, points in extra_orbits():
            for x in points[: 1 if small else None]:
                want = {k: self.table["extras"][extra_key(label, x, k)] for k in EXTRA_POWERS}
                self.cases.append((label, f, x, EXTRA_POWERS, want))

    def _classify(self, tr, res, family, f, x, power, want):
        with tr.op("bench.orbits.classify", tag=f.kind):
            t0 = time.perf_counter()
            with tr.span("dynamics.classify_orbit", tag=f.kind):
                r = classify_orbit(f, x, self.params, power=power)
            res.sample("classify", time.perf_counter() - t0)
        apps = r.steps * power
        steps_wanted = max(1, self.params.horizon // power)
        res.count("dynamics.applications", apps)
        res.count(f"dynamics.applications.{f.kind}", apps)
        res.count("dynamics.budget", steps_wanted * power)
        res.count("dynamics.early_stops", int(r.steps < steps_wanted))
        res.count(f"dynamics.verdict_{r.verdict}")
        res.check(LETTER[r.verdict] == want,
                  f"orbits {family} x={x!r} power={power}: verdict {r.verdict}, recorded {want}")
        return r

    def run(self, tr, res: PassResult, warm: bool = False) -> None:
        """One pass; the warm-up pass takes every tenth point."""
        for n, (family, f, x, powers, want) in enumerate(self.cases):
            if warm and n % 10:
                continue
            escape = {}
            for k in powers:
                escape[k] = self._classify(tr, res, family, f, x, k, want[k]).verdict == ESCAPING
            for k in powers[1:]:
                res.check(escape[k] == escape[powers[0]],
                          f"orbits {family} x={x!r}: escape verdicts of f and f^{k} disagree")
