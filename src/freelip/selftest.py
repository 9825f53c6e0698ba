"""Deterministic self-check: seeded random sweeps over the core invariants
plus a fast gallery pass, all written as reproducible report files.

Everything here is driven by one ``random.Random(seed)`` instance and no
report contains timestamps or absolute paths, so two runs with the same seed
must produce byte-identical output — that reproducibility is itself one of
the checks users are encouraged to run.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from .gallery import experiment_to_json, gallery_experiments
from .maps import FiniteMap, lip_constant, operator_norm_estimate
from .norms import dual_gap, norm_alpha, norm_flow, norm_line, witness_functional
from .spaces import AlphaSpace, DomainError, FiniteSpace, IntervalSpace
from .vectors import make_free_vector, pair as pair_vector


def _random_finite_space(rng: random.Random, max_points: int = 12) -> FiniteSpace:
    n = rng.randint(3, max_points)
    pts: list[tuple[int, int]] = []
    while len(pts) < n:
        cand = (rng.randrange(64), rng.randrange(64))
        if cand not in pts:
            pts.append(cand)
    matrix = tuple(
        tuple(math.hypot(a[0] - b[0], a[1] - b[1]) for b in pts) for a in pts
    )
    return FiniteSpace(matrix=matrix, basepoint=0)


def _random_finite_map(rng: random.Random, space: FiniteSpace) -> FiniteMap:
    table = [space.basepoint] * space.size
    for i in space.points():
        if i != space.basepoint:
            table[i] = rng.randrange(space.size)
    return FiniteMap(space, tuple(table))


def _sweep_isometry(rng: random.Random, rounds: int) -> dict:
    failures = []
    cases = 0
    for _ in range(rounds):
        space = _random_finite_space(rng)
        for x in space.points():
            for y in range(x + 1, space.size):
                cases += 1
                mol = make_free_vector(space, [(x, 1.0), (y, -1.0)])
                got = norm_flow(mol).value
                want = space.distance(x, y)
                if abs(got - want) > 1e-9 * (1.0 + want):
                    failures.append({"pair": [x, y], "got": got, "want": want})
    return {"name": "delta-embedding-isometry", "cases": cases, "failures": failures}


def _sweep_certificates(rng: random.Random, rounds: int) -> dict:
    failures = []
    cases = 0
    for _ in range(rounds):
        space = _random_finite_space(rng)
        pts = [p for p in space.points() if p != space.basepoint]
        support = rng.sample(pts, k=min(len(pts), rng.randint(2, 6)))
        mu = make_free_vector(space, [(p, rng.uniform(-2.0, 2.0)) for p in support])
        if mu.is_zero():
            continue
        cases += 1
        res = norm_flow(mu)
        gap = dual_gap(res)
        phi = witness_functional(res)
        lip_ok = all(
            abs(phi(x) - phi(y)) <= space.distance(x, y) * (1.0 + 1e-9) + 1e-12
            for x in space.points()
            for y in space.points()
        )
        pairing = pair_vector(phi, mu)
        entry = {}
        if not abs(gap) <= 1e-9 * (1.0 + res.value):
            entry["gap"] = gap
        if not lip_ok:
            entry["witness_not_lipschitz"] = True
        if not abs(pairing - res.value) <= 1e-9 * (1.0 + res.value):
            entry["pairing"] = pairing
        if entry:
            entry["value"] = res.value
            failures.append(entry)
    return {"name": "transport-certificates", "cases": cases, "failures": failures}


def _sweep_backends(rng: random.Random, rounds: int) -> dict:
    failures = []
    cases = 0
    for _ in range(rounds):
        weights = [rng.uniform(0.1, 5.0) for _ in range(rng.randint(4, 24))]
        space = AlphaSpace(weights)
        support = rng.sample(range(1, space.prefix_length + 1), k=rng.randint(1, 4))
        mu = make_free_vector(space, [(n, rng.uniform(-2.0, 2.0)) for n in support])
        cases += 1
        a, b = norm_flow(mu).value, norm_alpha(mu)
        if abs(a - b) > 1e-9 * (1.0 + b):
            failures.append({"kind": "alpha", "flow": a, "closed": b})

        interval = IntervalSpace(0.0, 1.0)
        xs = sorted(rng.uniform(0.01, 1.0) for _ in range(rng.randint(2, 6)))
        nu = make_free_vector(interval, [(x, rng.uniform(-2.0, 2.0)) for x in xs])
        if nu.is_zero():
            continue
        cases += 1
        a, b = norm_flow(nu).value, norm_line(nu)
        if abs(a - b) > 1e-9 * (1.0 + b):
            failures.append({"kind": "line", "flow": a, "closed": b})
    return {"name": "backend-agreement", "cases": cases, "failures": failures}


def _sweep_operator_norm(rng: random.Random, rounds: int) -> dict:
    failures = []
    cases = 0
    for _ in range(rounds):
        space = _random_finite_space(rng, max_points=9)
        f = _random_finite_map(rng, space)
        cases += 1
        lip = lip_constant(f).value
        op = operator_norm_estimate(f)
        if abs(op.value - lip) > 1e-9 * (1.0 + lip):
            failures.append({"operator": op.value, "lip": lip})
    return {"name": "operator-norm-attains-lip", "cases": cases, "failures": failures}


def _sweep_exact_mode(rng: random.Random, rounds: int) -> dict:
    failures = []
    cases = 0
    for _ in range(rounds):
        space = _random_finite_space(rng, max_points=7)
        pts = [p for p in space.points() if p != space.basepoint]
        support = rng.sample(pts, k=min(len(pts), 3))
        coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 9)) for _ in support]
        mu = make_free_vector(space, list(zip(support, map(float, coeffs))))
        if mu.is_zero():
            continue
        cases += 1
        plain = norm_flow(mu).value
        exact = norm_flow(mu, exact=True).value
        if abs(plain - exact) > 1e-9 * (1.0 + abs(exact)):
            failures.append({"plain": plain, "exact": exact})
    return {"name": "exact-mode-agreement", "cases": cases, "failures": failures}


def run_selftest(seed: int, outdir: Path, rounds: int = 20) -> bool:
    """Run every sweep and the fast gallery; write reports; return overall success."""
    if rounds < 1:
        raise DomainError("rounds must be at least 1")
    rng = random.Random(seed)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    sweeps = [
        _sweep_isometry(rng, rounds),
        _sweep_certificates(rng, rounds),
        _sweep_backends(rng, rounds),
        _sweep_operator_norm(rng, rounds),
        _sweep_exact_mode(rng, rounds),
    ]
    gallery = gallery_experiments(fast=True)
    for key, report in gallery:
        path = outdir / f"gallery-{key}.json"
        path.write_text(json.dumps(experiment_to_json(report), indent=2, sort_keys=True) + "\n")

    ok = all(not s["failures"] for s in sweeps) and all(r.ok for _, r in gallery)
    summary = {
        "seed": seed,
        "rounds": rounds,
        "ok": ok,
        "sweeps": sweeps,
        "gallery": [{"name": key, "ok": report.ok} for key, report in gallery],
    }
    (outdir / "selftest.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return ok
