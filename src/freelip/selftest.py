"""Deterministic self-check: seeded random sweeps over the core invariants
plus a fast gallery pass.  The sweeps return data; the CLI writes the reports.

Everything here is driven by one ``random.Random(seed)`` instance and no
report contains timestamps or absolute paths, so two runs with the same seed
must produce byte-identical output — that reproducibility is itself one of
the checks users are encouraged to run.
"""

from __future__ import annotations

import math

from .gallery import gallery_experiments
from .maps import FiniteMap, lip_constant, operator_norm_estimate
from .norms import AUDIT_TOL, audit_norm, norm_alpha, norm_flow, norm_line, witness_functional
from .spaces import AlphaSpace, FiniteSpace, IntervalSpace, _count
from .vectors import make_free_vector


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


def _close(got: float, want: float) -> bool:
    """The sweeps' agreement check; a NaN on either side fails it."""
    return abs(got - want) <= 1e-9 * (1.0 + abs(want))


def _sweep_isometry(rng: random.Random, rounds: int):
    for _ in range(rounds):
        space = _random_finite_space(rng)
        for x in space.points():
            for y in range(x + 1, space.size):
                mol = make_free_vector(space, [(x, 1.0), (y, -1.0)])
                got = norm_flow(mol).value
                want = space.distance(x, y)
                yield None if _close(got, want) else {"pair": [x, y], "got": got, "want": want}


def _sweep_certificates(rng: random.Random, rounds: int):
    for _ in range(rounds):
        space = _random_finite_space(rng)
        pts = [p for p in space.points() if p != space.basepoint]
        support = rng.sample(pts, k=min(len(pts), rng.randint(2, 6)))
        res = norm_flow(make_free_vector(space, [(p, rng.uniform(-2.0, 2.0)) for p in support]))
        phi = witness_functional(res)  # extended to every point: the Lipschitz check spans the space
        margins = audit_norm(res.replace(witness=tuple((p, phi(p)) for p in space.points())))
        entry = {check: m for check, m in margins.items() if not m <= AUDIT_TOL}
        yield {**entry, "value": res.value} if entry else None


def _sweep_backends(rng: random.Random, rounds: int):
    for _ in range(rounds):
        weights = [rng.uniform(0.1, 5.0) for _ in range(rng.randint(4, 24))]
        space = AlphaSpace(weights)
        support = rng.sample(range(1, space.prefix_length + 1), k=rng.randint(1, 4))
        mu = make_free_vector(space, [(n, rng.uniform(-2.0, 2.0)) for n in support])
        a, b = norm_flow(mu).value, norm_alpha(mu)
        yield None if _close(a, b) else {"kind": "alpha", "flow": a, "closed": b}

        interval = IntervalSpace(0.0, 1.0)
        xs = sorted(rng.uniform(0.01, 1.0) for _ in range(rng.randint(2, 6)))
        nu = make_free_vector(interval, [(x, rng.uniform(-2.0, 2.0)) for x in xs])
        if nu.is_zero():
            continue
        a, b = norm_flow(nu).value, norm_line(nu)
        yield None if _close(a, b) else {"kind": "line", "flow": a, "closed": b}


def _sweep_operator_norm(rng: random.Random, rounds: int):
    for _ in range(rounds):
        space = _random_finite_space(rng, max_points=9)
        f = _random_finite_map(rng, space)
        lip = lip_constant(f).value
        op = operator_norm_estimate(f)
        yield None if _close(op.value, lip) else {"operator": op.value, "lip": lip}


def _sweep_exact_mode(rng: random.Random, rounds: int):
    from fractions import Fraction
    for _ in range(rounds):
        space = _random_finite_space(rng, max_points=7)
        pts = [p for p in space.points() if p != space.basepoint]
        support = rng.sample(pts, k=min(len(pts), 3))
        coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 9)) for _ in support]
        mu = make_free_vector(space, list(zip(support, map(float, coeffs))))
        if mu.is_zero():
            continue
        plain = norm_flow(mu).value
        exact = norm_flow(mu, exact=True).value
        yield None if _close(plain, exact) else {"plain": plain, "exact": exact}


_SWEEPS = (
    ("delta-embedding-isometry", _sweep_isometry),
    ("transport-certificates", _sweep_certificates),
    ("backend-agreement", _sweep_backends),
    ("operator-norm-attains-lip", _sweep_operator_norm),
    ("exact-mode-agreement", _sweep_exact_mode),
)


def run_selftest(seed: int, rounds: int = 20) -> tuple[dict, list]:
    """Run every sweep, in order on one seeded stream, and the fast gallery.

    A sweep yields one outcome per case: None when it passes, its failure
    record when it fails.  Returns the summary and the gallery's (key,
    report) pairs; writes nothing.
    """
    _count(rounds, "rounds")
    import random  # here, so that the other verbs load neither random nor fractions
    rng = random.Random(seed)
    sweeps = []
    for name, sweep in _SWEEPS:
        outcomes = list(sweep(rng, rounds))
        failures = [f for f in outcomes if f is not None]
        sweeps.append({"name": name, "cases": len(outcomes), "failures": failures})
    gallery = gallery_experiments(fast=True)
    ok = all(not s["failures"] for s in sweeps) and all(r.ok for _, r in gallery)
    return {
        "seed": seed,
        "rounds": rounds,
        "ok": ok,
        "sweeps": sweeps,
        "gallery": [{"name": key, "ok": report.ok} for key, report in gallery],
    }, gallery
