"""Exact free-space (transportation) norms with optimality certificates.

``norm_flow`` computes the norm of a finitely supported vector as a balanced
minimum-cost transport between its positive and negative parts, the basepoint
absorbing any imbalance.  The solver is successive shortest augmenting paths
with node potentials on the complete graph over support + basepoint; because
the costs form a metric no negative reduced-cost cycle can arise, and the
final potentials read off a 1-Lipschitz dual witness vanishing at the
basepoint.  ``norm_alpha`` and ``norm_line`` are independent closed forms for
the two structured presentations; they deliberately share no code with the
flow route so the two can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .spaces import AlphaSpace, DomainError, IntervalSpace
from .vectors import FreeVector, Functional, make_free_vector

__all__ = [
    "NormResult",
    "FlowConvergenceError",
    "norm_flow",
    "norm_alpha",
    "norm_line",
    "free_norm",
    "dual_gap",
    "witness_functional",
]

MASS_TOL = 1e-12
EXACT_SUPPORT_LIMIT = 64


class FlowConvergenceError(RuntimeError):
    """The transport solver failed to drain all mass within its iteration cap."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (unshipped mass residual {residual!r})")
        self.residual = residual


@dataclass(frozen=True)
class NormResult:
    """Norm value plus the certificates that make it auditable: a transport
    plan achieving the value and a dual witness attaining it."""

    value: float
    witness: tuple[tuple[object, float], ...]  # (point, functional value), basepoint included
    plan: tuple[tuple[object, object, float, float], ...]  # (src, dst, mass, unit cost)
    vector: FreeVector
    backend: str = "flow"
    exact: bool = False

    def witness_value(self, p) -> float:
        key = self.vector.space.point_key
        k = key(p)
        for q, v in self.witness:
            if key(q) == k:
                return v
        raise DomainError(f"point {p!r} not covered by the witness")

    def plan_cost(self) -> float:
        return float(sum(m * c for _, _, m, c in self.plan))


def dual_gap(result: NormResult) -> float:
    """Primal plan cost minus the witness pairing against the vector.

    Nonnegative up to roundoff for a feasible witness; ~0 at optimality.
    """
    pairing = sum(c * result.witness_value(p) for p, c in result.vector.terms)
    return result.plan_cost() - float(pairing)


def witness_functional(result: NormResult) -> Functional:
    """Extend the witness to the whole space by the tight Lipschitz formula
    ``phi(z) = min_y (phi(y) + d(z, y))`` over witness nodes."""
    space = result.vector.space
    nodes = result.witness

    def fn(z):
        return min(v + space.distance(z, y) for y, v in nodes)

    return Functional(space=space, fn=fn, lip_bound=1.0, name="transport-witness")


# ---------------------------------------------------------------------------
# solver


def _solve_transport(b, C, tol):
    """Successive shortest paths with potentials on the complete graph.

    ``b`` holds signed masses (sum ~ 0) and ``C`` the symmetric cost matrix;
    both may be floats or Fractions (with ``tol`` 0 in the exact case).
    Returns (flow dict (i, j) -> mass, potentials, total cost).
    """
    n = len(b)
    zero = b[0] * 0
    inf = sum(sum(row, zero) for row in C) + max((x if x >= zero else -x) for x in b) + 1
    surplus = list(b)
    pi = [zero] * n
    flow: dict[tuple[int, int], object] = {}
    iters = 0
    cap = 100 + 20 * n * n

    while True:
        sources = [i for i in range(n) if surplus[i] > tol]
        if not sources:
            break
        iters += 1
        if iters > cap:
            raise FlowConvergenceError(
                f"no convergence after {cap} augmentations",
                float(sum(s for s in surplus if s > tol)),
            )

        # Dijkstra over reduced costs, multi-source from all remaining supplies.
        dist = [inf] * n
        parent: list[tuple[int, str] | None] = [None] * n
        done = [False] * n
        for s in sources:
            dist[s] = zero
        for _ in range(n):
            u = -1
            best = inf
            for v in range(n):
                if not done[v] and dist[v] < best:
                    best = dist[v]
                    u = v
            if u < 0:
                break
            done[u] = True
            du = dist[u]
            piu = pi[u]
            row = C[u]
            for v in range(n):
                if done[v] or v == u:
                    continue
                rc = row[v] + piu - pi[v]
                kind = "f"
                fvu = flow.get((v, u))
                if fvu is not None and fvu > tol:
                    rc_cancel = -C[v][u] + piu - pi[v]
                    if rc_cancel < rc:
                        rc = rc_cancel
                        kind = "r"
                if rc < zero:
                    rc = zero  # clamp 1-ulp dips so the label-setting stays valid
                nd = du + rc
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = (u, kind)

        t = -1
        best = inf
        for v in range(n):
            if surplus[v] < -tol and dist[v] < best:
                best = dist[v]
                t = v
        if t < 0:
            raise FlowConvergenceError(
                "supplies remain but no reachable demand",
                float(sum(s for s in surplus if s > tol)),
            )

        for v in range(n):
            pi[v] = pi[v] + dist[v]

        # walk back to the tree root and find the bottleneck
        path = []
        v = t
        while parent[v] is not None:
            u, kind = parent[v]
            path.append((u, v, kind))
            v = u
        s = v
        amt = surplus[s]
        if -surplus[t] < amt:
            amt = -surplus[t]
        for u, v, kind in path:
            if kind == "r" and flow[(v, u)] < amt:
                amt = flow[(v, u)]

        for u, v, kind in path:
            if kind == "r":
                left = flow[(v, u)] - amt
                if left > tol:
                    flow[(v, u)] = left
                else:
                    del flow[(v, u)]
            else:
                opp = flow.get((v, u))
                if opp is not None:
                    r = opp if opp < amt else amt
                    left = opp - r
                    if left > tol:
                        flow[(v, u)] = left
                    else:
                        del flow[(v, u)]
                    rest = amt - r
                else:
                    rest = amt
                if rest > tol:
                    flow[(u, v)] = flow.get((u, v), zero) + rest
        surplus[s] = surplus[s] - amt
        surplus[t] = surplus[t] + amt

    cost = sum((f * C[i][j] for (i, j), f in flow.items()), zero)
    return flow, pi, cost


def norm_flow(mu: FreeVector, *, exact: bool = False) -> NormResult:
    """Free-space norm by balanced optimal transport, with certificates.

    With ``exact=True`` (supports up to 64 points) every mass and cost is run
    through rational arithmetic, which makes repeated runs byte-stable; the
    reported floats are exact conversions of the rational optimum.
    """
    space = mu.space
    base = space.basepoint
    if mu.is_zero():
        return NormResult(0.0, ((base, 0.0),), (), mu, backend="flow", exact=exact)

    pts = [base] + list(mu.support())
    masses = [-mu.total_mass()] + [c for _, c in mu.terms]
    n = len(pts)
    if exact and n > EXACT_SUPPORT_LIMIT:
        raise DomainError(f"exact mode supports at most {EXACT_SUPPORT_LIMIT} points, got {n}")

    cost = [[space.distance(p, q) for q in pts] for p in pts]
    if exact:
        # Re-derive the basepoint charge rationally: the float in masses[0]
        # is a rounded sum, and an unbalanced rational problem cannot ship
        # its last ulp of supply anywhere.
        b = [Fraction(c) for c in masses[1:]]
        b.insert(0, -sum(b, Fraction(0)))
        C = [[Fraction(c) for c in row] for row in cost]
        tol = Fraction(0)
    else:
        b, C, tol = masses, cost, MASS_TOL

    flow, pi, total = _solve_transport(b, C, tol)

    witness = tuple((pts[i], float(pi[0] - pi[i])) for i in range(n))
    plan = tuple(
        (pts[i], pts[j], float(flow[(i, j)]), float(cost[i][j]))
        for (i, j) in sorted(flow)
    )
    return NormResult(float(total), witness, plan, mu, backend="flow", exact=exact)


# ---------------------------------------------------------------------------
# closed forms


def norm_alpha(mu: FreeVector) -> float:
    """Sequence-space norm: sum |c_n| * alpha_n (the weighted-l1 identification)."""
    if not isinstance(mu.space, AlphaSpace):
        raise DomainError("norm_alpha needs a vector over a sequence space")
    sp = mu.space
    return float(sum(abs(c) * sp.alpha(n) for n, c in mu.terms))


def norm_line(mu: FreeVector) -> float:
    """Interval norm via cumulative masses over the gaps on each side of 0.

    Over a gap (x_{j-1}, x_j) right of the basepoint every unit of mass
    sitting at or beyond x_j must cross the whole gap, so the gap contributes
    |sum of those coefficients| times its length; the left side mirrors.
    """
    if not isinstance(mu.space, IntervalSpace):
        raise DomainError("norm_line needs a vector over an interval space")
    right = [(x, c) for x, c in mu.terms if x > 0.0]
    left = [(-x, c) for x, c in reversed(mu.terms) if x < 0.0]
    return _one_sided_line(right) + _one_sided_line(left)


def _one_sided_line(terms) -> float:
    # terms: (distance from 0, coefficient), ascending, all distances > 0
    total = 0.0
    suffix = 0.0
    partials = []
    for _, c in reversed(terms):
        suffix += c
        partials.append(suffix)
    partials.reverse()
    prev = 0.0
    for (x, _), s in zip(terms, partials):
        total += abs(s) * (x - prev)
        prev = x
    return total


_BACKENDS = {"flow": lambda mu: norm_flow(mu).value, "alpha": norm_alpha, "line": norm_line}


def free_norm(mu: FreeVector, backend: str = "auto") -> float:
    """Norm value through a chosen route: "flow", "alpha", "line", or "auto"
    (the closed form matching the space when one exists, flow otherwise)."""
    if backend == "auto":
        if isinstance(mu.space, AlphaSpace):
            backend = "alpha"
        elif isinstance(mu.space, IntervalSpace):
            backend = "line"
        else:
            backend = "flow"
    if backend not in _BACKENDS:
        raise DomainError(f"unknown norm backend {backend!r}")
    return _BACKENDS[backend](mu)


def norm_result_to_json(result: NormResult) -> dict:
    from .vectors import point_to_json

    return {
        "value": result.value,
        "witness": [[point_to_json(p), v] for p, v in result.witness],
        "plan": [[point_to_json(s), point_to_json(t), m] for s, t, m, _ in result.plan],
        "gap": dual_gap(result),
        "backend": result.backend,
        "exact": result.exact,
    }
