"""Exact free-space (transportation) norms with optimality certificates.

``norm_flow`` computes the norm of a finitely supported vector as a balanced
minimum-cost transport between its positive and negative parts, the basepoint
absorbing any imbalance.  The costs form a metric, so some optimal plan ships
mass straight from supplies to demands: the solver runs the primal-dual phases
of successive shortest paths (Ahuja, Magnanti and Orlin, *Network Flows*,
1993, ch. 9) on that bipartite graph, one Dijkstra per pass on a heap (lazy
deletion, ties in node order) and at most one augmentation per demand it
reached; the inf-convolution of its potentials is a 1-Lipschitz dual witness.
Float mode ignores charges within MASS_TOL times the largest |charge|, the
same rule at every scale.  Exact mode scales masses and costs by powers of two
to exact ints, which give the same results as rationals.  Costs come from
``spaces.cost_matrix``.  ``norm_tree`` sums over the path through 0 (an
interval) or the star around 0 (a sequence space); its plan is the edge flow,
through intermediate support points.  It shares no code with the flow route,
so the two cross-check each other; ``norm_result`` dispatches to either.  A
total mass, norm or distance that overflows a float raises ``DomainError``.
``audit_norm`` checks any result on exact rationals, one margin per check, each
over its own scale; a result holds when every margin is at most AUDIT_TOL.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import accumulate, combinations
from operator import add

from .spaces import DomainError, _coerce_number, _Record, _show, cost_matrix
from .vectors import FreeVector, Functional, point_to_json

MASS_TOL = 1e-12
EXACT_SUPPORT_LIMIT = 64
AUDIT_TOL = 1e-12


class FlowConvergenceError(RuntimeError):
    """The transport solver failed to drain all mass within its pass cap."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (unshipped mass residual {residual!r})")
        self.residual = residual


class NormResult(_Record):
    """Norm value plus the certificates that make it auditable: a transport
    plan achieving the value, whose net outflow at each point is the point's
    charge (a tree plan ships through intermediate support points), and a dual
    witness attaining it."""

    value: float
    witness: tuple[tuple[object, float], ...]  # (point, functional value), basepoint included
    plan: tuple[tuple[object, object, float, float], ...]  # (src, dst, mass, unit cost)
    vector: FreeVector
    backend: str = "flow"
    exact: bool = False

    def plan_cost(self) -> float:
        return float(sum(m * c for _, _, m, c in self.plan))


def dual_gap(result: NormResult) -> float:
    """Primal plan cost minus the witness pairing against the vector.

    Nonnegative up to roundoff for a feasible witness; ~0 at optimality.
    """
    witness = dict(result.witness)
    pairing = sum(c * witness[p] for p, c in result.vector.terms)
    return result.plan_cost() - float(pairing)


def witness_functional(result: NormResult) -> Functional:
    """Extend the witness to the whole space by the tight Lipschitz formula
    ``phi(z) = min_y (phi(y) + d(z, y))`` over witness nodes; at a witness
    node, where the formula is its own value up to rounding, the value itself."""
    space = result.vector.space
    points, values = zip(*result.witness)
    own = dict(result.witness)

    def fn(z):
        return own[z] if z in own else min(map(add, values, space.distances(z, points)))

    return Functional(space=space, fn=fn, lip_bound=1.0, name="transport-witness")


def audit_norm(result: NormResult) -> dict[str, float]:
    """The worst margin of each certificate check, by name.  A point not in the space,
    a part that is not a finite real, or a witness without a value at a charged
    point, is a DomainError."""
    from fractions import Fraction as Q  # here, so that ``import freelip`` does not load it

    def num(v, what):
        return Q(_coerce_number(v, integral=False, what=what))

    space, value = result.vector.space, num(result.value, "norm value")
    pt = space.check_point
    witness = [(pt(p), num(v, "witness value")) for p, v in result.witness]
    phi = dict(witness)  # a point listed twice: a pair at distance 0
    plan = [(pt(s), pt(t), num(m, "plan mass"), num(c, "unit cost")) for s, t, m, c in result.plan]
    plan = [(s, t, m, c, Q(space.distance(s, t))) for s, t, m, c in plan]
    charge = {p: Q(c) for p, c in result.vector.terms}
    charge[space.basepoint] = -sum(charge.values())
    if missing := [p for p in charge if p not in phi]:
        raise DomainError(f"the witness has no value at the charged point {_show(missing[0])}")
    nodes = {*charge, *(q for s, t, *_ in plan for q in (s, t))}  # each plan endpoint, on the witness or not
    net = [sum(m * ((s == p) - (t == p)) for s, t, m, *_ in plan) - charge.get(p, 0) for p in nodes]  # out-in-charge
    lip = [(abs(v - w), Q(space.distance(y, z))) for (y, v), (z, w) in combinations(witness, 2)]
    return {  # each margin over its own scale, a scale of 0 read as 1
        "conservation": float(max(map(abs, net)) / (max(map(abs, charge.values())) or 1)),
        "positive_masses": float(not all(m > 0 for _, _, m, _, _ in plan)),
        "unit_costs": float(max((abs(c - d) / (d or 1) for *_, c, d in plan), default=0)),
        "basepoint": float(abs(phi[space.basepoint]) / (max((d for _, d in lip), default=0) or 1)),
        "witness_lipschitz": float(max(((g - d) / (d or 1) for g, d in lip), default=0)),
        "plan_cost": float(abs(sum(m * c for _, _, m, c, _ in plan) - value) / (value or 1)),
        "pairing": float(abs(sum(c * phi[p] for p, c in charge.items()) - value) / (value or 1)),
    }


def _finite(value, what="norm"):
    """``value``, or a DomainError when a sum of finite terms overflowed."""
    if not math.isfinite(value):
        raise DomainError(f"{what} {value!r} is not a finite float")
    return value


# ---------------------------------------------------------------------------
# solver


def _solve_transport(b, C, tol, unit=1):
    """Primal-dual phases of successive shortest paths on the bipartite graph
    from supplies (charge > tol) to demands (charge < -tol); see Ahuja,
    Magnanti and Orlin, *Network Flows* (1993), ch. 9.

    ``b`` holds ``unit`` times the signed masses (sum ~ 0) and ``C`` the
    symmetric cost matrix with a zero diagonal (exact mode scales it from its
    upper triangle, ``_scaled_costs``); both may be floats or ints (``tol`` 0
    if exact).  A supply s reaches every demand t at cost C[s][t]; a demand t
    reaches back a supply s at cost -C[s][t] while flow(s, t) > tol.

    Each pass runs Dijkstra over the reduced costs from every supply that
    still has mass, on a binary heap of (label, node) pairs with lazy
    deletion, until it has settled every demand still lacking mass (a
    counter, decremented as each one fills).  Ties pop in node-index order,
    as a scan of the sorted nodes picks them, so the tree and every result
    are the scan's.  The pass moves every potential by min(dist, D), D the
    distance of the farthest reached demand still lacking mass, and augments
    along the shortest-path tree to each such demand, nearest first.  The
    move makes every tree arc up to D tight, so each of these paths is a
    shortest path.  One walk from the demand to its root collects the path's
    arcs and the amount: the least of the demand's lack, each backward arc's
    flow and the root's surplus.  A path waits for the next pass when an
    earlier path of the pass has drained its root supply or emptied one of its
    backward arcs; a demand ends one path per pass, so it cannot fill before
    its turn.  At most 100 + 20n² passes are run.
    Returns (flow dict (s, t) -> mass, witness potentials, total cost).
    """
    n = len(b)
    zero = b[0] - b[0]  # +0.0 in float mode, so an empty plan costs +0.0
    side = [1 if x > tol else -1 if x < -tol else 0 for x in b]
    nodes = [v for v in range(n) if side[v]]
    demands = [v for v in nodes if side[v] < 0]
    surplus = list(b)
    pi = [zero] * n
    into = [{} for _ in range(n)]  # into[t][s] = flow(s, t) > tol
    lacking = len(demands)  # demands still short of mass
    passes = 0
    cap = 100 + 20 * n * n

    def residual():  # unshipped mass in the vector's units
        return float(sum(surplus[v] for v in sources) / unit)
    while sources := [v for v in nodes if surplus[v] > tol]:
        passes += 1
        if passes > cap:
            raise FlowConvergenceError(f"no convergence after {cap} passes", residual())

        # Dijkstra over reduced costs, multi-source from all remaining
        # supplies.  It stops once every demand that lacks mass is settled:
        # the nodes still open lie at D or beyond and would move by D anyway.
        dist = [math.inf] * n
        parent = [-1] * n
        for s in sources:
            dist[s] = zero
        heap = [(zero, s) for s in sources]  # sorted, so already a heap
        open_demands = list(demands)
        reached = []
        left = lacking  # lacking demands not yet settled
        while heap and left:
            du, u = heappop(heap)
            if du > dist[u]:  # stale: u was settled at its smaller label
                continue
            piu = pi[u]
            if side[u] > 0:
                row = C[u]
                for v in open_demands:
                    rc = row[v] + piu - pi[v]
                    # clamp 1-ulp dips below 0 so the label-setting stays valid
                    nd = du + rc if rc > zero else du
                    if nd < dist[v]:
                        dist[v] = nd
                        parent[v] = u
                        heappush(heap, (nd, v))
            else:
                open_demands.remove(u)
                if surplus[u] < -tol:
                    reached.append(u)
                    left -= 1
                # settled supplies need no skip: their label is at most du
                # already, so it cannot drop
                for v in into[u]:
                    rc = piu - pi[v] - C[v][u]
                    nd = du + rc if rc > zero else du
                    if nd < dist[v]:
                        dist[v] = nd
                        parent[v] = u
                        heappush(heap, (nd, v))
        if not reached:
            raise FlowConvergenceError("supplies remain but no reachable demand", residual())

        # nodes beyond D, and those nothing reaches, move by D, which keeps
        # every reduced cost nonnegative; the conditional is min(dist[v], D)
        far = dist[reached[-1]]
        for v in nodes:
            d = dist[v]
            pi[v] += far if far < d else d

        # walk each tree path back to its root supply once, collecting its
        # arcs and the least of the demand's lack, each backward arc's flow
        # and the root's surplus
        for t in reached:
            amt, arcs, w = -surplus[t], [], t
            while (u := parent[w]) >= 0:
                if side[u] < 0:  # a backward arc: the flow w -> u shrinks
                    f = into[u].get(w)
                    if f is None:  # emptied by an earlier path of this pass
                        break
                    if f < amt:
                        amt = f
                arcs.append((u, w))
                w = u
            else:  # w is the root
                if surplus[w] <= tol:  # drained by an earlier path of this pass
                    continue
                if surplus[w] < amt:
                    amt = surplus[w]
                for u, v in arcs:
                    if side[u] > 0:
                        into[v][u] = into[v].get(u, zero) + amt
                    elif (f := into[u][v] - amt) > tol:
                        into[u][v] = f
                    else:
                        del into[u][v]
                surplus[w] -= amt
                surplus[t] += amt
                if surplus[t] >= -tol:
                    lacking -= 1

    # The potentials are dual-feasible on supply-demand pairs only; their
    # inf-convolution from the demands is 1-Lipschitz on every pair and keeps
    # the pairing, since it matches -pi on every supply that ships.
    flow = {(s, t): m for t in demands for s, m in into[t].items()}
    psi = [min([C[x][j] - pi[j] for j in demands]) for x in range(n)]
    cost = sum((f * C[i][j] for (i, j), f in flow.items()), zero)
    return flow, psi, cost


def _scaled_ints(rows):
    """Rows of exact ints k*x, for the least power of two k that clears every float x."""
    ratios = [[float(x).as_integer_ratio() for x in row] for row in rows]
    k = max(d for row in ratios for _, d in row)
    top = k.bit_length()  # every d is a power of two, so k // d is a shift
    return [[p << (top - d.bit_length()) for p, d in row] for row in ratios], k


def _scaled_costs(cost):
    """``_scaled_ints(cost)`` of a symmetric table with a zero diagonal, scaled
    from its upper triangle and mirrored: the same ints and the same k."""
    upper, k = _scaled_ints([row[i + 1:] for i, row in enumerate(cost)])
    rows = []
    for i, right in enumerate(upper):
        rows.append([row[i] for row in rows] + [0] + right)
    return rows, k


def norm_flow(mu: FreeVector, *, exact: bool = False) -> NormResult:
    """Free-space norm by balanced optimal transport, with certificates.

    With ``exact=True`` (supports of up to 63 points besides the basepoint;
    EXACT_SUPPORT_LIMIT counts it) the solver runs on exact ints, the masses
    and the costs each scaled by a power of two.  It compares only values of
    one scale, so it branches as rationals would, and int true division rounds
    each reported float from the rational optimum.
    """
    space = mu.space
    base = space.basepoint
    if mu.is_zero():
        return NormResult(value=0.0, witness=((base, 0.0),), plan=(), vector=mu, backend="flow", exact=exact)

    pts = [base] + list(mu.support())
    masses = [-_finite(mu.total_mass(), "total mass")] + [c for _, c in mu.terms]
    n = len(pts)
    if exact and n > EXACT_SUPPORT_LIMIT:
        raise DomainError(f"exact mode supports at most {EXACT_SUPPORT_LIMIT - 1} support points, got {n - 1}")

    cost = cost_matrix(space, pts)
    if exact:
        # Re-derive the basepoint charge exactly: masses[0] is a rounded sum,
        # and an unbalanced exact problem cannot ship its last ulp anywhere.
        (b,), mass_unit = _scaled_ints([masses[1:]])
        b.insert(0, -sum(b))
        C, cost_unit = _scaled_costs(cost)
        tol = 0
    else:
        b, C = masses, cost
        mass_unit = cost_unit = 1
        tol = MASS_TOL * max(abs(c) for c in masses)

    flow, psi, total = _solve_transport(b, C, tol, mass_unit)

    witness = tuple((pts[i], float((psi[i] - psi[0]) / cost_unit)) for i in range(n))
    plan = tuple(
        (pts[i], pts[j], float(flow[(i, j)] / mass_unit), float(cost[i][j]))
        for (i, j) in sorted(flow)
    )
    try:
        value = float(total / (mass_unit * cost_unit))
    except OverflowError:  # an int quotient past the float range
        value = math.inf
    return NormResult(value=_finite(value), witness=witness, plan=plan, vector=mu, backend="flow", exact=exact)


# ---------------------------------------------------------------------------
# tree sum and dispatch


def norm_tree(mu: FreeVector) -> NormResult:
    """Norm with certificates over an interval (the path through 0, right ray
    first) or a sequence space (the star of edges (0, n)); Godard, Proc. AMS
    138 (2010).  Walked outward, the edge of weight w into p carries the mass m
    at or beyond p: it adds |m|*w to its branch (branch totals add in order),
    ships |m| inward if m > 0, else outward, and steps the witness by copysign(w, m)."""
    space, base = mu.space, mu.space.basepoint
    backend = norm_route(space)
    if backend == "alpha":
        branches = [[(n, space.distance(0, n), c)] for n, c in mu.terms]
    elif backend == "line":  # each ray as (x, |x|, mass at or beyond x), outermost first, then turned
        rays = ([t for t in reversed(mu.terms) if t[0] > 0.0], [t for t in mu.terms if t[0] < 0.0])
        branches = [[(x, abs(x), m) for (x, _), m in zip(ray, accumulate(c for _, c in ray))][::-1] for ray in rays]
    else:
        raise DomainError("norm_tree needs a vector over an interval or a sequence space")
    total, witness, plan = 0.0, [(base, 0.0)], []
    for branch in branches:
        side, phi, inner, prev = 0.0, 0.0, base, 0.0
        for p, r, m in branch:
            side += abs(m) * (w := r - prev)
            if m:
                plan.append((p, inner, m, w) if m > 0 else (inner, p, -m, w))
            phi += math.copysign(w, m)
            witness.append((p, phi))
            inner, prev = p, r
        total += side
    return NormResult(_finite(total), tuple(witness), tuple(plan), mu, backend=backend)


def norm_route(space, backend: str = "auto") -> str:
    """The route ``norm_result`` takes for ``backend`` over ``space``: "auto" is the tree sum
    where one applies ("line" on an interval, "alpha" on a sequence space), else "flow"."""
    if backend != "auto":
        return backend
    return {"interval": "line", "alpha": "alpha"}.get(space.kind, "flow")


def norm_result(mu: FreeVector, backend: str = "auto", exact: bool = False) -> NormResult:
    """The norm with certificates by "flow", "line" or "alpha" (the tree sums), or "auto",
    the route ``norm_route`` picks; the result names the route taken.  Exact mode is flow only."""
    route = norm_route(mu.space, backend)
    if route == "flow":
        return norm_flow(mu, exact=exact)
    if route not in ("alpha", "line"):
        raise DomainError(f"unknown norm backend {backend!r}")
    if exact:
        raise DomainError("exact mode (--exact) runs on the flow backend only")
    if norm_route(mu.space) != route:
        raise DomainError(f"the {backend} tree sum does not apply to a vector over the {mu.space.kind} space")
    return norm_tree(mu)


def norm_alpha(mu: FreeVector) -> float:
    """Sequence-space norm sum |c_n| * alpha_n, the tree sum over the star."""
    return norm_result(mu, "alpha").value


def norm_line(mu: FreeVector) -> float:
    """Interval norm: the tree sum over the path through 0, right ray first."""
    return norm_result(mu, "line").value


def free_norm(mu: FreeVector, backend: str = "auto") -> float:
    """The value of ``norm_result(mu, backend)``."""
    return norm_result(mu, backend).value


def norm_result_to_json(result: NormResult) -> dict:
    return {
        "value": result.value,
        "witness": [[point_to_json(p), v] for p, v in result.witness],
        "plan": [[point_to_json(s), point_to_json(t), m] for s, t, m, _ in result.plan],
        "gap": dual_gap(result),
        "backend": result.backend,
        "exact": result.exact,
    }
