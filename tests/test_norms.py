"""Norm backends against each other and against an independent LP oracle.

The oracle solves the dual program directly with scipy.optimize.linprog:
maximize the pairing of a functional against the vector subject to the
1-Lipschitz constraints on every ordered pair of nodes (basepoint pinned to
zero).  Nothing of the in-package flow solver is reused there.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from freelip import (
    AlphaSpace,
    DomainError,
    FiniteSpace,
    IntervalSpace,
    LatticeBox,
    delta,
    dual_gap,
    free_norm,
    linear_combine,
    make_free_vector,
    norm_alpha,
    norm_flow,
    norm_line,
    norm_result,
    norm_result_to_json,
    pair,
    restrict_to_points,
    witness_functional,
)
from freelip.norms import EXACT_SUPPORT_LIMIT, FlowConvergenceError, _solve_transport, norm_tree
from conftest import random_finite_space

RELTOL = 1e-9


def lp_dual_norm(mu) -> float:
    """Dual LP oracle: best 1-Lipschitz pairing, solved by scipy."""
    space = mu.space
    pts = [space.basepoint] + list(mu.support())
    n = len(pts)
    c = np.zeros(n - 1)
    for idx, (p, coef) in enumerate(mu.terms):
        c[idx] = -coef  # linprog minimizes
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = np.zeros(n - 1)
            if i > 0:
                row[i - 1] += 1.0
            if j > 0:
                row[j - 1] -= 1.0
            rows.append(row)
            rhs.append(space.distance(pts[i], pts[j]))
    res = linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(None, None)] * (n - 1),
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def random_vector(rng: random.Random, space, k: int):
    pts = rng.sample([p for p in space.points() if p != space.basepoint], k)
    return make_free_vector(space, [(p, rng.uniform(-3, 3)) for p in pts])


# ---------------------------------------------------------------------------
# pinned example: two units at 1, minus one at 3, on the half line


def test_two_point_example_costs_three():
    sp = restrict_to_points(IntervalSpace(0.0, math.inf), [1.0, 3.0])
    mu = make_free_vector(sp, [(1, 2.0), (2, -1.0)])
    res = norm_flow(mu)
    assert res.value == pytest.approx(3.0, rel=RELTOL)
    assert lp_dual_norm(mu) == pytest.approx(3.0, rel=RELTOL)
    assert dual_gap(res) == pytest.approx(0.0, abs=1e-12)


def test_lp_oracle_agrees_on_random_spaces(rng):
    vectors = []
    for _ in range(25):
        sp = random_finite_space(rng, rng.randint(3, 10))
        vectors.append(random_vector(rng, sp, rng.randint(1, sp.size - 1)))
    # integer lattice costs tie many shortest paths, so one pass of the solver
    # augments along several tree paths that share arcs
    box = LatticeBox(((-3, 3), (-3, 3)))
    vectors += [random_vector(rng, box, rng.randint(8, 24)) for _ in range(10)]
    vectors += [random_vector(rng, random_finite_space(rng, 25), 24) for _ in range(5)]
    # wide supports, drawn last so the inputs above stay as they were: labels
    # drop several times in a pass on them, so Dijkstra pops many stale entries
    vectors += [random_vector(rng, random_finite_space(rng, 121), 120) for _ in range(3)]
    vectors += [random_vector(rng, LatticeBox(((-5, 5), (-5, 5))), 100) for _ in range(2)]
    for mu in vectors:
        if mu.is_zero():
            continue
        mine = norm_flow(mu).value
        oracle = lp_dual_norm(mu)
        assert mine == pytest.approx(oracle, rel=RELTOL, abs=1e-12)


# ---------------------------------------------------------------------------
# isometry and elementary identities


def test_delta_differences_are_isometric(rng):
    for _ in range(10):
        sp = random_finite_space(rng, 8)
        for p in sp.points():
            for q in sp.points():
                mu = linear_combine([(1.0, delta(sp, p)), (-1.0, delta(sp, q))])
                got = norm_flow(mu).value
                assert got == pytest.approx(sp.distance(p, q), rel=RELTOL, abs=1e-12)


def test_positive_combinations_ship_straight_to_base(rng):
    # with all coefficients >= 0 the norm is just the weighted distance sum
    for _ in range(10):
        sp = random_finite_space(rng, 7)
        pts = rng.sample(range(1, sp.size), 3)
        coefs = [rng.uniform(0.1, 2.0) for _ in pts]
        mu = make_free_vector(sp, list(zip(pts, coefs)))
        expect = sum(c * sp.distance(p, 0) for p, c in zip(pts, coefs))
        assert norm_flow(mu).value == pytest.approx(expect, rel=RELTOL)


def test_norm_is_absolutely_homogeneous(rng):
    sp = random_finite_space(rng, 8)
    mu = random_vector(rng, sp, 4)
    # one vector per space kind; the tolerances must follow the vector's scale
    vectors = [
        mu,
        make_free_vector(IntervalSpace(-4.0, 4.0), [(rng.uniform(-4, 4), rng.uniform(-3, 3)) for _ in range(4)]),
        random_vector(rng, AlphaSpace([rng.uniform(0.1, 5.0) for _ in range(8)]), 4),
        random_vector(rng, LatticeBox(((-3, 3), (-3, 3))), 4),
    ]
    for nu in vectors:
        ref = norm_flow(nu).value
        for a in (-2.5, 0.5, 3.0, 1e-300, 1e-13, 1e6, 1e300):
            got = norm_flow(linear_combine([(a, nu)])).value
            assert got == pytest.approx(abs(a) * ref, rel=RELTOL, abs=0)
            assert math.copysign(1.0, got) == 1.0


KINDS = ("finite", "alpha", "interval", "lattice")


def random_space(rng: random.Random, kind: str):
    """A small space of the given kind; every kind but the interval is
    enumerable, the lattice box as 25 points."""
    if kind == "finite":
        return random_finite_space(rng, 8)
    if kind == "alpha":
        return AlphaSpace([rng.uniform(0.1, 5.0) for _ in range(8)])
    if kind == "interval":
        return IntervalSpace(-2.0, 2.0)
    return LatticeBox(((-2, 2), (-2, 2)))


def random_vector_on(rng: random.Random, space, k: int):
    if isinstance(space, IntervalSpace):
        return make_free_vector(space, [(rng.uniform(-2, 2), rng.uniform(-3, 3)) for _ in range(k)])
    return random_vector(rng, space, k)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=2**32 - 1))
def test_triangle_inequality_for_norms(kind, seed):
    rng = random.Random(seed)
    sp = random_space(rng, kind)
    mu, nu = random_vector_on(rng, sp, 3), random_vector_on(rng, sp, 3)
    lhs = norm_flow(linear_combine([(1.0, mu), (1.0, nu)])).value
    assert lhs <= norm_flow(mu).value + norm_flow(nu).value + 1e-9


def test_superset_of_points_does_not_change_the_norm(rng):
    # the flow may route through extra nodes, but the triangle inequality
    # makes relays useless, so the value must not move
    for _ in range(8):
        sp = random_finite_space(rng, 10)
        support = rng.sample(range(1, 10), 3)
        small = restrict_to_points(sp, support)
        mu_small = make_free_vector(
            small, [(small.labels.index(p), rng.uniform(-2, 2)) for p in support]
        )
        mu_big = make_free_vector(
            sp, [(small.labels[i], c) for i, c in mu_small.terms]
        )
        assert norm_flow(mu_small).value == pytest.approx(
            norm_flow(mu_big).value, rel=RELTOL, abs=1e-12
        )


# ---------------------------------------------------------------------------
# certificates


def test_certificates_are_feasible_and_tight(rng):
    vectors = []
    for _ in range(15):
        sp = random_finite_space(rng, 8)
        vectors.append(random_vector(rng, sp, rng.randint(1, 5)))
    # wide supports on tied integer costs: paths of one pass drain shared
    # supplies and backward arcs, and none of that may leave a zero-mass edge
    box = LatticeBox(((-3, 3), (-3, 3)))
    vectors += [random_vector(rng, box, rng.randint(8, 24)) for _ in range(10)]
    results = [norm_flow(mu) for mu in vectors if not mu.is_zero()]
    # tree sums: a path through 0 and a star with tied weights; their plans
    # ship along the edges, through intermediate support points
    trees = (IntervalSpace(-2.0, 2.0), AlphaSpace([rng.choice([0.5, 1.0, 2.5]) for _ in range(8)]))
    results += [norm_tree(random_vector_on(rng, sp, rng.randint(1, 8))) for sp in trees for _ in range(12)]
    # balanced pairs on each ray: the edges next to 0 carry no mass and ship nothing
    results.append(norm_tree(make_free_vector(trees[0], [(0.5, 1.0), (1.5, -1.0), (-1.0, 0.75), (-1.5, -0.75)])))
    for res in results:
        mu, sp = res.vector, res.vector.space
        # dual witness: 1-Lipschitz on the nodes, vanishes at base, attains value
        vals = dict(res.witness)
        assert vals[sp.basepoint] == 0.0
        nodes = list(vals)
        for y in nodes:
            for z in nodes:
                assert abs(vals[y] - vals[z]) <= sp.distance(y, z) + 1e-9
        pairing = sum(c * res.witness_value(p) for p, c in mu.terms)
        assert pairing == pytest.approx(res.value, rel=RELTOL, abs=1e-12)
        # primal plan: conserves mass at every node and costs the value
        net = {p: 0.0 for p in nodes}
        for src, dst, m, cost in res.plan:
            assert m > 0
            assert cost == sp.distance(src, dst)
            net[src] += m
            net[dst] -= m
        b = {p: 0.0 for p in nodes}
        b[sp.basepoint] = -mu.total_mass()
        for p, c in mu.terms:
            b[p] += c
        for p in nodes:
            assert net[p] == pytest.approx(b[p], abs=1e-9)
        assert res.plan_cost() == pytest.approx(res.value, rel=RELTOL, abs=1e-12)
        assert abs(dual_gap(res)) <= 1e-9 * (1.0 + res.value)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=2**32 - 1))
def test_witness_extends_one_lipschitz_everywhere(kind, seed):
    rng = random.Random(seed)
    sp = random_space(rng, kind)
    mu = random_vector_on(rng, sp, 4)
    for res in [norm_flow(mu)] + ([norm_tree(mu)] if kind in ("alpha", "interval") else []):
        phi = witness_functional(res)
        # the whole space where it is enumerable; on the interval a grid and the support
        pts = list(sp.points()) if kind != "interval" else [i / 8 for i in range(-16, 17)] + list(mu.support())
        for y in pts:
            for z in pts:
                assert abs(phi(y) - phi(z)) <= sp.distance(y, z) + 1e-9
        assert phi(sp.basepoint) == pytest.approx(0.0, abs=1e-12)
        # the extension agrees with the witness where both are defined
        for p, v in res.witness:
            assert phi(p) == pytest.approx(v, abs=1e-9)
        assert pair(phi, mu) == pytest.approx(res.value, rel=RELTOL, abs=1e-9)


def test_zero_vector_norm_and_certificates():
    sp = AlphaSpace([1.0, 2.0])
    res = norm_flow(make_free_vector(sp, []))
    assert res.value == 0.0
    assert res.plan == ()


# ---------------------------------------------------------------------------
# closed-form backends


def test_alpha_backend_matches_flow(rng):
    for _ in range(10):
        n = rng.randint(2, 12)
        sp = AlphaSpace([rng.uniform(0.1, 5.0) for _ in range(n)])
        pts = rng.sample(range(1, n + 1), rng.randint(1, min(n, 6)))
        mu = make_free_vector(sp, [(p, rng.uniform(-2, 2)) for p in pts])
        closed = norm_alpha(mu)
        assert closed == pytest.approx(norm_flow(mu).value, rel=RELTOL)
        expect = sum(abs(c) * sp.alpha(p) for p, c in mu.terms)
        assert closed == pytest.approx(expect, rel=1e-15)


def test_line_backend_matches_flow(rng):
    # a tiny vector first: its value, 4.2e-14, lies below any absolute tolerance
    vectors = [make_free_vector(IntervalSpace(0.0, 1.0), [(0.5, 1e-13), (0.25, -1e-13 / 3)])]
    for _ in range(12):
        sp = IntervalSpace(-4.0, 4.0)
        pts = {round(rng.uniform(-4, 4), 3) for _ in range(rng.randint(1, 8))}
        pts.discard(0.0)
        vectors.append(make_free_vector(sp, [(p, rng.uniform(-2, 2)) for p in pts]))
    for mu in vectors:
        if mu.is_zero():
            continue
        assert norm_line(mu) == pytest.approx(norm_flow(mu).value, rel=RELTOL, abs=0)


def test_line_backend_hand_value():
    # mass +1 at 2 and -1 at 0.5: one unit crosses [0.5, 2]
    sp = IntervalSpace(0.0, math.inf)
    mu = make_free_vector(sp, [(2.0, 1.0), (0.5, -1.0)])
    assert norm_line(mu) == pytest.approx(1.5, rel=1e-15)
    # basepoint absorbs imbalance: lone unit at 2 costs 2
    assert norm_line(delta(sp, 2.0)) == pytest.approx(2.0, rel=1e-15)


def test_backend_dispatch_and_rejection(rng):
    sp_line = IntervalSpace(0.0, 1.0)
    mu_line = make_free_vector(sp_line, [(0.5, 1.0)])
    assert free_norm(mu_line) == pytest.approx(0.5)
    assert free_norm(mu_line, backend="line") == pytest.approx(0.5)
    sp_alpha = AlphaSpace([2.0])
    mu_alpha = delta(sp_alpha, 1)
    assert free_norm(mu_alpha) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        free_norm(mu_line, backend="alpha")
    with pytest.raises(DomainError):
        norm_line(mu_alpha)
    with pytest.raises(DomainError):
        free_norm(mu_line, backend="martingale")
    # one dispatcher: the result names the route taken, and exact mode is flow only
    sp_finite = FiniteSpace(((0.0, 1.0), (1.0, 0.0)))
    mu_finite = delta(sp_finite, 1)
    for mu, route in ((mu_line, "line"), (mu_alpha, "alpha"), (mu_finite, "flow")):
        assert norm_result(mu).backend == route
        assert norm_result(mu, "flow").backend == "flow"
    assert norm_result(mu_finite, exact=True).exact
    for mu, backend in ((mu_line, "auto"), (mu_line, "line"), (mu_alpha, "alpha")):
        with pytest.raises(DomainError, match="--exact"):
            norm_result(mu, backend, exact=True)
    with pytest.raises(DomainError):
        norm_result(mu_finite, "line")
    with pytest.raises(DomainError):
        norm_tree(mu_finite)


# ---------------------------------------------------------------------------
# exact rational mode


def test_exact_mode_matches_float_mode(rng):
    sp = random_finite_space(rng, 6)
    mu = make_free_vector(
        sp, [(p, float(Fraction(rng.randint(-8, 8), rng.randint(1, 9)))) for p in range(1, 5)]
    )
    plain = norm_flow(mu)
    exact = norm_flow(mu, exact=True)
    assert exact.exact
    assert exact.value == pytest.approx(plain.value, rel=1e-12)
    assert dual_gap(exact) == pytest.approx(0.0, abs=1e-12)


@settings(deadline=None, max_examples=30)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4)),
            st.integers(min_value=-64, max_value=64).map(lambda k: k / 16),
        ),
        min_size=1,
        max_size=24,
    )
)
def test_exact_and_float_modes_agree_on_dyadic_lattice_vectors(terms):
    # dyadic masses on integer costs: every flow, potential and cost of the
    # exact optimum is a float, so its certificates pair to a gap of exactly 0
    mu = make_free_vector(LatticeBox(((-4, 4), (-4, 4))), terms)
    exact = norm_flow(mu, exact=True)
    assert norm_flow(mu).value == pytest.approx(exact.value, rel=1e-12, abs=0)
    assert dual_gap(exact) == 0.0


def test_exact_mode_is_exact_on_rational_data():
    # quarter-integer masses on integer-distance points: the optimum is rational,
    # and the witness phi(x) = x certifies it: 0.75*1 - 0.25*2 + 0.5*5 = 2.75
    sp = restrict_to_points(IntervalSpace(0.0, math.inf), [1.0, 2.0, 5.0])
    mu = make_free_vector(sp, [(1, 0.75), (2, -0.25), (3, 0.5)])
    res = norm_flow(mu, exact=True)
    assert res.value == 2.75
    assert lp_dual_norm(mu) == pytest.approx(2.75, rel=RELTOL)


def fraction_norm(mu):
    """Exact mode on Fraction masses and costs: the reference for its int route."""
    pts = [mu.space.basepoint] + list(mu.support())
    cost = mu.space.cost_matrix(pts)
    b = [Fraction(c) for _, c in mu.terms]
    b.insert(0, -sum(b, Fraction(0)))
    flow, psi, total = _solve_transport(b, [[Fraction(c) for c in row] for row in cost], Fraction(0))
    witness = [(p, float(psi[i] - psi[0])) for i, p in enumerate(pts)]
    plan = [(pts[i], pts[j], float(flow[(i, j)]), float(cost[i][j])) for i, j in sorted(flow)]
    return float(total), witness, plan


def hexed(value, witness, plan):
    return (value.hex(), [(p, v.hex()) for p, v in witness],
            [(s, t, m.hex(), c.hex()) for s, t, m, c in plan])


def assert_matches_fraction_route(mu):
    res = norm_flow(mu, exact=True)
    assert hexed(res.value, res.witness, res.plan) == hexed(*fraction_norm(mu))


@pytest.mark.parametrize("scale", [1e-300, 1e-13, 1.0, 1e6, 1e300])
@pytest.mark.parametrize("kind", KINDS)
def test_exact_mode_matches_the_fraction_route_bit_for_bit(kind, scale):
    rng = random.Random(f"{kind} {scale}")
    sp = random_space(rng, kind)
    for k in (1, 3, 6):
        assert_matches_fraction_route(linear_combine([(scale, random_vector_on(rng, sp, k))]))


def test_exact_mode_matches_the_fraction_route_on_wide_exponents():
    # costs from 2^-500 to 1e150 and masses over 14 decades scale to ints of
    # about a thousand bits
    sp = IntervalSpace(-math.inf, math.inf)
    points = [-1e150, -3.5, 1e-150, 2.0**-500, 7e100, 1e150]
    masses = [1e3, -2.5e-11, 0.1, -7.0, 3.3e-5, -1e-9]
    assert_matches_fraction_route(make_free_vector(sp, zip(points, masses)))


def pinned_vectors():
    """300 seeded vectors of 1 to 40 terms over the four kinds, on tie-heavy
    data: alpha weights with repeats, interval points on a 0.01 grid, lattice
    boxes, and dyadic coefficients at scales 1e-300 to 1e300."""
    rng = random.Random(20231118)
    boxes = (((-3, 3), (-3, 3)), ((-2, 2), (-2, 2), (-1, 1)), ((-20, 20),))
    grid = [j / 100 for j in range(-200, 201) if j]
    for i in range(300):
        kind, k = KINDS[i % 4], rng.randint(1, 40)
        if kind == "finite":
            sp = random_finite_space(rng, k + rng.randint(1, 8))
        elif kind == "alpha":
            sp = AlphaSpace([rng.choice((0.5, 1.0, 1.5, 3.0)) for _ in range(k + rng.randint(0, 8))])
        elif kind == "lattice":
            sp = LatticeBox(rng.choice(boxes))
        else:
            sp = IntervalSpace(-2.0, 2.0)
        pts = rng.sample(grid if kind == "interval" else [p for p in sp.points() if p != sp.basepoint], k)
        scale = rng.choice((1e-300, 1e-13, 1.0, 1e6, 1e300))
        yield make_free_vector(sp, [(p, rng.randint(-64, 64) / 16 * scale) for p in pts])


# SHA-256 over the float.hex of value, witness and plan of every pinned
# vector, in float and in exact mode: a solver change must not move one bit
# of any certificate.
PINNED_CERTIFICATES_SHA256 = "769ae413067c26efd9cccaa4463e7a472c5755000e5e52556a1ea90190dd0c61"


def test_solver_certificates_are_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for mu in pinned_vectors():
        for exact in (False, True):
            res = norm_flow(mu, exact=exact)
            digest.update(repr(hexed(res.value, res.witness, res.plan)).encode())
    assert digest.hexdigest() == PINNED_CERTIFICATES_SHA256


def closed_form_vectors():
    """2,000 seeded vectors of 1 to 40 terms, alternately over a sequence
    space and an interval, with coefficients at scales 1e-300 to 1e300."""
    rng = random.Random(20231119)
    for i in range(2000):
        k, scale = rng.randint(1, 40), 10.0 ** rng.randint(-300, 300)
        if i % 2:
            sp = AlphaSpace([rng.uniform(0.1, 5.0) for _ in range(k + rng.randint(0, 8))])
            pts = rng.sample(range(1, sp.prefix_length + 1), k)
        else:
            sp = IntervalSpace(-4.0, 4.0)
            pts = [rng.uniform(-4.0, 4.0) for _ in range(k)]
        yield make_free_vector(sp, [(p, rng.uniform(-4.0, 4.0) * scale) for p in pts])


# SHA-256 over the float.hex of norm_alpha and norm_line on every closed-form
# vector: a change to the tree sum must not move one bit of any value.
PINNED_CLOSED_FORMS_SHA256 = "2136cd31aebbf13b5588293f8d2ac6e7b62d89c63ba8aef8e1f74546e16d70a4"


def test_closed_form_values_are_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for mu in closed_form_vectors():
        closed = norm_alpha if isinstance(mu.space, AlphaSpace) else norm_line
        digest.update(closed(mu).hex().encode())
    assert digest.hexdigest() == PINNED_CLOSED_FORMS_SHA256


def test_exact_mode_reads_numpy_integer_distances():
    sp = FiniteSpace(tuple(map(tuple, np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]]))))
    mu = make_free_vector(sp, [(1, 1.5), (2, -0.25)])
    assert norm_flow(mu, exact=True).value == norm_flow(mu).value == 1.5


def test_exact_mode_solves_the_widest_support_it_allows(rng):
    sp = random_finite_space(rng, EXACT_SUPPORT_LIMIT + 1)
    mu = random_vector(rng, sp, EXACT_SUPPORT_LIMIT - 1)  # with the basepoint, 64 points
    exact = norm_flow(mu, exact=True)
    assert len(exact.witness) == EXACT_SUPPORT_LIMIT
    assert exact.value == pytest.approx(norm_flow(mu).value, rel=1e-12)
    assert dual_gap(exact) == pytest.approx(0.0, abs=1e-9 * exact.value)
    with pytest.raises(DomainError, match="at most 64 points, got 65"):
        norm_flow(random_vector(rng, sp, EXACT_SUPPORT_LIMIT), exact=True)


def test_convergence_residual_is_in_the_vectors_units():
    # 4 units of supply against 2 of demand, on masses scaled by 4: once the
    # demand is met, half a unit of the vector's mass has nowhere to go
    with pytest.raises(FlowConvergenceError, match="no reachable demand") as err:
        _solve_transport([4, -2], [[0, 1], [1, 0]], 0, 4)
    assert err.value.residual == 0.5


def test_exact_mode_refuses_wide_support():
    sp = AlphaSpace([1.0] * 80)
    mu = make_free_vector(sp, [(p, 1.0) for p in range(1, 70)])
    with pytest.raises(DomainError):
        norm_flow(mu, exact=True)


def test_a_norm_that_overflows_a_float_is_a_domain_error():
    # every coefficient is finite: two terms of 1e308 overflow the total mass,
    # and one of 1e200 at distance 1e200 overflows the norm
    line = IntervalSpace(-1e300, 1e300)
    two = make_free_vector(line, [(1.0, 1e308), (2.0, 1e308)])
    far = make_free_vector(line, [(1e200, 1e200)])
    for mu in (two, far):
        for exact in (False, True):
            with pytest.raises(DomainError, match="not a finite float"):
                norm_flow(mu, exact=exact)
        with pytest.raises(DomainError, match="not a finite float"):
            norm_line(mu)
    with pytest.raises(DomainError, match="not a finite float"):
        norm_alpha(make_free_vector(AlphaSpace([1e200, 1.0]), [(1, 1e200), (2, 1.0)]))
    # the largest finite norm still comes back
    assert norm_line(make_free_vector(line, [(1.0, 1.7e308)])) == 1.7e308
    # points farther apart than the float range: the flow route cannot price
    # the distance, the tree sum never forms it and certifies the norm
    whole = IntervalSpace(-math.inf, math.inf)
    apart = (make_free_vector(whole, [(1e308, 1e-10), (-1e308, -1e-10)]),
             make_free_vector(AlphaSpace([1e308, 1e308]), [(1, 1e-10), (2, -1e-10)]))
    for mu in apart:
        for exact in (False, True):
            with pytest.raises(DomainError, match="overflows a float"):
                norm_flow(mu, exact=exact)
        res = norm_result(mu)
        assert (res.value, dual_gap(res)) == (2.0000000000000002e+298, 0.0)


# ---------------------------------------------------------------------------
# serialization


def test_norm_result_json_shape(rng):
    sp = random_finite_space(rng, 5)
    res = norm_flow(random_vector(rng, sp, 3))
    obj = norm_result_to_json(res)
    assert set(obj) >= {"value", "backend", "exact", "witness", "plan", "gap"}
    assert obj["backend"] == "flow"
    assert obj["gap"] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# property-based sweeps


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=8),
            st.fractions(min_value=-4, max_value=4, max_denominator=16),
        ),
        min_size=1,
        max_size=8,
    ),
    st.lists(
        st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8),
        min_size=8,
        max_size=8,
    ),
)
def test_alpha_norm_is_weighted_l1(pairs, weights):
    sp = AlphaSpace([float(w) for w in weights])
    mu = make_free_vector(sp, [(p, float(c)) for p, c in pairs])
    closed = norm_alpha(mu)
    flow = norm_flow(mu, exact=True)
    assert closed == pytest.approx(flow.value, rel=1e-12, abs=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_flow_value_never_beats_any_feasible_dual(seed):
    rng = random.Random(seed)
    sp = random_finite_space(rng, 6)
    mu = random_vector(rng, sp, 3)
    if mu.is_zero():
        return
    value = norm_flow(mu).value
    # any 1-Lipschitz functional gives a lower bound: try distance-to-base
    lower = abs(sum(c * sp.distance(p, 0) for p, c in mu.terms))
    assert value >= lower - 1e-9 * (1 + value)


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=1e-300, max_value=1e300),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_flow_matches_closed_forms_at_every_scale(scale, seed):
    rng = random.Random(seed)
    alpha = AlphaSpace([rng.uniform(0.1, 5.0) for _ in range(8)])
    line = IntervalSpace(-1.0, 1.0)
    cases = [
        (make_free_vector(alpha, [(p, scale * rng.uniform(-1, 1)) for p in rng.sample(range(1, 9), 4)]),
         norm_alpha),
        (make_free_vector(line, [(rng.uniform(-1, 1), scale * rng.uniform(-1, 1)) for _ in range(6)]),
         norm_line),
    ]
    for mu, closed in cases:
        got = norm_flow(mu).value
        assert got == pytest.approx(closed(mu), rel=RELTOL, abs=0)
        assert math.copysign(1.0, got) == 1.0
        # the tree sum's own certificates close to 1e-12 of its value
        tree = norm_tree(mu)
        assert tree.value == closed(mu)
        assert abs(dual_gap(tree)) <= 1e-12 * tree.value
