from __future__ import annotations

import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelip import (
    AlphaMap,
    AlphaSpace,
    DomainError,
    FiniteMap,
    FiniteSpace,
    Functional,
    IntervalSpace,
    LatticeBox,
    LatticeMap,
    PiecewiseLinearMap,
    PrefixExhausted,
    backward_shift_map,
    backward_shift_space,
    circle_rotation_space,
    classify_orbit,
    compose,
    delta,
    doubling_map,
    interval_map_suite,
    iterate_map,
    iterate_point,
    iterate_vector,
    lip_constant,
    make_free_vector,
    map_from_json,
    map_to_json,
    norm_flow,
    operator_norm_estimate,
    push_forward,
    recurrence_gap,
    restrict_to_points,
    space_from_json,
)
from conftest import random_finite_space

UNIT = IntervalSpace(0.0, 1.0)
HALF_LINE = IntervalSpace(0.0, math.inf)


def tent_map() -> PiecewiseLinearMap:
    return PiecewiseLinearMap(UNIT, [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])


# ---------------------------------------------------------------------------
# construction contracts


def test_finite_map_must_fix_basepoint(rng):
    sp = random_finite_space(rng, 4)
    with pytest.raises(DomainError):
        FiniteMap(space=sp, table=(1, 0, 2, 3))
    with pytest.raises(DomainError):
        FiniteMap(space=sp, table=(0, 1))


def test_alpha_map_must_fix_zero():
    sp = AlphaSpace([1.0, 2.0])
    with pytest.raises(DomainError):
        AlphaMap(space=sp, rule=lambda n: n + 1)


def test_alpha_map_prefix_escape_is_loud():
    sp = AlphaSpace([1.0, 2.0])
    f = AlphaMap(space=sp, rule=lambda n: 0 if n == 0 else n + 1)
    assert f.apply(1) == 2
    with pytest.raises(PrefixExhausted):
        f.apply(2)


@pytest.mark.parametrize("image", [1.7, True, "1", -1])
def test_alpha_map_image_must_be_a_point(image):
    # the image is checked as a point of the space: 1.7 does not land on 1
    sp = AlphaSpace([1.0, 2.0])
    f = AlphaMap(space=sp, rule=lambda n: 0 if n == 0 else image)
    with pytest.raises(DomainError):
        f.apply(1)


def test_pl_map_breakpoints_must_anchor_endpoints():
    with pytest.raises(DomainError):
        PiecewiseLinearMap(UNIT, [(0.1, 0.0), (1.0, 1.0)])
    with pytest.raises(DomainError):
        PiecewiseLinearMap(UNIT, [(0.0, 0.0), (0.5, 0.5)])
    with pytest.raises(DomainError):  # not strictly increasing
        PiecewiseLinearMap(UNIT, [(0.0, 0.0), (0.5, 1.0), (0.5, 0.0), (1.0, 1.0)])


def test_pl_map_must_fix_zero():
    with pytest.raises(DomainError):
        PiecewiseLinearMap(UNIT, [(0.0, 0.5), (1.0, 1.0)])


def test_pl_map_unbounded_needs_explicit_tail():
    with pytest.raises(DomainError):
        PiecewiseLinearMap(HALF_LINE, [(0.0, 0.0), (1.0, 2.0)])
    f = PiecewiseLinearMap(HALF_LINE, [(0.0, 0.0), (1.0, 2.0)], right_slope=1.0)
    assert f.eval(3.0) == 4.0


def test_pl_map_tail_cannot_leave_the_domain():
    with pytest.raises(DomainError):
        PiecewiseLinearMap(HALF_LINE, [(0.0, 0.0), (1.0, 0.5)], right_slope=-1.0)


def test_pl_map_values_stay_inside():
    with pytest.raises(DomainError):
        PiecewiseLinearMap(UNIT, [(0.0, 0.0), (0.5, 1.5), (1.0, 1.0)])


def test_lattice_map_must_fix_origin():
    box = LatticeBox(bounds=((-2, 2),))
    with pytest.raises(DomainError):
        LatticeMap(space=box, rule=lambda p: (p[0] + 1,))


# ---------------------------------------------------------------------------
# evaluation


def test_pl_eval_interpolates_exactly():
    f = tent_map()
    assert f.eval(0.25) == 0.5
    assert f.eval(0.5) == 1.0
    assert f.eval(0.75) == 0.5
    assert f.apply(1.0) == 0.0


def reference_eval(f, x):
    """The piece formula, written plainly from the breakpoints and end slopes."""
    xs, ys = f.xs, f.ys
    if x <= xs[0]:
        return ys[0] + f.left_slope * (x - xs[0])
    if x >= xs[-1]:
        return ys[-1] + f.right_slope * (x - xs[-1])
    i = bisect_right(xs, x) - 1
    return ys[i] + (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) * (x - xs[i])


def reference_apply(f, p):
    """eval, then the image refused unless it is a finite float in [a, b]."""
    y = reference_eval(f, p)
    a, b = f.space.a, f.space.b
    if a <= y <= b and math.isfinite(y):
        return y
    raise DomainError(f"point {y!r} not in interval [{a}, {b}]")


def compiled_step_cases():
    """(map, points): the interval suite, seeded maps on a bounded interval,
    both half-lines and the whole line with end slopes up to 2 (so a far
    point's image overflows to inf), and a segment whose rounding lands one
    ulp above the right end.  The points are random, the breakpoints, +-0.0,
    the ends and the largest floats."""
    rng = random.Random(20231121)
    maps = list(interval_map_suite().values())
    for a, b in ((-1.0, 1.0), (0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf)) * 5:
        lo, hi = max(a, -4.0), min(b, 4.0)
        xs = sorted({a, b, 0.0} - {math.inf, -math.inf} | {rng.uniform(lo, hi) for _ in range(rng.randint(1, 6))})
        slopes = {}
        if a == -math.inf:
            slopes["left_slope"] = rng.choice((0.0, 0.5, 2.0) if b < math.inf else (-2.0, 0.5, 2.0))
        if b == math.inf:
            slopes["right_slope"] = rng.choice((0.0, 0.5, 2.0) if a > -math.inf else (-2.0, 0.5, 2.0))
        ys = [0.0 if x == 0.0 else rng.uniform(lo, hi) for x in xs]
        maps.append(PiecewiseLinearMap(IntervalSpace(a, b), list(zip(xs, ys)), **slopes))
    top = 6.506575659823921
    maps.append(PiecewiseLinearMap(IntervalSpace(0.0, top), [(0.0, 0.0), (0.9930959394666341, 1.8517423620184288),
                                                            (5.102897947728598, top), (top, 0.0)]))
    for f in maps:
        a, b = f.space.a, f.space.b
        ends = [v for v in (a, b, -1e308, 1e308, -math.ulp(0.0), -1.7976931348623157e308, 1.7976931348623157e308)
                if a <= v <= b]
        window = (max(a, -8.0), min(b, 8.0))
        pts = [rng.uniform(*window) for _ in range(50)] + list(f.xs) + [0.0, -0.0, 5.102897947728597] + ends
        yield f, [f.space.check_point(p) for p in pts if a <= p <= b and math.isfinite(p)]


def test_compiled_apply_and_eval_are_the_piece_formula_bit_for_bit():
    refused = 0
    for f, pts in compiled_step_cases():
        for p in pts + [math.inf, -math.inf]:
            assert f.eval(p).hex() == reference_eval(f, p).hex(), (f.xs, p)
        for p in pts:
            try:
                want = reference_apply(f, p).hex()
            except DomainError as exc:
                want = str(exc)
                refused += 1
            try:
                got = f.apply(p).hex()
            except DomainError as exc:
                got = str(exc)
            assert got == want, (f.xs, p)
    assert refused >= 10  # infinite images and the ulp above the right end were met


def _map_with_point_outside(kind):
    """A map of each space kind and one payload of the right type outside its space."""
    if kind == "finite":
        return FiniteMap(FiniteSpace(((0.0, 1.0), (1.0, 0.0))), (0, 1)), -1
    if kind == "alpha":
        return AlphaMap(AlphaSpace([1.0, 2.0]), lambda n: 0 if n == 0 else 3 - n), 3
    if kind == "interval":
        return tent_map(), 1.5
    return LatticeMap(LatticeBox(((-2, 2), (-2, 2))), lambda p: (-p[0], p[1])), (3, 0)


@pytest.mark.parametrize("kind", ["finite", "alpha", "interval", "lattice"])
def test_entry_points_reject_a_point_outside(kind):
    # apply and distance take checked points and do not check them again, so
    # a point outside the space must be refused where it enters
    f, x = _map_with_point_outside(kind)
    entries = [
        lambda: iterate_point(f, x, 3),
        lambda: classify_orbit(f, x),
        lambda: recurrence_gap(f, x, 10),
        lambda: make_free_vector(f.space, [(x, 1.0)]),
        lambda: operator_norm_estimate(f, points=[x]),  # one point forms no pair to measure
        lambda: restrict_to_points(f.space, [x]),
        lambda: Functional(f.space, lambda p: 0.0, lip_bound=1.0)(x),
    ]
    for enter in entries:
        with pytest.raises(DomainError):
            enter()


def test_pl_pieces_cover_domain_with_rays():
    f = PiecewiseLinearMap(HALF_LINE, [(0.0, 0.0), (1.0, 1.0)], right_slope=0.5)
    ps = list(f.pieces())
    assert ps[0][:2] == (0.0, 1.0)
    assert ps[-1][1] == math.inf
    assert ps[-1][3] == 0.5


def test_pl_preimages_exact_roots():
    f = tent_map()
    assert f.preimages(0.5) == [0.25, 0.75]
    assert f.preimages(1.0) == [0.5]
    assert f.preimages(0.5, lo=0.5) == [0.75]
    assert f.smallest_preimage(0.5, 0.0, 1.0) == 0.25
    with pytest.raises(DomainError):
        f.smallest_preimage(0.5, 0.8, 1.0)


def test_pl_preimages_constant_piece_reports_left_edge():
    f = doubling_map()
    # the plateau [0.5, 1] sits at height 1
    assert f.preimages(1.0) == [0.5]


# ---------------------------------------------------------------------------
# composition and iteration


def test_compose_finite_tables(rng):
    sp = random_finite_space(rng, 5)
    f = FiniteMap(space=sp, table=(0, 2, 3, 4, 1))
    g = FiniteMap(space=sp, table=(0, 4, 3, 2, 1))
    h = compose(f, g)
    for p in sp.points():
        assert h.apply(p) == f.apply(g.apply(p))


def test_compose_pl_flattens_exactly():
    f = doubling_map()
    h = compose(f, f)
    # doubling twice: 4x up to 1/4, then clamped at 1
    for x in (0.0, 0.1, 0.25, 0.3, 0.6, 1.0):
        assert h.eval(x) == f.eval(f.eval(x))
    assert h.eval(0.125) == 0.5
    assert max(abs(s) for s in h.slopes()) == 4.0


@pytest.mark.parametrize("g_tails", [(-2.0, 0.0), (0.0, -0.5), (1.5, -3.0), (-1.0, 2.0)])
@pytest.mark.parametrize("f_tails", [(0.0, -0.5), (-2.0, 0.0), (3.0, 1.0)])
def test_compose_pl_tails_on_the_whole_line(f_tails, g_tails):
    # negative and zero tail slopes send a tail of g onto the opposite tail of
    # f, or onto a constant; the composite must match f(g(x)) far out too
    line = IntervalSpace(-math.inf, math.inf)
    f = PiecewiseLinearMap(line, [(-2.0, 3.0), (0.0, 0.0), (2.0, -1.0)],
                           left_slope=f_tails[0], right_slope=f_tails[1])
    g = PiecewiseLinearMap(line, [(-1.0, 1.0), (0.0, 0.0), (1.0, 2.0)],
                           left_slope=g_tails[0], right_slope=g_tails[1])
    h = compose(f, g)
    for x in [-1e3, -40.0, -7.5, -2.0, -1.0, -0.3, 0.0, 0.4, 1.0, 2.5, 9.0, 40.0, 1e3]:
        assert h.eval(x) == pytest.approx(f.eval(g.eval(x)), rel=1e-12, abs=1e-12)


def test_compose_alpha_rules_and_lattice_rules():
    sp = AlphaSpace([1.0, 2.0, 3.0, 4.0])
    f = map_from_json({"kind": "alpha-rule", "rule": "table", "table": [0, 2, 3, 4, 4]}, sp)
    g = map_from_json({"kind": "alpha-rule", "rule": "table", "table": [0, 4, 1, 0, 2]}, sp)
    box = LatticeBox(((-2, 2), (-2, 2)))
    swap = map_from_json({"kind": "lattice-rule", "matrix": [[0, 1], [1, 0]]}, box)
    flip = map_from_json({"kind": "lattice-rule", "matrix": [[-1, 0], [0, 1]]}, box)
    for outer, inner in ((f, g), (g, f), (swap, flip), (flip, swap)):
        h = compose(outer, inner)
        assert type(h) is type(outer)
        for p in outer.space.points():
            assert h.apply(p) == outer.apply(inner.apply(p))
    assert compose(swap, flip).apply((1, 2)) == (2, -1)


def test_compose_rejects_foreign_spaces():
    with pytest.raises(DomainError):
        compose(tent_map(), PiecewiseLinearMap(HALF_LINE, [(0.0, 0.0), (1.0, 1.0)], right_slope=1.0))


def test_iterate_map_matches_pointwise():
    f = tent_map()
    g = iterate_map(f, 3)
    xs = [i / 17 for i in range(18)]
    for x in xs:
        manual = x
        for _ in range(3):
            manual = f.eval(manual)
        assert g.eval(x) == pytest.approx(manual, abs=1e-12)


@pytest.mark.parametrize("family", ["rotation-7", "backward-shift"])
def test_iterate_map_table_matches_iterate_point(family):
    f = circle_rotation_space(7)[1] if family == "rotation-7" else backward_shift_map(backward_shift_space())
    for n in [*range(1, 14), 27720]:
        assert iterate_map(f, n).table == tuple(iterate_point(f, x, n) for x in f.space.points())


def test_iterate_map_needs_positive_power():
    with pytest.raises(DomainError):
        iterate_map(tent_map(), 0)


def test_iterate_point_and_vector_agree():
    f = doubling_map()
    x = 0.3
    assert iterate_point(f, x, 4) == pytest.approx(f.eval(f.eval(f.eval(f.eval(x)))))
    mu = make_free_vector(f.space, [(0.2, 1.0), (0.3, -2.0)])
    nu = iterate_vector(f, mu, 2)
    manual = push_forward(f, push_forward(f, mu))
    assert nu.terms == manual.terms


def test_iterate_rejects_negative_power():
    with pytest.raises(DomainError):
        iterate_map(tent_map(), -1)


def test_compose_budget_guard():
    # tent-map iterates double their piece count every round; the budget stops it
    with pytest.raises(DomainError):
        iterate_map(tent_map(), 40, budget=1_000)


# ---------------------------------------------------------------------------
# Lipschitz constants


def test_lip_finite_exact_with_witness(rng):
    sp = random_finite_space(rng, 6)
    f = FiniteMap(space=sp, table=(0,) * 6)  # crush everything to base
    est = lip_constant(f)
    assert est.exact
    assert est.value == 0.0
    g = FiniteMap(space=sp, table=tuple(range(6)))  # identity
    est = lip_constant(g)
    assert est.value == 1.0
    i, j = est.witness
    assert sp.distance(g.apply(i), g.apply(j)) == sp.distance(i, j)


def test_lip_pl_is_max_slope():
    est = lip_constant(tent_map())
    assert est.exact and est.value == 2.0
    f = PiecewiseLinearMap(HALF_LINE, [(0.0, 0.0), (1.0, 0.5)], right_slope=3.0)
    assert lip_constant(f).value == 3.0
    # an unbounded left tail counts too, as the first slope
    f = PiecewiseLinearMap(IntervalSpace(-math.inf, 1.0), [(-1.0, -2.0), (0.0, 0.0), (1.0, 0.5)],
                           left_slope=3.0)
    assert f.slopes() == (3.0, 2.0, 0.5)
    assert (lip_constant(f).value, lip_constant(f).witness) == (3.0, 0)
    # both ends unbounded: the left ray, the segments, then the right ray
    f = PiecewiseLinearMap(IntervalSpace(-math.inf, math.inf), [(-1.0, -2.0), (0.0, 0.0), (1.0, 0.5)],
                           left_slope=3.0, right_slope=-4.0)
    assert f.slopes() == (3.0, 2.0, 0.5, -4.0)
    assert (lip_constant(f).value, lip_constant(f).witness) == (4.0, 3)


def test_lip_alpha_is_window_limited():
    sp = AlphaSpace([1.0, 4.0, 1.0])
    f = AlphaMap(space=sp, rule=lambda n: 0 if n == 0 else min(n + 1, 3))
    est = lip_constant(f)
    assert not est.exact
    assert est.value == 4.0  # alpha_2 / alpha_1
    assert est.witness == 1
    with pytest.raises(PrefixExhausted):
        lip_constant(f, window=99)


def test_lip_lattice_enumerates_small_boxes():
    box = LatticeBox(bounds=((-3, 3),))
    f = LatticeMap(space=box, rule=lambda p: (-p[0],))
    est = lip_constant(f)
    assert est.exact and est.value == 1.0


def _random_lattice_map(rng, dim):
    box = LatticeBox(tuple((-rng.randrange(0, 3), rng.randrange(1, 3)) for _ in range(dim)))
    pts = list(box.points())
    table = {p: p if p == box.basepoint else rng.choice(pts) for p in pts}
    return LatticeMap(box, lambda p, table=table: table[p])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lip_lattice_unit_steps_match_all_pairs(rng, dim):
    # l1 on a box is the path metric of its grid, so the largest ratio over
    # unit steps is the largest over all pairs
    for _ in range(8):
        f = _random_lattice_map(rng, dim)
        sp = f.space
        pts = list(sp.points())
        brute = max(
            sp.distance(f.apply(p), f.apply(q)) / sp.distance(p, q)
            for i, p in enumerate(pts) for q in pts[i + 1:]
        )
        est = lip_constant(f)
        assert est.exact and est.value == brute
        if brute > 0.0:  # a map onto the origin has no witness
            p, q = est.witness
            assert sp.distance(p, q) == 1.0
            assert sp.distance(f.apply(p), f.apply(q)) == est.value


def test_lip_lattice_large_box_is_exact():
    box = LatticeBox(((-20, 20), (-20, 20)))
    swap = map_from_json({"kind": "lattice-rule", "matrix": [[0, 1], [1, 0]]}, box)
    est = lip_constant(swap)
    assert est.exact and est.value == 1.0 and est.note == ""


# ---------------------------------------------------------------------------
# operator norm via molecules


def test_operator_norm_equals_lip_on_finite_spaces(rng):
    for _ in range(6):
        sp = random_finite_space(rng, 6)
        table = tuple([0] + [rng.randrange(sp.size) for _ in range(sp.size - 1)])
        f = FiniteMap(space=sp, table=table)
        est = operator_norm_estimate(f)
        lip = lip_constant(f)
        assert est.exact
        assert est.value == pytest.approx(lip.value, rel=1e-9, abs=1e-12)


def test_operator_norm_equals_lip_on_lattice_boxes(rng):
    for dim in (1, 2, 3):
        for _ in range(3):
            f = _random_lattice_map(rng, dim)
            est = operator_norm_estimate(f)
            assert est.exact and est.value == lip_constant(f).value


def test_operator_norm_equals_lip_on_alpha_prefixes(rng):
    for _ in range(6):
        n = rng.randrange(1, 20)
        sp = AlphaSpace([rng.uniform(0.1, 5.0) for _ in range(n)])
        table = [0] + [rng.randrange(n + 1) for _ in range(n)]
        f = map_from_json({"kind": "alpha-rule", "rule": "table", "table": table}, sp)
        est = operator_norm_estimate(f)
        assert est.exact and est.value == lip_constant(f).value


def test_operator_norm_witness_is_a_molecule(rng):
    sp = random_finite_space(rng, 5)
    f = FiniteMap(space=sp, table=(0, 2, 3, 4, 0))
    est = operator_norm_estimate(f)
    x, y = est.witness
    mol = make_free_vector(sp, [(x, 1.0), (y, -1.0)])
    val = norm_flow(push_forward(f, mol)).value / sp.distance(x, y)
    assert val == pytest.approx(est.value, rel=1e-12)


def test_operator_norm_interval_needs_sample():
    with pytest.raises(DomainError):
        operator_norm_estimate(tent_map())
    est = operator_norm_estimate(tent_map(), points=[0.0, 0.25, 0.5, 0.75, 1.0])
    assert est.value == pytest.approx(2.0)


@pytest.mark.parametrize(
    "points, value, witness",
    [
        ([0.5, 0.5], 0.0, None),
        ([0.5, 0.25, 0.5], 2.0, (0.5, 0.25)),
        ([0.25, 0.0, 0.25, -0.0], 2.0, (0.25, 0.0)),
    ],
)
def test_operator_norm_counts_a_repeated_point_once(points, value, witness):
    est = operator_norm_estimate(doubling_map(), points=points)
    assert (est.value, est.witness) == (value, witness)


# ---------------------------------------------------------------------------
# wire format


def test_finite_map_json_round_trip(rng):
    sp = random_finite_space(rng, 4)
    f = FiniteMap(space=sp, table=(0, 3, 1, 2))
    wire = map_to_json(f)
    back = map_from_json(wire, sp)
    assert back.table == f.table


def test_pl_map_json_round_trip():
    f = PiecewiseLinearMap(HALF_LINE, [(0.0, 0.0), (1.0, 2.0)], right_slope=1.0)
    wire = map_to_json(f)
    back = map_from_json(wire, HALF_LINE)
    assert back.xs == f.xs and back.ys == f.ys
    assert back.right_slope == 1.0


def test_alpha_map_json_named_rule():
    sp = AlphaSpace([1.0, 2.0, 3.0])
    f = AlphaMap(
        space=sp,
        rule=lambda n: 0 if n == 0 else n + 1,
        rule_json={"rule": "forward-shift"},
    )
    wire = map_to_json(f)
    back = map_from_json(wire, sp)
    assert back.apply(1) == 2


def test_alpha_map_json_table_rule():
    sp = AlphaSpace([1.0, 2.0])
    f = map_from_json({"kind": "alpha-rule", "rule": "table", "table": [0, 2, 1]}, sp)
    assert f.apply(1) == 2 and f.apply(2) == 1


def test_alpha_map_opaque_rule_refuses_serialization():
    sp = AlphaSpace([1.0, 2.0])
    f = AlphaMap(space=sp, rule=lambda n: 0 if n == 0 else 1)
    with pytest.raises(DomainError):
        map_to_json(f)


def test_lattice_map_json_matrix_rule():
    box = LatticeBox(bounds=((-4, 4), (-4, 4)))
    wire = {"kind": "lattice-rule", "rule": "matrix", "matrix": [[0, 1], [1, 0]]}
    f = map_from_json(wire, box)
    assert f.apply((1, 2)) == (2, 1)
    assert map_to_json(f) == wire


def test_map_from_json_rejects_unknown_kind():
    with pytest.raises(DomainError):
        map_from_json({"kind": "quantum"}, UNIT)


# ---------------------------------------------------------------------------
# property sweeps


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6),
    st.integers(min_value=1, max_value=4),
)
def test_pl_iterates_multiply_lip_bounds(ys, n):
    ys = [0.0] + ys[1:-1] + [ys[-1]]
    xs = [i / (len(ys) - 1) for i in range(len(ys))]
    f = PiecewiseLinearMap(UNIT, list(zip(xs, ys)))
    lip1 = lip_constant(f).value
    lipn = lip_constant(iterate_map(f, n)).value
    assert lipn <= lip1**n + 1e-9 * (1 + lip1**n)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
def test_pushforward_never_expands_beyond_lip(seed, n):
    rng = random.Random(seed)
    sp = random_finite_space(rng, 6)
    table = tuple([0] + [rng.randrange(sp.size) for _ in range(sp.size - 1)])
    f = FiniteMap(space=sp, table=table)
    lip = lip_constant(f).value
    mu = make_free_vector(sp, [(p, rng.uniform(-2, 2)) for p in range(1, 4)])
    before = norm_flow(mu).value
    after = norm_flow(iterate_vector(f, mu, n)).value
    assert after <= lip**n * before + 1e-9 * (1 + before)
