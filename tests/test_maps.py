from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    block_cycle_map,
    block_cycle_space,
    circle_rotation_space,
    classify_orbit,
    compose,
    delta,
    doubling_map,
    fill_map,
    forward_shift_map,
    identity_map,
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
    ramp_map,
    recurrence_gap,
    restrict_to_points,
    space_from_json,
)
from freelip import maps
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
        AlphaMap(space=sp, table=(1,), shift=1)


def test_alpha_map_prefix_escape_is_loud():
    sp = AlphaSpace([1.0, 2.0])
    f = AlphaMap(space=sp, table=(0,), shift=1)
    assert f.apply(1) == 2
    with pytest.raises(PrefixExhausted):
        f.apply(2)


@pytest.mark.parametrize("image", [1.7, True, "1", -1])
def test_alpha_map_image_must_be_a_point(image):
    # each table entry is read as a point index, at construction: 1.7 does not land on 1
    sp = AlphaSpace([1.0, 2.0])
    with pytest.raises(DomainError):
        AlphaMap(space=sp, table=(0, image))


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
        # NaN passes no comparison: eval carries it through, as on an end ray, and apply refuses it
        assert math.isnan(f.eval(math.nan)), f.xs
        with pytest.raises(DomainError) as exc:
            f.apply(math.nan)
        assert str(exc.value) == f"point nan not in interval [{f.space.a}, {f.space.b}]"
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
        return AlphaMap(AlphaSpace([1.0, 2.0]), (0, 2, 1)), 3
    if kind == "interval":
        return tent_map(), 1.5
    return LatticeMap(LatticeBox(((-2, 2), (-2, 2))), [[-1, 0], [0, 1]]), (3, 0)


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
    assert ps[-1][2:] == (1.0, 1.0, 0.5)  # the anchor (1, 1), the ray's finite end, and its slope
    line = PiecewiseLinearMap(LINE, [(-1.0, 2.0), (0.0, 0.0)], left_slope=-3.0, right_slope=0.5)
    assert list(line.pieces())[0] == (-math.inf, -1.0, -1.0, 2.0, -3.0)  # a left ray's anchor is its hi end


def test_pl_preimages_exact_roots():
    f = tent_map()
    assert f.preimages(0.5) == [0.25, 0.75]
    assert f.preimages(1.0) == [0.5]
    assert f.preimages(0.5, lo=0.5) == [0.75]


def test_pl_preimages_constant_piece_reports_left_edge():
    f = doubling_map()
    # the plateau [0.5, 1] sits at height 1
    assert f.preimages(1.0) == [0.5]


@pytest.mark.parametrize("call, message", [
    (lambda f: f.preimages("a"), "target 'a' is not a number"),  # once a bare TypeError
    (lambda f: f.preimages(math.nan), "target nan is not a finite number"),  # once [] without a word
    (lambda f: f.preimages(math.inf), "target inf is not a finite number"),
    (lambda f: f.preimages(True), "target True is not a number"),
    (lambda f: f.preimages(0.5, lo="0"), "interval endpoint '0' is not a number"),
    (lambda f: f.preimages(0.5, hi=math.nan), "interval endpoint nan is not a finite number"),
    (lambda f: f.preimages(0.5, math.nan, 1.0), "interval endpoint nan is not a finite number"),
], ids=["target-string", "target-nan", "target-inf", "target-bool", "lo-string", "hi-nan", "smallest-lo-nan"])
def test_preimage_arguments_are_read_where_they_enter(call, message):
    with pytest.raises(DomainError) as err:
        call(doubling_map())
    assert type(err.value) is DomainError and str(err.value) == message


def test_preimage_arguments_take_any_real_and_infinite_bounds():
    f = tent_map()
    assert f.preimages(Fraction(1, 2), lo=np.float64(-math.inf), hi=1) == f.preimages(0.5) == [0.25, 0.75]
    assert f.preimages(np.float64(0.5), 0, math.inf) == [0.25, 0.75]


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
        h, cube = compose(outer, inner), iterate_map(outer, 3)
        assert type(h) is type(outer) and type(cube) is type(outer)
        for p in outer.space.points():
            assert h.apply(p) == outer.apply(inner.apply(p))
            assert cube.apply(p) == outer.apply(outer.apply(outer.apply(p)))
    assert compose(swap, flip).apply((1, 2)) == (2, -1)


def test_a_lattice_rule_may_return_any_sequence_of_ints():
    # rows may be lists, tuples or ranges of ints; the map keeps tuples, and its images are tuples
    box = LatticeBox(((-2, 2), (-2, 2)))
    f = LatticeMap(box, [[-1, 0], (0, 1)])
    assert f.matrix == ((-1, 0), (0, 1)) and LatticeMap(box, (range(1, -1, -1), range(2))).matrix == ((1, 0), (0, 1))
    assert f.apply((1, 2)) == (-1, 2) and type(f.apply((1, 2))) is tuple
    assert iterate_map(f, 2).apply((1, 2)) == (1, 2)


def test_a_lattice_map_is_its_matrix():
    # two loads of one JSON map are one map, and a composite or an iterate is written out as its factors are
    box = LatticeBox(((-2, 2), (-2, 2)))
    wire = {"kind": "lattice-rule", "rule": "matrix", "matrix": [[0, -1], [1, 0]]}
    f, g = map_from_json(wire, box), map_from_json(wire, box)
    assert f == g and hash(f) == hash(g) and f.matrix == ((0, -1), (1, 0))
    shear = map_from_json({"kind": "lattice-rule", "matrix": [[1, 1], [0, 1]]}, LatticeBox(((-9, 9), (-9, 9))))
    for h in (compose(f, f), iterate_map(f, 5), compose(shear, shear), iterate_map(shear, 3)):
        back = map_from_json(map_to_json(h), h.space)
        assert back == h and hash(back) == hash(h) and map_to_json(back) == map_to_json(h)
    assert compose(f, f).matrix == ((-1, 0), (0, -1)) and iterate_map(shear, 3).matrix == ((1, 3), (0, 1))


def test_a_lattice_power_is_taken_by_squaring():
    turn = LatticeMap(LatticeBox(((-2, 2), (-2, 2))), [[0, -1], [1, 0]])
    start = time.perf_counter()
    far = iterate_map(turn, 10**6)
    assert far.matrix == ((1, 0), (0, 1)) and far.apply((1, 2)) == (1, 2)
    assert time.perf_counter() - start < 0.5  # a walk of 10**6 steps takes seconds


def test_a_lattice_power_checks_only_its_last_image():
    # as n applications of the rule would: the quarter turn of [-1, 1] x [-2, 2]
    # sends (0, 2) out of the box, and its square sends it to (0, -2)
    turn = LatticeMap(LatticeBox(((-1, 1), (-2, 2))), [[0, -1], [1, 0]])
    with pytest.raises(DomainError, match=r"^point \(-2, 0\) not in lattice box"):
        turn.apply((0, 2))
    assert iterate_map(turn, 2).apply((0, 2)) == compose(turn, turn).apply((0, 2)) == (0, -2)


def _random_alpha_map(rng, space, shifted_tables):
    """A table of 1..N+3 entries in 0..N+2, led by 0 -> 0, or (30% of draws) the forward
    shift, or with ``shifted_tables`` such a table of at most 3 entries shifted by 1..3."""
    n = space.prefix_length
    table = [0] + [rng.randint(0, n + 2) for _ in range(rng.randint(0, n + 2))]
    if rng.random() >= 0.3:
        return AlphaMap(space, table)
    return AlphaMap(space, table[:3], rng.randint(1, 3)) if shifted_tables else AlphaMap(space, (0,), 1)


def _outcome(call):
    """What ``call()`` returns, or the class of the DomainError it raises."""
    try:
        return call()
    except DomainError as exc:
        return type(exc)


@pytest.mark.parametrize("shifted_tables", [False, True], ids=["forward-shift", "shifted-tables"])
def test_a_composite_is_its_steps(shifted_tables):
    # every step is checked: a composite or an iterate leaves the prefix where a
    # step does, and never comes back (a lazy composite once read table[-1])
    rng = random.Random(11)
    for _ in range(3000):
        space = AlphaSpace([1.0] * rng.randint(1, 9))
        f, g = _random_alpha_map(rng, space, shifted_tables), _random_alpha_map(rng, space, shifted_tables)
        k = rng.randint(1, 4)
        fg, fk = compose(f, g), iterate_map(f, k)
        for x in space.points():
            assert _outcome(lambda: fg.apply(x)) == _outcome(lambda: f.apply(g.apply(x))), (f, g, x)
            assert _outcome(lambda: fk.apply(x)) == _outcome(lambda: iterate_point(f, x, k)), (f, k, x)


def test_an_alpha_map_is_its_table_and_shift():
    # two loads of one JSON map are one map, and a composite or an iterate is written out
    space = AlphaSpace([1.0, 2.0, 4.0, 8.0, 16.0])
    cycle = {"kind": "alpha-rule", "rule": "table", "table": [0, 2, 1, 4, 3]}
    shift = {"kind": "alpha-rule", "rule": "forward-shift"}
    for wire in (cycle, shift):
        f, g = map_from_json(wire, space), map_from_json(wire, space)
        assert f == g and hash(f) == hash(g) and map_to_json(f) == wire
    f, s = map_from_json(cycle, space), map_from_json(shift, space)
    assert (f.table, f.shift, s.table, s.shift) == ((0, 2, 1, 4, 3), 0, (0,), 1)
    assert iterate_map(s, 3) == AlphaMap(space, (0,), 3)
    assert map_to_json(iterate_map(s, 3)) == {"kind": "alpha-rule", "rule": "table", "table": [0, 4, 5, 6, 7, 8]}
    for h in (compose(f, f), iterate_map(f, 3), compose(s, f), compose(f, s), iterate_map(s, 3)):
        back = map_from_json(map_to_json(h), space)
        assert [_outcome(lambda: back.apply(x)) for x in space.points()] == \
            [_outcome(lambda: h.apply(x)) for x in space.points()]


def test_a_shift_power_is_a_shift():
    space = AlphaSpace([1.0] * 5)
    start = time.perf_counter()
    far = iterate_map(map_from_json({"kind": "alpha-rule", "rule": "forward-shift"}, space), 10**6)
    assert far == AlphaMap(space, (0,), 10**6) and far.apply(0) == 0
    with pytest.raises(PrefixExhausted, match=r"^point 1000001 lies past the materialized prefix of length 5$"):
        far.apply(1)
    assert time.perf_counter() - start < 0.5  # a walk of 10**6 steps takes seconds


def test_a_composite_names_the_first_index_past_the_prefix():
    # an entry whose orbit leaves the prefix is N + 1, so apply raises there as the steps do
    space = AlphaSpace([1.0] * 3)
    f = AlphaMap(space, (0, 2, 4, 1))
    assert compose(f, f).table == (0, 4, 4, 2)
    for x in (1, 2):
        with pytest.raises(PrefixExhausted, match=r"^point 4 lies past the materialized prefix of length 3$"):
            compose(f, f).apply(x)
    short = AlphaMap(space, (0, 1))
    with pytest.raises(PrefixExhausted, match=r"^table rule covers indices up to 1$"):
        compose(short, short).apply(2)


def _wire_cases():
    """Every gallery and suite map, a lattice map, and a composite and an iterate of each."""
    cycle_space = block_cycle_space(3)
    box = LatticeBox(((-3, 3), (-3, 3)))
    maps_ = {"forward-shift": forward_shift_map(AlphaSpace([1.0] * 6)),
             "block-cycle": block_cycle_map(cycle_space, 3),
             "doubling": doubling_map(), "identity": identity_map(), "ramp": ramp_map(), "fill": fill_map(),
             "backward-shift": backward_shift_map(backward_shift_space(6)),
             "rotation-7": circle_rotation_space(7)[1],
             "lattice-turn": LatticeMap(box, [[0, -1], [1, 0]]), "lattice-shear": LatticeMap(box, [[1, 1], [0, 1]]),
             **{f"suite-{name}": f for name, f in interval_map_suite().items()}}
    for name, f in maps_.items():
        yield name, f
        yield f"{name}-composite", compose(f, f)
        yield f"{name}-iterate", iterate_map(f, 3)


def test_the_wire_is_a_fixed_point_for_every_presentation():
    kinds = set()
    for name, f in _wire_cases():
        wire = map_to_json(f)
        assert map_to_json(map_from_json(wire, f.space)) == wire, name
        kinds.add(f.kind)
    assert kinds == {"finite-table", "alpha-rule", "piecewise-linear", "lattice-rule"}


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


def test_compose_budget_guard(monkeypatch):
    # tent-map iterates double their piece count every round; the budget stops it
    monkeypatch.setattr(maps, "BREAKPOINT_BUDGET", 1_000)
    with pytest.raises(DomainError, match="over the budget 1000$"):
        iterate_map(tent_map(), 40)


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
    f = AlphaMap(space=sp, table=(0, 2, 3, 3))
    est = lip_constant(f)
    assert not est.exact
    assert est.value == 4.0  # alpha_2 / alpha_1
    assert est.witness == 1
    with pytest.raises(PrefixExhausted):
        lip_constant(f, window=99)


@pytest.mark.parametrize("make", [
    lambda: FiniteMap(FiniteSpace(((0.0, 1.0), (1.0, 0.0))), (0, 1)),
    lambda: LatticeMap(space=LatticeBox(bounds=((-3, 3),)), matrix=[[-1]]),
    lambda: PiecewiseLinearMap(IntervalSpace(0.0, 1.0), [(0.0, 0.0), (1.0, 1.0)]),
], ids=["finite-table", "lattice-rule", "piecewise-linear"])
def test_a_window_on_a_map_that_is_not_a_sequence_rule_is_refused(make):
    # the window was once dropped without a word, and the estimate called exact
    f = make()
    assert lip_constant(f).exact
    for window in (1, 99):
        with pytest.raises(DomainError, match=r"^window applies to sequence rules only$"):
            lip_constant(f, window=window)


def test_lip_lattice_enumerates_small_boxes():
    box = LatticeBox(bounds=((-3, 3),))
    f = LatticeMap(space=box, matrix=[[-1]])
    est = lip_constant(f)
    assert est.exact and est.value == 1.0


def _random_lattice_map(rng, dim):
    """A random matrix with entries in -1..1 on a random box, and the image of each box point,
    computed apart from ``apply``, or None when some point leaves the box.  Most entries
    are 0, so that some 3-d maps keep their box (with uniform entries few do)."""
    box = LatticeBox(tuple((-rng.randrange(0, 3), rng.randrange(1, 3)) for _ in range(dim)))
    matrix = [[rng.choice((-1, 0, 0, 0, 0, 1)) for _ in range(dim)] for _ in range(dim)]
    image = {p: tuple(int(c) for c in np.array(matrix) @ p) for p in box.points()}
    inside = all(lo <= c <= hi for q in image.values() for c, (lo, hi) in zip(q, box.bounds))
    return LatticeMap(box, matrix), image if inside else None


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lip_lattice_unit_steps_match_all_pairs(rng, dim):
    # l1 on a box is the path metric of its grid, so the largest ratio over
    # unit steps is the largest over all pairs; a map that sends a point out is refused
    kept = 0
    for _ in range(40):
        f, image = _random_lattice_map(rng, dim)
        if image is None:
            with pytest.raises(DomainError, match=r"^point .* not in lattice box"):
                lip_constant(f)
            continue
        kept += 1
        sp = f.space
        pts = list(sp.points())
        brute = max(
            sp.distance(image[p], image[q]) / sp.distance(p, q)
            for i, p in enumerate(pts) for q in pts[i + 1:]
        )
        est = lip_constant(f)
        assert est.exact and est.value == brute
        if brute > 0.0:  # a map onto the origin has no witness
            p, q = est.witness
            assert sp.distance(p, q) == 1.0
            assert sp.distance(image[p], image[q]) == est.value
    assert 0 < kept < 40


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
    kept = 0
    for dim in (1, 2, 3):
        for _ in range(10):
            f, image = _random_lattice_map(rng, dim)
            if image is None:
                for norm in (operator_norm_estimate, lip_constant):
                    with pytest.raises(DomainError, match=r"^point .* not in lattice box"):
                        norm(f)
                continue
            kept += dim == 3
            est = operator_norm_estimate(f)
            assert est.exact and est.value == lip_constant(f).value
    assert kept  # a 3-d map that keeps its box was met


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


def test_operator_norm_on_given_points_is_a_maximum_not_marked_exact():
    # on the path 0 - 1 - 2 the table (0, 2, 2) stretches the edge (0, 1) to 2;
    # the points 0 and 2 alone see only the ratio 1
    path = FiniteSpace(((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (2.0, 1.0, 0.0)))
    f = FiniteMap(path, (0, 2, 2))
    est = operator_norm_estimate(f)
    assert (est.value, est.witness, est.exact, est.note) == (2.0, (0, 1), True, "")
    est = operator_norm_estimate(f, points=[0, 2])
    assert (est.value, est.witness, est.exact) == (1.0, (0, 2), False)
    assert est.note == "maximum over pairs of the given points"


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


# edges that tie: on three points at mutual distance 1 a swap keeps every
# edge at ratio 1, a reflection of a box keeps every unit step at 1, and the
# table 1 <-> 2, 3 <-> 4 on the weights 1, 2, 1, 2 doubles the star edges
# (0, 1) and (0, 3); the witness is the first maximal edge in _edges order
TIED = {
    "finite-table": (lambda: FiniteMap(FiniteSpace(((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0))), (0, 2, 1)),
                     (0, 1)),
    "lattice-rule": (lambda: LatticeMap(LatticeBox(((-1, 1), (-1, 1))), [[-1, 0], [0, 1]]),
                     ((-1, -1), (0, -1))),
    "alpha-rule": (lambda: map_from_json({"kind": "alpha-rule", "rule": "table", "table": [0, 2, 1, 4, 3]},
                                         AlphaSpace([1.0, 2.0, 1.0, 2.0])),
                   (0, 1)),
}


@pytest.mark.parametrize("case", sorted(TIED))
def test_a_tie_goes_to_the_first_maximal_edge(case):
    build, first = TIED[case]
    f = build()
    sp = f.space
    edges = list(maps._edges(sp))
    ratios = [sp.distance(f.apply(x), f.apply(y)) / sp.distance(x, y) for x, y in edges]
    best = max(ratios)
    assert ratios.count(best) >= 2 and edges[ratios.index(best)] == first
    lip, op = lip_constant(f), operator_norm_estimate(f)
    assert (lip.value, lip.witness) == (best, first[1] if case == "alpha-rule" else first)
    assert (op.value, op.witness) == (best, first)


def test_lip_alpha_is_the_largest_weight_ratio_bit_for_bit(rng):
    # the star edge (0, n) reads d(f(0), f(n)) / d(0, n), which is alpha_{f(n)} / alpha_n
    for _ in range(20):
        n = rng.randrange(1, 12)
        sp = AlphaSpace([rng.uniform(0.1, 5.0) for _ in range(n)])
        table = [0] + [rng.randrange(n + 1) for _ in range(n)]
        f = map_from_json({"kind": "alpha-rule", "rule": "table", "table": table}, sp)
        window = rng.randrange(1, n + 1)
        ratios = [0.0 if table[k] == 0 else sp.alpha(table[k]) / sp.alpha(k) for k in range(1, window + 1)]
        est = lip_constant(f, window=window)
        assert est.value == max(ratios)
        assert est.witness == (None if max(ratios) == 0.0 else ratios.index(max(ratios)) + 1)
        assert est.note == f"supremum over indices 1..{window}"


def test_an_alpha_table_rule_refuses_an_index_past_its_table():
    f = map_from_json({"kind": "alpha-rule", "rule": "table", "table": [0, 1]}, AlphaSpace([1.0, 2.0]))
    assert f.apply(1) == 1
    for call in (lambda: f.apply(2), lambda: lip_constant(f)):
        with pytest.raises(PrefixExhausted, match=r"^table rule covers indices up to 1$"):
            call()
    assert lip_constant(f, window=1).value == 1.0


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


def test_pl_map_json_round_trip_with_an_unbounded_left_end():
    space = IntervalSpace(-math.inf, 0.0)
    f = PiecewiseLinearMap(space, [(-1.0, -0.5), (0.0, 0.0)], left_slope=0.25)
    wire = map_to_json(f)
    assert wire == {"kind": "piecewise-linear", "breakpoints": [[-1.0, -0.5], [0.0, 0.0]], "left_slope": 0.25}
    back = map_from_json(wire, space)
    assert (back.xs, back.ys, back.left_slope, back.right_slope) == (f.xs, f.ys, 0.25, 0.0)


def test_alpha_map_json_named_rule():
    sp = AlphaSpace([1.0, 2.0, 3.0])
    f = AlphaMap(space=sp, table=(0,), shift=1)
    wire = map_to_json(f)
    assert wire == {"kind": "alpha-rule", "rule": "forward-shift"}
    back = map_from_json(wire, sp)
    assert back.apply(1) == 2


def test_alpha_map_json_table_rule():
    sp = AlphaSpace([1.0, 2.0])
    f = map_from_json({"kind": "alpha-rule", "rule": "table", "table": [0, 2, 1]}, sp)
    assert f.apply(1) == 2 and f.apply(2) == 1


def test_lattice_map_json_matrix_rule():
    box = LatticeBox(bounds=((-4, 4), (-4, 4)))
    wire = {"kind": "lattice-rule", "rule": "matrix", "matrix": [[0, 1], [1, 0]]}
    f = map_from_json(wire, box)
    assert f.apply((1, 2)) == (2, 1)
    assert map_to_json(f) == wire


def test_map_from_json_rejects_unknown_kind():
    with pytest.raises(DomainError):
        map_from_json({"kind": "quantum"}, UNIT)


@pytest.mark.parametrize("thing", [UNIT, None, {"kind": "finite-table", "table": [0]}])
def test_map_to_json_refuses_what_is_not_a_map(thing):
    with pytest.raises(TypeError) as err:
        map_to_json(thing)
    assert str(err.value) == f"not a map: {thing!r}"


# ---------------------------------------------------------------------------
# each number is read once, by the constructor of the map that holds it

LINE = IntervalSpace(-math.inf, math.inf)
PAIR = FiniteSpace(((0.0, 1.0), (1.0, 0.0)))
NOT_A_MAP = object()

# each input is refused by name from the Python API, as it is from a JSON file
BAD_MAP_INPUTS = {
    "nan-abscissa": (lambda: PiecewiseLinearMap(LINE, [(math.nan, 0.0), (0.0, 0.0)], left_slope=1.0, right_slope=1.0),
                     "breakpoint nan is not a finite number"),
    "infinite-value": (lambda: PiecewiseLinearMap(HALF_LINE, [(0.0, 0.0), (1.0, math.inf)], right_slope=1.0),
                       "breakpoint inf is not a finite number"),
    "huge-breakpoint": (lambda: PiecewiseLinearMap(HALF_LINE, [(0.0, 0.0), (10**400, 1.0)], right_slope=1.0),
                        f"breakpoint {10**400} is too large for a float"),
    "infinite-slope": (lambda: PiecewiseLinearMap(HALF_LINE, [(0.0, 0.0)], right_slope=math.inf),
                       "right_slope inf is not a finite number"),
    "string-slope": (lambda: PiecewiseLinearMap(HALF_LINE, [(0.0, 0.0)], right_slope="2"),
                     "right_slope '2' is not a number"),
    "bool-slope": (lambda: PiecewiseLinearMap(LINE, [(0.0, 0.0)], left_slope=True, right_slope=1.0),
                   "left_slope True is not a number"),
    "pl-on-a-finite-space": (lambda: PiecewiseLinearMap(PAIR, [(0.0, 0.0)]),
                             "piecewise-linear maps need an interval space"),
    "table-on-an-interval": (lambda: FiniteMap(IntervalSpace(), (0,)), "finite-table maps need a finite space"),
    "alpha-rule-on-a-finite-space": (lambda: AlphaMap(PAIR, lambda n: n), "alpha rules need a sequence space"),
    "lattice-rule-on-an-interval": (lambda: LatticeMap(UNIT, [[1]]), "lattice rules need a lattice box"),
    "alpha-rule-on-a-lattice-box": (lambda: AlphaMap(LatticeBox(((-1, 1),)), lambda n: n),
                                    "alpha rules need a sequence space"),
    "lattice-rule-on-a-sequence-space": (lambda: LatticeMap(AlphaSpace([1.0]), [[1]]),
                                         "lattice rules need a lattice box"),
    # every presentation names the basepoint and its image alike
    "alpha-rule-moves-the-basepoint": (lambda: AlphaMap(AlphaSpace([1.0, 2.0]), (1,), 1),
                                       "map must fix the basepoint 0, got 1"),
    "table-moves-the-basepoint": (lambda: FiniteMap(PAIR, (1, 1)), "map must fix the basepoint 0, got 1"),
    "json-table-moves-the-basepoint": (lambda: map_from_json({"kind": "finite-table", "table": [1, 1]}, PAIR),
                                       "map must fix the basepoint 0, got 1"),
    "pl-moves-the-basepoint": (lambda: PiecewiseLinearMap(UNIT, [(0.0, 0.5), (1.0, 1.0)]),
                               "map must fix the basepoint 0.0, got 0.5"),
    # a matrix fixes the origin; one of another shape is refused by the box's dimension
    "lattice-matrix-of-another-dimension": (lambda: LatticeMap(LatticeBox(((-2, 2),)), [[1, 0], [0, 1]]),
                                            "a lattice rule on a box of dimension 1 needs a 1 x 1 matrix"),
    "json-matrix-of-another-dimension": (lambda: map_from_json({"kind": "lattice-rule", "matrix": [[1]]},
                                                               LatticeBox(((-1, 1), (-1, 1)))),
                                         "a lattice rule on a box of dimension 2 needs a 2 x 2 matrix"),
    "left-slope-on-a-finite-end": (lambda: PiecewiseLinearMap(UNIT, [(0.0, 0.0), (1.0, 1.0)], left_slope=1.0),
                                   "left slope is only for an unbounded left end"),
    "left-tail-escapes-upward": (lambda: PiecewiseLinearMap(IntervalSpace(-math.inf, 0.0), [(0.0, 0.0)],
                                                            left_slope=-1.0),
                                 "left tail escapes the interval upward"),
    "json-map-not-a-dict": (lambda: map_from_json([1, 2], PAIR), "map object must be a dict with a 'kind' field"),
    "json-unknown-alpha-rule": (lambda: map_from_json({"kind": "alpha-rule", "rule": "backward-shift"},
                                                      AlphaSpace([1.0, 2.0])),
                                "unknown alpha rule 'backward-shift'"),
    "json-alpha-table-moves-zero": (lambda: map_from_json({"kind": "alpha-rule", "rule": "table", "table": [1, 0]},
                                                          AlphaSpace([1.0, 2.0])),
                                    "map must fix the basepoint 0, got 1"),
    "table-not-a-list": (lambda: FiniteMap(PAIR, 5), "map table must be a list of points"),
    # a str is no list: once read a letter at a time, as "point '0' not in finite space of size 2"
    "table-a-string": (lambda: FiniteMap(PAIR, "01"), "map table must be a list of points"),
    "breakpoint-a-string": (lambda: PiecewiseLinearMap(UNIT, [(0, 0), "11"]),
                            "breakpoints must be a list of (x, y) pairs"),
    "json-matrix-row-a-string": (lambda: map_from_json({"kind": "lattice-rule", "matrix": ["00", "00"]},
                                                       LatticeBox(((-1, 1), (-1, 1)))),
                                 "lattice rules are given by a square integer matrix"),
    "json-table-not-a-list": (lambda: map_from_json({"kind": "finite-table", "table": 5}, PAIR),
                              "map table must be a list of points"),
    "alpha-table-negative": (lambda: AlphaMap(AlphaSpace([1.0] * 3), [0, -1, 1, 2]),
                             "alpha table entry -1 is negative: no sequence space has it"),
    "json-alpha-table-negative": (lambda: map_from_json({"kind": "alpha-rule", "rule": "table", "table": [0, -1, 1, 2]},
                                                        AlphaSpace([1.0] * 3)),
                                  "alpha table entry -1 is negative: no sequence space has it"),
    "alpha-table-empty": (lambda: AlphaMap(AlphaSpace([1.0]), []), "alpha table is empty: it needs the entry 0 -> 0"),
    "alpha-shift-negative": (lambda: AlphaMap(AlphaSpace([1.0]), (0,), -1), "alpha shift must be a nonnegative integer"),
    "alpha-shift-a-float": (lambda: AlphaMap(AlphaSpace([1.0]), (0,), 1.0), "alpha shift must be a nonnegative integer"),
    "json-alpha-table-not-a-list": (lambda: map_from_json({"kind": "alpha-rule", "rule": "table", "table": 5},
                                                          AlphaSpace([1.0, 2.0])),
                                    "map table must be a list of points"),
    "json-matrix-not-a-list": (lambda: map_from_json({"kind": "lattice-rule", "matrix": 5}, LatticeBox(((-1, 1),))),
                               "lattice rules are given by a square integer matrix"),
    "json-matrix-row-not-a-list": (lambda: map_from_json({"kind": "lattice-rule", "matrix": [5]},
                                                         LatticeBox(((-1, 1),))),
                                   "lattice rules are given by a square integer matrix"),
    "lip-of-a-non-map": (lambda: lip_constant(NOT_A_MAP), f"not a recognized map presentation: {NOT_A_MAP!r}"),
}


@pytest.mark.parametrize("case", sorted(BAD_MAP_INPUTS))
def test_a_map_refuses_a_bad_number_or_space_by_name(case):
    build, message = BAD_MAP_INPUTS[case]
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message


def test_a_map_stores_its_numbers_in_canonical_types():
    f = PiecewiseLinearMap(HALF_LINE, [(0, 0), (1, 2)], right_slope=np.float64(1))
    assert f.xs == (0.0, 1.0) and f.ys == (0.0, 2.0) and type(f.right_slope) is float
    assert all(type(v) is float for v in f.xs + f.ys + f.slopes())
    g = FiniteMap(PAIR, [np.int64(0), 1])
    assert g.table == (0, 1) and all(type(j) is int for j in g.table)


def test_table_entries_stay_points_in_python():
    with pytest.raises(DomainError, match="point 1.0 not in finite space of size 2"):
        FiniteMap(PAIR, (0, 1.0))


# a JSON map with one bad field, and the Python call that holds the same field
MAP_TWINS = {
    "breakpoint-string": (UNIT, {"kind": "piecewise-linear", "breakpoints": [[0, 0], [1, "0.5"]]},
                          lambda: PiecewiseLinearMap(UNIT, [(0, 0), (1, "0.5")])),
    "breakpoint-nan": (LINE, {"kind": "piecewise-linear", "breakpoints": [[0, 0], [math.nan, 1]],
                              "left_slope": 1, "right_slope": 1},
                       lambda: PiecewiseLinearMap(LINE, [(0, 0), (math.nan, 1)], 1, 1)),
    "right-slope-infinite": (HALF_LINE, {"kind": "piecewise-linear", "breakpoints": [[0, 0]], "right_slope": math.inf},
                             lambda: PiecewiseLinearMap(HALF_LINE, [(0, 0)], right_slope=math.inf)),
    "table-on-an-interval": (UNIT, {"kind": "finite-table", "table": [0]}, lambda: FiniteMap(UNIT, (0,))),
    "pl-on-a-finite-space": (PAIR, {"kind": "piecewise-linear", "breakpoints": [[0, 0]]},
                             lambda: PiecewiseLinearMap(PAIR, [(0, 0)])),
    "alpha-rule-on-a-finite-space": (PAIR, {"kind": "alpha-rule", "rule": "forward-shift"},
                                     lambda: AlphaMap(PAIR, lambda n: n)),
    "lattice-rule-on-an-interval": (UNIT, {"kind": "lattice-rule", "matrix": [[1]]},
                                    lambda: LatticeMap(UNIT, [[1]])),
    "table-moves-the-basepoint": (PAIR, {"kind": "finite-table", "table": [1, 0]}, lambda: FiniteMap(PAIR, (1, 0))),
    "pl-moves-the-basepoint": (UNIT, {"kind": "piecewise-linear", "breakpoints": [[0, 0.5], [1, 1]]},
                               lambda: PiecewiseLinearMap(UNIT, [(0, 0.5), (1, 1)])),
    "breakpoint-not-a-pair": (UNIT, {"kind": "piecewise-linear", "breakpoints": [[0, 0, 1], [1, 1]]},
                              lambda: PiecewiseLinearMap(UNIT, [(0, 0, 1), (1, 1)])),
    "table-not-a-list": (PAIR, {"kind": "finite-table", "table": 5}, lambda: FiniteMap(PAIR, 5)),
    "table-a-string": (PAIR, {"kind": "finite-table", "table": "01"}, lambda: FiniteMap(PAIR, "01")),
    "alpha-table-negative": (AlphaSpace([1.0] * 3), {"kind": "alpha-rule", "rule": "table", "table": [0, -1, 1, 2]},
                             lambda: AlphaMap(AlphaSpace([1.0] * 3), [0, -1, 1, 2])),
    "alpha-table-empty": (AlphaSpace([1.0]), {"kind": "alpha-rule", "rule": "table", "table": []},
                          lambda: AlphaMap(AlphaSpace([1.0]), [])),
    "breakpoints-not-a-list": (UNIT, {"kind": "piecewise-linear", "breakpoints": 5},
                               lambda: PiecewiseLinearMap(UNIT, 5)),
}


@pytest.mark.parametrize("case", sorted(MAP_TWINS))
def test_a_json_map_and_its_python_twin_refuse_a_bad_field_alike(case):
    space, obj, build = MAP_TWINS[case]
    with pytest.raises(DomainError) as from_json:
        map_from_json(obj, space)
    with pytest.raises(DomainError) as from_python:
        build()
    assert str(from_json.value) == str(from_python.value)


def test_breakpoints_are_read_once_from_any_iterable():
    pairs = ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))
    want = PiecewiseLinearMap(UNIT, pairs)
    got = PiecewiseLinearMap(UNIT, (pair for pair in pairs))
    assert map_to_json(got) == map_to_json(want)
    assert [got.apply(x) for x in (0.25, 0.75)] == [want.apply(x) for x in (0.25, 0.75)]
    with pytest.raises(DomainError) as err:
        PiecewiseLinearMap(UNIT, (pair for pair in ()))
    assert str(err.value) == "need at least one breakpoint"


@pytest.mark.parametrize("matrix", [[[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1]], []],
                         ids=["not-square", "three-by-three", "one-by-one", "empty"])
def test_a_lattice_matrix_of_another_shape_is_refused(matrix):
    # from JSON and from Python alike, the empty matrix too
    box = LatticeBox(((-2, 2), (-2, 2)))
    for build in (lambda: map_from_json({"kind": "lattice-rule", "matrix": matrix}, box), lambda: LatticeMap(box, matrix)):
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value) == "a lattice rule on a box of dimension 2 needs a 2 x 2 matrix"


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


@st.composite
def pl_pair(draw):
    """Two piecewise-linear maps on one interval, bounded or not.  Breakpoints
    sit on consecutive integers with integer values, so every slope is an
    integer and every composed value stays inside the interval."""
    a = draw(st.sampled_from([-math.inf, -3.0, -1.0, 0.0]))
    b = draw(st.sampled_from([0.0, 1.0, 3.0, math.inf]))
    assume(a < b)
    space = IntervalSpace(a, b)

    def one():
        lo = a if math.isfinite(a) else draw(st.integers(-3, 0))
        hi = b if math.isfinite(b) else draw(st.integers(0, 3))
        xs = range(int(lo), int(hi) + 1)
        ys = [0 if x == 0 else draw(st.integers(int(max(a, -4)), int(min(b, 4)))) for x in xs]
        # a tail that points back into a finite far end must not leave it
        ls = None if math.isfinite(a) else draw(st.integers(0 if math.isfinite(b) else -3, 3))
        rs = None if math.isfinite(b) else draw(st.integers(0 if math.isfinite(a) else -3, 3))
        return PiecewiseLinearMap(space, list(zip(xs, ys)), left_slope=ls, right_slope=rs)

    return space, one(), one()


@settings(deadline=None, max_examples=80)
@given(pl_pair())
def test_pl_slopes_are_never_empty_and_a_composite_keeps_the_finite_ends(case):
    space, f, g = case
    h = compose(f, g)
    assert f.slopes() and g.slopes() and h.slopes()
    assert all(space.a <= x <= space.b for x in h.xs)
    assert h.xs[0] == space.a or not math.isfinite(space.a)
    assert h.xs[-1] == space.b or not math.isfinite(space.b)
