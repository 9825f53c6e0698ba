from __future__ import annotations

import math
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelip import (
    AlphaSpace,
    DomainError,
    FiniteSpace,
    IntervalSpace,
    LatticeBox,
    PrefixExhausted,
    restrict_to_points,
    same_space,
    space_from_json,
    space_to_json,
    validate_finite_metric,
)
from conftest import random_finite_space


# ---------------------------------------------------------------------------
# metric validation


def test_validate_accepts_euclidean_matrix(rng):
    sp = random_finite_space(rng, 12)
    assert validate_finite_metric(sp.matrix) is None


@pytest.mark.parametrize(
    "matrix, kind",
    [
        ([[0.0, 1.0], [1.0, 0.1]], "diagonal"),
        ([[0.0, 1.0], [2.0, 0.0]], "symmetry"),
        ([[0.0, -1.0], [-1.0, 0.0]], "negative"),
        ([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]], "triangle"),
        ([[0.0, 1.0]], "shape"),
        ([[0.0, math.nan], [math.nan, 0.0]], "non-finite"),
        ([[0.0, 0.0], [0.0, 0.0]], "zero-off-diagonal"),
        ([[0.0, -1.0], [2.0, 0.5]], "diagonal"),  # the first of three violations
    ],
)
def test_validate_flags_each_axiom(matrix, kind):
    with pytest.raises(DomainError, match=rf"^not a metric \({kind}\): "):
        validate_finite_metric(matrix)


def test_metric_messages_name_plain_floats():
    for matrix, message in (
        ([[1.0]], "not a metric (diagonal): d[0][0] = 1.0 != 0"),
        ([[0.0, -1.0], [-1.0, 0.0]], "not a metric (negative): d[0][1] = -1.0 < 0"),
        ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], "not a metric (triangle): d[0][2] = 3.0 > d[0][1] + d[1][2] = 2.0"),
    ):
        with pytest.raises(DomainError) as err:
            validate_finite_metric(matrix)
        assert str(err.value) == message


def _first_triangle_violation_per_pivot(matrix):
    """The reference: one pivot at a time, the first violating (i, j) in row-major order."""
    d = np.asarray(matrix, dtype=float)
    for k in range(len(d)):
        at = np.argwhere(d - (d[:, [k]] + d[[k], :]) > 1e-12)
        if len(at):
            i, j = (int(v) for v in at[0])
            return (f"not a metric (triangle): d[{i}][{j}] = {float(d[i, j])!r} > "
                    f"d[{i}][{k}] + d[{k}][{j}] = {float(d[i, k] + d[k, j])!r}")
    return None


def test_validate_reports_the_first_triangle_violation_across_pivot_blocks():
    # 70 points at distance 2, with two shortcuts of length 1 + 1 under a 2.5:
    # through pivot 4 for the pair (60, 66), through pivot 40 for (1, 2).  The
    # pivots lie in different blocks, and the first violation by pivot comes
    # after the other one in row-major order.
    d = np.full((70, 70), 2.0)
    np.fill_diagonal(d, 0.0)
    for k, (i, j) in ((4, (60, 66)), (40, (1, 2))):
        d[k, [i, j]] = d[[i, j], k] = 1.0
        d[i, j] = d[j, i] = 2.5
    want = _first_triangle_violation_per_pivot(d)
    assert want.startswith("not a metric (triangle): d[60][66] = ") and "> d[60][4] + d[4][66] = " in want
    with pytest.raises(DomainError) as err:
        validate_finite_metric(d)
    assert str(err.value) == want
    d[60, 66] = d[66, 60] = 2.0  # the violation at pivot 40 is left
    with pytest.raises(DomainError) as err:
        validate_finite_metric(d)
    assert str(err.value) == _first_triangle_violation_per_pivot(d) and "> d[1][40] + d[40][2] = " in str(err.value)


def test_a_metric_whose_triangle_sums_overflow_builds_without_a_warning():
    # 1e308 + 1e308 is inf, which flags no violation; under Tier-1's
    # error::RuntimeWarning filter a numpy overflow warning would fail here
    far = 1e308
    space = FiniteSpace(((0.0, far, far), (far, 0.0, far), (far, far, 0.0)))
    assert space.distance(1, 2) == far
    sub = restrict_to_points(AlphaSpace([far, far]), [1])
    assert sub.matrix == ((0.0, far), (far, 0.0))


def test_finite_space_rejects_bad_matrix():
    with pytest.raises(DomainError):
        FiniteSpace(matrix=((0.0, 1.0), (2.0, 0.0)), basepoint=0)
    with pytest.raises(DomainError):
        FiniteSpace(matrix=((0.0, 1.0), (1.0, 0.0)), basepoint=5)


def test_finite_space_points_and_distance():
    sp = FiniteSpace(matrix=((0.0, 2.0), (2.0, 0.0)), basepoint=0)
    assert sp.size == 2
    assert list(sp.points()) == [0, 1]
    assert sp.distance(0, 1) == 2.0
    with pytest.raises(DomainError):
        sp.check_point(7)


# ---------------------------------------------------------------------------
# sequence spaces (d(i,0) = alpha_i, d(i,j) = alpha_i + alpha_j)


def test_alpha_space_distances_split_through_origin():
    sp = AlphaSpace([1.0, 0.5, 0.25])
    assert sp.distance(0, 0) == 0.0
    assert sp.distance(1, 0) == 1.0
    assert sp.distance(0, 3) == 0.25
    assert sp.distance(1, 3) == 1.25
    assert sp.distance(2, 2) == 0.0
    # triangle inequality is automatic for this shape: d(i,j) = d(i,0)+d(0,j)
    assert sp.distance(1, 2) == sp.distance(1, 0) + sp.distance(0, 2)


def test_alpha_space_is_one_indexed():
    sp = AlphaSpace([3.0, 4.0])
    assert sp.alpha(1) == 3.0
    assert sp.alpha(2) == 4.0
    with pytest.raises(DomainError):
        sp.alpha(0)


def test_alpha_space_prefix_is_finite_window():
    sp = AlphaSpace([1.0, 2.0])
    assert sp.prefix_length == 2
    assert sp.check_point(2) == 2
    with pytest.raises(PrefixExhausted):
        sp.check_point(3)
    with pytest.raises(PrefixExhausted):
        sp.alpha(3)
    with pytest.raises(PrefixExhausted):
        sp.distance(0, 3)


def test_alpha_check_point_tells_a_non_point_from_one_past_the_prefix():
    sp = AlphaSpace([1.0, 2.0, 3.0])
    for bad in (-1, True, 1.0, "1"):
        with pytest.raises(DomainError, match="not in sequence space with prefix length 3") as err:
            sp.check_point(bad)
        assert not isinstance(err.value, PrefixExhausted)
    with pytest.raises(PrefixExhausted, match="point 4 lies past the materialized prefix of length 3"):
        sp.check_point(4)
    p = sp.check_point(np.int64(3))
    assert p == 3 and type(p) is int


def test_alpha_space_rejects_nonpositive_weights():
    with pytest.raises(DomainError):
        AlphaSpace([1.0, 0.0])
    with pytest.raises(DomainError):
        AlphaSpace([])


@pytest.mark.parametrize("weights, message", [
    ([1.0, -1.0], "alpha_2 = -1.0 is not a positive real"),
    ((w for w in [2.0, 1.0, math.nan]), "alpha_3 = nan is not a positive real"),
    (np.array([math.inf]), "alpha_1 = inf is not a positive real"),
    (["a"], "alpha_1 is not a real number (must be real number, not str)"),
    ([1.0, 10**400], "alpha_2 is not a real number (int too large to convert to float)"),
], ids=["negative", "nan-from-a-generator", "inf-in-an-ndarray", "string", "huge-int"])
def test_a_bad_alpha_weight_is_named_as_a_plain_float(weights, message):
    with pytest.raises(DomainError) as err:
        AlphaSpace(weights)
    assert str(err.value) == message


def test_alpha_weights_whose_sum_overflows_are_still_valid():
    sp = AlphaSpace([1e308, 1e308])
    assert sp.alpha(2) == 1e308 and sp.distance(0, 2) == 1e308


def test_alpha_weights_read_from_any_iterable_of_reals():
    want = AlphaSpace([0.5, 2.0, 3.0])
    for weights in (array("d", [0.5, 2.0, 3.0]), array("f", [0.5, 2.0, 3.0]), np.array([0.5, 2.0, 3.0]),
                    (w for w in (0.5, 2, Fraction(3)))):
        assert AlphaSpace(weights) == want


def test_alpha_prefix_array_is_readonly():
    sp = AlphaSpace([1.0, 2.0, 3.0])
    arr = sp.alpha_prefix()
    with pytest.raises((ValueError, RuntimeError)):
        arr[0] = 99.0


BIG = 10**400

# each input's outcome, as returned or raised before numpy left the import path:
# a value with its type, or an error class with its message
CHECK_POINT_CASES = {
    "finite": [
        ("int64", np.int64(1), 1),
        ("float32", np.float32(1.0), (DomainError, "point np.float32(1.0) not in finite space of size 3")),
        ("float64", np.float64(1.0), (DomainError, "point np.float64(1.0) not in finite space of size 3")),
        ("fraction-1", Fraction(1), (DomainError, "point Fraction(1, 1) not in finite space of size 3")),
        ("bool", True, (DomainError, "point True not in finite space of size 3")),
        ("10**400", BIG, (DomainError, f"point {BIG} not in finite space of size 3")),
    ],
    "alpha": [
        ("int64", np.int64(1), 1),
        ("float32", np.float32(1.0), (DomainError, "point np.float32(1.0) not in sequence space with prefix length 2")),
        ("float64", np.float64(1.0), (DomainError, "point np.float64(1.0) not in sequence space with prefix length 2")),
        ("fraction-1", Fraction(1), (DomainError, "point Fraction(1, 1) not in sequence space with prefix length 2")),
        ("bool", True, (DomainError, "point True not in sequence space with prefix length 2")),
        ("10**400", BIG, (PrefixExhausted, f"point {BIG} lies past the materialized prefix of length 2")),
        ("-10**400", -BIG, (DomainError, f"point {-BIG} not in sequence space with prefix length 2")),
    ],
    "interval": [
        ("int64", np.int64(-1), -1.0),
        ("float32", np.float32(1.5), 1.5),
        ("float64", np.float64(1.5), 1.5),
        ("fraction-1/2", Fraction(1, 2), (DomainError, "point Fraction(1, 2) not in interval [-3.0, 3.0]")),
        ("fraction-1", Fraction(1), (DomainError, "point Fraction(1, 1) not in interval [-3.0, 3.0]")),
        ("bool", True, (DomainError, "point True not in interval [-3.0, 3.0]")),
        ("10**400", BIG, (DomainError, f"point {BIG} not in interval [-3.0, 3.0]")),
        ("-10**400", -BIG, (DomainError, f"point {-BIG} not in interval [-3.0, 3.0]")),
    ],
    "lattice": [
        ("int64", (np.int64(-1),), (-1,)),
        ("float32", (np.float32(1.0),), (DomainError, "point (np.float32(1.0),) not in lattice box ((-3, 3),)")),
        ("float64", (np.float64(1.0),), (DomainError, "point (np.float64(1.0),) not in lattice box ((-3, 3),)")),
        ("fraction-1", (Fraction(1),), (DomainError, "point (Fraction(1, 1),) not in lattice box ((-3, 3),)")),
        ("bool", (True,), (DomainError, "point (True,) not in lattice box ((-3, 3),)")),
        ("10**400", (BIG,), (DomainError, f"point ({BIG},) not in lattice box ((-3, 3),)")),
    ],
}


@pytest.mark.parametrize("kind, p, want", [pytest.param(k, p, w, id=f"{k}-{label}")
                                           for k, cases in CHECK_POINT_CASES.items() for label, p, w in cases])
def test_check_point_on_numpy_scalars_fractions_bools_and_huge_ints(kind, p, want):
    space = {
        "finite": FiniteSpace(((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (2.0, 1.0, 0.0))),
        "alpha": AlphaSpace([1.0, 2.0]),
        "interval": IntervalSpace(-3.0, 3.0),
        "lattice": LatticeBox(((-3, 3),)),
    }[kind]
    if isinstance(want, tuple) and isinstance(want[0], type):
        with pytest.raises(want[0]) as err:
            space.check_point(p)
        assert type(err.value) is want[0] and str(err.value) == want[1]
    else:
        got = space.check_point(p)
        assert got == want and type(got) is type(want)
        if isinstance(got, tuple):
            assert all(type(c) is int for c in got)


def test_alpha_space_equality_and_hash():
    a = AlphaSpace([1.0, 2.0])
    b = AlphaSpace([1.0, 2.0])
    c = AlphaSpace([1.0, 2.5])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert same_space(a, b)
    assert not same_space(a, c)


# ---------------------------------------------------------------------------
# intervals and lattice boxes


def test_interval_space_membership():
    sp = IntervalSpace(0.0, 1.0)
    assert sp.bounded
    assert sp.check_point(0.5) == 0.5
    with pytest.raises(DomainError):
        sp.check_point(1.5)
    assert sp.distance(0.25, 1.0) == 0.75
    with pytest.raises(DomainError):
        sp.check_point(-0.1)


def test_interval_space_must_contain_basepoint():
    with pytest.raises(DomainError):
        IntervalSpace(0.5, 2.0)
    with pytest.raises(DomainError):
        IntervalSpace(1.0, 0.0)


def test_interval_space_unbounded_sides():
    ray = IntervalSpace(0.0, math.inf)
    assert not ray.bounded
    assert ray.check_point(1e12) == 1e12
    line = IntervalSpace(-math.inf, math.inf)
    assert line.check_point(-1e9) == -1e9


def test_lattice_box_taxicab():
    box = LatticeBox(bounds=((-2, 2), (0, 3)))
    assert box.dim == 2
    assert box.basepoint == (0, 0)
    assert box.distance((1, 2), (-1, 0)) == 4.0
    assert box.size() == 5 * 4
    assert (2, 3) in set(box.points())
    with pytest.raises(DomainError):
        box.check_point((3, 0))
    with pytest.raises(DomainError):
        box.check_point((0.5, 0))
    with pytest.raises(DomainError):
        LatticeBox(bounds=((1, 2),))


# ---------------------------------------------------------------------------
# restriction


def test_restrict_inserts_basepoint_first(rng):
    sp = random_finite_space(rng, 8)
    sub = restrict_to_points(sp, [3, 5, 5, 1])
    assert sub.basepoint == 0
    assert sub.labels[0] == 0
    assert sub.size == 4  # base + {1, 3, 5}, duplicate collapsed
    for i, p in enumerate(sub.labels):
        for j, q in enumerate(sub.labels):
            assert sub.matrix[i][j] == sp.distance(p, q)


@pytest.mark.parametrize("kind", ["finite", "alpha", "interval", "lattice", "wide-lattice", "line-lattice"])
def test_cost_matrix_is_distance_bit_for_bit(rng, kind):
    # the per-pair ``distance`` loop is the reference; entries must be equal
    # floats, also where an int64 lattice difference would overflow and where
    # a point is listed twice
    spaces = {
        "finite": (random_finite_space(rng, 12), list(range(12))),
        "alpha": (AlphaSpace([rng.uniform(0.1, 5.0) for _ in range(12)]), [0, *rng.sample(range(1, 13), 9), 3]),
        "interval": (IntervalSpace(-2.0, 2.0), [0.0, *(rng.uniform(-2, 2) for _ in range(9)), 1e-300]),
        "lattice": (LatticeBox(((-5, 5), (-5, 5), (0, 3))),
                    [(0, 0, 0), *((rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(0, 3)) for _ in range(9))]),
        "wide-lattice": (LatticeBox(((-(2**63), 2**63), (-3, 3))),
                         [(0, 0), (2**63, 3), (-(2**63), -3), (2**53 + 1, 0), (-1, 2)]),
        "line-lattice": (LatticeBox(((-(2**62), 2**62),)),
                         [(0,), (2**62,), (-(2**62),), (2**62 - 1,), (2**62,), (-(2**53) - 1,)]),
    }
    space, pts = spaces[kind]
    got = space.cost_matrix([space.check_point(p) for p in pts])
    want = [[space.distance(p, q) for q in pts] for p in pts]
    assert [[(type(x), x.hex()) for x in row] for row in got] == [[(type(x), x.hex()) for x in row] for row in want]


@pytest.mark.parametrize("kind", ["finite", "numpy-finite", "alpha", "heavy-alpha", "interval", "whole-line",
                                  "lattice", "wide-lattice", "line-lattice"])
def test_distances_is_the_distance_loop_bit_for_bit(rng, kind):
    # from each point to all, a repeat included: equal types and floats, also
    # for numpy entries, +-0.0, sums and differences past the float range and
    # lattice differences past int64
    spaces = {
        "finite": (random_finite_space(rng, 9), [0, 3, 8, 3, 1]),
        "numpy-finite": (FiniteSpace(tuple(map(tuple, np.array([[0.0, 1.5, 2.0], [1.5, 0.0, 0.5], [2.0, 0.5, 0.0]])))),
                         [0, 2, 1, 2]),
        "alpha": (AlphaSpace([rng.uniform(0.1, 5.0) for _ in range(12)]), [0, *rng.sample(range(1, 13), 9), 3]),
        "heavy-alpha": (AlphaSpace([1e308, 1e308, 5e-324]), [0, 1, 2, 3, 1]),
        "interval": (IntervalSpace(-2.0, 2.0), [0.0, -0.0, *(rng.uniform(-2, 2) for _ in range(9)), 1e-300, 2.0]),
        "whole-line": (IntervalSpace(-math.inf, math.inf), [0.0, -1e308, 1e308, -5e-324, 1.7976931348623157e308]),
        "lattice": (LatticeBox(((-5, 5), (-5, 5), (0, 3))),
                    [(0, 0, 0), *((rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(0, 3)) for _ in range(9))]),
        "wide-lattice": (LatticeBox(((-(2**63), 2**63), (-3, 3))),
                         [(0, 0), (2**63, 3), (-(2**63), -3), (2**53 + 1, 0), (-1, 2)]),
        "line-lattice": (LatticeBox(((-(2**62), 2**62),)),
                         [(0,), (2**62,), (-(2**62),), (2**62 - 1,), (2**62,), (-(2**53) - 1,)]),
    }
    space, pts = spaces[kind]
    pts = [space.check_point(p) for p in pts]
    for p in pts:
        got = space.distances(p, pts)
        want = [space.distance(p, q) for q in pts]
        assert type(got) is list
        assert [(type(x), x.hex()) for x in got] == [(type(x), x.hex()) for x in want], p


def test_cost_matrix_refuses_a_distance_past_the_float_range():
    # a float sum or difference past the range is a silent inf; the refusal names the two points
    whole = IntervalSpace(-math.inf, math.inf)
    with pytest.raises(DomainError, match="between -1e[+]308 and 1e[+]308 overflows a float"):
        whole.cost_matrix([0.0, -1e308, 1e308])
    heavy = AlphaSpace([1e308, 1e308])
    with pytest.raises(DomainError, match="between 1 and 2 overflows a float"):
        heavy.cost_matrix([0, 1, 2])
    # a diagonal entry alpha_n + alpha_n overflows too, but it is zeroed first
    assert heavy.cost_matrix([0, 1]) == [[0.0, 1e308], [1e308, 0.0]]


def test_restrict_interval_points():
    sp = IntervalSpace(0.0, 2.0)
    sub = restrict_to_points(sp, [1.5, 0.5])
    assert sub.labels == (0.0, 0.5, 1.5)
    assert sub.matrix[1][2] == 1.0


def test_restrict_refuses_empty():
    with pytest.raises(DomainError):
        restrict_to_points(IntervalSpace(0.0, 1.0), [])


# ---------------------------------------------------------------------------
# wire format


@pytest.mark.parametrize(
    "space",
    [
        FiniteSpace(matrix=((0.0, 1.0), (1.0, 0.0)), basepoint=0, labels=("a", "b")),
        AlphaSpace([1.0, 0.5, 0.25]),
        IntervalSpace(0.0, 1.0),
        IntervalSpace(-math.inf, math.inf),
        IntervalSpace(0.0, math.inf),
        LatticeBox(bounds=((-1, 1), (-2, 2))),
    ],
)
def test_space_json_round_trip(space):
    there = space_to_json(space)
    back = space_from_json(there)
    assert same_space(space, back)
    assert space_to_json(back) == there


def test_space_json_infinite_endpoints_are_strings():
    obj = space_to_json(IntervalSpace(0.0, math.inf))
    assert obj["b"] == "inf"


def test_space_from_json_rejects_garbage():
    with pytest.raises(DomainError):
        space_from_json({"kind": "moebius"})
    with pytest.raises(DomainError):
        space_from_json({"no": "kind"})


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=30))
def test_alpha_space_triangle_inequality_everywhere(weights):
    sp = AlphaSpace(weights)
    n = sp.prefix_length
    pts = list(range(min(n, 6) + 1))
    for p in pts:
        for q in pts:
            assert sp.distance(p, q) == sp.distance(q, p)
            for r in pts:
                lhs = sp.distance(p, r)
                rhs = sp.distance(p, q) + sp.distance(q, r)
                assert lhs <= rhs + 1e-12 * (1.0 + rhs)


def test_numpy_integers_accepted_as_lattice_coords():
    box = LatticeBox(bounds=((-4, 4),))
    p = (np.int64(3),)
    assert box.check_point(p) == (3,)
    assert box.distance(p, (-1,)) == 4.0
