from __future__ import annotations

import math

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
    assert sp.contains(2)
    assert not sp.contains(3)
    with pytest.raises(PrefixExhausted):
        sp.alpha(3)
    with pytest.raises(PrefixExhausted):
        sp.distance(0, 3)


def test_alpha_space_rejects_nonpositive_weights():
    with pytest.raises(DomainError):
        AlphaSpace([1.0, 0.0])
    with pytest.raises(DomainError):
        AlphaSpace([])


def test_alpha_prefix_array_is_readonly():
    sp = AlphaSpace([1.0, 2.0, 3.0])
    arr = sp.alpha_prefix()
    with pytest.raises((ValueError, RuntimeError)):
        arr[0] = 99.0


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
    assert sp.contains(0.5) and not sp.contains(1.5)
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
    assert ray.contains(1e12)
    line = IntervalSpace(-math.inf, math.inf)
    assert line.contains(-1e9)


def test_lattice_box_taxicab():
    box = LatticeBox(bounds=((-2, 2), (0, 3)))
    assert box.dim == 2
    assert box.basepoint == (0, 0)
    assert box.distance((1, 2), (-1, 0)) == 4.0
    assert box.size() == 5 * 4
    assert (2, 3) in set(box.points())
    assert not box.contains((3, 0))
    assert not box.contains((0.5, 0))
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


@pytest.mark.parametrize("kind", ["finite", "alpha", "interval", "lattice", "wide-lattice"])
def test_cost_matrix_is_distance_bit_for_bit(rng, kind):
    # the per-pair ``distance`` loop is the reference; entries must be equal
    # floats, also where an int64 lattice difference would overflow
    spaces = {
        "finite": (random_finite_space(rng, 12), list(range(12))),
        "alpha": (AlphaSpace([rng.uniform(0.1, 5.0) for _ in range(12)]), [0, *rng.sample(range(1, 13), 9), 3]),
        "interval": (IntervalSpace(-2.0, 2.0), [0.0, *(rng.uniform(-2, 2) for _ in range(9)), 1e-300]),
        "lattice": (LatticeBox(((-5, 5), (-5, 5), (0, 3))),
                    [(0, 0, 0), *((rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(0, 3)) for _ in range(9))]),
        "wide-lattice": (LatticeBox(((-(2**63), 2**63), (-3, 3))),
                         [(0, 0), (2**63, 3), (-(2**63), -3), (2**53 + 1, 0), (-1, 2)]),
    }
    space, pts = spaces[kind]
    got = space.cost_matrix([space.check_point(p) for p in pts])
    want = [[space.distance(p, q) for q in pts] for p in pts]
    assert [[(type(x), x.hex()) for x in row] for row in got] == [[(type(x), x.hex()) for x in row] for row in want]


def test_cost_matrix_refuses_a_distance_past_the_float_range():
    # numpy's overflow stays silent; the refusal names the two points
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
    assert box.contains(p)
    assert box.distance(p, (-1,)) == 4.0
