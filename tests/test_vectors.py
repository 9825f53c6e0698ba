from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelip import (
    AlphaSpace,
    DomainError,
    FiniteSpace,
    Functional,
    IntervalSpace,
    coerce_point,
    delta,
    linear_combine,
    make_free_vector,
    pair,
    point_to_json,
    push_forward,
    vector_from_json,
    vector_to_json,
)
from conftest import random_finite_space

LINE = IntervalSpace(0.0, 1.0)


def test_delta_of_basepoint_is_zero():
    mu = delta(LINE, 0.0)
    assert mu.is_zero()
    assert len(mu) == 0


def test_make_free_vector_merges_and_drops():
    mu = make_free_vector(LINE, [(0.5, 1.0), (0.5, 2.0), (0.25, 0.0), (0.0, 7.0)])
    assert mu.support() == (0.5,)  # zero coefficient dropped, basepoint dropped
    assert mu.coefficient(0.5) == 3.0
    assert mu.coefficient(0.25) == 0.0
    assert mu.coefficient(0.9) == 0.0
    # the drop tolerance is relative to the largest coefficient
    assert make_free_vector(LINE, [(1.0, 1e-16)]).terms == ((1.0, 1e-16),)
    assert make_free_vector(LINE, [(0.5, 1.0), (1.0, 1e-16)]).support() == (0.5,)


def test_make_free_vector_checks_membership():
    with pytest.raises(DomainError):
        make_free_vector(LINE, [(1.5, 1.0)])


def test_linear_combine_is_linear(rng):
    sp = random_finite_space(rng, 6)
    mu = make_free_vector(sp, [(1, 1.0), (2, -2.0)])
    nu = make_free_vector(sp, [(2, 2.0), (3, 0.5)])
    combo = linear_combine([(2.0, mu), (1.0, nu)])
    assert combo.coefficient(1) == 2.0
    assert combo.coefficient(2) == -2.0
    assert combo.coefficient(3) == 0.5


def test_linear_combine_cancellation_yields_zero(rng):
    sp = random_finite_space(rng, 5)
    mu = make_free_vector(sp, [(1, 1.0), (3, -0.25)])
    z = linear_combine([(1.0, mu), (-1.0, mu)])
    assert z.is_zero()


def test_linear_combine_reads_an_iterator_of_parts_once():
    # an iterator of parts was once indexed, a TypeError
    parts = [(2.0, delta(LINE, 0.5)), (-1.0, delta(LINE, 0.25))]
    assert linear_combine(iter(parts)) == linear_combine(parts)


def test_linear_combine_refuses_mixed_spaces(rng):
    sp = random_finite_space(rng, 5)
    with pytest.raises(DomainError):
        linear_combine([(1.0, delta(sp, 1)), (1.0, delta(LINE, 0.5))])


def test_total_mass_counts_basepoint_implicitly():
    mu = make_free_vector(LINE, [(0.5, 2.0), (1.0, -0.5)])
    assert mu.total_mass() == 1.5


# ---------------------------------------------------------------------------
# pushforward


def test_push_forward_by_plain_callable():
    class Double:
        space = LINE

        def apply(self, x):
            return min(2.0 * x, 1.0)

    mu = make_free_vector(LINE, [(0.25, 1.0), (0.5, 1.0)])
    nu = push_forward(Double(), mu)
    assert nu.coefficient(0.5) == 1.0
    assert nu.coefficient(1.0) == 1.0


def test_push_forward_collision_merges():
    class Crush:
        space = LINE

        def apply(self, x):
            return 0.5

    mu = make_free_vector(LINE, [(0.25, 1.0), (0.75, 2.0)])
    nu = push_forward(Crush(), mu)
    assert nu.support() == (0.5,)
    assert nu.coefficient(0.5) == 3.0


def test_push_forward_into_basepoint_vanishes():
    class ToZero:
        space = LINE

        def apply(self, x):
            return 0.0

    mu = make_free_vector(LINE, [(0.25, 1.0), (0.75, -1.0)])
    assert push_forward(ToZero(), mu).is_zero()


# ---------------------------------------------------------------------------
# functionals


def test_functional_must_vanish_at_basepoint():
    with pytest.raises(DomainError):
        Functional(space=LINE, fn=lambda x: x + 1.0, lip_bound=1.0)


def test_pairing_is_linear_in_the_vector():
    phi = Functional(space=LINE, fn=lambda x: x, lip_bound=1.0)
    mu = make_free_vector(LINE, [(0.5, 2.0), (1.0, -1.0)])
    assert pair(phi, mu) == pytest.approx(2.0 * 0.5 - 1.0)


def test_functional_lip_bound_recorded():
    phi = Functional(space=LINE, fn=lambda x: 0.5 * x, lip_bound=0.5)
    assert phi.lip_bound == 0.5
    assert phi(1.0) == 0.5


# ---------------------------------------------------------------------------
# JSON round trips


@pytest.mark.parametrize(
    "space, pt",
    [
        (LINE, 0.5),
        (AlphaSpace([1.0, 2.0]), 2),
        (FiniteSpace(matrix=((0.0, 1.0), (1.0, 0.0)), basepoint=0), 1),
    ],
)
def test_point_json_round_trip(space, pt):
    wire = point_to_json(pt)
    assert coerce_point(space, wire) == pt


def test_lattice_point_json_uses_arrays():
    wire = point_to_json((1, -2))
    assert wire == [1, -2]
    assert coerce_point(LatticeBoxFixture(), wire) == (1, -2)


def test_vector_json_round_trip(rng):
    sp = random_finite_space(rng, 7)
    mu = make_free_vector(sp, [(1, 0.25), (4, -1.5)])
    wire = vector_to_json(mu)
    back = vector_from_json(wire)
    assert back.space == mu.space
    assert back.terms == mu.terms


def test_vector_json_external_space_wins_over_missing():
    mu = make_free_vector(LINE, [(0.5, 1.0)])
    wire = {"terms": vector_to_json(mu)["terms"]}
    back = vector_from_json(wire, space=LINE)
    assert back.terms == mu.terms
    with pytest.raises(DomainError):
        vector_from_json(wire)


def test_coerce_point_each_space_kind():
    assert coerce_point(LINE, 0.25) == 0.25
    assert coerce_point(AlphaSpace([1.0]), 1) == 1
    assert coerce_point(LatticeBoxFixture(), [1, 0]) == (1, 0)
    # JSON has no int/float distinction: an integral float is an index
    two = coerce_point(AlphaSpace([1.0, 1.0]), 2.0)
    assert two == 2 and type(two) is int
    assert coerce_point(LatticeBoxFixture(), [1.0, -2]) == (1, -2)
    finite = FiniteSpace(matrix=((0.0, 1.0), (1.0, 0.0)))
    rejected = [
        (finite, 1.7), (finite, True), (finite, math.nan), (finite, math.inf), (finite, "1"), (finite, [1]),
        (LINE, False), (LINE, math.nan), (LINE, -math.inf), (LINE, "0.5"), (LINE, [0.5]), (LINE, None),
        (LatticeBoxFixture(), 1), (LatticeBoxFixture(), [1, 0.5]), (LatticeBoxFixture(), [True, 0]),
        (LatticeBoxFixture(), [1, math.nan]),
    ]
    for space, payload in rejected:
        with pytest.raises(DomainError):
            coerce_point(space, payload)


class LatticeBoxFixture:
    def __new__(cls):
        from freelip import LatticeBox

        return LatticeBox(bounds=((-2, 2), (-2, 2)))


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.floats(-10, 10)),
        min_size=0,
        max_size=12,
    )
)
def test_make_free_vector_support_is_sorted_and_clean(pairs):
    sp = AlphaSpace([1.0] * 9)
    mu = make_free_vector(sp, [(p, c) for p, c in pairs])
    sup = mu.support()
    assert list(sup) == sorted(sup)
    assert 0 not in sup
    assert all(c != 0.0 for c in mu.coefficients())
    expect = {}
    for p, c in pairs:
        if p != 0:
            expect[p] = expect.get(p, 0.0) + c
    for p, total in expect.items():
        if abs(total) > 1e-15:
            assert mu.coefficient(p) == pytest.approx(total, abs=1e-12)


def test_point_to_json_rejects_exotic_payloads():
    with pytest.raises(TypeError):
        point_to_json({"x": 1})


def test_pair_rejects_foreign_vector(rng):
    sp = random_finite_space(rng, 4)
    phi = Functional(space=sp, fn=lambda p: sp.distance(p, 0), lip_bound=1.0)
    mu = delta(LINE, 0.5)
    with pytest.raises(DomainError):
        pair(phi, mu)


def test_coefficient_lookup_uses_point_identity():
    sp = IntervalSpace(-math.inf, math.inf)
    mu = make_free_vector(sp, [(2.0, 1.0), (-2.0, 1.0)])
    assert mu.coefficient(2.0) == 1.0
    assert mu.coefficient(-2.0) == 1.0


# ---------------------------------------------------------------------------
# each coefficient, scalar and bound is read once, where the vector or functional is built

SQUARE = FiniteSpace(((0.0, 1.0), (1.0, 0.0)))

# each input is refused by name from the Python API, as it is from a JSON file
BAD_VECTOR_INPUTS = {
    "string-coefficient": (lambda: make_free_vector(LINE, [(0.5, "2")]), "coefficient '2' is not a number"),
    "bool-coefficient": (lambda: make_free_vector(LINE, [(0.5, True)]), "coefficient True is not a number"),
    "huge-coefficient": (lambda: make_free_vector(LINE, [(0.5, 10**400)]),
                         f"coefficient {10**400} is too large for a float"),
    "string-scalar": (lambda: linear_combine([("2", delta(LINE, 0.5))]), "scalar '2' is not a number"),
    "nan-scalar": (lambda: linear_combine([(math.nan, delta(LINE, 0.5))]), "scalar nan is not a finite number"),
    "string-lip-bound": (lambda: Functional(LINE, lambda p: 0.0, lip_bound="1"), "Lipschitz bound '1' is not a number"),
    "infinite-lip-bound": (lambda: Functional(LINE, lambda p: 0.0, lip_bound=math.inf),
                           "Lipschitz bound inf is not a finite number"),
    "negative-lip-bound": (lambda: Functional(LINE, lambda p: 0.0, lip_bound=-1.0),
                           "Lipschitz bound must be a nonnegative real"),
    "no-term-to-combine": (lambda: linear_combine([]), "linear_combine needs at least one term"),
    # a str of two characters once unpacked as a pair: "point 'a' not in interval [0.0, 1.0]"
    "string-pair": (lambda: make_free_vector(LINE, ["ab"]), "pairs must be a list of (point, coefficient) pairs"),
    # linear_combine once indexed and unpacked its parts unread: IndexError, AttributeError, ValueError
    "combine-a-string": (lambda: linear_combine("ab"), "linear_combine needs a list of (scalar, vector) pairs"),
    "combine-a-non-vector": (lambda: linear_combine([(1.0, "x")]), "linear_combine part 'x' is not a FreeVector"),
    "combine-a-triple": (lambda: linear_combine([(1.0, delta(LINE, 0.5), 2)]),
                         "linear_combine needs a list of (scalar, vector) pairs"),
    "json-term-of-one": (lambda: vector_from_json({"terms": [[0.5]]}, LINE), "bad term [0.5]: expected [point, coefficient]"),
}


@pytest.mark.parametrize("case", sorted(BAD_VECTOR_INPUTS))
def test_a_vector_or_functional_refuses_a_bad_number_by_name(case):
    build, message = BAD_VECTOR_INPUTS[case]
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message


def test_a_functional_stores_its_bound_as_a_float():
    phi = Functional(LINE, lambda p: 0.0, lip_bound=1)
    assert phi.lip_bound == 1.0 and type(phi.lip_bound) is float


@pytest.mark.parametrize("coefficient", ["2", True, 10**400, math.nan, math.inf],
                         ids=["string", "bool", "huge", "nan", "inf"])
def test_a_json_vector_and_its_python_twin_refuse_a_bad_coefficient_alike(coefficient):
    with pytest.raises(DomainError) as from_json:
        vector_from_json({"terms": [[1, coefficient]]}, SQUARE)
    with pytest.raises(DomainError) as from_python:
        make_free_vector(SQUARE, [(1, coefficient)])
    assert str(from_json.value) == str(from_python.value)
