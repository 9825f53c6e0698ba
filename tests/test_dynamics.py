from __future__ import annotations

import hashlib
import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelip import (
    BOUNDED,
    CASE_NO_DRIFT,
    CASE_TRAPPED_DRIFT_IN,
    CASE_TRAPPED_DRIFT_OVER,
    CASE_UNBOUNDED_DRIFT,
    ESCAPING,
    RECURRENT,
    UNDECIDED,
    AlphaMap,
    AlphaSpace,
    BlockScheme,
    ClassificationParams,
    DomainError,
    FiniteMap,
    FiniteSpace,
    IntervalSpace,
    LatticeBox,
    PiecewiseLinearMap,
    PrefixExhausted,
    backward_shift_map,
    backward_shift_space,
    block_cycle_map,
    block_cycle_space,
    circle_rotation_space,
    classification_to_json,
    classify_orbit,
    delta,
    doubling_experiment,
    doubling_map,
    dyadic_tail_vector,
    escape_test_functional,
    fill_map,
    forward_shift_experiment,
    forward_shift_map,
    free_norm,
    gallery_experiments,
    identity_map,
    interval_analysis_to_json,
    interval_analyze,
    interval_map_suite,
    iterate_map,
    iterate_point,
    iterate_vector,
    kronecker_return_times,
    lip_constant,
    make_free_vector,
    map_from_json,
    norm_flow,
    operator_norm_estimate,
    orbit_norm_profile,
    orbit_structure,
    pair,
    periodic_points,
    power_equivalence_check,
    push_forward,
    ramp_map,
    recurrence_gap,
    restrict_map,
    restrict_to_points,
    rigidity_check,
    rigidity_to_json,
    shift_profile_closed_form,
    shift_vector,
)
from freelip import dynamics
from freelip.dynamics import _orbit_verdict
from freelip.selftest import run_selftest
from conftest import random_finite_space

SMALL_LADDER = tuple(2.0**j for j in range(1, 9))


# ---------------------------------------------------------------------------
# parameters


def test_params_validate_inputs():
    with pytest.raises(DomainError):
        ClassificationParams(horizon=0)
    with pytest.raises(DomainError):
        ClassificationParams(tail_fraction=0.0)
    with pytest.raises(DomainError):
        ClassificationParams(tail_fraction=1.5)
    with pytest.raises(DomainError):
        ClassificationParams(eps_recurrent=-1.0)
    with pytest.raises(DomainError):
        ClassificationParams(radii=(4.0, 2.0))


def test_params_eps_default_depends_on_arithmetic():
    p = ClassificationParams()
    exact_space = AlphaSpace([1.0, 2.0])
    float_space = IntervalSpace(0.0, 1.0)
    assert p.resolve_eps(exact_space) == 1e-9
    assert p.resolve_eps(float_space) == 1e-6


@pytest.mark.parametrize("eps", [Fraction(1, 3), 1, np.float32(0.5)])
def test_params_store_the_recurrence_tolerance_as_the_float_they_read(eps):
    # once stored as given: a Fraction made the report unwritable, an int wrote "eps_recurrent": 1
    p = ClassificationParams(eps_recurrent=eps)
    assert type(p.eps_recurrent) is float and p.eps_recurrent == float(eps)
    report = classify_orbit(doubling_map(), 0.25, p)
    assert type(report.eps_recurrent) is float
    assert json.loads(json.dumps(classification_to_json(report)))["eps_recurrent"] == float(eps)
    assert ClassificationParams(eps_recurrent=float(eps)) == p


def test_params_default_ladder_doubles_from_the_start():
    p = ClassificationParams(ladder_size=5)
    sp = IntervalSpace(0.0, math.inf)
    radii = p.resolve_radii(sp, 3.0)
    assert radii == tuple(3.0 * 2.0**j for j in range(1, 6))


def test_params_ladder_from_basepoint_start_uses_unit():
    p = ClassificationParams(ladder_size=3)
    sp = IntervalSpace(0.0, math.inf)
    assert p.resolve_radii(sp, 0.0) == (2.0, 4.0, 8.0)


# ---------------------------------------------------------------------------
# recurrence gap


def test_recurrence_gap_exact_return():
    sp = random_finite_space(random.Random(3), 5)
    f = FiniteMap(space=sp, table=(0, 2, 1, 4, 3))  # two 2-cycles
    gap, t = recurrence_gap(f, 1, 100)
    assert gap == 0.0 and t == 2


def test_recurrence_gap_monotone_in_horizon():
    f = doubling_map()
    g1, _ = recurrence_gap(f, 0.3, 2)
    g2, _ = recurrence_gap(f, 0.3, 50)
    assert g2 <= g1


def test_recurrence_gap_is_the_gap_classify_orbit_reports():
    cases = [(f, x) for f in interval_map_suite().values() for x in (0.1, 0.3, 0.75, 1.0)]
    cases += [(block_cycle_map(block_cycle_space(10), 10), n) for n in (1, 5, 30, 65)]
    shift = backward_shift_space(12)
    cases += [(backward_shift_map(shift), n) for n in shift.points()]
    _, rotation = circle_rotation_space(7)
    cases += [(rotation, n) for n in rotation.space.points()]
    for f, x in cases:
        for horizon in (1, 7, 200):
            r = classify_orbit(f, x, ClassificationParams(horizon=horizon))
            assert recurrence_gap(f, x, horizon) == (r.gap, r.gap_time), (f, x, horizon)


def test_recurrence_gap_raises_where_classify_orbit_reports_truncation():
    f = forward_shift_map(AlphaSpace([1.0] * 10))
    rep = classify_orbit(f, 8, ClassificationParams(horizon=20))
    assert rep.steps == 2 and rep.note.startswith("orbit left the computable presentation at step 3: ")
    with pytest.raises(PrefixExhausted):
        recurrence_gap(f, 8, 20)


# ---------------------------------------------------------------------------
# classification verdicts


def test_identity_orbit_is_recurrent():
    rep = classify_orbit(identity_map(), 0.7, ClassificationParams(horizon=10))
    assert rep.verdict == RECURRENT
    assert rep.gap == 0.0 and rep.gap_time == 1
    assert "periodic" in rep.note


def test_doubling_orbit_is_bounded():
    rep = classify_orbit(doubling_map(), 0.25, ClassificationParams(horizon=200))
    assert rep.verdict == BOUNDED
    assert rep.max_distance == 1.0
    assert rep.max_distance_time == 2


def test_ramp_orbit_escapes_on_explicit_ladder():
    rep = classify_orbit(
        ramp_map(), 1.0, ClassificationParams(horizon=1000, radii=SMALL_LADDER)
    )
    assert rep.verdict == ESCAPING
    assert rep.crossing_times == (1, 3, 7, 15, 31, 63, 127, 255)
    assert rep.max_distance == 1001.0


def test_ramp_orbit_undecided_on_uncrossable_ladder():
    # the default ladder tops out at 2^20 d(0,x); horizon 100 cannot reach it
    rep = classify_orbit(ramp_map(), 1.0, ClassificationParams(horizon=100))
    assert rep.verdict == UNDECIDED


def test_two_cycle_is_recurrent(rng):
    sp = random_finite_space(rng, 4)
    f = FiniteMap(space=sp, table=(0, 2, 1, 3))
    rep = classify_orbit(f, 1, ClassificationParams(horizon=50))
    assert rep.verdict == RECURRENT
    assert rep.gap_time == 2


def test_prefix_truncation_reports_undecided():
    sp = AlphaSpace([1.0] * 10)
    f = AlphaMap(space=sp, table=(0,), shift=1)
    rep = classify_orbit(f, 1, ClassificationParams(horizon=100))
    assert rep.verdict == UNDECIDED
    assert "left the computable presentation" in rep.note
    assert rep.steps < 100


def test_escape_allowed_on_observed_window_despite_truncation():
    sp = AlphaSpace([2.0**n for n in range(1, 11)])
    f = AlphaMap(space=sp, table=(0,), shift=1)
    rep = classify_orbit(
        f, 1, ClassificationParams(horizon=1000, radii=(4.0, 16.0, 64.0))
    )
    assert rep.verdict == ESCAPING
    assert "left the computable presentation" in rep.note


def test_conflicting_signals_stay_undecided():
    # a 2-cycle living entirely above the first radius crosses the whole
    # ladder AND returns exactly; the conflict is reported, not resolved
    sp = AlphaSpace([4.0, 16.0])
    f = AlphaMap(space=sp, table=(0, 2, 1))
    rep = classify_orbit(
        f, 1, ClassificationParams(horizon=10, radii=(2.0, 8.0), eps_recurrent=1e-9)
    )
    assert rep.verdict == UNDECIDED
    assert "both" in rep.note


def test_power_budget_shrinks_steps():
    rep = classify_orbit(doubling_map(), 0.3, ClassificationParams(horizon=100), power=3)
    assert rep.power == 3
    assert rep.steps <= 33


def test_power_above_the_horizon_is_a_domain_error():
    # f^k gets horizon // k steps, so no k above the horizon keeps the budget
    params = ClassificationParams(horizon=10)
    assert classify_orbit(doubling_map(), 0.3, params, power=10).steps == 1
    with pytest.raises(DomainError, match="power 11 must lie between 1 and the horizon 10"):
        classify_orbit(doubling_map(), 0.3, params, power=11)


def test_a_power_that_is_not_an_int_is_a_domain_error():
    # True would run as power 1 and be written to classify.json as "power": true
    for power in (True, 2.0):
        with pytest.raises(DomainError, match="must be an integer"):
            classify_orbit(doubling_map(), 0.3, ClassificationParams(horizon=10), power=power)


@pytest.mark.parametrize("bad", [True, 2.5, 3.0, np.int64(3)])
def test_horizons_and_depths_that_are_not_ints_are_domain_errors(bad):
    # True would run as 1 and 2.5 would fail later with a TypeError
    f = doubling_map()
    with pytest.raises(DomainError, match="horizon must be an integer of at least 1"):
        recurrence_gap(f, 0.3, bad)
    with pytest.raises(DomainError, match="horizon must be a nonnegative integer"):
        orbit_norm_profile(f, delta(f.space, 0.3), bad)
    with pytest.raises(DomainError, match="depth must be an integer of at least 1"):
        interval_analyze(ramp_map(), bad)


# every public count argument: (name in the message, least value, call)
COUNTS = {
    "params-horizon": ("horizon", 1, lambda v: ClassificationParams(horizon=v)),
    "params-ladder-size": ("ladder_size", 1, lambda v: ClassificationParams(ladder_size=v)),
    "recurrence-gap": ("horizon", 1, lambda v: recurrence_gap(doubling_map(), 0.3, v)),
    "classify-power": ("power", 1, lambda v: classify_orbit(doubling_map(), 0.3, ClassificationParams(horizon=10),
                                                             power=v)),
    "orbit-norm-profile": ("horizon", 0, lambda v: orbit_norm_profile(doubling_map(), delta(doubling_map().space, 0.3),
                                                                      v)),
    "shift-closed-form": ("k", 0, lambda v: shift_profile_closed_form([1.0], AlphaSpace([1.0, 2.0, 3.0, 4.0, 5.0]), v)),
    "escape-window": ("m", 1, lambda v: escape_test_functional(IntervalSpace(0.0, math.inf), v, 1.0)),
    "interval-depth": ("depth", 1, lambda v: interval_analyze(ramp_map(), v)),
    "power-equivalence": ("k", 1, lambda v: power_equivalence_check(doubling_map(), v, [0.3])),
    "iterate-point": ("n", 0, lambda v: iterate_point(doubling_map(), 0.3, v)),
    "iterate-vector": ("n", 0, lambda v: iterate_vector(doubling_map(), delta(IntervalSpace(0.0, 1.0), 0.3), v)),
    "iterate-map": ("n", 1, lambda v: iterate_map(doubling_map(), v)),
    "lip-window": ("window", 1, lambda v: lip_constant(forward_shift_map(AlphaSpace([1.0, 2.0, 3.0])), window=v)),
    "triangular-blocks": ("blocks", 1, lambda v: BlockScheme.triangular(v)),
    "tempered-blocks": ("blocks", 1, lambda v: BlockScheme.tempered(v)),
    "kronecker-bound": ("bound", 1, lambda v: kronecker_return_times([1.0], 1e-9, v)),
    "selftest-rounds": ("rounds", 1, lambda v: run_selftest(1, v)),
    "block-cycle-space": ("blocks", 1, lambda v: block_cycle_space(v)),
    "block-cycle-map": ("blocks", 1, lambda v: block_cycle_map(block_cycle_space(3), v)),
    "dyadic-tail": ("n_terms", 0, lambda v: dyadic_tail_vector(IntervalSpace(0.0, 1.0), v)),
    "doubling-horizon": ("horizon", 0, lambda v: doubling_experiment(40, v)),
    "forward-shift-horizon": ("horizon", 0, lambda v: forward_shift_experiment(AlphaSpace([1.0, 2.0]), [1.0], v)),
    "forward-shift-cross-check": ("cross_check_steps", 0, lambda v: forward_shift_experiment(
        AlphaSpace([1.0, 2.0]), [1.0], 1, cross_check_steps=v)),
    "backward-shift-points": ("n_points", 2, lambda v: backward_shift_space(v)),
    "rotation-steps": ("q", 2, lambda v: circle_rotation_space(v)),
}


@pytest.mark.parametrize("case", sorted(COUNTS))
def test_count_arguments_take_only_ints_of_at_least_their_least(case):
    # a bool, a float (3.0 too) and a numpy integer are not counts; below the least is refused too
    name, least, call = COUNTS[case]
    for bad in (True, 2.5, 3.0, np.int64(3), least - 1):
        with pytest.raises(DomainError, match=rf"\b{name} must be "):
            call(bad)


# the real-valued arguments read as finite floats where they enter: (name in the message, call)
REALS = {
    "rigidity-bound": ("uniform bound", lambda v: rigidity_check(doubling_map(), [0.5], [1], bound=v)),
    "kronecker-eps": ("tolerance", lambda v: kronecker_return_times([1.0], v, 3)),
    "escape-radius": ("window radius", lambda v: escape_test_functional(IntervalSpace(0.0, math.inf), 1, v)),
    "params-tail-fraction": ("tail_fraction", lambda v: ClassificationParams(tail_fraction=v)),
}


@pytest.mark.parametrize("case", sorted(REALS))
def test_real_arguments_take_only_finite_numbers(case):
    # a bool, a numeric string, a NaN and an infinity are refused by name; a numpy float is read
    name, call = REALS[case]
    for bad in (True, "0.5", math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=rf"^{name} .* is not a "):
            call(bad)
    call(np.float64(0.5))


# a read argument whose value is out of range, and the message that refuses it
OUT_OF_RANGE = {
    "rigidity-bound-zero": (lambda: rigidity_check(doubling_map(), [0.5], [1], bound=0.0),
                            "the uniform bound must be positive"),
    "escape-radius-zero": (lambda: escape_test_functional(IntervalSpace(0.0, math.inf), 1, 0.0),
                           "window radius must be positive"),
    "interval-side-unknown": (lambda: interval_analyze(ramp_map()).side("middle"), "no side named 'middle'"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_an_argument_out_of_range_is_refused_by_its_message(case):
    call, message = OUT_OF_RANGE[case]
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def reference_classification(f, x, params, power):
    """The rule documented in classify_orbit, written plainly: the orbit of
    f^power up to an exact return or an image outside the presentation, a
    nested scan for each radius's first crossing, the first maximum and the
    first best recurrence gap."""
    space = f.space
    steps_wanted = max(1, params.horizon // power)
    orbit, truncated = [x], False
    while len(orbit) <= steps_wanted:
        try:
            orbit.append(iterate_point(f, orbit[-1], power))
        except DomainError:
            truncated = True
            break
        if space.distance(x, orbit[-1]) == 0.0:
            break
    dists = [space.distance(space.basepoint, y) for y in orbit]
    gaps = [space.distance(x, y) for y in orbit[1:]]
    gap = min(gaps, default=math.inf)
    radii = params.resolve_radii(space, x)
    crossing = [None] * len(radii)
    for n, dv in enumerate(dists):
        for j, r in enumerate(radii):
            if crossing[j] is None and dv >= r:
                crossing[j] = n
    max_distance = max(dists)
    max_time = dists.index(max_distance)

    recurrent = gap <= params.resolve_eps(space)
    escaping = None not in crossing and min(dists[max(crossing):]) >= radii[0]
    cut = max(1, int(len(dists) * (1.0 - params.tail_fraction)))
    bounded = not truncated and len(dists) == steps_wanted + 1 and max_time < cut
    if recurrent and escaping:
        verdict = UNDECIDED
    elif recurrent:
        verdict = RECURRENT
    elif escaping:
        verdict = ESCAPING
    else:
        verdict = BOUNDED if bounded else UNDECIDED
    return dict(verdict=verdict, steps=len(dists) - 1, gap=gap,
                gap_time=gaps.index(gap) + 1 if gaps else 0, radii=radii,
                crossing_times=tuple(crossing), max_distance=max_distance,
                max_distance_time=max_time, distances=tuple(dists))


def oracle_orbits():
    """(label, map, points): a few pool points of each suite map, the
    non-interval orbits of the benchmark, and f(x) = 2x from a dyadic start,
    where d(0, f^n x) lands exactly on the default ladder's radii."""
    cases = []
    for name, f in interval_map_suite().items():
        hi = f.space.b if math.isfinite(f.space.b) else 10.0
        pool = [f.space.a + (hi - f.space.a) * (i + 1) / 1001 for i in (0, 123, 500, 877, 999)]
        cases.append((name, f, pool))
    box = LatticeBox(((-6, 6), (-6, 6)))
    _, rotation = circle_rotation_space(7)
    cases += [
        ("alpha-shift", forward_shift_map(AlphaSpace(np.arange(1.0, 401.0))), (1, 50, 200)),
        ("alpha-block-cycle", block_cycle_map(block_cycle_space(10), 10), (1, 7, 30)),
        ("finite-rotation-7", rotation, (1, 3)),
        ("finite-backward-shift", backward_shift_map(backward_shift_space(12)), (1, 5, 12)),
    ]
    for label, mat in (("rotation", [[0, -1], [1, 0]]), ("shear", [[1, 1], [0, 1]]),
                       ("projection", [[1, 0], [0, 0]])):
        f = map_from_json({"kind": "lattice-rule", "matrix": mat}, box)
        cases.append((f"lattice-{label}", f, ((1, 0), (1, 1), (3, 2), (-4, 5))))
    twice = PiecewiseLinearMap(IntervalSpace(0.0, math.inf), [(0.0, 0.0)], right_slope=2.0)
    cases.append(("twice", twice, (0.75, 1.0)))
    return cases


@pytest.mark.parametrize("case", oracle_orbits(), ids=lambda case: case[0])
def test_classify_orbit_matches_the_documented_rule(case):
    label, f, points = case
    for params in (ClassificationParams(horizon=1000, radii=SMALL_LADDER),
                   ClassificationParams(horizon=1000)):
        for x in points:
            for power in range(1, 6):
                rep = classify_orbit(f, x, params, power=power)
                want = reference_classification(f, f.space.check_point(x), params, power)
                got = {k: getattr(rep, k) for k in want}
                assert got == want, (label, x, params.radii, power)


def table_orbits():
    """(label, map, points): seeded random tables of 2-11 points, from every
    point.  Most orbits fall into a cycle that does not hold their start."""
    rng = random.Random(2626)
    cases = []
    for i in range(12):
        sp = random_finite_space(rng, rng.randrange(2, 12))
        f = FiniteMap(sp, tuple(0 if p == 0 else rng.randrange(sp.size) for p in sp.points()))
        cases.append((f"table-{i}", f, tuple(sp.points())))
    return cases


def _hexed(fields):
    """Every float of a report's fields as its float.hex, tuples included."""
    def hexed(v):
        return v.hex() if isinstance(v, float) else v
    return {k: tuple(map(hexed, v)) if isinstance(v, tuple) else hexed(v) for k, v in fields.items()}


@pytest.mark.parametrize("case", oracle_orbits() + table_orbits(), ids=lambda case: case[0])
def test_classify_orbit_and_recurrence_gap_are_the_full_walks_bit_for_bit(case):
    # the full walk runs to the horizon unless the orbit comes back to x itself;
    # the reports read the same where the orbit repeats a state before that
    label, f, points = case
    for x in map(f.space.check_point, points):
        for params in (ClassificationParams(horizon=1000, radii=SMALL_LADDER),
                       ClassificationParams(horizon=1000)):
            for power in range(1, 6):
                rep = classify_orbit(f, x, params, power=power)
                want = reference_classification(f, x, params, power)
                assert _hexed({k: getattr(rep, k) for k in want}) == _hexed(want), (label, x, params.radii, power)
                if label.startswith("table-"):  # a table never leaves its space, nor reaches a radius of 256
                    returned = want["steps"] < params.horizon // power
                    assert rep.note == (f"exact return at step {want['steps']}; the orbit is periodic, "
                                        "iteration stopped early" if returned else "")
                if power > 1:
                    continue
                if rep.note.startswith("orbit left the computable presentation"):  # recurrence_gap raises
                    with pytest.raises(DomainError):
                        recurrence_gap(f, x, params.horizon)
                else:
                    gap, gap_time = recurrence_gap(f, x, params.horizon)
                    assert (gap.hex(), gap_time) == (want["gap"].hex(), want["gap_time"]), (label, x)


class _CountingMap:
    """A map with a count of its applications; classify_orbit and
    recurrence_gap read nothing of a map but its space and apply."""

    def __init__(self, f):
        self.space, self.applications, self._apply = f.space, 0, f.apply

    def apply(self, p):
        self.applications += 1
        return self._apply(p)


def _first_repeat(f, x, power, bound):
    """The least n <= bound with f^(power n)(x) equal to an earlier state of the
    orbit of f^power, by a search of the orbit so far, else None."""
    orbit = [x]
    for n in range(1, bound + 1):
        y = iterate_point(f, orbit[-1], power)
        if y in orbit:
            return n
        orbit.append(y)
    return None


def counted_orbits():
    box = LatticeBox(((-6, 6), (-6, 6)))
    _, rotation = circle_rotation_space(7)
    return table_orbits() + [
        ("backward-shift", backward_shift_map(backward_shift_space(12)), (1, 5, 12)),
        ("lattice-projection", map_from_json({"kind": "lattice-rule", "matrix": [[1, 0], [0, 0]]}, box),
         ((3, 2), (-4, 5), (1, 0), (0, 0))),
        ("rotation-7", rotation, (0, 1, 3)),
    ]


@pytest.mark.parametrize("case", counted_orbits(), ids=lambda case: case[0])
def test_an_orbit_is_applied_up_to_its_first_repeat_and_no_further(case):
    label, f, points = case
    budgets_met = set()
    for x in points:
        for horizon in (6, 40):
            for power in range(1, 6):
                steps_wanted = horizon // power
                n = _first_repeat(f, x, power, steps_wanted)
                counted = _CountingMap(f)
                classify_orbit(counted, x, ClassificationParams(horizon=horizon), power=power)
                assert counted.applications == (steps_wanted if n is None else n) * power, (label, x, horizon, power)
                budgets_met.add(n is None)
            n = _first_repeat(f, x, 1, horizon)
            counted = _CountingMap(f)
            recurrence_gap(counted, x, horizon)
            assert counted.applications == (horizon if n is None else n), (label, x, horizon)
    if not label.startswith("table-"):  # a table may repeat within every budget
        assert budgets_met == {True, False}


def _plain_rule(dists, gaps, radii, eps, tail_fraction, full):
    """The decision rule of classify_orbit on whole lists, written plainly:
    ``dists`` for steps 0..L-1, ``gaps`` for steps 1..L-1."""
    gap = min(gaps, default=math.inf)
    crossing = tuple(next((t for t, d in enumerate(dists) if d >= r), None) for r in radii)
    max_distance = max(dists)
    recurrent = gap <= eps
    escaping = None not in crossing and min(dists[max(crossing):]) >= radii[0]
    bounded = full and dists.index(max_distance) < max(1, int(len(dists) * (1.0 - tail_fraction)))
    if recurrent and escaping:
        verdict = UNDECIDED
    elif recurrent or escaping:
        verdict = RECURRENT if recurrent else ESCAPING
    else:
        verdict = BOUNDED if bounded else UNDECIDED
    return (verdict, recurrent and escaping, gap, gaps.index(gap) + 1 if gaps else 0, crossing,
            max_distance, dists.index(max_distance))


def _filled(values, repeat, length):
    """``values`` for steps 0..length-1, step t >= n taking the value of the
    state m + (t - m) mod (n - m) that it repeats."""
    if repeat is None:
        return list(values)
    m, n = repeat
    return [values[t if t < n else m + (t - m) % (n - m)] for t in range(length)]


def _random_walk(rng):
    """A walk's distances and gaps, its repeat and report length, radii, eps,
    tail fraction and fullness, drawn from few values so that ties, crossings
    at equality and drops below the first radius inside the period are common."""
    pool = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0)
    draw = lambda: rng.choice(pool) if rng.random() < 0.7 else rng.uniform(0.0, 9.0)
    n = rng.randint(1, 12)
    dists, gaps = [draw() for _ in range(n)], [0.0] + [draw() for _ in range(n - 1)]
    kind = rng.choice(("none", "none", "zero", "period"))
    if kind == "none" or n == 1 and kind == "period":
        repeat, length = None, n
    else:
        m = 0 if kind == "zero" else rng.randrange(1, n)
        repeat, length = (m, n), n + rng.choice((1, rng.randint(1, 3 * (n - m) + 2)))
    radii = tuple(sorted(set(rng.sample((0.5, 1.0, 2.0, 3.0, 4.0, 8.0, rng.uniform(0.1, 9.0)), rng.randint(1, 4)))))
    return (dists, gaps, repeat, length, radii, rng.choice((1e-9, 0.5, 1.0)),
            rng.choice((0.1, 0.5, 0.9, rng.uniform(0.01, 0.99))), rng.random() < 0.7)


def test_the_verdict_rule_on_a_walk_is_the_plain_rule_on_its_filled_lists():
    # every step past the walk repeats a walked state, so the rule reads the walk alone
    rng = random.Random(2727)
    seen = dict.fromkeys(("no repeat", "m = 0", "ends mid-period", "cut short", "crossed at step 0",
                          "drop in the period", "tied maxima", "tied gaps"), 0)
    for _ in range(20_000):
        dists, gaps, repeat, length, radii, eps, tail, full = walk = _random_walk(rng)
        whole = _filled(dists, repeat, length)
        later = _filled(gaps, repeat, length)[1:]
        assert _hexed(dict(enumerate(_orbit_verdict(*walk)))) == \
            _hexed(dict(enumerate(_plain_rule(whole, later, radii, eps, tail, full)))), walk
        n, m = len(dists), repeat[0] if repeat else None
        crossed = [next((t for t, d in enumerate(whole) if d >= r), None) for r in radii]
        seen["no repeat"] += repeat is None
        seen["m = 0"] += m == 0
        seen["ends mid-period"] += bool(m) and length - n < n - m
        seen["cut short"] += repeat is None and not full
        seen["crossed at step 0"] += dists[0] >= radii[0]
        seen["drop in the period"] += (None not in crossed and min(dists[crossed[-1]:]) >= radii[0]
                                       and min(whole[crossed[-1]:]) < radii[0])
        seen["tied maxima"] += whole.count(max(whole)) > 1
        seen["tied gaps"] += len(later) > 1 and later.count(min(later)) > 1
    assert min(seen.values()) >= 100, seen


def test_classify_orbit_hands_the_rule_no_list_longer_than_its_walk(monkeypatch):
    walked, handed, walk_of = [], [], dynamics._walk

    def walk(*args, **kwargs):
        got = walk_of(*args, **kwargs)
        walked.append(len(got[0]))
        return got

    def rule(dists, gaps, *rest):
        handed.append((len(dists), len(gaps)))
        return _orbit_verdict(dists, gaps, *rest)

    monkeypatch.setattr(dynamics, "_walk", walk)
    monkeypatch.setattr(dynamics, "_orbit_verdict", rule)
    params = ClassificationParams(horizon=10_000)
    shorter = full = 0
    for label, f, points in oracle_orbits() + table_orbits():
        for x in points:
            for power in range(1, 6):
                del walked[:], handed[:]
                steps = classify_orbit(f, x, params, power=power).steps
                assert len(walked) == 1 and handed == [(walked[0], walked[0])], (label, x, power)
                shorter += walked[0] < steps + 1
                full += walked[0] == 10_000 // power + 1
    assert shorter >= 400 and full >= 20  # most orbits repeat a state; a few walk the whole horizon


def random_pl_orbits(rng):
    """(label, map, points): seeded piecewise-linear maps on a bounded
    interval, on both half-lines and on the whole line, with end slopes up to
    2 in size, so some tails overflow to inf within the horizon."""
    ends = ((-1.0, 1.0), (0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf))
    cases = []
    for i in range(24):
        a, b = ends[i % 4]
        lo, hi = max(a, -4.0), min(b, 4.0)
        xs = sorted({a, b, 0.0} - {math.inf, -math.inf} | {rng.uniform(lo, hi) for _ in range(rng.randint(1, 6))})
        ys = [0.0 if x == 0.0 else rng.uniform(lo, hi) for x in xs]
        slopes = {}
        if a == -math.inf:
            slopes["left_slope"] = rng.choice((0.0, 0.5, 1.0, 2.0) if b < math.inf else (-2.0, -0.5, 0.0, 1.0, 2.0))
        if b == math.inf:
            slopes["right_slope"] = rng.choice((0.0, 0.5, 1.0, 1.5, 2.0) if a > -math.inf else (-2.0, -1.0, 0.5, 2.0))
        f = PiecewiseLinearMap(IntervalSpace(a, b), list(zip(xs, ys)), **slopes)
        cases.append((f"pl-{i}", f, [rng.uniform(lo, hi) for _ in range(3)] + [xs[-1]]))
    return cases


# SHA-256 over the float.hex of every distance, gap and maximum, and the
# crossing times, verdict and note, of each classify_orbit report on the
# pinned orbits (ladders, powers 1-5), and of recurrence_gap on each: a
# change to the orbit path must not move one bit of any report.
PINNED_ORBITS_SHA256 = "147a8fc35e933de28b5e043c068538a8b3181437f82ca5de73c18adfd8f669a0"


def test_orbit_reports_are_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for _, f, points in oracle_orbits() + random_pl_orbits(random.Random(20231120)):
        for x in points:
            for params in (ClassificationParams(horizon=1500, radii=SMALL_LADDER),
                           ClassificationParams(horizon=1500)):
                for power in range(1, 6):
                    rep = classify_orbit(f, x, params, power=power)
                    digest.update(repr((
                        [d.hex() for d in rep.distances], rep.steps, rep.gap.hex(), rep.gap_time,
                        rep.max_distance.hex(), rep.max_distance_time, rep.crossing_times,
                        rep.verdict, rep.note,
                    )).encode())
            try:
                gap, t = recurrence_gap(f, x, 1500)
                digest.update(f"{gap.hex()} {t}".encode())
            except DomainError as exc:
                digest.update(str(exc).encode())
    assert digest.hexdigest() == PINNED_ORBITS_SHA256


def test_crossing_counts_a_distance_equal_to_the_radius():
    # d(0, f^n x) = 0.75 * 2^n is exactly the n-th default radius
    f = PiecewiseLinearMap(IntervalSpace(0.0, math.inf), [(0.0, 0.0)], right_slope=2.0)
    rep = classify_orbit(f, 0.75, ClassificationParams(horizon=100))
    assert rep.radii[3] == rep.distances[4] == 12.0
    assert rep.crossing_times == tuple(range(1, 21))


def test_unbounded_tail_overflow_leaves_the_presentation():
    f = PiecewiseLinearMap(IntervalSpace(0.0, math.inf), [(0.0, 0.0)], right_slope=2.0)
    rep = classify_orbit(f, 1.0, ClassificationParams(horizon=2000))
    assert rep.steps == 1023
    assert rep.verdict == ESCAPING
    assert rep.note == (
        "orbit left the computable presentation at step 1024: point inf not in interval [0.0, inf]"
    )
    assert iterate_point(f, 1.0, 1023) == 2.0**1023
    with pytest.raises(DomainError):
        iterate_point(f, 1.0, 1024)


def test_classification_json_is_faithful():
    rep = classify_orbit(doubling_map(), 0.25, ClassificationParams(horizon=64))
    obj = classification_to_json(rep)
    assert obj["verdict"] == rep.verdict
    assert obj["gap"] == rep.gap
    assert obj["final_distance"] == rep.distances[-1]
    assert len(obj["profile_tail"]) <= 32


# ---------------------------------------------------------------------------
# norm profiles


def test_orbit_norm_profile_starts_at_own_norm():
    f = doubling_map()
    mu = make_free_vector(f.space, [(0.25, 1.0), (0.75, -0.5)])
    prof = orbit_norm_profile(f, mu, 5)
    assert len(prof) == 6
    assert prof[0] == pytest.approx(norm_flow(mu).value)
    for k in (1, 3, 5):
        pushed = iterate_vector(f, mu, k)
        assert prof[k] == pytest.approx(norm_flow(pushed).value, rel=1e-9)


def _profile_step_by_step(f, mu, horizon):
    """The reference profile: one push and one norm at every step up to the horizon."""
    values, cur = [free_norm(mu)], mu
    for _ in range(horizon):
        cur = push_forward(f, cur)
        values.append(free_norm(cur))
    return values


def _first_return(f, mu, bound=100):
    """The least n with f̂ⁿμ equal to an earlier f̂ᵐμ, by a search of the orbit so far."""
    orbit = [mu]
    for n in range(1, bound + 1):
        cur = push_forward(f, orbit[-1])
        if cur in orbit:
            return n
        orbit.append(cur)
    raise AssertionError(f"no return within {bound} steps")


def _returning_orbits():
    """(name, map, vector, first return step or None where only the search knows it)."""
    rng = random.Random(2525)
    cases = []
    for i in range(30):
        sp = random_finite_space(rng, rng.randrange(2, 12))
        f = FiniteMap(sp, tuple(0 if p == 0 else rng.randrange(sp.size) for p in sp.points()))
        points = rng.sample(range(1, sp.size), rng.randrange(1, sp.size))
        cases.append((f"table-{i}", f, make_free_vector(sp, [(p, rng.randint(-9, 9) / rng.randint(1, 7) or 1.0)
                                                             for p in points]), None))
    for q in (2, 3, 5, 7):  # distinct masses on the roots: back exactly after a full turn
        sp, f = circle_rotation_space(q)
        cases.append((f"rotation-{q}", f, make_free_vector(sp, [(p, p / 8) for p in range(1, q + 1)]), q))
    sp, f = circle_rotation_space(5)
    cases.append(("zero", f, make_free_vector(sp, []), 1))
    f = doubling_map()  # all six units sit at 1 after six steps, a fixed point
    cases.append(("dyadic-tail", f, dyadic_tail_vector(f.space, 6), 7))
    return cases


RETURNING_ORBITS = _returning_orbits()


@pytest.mark.parametrize("name, f, mu, expected", RETURNING_ORBITS, ids=[c[0] for c in RETURNING_ORBITS])
def test_the_profile_is_the_step_by_step_profile_bit_for_bit(name, f, mu, expected):
    r = _first_return(f, mu)
    assert expected in (None, r)
    for horizon in sorted({max(r - 1, 0), r, r + 1, 3 * r + 2}):
        got = orbit_norm_profile(f, mu, horizon)
        assert list(map(float.hex, got)) == list(map(float.hex, _profile_step_by_step(f, mu, horizon))), horizon


def _counted_pushes(monkeypatch):
    pushes = []

    def counting(f, mu):
        pushes.append(len(mu))
        return push_forward(f, mu)

    monkeypatch.setattr("freelip.dynamics.push_forward", counting)
    return pushes


@pytest.mark.parametrize("name, f, mu, expected", RETURNING_ORBITS, ids=[c[0] for c in RETURNING_ORBITS])
def test_a_long_profile_pushes_no_further_than_the_first_return(monkeypatch, name, f, mu, expected):
    r = _first_return(f, mu)
    pushes = _counted_pushes(monkeypatch)
    got = orbit_norm_profile(f, mu, 10_000)
    assert len(got) == 10_001 and len(pushes) == r
    if name in ("rotation-3", "dyadic-tail"):  # the whole profile, against a push at every step
        assert list(map(float.hex, got)) == list(map(float.hex, _profile_step_by_step(f, mu, 10_000)))


@pytest.mark.parametrize("f, mu", [
    # 3 * 2**1023 is past the float range: the push at step 1023 leaves [0, inf]
    (PiecewiseLinearMap(IntervalSpace(0.0, math.inf), [(0.0, 0.0)], right_slope=2.0),
     make_free_vector(IntervalSpace(0.0, math.inf), [(1.0, 1.0), (3.0, -0.5)])),
    # the push at step 3 runs off the stored prefix of ten weights
    (forward_shift_map(AlphaSpace([1.0] * 10)), make_free_vector(AlphaSpace([1.0] * 10), [(8, 1.0), (5, 2.0)])),
])
def test_an_orbit_that_leaves_its_space_raises_at_the_same_step(monkeypatch, f, mu):
    cur, steps = mu, 0
    with pytest.raises(DomainError) as reference:
        for steps in range(1, 2001):
            cur = push_forward(f, cur)
            free_norm(cur)
    pushes = _counted_pushes(monkeypatch)
    with pytest.raises(type(reference.value)) as got:
        orbit_norm_profile(f, mu, 2000)
    assert (str(got.value), len(pushes)) == (str(reference.value), steps)
    assert steps in (3, 1023)
    assert len(orbit_norm_profile(f, mu, steps - 1)) == steps  # no push past the horizon


def test_a_norm_past_the_float_range_raises_before_a_later_push_leaves_the_space():
    # the norm of 10 * delta(2**1021) overflows at step 1; the push at step 4 leaves [0, inf]
    sp = IntervalSpace(0.0, math.inf)
    f = PiecewiseLinearMap(sp, [(0.0, 0.0)], right_slope=2.0)
    mu = make_free_vector(sp, [(2.0**1020, 10.0)])
    with pytest.raises(DomainError, match="not in interval"):
        iterate_vector(f, mu, 4)
    with pytest.raises(DomainError, match="^norm inf is not a finite float$"):
        orbit_norm_profile(f, mu, 10)


def test_shift_profile_closed_form_matches_pushforward():
    alpha = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    sp = AlphaSpace(alpha)
    lam = [0.5, -0.25, 1.0]
    f = AlphaMap(space=sp, table=(0,), shift=1)
    mu = make_free_vector(sp, [(n, c / sp.alpha(n)) for n, c in enumerate(lam, start=1)])
    for k in range(0, 4):
        closed = shift_profile_closed_form(lam, sp, k)
        direct = norm_flow(iterate_vector(f, mu, k) if k else mu).value
        assert closed == pytest.approx(direct, rel=1e-12)
    with pytest.raises(DomainError):
        shift_profile_closed_form(lam, sp, 5)


# ---------------------------------------------------------------------------
# rigidity certificates


def test_rigidity_passes_for_isometric_cycle(rng):
    sp = random_finite_space(rng, 1)
    # four points on a line, distance by index difference, cyclic shift is not
    # isometric; use a genuine 2-cycle on a symmetric pair instead
    matrix = ((0.0, 1.0, 1.0), (1.0, 0.0, 2.0), (1.0, 2.0, 0.0))
    from freelip import FiniteSpace

    sym = FiniteSpace(matrix=matrix, basepoint=0)
    f = FiniteMap(space=sym, table=(0, 2, 1))
    cert = rigidity_check(f, [0, 1, 2], [2, 4, 6], bound=1.0)
    assert cert.passed
    assert cert.lip_values == (1.0, 1.0, 1.0)
    assert cert.return_errors == (0.0, 0.0, 0.0)


def test_rigidity_flags_lipschitz_blowup():
    f = doubling_map()
    cert = rigidity_check(f, [0.25, 0.5], [1, 2], bound=1.0)
    assert not cert.passed
    assert cert.reason.startswith("lipschitz-bound")
    assert cert.lip_values[0] == 2.0


def test_rigidity_flags_return_error():
    matrix = ((0.0, 1.0, 1.0), (1.0, 0.0, 2.0), (1.0, 2.0, 0.0))
    from freelip import FiniteSpace

    sym = FiniteSpace(matrix=matrix, basepoint=0)
    f = FiniteMap(space=sym, table=(0, 2, 1))
    cert = rigidity_check(f, [1], [3], bound=1.0)  # odd time: swap not returned
    assert not cert.passed
    assert cert.reason.startswith("return-error")
    assert cert.return_errors[0] == 2.0


def test_rigidity_validates_times_and_sample():
    f = doubling_map()
    with pytest.raises(DomainError):
        rigidity_check(f, [0.5], [2, 2], bound=1.0)
    with pytest.raises(DomainError):
        rigidity_check(f, [], [1], bound=1.0)
    with pytest.raises(DomainError):
        rigidity_check(f, [0.5], [1, 2], bound=1.0, tolerances=[1e-9])
    for bad in (math.nan, math.inf, -1e-9):
        with pytest.raises(DomainError):
            rigidity_check(f, [0.5], [1, 2], bound=1.0, tolerances=bad)
        with pytest.raises(DomainError):
            rigidity_check(f, [0.5], [1, 2], bound=1.0, tolerances=[1e-9, bad])


def test_rigidity_reads_times_as_integers():
    f = doubling_map()
    assert rigidity_check(f, [0.5], [2.0, 3], bound=1.0).times == (2, 3)
    for times in ((1.5, 4.9), (True, 2)):  # once read as (1, 4) and (1, 2)
        with pytest.raises(DomainError):
            rigidity_check(f, [0.5], times, bound=1.0)


def test_rigidity_refuses_a_bool_tolerance():
    f = doubling_map()
    assert rigidity_check(f, [0.5], [1, 2], bound=2.0, tolerances=[0, 1]).tolerances == (0.0, 1.0)
    for tolerances in (True, [1e-9, True]):  # once read as 1.0
        with pytest.raises(DomainError, match="tolerance True is not a number"):
            rigidity_check(f, [0.5], [1, 2], bound=2.0, tolerances=tolerances)


def test_rigidity_broadcasts_a_numpy_scalar_tolerance():
    f = doubling_map()
    for tol in (np.int64(0), np.float32(0.0), np.float64(1e-9)):  # np.int64 once raised a bare TypeError
        cert = rigidity_check(f, [0.0], [1], bound=2.0, tolerances=tol)
        assert cert.tolerances == (float(tol),) and cert.passed
    assert rigidity_check(f, [0.0], [1, 2], bound=4.0, tolerances=np.float32(0.5)).tolerances == (0.5, 0.5)
    for bad in (np.float64(math.nan), np.float32(math.inf)):
        with pytest.raises(DomainError, match="^tolerance .* is not a finite number"):
            rigidity_check(f, [0.0], [1], bound=2.0, tolerances=bad)


# a sequence argument is read whole: one that cannot be iterated, or a str,
# is refused by name (once a bare TypeError, or a str read letter by letter)
SEQUENCES = {
    "tolerances-0d-array": ("tolerances", lambda: rigidity_check(doubling_map(), [0.0], [1], bound=2.0,
                                                                 tolerances=np.array(0.0))),
    "tolerances-object": ("tolerances", lambda: rigidity_check(doubling_map(), [0.0], [1], bound=2.0,
                                                               tolerances=object())),
    "tolerances-str": ("tolerances", lambda: rigidity_check(doubling_map(), [0.0], [1, 2, 3], bound=2.0,
                                                            tolerances="abc")),
    "radii-int": ("radii", lambda: ClassificationParams(radii=5)),
    "radii-str": ("radii", lambda: ClassificationParams(radii="248")),
    "times-int": ("times", lambda: rigidity_check(doubling_map(), [0.0], 5, bound=2.0)),
    "sample-int": ("the sample", lambda: rigidity_check(doubling_map(), 5, [1], bound=2.0)),
    "sample-str": ("the sample", lambda: rigidity_check(doubling_map(), "0", [1], bound=2.0)),
    "kronecker-angles-str": ("angles", lambda: kronecker_return_times("12", 0.1, 3)),
    "power-sample-str": ("the sample", lambda: power_equivalence_check(doubling_map(), 2, "0")),
    "operator-norm-points-str": ("the points", lambda: operator_norm_estimate(doubling_map(), points="01")),
    "restrict-points-str": ("the points", lambda: restrict_to_points(IntervalSpace(0.0, 1.0), "01")),
    "restrict-map-points-str": ("the points", lambda: restrict_map(doubling_map(), "0")),
    "kronecker-angles-int": ("angles", lambda: kronecker_return_times(5, 0.1, 3)),
    "power-sample-int": ("the sample", lambda: power_equivalence_check(doubling_map(), 2, 5)),
    "vector-pairs-int": ("pairs", lambda: make_free_vector(IntervalSpace(0.0, 1.0), 5)),
    "vector-pair-int": ("pairs", lambda: make_free_vector(IntervalSpace(0.0, 1.0), [5])),
    "vector-pair-short": ("pairs", lambda: make_free_vector(IntervalSpace(0.0, 1.0), [(0.5,)])),
    "operator-norm-points-int": ("the points", lambda: operator_norm_estimate(doubling_map(), points=5)),
    "restrict-points-int": ("the points", lambda: restrict_to_points(IntervalSpace(0.0, 1.0), 5)),
    "shift-vector-lam-int": ("lam", lambda: shift_vector(AlphaSpace([1.0, 2.0]), 5)),
    "shift-experiment-lam-int": ("lam", lambda: forward_shift_experiment(AlphaSpace([1.0, 2.0, 3.0]), 5, 1)),
    "shift-experiment-lam-str": ("lam", lambda: forward_shift_experiment(AlphaSpace([1.0, 2.0, 3.0]), "12", 1)),
    "shift-closed-form-lam-int": ("lam", lambda: shift_profile_closed_form(5, AlphaSpace([1.0, 2.0, 3.0]), 1)),
    "shift-closed-form-lam-str": ("lam", lambda: shift_profile_closed_form("1", AlphaSpace([1.0, 2.0, 3.0]), 1)),
    "shift-experiment-radii-int": ("radii", lambda: forward_shift_experiment(AlphaSpace([1.0]), [1.0], 1, radii=5)),
    "shift-experiment-radii-str": ("radii", lambda: forward_shift_experiment(AlphaSpace([1.0]), [1.0], 1, radii="1")),
    "gallery-names-int": ("names", lambda: gallery_experiments(names=5)),
}


@pytest.mark.parametrize("case", sorted(SEQUENCES))
def test_a_sequence_argument_that_is_not_a_list_is_a_domain_error(case):
    name, call = SEQUENCES[case]
    with pytest.raises(DomainError, match=f"^{name} must be a "):
        call()


@pytest.mark.parametrize("lam, message", [
    (["1", True], "coefficient '1' is not a number"),
    ([1.0, True], "coefficient True is not a number"),
    ([1.0, math.nan], "coefficient nan is not a finite number"),
])
def test_a_shift_payload_is_read_as_numbers_as_shift_vector_reads_it(lam, message):
    # forward_shift_experiment once read ["1", True] with float() and reported l1 = 2.0
    space = AlphaSpace(range(1, 30))
    for call in (lambda: shift_vector(space, lam), lambda: forward_shift_experiment(space, lam, 5),
                 lambda: shift_profile_closed_form(lam, space, 2)):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("call", [
    lambda space: shift_vector(space, [1.0]),
    lambda space: forward_shift_experiment(space, [1.0], 5),
    lambda space: shift_profile_closed_form([1.0], space, 2),
], ids=["shift-vector", "forward-shift-experiment", "shift-closed-form"])
def test_a_shift_on_a_space_that_is_not_a_sequence_space_is_a_domain_error(call):
    # once a bare AttributeError: an interval has no alpha
    for space in (IntervalSpace(0.0, 1.0), LatticeBox(bounds=((-3, 3),))):
        with pytest.raises(DomainError, match=r"^alpha rules need a sequence space$"):
            call(space)


def test_a_shift_payload_of_ints_profiles_as_its_floats():
    space = AlphaSpace(range(1, 30))
    assert forward_shift_experiment(space, [1, 0, -2], 5) == forward_shift_experiment(space, [1.0, 0.0, -2.0], 5)
    assert shift_profile_closed_form((1, 2), space, 3) == shift_profile_closed_form([1.0, 2.0], space, 3)


def test_rigidity_bounds_pushforward_displacement(rng):
    # a passing certificate bounds ||f^n mu - mu|| by sum |c_i| * return error
    matrix = ((0.0, 1.0, 1.0), (1.0, 0.0, 2.0), (1.0, 2.0, 0.0))
    from freelip import FiniteSpace, linear_combine

    sym = FiniteSpace(matrix=matrix, basepoint=0)
    f = FiniteMap(space=sym, table=(0, 2, 1))
    cert = rigidity_check(f, [0, 1, 2], [2], bound=1.0, tolerances=[1.0])
    mu = make_free_vector(sym, [(1, rng.uniform(-2, 2)), (2, rng.uniform(-2, 2))])
    moved = iterate_vector(f, mu, 2)
    diff = linear_combine([(1.0, moved), (-1.0, mu)])
    bound = sum(abs(c) for _, c in mu.terms) * cert.return_errors[0]
    assert norm_flow(diff).value <= bound + 1e-9


# ---------------------------------------------------------------------------
# escape window functionals


def test_escape_functional_shape():
    sp = IntervalSpace(0.0, math.inf)
    phi = escape_test_functional(sp, 2, 3.0)
    assert phi(0.0) == 0.0
    assert phi(6.0) == 0.0  # inside the dead zone m*R
    assert phi(7.5) == 1.5  # ramping
    assert phi(100.0) == 3.0  # saturated
    with pytest.raises(DomainError):
        escape_test_functional(sp, 0, 1.0)


def test_escape_functional_is_one_lipschitz_and_dominated(rng):
    sp = random_finite_space(rng, 8)
    phi = escape_test_functional(sp, 1, 2.0)
    for y in sp.points():
        for z in sp.points():
            assert abs(phi(y) - phi(z)) <= sp.distance(y, z) + 1e-12
    mu = make_free_vector(sp, [(p, rng.uniform(-2, 2)) for p in range(1, 5)])
    assert abs(pair(phi, mu)) <= norm_flow(mu).value + 1e-9


# ---------------------------------------------------------------------------
# interval case analysis


def test_identity_map_has_no_drift():
    res = interval_analyze(identity_map())
    assert res.case == CASE_NO_DRIFT
    assert res.side("positive").components == ()


def test_ramp_map_drifts_to_infinity():
    res = interval_analyze(ramp_map())
    assert res.case == CASE_UNBOUNDED_DRIFT
    side = res.side("positive")
    assert side.certificate == 1.0  # a concrete escaping start: lo + 1
    assert side.components[-1][1] == math.inf


def test_an_unbounded_component_is_written_with_a_null_end():
    side, = interval_analysis_to_json(interval_analyze(ramp_map()))["sides"]
    assert side["components"] == [[0.0, None]] and side["component"] == [0.0, None]
    assert json.dumps(side["components"]) == "[[0.0, null]]"


def test_fill_map_is_trapped_without_overshoot():
    res = interval_analyze(fill_map(), depth=20)
    assert res.case == CASE_TRAPPED_DRIFT_IN
    side = res.side("positive")
    assert side.component == (0.0, 1.0)
    assert side.sequence[:3] == (0.5, 0.25, 0.125)
    assert side.tail_bound == pytest.approx(2.0**-20)


def test_doubling_map_overshoots():
    res = interval_analyze(doubling_map(), depth=10)
    assert res.case == CASE_TRAPPED_DRIFT_OVER
    side = res.side("positive")
    assert side.sequence == tuple(2.0**-n for n in range(1, 11))
    mu = side.vector
    assert mu is not None
    assert mu.support() == tuple(sorted(side.sequence))
    # every coefficient is +1 on the backward orbit (minus nothing at base)
    assert all(c == 1.0 for c in mu.coefficients())


def test_negative_side_analyzed_through_reflection():
    # x -> 2x pushed down on [-1, 1]: drift only on the negative side
    sp = IntervalSpace(-1.0, 1.0)
    f = PiecewiseLinearMap(
        sp, [(-1.0, -1.0), (-0.5, -1.0), (0.0, 0.0), (1.0, 0.5)]
    )
    res = interval_analyze(f, depth=8)
    assert res.case == CASE_TRAPPED_DRIFT_OVER
    neg = res.side("negative")
    assert neg.case == CASE_TRAPPED_DRIFT_OVER
    assert all(x < 0 for x in neg.sequence)
    pos = res.side("positive")
    assert pos.case == CASE_NO_DRIFT
    # the reflected backward orbit mirrors the one-sided doubling analysis
    assert neg.sequence == tuple(-(2.0**-n) for n in range(1, 9))


def test_reflected_report_writes_no_negative_zero():
    # the negative side's drift component ends at 0, which its mirror image
    # must not turn into -0.0 in the written report
    sp = IntervalSpace(-1.0, 1.0)
    f = PiecewiseLinearMap(
        sp, [(-1.0, -1.0), (-0.5, -1.0), (0.0, 0.0), (1.0, 0.5)]
    )
    res = interval_analyze(f, depth=8)
    (lo, hi), = res.side("negative").components
    assert (lo, math.copysign(1.0, hi)) == (-1.0, 1.0)
    text = json.dumps(interval_analysis_to_json(res))
    assert re.search(r"-0\.0(?!\d)", text) is None, text


def test_whole_line_reflects_both_tails():
    # on (-inf, inf) the mirror y -> -f(-y) needs both end slopes; its right
    # tail is f's left tail, on which the negative side escapes
    line = IntervalSpace(-math.inf, math.inf)
    f = PiecewiseLinearMap(
        line, [(-1.0, -0.5), (0.0, 0.0), (1.0, 0.5)], left_slope=2.0, right_slope=0.5
    )
    res = interval_analyze(f)
    assert res.case == CASE_UNBOUNDED_DRIFT
    assert res.side("positive").case == CASE_NO_DRIFT
    neg = res.side("negative")
    assert neg.case == CASE_UNBOUNDED_DRIFT
    assert neg.component == (-math.inf, -1.5)
    assert neg.certificate == -2.5


def test_severity_takes_the_worse_side():
    # positive side trapped (fill-like), negative side unbounded
    sp = IntervalSpace(-math.inf, 1.0)
    f = PiecewiseLinearMap(
        sp,
        [(-1.0, -2.0), (0.0, 0.0), (0.5, 0.75), (1.0, 1.0)],
        left_slope=2.0,
    )
    res = interval_analyze(f)
    assert res.case == CASE_UNBOUNDED_DRIFT
    assert res.side("positive").case == CASE_TRAPPED_DRIFT_IN
    assert res.side("negative").case == CASE_UNBOUNDED_DRIFT


@pytest.mark.parametrize("lo", [1e15, 1e16, 1e17])
def test_a_far_drift_region_is_unbounded_drift(lo):
    # id on [0, lo], slope 2 after: every start past lo escapes.  Past 2**53,
    # lo + 1 rounds back to lo, a fixed point, so the probe and the
    # certificate take the next float instead
    f = PiecewiseLinearMap(IntervalSpace(0.0, math.inf), [(0.0, 0.0), (lo, lo)], right_slope=2.0)
    res = interval_analyze(f)
    assert res.case == CASE_UNBOUNDED_DRIFT
    side = res.side("positive")
    assert side.component == (lo, math.inf)
    c = side.certificate
    assert c > lo and f.eval(c) > c
    assert classify_orbit(f, c).verdict == ESCAPING
    if lo + 1.0 > lo:
        assert c == lo + 1.0


def test_a_backward_orbit_closing_on_its_left_end_ends_the_sequence():
    # the backward orbit of c closes on b to within float resolution after
    # 17 points: the walk ends there instead of asking for a root in (b, x]
    f = PiecewiseLinearMap(
        IntervalSpace(-math.inf, 1.0),
        [(0, 0), (0.1529267497425224, -3.559796872836607), (0.7053721013857226, 0.9544781988480864),
         (1.0, 0.6183856700884052)],
        left_slope=1.3015694641925821,
    )
    side = interval_analyze(f, depth=20).side("positive")
    assert side.case == CASE_TRAPPED_DRIFT_OVER
    assert len(side.sequence) == 17
    assert side.sequence == interval_analyze(f, depth=17).side("positive").sequence


def test_doubling_sequence_ends_at_the_least_subnormal():
    res = interval_analyze(doubling_map(), depth=1100)
    assert res.case == CASE_TRAPPED_DRIFT_OVER
    seq = res.side("positive").sequence
    assert len(seq) == 1074 and seq[-1] == 5e-324
    assert seq == tuple(2.0**-n for n in range(1, 1075))


def _random_pl_map(rng):
    """A seeded piecewise-linear map on a bounded, half-bounded or whole-line interval."""
    a = rng.choice([-math.inf, -rng.uniform(0.1, 3.0), 0.0])
    b = rng.choice([math.inf, rng.uniform(0.1, 3.0)])
    inner = (rng.uniform(max(a, -3.0), min(b, 3.0)) for _ in range(rng.randint(1, 5)))
    xs = sorted({0.0, *inner, *(e for e in (a, b) if math.isfinite(e))})
    ys = [0.0 if x == 0.0 else rng.uniform(max(a, -4.0), min(b, 4.0)) for x in xs]
    ls = None if math.isfinite(a) else rng.uniform(0.0 if math.isfinite(b) else -3.0, 3.0)
    rs = None if math.isfinite(b) else rng.uniform(0.0 if math.isfinite(a) else -3.0, 3.0)
    return PiecewiseLinearMap(IntervalSpace(a, b), list(zip(xs, ys)), left_slope=ls, right_slope=rs)


def test_certificate_sequences_are_decreasing_prefixes_on_random_maps():
    depths = (1, 5, 20, 60)
    for seed in range(300):
        f = _random_pl_map(random.Random(seed))
        runs = [interval_analyze(f, depth=d) for d in depths]
        for name in ("positive", "negative")[: len(runs[0].sides)]:
            sides = [r.side(name) for r in runs]
            sign = 1.0 if name == "positive" else -1.0  # read the negative side's mirror image
            for d, side in zip(depths, sides):
                if side.case not in (CASE_TRAPPED_DRIFT_IN, CASE_TRAPPED_DRIFT_OVER):
                    continue
                b, c = sorted(sign * e for e in side.component)
                seq = [sign * x for x in side.sequence]
                assert len(seq) <= d, (seed, name, d)
                # strictly decreasing inside (b, c): no point reaches b or repeats
                assert all(b < y < x for x, y in zip([c, *seq], seq)), (seed, name, d)
                if side.case == CASE_TRAPPED_DRIFT_IN:
                    assert side.tail_bound == (c - b) * 0.5 ** len(seq), (seed, name, d)
            for (d, short), long in zip(zip(depths, sides), sides[1:]):
                # a walk that ended early stays ended at every larger depth
                assert short.sequence == long.sequence[: len(short.sequence)], (seed, name, d)
                assert len(short.sequence) == min(d, len(long.sequence)), (seed, name, d)


def written_reports():
    """classify and interval-analysis reports as dicts: the oracle orbits at powers 1-3 on the
    default and an explicit ladder, a lattice start on the box's edge that leaves it at step 1 (its
    gap is null), and the suite maps and seeded piecewise-linear maps at every depth 1..40."""
    edge = map_from_json({"kind": "lattice-rule", "matrix": [[1, 1], [0, 1]]}, LatticeBox(((-6, 6), (-6, 6))))
    for _, f, points in oracle_orbits() + [("lattice-shear-edge", edge, ((6, 1),))]:
        for x in points:
            for params in (ClassificationParams(horizon=400), ClassificationParams(horizon=400, radii=SMALL_LADDER)):
                for power in (1, 2, 3):
                    yield classification_to_json(classify_orbit(f, x, params, power=power))
    rng = random.Random(3707)
    for f in [*interval_map_suite().values(), *(_random_pl_map(rng) for _ in range(24))]:
        for depth in range(1, 41):
            yield interval_analysis_to_json(interval_analyze(f, depth=depth))


# SHA-256 over the bytes the classify and interval-analyze verbs would write for
# each of the written reports: a change to either serializer must not move one byte
PINNED_WRITTEN_REPORTS_SHA256 = "bf4be8bd17618f124f0caae39f90f57c645de7b2df56f6d7db2243ccf217d8c5"


def test_written_reports_are_pinned_byte_for_byte():
    digest, null_gaps = hashlib.sha256(), 0
    for obj in written_reports():
        digest.update((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())
        null_gaps += obj.get("gap", 0.0) is None
    assert null_gaps >= 1
    assert digest.hexdigest() == PINNED_WRITTEN_REPORTS_SHA256


def test_a_report_equals_what_json_reads_back_from_it():
    # a rigidity certificate once kept its tuples, which JSON reads back as lists
    _, rotation = circle_rotation_space(5)
    certs = (rigidity_check(rotation, list(rotation.space.points()), [5, 10], bound=1.0),
             rigidity_check(doubling_map(), [0.25, 0.5], [1, 2], bound=4.0))
    for obj in [*written_reports(), *map(rigidity_to_json, certs)]:
        assert obj == json.loads(json.dumps(obj))


def test_interval_analyze_requires_pl_presentation():
    sp = random_finite_space(random.Random(1), 3)
    f = FiniteMap(space=sp, table=(0, 1, 2))
    with pytest.raises(DomainError):
        interval_analyze(f)


# ---------------------------------------------------------------------------
# power equivalence


def test_power_check_agrees_on_suite_points():
    params = ClassificationParams(horizon=300, radii=SMALL_LADDER)
    rep = power_equivalence_check(ramp_map(), 3, [0.5, 1.0, 2.0], params)
    assert rep.power == 3
    assert rep.agree
    assert rep.disagreements == ()
    for e in rep.entries:
        assert e.escape_agree


def test_power_check_records_entries():
    params = ClassificationParams(horizon=100)
    rep = power_equivalence_check(doubling_map(), 2, [0.25, 0.75], params)
    assert {e.point for e in rep.entries} == {0.25, 0.75}
    assert all(e.verdict_base == e.verdict_power for e in rep.entries)


# ---------------------------------------------------------------------------
# property sweeps


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gap_bounds_distance_between_endpoint_norms(seed):
    # | d(0, f^n x) - d(0, x) | <= d(x, f^n x), so the recurrence gap caps
    # how far the distance profile can wander from its start
    rng = random.Random(seed)
    sp = random_finite_space(rng, 6)
    table = tuple([0] + [rng.randrange(sp.size) for _ in range(sp.size - 1)])
    f = FiniteMap(space=sp, table=table)
    x = rng.randrange(1, sp.size)
    gap, t = recurrence_gap(f, x, 20)
    y = x
    for _ in range(t):
        y = f.apply(y)
    assert abs(sp.distance(0, y) - sp.distance(0, x)) <= gap + 1e-12


@settings(deadline=None, max_examples=20)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=2, max_value=5),
)
def test_power_verdicts_never_flip_escape_for_doubling(x, k):
    params = ClassificationParams(horizon=200)
    rep = power_equivalence_check(doubling_map(), k, [x], params)
    assert rep.agree


# ---------------------------------------------------------------------------
# orbit structure, Per(f), and the restriction of a closed orbit to a table


def _structure_by_search(f, x):
    """(tail, period) of the orbit of x, by a search of the orbit so far."""
    orbit = [x]
    while (y := f.apply(orbit[-1])) not in orbit:
        orbit.append(y)
    return orbit.index(y), len(orbit) - orbit.index(y)


def test_periodic_points_are_the_image_of_the_idempotent_power_on_random_tables():
    rng = random.Random(3601)
    spaces = {n: random_finite_space(rng, n) for n in range(1, 41)}
    vectors = 0
    for _ in range(2000):
        sp = spaces[rng.randint(1, 40)]
        f = FiniteMap(sp, [0] + [rng.randrange(sp.size) for _ in range(sp.size - 1)])
        per = periodic_points(f)
        structure = [orbit_structure(f, x) for x in sp.points()]
        assert structure == [_structure_by_search(f, x) for x in sp.points()]
        assert per == tuple(x for x, (tail, _) in enumerate(structure) if tail == 0)
        # N: the least multiple of the lcm of the periods that is at least the longest tail
        lcm, longest = math.lcm(*(p for _, p in structure)), max(t for t, _ in structure)
        power = iterate_map(f, lcm * max(1, -(-longest // lcm)))
        assert sorted(set(power.table)) == list(per)
        assert tuple(power.table[j] for j in power.table) == power.table
        for pool in (per, range(sp.size)):
            mu = make_free_vector(sp, [(p, rng.choice((-2.0, -1.0, 1.0, 3.0))) for p in pool if rng.random() < 0.5])
            assert (push_forward(power, mu) == mu) == set(mu.support()).issubset(per), (f.table, mu)
            vectors += not mu.is_zero()
    assert vectors > 3000


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1), st.integers(0, n - 1),
    st.integers(1, 16), st.sampled_from((None, 0.5, 0.999)), st.randoms(use_true_random=False))))
def test_a_finite_orbit_is_recurrent_evidence_iff_it_is_a_cycle_within_the_horizon(case):
    rest, x, horizon, eps, rnd = case
    n = len(rest) + 1
    upper = {(i, j): rnd.uniform(1.0, 2.0) for i in range(n) for j in range(i + 1, n)}  # every distance above eps
    sp = FiniteSpace([[0.0 if i == j else upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
    f = FiniteMap(sp, [0] + rest)
    tail, period = orbit_structure(f, x)
    rep = classify_orbit(f, x, ClassificationParams(horizon=horizon, eps_recurrent=eps))
    assert (rep.verdict == RECURRENT) == (tail == 0 and period <= horizon)


def closing_orbits():
    """(kind, map, starts) on the four space kinds: seeded tables and matrix rules, the block cycle and
    seeded alpha tables, and integer-slope maps of [0, 1] with breakpoints in Z/4 from starts in Z/64,
    whose orbits stay on Z/64; some starts leave their presentation or never repeat."""
    rng = random.Random(3602)
    cases = [("finite", f, points) for _, f, points in table_orbits()]
    cases.append(("alpha", block_cycle_map(block_cycle_space(10), 10), (1, 7, 30, 65)))
    cases.append(("alpha", forward_shift_map(AlphaSpace([1.0] * 40)), (0, 3)))
    for _ in range(6):
        sp = AlphaSpace([rng.uniform(0.5, 4.0) for _ in range(rng.randrange(2, 15))])
        table = [0] + [rng.randrange(sp.prefix_length + 1) for _ in range(sp.prefix_length)]
        cases.append(("alpha", map_from_json({"kind": "alpha-rule", "rule": "table", "table": table}, sp),
                      tuple(sp.points())))
    box = LatticeBox(((-6, 6), (-6, 6)))
    for mat in ([[0, -1], [1, 0]], [[1, 0], [0, 0]], [[1, 1], [0, 1]], [[0, 1], [1, 0]], [[-1, 0], [1, -1]]):
        f = map_from_json({"kind": "lattice-rule", "matrix": mat}, box)
        cases.append(("lattice", f, ((1, 0), (1, 1), (3, 2), (-4, 5), (0, 0))))
    for _ in range(8):
        ys = [0.0] + [rng.randrange(5) / 4 for _ in range(4)]
        f = PiecewiseLinearMap(IntervalSpace(0.0, 1.0), list(zip((0.0, 0.25, 0.5, 0.75, 1.0), ys)))
        cases.append(("interval", f, tuple(rng.randrange(65) / 64 for _ in range(5))))
    cases.append(("interval", doubling_map(), (0.0, 3 / 64, 0.5, 1.0)))
    cases.append(("interval", ramp_map(), (0.0, 0.5)))
    return cases


def _report_fields(rep):
    return _hexed({k: getattr(rep, k) for k in rep._fields if k != "point"})


def test_a_closed_orbit_is_classified_alike_on_its_restriction():
    closed = {"finite": 0, "alpha": 0, "lattice": 0, "interval": 0}
    refused = 0
    for kind, f, starts in closing_orbits():
        for x in starts:
            try:
                g = restrict_map(f, [x])
            except DomainError as exc:
                with pytest.raises(DomainError) as err:
                    orbit_structure(f, x)
                assert str(err.value) == str(exc)
                refused += 1
                continue
            closed[kind] += 1
            labels = g.space.labels
            assert [labels[j] for j in g.table] == [f.apply(p) for p in labels]
            assert all(g.space.distance(i, j).hex() == f.space.distance(p, q).hex()
                       for i, p in enumerate(labels) for j, q in enumerate(labels))
            i = labels.index(f.space.check_point(x))
            assert orbit_structure(g, i) == orbit_structure(f, x) == _structure_by_search(f, f.space.check_point(x))
            for params in (ClassificationParams(horizon=300, eps_recurrent=1e-9),
                           ClassificationParams(horizon=300, eps_recurrent=1e-6, radii=SMALL_LADDER)):
                for power in (1, 2, 3):
                    want = classify_orbit(f, x, params, power=power)
                    assert _report_fields(classify_orbit(g, i, params, power=power)) == _report_fields(want), (kind, x)
    assert min(closed.values()) >= 10 and refused >= 5, (closed, refused)


def test_known_orbit_structures():
    blocks = BlockScheme.triangular(11).ss
    cycle = block_cycle_map(block_cycle_space(10), 10)
    assert periodic_points(restrict_map(cycle, list(cycle.space.points()))) == tuple(range(blocks[-1]))
    assert all(orbit_structure(cycle, m) == (0, n + 1) for n in range(1, 11) for m in range(blocks[n], blocks[n + 1]))
    shift = backward_shift_map(backward_shift_space(12))
    assert periodic_points(shift) == (0,)
    assert [orbit_structure(shift, i) for i in shift.space.points()] == [(i, 1) for i in range(13)]
    turn = map_from_json({"kind": "lattice-rule", "matrix": [[0, -1], [1, 0]]}, LatticeBox(((-2, 2), (-2, 2))))
    g = restrict_map(turn, [(1, 0)])
    assert g.space.labels == ((0, 0), (-1, 0), (0, -1), (0, 1), (1, 0))
    assert periodic_points(g) == (0, 1, 2, 3, 4)
    twice = map_from_json({"kind": "lattice-rule", "matrix": [[2]]}, LatticeBox(((-1000, 1000),)))
    with pytest.raises(DomainError) as err:
        orbit_structure(twice, (1,))
    assert str(err.value) == "point (1024,) not in lattice box ((-1000, 1000),)"


def test_an_orbit_that_shows_no_repeat_is_refused_by_name():
    shift = forward_shift_map(AlphaSpace([1.0] * (dynamics.DEFAULT_HORIZON + 2)))
    for call, start in ((lambda: orbit_structure(shift, 1), 1), (lambda: restrict_map(shift, [2, 1]), 2)):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == f"the orbit of {start} shows no repeat within {dynamics.DEFAULT_HORIZON} steps"
    with pytest.raises(PrefixExhausted):
        orbit_structure(forward_shift_map(AlphaSpace([1.0] * 5)), 1)


def test_restriction_refuses_what_it_cannot_read():
    with pytest.raises(DomainError, match="^periodic points are read off a finite table"):
        periodic_points(doubling_map())
    with pytest.raises(DomainError, match="^the points must be a list of points$"):
        restrict_map(doubling_map(), 0.5)
    with pytest.raises(DomainError, match="^point 2.0 not in interval"):
        restrict_map(doubling_map(), [0.5, 2.0])
    only_base = restrict_map(doubling_map(), [])
    assert only_base.space.labels == (0.0,) and only_base.table == (0,)


def test_a_closure_past_the_table_bound_is_refused_before_its_table_is_built(monkeypatch):
    # a 1,001-state cycle once built its 1,002-point table and checked it in O(n³), for seconds
    cycle = map_from_json({"kind": "alpha-rule", "rule": "table", "table": [0, *range(2, 1002), 1]},
                          AlphaSpace([1.0] * 1001))
    monkeypatch.setattr(dynamics, "restrict_to_points", None)  # a table build would call it
    with pytest.raises(DomainError) as err:
        restrict_map(cycle, [1])
    assert str(err.value) == ("the closure has 1002 points, over the 1000 a restricted table may hold; "
                              "orbit_structure reads one orbit without a table (tail 0 means periodic)")
    assert orbit_structure(cycle, 1) == (0, 1001)
