from __future__ import annotations

import hashlib
import json
import math
import random
import re

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
    ClassificationParams,
    DomainError,
    FiniteMap,
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
    doubling_map,
    escape_test_functional,
    fill_map,
    forward_shift_map,
    identity_map,
    interval_analysis_to_json,
    interval_analyze,
    interval_map_suite,
    iterate_point,
    iterate_vector,
    lip_constant,
    make_free_vector,
    map_from_json,
    norm_flow,
    orbit_norm_profile,
    pair,
    power_equivalence_check,
    ramp_map,
    recurrence_gap,
    rigidity_check,
    shift_profile_closed_form,
)
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
    f = AlphaMap(space=sp, rule=lambda n: 0 if n == 0 else n + 1)
    rep = classify_orbit(f, 1, ClassificationParams(horizon=100))
    assert rep.verdict == UNDECIDED
    assert "left the computable presentation" in rep.note
    assert rep.steps < 100


def test_escape_allowed_on_observed_window_despite_truncation():
    sp = AlphaSpace([2.0**n for n in range(1, 11)])
    f = AlphaMap(space=sp, rule=lambda n: 0 if n == 0 else n + 1)
    rep = classify_orbit(
        f, 1, ClassificationParams(horizon=1000, radii=(4.0, 16.0, 64.0))
    )
    assert rep.verdict == ESCAPING
    assert "left the computable presentation" in rep.note


def test_conflicting_signals_stay_undecided():
    # a 2-cycle living entirely above the first radius crosses the whole
    # ladder AND returns exactly; the conflict is reported, not resolved
    sp = AlphaSpace([4.0, 16.0])
    f = AlphaMap(space=sp, rule=lambda n: {0: 0, 1: 2, 2: 1}[n])
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


def test_shift_profile_closed_form_matches_pushforward():
    alpha = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    sp = AlphaSpace(alpha)
    lam = [0.5, -0.25, 1.0]
    f = AlphaMap(space=sp, rule=lambda n: 0 if n == 0 else n + 1)
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
