"""End-to-end checks of the bundled experiment families.

Frozen numbers here were independently derived before being pinned: block
scheme lengths satisfy their defining minimality recurrences (checked by
``validate_tempered``), the cycle-profile peak is recomputed from the exact
weighted-l1 closed form, and Lipschitz constants of iterates come straight
from slope products.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import tracemalloc
import weakref

import pytest

import freelip.gallery as gallery
from freelip import (
    GALLERY,
    AlphaMap,
    AlphaSpace,
    BlockScheme,
    DomainError,
    FiniteMap,
    IntervalSpace,
    PiecewiseLinearMap,
    backward_shift_experiment,
    backward_shift_map,
    backward_shift_space,
    block_cycle_experiment,
    block_cycle_map,
    block_cycle_space,
    circle_rotation_experiment,
    circle_rotation_space,
    doubling_experiment,
    doubling_map,
    dyadic_tail_vector,
    experiment_to_json,
    fill_map,
    forward_shift_experiment,
    forward_shift_map,
    gallery_experiments,
    identity_map,
    interval_map_suite,
    iterate_map,
    kronecker_return_times,
    lip_constant,
    norm_flow,
    ramp_map,
    shift_profile_closed_form,
    shift_vector,
    tempered_alpha_space,
)

# the minimal slow-growth block lengths, pinned through 12 blocks
TEMPERED_KS = (0, 1, 1, 4, 12, 42, 156, 607, 2469, 10436, 45604, 205255, 948535)
TEMPERED_SS = (0, 1, 2, 6, 18, 60, 216, 823, 3292, 13728, 59332, 264587, 1213122)


# ---------------------------------------------------------------------------
# block schemes


def test_triangular_scheme_partial_sums():
    sch = BlockScheme.triangular(5)
    assert sch.ks == (0, 1, 2, 3, 4, 5)
    assert sch.ss == (0, 1, 3, 6, 10, 15)
    assert sch.blocks == 5


def test_block_scheme_rejects_bad_lengths():
    with pytest.raises(DomainError):
        BlockScheme(ks=(1, 2))
    for ks, m in (((0, 0), 1), ((0, 1, 1.5), 2), ((0, True), 1), ((0, 1, 2.0), 2)):
        with pytest.raises(DomainError, match=f"block length k_{m} must be an integer of at least 1"):
            BlockScheme(ks=ks)


def test_block_lengths_are_read_once_as_a_tuple_of_ints():
    # once kept as given: a list could not be hashed and a float k_0 stayed a float
    assert BlockScheme(ks=[0, 1, 2]) == BlockScheme(ks=iter((0, 1, 2))) == BlockScheme.triangular(2)
    assert hash(BlockScheme(ks=[0, 1])) == hash(BlockScheme(ks=(0, 1)))
    not_a_list = "block lengths must be a list of integers"
    for ks, message in ((5, not_a_list), ("01", not_a_list),
                        ((0.0, 1), "block length k_0 must be a nonnegative integer")):
        with pytest.raises(DomainError, match=f"^{message}$"):
            BlockScheme(ks=ks)


def test_tempered_scheme_minimal_lengths():
    sch = BlockScheme.tempered(12)
    assert sch.ks == TEMPERED_KS
    assert sch.ss == TEMPERED_SS
    sch.validate_tempered()  # must not raise


def test_tempered_lengths_are_minimal_and_feasible():
    sch = BlockScheme.tempered(8)
    ss = sch.ss
    for m in range(2, 9):
        k = sch.ks[m]
        assert m ** (ss[m - 1] / k) <= 2.0 * (1.0 + 1e-12)
        # one less would break the doubling constraint (minimality): the rate term never binds
        if k > 1:
            shrunk = m ** (ss[m - 1] / (k - 1)) > 2.0 * (1.0 + 1e-12)
            assert shrunk


def test_validate_tempered_names_the_violation():
    bad = BlockScheme(ks=(0, 1, 1, 1))  # k_3 = 1 forces 3^(2/1) = 9 > 2
    with pytest.raises(DomainError, match="m = 3"):
        bad.validate_tempered()


def two_constraint_ks(blocks):
    """The tempered lengths as first defined: the least k_m meeting the doubling
    constraint and, from m = 3 on, the rate constraint m^(1/k_m) <= (m-1)^(1/k_{m-1})."""
    ks, s = [0, 1], 1
    for m in range(2, blocks + 1):
        k = max(1, math.ceil(s * math.log2(m)))
        if m >= 3:
            k = max(k, math.ceil(ks[-1] * math.log(m) / math.log(m - 1)))
        ks.append(k)
        s += k
    return tuple(ks)


def test_tempered_lengths_equal_the_two_constraint_recurrence():
    for blocks in range(1, 61):
        assert BlockScheme.tempered(blocks).ks == two_constraint_ks(blocks)


def test_the_doubling_constraint_implies_the_rate_constraint_in_integers():
    # doubling m^(s_{m-1}) <= 2^(k_m), exactly; then (m-1)^(k_m) >= m^(k_{m-1}) for m >= 3
    sch = BlockScheme.tempered(8)
    ks, ss = sch.ks, sch.ss
    for m in range(2, 9):
        assert m ** ss[m - 1] <= 2 ** ks[m]
        if m >= 3:
            assert (m - 1) ** ks[m] >= m ** ks[m - 1]


# ---------------------------------------------------------------------------
# tempered weights and the forward shift


@pytest.fixture(scope="module")
def small_tempered():
    return tempered_alpha_space(blocks=6)


def test_tempered_alpha_space_self_validates(small_tempered):
    space, report = small_tempered
    assert report.ok, report.failures()
    sch = BlockScheme.tempered(6)
    assert space.prefix_length == sch.ss[-1]
    # alpha hits the integer m exactly at every block end
    for m in range(1, 7):
        assert space.alpha(sch.ss[m]) == float(m)
    assert report.data["max_shifted_ratio"] <= 2.0 * (1.0 + 1e-12)


def test_tempered_alpha_rises_geometrically_within_blocks(small_tempered):
    # inside block m the weights are m^(i/k_m) for i = 1..k_m: a geometric
    # ramp restarting at each block and landing exactly on the integer m
    space, _ = small_tempered
    sch = BlockScheme.tempered(6)
    ss = sch.ss
    for m in range(2, 7):
        k = sch.ks[m]
        for i in range(1, min(k, 5) + 1):
            got = space.alpha(ss[m - 1] + i)
            assert got == pytest.approx(m ** (i / k), rel=1e-14)
    assert space.alpha(1) == 1.0


@pytest.fixture(scope="module")
def full_tempered():
    """The 12-block space and report, and the peak of traced memory while they were built."""
    tracemalloc.start()
    try:
        space, report = tempered_alpha_space(blocks=12)
        return space, report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_tempered_construction_report(full_tempered):
    space, report, _ = full_tempered
    assert report.ok
    assert space.prefix_length == TEMPERED_SS[-1]
    assert report.data["ss"] == list(TEMPERED_SS)


def test_tempered_weights_are_pinned_bit_for_bit(full_tempered):
    # SHA-256 of the space's weight buffer: 0.0 at the basepoint, then alpha_1..alpha_N
    digest = lambda space: hashlib.sha256(space._weights.tobytes()).hexdigest()
    assert digest(tempered_alpha_space(blocks=8)[0]) == "f71d349ee518d51ede9df417c8044bacbbc63f99f93713a9f14e6038c43f0687"
    assert digest(full_tempered[0]) == "c03a16a9bc8bf6a0f0a66f3f07de3423fd658f0541cd9d22bb323a377f177fac"


def test_tempered_build_holds_about_one_copy_of_the_weights(full_tempered):
    # the blocks are computed in slices in one mapping that the space adopts, and the
    # ratio check runs in slices; tracemalloc sees the slices and not the mapping, so
    # a copy of the weights on the heap would take the traced peak past the bound
    space, _, peak = full_tempered
    size = 8 * (space.prefix_length + 1)
    assert isinstance(space._weights.obj, mmap.mmap) and len(space._weights.obj) == size
    assert space._weights.nbytes == size
    assert peak <= 0.25 * 8 * space.prefix_length


def test_dropping_a_tempered_space_unmaps_its_weights():
    _, space = gallery._tempered_weights(6)
    mapping = weakref.ref(space._weights.obj)
    del space
    assert mapping() is None


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "full"])
def test_shift_tempered_reads_no_weight_past_the_blocks_it_builds(fast):
    # the report built on the blocks up to horizon + len(lam) is the one built on every block
    scheme, space = gallery._tempered_weights(8 if fast else 12)
    lam = [1.0 / n ** 2 for n in range(1, 21)]
    full = forward_shift_experiment(space, lam, scheme.ss[5 if fast else 8], scheme=scheme)
    assert GALLERY["shift-tempered"](fast) == full


def test_the_shift_profile_is_the_public_closed_form():
    # the experiment's profile and shift_profile_closed_form read the payload by one rule
    scheme, space = gallery._tempered_weights(8)
    lam = [1.0 / n ** 2 for n in range(1, 21)]
    rep = forward_shift_experiment(space, lam, scheme.ss[5], scheme=scheme)
    marks = [s for s in scheme.ss[1:] if s <= scheme.ss[5]]
    assert rep.data["block_end_values"] == [shift_profile_closed_form(lam, space, s) for s in marks]
    linear = AlphaSpace(range(1, 402))
    top = max(shift_profile_closed_form([1.0], linear, k) for k in range(401))
    assert GALLERY["shift-linear"](False).data["profile_max"] == top


def test_shift_vector_normalizes_by_weight(small_tempered):
    space, _ = small_tempered
    mu = shift_vector(space, [2.0, 0.0, -1.0])
    assert mu.support() == (1, 3)
    assert mu.coefficient(1) == 2.0 / space.alpha(1)
    assert norm_flow(mu).value == pytest.approx(3.0, rel=1e-12)


def test_forward_shift_profile_stays_bounded_on_subsequence(small_tempered):
    space, _ = small_tempered
    sch = BlockScheme.tempered(6)
    lam = [1.0 / (n * n) for n in range(1, 11)]
    horizon = sch.ss[4]
    rep = forward_shift_experiment(space, lam, horizon, scheme=sch)
    assert rep.ok, rep.failures()
    l1 = sum(lam)
    assert all(v <= 2.0 * l1 * (1 + 1e-12) for v in rep.data["block_end_values"])


def test_forward_shift_escapes_on_fast_weights():
    space = AlphaSpace([2.0**n for n in range(1, 21)])
    rep = forward_shift_experiment(space, [1.0], 19, radii=(4.0, 64.0, 1024.0))
    assert rep.ok
    assert rep.data["profile_max"] == 2.0**19


def test_forward_shift_map_walks_the_indices(small_tempered):
    space, _ = small_tempered
    f = forward_shift_map(space)
    assert f.apply(0) == 0
    assert f.apply(1) == 2
    est = lip_constant(f, window=40)
    assert est.value <= 2.0 * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# block cycles


def test_block_cycle_space_weights_restart_each_block():
    space = block_cycle_space(3)
    # blocks [1,3), [3,6), [6,10): weights 2^offset from each block start
    assert [space.alpha(n) for n in range(1, 10)] == [
        1.0, 2.0, 1.0, 2.0, 4.0, 1.0, 2.0, 4.0, 8.0,
    ]


def test_block_cycle_map_wraps_inside_blocks():
    space = block_cycle_space(3)
    f = block_cycle_map(space, 3)
    assert f.apply(1) == 2
    assert f.apply(2) == 1  # end of the 2-block wraps to its start
    assert f.apply(3) == 4
    assert f.apply(5) == 3
    assert f.apply(9) == 6


def test_block_cycle_map_refuses_a_block_count_unlike_the_space():
    for space_blocks, blocks in ((5, 3), (3, 5)):
        with pytest.raises(DomainError, match="blocks need"):
            block_cycle_map(block_cycle_space(space_blocks), blocks)


def test_block_cycle_experiment_pinned_numbers():
    rep = block_cycle_experiment(blocks=10, horizon=1000)
    assert rep.ok, rep.failures()
    assert rep.data["profile_peak"] == pytest.approx(26.827382212144116, rel=1e-13)
    assert rep.data["profile_peak_step"] == 989
    assert rep.data["first_profile_drop"] == 3
    assert rep.data["profile_period_lcm"] == 27720  # lcm(2..11)


def test_block_cycle_minimal_period_is_block_size():
    space = block_cycle_space(4)
    f = block_cycle_map(space, 4)
    # the block start s_n opens a cycle of length n + 1
    sch = BlockScheme.triangular(5)
    for n in range(1, 5):
        m = sch.ss[n]
        y, period = f.apply(m), 1
        while y != m:
            y = f.apply(y)
            period += 1
        assert period == n + 1


def test_iterate_lipschitz_doubles_on_block_cycles():
    space = block_cycle_space(6)
    f = block_cycle_map(space, 6)
    for j in (1, 2, 3):
        est = lip_constant(iterate_map(f, j))
        assert est.value == 2.0**j


# ---------------------------------------------------------------------------
# doubling on the unit interval


def test_dyadic_tail_vector_terms():
    f = doubling_map()
    mu = dyadic_tail_vector(f.space, 4)
    assert mu.support() == (0.0625, 0.125, 0.25, 0.5)
    assert all(c == 1.0 for c in mu.coefficients())


def test_doubling_experiment_exact_closed_form():
    rep = doubling_experiment(n_terms=12, horizon=10)
    assert rep.ok, rep.failures()
    # norm after k steps: k + 1 - 2^(k - N); pinned at the final step
    assert rep.data["final_norm"] == 10.75
    with pytest.raises(DomainError):
        doubling_experiment(n_terms=5, horizon=10)


def test_doubling_map_shape():
    f = doubling_map()
    assert f.eval(0.25) == 0.5
    assert f.eval(0.5) == 1.0
    assert f.eval(0.75) == 1.0
    assert lip_constant(f).value == 2.0


# ---------------------------------------------------------------------------
# backward shift on a converging sequence


def test_backward_shift_space_and_map():
    sp = backward_shift_space(6)
    f = backward_shift_map(sp)
    assert sp.labels[0] == 0.0 and sp.labels[1] == 1.0
    assert f.apply(1) == 0
    assert f.apply(3) == 2
    assert lip_constant(f).value == 2.0


def test_backward_shift_experiment():
    rep = backward_shift_experiment(n_points=10, horizon=32)
    assert rep.ok, rep.failures()
    names = [c.name for c in rep.checks]
    assert "gap-equals-own-distance" in names
    assert "only-basepoint-recurrent" in names
    assert rep.data["lip_witness"] is not None


# ---------------------------------------------------------------------------
# rotations and simultaneous returns


def test_circle_rotation_space_is_isometric_under_rotation():
    sp, f = circle_rotation_space(7)
    assert lip_constant(f).value == 1.0
    g = iterate_map(f, 7)
    assert all(g.apply(p) == p for p in sp.points())


def test_circle_rotation_experiment_passes():
    rep = circle_rotation_experiment(q=7)
    assert rep.ok, rep.failures()
    assert rep.data["lip_values"] == [1.0, 1.0, 1.0]
    assert rep.data["return_errors"] == [0.0, 0.0, 0.0]


def test_kronecker_half_turn_returns_on_evens():
    hits = kronecker_return_times([math.pi], eps=1e-9, bound=50)
    assert hits == [n for n in range(2, 51, 2)]


def test_kronecker_rational_rotation_returns_on_multiples():
    hits = kronecker_return_times([2.0 * math.pi * 3.0 / 7.0], eps=1e-9, bound=100)
    assert hits == [n for n in range(7, 101, 7)]


def test_kronecker_two_angles_need_simultaneous_hits():
    hits = kronecker_return_times([math.pi, 2.0 * math.pi / 3.0], eps=1e-9, bound=50)
    assert hits == [6, 12, 18, 24, 30, 36, 42, 48]


def test_kronecker_validates_inputs():
    with pytest.raises(DomainError):
        kronecker_return_times([], eps=1e-9, bound=10)
    with pytest.raises(DomainError):
        kronecker_return_times([1.0], eps=0.0, bound=10)
    for bound in (True, 10.0):
        with pytest.raises(DomainError, match="bound must be an integer of at least 1"):
            kronecker_return_times([1.0], eps=1e-9, bound=bound)
    for angle in (math.inf, math.nan, 1e308):
        with pytest.raises(DomainError, match="every angle times the bound must be a finite number"):
            kronecker_return_times([1.0, angle], eps=1e-9, bound=10)


def test_kronecker_reads_each_angle_as_a_number():
    # once a bare ValueError from float('x'); a numeric string and a bool were read as angles
    for angle in ("x", "0.5", True):
        with pytest.raises(DomainError, match=f"^angle {angle!r} is not a number"):
            kronecker_return_times([0.1, angle], eps=0.1, bound=3)
    assert kronecker_return_times([2, math.pi], eps=1e-9, bound=3) == []


# ---------------------------------------------------------------------------
# interval suite and the registry


def test_interval_map_suite_members():
    suite = interval_map_suite()
    assert set(suite) == {"identity", "ramp", "fill", "doubling"}
    assert suite["ramp"].right_slope == 1.0


def test_identity_and_fill_shapes():
    assert identity_map().eval(0.4) == 0.4
    assert fill_map().eval(0.5) == 0.75
    assert ramp_map().eval(1.0) == 2.0


def test_gallery_runs_every_family_fast():
    results = gallery_experiments(fast=True)
    assert [k for k, _ in results] == list(GALLERY)
    for key, rep in results:
        assert rep.ok, (key, rep.failures())


def test_an_experiment_report_equals_what_json_reads_back_from_it():
    # a report once kept its checks as a tuple, which JSON reads back as a list
    for _, rep in gallery_experiments(fast=True):
        obj = experiment_to_json(rep)
        assert obj == json.loads(json.dumps(obj))


def test_gallery_select_by_name():
    results = gallery_experiments(fast=True, names=["doubling", "rotation-4"])
    assert [k for k, _ in results] == ["doubling", "rotation-4"]
    with pytest.raises(DomainError):
        gallery_experiments(names=["borel"])


def test_gallery_names_given_as_a_bare_string_are_refused():
    # once iterated letter by letter: "unknown gallery experiments: d, o, u, b, l, i, n, g"
    with pytest.raises(DomainError, match=r"^names must be a list of experiment names$"):
        gallery_experiments(names="doubling")


def test_a_gallery_name_that_is_not_a_string_is_refused_before_any_experiment_runs(monkeypatch):
    # [1] once raised a bare "TypeError: unhashable type: 'list'" from the registry lookup
    monkeypatch.setitem(gallery.GALLERY, "doubling", None)  # an experiment that ran would fail
    with pytest.raises(DomainError, match=r"^unknown gallery experiments: \[1\], 2$"):
        gallery_experiments(names=["doubling", [1], 2])


# ---------------------------------------------------------------------------
# a broken map fails the checks, and each failure names its case


def _block_cycle_wrapping_to(offset):
    """Like ``block_cycle_map``, but block n wraps to s_n + offset."""

    def build(space, blocks):
        ss = BlockScheme.triangular(blocks + 1).ss
        table = [0]
        for n in range(1, blocks + 1):
            table.extend(range(ss[n] + 1, ss[n + 1]))
            table.append(ss[n] + offset)
        return AlphaMap(space=space, table=table)

    return build


def _failed_details(report):
    return {c.name: c.detail for c in report.failures()}


def test_block_cycle_checks_fail_on_a_wrong_wrap(monkeypatch):
    monkeypatch.setattr(gallery, "block_cycle_map", _block_cycle_wrapping_to(1))
    failed = _failed_details(block_cycle_experiment(blocks=6, horizon=60))
    assert set(failed) == {
        "minimal-period-equals-block-size",
        "block-start-return-iff-even-block",
        "profile-matches-wraparound-closed-form",
    }
    # 1 -> 2 -> 2 never returns; block 2 wraps 3 -> 4 -> 5 -> 4
    assert failed["minimal-period-equals-block-size"].startswith("index 1 in block 1:")
    assert failed["block-start-return-iff-even-block"] == "block 2: return after s_n = 3 steps is False"


def test_block_cycle_checks_fail_on_the_identity(monkeypatch):
    monkeypatch.setattr(gallery, "block_cycle_map",
                        lambda space, blocks: AlphaMap(space=space, table=space.points()))
    failed = _failed_details(block_cycle_experiment(blocks=6, horizon=60))
    assert failed["minimal-period-equals-block-size"] == (
        "index 1 in block 1: recurrence gap (0.0, 1), expected an exact return at step 2"
    )
    assert failed["block-start-return-iff-even-block"] == "block 1: return after s_n = 1 steps is True"
    assert failed["iterate-lipschitz-doubles"] == "Lip of iterate 1 is 1.0, expected 2.0"
    assert "profile-matches-wraparound-closed-form" in failed


@pytest.mark.parametrize(
    "table_head, failed",
    [
        # index 2 is sent straight to 0, one step early
        ((0, 0, 0), {"every-orbit-reaches-basepoint": "point index 2 does not first reach 0 at step 2"}),
        # index 1 is fixed: it never reaches 0 and comes back at once
        ((0, 1, 1), {"every-orbit-reaches-basepoint": "point index 1 does not first reach 0 at step 1",
                     "gap-equals-own-distance": "gap at 1.0 is 0.0",
                     "only-basepoint-recurrent": None}),
    ],
)
def test_backward_shift_checks_fail_on_a_broken_table(monkeypatch, table_head, failed):
    def build(space):
        tail = tuple(range(len(table_head) - 1, space.size - 1))
        return FiniteMap(space=space, table=table_head + tail)

    monkeypatch.setattr(gallery, "backward_shift_map", build)
    got = _failed_details(backward_shift_experiment())
    assert set(got) == set(failed)
    for name, detail in failed.items():
        if detail is not None:
            assert got[name] == detail


def test_doubling_checks_fail_on_the_identity(monkeypatch):
    unit = IntervalSpace(0.0, 1.0)
    monkeypatch.setattr(gallery, "doubling_map",
                        lambda: PiecewiseLinearMap(unit, ((0.0, 0.0), (1.0, 1.0))))
    failed = _failed_details(doubling_experiment())
    assert failed["pushforward-parks-mass-at-one"] == "step 1: terms diverge from k*delta(1) + shifted tail"
    assert failed["norm-profile-closed-form"].startswith("step 1: norm ")
    assert failed["transport-route-agrees"].startswith("step 15: transport route ")
