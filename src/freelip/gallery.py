"""Named desk-scale experiments with their analytic expectations as checks.

Every experiment returns an :class:`ExperimentReport` whose checks encode the
closed-form facts the construction is supposed to exhibit; a report with a
failed check is a loud deviation, not a soft warning.  The checks walk orbits
through the library's own ``recurrence_gap``, ``iterate_point`` and
``push_forward``, so it holds no orbit loop of its own.  Its maps are the JSON
loader's rules.  The forward shift's payload rule lives here alone: ``lam[i]``
is the coefficient at point ``i + 1``, divided by ``alpha_{i+1}``, as
``shift_vector``, ``shift_profile_closed_form`` and ``forward_shift_experiment``
all read it.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right

from .dynamics import (
    BOUNDED,
    ESCAPING,
    RECURRENT,
    ClassificationParams,
    classify_orbit,
    orbit_norm_profile,
    recurrence_gap,
    rigidity_check,
)
from .maps import AlphaMap, FiniteMap, PiecewiseLinearMap, compose, iterate_point, lip_constant, map_from_json
from .norms import norm_flow, norm_line
from .spaces import AlphaSpace, DomainError, FiniteSpace, IntervalSpace, _coerce_number, _count, _numbers, _plain, _Record, _rows
from .vectors import FreeVector, make_free_vector, push_forward


class ExperimentCheck(_Record):
    name: str
    ok: bool
    detail: str = ""


class ExperimentReport(_Record):
    name: str
    params: dict
    checks: tuple[ExperimentCheck, ...]
    data: dict

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[ExperimentCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _check(name: str, ok: bool, detail: str = "") -> ExperimentCheck:
    return ExperimentCheck(name=name, ok=bool(ok), detail=detail)


def _check_cases(name: str, failures) -> ExperimentCheck:
    """Pass when ``failures`` yields no message; otherwise fail with the first."""
    detail = next(iter(failures), None)
    return ExperimentCheck(name=name, ok=detail is None, detail=detail or "")


def experiment_to_json(report: ExperimentReport) -> dict:
    return {**_plain(report), "ok": report.ok}


# ---------------------------------------------------------------------------
# block schemes and the two weight sequences built from them


class BlockScheme(_Record):
    """Block lengths k_0, k_1, ... with partial sums s_m = k_0 + ... + k_m.

    The m-th block of indices is (s_m, s_{m+1}], of length k_{m+1}; s_0 = 0.
    """

    ks: tuple[int, ...]

    def __post_init__(self):
        ks = tuple(_count(k, f"block length k_{m}", least=1 if m else 0)
                   for m, k in enumerate(_rows([self.ks], "block lengths must be a list of integers")[0]))
        if not ks or ks[0] != 0:
            raise DomainError("block scheme starts with k_0 = 0")
        object.__setattr__(self, "ks", ks)

    @property
    def ss(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.ks))  # k_0 = 0, so s_0 = 0

    @property
    def blocks(self) -> int:
        return len(self.ks) - 1

    @classmethod
    def triangular(cls, blocks: int) -> "BlockScheme":
        """k_m = m, so s_m = m (m + 1) / 2."""
        return cls(ks=tuple(range(_count(blocks, "blocks") + 1)))

    @classmethod
    def tempered(cls, blocks: int) -> "BlockScheme":
        """Minimal lengths meeting the slow-growth constraints.

        k_m is the least integer with m^(s_{m-1}/k_m) <= 2 (doubling), so
        k_m = ceil(s_{m-1} log2 m) >= 1.  That keeps the per-index growth rate
        m^(1/k_m) nonincreasing in m too: doubling says m^(s_{m-1}) <= 2^(k_m),
        so for m >= 3, (m-1)^(k_m) >= 2^(k_m) >= m^(s_{m-1}) >= m^(k_{m-1}).
        """
        _count(blocks, "blocks")
        ks = [0, 1]
        s = 1
        for m in range(2, blocks + 1):
            ks.append(math.ceil(s * math.log2(m)))
            s += ks[-1]
        return cls(ks=tuple(ks))

    def validate_tempered(self) -> None:
        """Raise naming the first m violating doubling, m^(s_{m-1}/k_m) <= 2, in floats with a
        1e-12 margin.  It implies the rate constraint (m-1)^(1/k_{m-1}) >= m^(1/k_m) for m >= 3:
        (m-1)^(k_m) >= 2^(k_m) >= m^(s_{m-1}) >= m^(k_{m-1})."""
        ss = self.ss
        for m in range(2, len(self.ks)):
            if m ** (ss[m - 1] / self.ks[m]) > 2.0 * (1.0 + 1e-12):
                raise DomainError(f"block scheme violates the doubling constraint at m = {m}")


def _tempered_weights(blocks: int) -> tuple[BlockScheme, AlphaSpace]:
    """The tempered scheme and its sequence space.  The weights fill one zero-filled anonymous
    mapping, 0.0 at the basepoint and then each block computed in place a slice at a time,
    that the space adopts as its own: the build holds about one copy of them, and dropping
    the space unmaps them, where a heap block this size could stay resident after its free."""
    import mmap
    import numpy as np  # a million powers; Python takes seconds
    scheme = BlockScheme.tempered(blocks)
    scheme.validate_tempered()
    ks, ss = scheme.ks, scheme.ss
    weights = memoryview(mmap.mmap(-1, 8 * (ss[-1] + 1))).cast("d")
    view = np.frombuffer(weights, dtype=np.float64)  # writable: an anonymous mapping exports a writable buffer
    for m in range(scheme.blocks):
        k = ks[m + 1]
        for i in range(0, k, 1 << 16):  # no temporary longer than a slice
            j = min(i + (1 << 16), k)
            block = view[ss[m] + 1 + i:ss[m] + 1 + j]
            np.divide(np.arange(i + 1, j + 1, dtype=np.float64), k, out=block)
            np.power(float(m + 1), block, out=block)
    return scheme, AlphaSpace._adopt(weights)


def tempered_alpha_space(blocks: int = 12) -> tuple[AlphaSpace, ExperimentReport]:
    """Weight sequence rising geometrically inside blocks, hitting the value
    m exactly at each block end, with every shifted ratio alpha_{n+s_m}/alpha_n
    at most 2.

    The ratio bound is exact arithmetic-wise; in floating point the
    equality cases (whenever m + 1 is a power of two the minimal block length
    makes some ratio exactly 2) can land one ulp above, so the check allows a
    1e-12 relative margin.
    """
    import numpy as np
    scheme, space = _tempered_weights(blocks)
    ss, n = scheme.ss, space.prefix_length
    ends_ok = all(space.alpha(ss[m]) == float(m) for m in range(1, scheme.blocks + 1))
    alpha = space.alpha_prefix()
    worst = 0.0
    for s in ss[1:]:  # in slices, so that no ratio array is as long as the weights
        for i in range(0, n - s, 1 << 16):
            j = min(i + (1 << 16), n - s)
            worst = max(worst, float(np.max(alpha[s + i:s + j] / alpha[i:j])))
    ratio_ok = worst <= 2.0 * (1.0 + 1e-12)

    report = ExperimentReport(
        name="tempered-alpha",
        params={"blocks": scheme.blocks, "ks": list(scheme.ks)},
        checks=(
            _check("block-end-weights-hit-integers", ends_ok,
                   "alpha at each block end equals the block number exactly"),
            _check("shifted-ratio-at-most-two", ratio_ok, f"max ratio {worst!r}"),
        ),
        data={"ss": list(ss), "prefix_length": n, "max_shifted_ratio": worst},
    )
    return space, report


# ---------------------------------------------------------------------------
# forward shift


def forward_shift_map(space: AlphaSpace) -> AlphaMap:
    """n -> n + 1 on the sequence space (0 stays put)."""
    return map_from_json({"kind": "alpha-rule", "rule": "forward-shift"}, space)


def _shift_payload(space, lam) -> tuple:  # lam read once, as coefficients on the sequence space ``space``
    if not isinstance(space, AlphaSpace):
        raise DomainError("alpha rules need a sequence space")
    return _numbers(lam, "coefficient", "lam must be a list of numbers")


def shift_vector(space: AlphaSpace, lam) -> FreeVector:
    """The vector sum_n lam[n-1] * delta(n) / alpha_n."""
    pairs = []
    for i, c in enumerate(_shift_payload(space, lam)):
        if c != 0:
            n = i + 1
            pairs.append((n, c / space.alpha(n)))
    return make_free_vector(space, pairs)


def shift_profile_closed_form(lam, space, k: int) -> float:
    """Exact norm of the k-th forward-shift push of sum_n lam[n-1] * delta(n)/alpha_n.

    ``lam[i]`` is the coefficient at point ``i + 1``; the value is
    ``sum |lam_n| * alpha_{n+k} / alpha_n``.  Raises past the stored prefix.
    """
    _count(k, "shift count k", least=0)
    return _shifted_norm(_shift_payload(space, lam), space, k)


def _shifted_norm(lam, space, k: int) -> float:
    # lam already read as numbers, so a profile reads it once for all its k
    total = 0.0
    for i, c in enumerate(lam):
        if c == 0:
            continue
        n = i + 1
        total += abs(c) * space.alpha(n + k) / space.alpha(n)
    return total


def forward_shift_experiment(
    space: AlphaSpace,
    lam,
    horizon: int,
    scheme: BlockScheme | None = None,
    radii: tuple[float, ...] | None = None,
    cross_check_steps: int = 50,
) -> ExperimentReport:
    """Profile of the forward shift on a normalized l1 payload.

    With a block scheme the profile is probed at the block ends, where the
    shifted-ratio bound caps it by twice the payload size (the bounded
    subsequence that rules out norm escape).  With a radius ladder instead,
    the experiment looks for escape evidence: every radius crossed.
    """
    _count(horizon, "horizon", least=0)
    _count(cross_check_steps, "cross_check_steps", least=0)
    lam = _shift_payload(space, lam)
    radii = None if radii is None else _numbers(radii, "radius", "radii must be a list of numbers")
    l1 = sum(abs(c) for c in lam)
    profile = [_shifted_norm(lam, space, k) for k in range(horizon + 1)]

    checks = [
        _check("profile-starts-at-payload-size", abs(profile[0] - l1) <= 1e-12 * (1.0 + l1),
               f"profile[0] = {profile[0]!r}, l1 = {l1!r}")
    ]

    steps = min(horizon, cross_check_steps)
    mu = shift_vector(space, lam)
    pushed = orbit_norm_profile(forward_shift_map(space), mu, steps, backend="alpha")
    agree = all(
        abs(a - b) <= 1e-9 * (1.0 + abs(b)) for a, b in zip(pushed, profile[: steps + 1])
    )
    checks.append(_check("pushforward-matches-closed-form", agree,
                         f"first {steps + 1} steps via the transport route"))

    data: dict = {"l1": l1, "profile_max": max(profile), "horizon": horizon}
    if scheme is not None:
        marks = [s for s in scheme.ss[1:] if s <= horizon]
        values = [profile[s] for s in marks]
        bound_ok = bool(values) and min(values) <= 2.0 * l1 * (1.0 + 1e-12)
        checks.append(_check("bounded-subsequence-at-block-ends", bound_ok,
                             f"min over block ends {min(values) if values else None!r} <= 2 * {l1!r}"))
        data["block_end_values"] = values
    if radii is not None:
        crossed = all(any(v >= r for v in profile) for r in radii)
        checks.append(_check("profile-crosses-every-radius", crossed,
                             f"ladder {list(radii)}, profile max {max(profile)!r}"))
        data["radii"] = list(radii)

    return ExperimentReport(
        name="forward-shift",
        params={"horizon": horizon, "support": len(lam), "scheme_blocks": scheme.blocks if scheme else None},
        checks=tuple(checks),
        data=data,
    )


# ---------------------------------------------------------------------------
# block cycles


def block_cycle_space(blocks: int) -> AlphaSpace:
    """Block n is [s_n, s_{n+1}) with s_n = n (n + 1) / 2: n + 1 indices whose
    weights 2^(m - s_n) rise from 2^0 to 2^n, cycled by ``block_cycle_map``
    with period n + 1."""
    alpha = []
    for n in range(1, _count(blocks, "blocks") + 1):
        alpha.extend(2.0 ** j for j in range(n + 1))
    return AlphaSpace(alpha)


def block_cycle_map(space: AlphaSpace, blocks: int) -> AlphaMap:
    """Step forward within each block, wrapping the last index to the start."""
    ss = BlockScheme.triangular(_count(blocks, "blocks") + 1).ss
    table = [0]
    for n in range(1, blocks + 1):
        table.extend(range(ss[n] + 1, ss[n + 1]))
        table.append(ss[n])
    if len(table) != space.prefix_length + 1:
        raise DomainError(f"{blocks} blocks need {len(table) - 1} weights, the space has {space.prefix_length}")
    return map_from_json({"kind": "alpha-rule", "rule": "table", "table": table}, space)


def block_cycle_experiment(blocks: int = 10, horizon: int = 1000) -> ExperimentReport:
    """Every point is periodic with its block size as minimal period, the
    iterate Lipschitz constants double each step, and the truncated payload
    profile follows the per-block wrap-around closed form.

    A return after exactly s_n steps happens on block n iff its size n + 1
    divides s_n = n (n + 1) / 2, i.e. iff n is even; the experiment records
    that parity fact rather than asserting a uniform s_n-return.
    """
    ss = BlockScheme.triangular(blocks + 1).ss
    space = block_cycle_space(blocks)
    f = block_cycle_map(space, blocks)

    def period_failures():
        # a first exact return at step n + 1 is a minimal period of n + 1
        for n in range(1, blocks + 1):
            for m in range(ss[n], ss[n + 1]):
                gap = recurrence_gap(f, m, n + 1)
                if gap != (0.0, n + 1):
                    yield (f"index {m} in block {n}: recurrence gap {gap}, "
                           f"expected an exact return at step {n + 1}")

    def parity_failures():
        for n in range(1, blocks + 1):
            returned = iterate_point(f, ss[n], ss[n]) == ss[n]
            if returned != (n % 2 == 0):
                yield f"block {n}: return after s_n = {ss[n]} steps is {returned}"

    lip_blocks, lip_max = 21, 20  # Lip(f^j) = 2^j is checked for j <= lip_max on its own space
    lip_map = block_cycle_map(block_cycle_space(lip_blocks), lip_blocks)

    def lip_failures():  # f^j as f^(j-1) o f, one composite a step
        for j, power in enumerate(itertools.accumulate(itertools.repeat(lip_map, lip_max), compose), start=1):
            got = lip_constant(power).value
            if got != 2.0 ** j:
                yield f"Lip of iterate {j} is {got!r}, expected {2.0 ** j!r}"

    coef = {n: 1.0 / n ** 2 for n in range(1, blocks + 1)}
    mu = make_free_vector(space, [(ss[n], coef[n]) for n in range(1, blocks + 1)])
    profile = orbit_norm_profile(f, mu, horizon, backend="alpha")
    closed = [
        sum(coef[n] * 2.0 ** (k % (n + 1)) for n in range(1, blocks + 1))
        for k in range(horizon + 1)
    ]
    profile_ok = all(abs(a - b) <= 1e-12 * (1.0 + abs(b)) for a, b in zip(profile, closed))
    peak = max(profile)
    first_drop = next((k for k in range(len(profile) - 1) if profile[k + 1] < profile[k]), None)

    return ExperimentReport(
        name="block-cycle",
        params={"blocks": blocks, "horizon": horizon, "lip_blocks": lip_blocks, "lip_max": lip_max},
        checks=(
            _check_cases("minimal-period-equals-block-size", period_failures()),
            _check_cases("block-start-return-iff-even-block", parity_failures()),
            _check_cases("iterate-lipschitz-doubles", lip_failures()),
            _check("profile-matches-wraparound-closed-form", profile_ok,
                   f"horizon {horizon}, peak {peak!r}"),
        ),
        data={
            "profile_peak": peak,
            "profile_peak_step": int(profile.index(peak)),
            "first_profile_drop": first_drop,
            "profile_period_lcm": int(math.lcm(*range(2, blocks + 2))),
            "profile_head": profile[: min(65, len(profile))],
        },
    )


# ---------------------------------------------------------------------------
# doubling on the unit interval


def doubling_map() -> PiecewiseLinearMap:
    """x -> min(2x, 1) on [0, 1]."""
    return PiecewiseLinearMap(IntervalSpace(0.0, 1.0), ((0.0, 0.0), (0.5, 1.0), (1.0, 1.0)))


def dyadic_tail_vector(space: IntervalSpace, n_terms: int) -> FreeVector:
    """Unit masses at 1/2, 1/4, ..., 2^-N."""
    _count(n_terms, "n_terms", least=0)
    return make_free_vector(space, [(2.0 ** -n, 1.0) for n in range(1, n_terms + 1)])


def doubling_experiment(n_terms: int = 40, horizon: int = 30) -> ExperimentReport:
    """Pushing the dyadic tail forward parks one unit of mass at 1 per step
    and shifts the rest, so step k is exactly k*delta(1) + (tail of N - k
    terms) with norm k + 1 - 2^(k-N); the space is bounded so no orbit
    escapes."""
    if _count(horizon, "horizon", least=0) > n_terms:
        raise DomainError("horizon beyond the truncation has no closed form")
    f = doubling_map()
    space = f.space
    mu = dyadic_tail_vector(space, n_terms)

    steps = [mu]  # steps[k] is the k-th image of mu, one push per step
    for _ in range(horizon):
        steps.append(push_forward(f, steps[-1]))

    def structural_failures():
        for k, got in enumerate(steps):
            want = make_free_vector(
                space, [(1.0, float(k))] + [(2.0 ** -n, 1.0) for n in range(1, n_terms - k + 1)]
            )
            if got.terms != want.terms:
                yield f"step {k}: terms diverge from k*delta(1) + shifted tail"

    closed = [k + 1.0 - 2.0 ** (k - n_terms) for k in range(horizon + 1)]

    def norm_failures():
        for k, got in enumerate(steps):
            value = norm_line(got)
            if abs(value - closed[k]) > 1e-12 * (1.0 + closed[k]):
                yield f"step {k}: norm {value!r} vs closed form {closed[k]!r}"

    def flow_failures():
        for k in (0, horizon // 2, horizon):
            value = norm_flow(steps[k]).value
            if abs(value - closed[k]) > 1e-9 * (1.0 + closed[k]):
                yield f"step {k}: transport route {value!r} vs {closed[k]!r}"

    params = ClassificationParams(horizon=200)
    verdicts = {x: classify_orbit(f, x, params).verdict for x in (0.25, 0.5, 1.0)}
    no_escape = all(v != ESCAPING for v in verdicts.values())
    bounded_sample = verdicts[0.25] == BOUNDED

    return ExperimentReport(
        name="doubling",
        params={"n_terms": n_terms, "horizon": horizon},
        checks=(
            _check_cases("pushforward-parks-mass-at-one", structural_failures()),
            _check_cases("norm-profile-closed-form", norm_failures()),
            _check_cases("transport-route-agrees", flow_failures()),
            _check("no-escape-on-bounded-interval", no_escape, f"verdicts {verdicts}"),
            _check("interior-orbit-bounded", bounded_sample, f"x = 0.25 -> {verdicts[0.25]}"),
        ),
        data={"final_norm": closed[horizon]},
    )


# ---------------------------------------------------------------------------
# backward shift on a geometric point set


def backward_shift_space(n_points: int = 12) -> FiniteSpace:
    """{0} together with 1, 1/2, ..., 2^-(N-1) under the line metric."""
    _count(n_points, "n_points", least=2)
    values = [0.0] + [2.0 ** -n for n in range(n_points)]
    matrix = tuple(tuple(abs(a - b) for b in values) for a in values)
    return FiniteSpace(matrix=matrix, basepoint=0, labels=tuple(values))


def backward_shift_map(space: FiniteSpace) -> FiniteMap:
    """2^-n -> 2^-(n-1), with 1 (and 0) sent to 0."""
    n = space.size
    table = (0, 0) + tuple(range(1, n - 1))
    return FiniteMap(space=space, table=table)


def backward_shift_experiment(n_points: int = 12, horizon: int = 64) -> ExperimentReport:
    """Doubling the value each step: Lipschitz constant exactly 2, every
    orbit lands on the basepoint, and no nonzero point ever comes back near
    itself (its gap equals its own value)."""
    space = backward_shift_space(n_points)
    f = backward_shift_map(space)

    lip = lip_constant(f)
    lip_ok = lip.value == 2.0

    def reach_failures():
        # 0 is fixed, so a nonzero (i-1)-th image and a zero i-th image mean
        # the orbit of index i first reaches 0 at step i
        for i in range(1, space.size):
            if iterate_point(f, i, i - 1) == 0 or iterate_point(f, i, i) != 0:
                yield f"point index {i} does not first reach 0 at step {i}"

    def gap_failures():
        for i in range(1, space.size):
            value = space.labels[i]
            gap, _ = recurrence_gap(f, i, horizon)
            if gap != value:
                yield f"gap at {value!r} is {gap!r}"

    params = ClassificationParams(horizon=horizon)
    sample = {i: classify_orbit(f, i, params).verdict for i in (0, 1, space.size - 1)}
    verdict_ok = sample[0] == RECURRENT and all(
        v == BOUNDED for i, v in sample.items() if i != 0
    )

    return ExperimentReport(
        name="backward-shift",
        params={"n_points": n_points, "horizon": horizon},
        checks=(
            _check("lipschitz-constant-is-two", lip_ok, f"got {lip.value!r} at pair {lip.witness}"),
            _check_cases("every-orbit-reaches-basepoint", reach_failures()),
            _check_cases("gap-equals-own-distance", gap_failures()),
            _check("only-basepoint-recurrent", verdict_ok, f"verdicts {sample}"),
        ),
        data={"lip_witness": list(lip.witness) if lip.witness else None},
    )


# ---------------------------------------------------------------------------
# circle rotations and simultaneous return times


def kronecker_return_times(angles, eps: float, bound: int) -> list[int]:
    """All n <= bound with max_p |exp(i n angle_p) - 1| < eps, by brute force.

    |exp(i t) - 1| = 2 |sin(t / 2)|; an empty result is a legitimate outcome.
    """
    if not _coerce_number(eps, integral=False, what="tolerance") > 0:
        raise DomainError("tolerance must be positive")
    _count(bound, "bound")
    halves = [(float(a) if isinstance(a, float) else _coerce_number(a, integral=False, what="angle")) / 2.0
              for a in _rows([angles], "angles must be a list of numbers")[0]]
    if not halves:
        raise DomainError("need at least one angle")
    if not all(math.isfinite(h * bound) for h in halves):
        raise DomainError("every angle times the bound must be a finite number")
    return [n for n in range(1, bound + 1) if all(2.0 * abs(math.sin(n * h)) < eps for h in halves)]


def circle_rotation_space(q: int) -> tuple[FiniteSpace, FiniteMap]:
    """q-th roots of unity under chord distance, plus a hub at distance 1
    from every root; the map rotates by one step and fixes the hub.

    Chord lengths are precomputed per residue, so rotation preserves each
    distance exactly and every iterate has Lipschitz constant exactly 1.
    """
    _count(q, "q", least=2)
    chord = [2.0 * abs(math.sin(math.pi * r / q)) for r in range(q // 2 + 1)]
    size = q + 1

    def dist(i: int, j: int) -> float:
        if i == j:
            return 0.0
        if i == 0 or j == 0:
            return 1.0
        m = (i - j) % q
        return chord[min(m, q - m)]

    matrix = tuple(tuple(dist(i, j) for j in range(size)) for i in range(size))
    labels = ("hub",) + tuple(range(q))
    space = FiniteSpace(matrix=matrix, basepoint=0, labels=labels)
    # root r lives at space index r + 1; the last root wraps around to the first
    table = (0,) + tuple(i + 2 if i < q - 1 else 1 for i in range(q))
    rotation = FiniteMap(space=space, table=table)
    return space, rotation


def circle_rotation_experiment(q: int = 7, times: tuple[int, ...] | None = None) -> ExperimentReport:
    """Rotations are isometries: unit Lipschitz constant at every power, a
    global return to the identity every q steps, and a passing rigidity
    certificate with zero return errors at multiples of q."""
    space, f = circle_rotation_space(q)
    times = times or (q, 2 * q, 3 * q)

    powers = list(itertools.accumulate(itertools.repeat(f, q), compose))  # f^j as f^(j-1) o f, for j <= q
    lip_ok = all(lip_constant(g).value == 1.0 for g in powers)

    identity_ok = powers[-1].table == tuple(space.points())

    cert = rigidity_check(f, list(range(space.size)), times, bound=1.0)
    rigid_ok = cert.passed and all(e == 0.0 for e in cert.return_errors)

    gap, gap_time = recurrence_gap(f, 1, 2 * q)
    gap_ok = gap == 0.0 and gap_time == q

    return ExperimentReport(
        name="circle-rotation",
        params={"q": q, "times": list(times)},
        checks=(
            _check("all-iterates-are-isometries", lip_ok),
            _check("q-th-iterate-is-identity", identity_ok),
            _check("rigidity-certificate-passes", rigid_ok, cert.reason),
            _check("gap-closes-at-q", gap_ok, f"gap {gap!r} at {gap_time}"),
        ),
        data={"lip_values": list(cert.lip_values), "return_errors": list(cert.return_errors)},
    )


# ---------------------------------------------------------------------------
# the interval map suite: four piecewise-linear maps of the half-line and [0, 1]


def identity_map(space: IntervalSpace | None = None) -> PiecewiseLinearMap:
    space = space or IntervalSpace(0.0, math.inf)
    return PiecewiseLinearMap(space, ((0.0, 0.0),), right_slope=1.0)


def ramp_map() -> PiecewiseLinearMap:
    """Doubles on [0, 1], then advances by one unit per step: an escape to
    infinity with d(0, f^n(1)) = n + 1."""
    return PiecewiseLinearMap(IntervalSpace(0.0, math.inf), ((0.0, 0.0), (1.0, 2.0)), right_slope=1.0)


def fill_map() -> PiecewiseLinearMap:
    """Strictly above the diagonal on (0, 1) but mapping it into itself."""
    return PiecewiseLinearMap(IntervalSpace(0.0, 1.0), ((0.0, 0.0), (0.5, 0.75), (1.0, 1.0)))


def interval_map_suite() -> dict[str, PiecewiseLinearMap]:
    return {
        "identity": identity_map(),
        "ramp": ramp_map(),
        "fill": fill_map(),
        "doubling": doubling_map(),
    }


# ---------------------------------------------------------------------------
# one-call gallery run


def _shift_tempered_report(fast: bool) -> ExperimentReport:
    scheme = BlockScheme.tempered(8 if fast else 12)
    lam = [1.0 / n ** 2 for n in range(1, 21)]
    horizon = scheme.ss[5 if fast else 8]
    # the profile reads alpha up to horizon + len(lam), so only the blocks up to there are built
    _, space = _tempered_weights(bisect_right(scheme.ss, horizon + len(lam)))
    return forward_shift_experiment(space, lam, horizon, scheme=scheme)


def _shift_linear_report(fast: bool) -> ExperimentReport:
    linear = AlphaSpace(range(1, 402))
    return forward_shift_experiment(
        linear, [1.0], 400, radii=tuple(2.0 ** j for j in range(1, 9)), cross_check_steps=30
    )


GALLERY: dict = {
    "tempered-alpha": lambda fast: tempered_alpha_space(8 if fast else 12)[1],
    "shift-tempered": _shift_tempered_report,
    "shift-linear": _shift_linear_report,
    "block-cycle": lambda fast: block_cycle_experiment(blocks=10, horizon=120 if fast else 1000),
    "doubling": lambda fast: doubling_experiment(),
    "backward-shift": lambda fast: backward_shift_experiment(),
    "rotation-7": lambda fast: circle_rotation_experiment(q=7),
    "rotation-4": lambda fast: circle_rotation_experiment(q=4, times=(4, 8, 12)),
}


def gallery_experiments(fast: bool = False, names=None) -> list[tuple[str, ExperimentReport]]:
    """Run the named experiments (all by default) at desk scale.

    Returns (registry key, report) pairs, in the order of ``names`` if given;
    unknown names, or a bare string in place of a list, raise before anything runs.
    """
    keys = list(GALLERY) if names is None else _rows([names], "names must be a list of experiment names")[0]
    bad = [k for k in keys if not isinstance(k, str) or k not in GALLERY]
    if bad:
        raise DomainError(f"unknown gallery experiments: {', '.join(map(str, bad))}")
    return [(k, GALLERY[k](fast)) for k in keys]
