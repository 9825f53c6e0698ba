"""Orbit analysis: recurrence gaps, evidence classification, rigidity
certificates, and escape certificates for piecewise-linear interval maps.

Verdicts produced here are *evidence*, never proofs: each one is read off a
finite orbit segment under the documented decision rule, and conflicting
signals fall back to "Undecided" instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .maps import PiecewiseLinearMap, iterate_map, lip_constant
from .norms import free_norm
from .spaces import DomainError, IntervalSpace, _coerce_number
from .vectors import FreeVector, Functional, make_free_vector, point_to_json, push_forward, vector_to_json

BOUNDED = "Bounded"
RECURRENT = "RecurrentEvidence"
ESCAPING = "EscapingEvidence"
UNDECIDED = "Undecided"
VERDICTS = (BOUNDED, RECURRENT, ESCAPING, UNDECIDED)

DEFAULT_HORIZON = 10_000
EPS_EXACT = 1e-9          # recurrence tolerance on exact presentations
EPS_FLOAT_ORBIT = 1e-6    # looser tolerance for floating interval orbits
LADDER_SIZE = 20
PROFILE_TAIL = 32         # distances kept at the end of a classification report


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassificationParams:
    """Knobs for :func:`classify_orbit`.

    ``radii`` overrides the default ladder ``2**j * d(0, x)`` for
    ``j = 1..ladder_size``; ``eps_recurrent`` defaults per space kind.
    A verdict of Bounded additionally requires that no new distance maximum
    appears in the final ``tail_fraction`` of the computed orbit.
    """

    horizon: int = DEFAULT_HORIZON
    eps_recurrent: float | None = None
    radii: tuple[float, ...] | None = None
    ladder_size: int = LADDER_SIZE
    tail_fraction: float = 0.5

    def __post_init__(self):
        if type(self.horizon) is not int or self.horizon < 1:  # bool is an int subclass
            raise DomainError("horizon must be an integer of at least 1")
        eps = self.eps_recurrent
        if eps is not None and not _coerce_number(eps, integral=False, what="recurrence tolerance") > 0:
            raise DomainError("recurrence tolerance must be positive")
        if self.radii is not None:
            rr = tuple(_coerce_number(r, integral=False, what="radius") for r in self.radii)
            if not rr or any(r <= 0 for r in rr) or any(a >= b for a, b in zip(rr, rr[1:])):
                raise DomainError("radii must be positive and strictly increasing")
            object.__setattr__(self, "radii", rr)
        if type(self.ladder_size) is not int or self.ladder_size < 1:
            raise DomainError("ladder_size must be an integer of at least 1")
        if not 0.0 < self.tail_fraction < 1.0:
            raise DomainError("tail_fraction must lie strictly between 0 and 1")

    def resolve_eps(self, space) -> float:
        if self.eps_recurrent is not None:
            return self.eps_recurrent
        return EPS_FLOAT_ORBIT if isinstance(space, IntervalSpace) else EPS_EXACT

    def resolve_radii(self, space, x) -> tuple[float, ...]:
        if self.radii is not None:
            return self.radii
        base = space.distance(space.basepoint, x)
        if base <= 0.0:
            base = 1.0
        return tuple(base * 2.0 ** j for j in range(1, self.ladder_size + 1))


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str
    point: object
    power: int
    horizon: int
    steps: int                     # orbit steps actually computed
    gap: float                     # best recurrence gap seen
    gap_time: int                  # step attaining it (0 if none computed)
    eps_recurrent: float
    radii: tuple[float, ...]
    crossing_times: tuple[int | None, ...]
    max_distance: float
    max_distance_time: int
    distances: tuple[float, ...]   # d(0, f^n(x)) for n = 0..steps
    tail_fraction: float
    note: str = ""


def _walk(f, x, steps: int, power: int = 1):
    """The orbit x, f^power(x), ... for at most ``steps`` steps of f^power, and
    the DomainError that cut it short, or None.  It stops after an exact return
    (y == x, which is d(x, y) == 0 on canonical points)."""
    apply, reps = f.apply, range(power)
    orbit = [x]
    y = x
    for _ in range(steps):
        try:
            for _ in reps:
                y = apply(y)
        except DomainError as exc:
            return orbit, exc
        orbit.append(y)
        if y == x:
            break
    return orbit, None


def recurrence_gap(f, x, horizon: int) -> tuple[float, int]:
    """Minimum of d(x, f^n(x)) over 1 <= n <= horizon, with the first n attaining it.

    Stops early on an exact return (the minimum cannot improve on zero).
    Iteration errors propagate to the caller.
    """
    if type(horizon) is not int or horizon < 1:  # bool is an int subclass
        raise DomainError("horizon must be an integer of at least 1")
    space = f.space
    x = space.check_point(x)
    orbit, error = _walk(f, x, horizon)
    if error is not None:
        raise error
    gaps = space.distances(x, orbit[1:])
    best = min(gaps)
    return float(best), gaps.index(best) + 1


def classify_orbit(f, x, params: ClassificationParams | None = None, *, power: int = 1) -> ClassificationReport:
    """Desk-scale verdict for the orbit of ``x`` under ``f`` (or ``f^power``).

    Decision rule, applied to the computed orbit segment:

    1. recurrence signal: best gap d(x, f^n(x)) <= eps_recurrent;
    2. escape signal: d(0, f^n(x)) reaches every ladder radius and never
       drops below the first radius after the last crossing; the crossing
       time of a radius r_j is the first n with d(0, f^n(x)) >= r_j;
    3. both signals -> Undecided (conflict is reported, not resolved);
    4. exactly one signal -> that verdict;
    5. neither: Bounded when the full horizon was computed and the distance
       maximum was already attained before the final tail window, otherwise
       Undecided.

    With ``power = k`` the orbit of ``f^k`` is followed for ``horizon // k``
    steps, so the total application budget matches the ``power = 1`` run;
    a power above the horizon would get no step and is refused.
    """
    params = params or ClassificationParams()
    if type(power) is not int:  # bool is an int subclass
        raise DomainError(f"power {power!r} must be an integer")
    if not 1 <= power <= params.horizon:
        raise DomainError(f"power {power} must lie between 1 and the horizon {params.horizon}")
    space = f.space
    x = space.check_point(x)
    eps = params.resolve_eps(space)
    radii = params.resolve_radii(space, x)
    steps_wanted = params.horizon // power

    orbit, error = _walk(f, x, steps_wanted, power)
    note = ""
    if error is not None:
        note = f"orbit left the computable presentation at step {len(orbit)}: {error}"
    elif len(orbit) <= steps_wanted:
        note = f"exact return at step {len(orbit) - 1}; the orbit is periodic, iteration stopped early"
    dists = space.distances(space.basepoint, orbit)
    gaps = space.distances(x, orbit[1:])
    gap = min(gaps, default=math.inf)
    gap_time = gaps.index(gap) + 1 if gaps else 0

    # radii increase strictly, so the crossing times do not decrease: one
    # pass with a pointer to the next radius to cross finds them all
    crossing: list[int | None] = [None] * len(radii)
    j, k = 0, len(radii)
    for n, dv in enumerate(dists):
        while j < k and dv >= radii[j]:
            crossing[j] = n
            j += 1
        if j == k:
            break
    max_distance = max(dists)
    max_time = dists.index(max_distance)

    recurrent_signal = gap <= eps
    escape_signal = all(t is not None for t in crossing)
    if escape_signal:
        t_all = max(crossing)  # last radius is crossed last (radii increase)
        escape_signal = min(dists[t_all:]) >= radii[0]

    full_run = len(dists) == steps_wanted + 1  # a cut-short orbit is shorter
    cut = max(1, int(len(dists) * (1.0 - params.tail_fraction)))
    bounded_signal = full_run and max_time < cut

    if recurrent_signal and escape_signal:
        verdict = UNDECIDED
        note = (note + "; " if note else "") + "recurrence and escape signals both fired"
    elif recurrent_signal:
        verdict = RECURRENT
    elif escape_signal:
        verdict = ESCAPING
    elif bounded_signal:
        verdict = BOUNDED
    else:
        verdict = UNDECIDED

    return ClassificationReport(
        verdict=verdict,
        point=x,
        power=power,
        horizon=params.horizon,
        steps=len(dists) - 1,
        gap=float(gap),
        gap_time=gap_time,
        eps_recurrent=eps,
        radii=radii,
        crossing_times=tuple(crossing),
        max_distance=float(max_distance),
        max_distance_time=max_time,
        distances=tuple(dists),
        tail_fraction=params.tail_fraction,
        note=note,
    )


def orbit_norm_profile(f, mu: FreeVector, horizon: int, backend: str = "auto") -> list[float]:
    """Norms of the pushed-forward vector at steps 0..horizon."""
    if type(horizon) is not int or horizon < 0:  # bool is an int subclass
        raise DomainError("horizon must be a nonnegative integer")
    values = [free_norm(mu, backend=backend)]
    cur = mu
    for _ in range(horizon):
        cur = push_forward(f, cur)
        values.append(free_norm(cur, backend=backend))
    return values


def shift_profile_closed_form(lam, space, k: int) -> float:
    """Exact norm of the k-th forward-shift push of sum_n lam[n-1] * delta(n)/alpha_n.

    ``lam[i]`` is the coefficient at point ``i + 1``; the value is
    ``sum |lam_n| * alpha_{n+k} / alpha_n``.  Raises past the stored prefix.
    """
    if k < 0:
        raise DomainError("shift count must be nonnegative")
    total = 0.0
    for i, c in enumerate(lam):
        if c == 0:
            continue
        n = i + 1
        total += abs(c) * space.alpha(n + k) / space.alpha(n)
    return total


# ---------------------------------------------------------------------------
# rigidity


@dataclass(frozen=True)
class RigidityCertificate:
    """Outcome of a uniform-Lipschitz / simultaneous-return check.

    ``lip_values[k]`` is the computed constant of the ``times[k]``-th iterate
    and ``return_errors[k]`` the worst distance d(f^{n_k}(x), x) over the
    sample; ``reason`` names the first violated condition when not passed.
    """

    times: tuple[int, ...]
    bound: float
    lip_values: tuple[float, ...]
    return_errors: tuple[float, ...]
    tolerances: tuple[float, ...]
    passed: bool
    reason: str = ""


def rigidity_check(f, sample, times, bound: float, tolerances=None) -> RigidityCertificate:
    """Check Lip(f^{n_k}) <= bound and max_x d(f^{n_k}(x), x) <= tol_k.

    ``tolerances`` may be a single number (broadcast) or one per time; the
    default is 1e-9 everywhere.  The certificate always carries the computed
    values, so a failed check still documents how it failed.
    """
    times = tuple(_coerce_number(n, integral=True, what="time") for n in times)
    if not times or any(n < 1 for n in times) or any(a >= b for a, b in zip(times, times[1:])):
        raise DomainError("times must be strictly increasing and at least 1")
    if not (math.isfinite(bound) and bound > 0):
        raise DomainError("the uniform bound must be finite and positive")
    sample = [f.space.check_point(p) for p in sample]
    if not sample:
        raise DomainError("empty sample")
    if tolerances is None:
        tolerances = 1e-9
    if isinstance(tolerances, (int, float)):
        tolerances = (tolerances,) * len(times)
    # a float goes on to the check below, which names a NaN or an infinity
    tols = tuple(float(t) if isinstance(t, float) else _coerce_number(t, integral=False, what="tolerance")
                 for t in tolerances)
    if len(tols) != len(times):
        raise DomainError("need one tolerance per time")
    if not all(math.isfinite(t) and t >= 0 for t in tols):
        raise DomainError(f"return tolerances must be finite and nonnegative, got {tols}")

    space = f.space
    lips: list[float] = []
    errs: list[float] = []
    passed = True
    reason = ""
    for n, tol in zip(times, tols):
        g = iterate_map(f, n)
        lip = lip_constant(g).value
        err = max(space.distance(g.apply(p), p) for p in sample)
        lips.append(lip)
        errs.append(err)
        if passed and lip > bound * (1.0 + 1e-12):
            passed = False
            reason = f"lipschitz-bound: Lip of iterate {n} is {lip}, above {bound}"
        if passed and err > tol:
            passed = False
            reason = f"return-error: worst return distance {err} at time {n} exceeds {tol}"
    return RigidityCertificate(
        times=times,
        bound=float(bound),
        lip_values=tuple(lips),
        return_errors=tuple(errs),
        tolerances=tols,
        passed=passed,
        reason=reason,
    )


def escape_test_functional(space, m: int, radius: float) -> Functional:
    """The 1-Lipschitz window functional min(max(d(x,0) - m*R, 0), R).

    Vanishes on the ball of radius m*R and saturates at R beyond (m+1)*R, so
    a unit of mass escaping past the window pairs to the full R.
    """
    if m < 1:
        raise DomainError("window index m must be at least 1")
    if not radius > 0:
        raise DomainError("window radius must be positive")
    base = space.basepoint

    def fn(x):
        return min(max(space.distance(base, x) - m * radius, 0.0), radius)

    return Functional(space=space, fn=fn, lip_bound=1.0, name=f"escape-window-{m}x{radius:g}")


# ---------------------------------------------------------------------------
# interval case analysis


CASE_NO_DRIFT = "1"          # f(x) <= x everywhere right of 0: all orbits bounded
CASE_UNBOUNDED_DRIFT = "2"   # drift region reaches infinity: direct escape
CASE_TRAPPED_DRIFT_IN = "3.1"   # bounded drift component mapped into itself
CASE_TRAPPED_DRIFT_OVER = "3.2"  # bounded drift component with overshoot

_CASE_SEVERITY = {CASE_NO_DRIFT: 0, CASE_TRAPPED_DRIFT_IN: 1, CASE_TRAPPED_DRIFT_OVER: 2, CASE_UNBOUNDED_DRIFT: 3}


@dataclass(frozen=True)
class SideAnalysis:
    """Sign analysis of f(x) - x on one side of the basepoint.

    All coordinates are on the original axis (the negative side is analyzed
    through the reflection x -> -x and mapped back).  ``components`` are the
    maximal open intervals where the orbit drifts away from 0; ``sequence``
    and ``vector`` realize the escape certificate for the analyzed component.
    """

    side: str
    case: str
    components: tuple[tuple[float, float], ...]
    certificate: float | None = None
    component: tuple[float, float] | None = None
    sequence: tuple[float, ...] = ()
    vector: FreeVector | None = None
    tail_bound: float | None = None
    note: str = ""


@dataclass(frozen=True)
class IntervalAnalysis:
    case: str
    sides: tuple[SideAnalysis, ...]
    depth: int

    def side(self, name: str) -> SideAnalysis:
        for s in self.sides:
            if s.side == name:
                return s
        raise DomainError(f"no side named {name!r}")


def _drift_components(f: PiecewiseLinearMap) -> list[tuple[float, float]]:
    """Maximal open intervals of {x > 0 : f(x) > x}, exact on linear pieces."""
    b_end = f.space.b
    cuts = {0.0}
    for plo, phi, yanchor, s in f.pieces():
        anchor = plo if math.isfinite(plo) else phi
        for k in (plo, phi):
            if math.isfinite(k) and k > 0.0:
                cuts.add(k)
        if s != 1.0:
            # root of f(x) = x on this piece, from the anchored point-slope form
            r = (yanchor - s * anchor) / (1.0 - s)
            if plo <= r <= phi and r > 0.0:
                cuts.add(r)
    if math.isfinite(b_end):
        cuts.add(b_end)
    grid = sorted(cuts)

    cells: list[tuple[float, float]] = list(zip(grid, grid[1:]))
    if not math.isfinite(b_end):
        cells.append((grid[-1], math.inf))

    def drifts_at(t: float) -> bool:
        return f.eval(t) - t > 0.0

    components: list[tuple[float, float]] = []
    for lo, hi in cells:
        mid = lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)
        if not drifts_at(mid):
            continue
        if components and components[-1][1] == lo and drifts_at(lo):
            components[-1] = (components[-1][0], hi)  # the shared cut was not a true zero
        else:
            components.append((lo, hi))
    return components


def _analyze_positive_side(f: PiecewiseLinearMap, depth: int, side: str) -> SideAnalysis:
    components = tuple(_drift_components(f))
    if not components:
        return SideAnalysis(side=side, case=CASE_NO_DRIFT, components=())

    for lo, hi in components:
        if math.isinf(hi):
            return SideAnalysis(
                side=side,
                case=CASE_UNBOUNDED_DRIFT,
                components=components,
                certificate=lo + 1.0,
                component=(lo, hi),
                note="every orbit started inside the unbounded drift region escapes",
            )

    b, c = components[0]
    # Overshoot test: f leaves (b, c) iff some knot strictly inside reaches c.
    # Linear pieces attain their maxima at knots, and on the edge pieces the
    # values stay strictly between the knot value and the fixed endpoint, so
    # checking interior knots is exhaustive.
    inner = [x for x in f.xs if b < x < c]
    overshoot = any(f.eval(k) >= c for k in inner)
    pairs: list[tuple[float, float]] = []
    if not overshoot:
        seq = tuple(b + (c - b) * 0.5 ** n for n in range(1, depth + 1))
        case = CASE_TRAPPED_DRIFT_IN
        tail = (c - b) * 0.5 ** depth
        note = "the drift component maps into itself; geometric points toward its left end"
    else:
        seq_list: list[float] = []
        target = c
        upper = c
        for _ in range(depth):
            x = f.smallest_preimage(target, b, upper)
            if not b < x < upper:
                break
            seq_list.append(x)
            target, upper = x, x
        seq = tuple(seq_list)
        case = CASE_TRAPPED_DRIFT_OVER
        tail = None
        note = "overshoot: backward orbit of the right endpoint, smallest preimages"
    for x in seq:
        pairs.append((x, 1.0))
        pairs.append((b, -1.0))
    vec = make_free_vector(f.space, pairs)
    return SideAnalysis(
        side=side,
        case=case,
        components=components,
        component=(b, c),
        sequence=seq,
        vector=vec,
        tail_bound=tail,
        note=note,
    )


def _reflect_pl(f: PiecewiseLinearMap) -> PiecewiseLinearMap:
    space = f.space
    mirrored = IntervalSpace(a=-space.b, b=-space.a)
    bps = tuple((-x, -y) for x, y in reversed(tuple(zip(f.xs, f.ys))))
    kwargs = {}
    if not math.isfinite(mirrored.a):
        kwargs["left_slope"] = f.right_slope
    if not math.isfinite(mirrored.b):
        kwargs["right_slope"] = f.left_slope
    return PiecewiseLinearMap(mirrored, bps, **kwargs)


def _reflect_side(res: SideAnalysis, original_space) -> SideAnalysis:
    flip = lambda iv: (0.0 - iv[1], 0.0 - iv[0])  # -x would turn an end at 0 into -0.0
    vec = None
    if res.vector is not None:
        # reflection is an isometry fixing 0, so negating every support point
        # carries the certificate vector over with the same norm
        vec = make_free_vector(original_space, [(-p, cf) for p, cf in res.vector.terms])
    return SideAnalysis(
        side="negative",
        case=res.case,
        components=tuple(sorted(flip(iv) for iv in res.components)),
        certificate=None if res.certificate is None else -res.certificate,
        component=None if res.component is None else flip(res.component),
        sequence=tuple(-x for x in res.sequence),
        vector=vec,
        tail_bound=res.tail_bound,
        note=res.note,
    )


def interval_analyze(f, depth: int = 40) -> IntervalAnalysis:
    """Exact sign analysis of f(x) - x with escape certificates.

    The positive side studies where f pushes points away from 0 toward larger
    values; when the interval extends below 0 the mirrored analysis runs on
    the reflected map.  ``depth`` bounds the certificate sequence length.
    """
    if not isinstance(f, PiecewiseLinearMap):
        raise DomainError("interval analysis needs a piecewise-linear interval map")
    if type(depth) is not int or depth < 1:  # bool is an int subclass
        raise DomainError("depth must be an integer of at least 1")
    sides = [_analyze_positive_side(f, depth, "positive")]
    if f.space.a < 0:
        mirrored = _analyze_positive_side(_reflect_pl(f), depth, "negative")
        sides.append(_reflect_side(mirrored, f.space))
    headline = max((s.case for s in sides), key=_CASE_SEVERITY.__getitem__)
    return IntervalAnalysis(case=headline, sides=tuple(sides), depth=depth)


# ---------------------------------------------------------------------------
# powers share escape behavior


@dataclass(frozen=True)
class PowerCheckEntry:
    point: object
    verdict_base: str
    verdict_power: str

    @property
    def escape_agree(self) -> bool:
        return (self.verdict_base == ESCAPING) == (self.verdict_power == ESCAPING)


@dataclass(frozen=True)
class PowerCheckReport:
    power: int
    entries: tuple[PowerCheckEntry, ...]
    disagreements: tuple[object, ...]

    @property
    def agree(self) -> bool:
        return not self.disagreements


def power_equivalence_check(f, k: int, sample, params: ClassificationParams | None = None) -> PowerCheckReport:
    """Compare escape verdicts of f and f^k over a point sample.

    Both runs spend the same application budget: the f^k orbit is followed
    for horizon // k steps.  Only the escaping flag is compared; bounded and
    recurrent verdicts may legitimately differ between f and its powers.
    """
    if k < 1:
        raise DomainError("power must be at least 1")
    params = params or ClassificationParams()
    entries = []
    bad = []
    for x in sample:
        r1 = classify_orbit(f, x, params)
        rk = classify_orbit(f, x, params, power=k)
        e = PowerCheckEntry(point=r1.point, verdict_base=r1.verdict, verdict_power=rk.verdict)
        entries.append(e)
        if not e.escape_agree:
            bad.append(e.point)
    return PowerCheckReport(power=k, entries=tuple(entries), disagreements=tuple(bad))


# ---------------------------------------------------------------------------
# report serialization


def _json_num(v):
    if v is None or not math.isfinite(v):
        return None
    return float(v)


def classification_to_json(report: ClassificationReport) -> dict:
    tail = list(report.distances[-PROFILE_TAIL:])
    return {
        "verdict": report.verdict,
        "point": point_to_json(report.point),
        "power": report.power,
        "horizon": report.horizon,
        "steps": report.steps,
        "gap": _json_num(report.gap),
        "gap_time": report.gap_time,
        "eps_recurrent": report.eps_recurrent,
        "radii": [float(r) for r in report.radii],
        "crossing_times": list(report.crossing_times),
        "max_distance": _json_num(report.max_distance),
        "max_distance_time": report.max_distance_time,
        "final_distance": _json_num(report.distances[-1]),
        "profile_tail": tail,
        "tail_fraction": report.tail_fraction,
        "note": report.note,
    }


def rigidity_to_json(cert: RigidityCertificate) -> dict:
    return asdict(cert)


def interval_analysis_to_json(analysis: IntervalAnalysis) -> dict:
    def side_json(s: SideAnalysis) -> dict:
        return {
            "side": s.side,
            "case": s.case,
            "components": [[_json_num(a), _json_num(b)] for a, b in s.components],
            "certificate": s.certificate,
            "component": None if s.component is None else [_json_num(s.component[0]), _json_num(s.component[1])],
            "sequence": list(s.sequence),
            "vector": None if s.vector is None else vector_to_json(s.vector),
            "tail_bound": s.tail_bound,
            "note": s.note,
        }

    return {
        "case": analysis.case,
        "depth": analysis.depth,
        "sides": [side_json(s) for s in analysis.sides],
    }

