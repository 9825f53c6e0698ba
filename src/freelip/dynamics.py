"""Orbit analysis: recurrence gaps, evidence classification, rigidity
certificates, and escape certificates for piecewise-linear interval maps.

Verdicts produced here are *evidence*, never proofs: each one is read off a
finite orbit segment under the documented decision rule, and conflicting
signals fall back to "Undecided" instead of guessing.
"""

from __future__ import annotations

import math
import numbers

from .maps import FiniteMap, PiecewiseLinearMap, iterate_map, lip_constant
from .norms import free_norm
from .spaces import DomainError, IntervalSpace, _coerce_number, _count, _numbers, _plain, _Record, _rows, _show, restrict_to_points
from .vectors import FreeVector, Functional, make_free_vector, push_forward, vector_to_json

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
RESTRICTION_POINTS = 1_000  # most points restrict_map builds a table on (10⁶ entries)


# ---------------------------------------------------------------------------
# classification


class ClassificationParams(_Record):
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
        _count(self.horizon, "horizon")
        if self.eps_recurrent is not None:
            eps = _coerce_number(self.eps_recurrent, integral=False, what="recurrence tolerance")
            if not eps > 0:
                raise DomainError("recurrence tolerance must be positive")
            object.__setattr__(self, "eps_recurrent", eps)
        if self.radii is not None:
            rr = _numbers(self.radii, "radius", "radii must be a list of numbers")
            if not rr or any(r <= 0 for r in rr) or any(a >= b for a, b in zip(rr, rr[1:])):
                raise DomainError("radii must be positive and strictly increasing")
            object.__setattr__(self, "radii", rr)
        _count(self.ladder_size, "ladder_size")
        tail = _coerce_number(self.tail_fraction, integral=False, what="tail_fraction")
        if not 0.0 < tail < 1.0:
            raise DomainError("tail_fraction must lie strictly between 0 and 1")
        object.__setattr__(self, "tail_fraction", tail)

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


class ClassificationReport(_Record):
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


def _walk(step, x, steps: int, power: int = 1, key=None):
    """The states x, step^power(x), ... of at most ``steps`` steps up to the first repeat,
    keyed by themselves or by ``key`` (-0.0 and 0.0 are one key): states 0..n-1, the first
    repeat (m, n) (state n is state m < n) or None, and the DomainError that stopped it or None."""
    reps, y, states, seen = range(power), x, [x], {x if key is None else key(x): 0}
    for n in range(1, steps + 1):
        try:
            for _ in reps:
                y = step(y)
        except DomainError as exc:
            return states, None, exc
        if (m := seen.setdefault(y if key is None else key(y), n)) < n:
            return states, (m, n), None
        states.append(y)
    return states, None, None


def _fill(values, repeat, length: int):
    """Per-state ``values`` of a walk (a list or a tuple), extended to ``length`` over its period m..n-1."""
    if repeat is None:
        return values
    m, n = repeat
    return values + (values[m:n] * ((length - n) // (n - m) + 1))[: length - n]


def _best_gap(gaps: list, repeat) -> tuple[float, int]:
    """The first least gap d(x, state t) over t >= 1 and its t (inf and 0 if none), from a walk's
    gaps: states 1..n-1, then x again at step n if m = 0; later steps repeat these states."""
    later = gaps[1:] + gaps[:1] if repeat and repeat[0] == 0 else gaps[1:]
    best = min(later, default=math.inf)
    return best, later.index(best) + 1 if later else 0


def recurrence_gap(f, x, horizon: int) -> tuple[float, int]:
    """Minimum of d(x, f^n(x)) over 1 <= n <= horizon, with the first n attaining it.

    Stops at the first repeated state; iteration errors propagate to the caller.
    """
    _count(horizon, "horizon")
    space = f.space
    x = space.check_point(x)
    states, repeat, error = _walk(f.apply, x, horizon)
    if error is not None:
        raise error
    best, step = _best_gap(space.distances(x, states), repeat)
    return float(best), step


def _orbit_verdict(dists: list, gaps: list, repeat, length: int, radii, eps, tail_fraction, full: bool):
    """The rule of :func:`classify_orbit` on a walk's d(0, state) and d(x, state) for states 0..n-1, its
    first repeat (m, n) or None and its report's length; steps n.. repeat states m..n-1.  Returns the verdict,
    whether both signals fired, the gap and its step, the crossing times, and the first maximum and its step."""
    gap, gap_time = _best_gap(gaps, repeat)
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
        t_all, n = max(crossing), len(dists)  # last radius is crossed last (radii increase)
        m = repeat[0] if repeat else n  # steps n..length-1 repeat states m.., at most one period of them
        escape_signal = min(dists[t_all:] + dists[m : m + min(n - m, length - n)]) >= radii[0]
    bounded_signal = full and max_time < max(1, int(length * (1.0 - tail_fraction)))
    if recurrent_signal == escape_signal:  # both conflict; with neither, Bounded needs a full, settled run
        verdict = UNDECIDED if recurrent_signal or not bounded_signal else BOUNDED
    else:
        verdict = RECURRENT if recurrent_signal else ESCAPING
    return verdict, recurrent_signal and escape_signal, gap, gap_time, tuple(crossing), max_distance, max_time


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
    a power above the horizon would get no step and is refused.  The walk
    stops at the first repeated state f^n(x) = f^m(x); later steps repeat the
    period m..n-1 up to the horizon, or end the report at step n if m = 0,
    with a note.  The verdict is read off the walked states alone, and only
    the report's distances are filled over the period.
    """
    params = params or ClassificationParams()
    if _count(power, "power") > params.horizon:
        raise DomainError(f"power {power} must lie between 1 and the horizon {params.horizon}")
    space = f.space
    x = space.check_point(x)
    eps = params.resolve_eps(space)
    radii = params.resolve_radii(space, x)
    steps_wanted = params.horizon // power

    states, repeat, error = _walk(f.apply, x, steps_wanted, power)
    walked = space.distances(space.basepoint, states)
    dists = _fill(tuple(walked), repeat, repeat[1] + 1 if repeat and repeat[0] == 0 else steps_wanted + 1)
    note = ""
    if error is not None:
        note = f"orbit left the computable presentation at step {len(states)}: {error}"
    elif len(dists) <= steps_wanted:
        note = f"exact return at step {len(dists) - 1}; the orbit is periodic, iteration stopped early"
    verdict, conflict, gap, gap_time, crossing, max_distance, max_time = _orbit_verdict(
        walked, space.distances(x, states), repeat, len(dists), radii, eps, params.tail_fraction,
        len(dists) == steps_wanted + 1)  # a cut-short orbit is shorter
    if conflict:
        note = (note + "; " if note else "") + "recurrence and escape signals both fired"

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
        crossing_times=crossing,
        max_distance=float(max_distance),
        max_distance_time=max_time,
        distances=dists,
        tail_fraction=params.tail_fraction,
        note=note,
    )


def orbit_norm_profile(f, mu: FreeVector, horizon: int, backend: str = "auto") -> list[float]:
    """Norms of the pushed-forward vector at steps 0..horizon.

    The walk stops at the first exact return f̂ⁿμ = f̂ᵐμ (equal canonical terms,
    m < n), which push and solve alike, and repeats steps m..n-1 to the horizon.
    A finite table returns within its longest tail plus the lcm of its cycles."""
    _count(horizon, "horizon", least=0)
    states, repeat, error = _walk(lambda v: push_forward(f, v), mu, horizon, key=lambda v: v.terms)
    values = [free_norm(v, backend=backend) for v in states]  # a norm that fails raises first
    if error is not None:
        raise error
    return _fill(values, repeat, horizon + 1)


# ---------------------------------------------------------------------------
# orbit structure: one exact rule, on finite tables


def _closed_orbit(f, x) -> tuple[list, tuple[int, int]]:
    """The states 0..n-1 of the orbit of the checked ``x`` and its first repeat (m, n), or ``orbit_structure``'s error."""
    states, repeat, error = _walk(f.apply, x, DEFAULT_HORIZON)
    if error is not None:
        raise error
    if repeat is None:
        raise DomainError(f"the orbit of {_show(x)} shows no repeat within {DEFAULT_HORIZON} steps")
    return states, repeat


def orbit_structure(f, x) -> tuple[int, int]:
    """(tail, period) of the orbit of ``x``: f^tail(x) is its first point to come back, after period steps.
    Raises the DomainError of an orbit that leaves the presentation, or one where no repeat shows within
    DEFAULT_HORIZON steps: that is the closing bound, for every presentation."""
    m, n = _closed_orbit(f, f.space.check_point(x))[1]
    return m, n - m


def periodic_points(f) -> tuple[int, ...]:
    """Per(f) of a finite table, in order: its eventual image.  With N the least multiple of the lcm of the
    periods that is at least the longest tail, f^N is idempotent onto Per(f), so μ ∈ Rec(f̂) (f̂^n μ = μ for
    some n >= 1) iff supp μ ⊂ Per(f), and no vector escapes.  Other presentations reach it by ``restrict_map``."""
    if not isinstance(f, FiniteMap):
        raise DomainError("periodic points are read off a finite table; restrict the map first")
    image = set(f.table)
    while (smaller := {f.table[p] for p in image}) != image:
        image = smaller
    return tuple(sorted(image))


def restrict_map(f, points) -> FiniteMap:
    """f on the closure of ``points`` and the basepoint under f, as a table on ``restrict_to_points`` of
    that set: its labels are the original points, and its free space sits in F(f.space) isometrically
    (McShane extension).  An orbit that does not close raises as in ``orbit_structure``.  A closure of
    more than RESTRICTION_POINTS points is refused before its table is built: the n x n table and its
    O(n³) metric check took 2.3 s and 100 MB peak RSS at n = 1,000, and 6.8 s and 187 MB at n = 1,500
    (a cycle of an alpha table rule, Python 3.11 on one Xeon core)."""
    succ = {f.space.basepoint: f.space.basepoint}
    for p in _rows([points], "the points must be a list of points")[0]:
        states, (m, _) = _closed_orbit(f, f.space.check_point(p))
        succ.update(zip(states, states[1:] + states[m:m + 1]))
    if len(succ) > RESTRICTION_POINTS:
        raise DomainError(f"the closure has {len(succ)} points, over the {RESTRICTION_POINTS} a restricted "
                          "table may hold; orbit_structure reads one orbit without a table (tail 0 means periodic)")
    space = restrict_to_points(f.space, list(succ))
    index = {p: i for i, p in enumerate(space.labels)}
    return FiniteMap(space, [index[succ[p]] for p in space.labels])


# ---------------------------------------------------------------------------
# rigidity


class RigidityCertificate(_Record):
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
    times = _numbers(times, "time", "times must be a list of integers", integral=True)
    if not times or any(n < 1 for n in times) or any(a >= b for a, b in zip(times, times[1:])):
        raise DomainError("times must be strictly increasing and at least 1")
    if not (bound := _coerce_number(bound, integral=False, what="uniform bound")) > 0:
        raise DomainError("the uniform bound must be positive")
    sample = [f.space.check_point(p) for p in _rows([sample], "the sample must be a list of points")[0]]
    if not sample:
        raise DomainError("empty sample")
    if tolerances is None or isinstance(tolerances, numbers.Real):  # numpy scalars too; _coerce_number refuses a bool
        tolerances = (1e-9 if tolerances is None else tolerances,) * len(times)
    tols = _numbers(tolerances, "tolerance", "tolerances must be a number or a list of numbers, one per time")
    if len(tols) != len(times):
        raise DomainError("need one tolerance per time")
    if not all(t >= 0 for t in tols):
        raise DomainError(f"return tolerances must be nonnegative, got {tols}")

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
        bound=bound,
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
    _count(m, "window index m")
    if not (radius := _coerce_number(radius, integral=False, what="window radius")) > 0:
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


class SideAnalysis(_Record):
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


class IntervalAnalysis(_Record):
    case: str
    sides: tuple[SideAnalysis, ...]
    depth: int

    def side(self, name: str) -> SideAnalysis:
        for s in self.sides:
            if s.side == name:
                return s
        raise DomainError(f"no side named {name!r}")


def _past(lo: float) -> float:
    """A point right of ``lo``: lo + 1, or the next float where lo + 1 rounds back to lo."""
    return max(lo + 1.0, math.nextafter(lo, math.inf))


def _drift_components(f: PiecewiseLinearMap) -> list[tuple[float, float]]:
    """Maximal open intervals of {x > 0 : f(x) > x}, exact on linear pieces."""
    # every finite piece end is a breakpoint, and a finite b > 0 is the last one;
    # b = inf ends the grid, so its last cell is the unbounded one
    cuts = {0.0, f.space.b, *(x for x in f.xs if x > 0.0)}
    for plo, phi, ax, ay, s in f.pieces():
        if s != 1.0:
            # root of f(x) = x on this piece, from the anchored point-slope form
            r = (ay - s * ax) / (1.0 - s)
            if plo <= r <= phi and r > 0.0:
                cuts.add(r)
    grid = sorted(cuts)

    def drifts_at(t: float) -> bool:
        return f.eval(t) - t > 0.0

    components: list[tuple[float, float]] = []
    for lo, hi in zip(grid, grid[1:]):
        if not drifts_at(_past(lo) if math.isinf(hi) else 0.5 * (lo + hi)):
            continue
        if components and components[-1][1] == lo and drifts_at(lo):
            components[-1] = (components[-1][0], hi)  # the shared cut was not a true zero
        else:
            components.append((lo, hi))
    return components


def _analyze_positive_side(f: PiecewiseLinearMap, depth: int) -> SideAnalysis:
    components = tuple(_drift_components(f))
    if not components:
        return SideAnalysis(side="positive", case=CASE_NO_DRIFT, components=())

    lo, hi = components[-1]  # sorted and disjoint: only the last can reach +inf
    if math.isinf(hi):
        return SideAnalysis(
            side="positive",
            case=CASE_UNBOUNDED_DRIFT,
            components=components,
            certificate=_past(lo),
            component=(lo, hi),
            note="every orbit started inside the unbounded drift region escapes",
        )

    b, c = components[0]
    # Overshoot test: f leaves (b, c) iff some knot strictly inside reaches c.
    # Linear pieces attain their maxima at knots, and on the edge pieces the
    # values stay strictly between the knot value and the fixed endpoint, so
    # checking interior knots is exhaustive.
    trapped_in = not any(f.eval(k) >= c for k in f.xs if b < k < c)
    # Each point lies strictly inside (b, x), x the point before it (c for the first):
    # b + (c - b) 2^-n when f maps (b, c) into itself, else the least preimage of x,
    # the backward orbit of c.  The sequence ends early when float resolution leaves
    # no such point, so it never reaches b or repeats a point.
    seq, x = [], c
    for n in range(1, depth + 1):
        y = b + (c - b) * 0.5 ** n if trapped_in else next((r for r in f.preimages(x, b, x) if b < r < x), b)
        if not b < y < x:
            break
        seq.append(x := y)
    if trapped_in:
        case = CASE_TRAPPED_DRIFT_IN
        tail = (c - b) * 0.5 ** len(seq)
        note = "the drift component maps into itself; geometric points toward its left end"
    else:
        case = CASE_TRAPPED_DRIFT_OVER
        tail = None
        note = "overshoot: backward orbit of the right endpoint, smallest preimages"
    return SideAnalysis(
        side="positive",
        case=case,
        components=components,
        component=(b, c),
        sequence=tuple(seq),
        vector=make_free_vector(f.space, [p for x in seq for p in ((x, 1.0), (b, -1.0))]),
        tail_bound=tail,
        note=note,
    )


def _reflect_pl(f: PiecewiseLinearMap) -> PiecewiseLinearMap:
    space = f.space
    mirrored = IntervalSpace(a=-space.b, b=-space.a)
    bps = tuple((-x, -y) for x, y in reversed(tuple(zip(f.xs, f.ys))))
    return PiecewiseLinearMap(mirrored, bps, None if math.isfinite(mirrored.a) else f.right_slope,
                              None if math.isfinite(mirrored.b) else f.left_slope)


def _reflect_side(res: SideAnalysis, original_space) -> SideAnalysis:
    flip = lambda iv: (0.0 - iv[1], 0.0 - iv[0])  # -x would turn an end at 0 into -0.0
    vec = None
    if res.vector is not None:
        # reflection is an isometry fixing 0, so negating every support point
        # carries the certificate vector over with the same norm
        vec = make_free_vector(original_space, [(-p, cf) for p, cf in res.vector.terms])
    return res.replace(
        side="negative",
        components=tuple(sorted(flip(iv) for iv in res.components)),
        certificate=None if res.certificate is None else -res.certificate,
        component=None if res.component is None else flip(res.component),
        sequence=tuple(-x for x in res.sequence),
        vector=vec,
    )


def interval_analyze(f, depth: int = 40) -> IntervalAnalysis:
    """Exact sign analysis of f(x) - x with escape certificates.

    The positive side studies where f pushes points away from 0 toward larger
    values; when the interval extends below 0 the mirrored analysis runs on
    the reflected map.  ``depth`` bounds the certificate sequence length; an
    overshoot sequence ends sooner when no preimage lies strictly inside
    (b, x) at float resolution.
    """
    if not isinstance(f, PiecewiseLinearMap):
        raise DomainError("interval analysis needs a piecewise-linear interval map")
    _count(depth, "depth")
    sides = [_analyze_positive_side(f, depth)]
    if f.space.a < 0:
        mirrored = _analyze_positive_side(_reflect_pl(f), depth)
        sides.append(_reflect_side(mirrored, f.space))
    headline = max((s.case for s in sides), key=_CASE_SEVERITY.__getitem__)
    return IntervalAnalysis(case=headline, sides=tuple(sides), depth=depth)


# ---------------------------------------------------------------------------
# powers share escape behavior


class PowerCheckEntry(_Record):
    point: object
    verdict_base: str
    verdict_power: str

    @property
    def escape_agree(self) -> bool:
        return (self.verdict_base == ESCAPING) == (self.verdict_power == ESCAPING)


class PowerCheckReport(_Record):
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
    _count(k, "power k")
    params = params or ClassificationParams()
    entries = []
    bad = []
    for x in _rows([sample], "the sample must be a list of points")[0]:
        r1 = classify_orbit(f, x, params)
        rk = classify_orbit(f, x, params, power=k)
        e = PowerCheckEntry(point=r1.point, verdict_base=r1.verdict, verdict_power=rk.verdict)
        entries.append(e)
        if not e.escape_agree:
            bad.append(e.point)
    return PowerCheckReport(power=k, entries=tuple(entries), disagreements=tuple(bad))


# ---------------------------------------------------------------------------
# report serialization


def classification_to_json(report: ClassificationReport) -> dict:
    """The report's fields, its distances given as the last one and the last PROFILE_TAIL."""
    out = _plain(report.replace(distances=()))
    del out["distances"]
    return {**out, "final_distance": _plain(report.distances[-1]), "profile_tail": _plain(report.distances[-PROFILE_TAIL:])}


def rigidity_to_json(cert: RigidityCertificate) -> dict:
    return _plain(cert)


def interval_analysis_to_json(analysis: IntervalAnalysis) -> dict:
    """The analysis's fields, each certificate vector written with its space."""
    return {**_plain(analysis.replace(sides=())), "sides": [
        {**_plain(s.replace(vector=None)), "vector": None if s.vector is None else vector_to_json(s.vector)}
        for s in analysis.sides]}

