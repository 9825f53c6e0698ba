"""Basepoint-fixing Lipschitz self-maps in four presentations, their
Lipschitz constants with attaining certificates, and iteration of points,
vectors and whole maps.

A map presentation matches its space: an index table on a finite space, an
index rule on a sequence space, a continuous piecewise-linear function on an
interval, a coordinate rule on a lattice box.  Lipschitz constants are exact
for finite tables, piecewise-linear slopes and lattice boxes; only sequence
rules are window-limited, and nothing is sampled.  On a finite space, a
lattice box or a sequence space, the Lipschitz constant and the norm of the
linearized operator are both attained on an edge of the space (``_edges``).
``apply`` takes a checked point and checks only its image, where the
presentation can leave the space.  A piecewise-linear map builds ``eval`` and
``apply`` once, at construction, from one piece formula (``_pl_function``);
``apply`` also holds its image to the finite floats of the interval.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .spaces import (
    AlphaSpace,
    DomainError,
    FiniteSpace,
    IntervalSpace,
    LatticeBox,
    PrefixExhausted,
    _coerce_number,
    same_space,
)
from .norms import norm_flow
from .vectors import FreeVector, make_free_vector, push_forward

BREAKPOINT_BUDGET = 100_000


@dataclass(frozen=True)
class LipEstimate:
    value: float
    witness: object  # attaining pair / index / segment
    exact: bool
    note: str = ""


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class FiniteMap:
    space: FiniteSpace
    table: tuple[int, ...]

    kind = "finite-table"

    def __post_init__(self):
        if len(self.table) != self.space.size:
            raise DomainError("map table must cover every point of the space")
        for j in self.table:
            self.space.check_point(j)
        if self.table[self.space.basepoint] != self.space.basepoint:
            raise DomainError("map must fix the basepoint")

    def apply(self, p) -> int:
        return self.table[p]


@dataclass(frozen=True)
class AlphaMap:
    """Index rule on a sequence space.  The rule must fix 0; an image is
    checked as a point, so one past the materialized prefix raises
    ``PrefixExhausted`` and any other non-point ``DomainError``."""

    space: AlphaSpace
    rule: Callable[[int], int]
    rule_json: dict | None = field(default=None, compare=False)

    kind = "alpha-rule"

    def __post_init__(self):
        if self.rule(0) != 0:
            raise DomainError("map must fix the basepoint 0")

    def apply(self, p) -> int:
        return self.space.check_point(self.rule(p))


def _pl_function(xs, ys, slopes, left_slope, right_slope, lo, hi, outside):
    """x -> the piece formula's y at x when lo <= y <= hi, else outside(y);
    every name is bound here, once, so a call makes no attribute lookup."""
    x0, xn, y0, yn = xs[0], xs[-1], ys[0], ys[-1]

    def apply(x):  # the name bench/spans.py credits map applications to
        if x <= x0:
            y = y0 + left_slope * (x - x0)
        elif x >= xn:
            y = yn + right_slope * (x - xn)
        else:
            i = bisect_right(xs, x) - 1
            y = ys[i] + slopes[i] * (x - xs[i])
        return y if lo <= y <= hi else outside(y)

    return apply


class PiecewiseLinearMap:
    """Continuous piecewise-linear self-map of an interval, fixing 0.

    Given by breakpoints (x_i, y_i); beyond the extreme breakpoints the map
    continues with the declared end slopes (required exactly when the
    corresponding endpoint is infinite).  Everything downstream -- exact
    Lipschitz constants, exact preimages, sign analysis -- leans on this
    closed presentation.
    """

    kind = "piecewise-linear"

    def __init__(self, space: IntervalSpace, breakpoints: Sequence[tuple[float, float]],
                 left_slope: float | None = None, right_slope: float | None = None):
        if not breakpoints:
            raise DomainError("need at least one breakpoint")
        xs = [float(x) for x, _ in breakpoints]
        ys = [float(y) for _, y in breakpoints]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("breakpoint abscissae must be strictly increasing")
        if math.isfinite(space.a):
            if xs[0] != space.a:
                raise DomainError(f"first breakpoint must sit at the left endpoint {space.a}")
            if left_slope is not None:
                raise DomainError("left slope is only for an unbounded left end")
            left_slope = 0.0
        elif left_slope is None:
            raise DomainError("unbounded left end needs an explicit left slope")
        if math.isfinite(space.b):
            if xs[-1] != space.b:
                raise DomainError(f"last breakpoint must sit at the right endpoint {space.b}")
            if right_slope is not None:
                raise DomainError("right slope is only for an unbounded right end")
            right_slope = 0.0
        elif right_slope is None:
            raise DomainError("unbounded right end needs an explicit right slope")

        self.space = space
        self.xs = tuple(xs)
        self.ys = tuple(ys)
        self.left_slope = float(left_slope)
        self.right_slope = float(right_slope)
        self._seg_slopes = tuple(
            (y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(breakpoints, breakpoints[1:])
        )
        # eval passes every value, NaN through float; apply's image can round
        # 1 ulp outside [a, b] or overflow to +-inf on an unbounded tail, so it
        # must be a finite float of [a, b], and check_point only words the error
        pieces = (self.xs, self.ys, self._seg_slopes, self.left_slope, self.right_slope)
        top = sys.float_info.max
        self.eval = _pl_function(*pieces, -math.inf, math.inf, float)
        self.apply = _pl_function(*pieces, max(space.a, -top), min(space.b, top), space.check_point)

        for y in ys:
            if not (space.a <= y <= space.b):
                raise DomainError(f"breakpoint value {y} leaves the interval")
        if math.isfinite(space.a) and not math.isfinite(space.b) and self.right_slope < 0:
            raise DomainError("right tail escapes the interval downward")
        if math.isfinite(space.b) and not math.isfinite(space.a) and self.left_slope < 0:
            raise DomainError("left tail escapes the interval upward")
        if self.eval(0.0) != 0.0:
            raise DomainError(f"map must fix the basepoint 0, got f(0) = {self.eval(0.0)!r}")

    def slopes(self) -> tuple[float, ...]:
        return tuple(s for *_, s in self.pieces()) or (0.0,)

    # -- exact root machinery -------------------------------------------------

    def pieces(self):
        """Yield (lo, hi, value_at_lo, slope) covering the whole domain; the
        end rays use +-inf for the missing bound."""
        if not math.isfinite(self.space.a):
            yield (-math.inf, self.xs[0], self.ys[0], self.left_slope)
        for i in range(len(self.xs) - 1):
            yield (self.xs[i], self.xs[i + 1], self.ys[i], self._seg_slopes[i])
        if not math.isfinite(self.space.b):
            yield (self.xs[-1], math.inf, self.ys[-1], self.right_slope)

    def preimages(self, target: float, lo: float = -math.inf, hi: float = math.inf) -> list[float]:
        """Isolated solutions of f(x) = target within [lo, hi], plus the left
        endpoint of every constant piece equal to the target.  Sorted."""
        roots: list[float] = []
        for plo, phi, ylo, s in self.pieces():
            anchor = plo if math.isfinite(plo) else phi
            if s == 0.0:
                if ylo == target:
                    cand = max(plo, lo)
                    if cand <= min(phi, hi) and math.isfinite(cand):
                        roots.append(cand)
                continue
            yref = ylo if math.isfinite(plo) else self.eval(anchor)
            x = anchor + (target - yref) / s
            if plo <= x <= phi and lo <= x <= hi:
                roots.append(x)
        out = sorted(set(roots))
        return out

    def smallest_preimage(self, target: float, lo: float, hi: float) -> float:
        """Least x in (lo, hi] with f(x) = target; raises if there is none."""
        for x in self.preimages(target, lo, hi):
            if lo < x <= hi:
                return x
        raise DomainError(f"no preimage of {target} inside ({lo}, {hi}]")


@dataclass(frozen=True)
class LatticeMap:
    space: LatticeBox
    rule: Callable[[tuple[int, ...]], tuple[int, ...]]
    rule_json: dict | None = field(default=None, compare=False)

    kind = "lattice-rule"

    def __post_init__(self):
        o = self.space.basepoint
        if tuple(self.rule(o)) != o:
            raise DomainError("map must fix the origin")

    def apply(self, p):
        return self.space.check_point(tuple(self.rule(p)))


# ---------------------------------------------------------------------------
# composition and iteration


def compose(f, g):
    """The map x -> f(g(x)); both over one space, presentation preserved."""
    if not same_space(f.space, g.space):
        raise DomainError("cannot compose maps over different spaces")
    if isinstance(f, FiniteMap) and isinstance(g, FiniteMap):
        return FiniteMap(f.space, tuple(f.table[j] for j in g.table))
    if isinstance(f, PiecewiseLinearMap) and isinstance(g, PiecewiseLinearMap):
        return _compose_pl(f, g)
    if isinstance(f, (AlphaMap, LatticeMap)) and type(g) is type(f):
        return type(f)(f.space, lambda x, f=f, g=g: f.rule(g.rule(x)))
    raise DomainError("mixed map presentations cannot be composed")


def _compose_pl(f: PiecewiseLinearMap, g: PiecewiseLinearMap,
                budget: int = BREAKPOINT_BUDGET) -> PiecewiseLinearMap:
    space = f.space
    knots = set(g.xs)
    for bx in f.xs:
        for x in g.preimages(bx):
            knots.add(x)
    if math.isfinite(space.a):
        knots.add(space.a)
    if math.isfinite(space.b):
        knots.add(space.b)
    knots = sorted(k for k in knots if space.a <= k <= space.b)
    if len(knots) > budget:
        raise DomainError(
            f"composition needs {len(knots)} breakpoints, over the budget {budget}"
        )
    bps = [(x, f.eval(g.eval(x))) for x in knots]
    ls = rs = None
    if not math.isfinite(space.a):
        # a constant left tail composes to a constant; a monotone one lands on
        # the matching tail of f once past the last collected knot
        gl = g.left_slope
        if gl > 0:
            ls = f.left_slope * gl
        elif gl < 0:
            ls = f.right_slope * gl
        else:
            ls = 0.0
    if not math.isfinite(space.b):
        gr = g.right_slope
        if gr > 0:
            rs = f.right_slope * gr
        elif gr < 0:
            rs = f.left_slope * gr
        else:
            rs = 0.0
    return PiecewiseLinearMap(space, bps, left_slope=ls, right_slope=rs)


def iterate_map(f, n: int, budget: int = BREAKPOINT_BUDGET):
    """The n-th iterate as a map object (n >= 1); finite tables and
    piecewise-linear presentations are flattened, rules stay lazy."""
    if n < 1:
        raise DomainError("iterate_map needs n >= 1")
    if isinstance(f, (AlphaMap, LatticeMap)):
        return type(f)(f.space, lambda x, f=f, n=n: _iter_rule(f.rule, x, n))
    if isinstance(f, FiniteMap):
        return FiniteMap(f.space, _table_power(f.table, n))
    out = f
    for _ in range(n - 1):
        out = _compose_pl(f, out, budget=budget)
    return out


def _table_power(table, n):
    # repeated squaring: log2(n) compositions of plain tuples, which the
    # powers of one map share, and a single FiniteMap check at the end
    out = tuple(range(len(table)))
    while n:
        if n & 1:
            out = tuple(table[j] for j in out)
        n >>= 1
        if n:
            table = tuple(table[j] for j in table)
    return out


def _iter_rule(rule, x, n):
    for _ in range(n):
        x = rule(x)
    return x


def iterate_point(f, x, n: int):
    """f^n(x) for n >= 0.  ``x`` is checked once; a map checks its own image
    only where the presentation can leave the space."""
    if n < 0:
        raise DomainError("cannot iterate a negative number of times")
    p = f.space.check_point(x)
    for _ in range(n):
        p = f.apply(p)
    return p


def iterate_vector(f, mu: FreeVector, n: int) -> FreeVector:
    """Image of mu under the n-th power of the linearized map."""
    if n < 0:
        raise DomainError("cannot iterate a negative number of times")
    out = mu
    for _ in range(n):
        out = push_forward(f, out)
    return out


# ---------------------------------------------------------------------------
# Lipschitz constants


def _edges(space):
    """The point pairs (x, y) whose molecules (delta(x) - delta(y)) / d(x, y)
    carry every molecule of ``space`` as a convex combination, in order:

    - every pair i < j of a finite space;
    - the unit steps p -> p + e_i inside a lattice box, whose l1 metric is
      the path metric of its grid (p runs row-major, then i);
    - the star edges (0, n) of a sequence space, whose two-ray metric is the
      path metric of a star around 0.

    A molecule splits along a shortest path into edge molecules, so both a
    Lipschitz constant and the norm of a linearized operator are attained on
    an edge (Weaver, *Lipschitz Algebras*, 2nd ed., 2018).
    """
    if isinstance(space, FiniteSpace):
        yield from itertools.combinations(space.points(), 2)
    elif isinstance(space, LatticeBox):
        tops = [hi for _, hi in space.bounds]
        for p in space.points():
            for i, hi in enumerate(tops):
                if p[i] < hi:
                    yield p, p[:i] + (p[i] + 1,) + p[i + 1:]
    elif isinstance(space, AlphaSpace):
        for n in range(1, space.prefix_length + 1):
            yield 0, n
    else:
        raise DomainError("interval spaces need an explicit finite point sample")


def lip_constant(f, window: int | None = None) -> LipEstimate:
    """Lipschitz constant with an attaining certificate.

    Exact for finite tables and lattice rules, as the largest ratio
    d(f(x), f(y)) / d(x, y) over the edges of the space: the witness is the
    first maximal pair i < j of a finite space, and the first maximal unit
    step of a lattice box.  Exact for piecewise-linear maps, from their
    slopes.  For sequence-space rules the supremum is taken over indices
    1..window (default: the whole materialized prefix) and reported as
    window-limited.
    """
    if isinstance(f, (FiniteMap, LatticeMap)):
        sp = f.space
        image = {p: f.apply(p) for p in sp.points()}
        best, wit = 0.0, None
        for p, q in _edges(sp):
            r = sp.distance(image[p], image[q]) / sp.distance(p, q)
            if r > best:
                best, wit = r, (p, q)
        return LipEstimate(best, wit, exact=True)

    if isinstance(f, AlphaMap):
        sp = f.space
        n_max = sp.prefix_length if window is None else window
        if n_max > sp.prefix_length:
            raise PrefixExhausted(
                f"window {n_max} exceeds the materialized prefix {sp.prefix_length}"
            )
        best, wit = 0.0, None
        for n in range(1, n_max + 1):
            q = f.apply(n)
            if q == 0:
                continue
            r = sp.alpha(q) / sp.alpha(n)
            if r > best:
                best, wit = r, n
        return LipEstimate(best, wit, exact=False, note=f"supremum over indices 1..{n_max}")

    if isinstance(f, PiecewiseLinearMap):
        slopes = f.slopes()
        vals = [abs(s) for s in slopes]
        best = max(vals)
        return LipEstimate(best, vals.index(best), exact=True)

    raise DomainError(f"not a recognized map presentation: {f!r}")


def operator_norm_estimate(f, points: Sequence | None = None) -> LipEstimate:
    """Norm of the linearized operator probed on normalized two-point vectors
    ``(delta(x) - delta(y)) / d(x, y)``, each pushed forward and measured with
    the transport solver; the witness is the first maximal pair.

    With ``points``, every pair x, y of them is probed, in the given order
    and with a repeated point counted once.  Without, the edges of the space
    are (an interval needs ``points``), so the value is the norm of the
    operator and equals the Lipschitz constant.
    """
    space = f.space
    if points is None:
        pairs = _edges(space)
    else:
        pairs = itertools.combinations(dict.fromkeys(space.check_point(p) for p in points), 2)
    best, wit = 0.0, None
    for x, y in pairs:
        mol = make_free_vector(space, [(x, 1.0), (y, -1.0)])
        val = norm_flow(push_forward(f, mol)).value / space.distance(x, y)
        if val > best:
            best, wit = val, (x, y)
    return LipEstimate(best, wit, exact=True)


# ---------------------------------------------------------------------------
# JSON wire format


def map_to_json(f) -> dict:
    if isinstance(f, FiniteMap):
        return {"kind": "finite-table", "table": list(f.table)}
    if isinstance(f, PiecewiseLinearMap):
        out = {"kind": "piecewise-linear",
               "breakpoints": [[x, y] for x, y in zip(f.xs, f.ys)]}
        if not math.isfinite(f.space.a):
            out["left_slope"] = f.left_slope
        if not math.isfinite(f.space.b):
            out["right_slope"] = f.right_slope
        return out
    if isinstance(f, (AlphaMap, LatticeMap)):
        if f.rule_json is None:
            raise DomainError(
                "this rule-backed map carries no serializable description"
            )
        return {"kind": f.kind, **f.rule_json}
    raise TypeError(f"not a map: {f!r}")


def map_from_json(obj: dict, space):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("map object must be a dict with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "finite-table":
            if not isinstance(space, FiniteSpace):
                raise DomainError("finite-table maps need a finite space")
            return FiniteMap(space, tuple(_coerce_number(i, integral=True, what="table entry") for i in obj["table"]))
        if kind == "piecewise-linear":
            if not isinstance(space, IntervalSpace):
                raise DomainError("piecewise-linear maps need an interval space")
            bps = [(_coerce_number(x, integral=False, what="breakpoint"),
                    _coerce_number(y, integral=False, what="breakpoint"))
                   for x, y in obj["breakpoints"]]
            slopes = {k: _coerce_number(obj[k], integral=False, what=k)
                      for k in ("left_slope", "right_slope") if obj.get(k) is not None}
            return PiecewiseLinearMap(space, bps, **slopes)
        if kind == "alpha-rule":
            if not isinstance(space, AlphaSpace):
                raise DomainError("alpha rules need a sequence space")
            return _alpha_rule_from_json(obj, space)
        if kind == "lattice-rule":
            if not isinstance(space, LatticeBox):
                raise DomainError("lattice rules need a lattice box")
            return _lattice_rule_from_json(obj, space)
    except DomainError:
        raise
    except KeyError as exc:
        raise DomainError(f"map object missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"map object has a malformed field: {exc}") from exc
    raise DomainError(f"unknown map kind {kind!r}")


def _alpha_rule_from_json(obj: dict, space: AlphaSpace) -> AlphaMap:
    rule = obj.get("rule")
    if rule == "forward-shift":
        return AlphaMap(space, lambda n: 0 if n == 0 else n + 1, rule_json={"rule": "forward-shift"})
    if rule == "table":
        table = [_coerce_number(v, integral=True, what="table entry") for v in obj["table"]]
        if not table or table[0] != 0:
            raise DomainError("alpha table must start with 0 -> 0")

        def apply_table(n, table=tuple(table)):
            if n >= len(table):
                raise PrefixExhausted(f"table rule covers indices up to {len(table) - 1}")
            return table[n]

        return AlphaMap(space, apply_table, rule_json={"rule": "table", "table": table})
    raise DomainError(f"unknown alpha rule {rule!r}")


def _lattice_rule_from_json(obj: dict, space: LatticeBox) -> LatticeMap:
    if "matrix" not in obj:
        raise DomainError("lattice rules are given by an integer matrix")
    mat = [[_coerce_number(v, integral=True, what="matrix entry") for v in row] for row in obj["matrix"]]
    if len(mat) != space.dim or any(len(r) != space.dim for r in mat):
        raise DomainError("matrix shape must match the box dimension")

    def apply_mat(p, mat=tuple(tuple(r) for r in mat)):
        return tuple(sum(m * c for m, c in zip(row, p)) for row in mat)

    return LatticeMap(space, apply_mat, rule_json={"rule": "matrix", "matrix": [list(r) for r in mat]})
