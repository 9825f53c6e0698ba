"""Basepoint-fixing Lipschitz self-maps in four presentations, their
Lipschitz constants with attaining certificates, and iteration of points,
vectors and whole maps.

A map presentation matches its space, and refuses any other: an index table
on a finite space, an index rule on a sequence space, a continuous
piecewise-linear function on an interval, an integer matrix on a lattice box.
Lipschitz constants are exact for finite tables, piecewise-linear slopes and
lattice boxes; only sequence rules are window-limited, and nothing is
sampled.  On a finite space, a lattice box or a sequence space, the Lipschitz
constant and the norm of the linearized operator are both attained on an edge
of the space (``_edges``).
``apply`` takes a checked point and checks only its image, where the
presentation can leave the space.  A composite or an iterate is a table, a
table and a shift, a matrix or pieces, in the presentation of its factors.  A
piecewise-linear map builds ``eval`` and ``apply`` once, at construction, from
one piece formula (``_pl_function``); ``apply`` also holds its image to the
finite floats of the interval.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from bisect import bisect_right
from typing import Sequence

from .spaces import (
    AlphaSpace,
    DomainError,
    FiniteSpace,
    IntervalSpace,
    LatticeBox,
    PrefixExhausted,
    _coerce_number,
    _count,
    _endpoint,
    _numbers,
    _reals,
    _Record,
    _rows,
    _show,
    same_space,
)
from .norms import norm_flow
from .vectors import FreeVector, make_free_vector, push_forward

BREAKPOINT_BUDGET = 100_000
_TABLE = "map table must be a list of points"


class LipEstimate(_Record):
    value: float
    witness: object  # attaining pair / index / segment
    exact: bool
    note: str = ""


# ---------------------------------------------------------------------------
# presentations


def _fixes_basepoint(base, image):
    if image != base:
        raise DomainError(f"map must fix the basepoint {_show(base)}, got {_show(image)}")


class FiniteMap(_Record):
    space: FiniteSpace
    table: tuple[int, ...]

    kind = "finite-table"

    def __post_init__(self):
        if not isinstance(self.space, FiniteSpace):
            raise DomainError("finite-table maps need a finite space")
        table = tuple(map(self.space.check_point, _rows([self.table], _TABLE)[0]))
        if len(table) != self.space.size:
            raise DomainError("map table must cover every point of the space")
        object.__setattr__(self, "table", table)
        _fixes_basepoint(self.space.basepoint, table[self.space.basepoint])

    def apply(self, p) -> int:
        return self.table[p]


class AlphaMap(_Record):
    """Index rule on a sequence space: n -> table[n] on the table, and n -> n + shift past
    it, where a shift of 0 leaves no image.  An image past the materialized prefix raises
    ``PrefixExhausted``; no sequence space has a negative point, so no entry is negative."""

    space: AlphaSpace
    table: tuple[int, ...]
    shift: int = 0

    kind = "alpha-rule"

    def __post_init__(self):
        if not isinstance(self.space, AlphaSpace):
            raise DomainError("alpha rules need a sequence space")
        if not (table := _numbers(self.table, "table entry", _TABLE, integral=True)):
            raise DomainError("alpha table is empty: it needs the entry 0 -> 0")
        _fixes_basepoint(0, table[0])
        if min(table) < 0:
            raise DomainError(f"alpha table entry {_show(min(table))} is negative: no sequence space has it")
        object.__setattr__(self, "table", table)
        _count(self.shift, "alpha shift", least=0)

    def apply(self, p) -> int:
        if p < len(self.table):
            return self.space.check_point(self.table[p])
        if self.shift:
            return self.space.check_point(p + self.shift)
        raise PrefixExhausted(f"table rule covers indices up to {len(self.table) - 1}")


def _pl_function(xs, ys, slopes, left_slope, right_slope, lo, hi, outside):
    """x -> the piece formula's y at x when lo <= y <= hi, else outside(y);
    every name is bound here, once, so a call makes no attribute lookup.
    NaN passes no comparison, so it takes the right ray and its y is NaN."""
    x0, xn, y0, yn = xs[0], xs[-1], ys[0], ys[-1]

    def apply(x):  # the name bench/spans.py credits map applications to
        if x <= x0:
            y = y0 + left_slope * (x - x0)
        elif x < xn:
            i = bisect_right(xs, x) - 1
            y = ys[i] + slopes[i] * (x - xs[i])
        else:
            y = yn + right_slope * (x - xn)
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
    __setattr__ = __delattr__ = _Record.__setattr__  # frozen, as a record is

    def __init__(self, space: IntervalSpace, breakpoints: Sequence[tuple[float, float]],
                 left_slope: float | None = None, right_slope: float | None = None):
        if not isinstance(space, IntervalSpace):
            raise DomainError("piecewise-linear maps need an interval space")
        if not (pairs := _rows(breakpoints, "breakpoints must be a list of (x, y) pairs", 2)):
            raise DomainError("need at least one breakpoint")
        xs, ys = _reals(tuple(zip(*pairs)), "breakpoint")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("breakpoint abscissae must be strictly increasing")

        def end_slope(side, first, x, end, slope):
            # a finite end holds the extreme breakpoint and slope 0; an infinite one needs a slope
            if math.isfinite(end):
                if x != end:
                    raise DomainError(f"{first} breakpoint must sit at the {side} endpoint {end}")
                if slope is not None:
                    raise DomainError(f"{side} slope is only for an unbounded {side} end")
                return 0.0
            if slope is None:
                raise DomainError(f"unbounded {side} end needs an explicit {side} slope")
            return _coerce_number(slope, integral=False, what=f"{side}_slope")

        left_slope = end_slope("left", "first", xs[0], space.a, left_slope)
        right_slope = end_slope("right", "last", xs[-1], space.b, right_slope)
        seg_slopes = tuple((y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))
        # eval passes every value, NaN through float; apply's image can round
        # 1 ulp outside [a, b] or overflow to +-inf on an unbounded tail, so it
        # must be a finite float of [a, b], and check_point only words the error
        pieces = (xs, ys, seg_slopes, left_slope, right_slope)
        top = sys.float_info.max
        vars(self).update(space=space, xs=xs, ys=ys, left_slope=left_slope, right_slope=right_slope,
                          _seg_slopes=seg_slopes, eval=_pl_function(*pieces, -math.inf, math.inf, float),
                          apply=_pl_function(*pieces, max(space.a, -top), min(space.b, top), space.check_point))

        for y in ys:
            if not (space.a <= y <= space.b):
                raise DomainError(f"breakpoint value {y} leaves the interval")
        if math.isfinite(space.a) and not math.isfinite(space.b) and self.right_slope < 0:
            raise DomainError("right tail escapes the interval downward")
        if math.isfinite(space.b) and not math.isfinite(space.a) and self.left_slope < 0:
            raise DomainError("left tail escapes the interval upward")
        _fixes_basepoint(0.0, self.eval(0.0))

    def slopes(self) -> tuple[float, ...]:
        return tuple(s for *_, s in self.pieces())

    # -- exact root machinery -------------------------------------------------

    def pieces(self):
        """Yield (lo, hi, x, y, slope) covering the whole domain, where (x, y) is the
        piece's anchor, its finite end: lo, or hi on the left ray.  The end
        rays use +-inf for the missing bound."""
        if not math.isfinite(self.space.a):
            yield (-math.inf, self.xs[0], self.xs[0], self.ys[0], self.left_slope)
        for i in range(len(self.xs) - 1):
            yield (self.xs[i], self.xs[i + 1], self.xs[i], self.ys[i], self._seg_slopes[i])
        if not math.isfinite(self.space.b):
            yield (self.xs[-1], math.inf, self.xs[-1], self.ys[-1], self.right_slope)

    def preimages(self, target: float, lo: float = -math.inf, hi: float = math.inf) -> list[float]:
        """Isolated solutions of f(x) = target, a finite real, within [lo, hi] (either may be
        infinite), plus the left endpoint of every constant piece equal to the target.  Sorted."""
        target = _coerce_number(target, integral=False, what="target")
        lo, hi = _endpoint(lo), _endpoint(hi)
        roots: list[float] = []
        for plo, phi, ax, ay, s in self.pieces():
            if s == 0.0:
                if ay == target:
                    cand = max(plo, lo)
                    if cand <= min(phi, hi) and math.isfinite(cand):
                        roots.append(cand)
                continue
            x = ax + (target - ay) / s
            if plo <= x <= phi and lo <= x <= hi:
                roots.append(x)
        return sorted(set(roots))


class LatticeMap(_Record):
    space: LatticeBox
    matrix: tuple[tuple[int, ...], ...]

    kind = "lattice-rule"

    def __post_init__(self):
        if not isinstance(self.space, LatticeBox):
            raise DomainError("lattice rules need a lattice box")
        square = "lattice rules are given by a square integer matrix"
        matrix = tuple(_numbers(row, "matrix entry", square, integral=True) for row in _rows(self.matrix, square))
        if len(matrix) != (d := self.space.dim) or any(len(row) != d for row in matrix):
            raise DomainError(f"a lattice rule on a box of dimension {d} needs a {d} x {d} matrix")
        object.__setattr__(self, "matrix", matrix)

    def apply(self, p) -> tuple[int, ...]:
        return self.space.check_point(tuple([sum(map(operator.mul, row, p)) for row in self.matrix]))


# ---------------------------------------------------------------------------
# composition and iteration


def compose(f, g):
    """The map x -> f(g(x)); both over one space, presentation preserved."""
    if not same_space(f.space, g.space):
        raise DomainError("cannot compose maps over different spaces")
    if isinstance(f, FiniteMap) and isinstance(g, FiniteMap):
        return FiniteMap(f.space, tuple(f.table[j] for j in g.table))
    if isinstance(f, LatticeMap) and isinstance(g, LatticeMap):
        return LatticeMap(f.space, tuple(tuple(sum(map(operator.mul, row, col)) for col in zip(*g.matrix))
                                         for row in f.matrix))
    if isinstance(f, PiecewiseLinearMap) and isinstance(g, PiecewiseLinearMap):
        return _compose_pl(f, g)
    if isinstance(f, AlphaMap) and isinstance(g, AlphaMap):
        # the table runs over both tables, or to the prefix end: past it the composite
        # shifts by both shifts, or has no image when either has none
        past = len(f.space.points())
        table = [_image(f, g, x, past) for x in range(min(past, max(len(g.table), len(f.table))))]
        return AlphaMap(f.space, table, f.shift and g.shift and f.shift + g.shift)
    raise DomainError("mixed map presentations cannot be composed")


def _image(f, g, x, past):  # f(g(x)), each step checked, or the index ``past`` where a step leaves the prefix
    try:
        return f.apply(g.apply(x))
    except PrefixExhausted:
        return past


def _compose_pl(f: PiecewiseLinearMap, g: PiecewiseLinearMap) -> PiecewiseLinearMap:
    space = f.space
    # g.xs holds each finite end, and every preimage lies in a piece of g: all knots are in [a, b]
    knots = sorted({*g.xs, *(x for bx in f.xs for x in g.preimages(bx))})
    if len(knots) > BREAKPOINT_BUDGET:
        raise DomainError(f"composition needs {len(knots)} breakpoints, over the budget {BREAKPOINT_BUDGET}")
    bps = [(x, f.eval(g.eval(x))) for x in knots]

    def tail(s, same, other):
        # a constant tail of g composes to a constant; a monotone one lands on
        # the matching tail of f once past the last collected knot
        return same * s if s > 0 else other * s if s < 0 else 0.0

    ls = None if math.isfinite(space.a) else tail(g.left_slope, f.left_slope, f.right_slope)
    rs = None if math.isfinite(space.b) else tail(g.right_slope, f.right_slope, f.left_slope)
    return PiecewiseLinearMap(space, bps, left_slope=ls, right_slope=rs)


def iterate_map(f, n: int):
    """The n-th iterate as a map object (n >= 1), composed by repeated squaring; a matrix power,
    unlike n applications, has only its last image checked.  Pieces are composed one step at
    a time, as squaring would regroup the float breakpoints."""
    _count(n, "iterate count n")
    if isinstance(f, PiecewiseLinearMap):
        return _step(lambda g: _compose_pl(f, g), f, n - 1)
    return _power(compose, f, n)


def _power(product, x, n):
    """x^n, n >= 1, by repeated squaring: about 2 log2(n) products."""
    if n == 1:
        return x
    half = _power(product, product(x, x), n // 2)
    return product(x, half) if n % 2 else half


def _step(g, x, n):
    for _ in range(n):
        x = g(x)
    return x


def iterate_point(f, x, n: int):
    """f^n(x) for n >= 0.  ``x`` is checked once; a map checks its own image
    only where the presentation can leave the space."""
    _count(n, "iterate count n", least=0)
    return _step(f.apply, f.space.check_point(x), n)


def iterate_vector(f, mu: FreeVector, n: int) -> FreeVector:
    """Image of mu under the n-th power of the linearized map."""
    _count(n, "iterate count n", least=0)
    return _step(lambda v: push_forward(f, v), mu, n)


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


def _first_max(pairs, ratio):
    """The largest ``ratio(x, y)`` over ``pairs`` and the first pair attaining it, or 0.0 and None."""
    best, wit = 0.0, None
    for pair in pairs:
        r = ratio(*pair)
        if r > best:
            best, wit = r, pair
    return best, wit


def lip_constant(f, window: int | None = None) -> LipEstimate:
    """Lipschitz constant with an attaining certificate.

    Exact for finite tables and lattice rules, as the largest ratio
    d(f(x), f(y)) / d(x, y) over the edges of the space, with the first
    maximal edge as witness; exact for piecewise-linear maps, from their
    slopes.  Only a sequence rule takes a window: it is read, window-limited, over
    the star edges (0, n), n <= window (default: the whole prefix), witness n.
    """
    if window is not None and not isinstance(f, AlphaMap):
        raise DomainError("window applies to sequence rules only")
    if isinstance(f, (FiniteMap, AlphaMap, LatticeMap)):
        sp = f.space
        edges, points = _edges(sp), sp.points()
        if isinstance(f, AlphaMap):
            n_max = sp.prefix_length if window is None else _count(window, "window")
            if n_max > sp.prefix_length:
                raise PrefixExhausted(f"window {n_max} exceeds the materialized prefix {sp.prefix_length}")
            edges, points = itertools.islice(edges, n_max), range(n_max + 1)
        image = {p: f.apply(p) for p in points}
        best, wit = _first_max(edges, lambda x, y: sp.distance(image[x], image[y]) / sp.distance(x, y))
        if isinstance(f, AlphaMap):  # the witness names the star edge (0, n) by n
            return LipEstimate(best, wit and wit[1], exact=False, note=f"supremum over indices 1..{n_max}")
        return LipEstimate(best, wit, exact=True)

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
    and with a repeated point counted once, so the value is a maximum over
    those pairs only and not marked exact.  Without, the edges of the space
    are (an interval needs ``points``), so the value is the norm of the
    operator, exact, and equals the Lipschitz constant.
    """
    space = f.space
    if points is None:
        pairs, note = _edges(space), ""
    else:
        points = _rows([points], "the points must be a list of points")[0]
        pairs = itertools.combinations(dict.fromkeys(space.check_point(p) for p in points), 2)
        note = "maximum over pairs of the given points"

    def ratio(x, y):
        mol = make_free_vector(space, [(x, 1.0), (y, -1.0)])
        return norm_flow(push_forward(f, mol)).value / space.distance(x, y)

    return LipEstimate(*_first_max(pairs, ratio), exact=points is None, note=note)


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
    if isinstance(f, LatticeMap):
        return {"kind": f.kind, "rule": "matrix", "matrix": [list(row) for row in f.matrix]}
    if isinstance(f, AlphaMap):
        if f.table == (0,) and f.shift == 1:
            return {"kind": f.kind, "rule": "forward-shift"}
        tail = range(len(f.table), len(f.space.points())) if f.shift else ()
        return {"kind": f.kind, "rule": "table", "table": [*f.table, *(n + f.shift for n in tail)]}
    raise TypeError(f"not a map: {f!r}")


def map_from_json(obj: dict, space):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("map object must be a dict with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "finite-table":
            return FiniteMap(space, _numbers(obj["table"], "table entry", _TABLE, integral=True))
        if kind == "piecewise-linear":
            return PiecewiseLinearMap(space, obj["breakpoints"], obj.get("left_slope"), obj.get("right_slope"))
        if kind == "alpha-rule":
            if (rule := obj.get("rule")) not in ("forward-shift", "table"):
                raise DomainError(f"unknown alpha rule {rule!r}")
            return AlphaMap(space, (0,), 1) if rule == "forward-shift" else AlphaMap(space, obj["table"])
        if kind == "lattice-rule":
            return LatticeMap(space, obj["matrix"])
    except DomainError:
        raise
    except KeyError as exc:
        raise DomainError(f"map object missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"map object has a malformed field: {exc}") from exc
    raise DomainError(f"unknown map kind {kind!r}")

