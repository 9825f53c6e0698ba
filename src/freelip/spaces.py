"""Pointed metric spaces in four concrete presentations.

Every space designates a basepoint and exposes the same small interface:
``check_point``, ``distance``, ``distances`` and ``kind``.
Points are carried as plain payloads -- an index for finite and sequence
spaces, a float for intervals, an integer tuple for lattice boxes.

A point is validated once, where it enters the system: ``check_point`` is
the one membership test.  It returns the point in canonical form (an int, a
float or an int tuple), which is hashable, sortable and compares by value, or
raises ``DomainError`` (``PrefixExhausted`` past a sequence prefix).
``distance`` takes checked points and does not check them again; a bad index
would wrap or fail obscurely.  A space's constructor reads its numbers, once,
through ``_coerce_number``.  ``AlphaSpace`` keeps its weights in one buffer of
doubles: ``AlphaSpace(alpha)`` copies and checks any iterable into an
``array('d')`` without numpy, and ``AlphaSpace._adopt`` owns a buffer built for
it (the tempered weights' own mapping) and checks it once with numpy.
``distances(p, points)`` is ``[distance(p, q) for q in points]`` bit for bit,
in one pass; a lattice box sums exact ints an axis at a time.
``cost_matrix(space, points)`` is the one cost table: a ``distances`` row per
point, refused when an entry overflows a float.  ``validate_finite_metric``
allows a triangle slack of ``TRIANGLE_TOL * (1 + d_ik + d_kj)``, so that
rounding alone refuses no metric at any scale.  numpy is imported only by
that check, by ``AlphaSpace._adopt`` and by ``AlphaSpace.alpha_prefix``.
Every record (these spaces, vectors, maps, results, reports) subclasses
``_Record``: its fields are its class body's annotated names, defaulting to
their class values; a missing, unknown or doubled one is a TypeError.  Checked
by ``__post_init__``, a record is frozen; it compares, hashes and prints by field.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from array import array
from typing import Any, Iterable, Sequence


class DomainError(ValueError):
    """A point, map or vector fell outside the space that owns it."""


class PrefixExhausted(DomainError):
    """An operation needed sequence-space data beyond the materialized prefix."""


class _Record:
    """An immutable record of the fields annotated in its class body; see the module docstring."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._names = frozenset(cls._fields)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._key = property(operator.attrgetter(*cls._fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if not kwargs and len(args) == len(fields):  # every field by position
            kwargs = dict(zip(fields, args))
        elif args or kwargs.keys() != self._names:  # not every field by name: fill the defaults, check the call
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            if values.keys() != self._names or len(args) > len(fields) or not kwargs.keys().isdisjoint(fields[:len(args)]):
                raise TypeError(f"{type(self).__qualname__}{fields} got {len(args)} by position "
                                f"and {tuple(kwargs)} by name")
            kwargs = values
        if len(kwargs) > 4:  # a result or report: the call's dict is kept, in one C call
            object.__setattr__(self, "__dict__", kwargs)
        else:  # a space, map or vector: fields set one at a time stay inline, so its method calls stay fast
            for name, value in kwargs.items():
                object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check and normalize the fields, through ``object.__setattr__``."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of an immutable record")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={_show(getattr(self, f))}' for f in self._fields)})"

    def replace(self, **changes):
        """This record with ``changes`` to some fields, built and checked afresh."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})


def _plain(v):
    """``v`` as JSON reads it back: each record in it, through tuples and lists, a dict of its
    fields, each tuple a list, and each float that is not finite null."""
    if isinstance(v, _Record):
        return {f: _plain(getattr(v, f)) for f in v._fields}
    if isinstance(v, (tuple, list)):
        return list(map(_plain, v))
    return None if isinstance(v, float) and not math.isfinite(v) else v


# ---------------------------------------------------------------------------
# metric validation

TRIANGLE_TOL = 1e-12


def validate_finite_metric(matrix: Sequence[Sequence[float]]) -> None:
    """Check symmetry, zero diagonal, positivity and all triangle inequalities.

    The triangle check lets d_ij exceed d_ik + d_kj by ``TRIANGLE_TOL * (1 +
    d_ik + d_kj)``, so a matrix and its multiples pass or fail alike.  Raises
    ``DomainError`` on the first violation, naming its kind and the offending
    entries, in the order shape, non-finite, diagonal, symmetry, negative,
    zero-off-diagonal, triangle.
    """
    import numpy as np  # 15-30x faster than Python here, and nowhere else needed
    d = np.asarray(matrix, dtype=float)

    def first(mask):  # argwhere only on a failing mask
        return tuple(int(v) for v in np.argwhere(mask)[0]) if mask.any() else None

    def fail(kind, detail):
        raise DomainError(f"not a metric ({kind}): {detail}")

    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        fail("shape", "matrix must be square")
    n = d.shape[0]
    if at := first(~np.isfinite(d)):
        fail("non-finite", f"non-finite entry d[{at[0]}][{at[1]}]")
    if at := first(np.diagonal(d) != 0.0):
        i = at[0]
        fail("diagonal", f"d[{i}][{i}] = {float(d[i, i])!r} != 0")
    if at := first(np.triu(d != d.T, 1)):
        fail("symmetry", f"d[{at[0]}][{at[1]}] != d[{at[1]}][{at[0]}]")
    if at := first(d < 0):
        i, j = at
        fail("negative", f"d[{i}][{j}] = {float(d[i, j])!r} < 0")
    if at := first(d + np.eye(n) == 0.0):  # the lifted diagonal leaves off-diagonal zeros
        i, j = at
        fail("zero-off-diagonal", f"d[{i}][{j}] = 0 with {i} != {j}")
    step = max(1, 2**14 // max(n * n, 1))  # pivots per block of about 2**14 sums
    e = (d - TRIANGLE_TOL) / (1.0 + TRIANGLE_TOL)  # the slack solved for d_ik + d_kj: one sum, one compare
    with np.errstate(over="ignore"):  # a sum past the float range is inf and flags nothing
        for k0 in range(0, n, step):
            if at := first(e[None] > d.T[k0:k0 + step, :, None] + d[k0:k0 + step, None, :]):
                k, i, j = at[0] + k0, at[1], at[2]
                fail("triangle", f"d[{i}][{j}] = {float(d[i, j])!r} > "
                                 f"d[{i}][{k}] + d[{k}][{j}] = {float(d[i, k] + d[k, j])!r}")


def cost_matrix(space, points) -> list[list[float]]:
    """The distances among checked ``points``, a ``space.distances`` row per point,
    or a DomainError naming the first pair whose distance is past the float range."""
    rows = [space.distances(p, points) for p in points]
    if not math.isfinite(sum(map(sum, rows))):  # a sum at C speed; only an overflow scans the rows
        for p, row in zip(points, rows):
            if math.inf in row:
                raise DomainError(f"distance between {p!r} and {points[row.index(math.inf)]!r} overflows a float")
    return rows


# ---------------------------------------------------------------------------
# the four presentations


class FiniteSpace(_Record):
    """Finite pointed metric space given by a full distance matrix.

    Points are the indices ``0..n-1``; ``labels`` optionally carries the
    payloads the points had in an ambient space they were restricted from.
    """

    matrix: tuple[tuple[float, ...], ...]
    basepoint: int = 0
    labels: tuple | None = None

    kind = "finite"

    def __post_init__(self):
        matrix = _reals(_rows(self.matrix, "distance matrix must be a list of rows"), "matrix entry")
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise DomainError("distance matrix must be square")
        basepoint = _coerce_number(self.basepoint, integral=True, what="basepoint")
        if not (0 <= basepoint < n):
            raise DomainError(f"basepoint {_show(basepoint)} outside 0..{n-1}")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "basepoint", basepoint)
        if self.labels is not None:  # one row of n labels
            object.__setattr__(self, "labels", _rows([self.labels], "labels must be a list, one per point", n)[0])
        validate_finite_metric(matrix)

    @property
    def size(self) -> int:
        return len(self.matrix)

    def points(self) -> range:
        return range(self.size)

    def check_point(self, p) -> int:
        if isinstance(p, (int, numbers.Integral)) and not isinstance(p, bool) and 0 <= p < self.size:
            return int(p)
        raise DomainError(f"point {_show(p)} not in finite space of size {self.size}")

    def distance(self, p, q) -> float:
        return self.matrix[p][q]

    def distances(self, p, points) -> list[float]:
        row = self.matrix[p]
        return [row[q] for q in points]


class AlphaSpace:
    """The natural numbers with the two-ray metric driven by a positive weight
    sequence: d(n, 0) = alpha_n and d(i, j) = alpha_i + alpha_j for distinct
    nonzero i, j.

    Only a finite prefix alpha_1..alpha_N is materialized; the points of the
    space are 0..N and anything needing weights past the prefix fails loudly
    instead of extrapolating.  The basepoint 0 carries no weight of its own.
    """

    kind = "alpha"
    basepoint = 0
    __setattr__ = __delattr__ = _Record.__setattr__  # frozen, as a record is

    def __init__(self, alpha: Iterable[float]):
        def weight(v):  # array('d') would read a bool as a number
            if isinstance(v, bool):
                raise TypeError("must be real number, not bool")
            return v
        # one buffer of doubles indexed by point, with 0.0 at the basepoint:
        # distance reads plain floats from it without a check (0.0 + alpha_n
        # is alpha_n bit for bit).  The weights are copied, so no caller's
        # buffer aliases a space, and checked without numpy
        if not isinstance(alpha, Iterable) or isinstance(alpha, str):
            raise DomainError("alpha weights must be a list")
        w = array("d", [0.0])
        try:
            w.extend(map(weight, alpha))
        except (TypeError, OverflowError) as exc:  # extend keeps the weights read before the bad one
            raise DomainError(f"alpha_{len(w)} is not a real number ({exc})") from None
        # min and sum run at C speed over a long prefix
        self._keep(w, len(w) > 1 and min(itertools.islice(w, 1, None)) > 0.0 and math.isfinite(sum(w)))

    @classmethod
    def _adopt(cls, weights: array | memoryview) -> "AlphaSpace":
        """A space that owns ``weights`` without copying it: doubles, 0.0 then alpha_1..alpha_N, in an
        array('d') or a 'd' memoryview (of a mapping, released with the space), so the space reads
        them only by index, slice, len, tolist, tobytes and ==; checked with numpy, which its one caller has loaded."""
        import numpy as np
        if not weights or weights[0] != 0.0:
            raise DomainError("alpha weights must lead with 0.0 at the basepoint")
        a = np.frombuffer(weights, dtype=np.float64, offset=weights.itemsize)
        space = cls.__new__(cls)
        space._keep(weights, len(a) > 0 and a.min() > 0.0 and math.isfinite(a.sum()))
        return space

    def _keep(self, w: array | memoryview, fine: bool) -> None:
        """Keep ``w`` as the weights; unless ``fine``, a loop names the first weight
        that is not a positive real (a sum past the float range alone is fine)."""
        if len(w) == 1:
            raise DomainError("alpha prefix must be nonempty")
        if not fine:
            bad = next((n for n in range(1, len(w)) if not 0.0 < w[n] < math.inf), None)
            if bad is not None:
                raise DomainError(f"alpha_{bad} = {w[bad]!r} is not a positive real")
        object.__setattr__(self, "_weights", w)

    @property
    def prefix_length(self) -> int:
        return len(self._weights) - 1

    def alpha(self, n: int) -> float:
        """Weight alpha_n for 1 <= n <= prefix length."""
        if not isinstance(n, (int, numbers.Integral)) or isinstance(n, bool) or n < 1:
            raise DomainError(f"alpha index {_show(n)} must be a positive integer")
        if n > self.prefix_length:
            raise PrefixExhausted(
                f"alpha_{_show(int(n))} requested but only {self.prefix_length} terms are materialized"
            )
        return self._weights[n]

    def alpha_prefix(self) -> "numpy.ndarray":
        """alpha_1..alpha_N as a read-only numpy view of the weights (no copy)."""
        import numpy as np
        arr = np.frombuffer(self._weights, dtype=float, offset=self._weights.itemsize)
        arr.setflags(write=False)
        return arr

    def points(self) -> range:
        """The materialized points 0..N."""
        return range(len(self._weights))

    def check_point(self, p) -> int:
        if isinstance(p, (int, numbers.Integral)) and not isinstance(p, bool) and p >= 0:
            if p < len(self._weights):
                return int(p)
            raise PrefixExhausted(f"point {_show(int(p))} lies past the materialized prefix of length {self.prefix_length}")
        raise DomainError(f"point {_show(p)} not in sequence space with prefix length {self.prefix_length}")

    def distance(self, p, q) -> float:
        if p == q:
            return 0.0
        try:
            return self._weights[p] + self._weights[q]
        except IndexError:
            raise PrefixExhausted(
                f"point {max(p, q)} lies past the materialized prefix of length {self.prefix_length}"
            ) from None

    def distances(self, p, points) -> list[float]:
        w = self._weights
        a = w[p]
        return [0.0 if p == q else a + w[q] for q in points]

    def __eq__(self, other):
        return isinstance(other, AlphaSpace) and self._weights == other._weights

    def __hash__(self):
        w = self._weights
        return hash(("alpha", len(w) - 1, w[1], w[-1]))

    def __repr__(self):
        return f"AlphaSpace(prefix_length={self.prefix_length})"


class IntervalSpace(_Record):
    """A real interval containing 0, with |x - y| and basepoint 0.

    Endpoints may be infinite.  Points are floats.
    """

    a: float = 0.0
    b: float = math.inf

    kind = "interval"
    basepoint = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", _endpoint(self.a))
        object.__setattr__(self, "b", _endpoint(self.b))
        if not (self.a <= 0.0 <= self.b):
            raise DomainError(f"interval [{self.a}, {self.b}] must contain the basepoint 0")
        if self.a >= self.b:
            raise DomainError("interval must have positive length")

    def check_point(self, p) -> float:
        # any real but bool and Fraction; the builtin types first, ahead of the ABC checks
        try:
            if (isinstance(p, (float, int, numbers.Real)) and not isinstance(p, bool)
                    and (isinstance(p, (float, int, numbers.Integral)) or not isinstance(p, numbers.Rational))
                    and math.isfinite(p) and self.a <= p <= self.b):
                return float(p)
        except OverflowError:  # isfinite of an int past the float range
            pass
        raise DomainError(f"point {_show(p)} not in interval [{self.a}, {self.b}]")

    def distance(self, p, q) -> float:
        return abs(p - q)

    def distances(self, p, points) -> list[float]:
        return [abs(p - q) for q in points]


class LatticeBox(_Record):
    """Integer box in Z^d with the taxicab metric; basepoint is the origin."""

    bounds: tuple[tuple[int, int], ...]

    kind = "lattice"

    def __post_init__(self):
        axes = _rows(self.bounds, "lattice bounds must be a list of [lo, hi] pairs", 2)
        bounds = tuple(tuple(_coerce_number(v, integral=True, what="bound") for v in axis) for axis in axes)
        if not bounds:
            raise DomainError("lattice box needs at least one axis")
        for ax, (lo, hi) in enumerate(bounds):
            if not (lo <= 0 <= hi):
                raise DomainError(f"axis {ax} bounds [{_show(lo)}, {_show(hi)}] must contain 0")
        object.__setattr__(self, "bounds", bounds)
        try:  # so that every distance, each at most the diameter, is a finite float
            float(sum(hi - lo for lo, hi in bounds))
        except OverflowError:
            raise DomainError("the l1 diameter of the lattice box overflows a float") from None

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def basepoint(self) -> tuple[int, ...]:
        return (0,) * self.dim

    def check_point(self, p) -> tuple[int, ...]:
        if isinstance(p, tuple) and len(p) == self.dim and all(
            isinstance(c, (int, numbers.Integral)) and not isinstance(c, bool) and lo <= c <= hi
            for c, (lo, hi) in zip(p, self.bounds)
        ):
            return tuple(int(c) for c in p)
        raise DomainError(f"point {_show(p)} not in lattice box {self.bounds}")

    def distance(self, p, q) -> float:
        return float(sum(map(abs, map(operator.sub, p, q))))

    def distances(self, p, points) -> list[float]:
        # exact integer sums, one axis at a time, rounded to float once as in ``distance``
        total = [abs(p[0] - q[0]) for q in points]
        for a in range(1, len(p)):
            x = p[a]
            total = [t + abs(x - q[a]) for t, q in zip(total, points)]
        return list(map(float, total))

    def points(self):
        """Enumerate the whole box (row-major); intended for small boxes."""
        ranges = [range(lo, hi + 1) for lo, hi in self.bounds]
        return itertools.product(*ranges)


def same_space(s, t) -> bool:
    return s is t or s == t


# ---------------------------------------------------------------------------
# restriction


def restrict_to_points(space, points: Sequence) -> FiniteSpace:
    """Finite restriction to the given points plus the basepoint.

    The basepoint is inserted (at index 0) whether or not it was listed.
    Distances are copied bit-for-bit from the ambient space; the checked
    points, in sorted order after the basepoint, are kept as labels.
    Duplicate points collapse; an empty point list is refused.
    """
    if not (points := _rows([points], "the points must be a list of points")[0]):
        raise DomainError("cannot restrict to an empty point list")
    base = space.basepoint
    ordered = [base] + sorted({space.check_point(p) for p in points} - {base})
    return FiniteSpace(matrix=cost_matrix(space, ordered), basepoint=0, labels=tuple(ordered))


# ---------------------------------------------------------------------------
# reading numbers, and the JSON wire format


def _coerce_number(v, integral: bool, what: str = "point"):
    """A number as an int (``integral``: 2.0 reads as 2) or a finite float, else DomainError."""
    if type(v) is (int if integral else float) and (integral or math.isfinite(v)):
        return v
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise DomainError(f"{what} {v!r} is not a number")
    try:  # a Fraction past the float range overflows in isfinite
        if not isinstance(v, numbers.Integral):
            if not math.isfinite(v) or (integral and not float(v).is_integer()):
                raise DomainError(f"{what} {v!r} is not a finite {'integer' if integral else 'number'}")
        return int(v) if integral else float(v)
    except OverflowError as exc:
        raise DomainError(f"{what} {_show(v)} is too large for a float") from exc


def _rows(rows, message: str, width: int | None = None) -> tuple[tuple, ...]:
    """``rows`` read once, as tuples (each ``width`` long if given), else DomainError(message); a str is no list."""
    try:
        rows = (rows,) if isinstance(rows, str) else tuple(rows)  # a str row is refused below
        if any(isinstance(row, str) for row in rows):
            raise TypeError
        rows = tuple(map(tuple, rows))
    except TypeError:  # rows, or a row, that is not iterable, or a str
        raise DomainError(message) from None
    if width is not None and any(len(row) != width for row in rows):
        raise DomainError(message)
    return rows


def _numbers(values, what: str, message: str, integral: bool = False) -> tuple:
    """``values`` read once as numbers called ``what``; a str or a non-iterable is refused whole, by ``_rows``."""
    return tuple(_coerce_number(v, integral, what) for v in _rows([values], message)[0])


def _reals(rows, what: str) -> tuple[tuple[float, ...], ...]:
    """Tuples of numbers read by ``_coerce_number``; floats with a finite sum pass at C speed."""
    if set(map(type, itertools.chain.from_iterable(rows))) <= {float} and math.isfinite(sum(map(sum, rows))):
        return rows
    return tuple(tuple(_coerce_number(v, integral=False, what=what) for v in row) for row in rows)


def _endpoint(v) -> float:
    """An interval end: +-inf, or a real read by ``_coerce_number``."""
    infinite = isinstance(v, numbers.Real) and v in (math.inf, -math.inf)
    return float(v) if infinite else _coerce_number(v, integral=False, what="interval endpoint")


def _show(v) -> str:
    """``repr(v)``, but an int too long to print (past ``sys.get_int_max_str_digits()``)
    is named by its size, in a tuple too."""
    try:
        return repr(v)
    except ValueError:  # only an int has no repr, alone or in a tuple
        if isinstance(v, tuple):
            return f"({', '.join(map(_show, v))}{',' * (len(v) == 1)})"
        return f"<{'a negative' if v < 0 else 'an'} integer of {v.bit_length()} bits>"


def _count(v, what: str, least: int = 1) -> int:
    """A count argument: ``v`` when it is an int of at least ``least``, else DomainError.
    A bool, a float (2.0 too) and a numpy integer are refused: none is an int."""
    if type(v) is int and v >= least:
        return v
    raise DomainError(f"{what} must be a nonnegative integer" if least == 0
                      else f"{what} must be an integer of at least {least}")


def _endpoint_to_json(x: float):
    return "inf" if x == math.inf else "-inf" if x == -math.inf else x


def _endpoint_from_json(v):
    return math.inf if v == "inf" else -math.inf if v == "-inf" else v


def space_to_json(space) -> dict:
    if isinstance(space, FiniteSpace):
        out: dict[str, Any] = {
            "kind": "finite",
            "matrix": [list(row) for row in space.matrix],
            "basepoint": space.basepoint,
        }
        if space.labels is not None:
            out["labels"] = [list(l) if isinstance(l, tuple) else l for l in space.labels]
        return out
    if isinstance(space, AlphaSpace):
        return {"kind": "alpha", "alpha": space._weights[1:].tolist()}
    if isinstance(space, IntervalSpace):
        return {"kind": "interval", "a": _endpoint_to_json(space.a), "b": _endpoint_to_json(space.b)}
    if isinstance(space, LatticeBox):
        return {"kind": "lattice", "bounds": [list(b) for b in space.bounds]}
    raise TypeError(f"not a space: {space!r}")


def space_from_json(obj: dict):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("space object must be a dict with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "finite":
            labels = obj.get("labels")
            if isinstance(labels, list):  # anything else is the constructor's to refuse
                labels = [tuple(l) if isinstance(l, list) else l for l in labels]
            return FiniteSpace(obj["matrix"], obj.get("basepoint", 0), labels)
        if kind == "alpha":
            return AlphaSpace(obj["alpha"])
        if kind == "interval":
            return IntervalSpace(_endpoint_from_json(obj.get("a", 0.0)), _endpoint_from_json(obj.get("b", "inf")))
        if kind == "lattice":
            return LatticeBox(obj["bounds"])
    except KeyError as exc:
        raise DomainError(f"space object missing field {exc}") from exc
    except TypeError as exc:  # a constructor should refuse every field by name; this is the net under it
        raise DomainError(f"space object has a malformed field: {exc}") from exc
    raise DomainError(f"unknown space kind {kind!r}")
