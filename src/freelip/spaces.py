"""Pointed metric spaces in four concrete presentations.

Every space designates a basepoint and exposes the same small interface:
``check_point``, ``distance``, ``distances``, ``cost_matrix`` and ``kind``.
Points are carried as plain payloads -- an index for finite and sequence
spaces, a float for intervals, an integer tuple for lattice boxes.

A point is validated once, where it enters the system: ``check_point`` is
the one membership test.  It returns the point in canonical form (an int, a
float or an int tuple), which is hashable, sortable and compares by value, or
raises ``DomainError`` (``PrefixExhausted`` past a sequence prefix).
``distance`` takes checked points and does not check them again; a bad index
would wrap or fail obscurely.
``distances(p, points)`` is ``[distance(p, q) for q in points]`` bit for bit,
in one pass; only a lattice box calls ``distance`` per point.
``cost_matrix(points)`` gives the distances among checked points as a list of
rows, each entry bit-identical to ``distance``: a row of ``distances`` each,
or exact integer sums an axis at a time on a lattice box.  numpy is imported
only by the triangle check of ``validate_finite_metric`` and by
``AlphaSpace.alpha_prefix``.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from array import array
from dataclasses import dataclass
from typing import Any, Iterable, Sequence


class DomainError(ValueError):
    """A point, map or vector fell outside the space that owns it."""


class PrefixExhausted(DomainError):
    """An operation needed sequence-space data beyond the materialized prefix."""


# ---------------------------------------------------------------------------
# metric validation

TRIANGLE_TOL = 1e-12


def validate_finite_metric(matrix: Sequence[Sequence[float]]) -> None:
    """Check symmetry, zero diagonal, positivity and all triangle inequalities.

    The triangle check allows an absolute slack of ``TRIANGLE_TOL``.  Raises
    ``DomainError`` on the first violation, naming its kind and the offending
    entries, in the order shape, non-finite, diagonal, symmetry, negative,
    zero-off-diagonal, triangle.
    """
    import numpy as np  # 15-30x faster than Python here, and nowhere else needed
    d = np.asarray(matrix, dtype=float)

    def first(mask):
        at = np.argwhere(mask)
        return tuple(int(v) for v in at[0]) if len(at) else None

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
    with np.errstate(over="ignore"):  # a sum past the float range is inf and flags nothing
        for k0 in range(0, n, step):
            if at := first(d[None] - (d.T[k0:k0 + step, :, None] + d[k0:k0 + step, None, :]) > TRIANGLE_TOL):
                k, i, j = at[0] + k0, at[1], at[2]
                fail("triangle", f"d[{i}][{j}] = {float(d[i, j])!r} > "
                                 f"d[{i}][{k}] + d[{k}][{j}] = {float(d[i, k] + d[k, j])!r}")


def _finite_rows(rows: list[list[float]], points) -> list[list[float]]:
    """``rows`` of distances, or a DomainError naming the first one past the float range."""
    if max(map(max, rows), default=0.0) == math.inf:
        i, j = next((i, row.index(math.inf)) for i, row in enumerate(rows) if math.inf in row)
        raise DomainError(f"distance between {points[i]!r} and {points[j]!r} overflows a float")
    return rows


# ---------------------------------------------------------------------------
# the four presentations


@dataclass(frozen=True)
class FiniteSpace:
    """Finite pointed metric space given by a full distance matrix.

    Points are the indices ``0..n-1``; ``labels`` optionally carries the
    payloads the points had in an ambient space they were restricted from.
    """

    matrix: tuple[tuple[float, ...], ...]
    basepoint: int = 0
    labels: tuple | None = None

    kind = "finite"

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise DomainError("distance matrix must be square")
        if not (0 <= self.basepoint < n):
            raise DomainError(f"basepoint {self.basepoint} outside 0..{n-1}")
        if self.labels is not None and len(self.labels) != n:
            raise DomainError("labels must align with the matrix")
        validate_finite_metric(self.matrix)

    @property
    def size(self) -> int:
        return len(self.matrix)

    def points(self) -> range:
        return range(self.size)

    def check_point(self, p) -> int:
        if isinstance(p, (int, numbers.Integral)) and not isinstance(p, bool) and 0 <= p < self.size:
            return int(p)
        raise DomainError(f"point {p!r} not in finite space of size {self.size}")

    def distance(self, p, q) -> float:
        return self.matrix[p][q]

    def distances(self, p, points) -> list[float]:
        row = self.matrix[p]
        return [row[q] for q in points]

    def cost_matrix(self, points) -> list[list[float]]:
        return [self.distances(p, points) for p in points]


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

    def __init__(self, alpha: Iterable[float]):
        # one buffer of doubles indexed by point, with 0.0 at the basepoint:
        # distance reads plain floats from it without a check (0.0 + alpha_n
        # is alpha_n bit for bit); an array('d') argument is copied as memory
        w = array("d", [0.0])
        try:
            w.extend(alpha if isinstance(alpha, array) and alpha.typecode == "d" else iter(alpha))
        except (TypeError, OverflowError) as exc:  # extend keeps the weights read before the bad one
            raise DomainError(f"alpha_{len(w)} is not a real number ({exc})") from None
        if len(w) == 1:
            raise DomainError("alpha prefix must be nonempty")
        # min and sum run at C speed over a long prefix; the loop only names the culprit
        if not (min(itertools.islice(w, 1, None)) > 0.0 and math.isfinite(sum(w))):
            bad = next((n for n in range(1, len(w)) if not 0.0 < w[n] < math.inf), None)
            if bad is not None:  # else only the sum overflowed
                raise DomainError(f"alpha_{bad} = {w[bad]!r} is not a positive real")
        self._weights = w

    @property
    def prefix_length(self) -> int:
        return len(self._weights) - 1

    def alpha(self, n: int) -> float:
        """Weight alpha_n for 1 <= n <= prefix length."""
        if not isinstance(n, (int, numbers.Integral)) or isinstance(n, bool) or n < 1:
            raise DomainError(f"alpha index {n!r} must be a positive integer")
        if n > self.prefix_length:
            raise PrefixExhausted(
                f"alpha_{n} requested but only {self.prefix_length} terms are materialized"
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
            raise PrefixExhausted(f"point {p} lies past the materialized prefix of length {self.prefix_length}")
        raise DomainError(f"point {p!r} not in sequence space with prefix length {self.prefix_length}")

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

    def cost_matrix(self, points) -> list[list[float]]:
        return _finite_rows([self.distances(p, points) for p in points], points)

    def __eq__(self, other):
        return isinstance(other, AlphaSpace) and self._weights == other._weights

    def __hash__(self):
        w = self._weights
        return hash(("alpha", len(w) - 1, w[1], w[-1]))

    def __repr__(self):
        return f"AlphaSpace(prefix_length={self.prefix_length})"


@dataclass(frozen=True)
class IntervalSpace:
    """A real interval containing 0, with |x - y| and basepoint 0.

    Endpoints may be infinite.  Points are floats.
    """

    a: float = 0.0
    b: float = math.inf

    kind = "interval"
    basepoint = 0.0

    def __post_init__(self):
        if math.isnan(self.a) or math.isnan(self.b):
            raise DomainError("interval endpoints must not be NaN")
        if not (self.a <= 0.0 <= self.b):
            raise DomainError(f"interval [{self.a}, {self.b}] must contain the basepoint 0")
        if self.a >= self.b:
            raise DomainError("interval must have positive length")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.a) and math.isfinite(self.b)

    def check_point(self, p) -> float:
        # any real but bool and Fraction; the builtin types first, ahead of the ABC checks
        try:
            if (isinstance(p, (float, int, numbers.Real)) and not isinstance(p, bool)
                    and (isinstance(p, (float, int, numbers.Integral)) or not isinstance(p, numbers.Rational))
                    and math.isfinite(p) and self.a <= p <= self.b):
                return float(p)
        except OverflowError:  # isfinite of an int past the float range
            pass
        raise DomainError(f"point {p!r} not in interval [{self.a}, {self.b}]")

    def distance(self, p, q) -> float:
        return abs(p - q)

    def distances(self, p, points) -> list[float]:
        return [abs(p - q) for q in points]

    def cost_matrix(self, points) -> list[list[float]]:
        return _finite_rows([self.distances(x, points) for x in points], points)


@dataclass(frozen=True)
class LatticeBox:
    """Integer box in Z^d with the taxicab metric; basepoint is the origin."""

    bounds: tuple[tuple[int, int], ...]

    kind = "lattice"

    def __post_init__(self):
        if not self.bounds:
            raise DomainError("lattice box needs at least one axis")
        for ax, (lo, hi) in enumerate(self.bounds):
            if not (lo <= 0 <= hi):
                raise DomainError(f"axis {ax} bounds [{lo}, {hi}] must contain 0")

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
        raise DomainError(f"point {p!r} not in lattice box {self.bounds}")

    def distance(self, p, q) -> float:
        return float(sum(map(abs, map(operator.sub, p, q))))

    def distances(self, p, points) -> list[float]:
        return [self.distance(p, q) for q in points]

    def cost_matrix(self, points) -> list[list[float]]:
        # exact integer sums, one axis at a time, rounded to float once as in ``distance``
        n = len(points)
        total = itertools.repeat([0] * n, n)
        for col in zip(*points):
            total = [list(map(operator.add, row, [abs(x - y) for y in col])) for row, x in zip(total, col)]
        return [list(map(float, row)) for row in total]

    def points(self):
        """Enumerate the whole box (row-major); intended for small boxes."""
        ranges = [range(lo, hi + 1) for lo, hi in self.bounds]
        return itertools.product(*ranges)

    def size(self) -> int:
        n = 1
        for lo, hi in self.bounds:
            n *= hi - lo + 1
        return n


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
    if len(points) == 0:
        raise DomainError("cannot restrict to an empty point list")
    base = space.basepoint
    ordered = [base] + sorted({space.check_point(p) for p in points} - {base})
    matrix = tuple(map(tuple, space.cost_matrix(ordered)))
    return FiniteSpace(matrix=matrix, basepoint=0, labels=tuple(ordered))


# ---------------------------------------------------------------------------
# JSON wire format


def _coerce_number(v, integral: bool, what: str = "point"):
    """A JSON number as an int (``integral``: 2.0 reads as 2) or a finite float, else DomainError."""
    if type(v) is (int if integral else float) and (integral or math.isfinite(v)):
        return v
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise DomainError(f"{what} {v!r} is not a number")
    if not isinstance(v, numbers.Integral):
        if not math.isfinite(v) or (integral and not float(v).is_integer()):
            raise DomainError(f"{what} {v!r} is not a finite {'integer' if integral else 'number'}")
    try:
        return int(v) if integral else float(v)
    except OverflowError as exc:
        raise DomainError(f"{what} {v} is too large for a float") from exc


def _endpoint_to_json(x: float):
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return x


def _endpoint_from_json(v) -> float:
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return _coerce_number(v, integral=False, what="interval endpoint")


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
            if labels is not None:
                labels = tuple(tuple(l) if isinstance(l, list) else l for l in labels)
            return FiniteSpace(
                matrix=tuple(tuple(_coerce_number(x, integral=False, what="matrix entry") for x in row)
                             for row in obj["matrix"]),
                basepoint=_coerce_number(obj.get("basepoint", 0), integral=True, what="basepoint"),
                labels=labels,
            )
        if kind == "alpha":
            return AlphaSpace([_coerce_number(a, integral=False, what="alpha weight") for a in obj["alpha"]])
        if kind == "interval":
            return IntervalSpace(_endpoint_from_json(obj.get("a", 0.0)), _endpoint_from_json(obj.get("b", "inf")))
        if kind == "lattice":
            bounds = [[_coerce_number(v, integral=True, what="bound") for v in b] for b in obj["bounds"]]
            return LatticeBox(tuple(map(tuple, bounds)))
    except DomainError:
        raise
    except KeyError as exc:
        raise DomainError(f"space object missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"space object has a malformed field: {exc}") from exc
    raise DomainError(f"unknown space kind {kind!r}")
