"""Finitely supported elements of the free transportation space over a
pointed metric space, written as combinations of point evaluations
``sum_i c_i * delta(x_i)``.

Vectors are kept canonical: support sorted by the checked points,
duplicates merged, the basepoint (whose evaluation is the zero vector)
removed, and coefficients below DROP_TOL times the largest |coefficient|
discarded, so the drop rule is the same at every scale.  All operations
return new vectors; nothing here mutates.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from .spaces import DomainError, _coerce_number, _Record, _rows, _show, same_space, space_from_json, space_to_json

DROP_TOL = 1e-15
_PAIRS = "pairs must be a list of (point, coefficient) pairs"


class FreeVector(_Record):
    space: object
    terms: tuple[tuple[object, float], ...]

    def support(self) -> tuple:
        return tuple(p for p, _ in self.terms)

    def coefficients(self) -> tuple[float, ...]:
        return tuple(c for _, c in self.terms)

    def coefficient(self, p) -> float:
        return dict(self.terms).get(p, 0.0)

    def total_mass(self) -> float:
        return sum(c for _, c in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)


def make_free_vector(space, pairs: Iterable[tuple[object, float]]) -> FreeVector:
    """Canonicalize ``pairs`` of (point, coefficient) into a FreeVector.

    Points are validated here, where they enter, and merged under exact
    coordinate equality.  The basepoint, exact zeros and any coefficient with
    |c| < DROP_TOL * max |c| (over the merged, non-basepoint coefficients)
    vanish.  A coefficient is a real read by ``_coerce_number``; one that is
    NaN or infinite, or a merged one past the float range, raises DomainError.
    """
    acc: dict = {}
    try:
        for pair in pairs:
            p, c = pair
            q = space.check_point(p)
            acc[q] = acc.get(q, 0.0) + (c if type(c) is float else _coerce_number(c, integral=False, what="coefficient"))
            if not math.isfinite(acc[q]):  # a NaN or infinite float, or a sum past the float range
                raise DomainError(f"coefficient at point {q!r} is not finite: {acc[q]!r}")
    except DomainError:
        if type(pair) is not str:  # a str of two characters unpacks, and no space takes a character as a point
            raise
        raise DomainError(_PAIRS) from None
    except (TypeError, ValueError):  # pairs, or a pair, that is not an iterable of two
        raise DomainError(_PAIRS) from None
    acc.pop(space.basepoint, None)
    floor = DROP_TOL * max(map(abs, acc.values()), default=0.0)
    terms = tuple((q, c) for q, c in sorted(acc.items()) if c != 0.0 and abs(c) >= floor)
    return FreeVector(space=space, terms=terms)


def delta(space, p) -> FreeVector:
    """The evaluation vector of a single point (zero if p is the basepoint)."""
    return make_free_vector(space, [(p, 1.0)])


def linear_combine(parts: Iterable[tuple[float, FreeVector]]) -> FreeVector:
    """``sum_j a_j * mu_j`` for vectors over one common space."""
    if not (parts := _rows(parts, "linear_combine needs a list of (scalar, vector) pairs", 2)):
        raise DomainError("linear_combine needs at least one term")
    pairs = []
    for a, mu in parts:
        a = _coerce_number(a, integral=False, what="scalar")
        if not isinstance(mu, FreeVector):
            raise DomainError(f"linear_combine part {_show(mu)} is not a FreeVector")
        if not same_space(mu.space, parts[0][1].space):
            raise DomainError("cannot combine vectors over different spaces")
        pairs.extend((p, a * c) for p, c in mu.terms)
    return make_free_vector(parts[0][1].space, pairs)


def push_forward(f, mu: FreeVector) -> FreeVector:
    """Image of ``mu`` under the linearization of the map ``f``:
    ``sum c_i delta(f(x_i))``, recanonicalized (collisions merge, images at
    the basepoint vanish)."""
    if not same_space(f.space, mu.space):
        raise DomainError("map and vector live over different spaces")
    return make_free_vector(mu.space, [(f.apply(p), c) for p, c in mu.terms])


class Functional(_Record):
    """A real rule on points vanishing at the basepoint, with a declared
    Lipschitz bound.  The bound is a promise used in duality estimates, not
    something verified pointwise at construction (only the basepoint value
    is checked)."""

    space: object
    fn: Callable[[object], float]
    lip_bound: float
    name: str = ""

    def __post_init__(self):
        v = self.fn(self.space.basepoint)
        if abs(v) > 1e-12:
            raise DomainError(f"functional must vanish at the basepoint, got {v!r}")
        lip_bound = _coerce_number(self.lip_bound, integral=False, what="Lipschitz bound")
        if not lip_bound >= 0:
            raise DomainError("Lipschitz bound must be a nonnegative real")
        object.__setattr__(self, "lip_bound", lip_bound)

    def __call__(self, p) -> float:
        return float(self.fn(self.space.check_point(p)))


def pair(phi: Functional, mu: FreeVector) -> float:
    """Duality pairing ``<phi, mu> = sum c_i phi(x_i)``."""
    if not same_space(phi.space, mu.space):
        raise DomainError("functional and vector live over different spaces")
    return sum(c * phi(p) for p, c in mu.terms)


# ---------------------------------------------------------------------------
# JSON wire format


def point_to_json(p):
    if isinstance(p, tuple):
        return [int(c) for c in p]
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        # numpy scalars subclass int/float where it matters; anything else
        # (dicts, strings, ...) is a caller bug, not a serializable point.
        raise TypeError(f"not a point payload: {p!r}")
    return p


def vector_to_json(mu: FreeVector) -> dict:
    return {
        "space": space_to_json(mu.space),
        "terms": [[point_to_json(p), c] for p, c in mu.terms],
    }


def vector_from_json(obj: dict, space=None) -> FreeVector:
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise DomainError("vector object must be a dict with a 'terms' array")
    if space is None:
        if "space" not in obj:
            raise DomainError("vector object must embed its space")
        space = space_from_json(obj["space"])
    pairs = []
    for entry in obj["terms"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise DomainError(f"bad term {entry!r}: expected [point, coefficient]")
        p, c = entry
        pairs.append((coerce_point(space, p), c))
    return make_free_vector(space, pairs)


def coerce_point(space, p):
    """A point payload parsed from JSON, in the form ``space`` carries its
    points: an int index (finite, alpha), a float (interval) or an int tuple
    (lattice).  An integral float such as 2.0 is read as the index 2; bools,
    non-integral or non-finite numbers and payloads of the wrong shape raise
    DomainError.  Membership is checked where the point is handed on
    (``make_free_vector``, ``classify_orbit``, ``rigidity_check``)."""
    if space.kind != "lattice":
        return _coerce_number(p, integral=space.kind != "interval")
    if not isinstance(p, (list, tuple)):
        raise DomainError(f"lattice point {p!r} must be an array of integers")
    return tuple(_coerce_number(c, integral=True) for c in p)

