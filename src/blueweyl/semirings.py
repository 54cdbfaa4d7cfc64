"""Semiring-valued matrix points of the catalog models.

The catalog relations are sum-equalities without subtraction, so they can be
evaluated in any commutative semiring.  A matrix (plus values for auxiliary
generators such as the inverse determinant) is a point of a model when every
relation holds after evaluation; points are closed under the usual matrix
multiplication.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .blueprint import FormalSum, Monomial
from .catalog import GroupModel


class MissingAuxiliaryValue(Exception):
    pass


@dataclass(frozen=True)
class Semiring:
    """A commutative semiring with exact equality.

    ``contains`` tells whether a value is an element of the carrier, so
    input from outside can be rejected before it is evaluated.
    ``elements`` lists the full carrier for finite semirings (used by the
    exhaustive point counter) and is ``None`` for infinite ones.
    """

    name: str
    zero: object
    one: object
    add: Callable
    mul: Callable
    contains: Callable[[object], bool]
    elements: Optional[tuple] = None

    def eq(self, a, b) -> bool:
        return a == b

    def sum(self, values) -> object:
        total = self.zero
        for v in values:
            total = self.add(total, v)
        return total

    def prod(self, values) -> object:
        total = self.one
        for v in values:
            total = self.mul(total, v)
        return total


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


NATURALS = Semiring("naturals", 0, 1, lambda a, b: a + b, lambda a, b: a * b,
                    lambda v: _is_int(v) and v >= 0)

BOOLEAN = Semiring("boolean", 0, 1,
                   lambda a, b: a | b, lambda a, b: a & b,
                   lambda v: _is_int(v) and v in (0, 1),
                   elements=(0, 1))

_INF = float("inf")

TROPICAL = Semiring("tropical", _INF, 0,
                    lambda a, b: min(a, b), lambda a, b: a + b,
                    lambda v: (_is_int(v) or isinstance(v, float))
                    and (v == _INF or math.isfinite(v)))


def integers_mod(n: int) -> Semiring:
    if n < 2:
        raise ValueError("modulus must be at least 2")
    return Semiring(f"mod{n}", 0, 1,
                    lambda a, b: (a + b) % n, lambda a, b: (a * b) % n,
                    lambda v: _is_int(v) and 0 <= v < n,
                    elements=tuple(range(n)))


BUILTIN_SEMIRINGS = {
    "naturals": NATURALS,
    "boolean": BOOLEAN,
    "tropical": TROPICAL,
    "mod2": integers_mod(2),
    "mod3": integers_mod(3),
}


def check_semiring_axioms(S: Semiring, samples: Sequence) -> list[str]:
    """Property-check the axioms on a sample set; returns violations."""
    bad = []
    for a in samples:
        if not S.eq(S.add(a, S.zero), a):
            bad.append(f"{a} + 0 != {a}")
        if not S.eq(S.mul(a, S.one), a):
            bad.append(f"{a} * 1 != {a}")
        if not S.eq(S.mul(a, S.zero), S.zero):
            bad.append(f"{a} * 0 != 0")
        for b in samples:
            if not S.eq(S.add(a, b), S.add(b, a)):
                bad.append(f"{a} + {b} not commutative")
            if not S.eq(S.mul(a, b), S.mul(b, a)):
                bad.append(f"{a} * {b} not commutative")
            for c in samples:
                if not S.eq(S.add(S.add(a, b), c), S.add(a, S.add(b, c))):
                    bad.append("addition not associative")
                if not S.eq(S.mul(S.mul(a, b), c), S.mul(a, S.mul(b, c))):
                    bad.append("multiplication not associative")
                if not S.eq(S.mul(a, S.add(b, c)), S.add(S.mul(a, b), S.mul(a, c))):
                    bad.append("distributivity fails")
    return bad


# ---------------------------------------------------------------------------
# Point matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointMatrix:
    """A square matrix over a semiring, row-major entries."""

    dimension: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.dimension ** 2:
            raise ValueError("entry count does not match the dimension")

    def at(self, i: int, j: int):
        return self.entries[(i - 1) * self.dimension + (j - 1)]


def identity_matrix(n: int, S: Semiring) -> PointMatrix:
    return PointMatrix(n, tuple(S.one if i == j else S.zero
                                for i in range(n) for j in range(n)))


def _assignment(model: GroupModel, M: PointMatrix, S: Semiring,
                aux: Optional[dict] = None) -> list:
    if model.spectrum_override is not None:
        # the presentation of a model given by its points carries no
        # relations, so every matrix would pass
        raise ValueError(f"{model.name} is given by its points, not by relations, "
                         f"so its semiring points cannot be checked")
    B = model.presentation
    n = model.dimension
    if M.dimension != n:
        raise ValueError(f"expected a {n}x{n} matrix for {model.name}")
    stray = [name for name in aux or () if name not in model.aux_names]
    if stray:
        raise ValueError(f"{model.name} has no auxiliary generators {stray}")
    values = list(M.entries)
    for name in model.aux_names:
        if aux is None or name not in aux:
            raise MissingAuxiliaryValue(
                f"{model.name} needs a value for the auxiliary generator {name}")
        values.append(aux[name])
    bad = [v for v in values if not S.contains(v)]
    if bad:
        raise ValueError(f"not elements of {S.name}: {bad}")
    if len(values) != B.width:
        raise ValueError("assignment width does not match the presentation")
    return values


def _eval_monomial(t: Monomial, values: Sequence, S: Semiring):
    if t.zero:
        return S.zero
    if t.sign:
        raise ValueError("catalog relations are subtraction-free")
    factors = []
    for g, e in enumerate(t.exps):
        factors.extend([values[g]] * e)
    return S.prod(factors)


def _eval_sum(s: FormalSum, values: Sequence, S: Semiring):
    return S.sum(_eval_monomial(t, values, S) for t in s.terms)


def is_point(model: GroupModel, M: PointMatrix, S: Semiring,
             aux: Optional[dict] = None) -> bool:
    """Evaluate every relation of the model; True when all hold in S."""
    values = _assignment(model, M, S, aux)
    B = model.presentation
    return all(S.eq(_eval_sum(rel.lhs, values, S), _eval_sum(rel.rhs, values, S))
               for rel in B.relations)


def multiply(M: PointMatrix, N: PointMatrix, S: Semiring) -> PointMatrix:
    if M.dimension != N.dimension:
        raise ValueError("dimension mismatch")
    n = M.dimension
    entries = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entries.append(S.sum(S.mul(M.at(i, k), N.at(k, j))
                                 for k in range(1, n + 1)))
    return PointMatrix(n, tuple(entries))


def hom_count(model: GroupModel, S: Semiring, bound: int = 200_000) -> int:
    """Exhaustive count of the S-valued points of a small model.

    Requires a finite carrier; the auxiliary generators range over the
    carrier as well.  ``bound`` caps the number of evaluated assignments.
    """
    if S.elements is None:
        raise ValueError(f"{S.name} has no finite carrier to enumerate")
    n = model.dimension
    slots = n * n + len(model.aux_names)
    total = len(S.elements) ** slots
    if total > bound:
        raise ValueError(f"enumeration of {total} assignments exceeds the bound {bound}")
    count = 0
    for combo in itertools.product(S.elements, repeat=slots):
        M = PointMatrix(n, combo[:n * n])
        aux = dict(zip(model.aux_names, combo[n * n:]))
        if is_point(model, M, S, aux or None):
            count += 1
    return count
