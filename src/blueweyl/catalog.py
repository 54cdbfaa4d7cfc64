"""Catalog of group models: presentations with comultiplications.

Each constructor returns a :class:`GroupModel` bundling a blueprint
presentation (matrix coordinates named T1, T2, ... row-major, plus an
auxiliary generator ``d`` for the inverse determinant where needed), the
matrix comultiplication, the counit pattern picking the identity, and the
expected combinatorial metadata, which only the tests and CI read.

Two projective models of the rank-one adjoint group ship as certified point
data instead of eliminated ideals: their spectra come from sampling matrix
families over small fields, while the comultiplication acts on the ambient
coordinates.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .blueprint import (
    BlueprintPresentation,
    Monomial,
    NormalFormBlueField,
    _embed,
    _relation_images,
    _symmetry_violation,
    make_presentation,
    mk_free,
    one_monomial,
    relation,
    tensor,
)
from .spectrum import GENERATOR_CAP, PrimePoint, enumerate_primes
from .weyl import (
    Comultiplication,
    RankSpacePoint,
    WeylMonoid,
    comultiplication,
    induced_weyl_law,
    rank_space,
    tits_points,
)


class CatalogError(Exception):
    pass


def _is_integer(value) -> bool:
    """An integer as JSON gives it: a number with no fraction or exponent.
    Strings, floats and true/false are not read as integers."""
    return type(value) is int


def _integer_rows(value, what: str) -> tuple[tuple[int, ...], ...]:
    """``value`` read by shape as a list of rows of integers (tuples are
    taken too), else a CatalogError naming ``what``."""
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and all(map(_is_integer, row)) for row in value):
        raise CatalogError(f"{what} is not a list of integer rows")
    return tuple(tuple(row) for row in value)


@dataclass(frozen=True)
class GroupModel:
    """A presented model of a group together with its comonoid data."""

    name: str
    presentation: BlueprintPresentation
    comult: Comultiplication
    counit_zero: frozenset[int]
    dimension: int = 0
    aux_names: tuple[str, ...] = ()
    expected: dict = field(default_factory=dict, compare=False, hash=False)
    spectrum_override: Optional[tuple[PrimePoint, ...]] = None
    rank_override: Optional[tuple[RankSpacePoint, ...]] = None
    rank_point_filter: Optional[Callable[[PrimePoint], bool]] = field(
        default=None, compare=False, hash=False)
    # the rank points, computed once; dataclasses.replace starts unset
    _rank_points: Optional[tuple[RankSpacePoint, ...]] = field(
        default=None, init=False, compare=False, hash=False, repr=False)

    def spectrum(self) -> list[PrimePoint]:
        if self.spectrum_override is not None:
            return list(self.spectrum_override)
        return enumerate_primes(self.presentation)

    def rank_points(self) -> list[RankSpacePoint]:
        if self._rank_points is None:
            if self.rank_override is not None:
                pts = list(self.rank_override)
            else:
                pts = rank_space(self.presentation)
            if self.rank_point_filter is not None:
                pts = [p for p in pts if self.rank_point_filter(p.point)]
            object.__setattr__(self, "_rank_points", tuple(pts))
        return list(self._rank_points)

    def weyl_monoid(self) -> WeylMonoid:
        return induced_weyl_law(self.presentation, self.comult, self.counit_zero,
                                self.rank_points())

    def tits_points(self, m: int):
        return tits_points(self.presentation, m, self.rank_points(),
                           delta=self.comult, counit_zero=self.counit_zero)


# ---------------------------------------------------------------------------
# Matrix coordinate helpers
# ---------------------------------------------------------------------------


def _entry_names(n: int) -> list[str]:
    return [f"T{k + 1}" for k in range(n * n)]


def _eidx(n: int, i: int, j: int) -> int:
    """Generator index of the matrix entry (i, j), 1-based."""
    return (i - 1) * n + (j - 1)


def _entry_pairs(n: int) -> dict[int, tuple[int, int]]:
    return {_eidx(n, i, j): (i, j)
            for i in range(1, n + 1) for j in range(1, n + 1)}


def _mono(width: int, entries: Sequence[int]) -> Monomial:
    exps = [0] * width
    for g in entries:
        exps[g] += 1
    return Monomial(0, tuple(exps))


def _perm_sign(sigma: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def determinant_relation(n: int, width: int, extra: Sequence[int] = ()):
    """Even permutation products == odd permutation products + 1."""
    even, odd = [], []
    for sigma in itertools.permutations(range(n)):
        term = _mono(width, [_eidx(n, i + 1, sigma[i] + 1) for i in range(n)] + list(extra))
        (even if _perm_sign(sigma) == 1 else odd).append(term)
    return relation(even, odd + [one_monomial(width)])


def _matrix_comult(n: int, width: int, extra_diag: Sequence[int] = ()) -> Comultiplication:
    """T_ij maps to the sum over k of T'_ik (x) T''_kj; extras map to g' (x) g''."""
    images: list[list[tuple[Monomial, Monomial]]] = [[] for _ in range(width)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            g = _eidx(n, i, j)
            images[g] = [(_mono(width, [_eidx(n, i, k)]), _mono(width, [_eidx(n, k, j)]))
                         for k in range(1, n + 1)]
    for g in extra_diag:
        images[g] = [(_mono(width, [g]), _mono(width, [g]))]
    return comultiplication(images)


def _diagonal_counit(n: int, width: int, keep: Sequence[int] = ()) -> frozenset[int]:
    alive = {_eidx(n, i, i) for i in range(1, n + 1)} | set(keep)
    return frozenset(g for g in range(width) if g not in alive)


def perm_of_pattern(model: GroupModel, p: PrimePoint) -> Optional[tuple[int, ...]]:
    """The permutation whose support is the non-vanishing entries, if any."""
    n = model.dimension
    alive = [(i, j) for g, (i, j) in _entry_pairs(n).items() if g not in p.gens]
    if len(alive) != n:
        return None
    sigma = [0] * n
    rows = set()
    cols = set()
    for i, j in alive:
        sigma[i - 1] = j - 1
        rows.add(i)
        cols.add(j)
    if len(rows) != n or len(cols) != n:
        return None
    return tuple(sigma)


# ---------------------------------------------------------------------------
# Coordinate symmetries
# ---------------------------------------------------------------------------
#
# A row permutation pi and a column permutation tau act on the matrix
# coordinates by T_ij -> T_pi(i)tau(j); where they respect the relations
# they are blueprint automorphisms (Weyl group elements acting from the left
# and from the right), and the presentation carries a few of them as
# generators for the prime search and the pseudo-Hopf scan.


def _transpositions(n: int, pairs: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """The product of disjoint transpositions of range(n)."""
    perm = list(range(n))
    for a, b in pairs:
        perm[a], perm[b] = b, a
    return tuple(perm)


def _adjacent_swaps(n: int) -> list[tuple[int, ...]]:
    """Generators of all permutations of range(n)."""
    return [_transpositions(n, [(i, i + 1)]) for i in range(n - 1)]


def _pair_swaps(n: int) -> list[tuple[int, ...]]:
    """Swaps of neighbouring pairs of the pairing i <-> n-1-i (0-based)."""
    return [_transpositions(n, [(k, k + 1), (n - 1 - k, n - 2 - k)])
            for k in range(n // 2 - 1)]


def _inner_flip(n: int) -> tuple[int, ...]:
    """The swap inside the innermost pair; with the pair swaps it generates
    every permutation keeping the pairing."""
    return _transpositions(n, [(n // 2 - 1, n - n // 2)])


def _row_column_moves(row_moves: Sequence[tuple[int, ...]],
                      signed: bool) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(r, 1) and (1, r) for every move r.

    With ``signed`` (a determinant relation is present) an odd r is paired
    with the first odd move instead of the identity, so that every move
    has sgn pi = sgn tau.
    """
    odd = [r for r in row_moves if _perm_sign(r) < 0]
    moves = []
    for r in row_moves:
        other = odd[0] if signed and _perm_sign(r) < 0 else tuple(range(len(r)))
        moves += [(r, other), (other, r)]
    return moves


def _with_coordinate_symmetries(B: BlueprintPresentation, n: int,
                                moves) -> BlueprintPresentation:
    """B carrying the row/column moves as symmetries, plus the transpose
    where it is one; generators past the n^2 entries (``d``) stay fixed.

    The presentation checks every move, so a move that is no symmetry
    raises ``ValueError``.
    """
    width = B.width
    identity = tuple(range(width))
    gens = []
    for pi, tau in moves:
        sigma = list(identity)
        for i in range(n):
            for j in range(n):
                sigma[i * n + j] = pi[i] * n + tau[j]
        gens.append(tuple(sigma))
    transpose = list(identity)
    for i in range(n):
        for j in range(n):
            transpose[i * n + j] = j * n + i
    if _symmetry_violation(B, transpose, set(_relation_images(B, identity))) is None:
        gens.append(tuple(transpose))
    gens = tuple(dict.fromkeys(g for g in gens if g != identity))
    return dataclasses.replace(B, symmetries=gens)


# ---------------------------------------------------------------------------
# Matrix models: special and general linear, symplectic, orthogonal groups
# ---------------------------------------------------------------------------


MODEL_CAP = 6


def _matrix_model(name: str, n: int, rels, moves, expected: dict,
                  inverse_det: bool = False) -> GroupModel:
    """The model with the relations ``rels`` on the n x n matrix entries,
    plus the inverse determinant ``d`` with ``inverse_det``.

    It carries the row/column ``moves`` and the transpose as symmetries
    (see :func:`_with_coordinate_symmetries`), the matrix comultiplication
    and the diagonal counit; ``d`` maps to d' (x) d'' and stays alive.
    """
    aux = ("d",) if inverse_det else ()
    width = n * n + len(aux)
    aux_gens = range(n * n, width)
    B = make_presentation(_entry_names(n) + list(aux), (), 1, rels)
    return GroupModel(
        name=name,
        presentation=_with_coordinate_symmetries(B, n, moves),
        comult=_matrix_comult(n, width, extra_diag=aux_gens),
        counit_zero=_diagonal_counit(n, width, keep=aux_gens),
        dimension=n,
        aux_names=aux,
        expected=expected,
    )


def sl(n: int) -> GroupModel:
    """The determinant-one matrix model on n^2 coordinates."""
    if not 2 <= n <= MODEL_CAP:
        raise CatalogError(f"sl({n}): supported range is 2..{MODEL_CAP}")
    return _matrix_model(
        f"sl:{n}", n, [determinant_relation(n, n * n)],
        _row_column_moves(_adjacent_swaps(n), True),
        {"rank": n - 1, "weyl_order": math.factorial(n), "weyl_type": f"A{n - 1}",
         "tits_f1": math.factorial(n) // 2, "tits_f12": 2 ** (n - 1) * math.factorial(n)})


def gl(n: int) -> GroupModel:
    """Invertible matrices via the block embedding into sl(n+1).

    The surviving relation is d * (even products) == d * (odd products) + 1
    on the n^2 entries plus the inverse-determinant generator d.
    """
    if not 1 <= n <= MODEL_CAP:
        raise CatalogError(f"gl({n}): supported range is 1..{MODEL_CAP}")
    return _matrix_model(
        f"gl:{n}", n, [determinant_relation(n, n * n + 1, extra=[n * n])],
        _row_column_moves(_adjacent_swaps(n), True),
        {"rank": n, "weyl_order": math.factorial(n),
         "weyl_type": f"A{n - 1}" if n > 1 else "trivial",
         "tits_f12": 2 ** n * math.factorial(n)},
        inverse_det=True)


def sp(dim: int) -> GroupModel:
    """Matrices preserving the standard antisymmetric form, inside gl(2n).

    One relation per pair i < j expresses the form invariance as a
    sum-equality with the Kronecker term on the right side.
    """
    if dim % 2 or not 2 <= dim <= MODEL_CAP:
        raise CatalogError(f"sp({dim}): even dimension in 2..{MODEL_CAP} required")
    n = dim // 2
    width = dim * dim + 1
    rels = [determinant_relation(dim, width, extra=[width - 1])]
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            lhs = [_mono(width, [_eidx(dim, i, l), _eidx(dim, j, dim + 1 - l)])
                   for l in range(1, n + 1)]
            rhs = [_mono(width, [_eidx(dim, i, l), _eidx(dim, j, dim + 1 - l)])
                   for l in range(n + 1, dim + 1)]
            if j == dim + 1 - i:
                rhs.append(one_monomial(width))
            rels.append(relation(lhs, rhs))
    # pair permutations keep the form; the reversal negates it, so it must
    # act on both sides at once
    reversal = tuple(reversed(range(dim)))
    return _matrix_model(
        f"sp:{dim}", dim, rels,
        _row_column_moves(_pair_swaps(dim), True) + [(reversal, reversal)],
        {"rank": n, "weyl_order": 2 ** n * math.factorial(n), "weyl_type": f"C{n}"},
        inverse_det=True)


def _orthogonal_relations(n: int, width: int) -> list:
    """Coefficientwise invariance of the split quadratic form, subtraction-free.

    q(x) pairs x_i with x_(n+1-i); for odd n the middle square appears.  For
    every j <= k the coefficient of x_j x_k in q(gx) is equated with 1 when
    k = n+1-j (the middle coefficient included) and with 0 otherwise.
    """
    m = n // 2
    odd = n % 2 == 1
    rels = []
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            terms = []
            for i in range(1, m + 1):
                if j == k:
                    terms.append(_mono(width, [_eidx(n, i, j), _eidx(n, n + 1 - i, j)]))
                else:
                    terms.append(_mono(width, [_eidx(n, i, j), _eidx(n, n + 1 - i, k)]))
                    terms.append(_mono(width, [_eidx(n, i, k), _eidx(n, n + 1 - i, j)]))
            if odd:
                mid = m + 1
                if j == k:
                    terms.append(_mono(width, [_eidx(n, mid, j), _eidx(n, mid, j)]))
                else:
                    terms.append(_mono(width, [_eidx(n, mid, j), _eidx(n, mid, k)]))
                    terms.append(_mono(width, [_eidx(n, mid, j), _eidx(n, mid, k)]))
            target = [one_monomial(width)] if k == n + 1 - j else []
            rels.append(relation(terms, target))
    return rels


def o(n: int) -> GroupModel:
    """The full orthogonal group of the split form in even dimension."""
    if n % 2 or not 2 <= n <= MODEL_CAP:
        raise CatalogError(f"o({n}): even dimension in 2..{MODEL_CAP} required")
    m = n // 2
    return _matrix_model(
        f"o:{n}", n, _orthogonal_relations(n, n * n),
        _row_column_moves(_pair_swaps(n) + [_inner_flip(n)], False),
        {"rank": m, "weyl_order": 2 ** m * math.factorial(m), "weyl_type": f"B{m}"})


def so(n: int) -> GroupModel:
    """The special orthogonal group of the split form.

    Odd dimension adds the determinant-one relation.  In even dimension the
    identity component is selected by restricting the rank points to the
    patterns whose underlying permutation has sign +1 (the monomial
    relations cannot express the component selection).
    """
    if not 2 <= n <= MODEL_CAP:
        raise CatalogError(f"so({n}): dimension in 2..{MODEL_CAP} required")
    m = n // 2
    odd = n % 2 == 1
    rels = _orthogonal_relations(n, n * n)
    if odd:
        rels.append(determinant_relation(n, n * n))
        expected = {"rank": m, "weyl_order": 2 ** m * math.factorial(m), "weyl_type": f"B{m}"}
    else:
        expected = {"rank": m, "weyl_order": 2 ** (m - 1) * math.factorial(m),
                    "weyl_type": f"D{m}"}
    model = _matrix_model(f"so:{n}", n, rels,
                          _row_column_moves(_pair_swaps(n) + [_inner_flip(n)], odd), expected)
    if odd:
        return model

    def keep(p: PrimePoint) -> bool:
        sigma = perm_of_pattern(model, p)
        return sigma is not None and _perm_sign(sigma) == 1
    return dataclasses.replace(model, rank_point_filter=keep)


# ---------------------------------------------------------------------------
# Tori, constant groups and semidirect products
# ---------------------------------------------------------------------------


def torus(r: int) -> GroupModel:
    """The split torus of rank r: r inverted generators, diagonal comult."""
    if not 0 <= r <= GENERATOR_CAP:
        raise CatalogError(f"torus({r}): supported range is 0..{GENERATOR_CAP}")
    B = mk_free(r, inverted=range(r))
    images = [[(B.gen(i), B.gen(i))] for i in range(r)]
    return GroupModel(
        name=f"torus:{r}",
        presentation=B,
        comult=comultiplication(images),
        counit_zero=frozenset(),
        expected={"rank": r, "weyl_order": 1, "weyl_type": "trivial",
                  "tits_f12": 2 ** r, "tits_weyl": True},
    )


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a multiplication table over element labels."""

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int

    def __post_init__(self):
        n = len(self.elements)
        # a model of a larger group has too many generators to enumerate by
        # default; checked first, since the associativity check is cubic in n
        if not 1 <= n <= GENERATOR_CAP:
            raise CatalogError(f"group table of {n} elements: supported range "
                               f"is 1..{GENERATOR_CAP}")
        if not all(isinstance(name, str) for name in self.elements):
            raise CatalogError("element names must be strings")
        if len(set(self.elements)) != n:
            raise CatalogError("element names must be unique")
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise CatalogError("malformed multiplication table")
        if any(v not in range(n) for r in self.table for v in r):
            raise CatalogError("table entry is not an element index")
        e = self.identity
        if e not in range(n):
            raise CatalogError("identity is not an element index")
        if any(self.table[e][i] != i or self.table[i][e] != i for i in range(n)):
            raise CatalogError("identity row or column broken")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise CatalogError("table is not associative")
        for i in range(n):
            if not any(self.table[i][j] == e for j in range(n)):
                raise CatalogError(f"element {self.elements[i]} has no inverse")

    @staticmethod
    def cyclic(n: int) -> "GroupTable":
        elems = tuple(f"g{k}" for k in range(n))
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return GroupTable(elems, table, 0)


def _constant_relations(B: BlueprintPresentation, offsets: Sequence[int]):
    """Orthogonal idempotents summing to 1."""
    rels = []
    for a in offsets:
        rels.append(relation([B.monomial([2 if g == a else 0 for g in range(B.width)])],
                             [B.gen(a)]))
        for b in offsets:
            if a < b:
                exps = [0] * B.width
                exps[a] = exps[b] = 1
                rels.append(relation([B.monomial(exps)], []))
    rels.append(relation([B.gen(a) for a in offsets], [B.one()]))
    return rels


def constant_group(table: GroupTable) -> GroupModel:
    """The constant group scheme: one idempotent coordinate per element,
    the semidirect product with the torus of rank 0."""
    model = semidirect(0, table, dict.fromkeys(table.elements, []))
    return dataclasses.replace(model, name=f"const:{'+'.join(table.elements)}")


def semidirect(r: int, table: GroupTable,
               exps: dict[str, Sequence[Sequence[int]]]) -> GroupModel:
    """Split torus of rank r twisted by a finite group acting by integer matrices.

    ``exps[g]`` is the r x r integer matrix A(g) describing the action on
    torus characters.  The comultiplication is coassociative and counital
    exactly when A is an action, A(identity) = I and A(g*h) = A(g)A(h); other
    matrices are refused.  The model carries the Tits-Weyl flag exactly when
    A(g) differs from the identity for every g != identity.
    """
    k = len(table.elements)
    if not _is_integer(r):
        raise CatalogError(f"semidirect rank {r!r} is not an integer")
    if not 0 <= r <= GENERATOR_CAP - k:
        raise CatalogError(f"semidirect rank {r} with {k} elements: supported "
                           f"range is 0..{GENERATOR_CAP - k}")
    if not isinstance(exps, dict):
        raise CatalogError("exponent matrices are not a mapping of element names")
    mats = {}
    for name in table.elements:
        if name not in exps:
            raise CatalogError(f"missing exponent matrix for {name}")
        mat = [list(row) for row in _integer_rows(exps[name], f"exponent matrix for {name}")]
        if len(mat) != r or any(len(row) != r for row in mat):
            raise CatalogError(f"exponent matrix for {name} is not {r}x{r}")
        mats[name] = mat
    ident = [[int(i == j) for j in range(r)] for i in range(r)]
    if mats[table.elements[table.identity]] != ident:
        raise CatalogError("exponent matrices are not an action: A(identity) != I")
    for g, a in enumerate(table.elements):
        for h, b in enumerate(table.elements):
            ab = table.elements[table.table[g][h]]
            product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*mats[b])]
                       for row in mats[a]]
            if product != mats[ab]:
                raise CatalogError(f"exponent matrices are not an action: "
                                   f"A({a})A({b}) != A({ab})")
    names = tuple(f"T{i + 1}" for i in range(r)) + \
        tuple(f"e_{name}" for name in table.elements)
    width = r + k
    base = mk_free(width, inverted=range(r), names=names)
    rels = _constant_relations(base, [r + a for a in range(k)])
    B = make_presentation(names, range(r), 1, rels)

    images: list[list[tuple[Monomial, Monomial]]] = [[] for _ in range(width)]
    for i in range(r):
        for a, name in enumerate(table.elements):
            left_exps = [0] * width
            left_exps[i] = 1
            left_exps[r + a] = 1
            right_exps = [0] * width
            for j in range(r):
                right_exps[j] = mats[name][i][j]
            images[i].append((Monomial(0, tuple(left_exps)),
                              Monomial(0, tuple(right_exps))))
    for g1 in range(k):
        for g2 in range(k):
            h = table.table[g1][g2]
            images[r + h].append((B.gen(r + g1), B.gen(r + g2)))
    counit = frozenset(r + a for a in range(k) if a != table.identity)
    faithful = all(mats[name] != ident
                   for a, name in enumerate(table.elements) if a != table.identity)
    return GroupModel(
        name=f"semidirect:{r}:{'+'.join(table.elements)}",
        presentation=B,
        comult=comultiplication(images),
        counit_zero=counit,
        expected={"rank": r, "weyl_order": k, "tits_weyl": faithful},
    )


def nonstandard_torus() -> GroupModel:
    """A rank-one torus model whose presentation has no point over F1.

    The extra coordinate S is identified with 1 + 1, so the closed point is
    of characteristic 2 and only the generic point is pseudo-Hopf; the law
    descends on the rank space although the presentation itself admits no
    identity morphism to F1.
    """
    names = ("S", "T")
    base = mk_free(2, inverted=[1], names=names)
    B = base.with_relations([relation([base.gen(0)], [base.one(), base.one()])])
    images = [
        [(B.gen(0), B.one())],  # S maps to S' (x) 1
        [(B.gen(1), B.gen(1))],
    ]
    return GroupModel(
        name="nstorus",
        presentation=B,
        comult=comultiplication(images),
        counit_zero=frozenset(),
        expected={"rank": 1, "weyl_order": 1, "tits_weyl": True},
    )


# ---------------------------------------------------------------------------
# Parabolic subgroups, unipotent radicals, Levi subgroups of gl(n)
# ---------------------------------------------------------------------------


def _flag_model(kind: str, n: int, flag: Sequence[int], extra, expected) -> GroupModel:
    """The subgroup ``kind`` of gl(n) for a composition ``flag`` of n.

    Its relations are gl's determinant relation, the kills of the entries
    below the diagonal blocks, then ``g == value`` for each pair of
    ``extra(blocks)``, where ``blocks[i - 1]`` is the block of row i.  It
    has gl's comultiplication and counit and no symmetries, and
    ``expected(blocks)`` is its metadata.
    """
    if sum(flag) != n or any(s <= 0 for s in flag):
        raise CatalogError(f"flag {flag} is not a composition of {n}")
    # n has gl's range: the determinant relation has n! terms
    if not 1 <= n <= MODEL_CAP:
        raise CatalogError(f"gl({n}): supported range is 1..{MODEL_CAP}")
    width = n * n + 1
    blocks = [b for b, size in enumerate(flag) for _ in range(size)]
    kills = [(g, 0) for g, (i, j) in _entry_pairs(n).items() if blocks[i - 1] > blocks[j - 1]]
    rels = [determinant_relation(n, width, extra=[width - 1])]
    rels += [relation([_mono(width, [g])], [one_monomial(width)] * value)
             for g, value in kills + extra(blocks)]
    return GroupModel(
        name=f"{kind}:{n}:{','.join(map(str, flag))}",
        presentation=make_presentation(_entry_names(n) + ["d"], (), 1, rels),
        comult=_matrix_comult(n, width, extra_diag=[width - 1]),
        counit_zero=_diagonal_counit(n, width, keep=[width - 1]),
        dimension=n,
        aux_names=("d",),
        expected=expected(blocks),
    )


def standard_parabolic(n: int, flag: Sequence[int]) -> GroupModel:
    """The standard parabolic of gl(n) for a composition of n.

    Entries strictly below the block-diagonal structure are killed.
    """
    return _flag_model("parabolic", n, flag, lambda blocks: [], lambda blocks: {
        "rank": n, "weyl_order": math.prod(map(math.factorial, flag))})


def unipotent_radical(n: int, flag: Sequence[int]) -> GroupModel:
    """The unipotent radical of a standard parabolic of gl(n).

    On top of the parabolic kills, the block-diagonal entries collapse to
    the identity pattern: diagonal entries and d are set to 1, remaining
    block entries below the strict upper part are killed.
    """
    def block_entries(blocks):
        return [(g, int(i == j)) for g, (i, j) in _entry_pairs(n).items()
                if blocks[i - 1] == blocks[j - 1]] + [(n * n, 1)]

    return _flag_model("unipotent", n, flag, block_entries, lambda blocks: {
        "rank": 0, "weyl_order": 1,
        "affine_dim": sum(a < b for a in blocks for b in blocks)})


def levi(n: int, flag: Sequence[int]) -> GroupModel:
    """The block-diagonal Levi subgroup of a standard parabolic of gl(n)."""
    def off_block_kills(blocks):
        return [(g, 0) for g, (i, j) in _entry_pairs(n).items()
                if blocks[i - 1] != blocks[j - 1]]

    return _flag_model("levi", n, flag, off_block_kills, lambda blocks: {
        "rank": n, "weyl_order": math.prod(map(math.factorial, flag))})


# ---------------------------------------------------------------------------
# Projective rank-one models shipped as certified point data
# ---------------------------------------------------------------------------


def _pp(n: int, zero_positions: Sequence[tuple[int, int]]) -> PrimePoint:
    return PrimePoint(_eidx(n, i, j) for i, j in zero_positions)


def _point_model(name: str, n: int, points, identity: PrimePoint,
                 other: PrimePoint) -> GroupModel:
    """A rank-one adjoint model on the n x n entries given by its points.

    The comultiplication is the matrix one on the ambient coordinates; the
    rank points are ``identity``, the counit pattern, with unit field of
    epsilon 1, and ``other``, with epsilon 2.
    """
    rank_points = sorted([(identity, 1), (other, 2)])
    return GroupModel(
        name=name,
        presentation=make_presentation(_entry_names(n), (), 1, []),
        comult=_matrix_comult(n, n * n),
        counit_zero=identity.vars,
        dimension=n,
        expected={"rank": 1, "weyl_order": 2, "points": len(points)},
        spectrum_override=tuple(sorted(points)),
        rank_override=tuple(RankSpacePoint(p, NormalFormBlueField(epsilon, ("L",), (), ()), 1)
                            for p, epsilon in rank_points),
    )


def _conjugation_pattern(a: int, b: int, c: int, d: int) -> PrimePoint:
    """Zero pattern of the conjugation matrix for symbolic non-zero entries."""
    entries = {
        (1, 1): a * d, (1, 2): -a * c, (1, 3): b * d, (1, 4): -b * c,
        (2, 1): -a * b, (2, 2): a * a, (2, 3): -b * b, (2, 4): a * b,
        (3, 1): c * d, (3, 2): -c * c, (3, 3): d * d, (3, 4): -c * d,
        (4, 1): -b * c, (4, 2): a * c, (4, 3): -b * d, (4, 4): a * d,
    }
    return _pp(4, [pos for pos, val in entries.items() if val == 0])


def psl2_conj() -> GroupModel:
    """Rank-one adjoint model from the conjugation action on 2x2 matrices.

    The seven points reproduce the shape of the sl(2) spectrum; the two
    monomial patterns (diagonal, anti-diagonal) are the rank points.
    """
    # symbolic vanishing analysis with generic non-zero parameter values
    patterns = {
        "generic": _conjugation_pattern(2, 3, 5, 8),  # ad-bc needs not be 1 here
        "a=0": _conjugation_pattern(0, 3, 5, 7),
        "b=0": _conjugation_pattern(2, 0, 5, 7),
        "c=0": _conjugation_pattern(2, 3, 0, 7),
        "d=0": _conjugation_pattern(2, 3, 5, 0),
        "a=d=0": _conjugation_pattern(0, 3, 5, 0),
        "b=c=0": _conjugation_pattern(2, 0, 0, 7),
    }
    return _point_model("psl2-conj", 4, set(patterns.values()),
                        patterns["b=c=0"], patterns["a=d=0"])


ADJOINT_POINT_TABLE = {
    # name -> (zero positions in the 3x3 adjoint coordinates, char-2 only)
    "p^e": ([(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)], False),
    "x1": ([(2, 1), (3, 1), (3, 2)], False),
    "x1'": ([(2, 1), (2, 3), (3, 1), (3, 2)], True),
    "p^s": ([(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3)], False),
    "x3": ([(1, 1), (1, 2), (2, 1)], False),
    "x3'": ([(1, 1), (1, 2), (2, 1), (2, 3)], True),
    "x4": ([(2, 3), (3, 2), (3, 3)], False),
    "x4'": ([(2, 1), (2, 3), (3, 2), (3, 3)], True),
    "x2": ([(1, 2), (1, 3), (2, 3)], False),
    "x2'": ([(1, 2), (1, 3), (2, 1), (2, 3)], True),
    "x5": ([(2, 2)], False),
    "eta": ([], False),
    "eta'": ([(2, 1), (2, 3)], True),
}


def psl2_adjoint() -> GroupModel:
    """Rank-one adjoint model from the adjoint action on its Lie algebra.

    Thirteen points, read off from the vanishing analysis of the two Bruhat
    cells of the image matrices; primed points require characteristic 2.
    """
    points = {name: _pp(3, pos) for name, (pos, _) in ADJOINT_POINT_TABLE.items()}
    return _point_model("psl2-adj", 3, points.values(), points["p^e"], points["p^s"])


# ---------------------------------------------------------------------------
# Products of models
# ---------------------------------------------------------------------------


def model_product(G: GroupModel, H: GroupModel) -> GroupModel:
    """The product model: tensor presentation and componentwise comult."""
    B = tensor(G.presentation, H.presentation)
    wg = G.presentation.width
    width = B.width
    images: list[list[tuple[Monomial, Monomial]]] = []
    for offset, model in ((0, G), (wg, H)):
        for terms in model.comult.images:
            images.append([(_embed(a, offset, width), _embed(b, offset, width))
                           for a, b in terms])
    counit = frozenset(G.counit_zero) | frozenset(g + wg for g in H.counit_zero)
    return GroupModel(
        name=f"({G.name})x({H.name})",
        presentation=B,
        comult=comultiplication(images),
        counit_zero=counit,
        expected={"rank": G.expected.get("rank", 0) + H.expected.get("rank", 0),
                  "weyl_order": G.expected.get("weyl_order", 1)
                  * H.expected.get("weyl_order", 1)},
    )


# ---------------------------------------------------------------------------
# Selector parsing for the CLI
# ---------------------------------------------------------------------------


_SIZED_MODELS = {"sl": sl, "gl": gl, "sp": sp, "so": so, "o": o, "torus": torus}
_FIXED_MODELS = {"nstorus": nonstandard_torus, "psl2-conj": psl2_conj,
                 "psl2-adj": psl2_adjoint}
_FLAG_MODELS = {"parabolic": standard_parabolic, "unipotent": unipotent_radical, "levi": levi}


def from_selector(selector: str) -> GroupModel:
    """Resolve a model selector such as sl:3, torus:2, or psl2-adj."""
    parts = selector.split(":")
    head = parts[0]

    def number(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise CatalogError(f"model selector {selector!r}: {text!r} is not an integer") \
                from None

    if len(parts) == 1 and head in _FIXED_MODELS:
        return _FIXED_MODELS[head]()
    if len(parts) == 2 and head in _SIZED_MODELS:
        return _SIZED_MODELS[head](number(parts[1]))
    if len(parts) == 3 and head in _FLAG_MODELS:
        return _FLAG_MODELS[head](number(parts[1]), [number(s) for s in parts[2].split(",")])
    if head == "const" and len(parts) == 2:
        return constant_group(_table_from_json(_load_table_file(parts[1])))
    if head == "semidirect" and len(parts) == 2:
        data = _load_table_file(parts[1])
        table = _table_from_json(data)
        return semidirect(_required(data, "rank"), table, _required(data, "exps"))
    raise CatalogError(f"unknown model selector: {selector}")


# a 26-element table or exponent file is tens of kB
MODEL_FILE_BYTES = 1 << 20


def _load_table_file(path: str) -> dict:
    import io
    import json

    try:
        with open(path, "rb") as handle:
            raw = handle.read(MODEL_FILE_BYTES + 1)
    except OSError as err:
        raise CatalogError(f"cannot read model file {path}: {err.strerror}") from None
    if len(raw) > MODEL_FILE_BYTES:
        raise CatalogError(f"model file {path} is larger than {MODEL_FILE_BYTES} bytes")
    try:  # decoded as a text-mode read decodes it, newlines included
        data = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except (ValueError, RecursionError) as err:  # not UTF-8, or not JSON
        raise CatalogError(f"model file {path} is not UTF-8 JSON: {err}") from None
    if not isinstance(data, dict):
        raise CatalogError(f"model file {path} does not hold a JSON object")
    return data


def _required(data: dict, key: str):
    if key not in data:
        raise CatalogError(f"model file has no {key!r} entry")
    return data[key]


def _table_from_json(data: dict) -> GroupTable:
    """The group table of a model file, read by shape: ``elements`` a list,
    ``table`` a list of lists of integers and ``identity`` an integer."""
    elements = _required(data, "elements")
    if not isinstance(elements, list):
        raise CatalogError("malformed group table: elements is not a list of names")
    table = _integer_rows(_required(data, "table"), "malformed group table: table")
    identity = data.get("identity", 0)
    if not _is_integer(identity):
        raise CatalogError("malformed group table: identity is not an integer")
    return GroupTable(tuple(elements), table, identity)
