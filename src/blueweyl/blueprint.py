"""Blueprints presented by monomial generators and formal-sum relations.

A blueprint here is a commutative monoid with zero together with a
pre-addition: a set of sum-equalities ``a_1 + ... + a_m == b_1 + ... + b_n``
between formal sums of monomials, closed under adding relations, multiplying
a relation by a monomial, and transitivity.  Everything in this module is an
exact, immutable value; all operations are pure functions.

Coefficients are restricted to the blue fields F1 and F1^2, i.e. the only
scalar a monomial may carry is a power of -1 (``coeff_order`` 1 or 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal, NamedTuple, Optional, Sequence


class UnsupportedInput(Exception):
    """Raised when an operation is asked about inputs outside its sound class."""


# ---------------------------------------------------------------------------
# Monomials, formal sums, relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=False)
class Monomial:
    """A monomial (-1)^sign * prod(T_i^e_i), or the constant zero.

    ``exps`` is indexed by the generators of the owning presentation.  The
    zero monomial carries sign 0 and an all-zero exponent vector.  ``mask``
    is the support as a bitmask (bit g set when ``exps[g]`` is non-zero), the
    form the syntactic scans read.  ``sort_key`` is the value of :meth:`key`,
    computed once.  Neither takes part in equality, hashing or ``repr``.
    """

    sign: int
    exps: tuple[int, ...]
    zero: bool = False
    mask: int = field(init=False, compare=False, repr=False)
    sort_key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.zero and (self.sign != 0 or any(self.exps)):
            raise ValueError("zero monomial must have trivial sign and exponents")
        object.__setattr__(self, "mask", _mask(g for g, e in enumerate(self.exps) if e))
        # graded lexicographic on exponent vectors, sign exponent last
        object.__setattr__(self, "sort_key", (sum(self.exps), self.exps, self.sign))

    @property
    def degree(self) -> int:
        return self.sort_key[0]

    def key(self):
        return self.sort_key

    def is_one(self) -> bool:
        return not self.zero and self.sign == 0 and not any(self.exps)

    def is_constant(self) -> bool:
        return self.zero or not any(self.exps)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exps) if e)

    def mul(self, other: "Monomial", coeff_order: int) -> "Monomial":
        if self.zero or other.zero:
            return zero_monomial(len(self.exps))
        sign = (self.sign + other.sign) % coeff_order
        return Monomial(sign, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def divide(self, other: "Monomial", inverted: frozenset[int],
               coeff_order: int) -> Optional["Monomial"]:
        """self / other, or None when the quotient leaves the monoid."""
        if self.zero or other.zero:
            return None
        exps = tuple(a - b for a, b in zip(self.exps, other.exps))
        if any(e < 0 and i not in inverted for i, e in enumerate(exps)):
            return None
        return Monomial((self.sign - other.sign) % coeff_order, exps)


def zero_monomial(width: int) -> Monomial:
    return Monomial(0, (0,) * width, zero=True)


def one_monomial(width: int, sign: int = 0) -> Monomial:
    return Monomial(sign, (0,) * width)


def generator_monomial(width: int, index: int) -> Monomial:
    exps = [0] * width
    exps[index] = 1
    return Monomial(0, tuple(exps))


@dataclass(frozen=True)
class FormalSum:
    """A multiset of non-zero monomials; the empty sum denotes 0.

    ``sort_key`` is the value of :meth:`key`, the tuple of the terms' keys,
    computed once; it takes no part in equality, hashing or ``repr``.
    """

    terms: tuple[Monomial, ...]
    sort_key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if any(t.zero for t in self.terms):
            raise ValueError("formal sums may not carry the zero monomial")
        object.__setattr__(self, "sort_key", tuple(t.sort_key for t in self.terms))

    def key(self):
        return self.sort_key

    def __len__(self) -> int:
        return len(self.terms)


def formal_sum(terms: Iterable[Monomial]) -> FormalSum:
    """The canonical sum of ``terms``: zero monomials dropped, the rest
    sorted by :meth:`Monomial.key`.

    Every ``FormalSum`` in this package is canonical: it is built here, or
    by :func:`_kill_terms` from a subsequence of a canonical sum's terms,
    which is still sorted.  So code that holds a sum compares it by its key
    and never sorts it again.
    """
    kept = sorted((t for t in terms if not t.zero), key=Monomial.key)
    return FormalSum(tuple(kept))


@dataclass(frozen=True)
class Relation:
    """A sum-equality lhs == rhs, stored with the lex-smaller side first."""

    lhs: FormalSum
    rhs: FormalSum

    def sides(self) -> tuple[FormalSum, FormalSum]:
        return self.lhs, self.rhs

    def all_terms(self) -> tuple[Monomial, ...]:
        return self.lhs.terms + self.rhs.terms

    def is_trivial(self) -> bool:
        return self.lhs == self.rhs


def relation(lhs: Iterable[Monomial], rhs: Iterable[Monomial]) -> Relation:
    """The relation lhs == rhs between the canonical sums of the two term
    lists.

    Every ``Relation`` in this package is built here or by
    :func:`_ordered`, from two canonical sums, so its lhs key is never
    greater than its rhs key.
    """
    return _ordered(formal_sum(lhs), formal_sum(rhs))


def _ordered(a: FormalSum, b: FormalSum) -> Relation:
    """The relation a == b between two canonical sums, lex-smaller side
    first."""
    return Relation(b, a) if b.sort_key < a.sort_key else Relation(a, b)


# ---------------------------------------------------------------------------
# Relation scans
# ---------------------------------------------------------------------------
#
# The syntactic scans over relations (the prime criterion, unit detection,
# lattice rows) read the terms of a Relation through their support masks
# (``Monomial.mask``).  The scans that run once per spectrum point (the prime
# criterion and the pseudo-Hopf fast scan) read the term-bit layout of
# _term_bits instead, which answers "which terms lie outside this ideal" for
# every relation in a few big-int steps.


def _bare_generator(t: Monomial) -> Optional[int]:
    """The index g when t is +-T_g, else None."""
    m = t.mask
    if m and not m & (m - 1) and t.exps[m.bit_length() - 1] == 1:
        return m.bit_length() - 1
    return None


def _mask(gens: Iterable[int]) -> int:
    mask = 0
    for g in gens:
        mask |= 1 << g
    return mask


class _Block(NamedTuple):
    offset: int   # bit position of the relation's first term
    terms: int    # the relation's term bits, shifted down to bit 0
    lhs: int      # its lhs term bits, shifted down
    consts: int   # its constant-term bits, shifted down


class _TermBits(NamedTuple):
    """A relation list laid out with one bit per term.

    Relation i owns a block of bits: one per term, lhs first, then a guard
    bit.  ``hit[g]`` holds the bits of the terms whose support contains
    generator g, so the terms outside an ideal generated by the point mask
    p are ``terms & ~OR(hit[g] for g in p)``.  Constant terms are never hit
    and are always outside.  ``low`` holds the lowest bit of every block,
    ``guard`` every guard bit and ``lhs`` every lhs term bit.
    """

    hit: tuple[int, ...]
    terms: int
    low: int
    guard: int
    lhs: int
    blocks: tuple[_Block, ...]


def _term_bits(relations: Sequence[Relation], width: int) -> _TermBits:
    hit = [0] * width
    terms = low = guard = lhs = 0
    blocks = []
    offset = 0
    for rel in relations:
        masks = [t.mask for t in rel.all_terms()]
        n = len(masks)
        for i, m in enumerate(masks):
            for g in range(width):
                if m >> g & 1:
                    hit[g] |= 1 << (offset + i)
        terms |= ((1 << n) - 1) << offset
        low |= 1 << offset
        guard |= 1 << (offset + n)
        lhs |= ((1 << len(rel.lhs)) - 1) << offset
        blocks.append(_Block(offset, (1 << n) - 1, (1 << len(rel.lhs)) - 1,
                             _mask(i for i, m in enumerate(masks) if not m)))
        offset += n + 1
    return _TermBits(tuple(hit), terms, low, guard, lhs, tuple(blocks))


def _outside_terms(layout: _TermBits, pmask: int) -> int:
    """The term bits of the terms outside the ideal generated by ``pmask``."""
    hit = 0
    while pmask:
        g = pmask & -pmask
        hit |= layout.hit[g.bit_length() - 1]
        pmask ^= g
    return layout.terms & ~hit


def _outside_counts(layout: _TermBits, x: int) -> tuple[int, int]:
    """The guard bits of the blocks with at least one, and with at least
    two, term bits in ``x``.

    Adding a block's all-ones term mask carries into its guard bit exactly
    when the block is non-zero.  Setting the guard and subtracting the low
    bit clears the lowest set term bit (the guard absorbs the borrow of an
    empty block), so ANDing with ``x`` leaves a non-zero block exactly when
    two or more bits were set.  No carry or borrow leaves a block.
    """
    terms, guard = layout.terms, layout.guard
    return (x + terms) & guard, ((((x | guard) - layout.low) & x) + terms) & guard


def _holds_in_b1(layout: _TermBits, x: int) -> bool:
    """Whether every relation holds in B1 (where 1 + 1 == 1) at the 0/1
    point whose nonzero terms are the term bits ``x``.

    A sum is 1 in B1 exactly when one of its terms is, so a relation holds
    when its lhs and its rhs both have a bit in ``x`` or both have none:
    one carry into the guard bits per side compares every relation at once.
    """
    terms, guard = layout.terms, layout.guard
    return ((x & layout.lhs) + terms) & guard == ((x & ~layout.lhs) + terms) & guard


def _pair_shape(a: Sequence[Monomial], b: Sequence[Monomial]):
    """(t1, t2, 0) for a relation t1 == t2, (t1, t2, 1) for t1 + t2 == 0, else None."""
    if len(a) == 1 and len(b) == 1:
        return a[0], b[0], 0
    if len(a) + len(b) == 2 and not (a and b):
        t1, t2 = a or b
        return t1, t2, 1
    return None


def _unit_closure(pairs, units: int, dead: int) -> int:
    """Close a unit mask under pairs from :func:`_pair_shape`.

    When one term of a pair is a unit monomial, the support of the other
    becomes units too, unless it meets ``dead``.
    """
    changed = True
    while changed:
        changed = False
        for t1, t2, _ in pairs:
            m1, m2 = t1.mask, t2.mask
            if m1 & ~units and not m2 & ~units and not m1 & dead:
                units |= m1
                changed = True
            elif m2 & ~units and not m1 & ~units and not m2 & dead:
                units |= m2
                changed = True
    return units


def _defined_generator(single: Sequence[Monomial],
                       rest: Sequence[Monomial]) -> Optional[int]:
    """g when ``single`` is the term T_g and ``rest`` is a sum of constants."""
    if len(single) == 1 and not single[0].sign and not any(t.mask for t in rest):
        return _bare_generator(single[0])
    return None


def _lattice_rows(pairs, cols: Sequence[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """One row prod T_g^(e1_g - e2_g) == (-1)^sign over ``cols`` per unit pair."""
    rows = [tuple(t1.exps[g] - t2.exps[g] for g in cols) for t1, t2, _ in pairs]
    signs = [(t1.sign - t2.sign + to_zero) % 2 for t1, t2, to_zero in pairs]
    return rows, signs


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlueprintPresentation:
    """A blueprint presented by generators, an inverted subset and relations.

    ``coeff_order`` is 1 for F1-coefficients and 2 when -1 is adjoined;
    with coeff_order 2 the relation ``1 + (-1) == 0`` is implicit.

    ``symmetries`` optionally lists generator permutations: ``sigma[g]`` is
    the image of generator g.  Each one is checked here to map ``inverted``
    and the relation set onto themselves, so it is an automorphism of the
    blueprint and the prime spectrum is a union of orbits of the group they
    generate.  They are a hint for the prime search and the pseudo-Hopf
    scan, not part of the blueprint: they take no part in equality or
    hashing, and every derived presentation (quotients, localizations,
    tensors, :func:`make_presentation`) starts without them.
    """

    generator_names: tuple[str, ...]
    inverted: frozenset[int]
    coeff_order: int
    relations: tuple[Relation, ...]
    symmetries: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.coeff_order not in (1, 2):
            raise ValueError("coeff_order must be 1 or 2")
        if len(set(self.generator_names)) != len(self.generator_names):
            raise ValueError("generator names must be unique")
        bad = [i for i in self.inverted if not 0 <= i < self.width]
        if bad:
            raise ValueError(f"inverted indices out of range: {bad}")
        object.__setattr__(self, "symmetries", tuple(map(tuple, self.symmetries)))
        if self.symmetries:
            keys = set(_relation_images(self, range(self.width)))
            for sigma in self.symmetries:
                problem = _symmetry_violation(self, sigma, keys)
                if problem is not None:
                    raise ValueError(f"symmetry {list(sigma)} {problem}")

    @property
    def width(self) -> int:
        return len(self.generator_names)

    def one(self, sign: int = 0) -> Monomial:
        return one_monomial(self.width, sign % self.coeff_order)

    def gen(self, index: int) -> Monomial:
        return generator_monomial(self.width, index)

    def monomial(self, exps: Sequence[int], sign: int = 0) -> Monomial:
        return Monomial(sign % self.coeff_order, tuple(exps))

    def name_of(self, index: int) -> str:
        return self.generator_names[index]

    def killed(self) -> frozenset[int]:
        """Generators g carrying a relation g == 0."""
        dead = set()
        for rel in self.relations:
            for one_side, other in (rel.sides(), rel.sides()[::-1]):
                if len(other) == 0 and len(one_side) == 1:
                    g = _bare_generator(one_side.terms[0])
                    if g is not None:
                        dead.add(g)
        return frozenset(dead)

    def with_relations(self, extra: Iterable[Relation]) -> "BlueprintPresentation":
        return make_presentation(self.generator_names, self.inverted,
                                 self.coeff_order, tuple(self.relations) + tuple(extra))

    def canonical_key(self):
        """Structural identity ignoring generator names."""
        rels = sorted({(r.lhs.key(), r.rhs.key()) for r in self.relations})
        return (self.width, tuple(sorted(self.inverted)), self.coeff_order, tuple(rels))


def _relation_images(B: BlueprintPresentation, sigma: Sequence[int]) -> Iterator[tuple]:
    """The images of B's relations under the generator permutation
    ``sigma``, each as an unordered pair of term multisets with sparse
    exponents, computed as they are read."""
    for rel in B.relations:
        yield tuple(sorted(tuple(sorted((t.sign, tuple(sorted((sigma[g], e)
                                                              for g, e in enumerate(t.exps) if e)))
                                        for t in side.terms))
                           for side in rel.sides()))


def _symmetry_violation(B: BlueprintPresentation, sigma: Sequence[int],
                        keys: set) -> Optional[str]:
    """Why the generator permutation ``sigma`` is no symmetry of B, or None.

    ``keys`` is ``set(_relation_images(B, range(B.width)))``.  A
    permutation maps the finite relation set injectively, so mapping it
    into itself is mapping it onto itself.
    """
    if sorted(sigma) != list(range(B.width)):
        return "is not a permutation of the generators"
    if frozenset(sigma[g] for g in B.inverted) != B.inverted:
        return "does not map the inverted generators onto themselves"
    for rel, image in zip(B.relations, _relation_images(B, sigma)):
        if image not in keys:
            return f"maps the relation {render_relation(B, rel)} outside the relation set"
    return None


def make_presentation(names: Sequence[str], inverted: Iterable[int],
                      coeff_order: int, relations: Iterable[Relation]) -> BlueprintPresentation:
    """Normalize and deduplicate a presentation."""
    seen, kept = set(), []
    for rel in relations:
        if rel.is_trivial():
            continue
        k = (rel.lhs.key(), rel.rhs.key())
        if k not in seen:
            seen.add(k)
            kept.append(rel)
    return BlueprintPresentation(tuple(names), frozenset(inverted), coeff_order, tuple(kept))


def mk_free(n: int, inverted: Iterable[int] = (), coeff_order: int = 1,
            names: Optional[Sequence[str]] = None) -> BlueprintPresentation:
    """The free blueprint on n generators, some of them inverted.

    ``mk_free(0)`` is F1 and ``mk_free(0, coeff_order=2)`` is F1^2;
    ``mk_free(1, inverted=[0])`` presents F1[T^(+-1)].
    """
    if n < 0:
        raise ValueError("generator count must be non-negative")
    if names is None:
        names = tuple(f"T{i + 1}" for i in range(n))
    if len(names) != n:
        raise ValueError("name list does not match generator count")
    return make_presentation(names, inverted, coeff_order, ())


# ---------------------------------------------------------------------------
# Basic constructions: quotients, localization, tensor products
# ---------------------------------------------------------------------------


def _kill_terms(s: FormalSum, dead: int) -> FormalSum:
    """``s`` without the terms that meet the generator mask ``dead``; the
    terms left keep their order, so the sum stays canonical."""
    kept = tuple(t for t in s.terms if not t.mask & dead)
    return s if len(kept) == len(s.terms) else FormalSum(kept)


def quotient_by_vars(B: BlueprintPresentation, vars: Iterable[int]) -> BlueprintPresentation:
    """Quotient by the ideal generated by a set of generators.

    Monomials touching a killed generator become 0 in every relation; the
    annihilations themselves are recorded as relations g == 0 so that the
    generator indexing of the ambient presentation is preserved.  Relations
    with one side empty and the other not are kept: they encode sums == 0.
    """
    dead = frozenset(vars)
    if not dead:
        return B
    if not dead <= set(range(B.width)):
        raise ValueError("unknown generator index")
    rels = [relation([B.gen(i)], []) for i in sorted(dead)]
    dmask = _mask(dead)
    for rel in B.relations:
        rels.append(_ordered(_kill_terms(rel.lhs, dmask), _kill_terms(rel.rhs, dmask)))
    return make_presentation(B.generator_names, B.inverted, B.coeff_order, rels)


def localize(B: BlueprintPresentation, vars: Iterable[int]) -> BlueprintPresentation:
    """Invert a set of generators; relations are untouched."""
    more = frozenset(vars)
    if not more <= set(range(B.width)):
        raise ValueError("unknown generator index")
    return make_presentation(B.generator_names, B.inverted | more,
                             B.coeff_order, B.relations)


def _embed(m: Monomial, offset: int, width: int) -> Monomial:
    if m.zero:
        return zero_monomial(width)
    exps = [0] * width
    for i, e in enumerate(m.exps):
        exps[offset + i] = e
    return Monomial(m.sign, tuple(exps))


def tensor(B: BlueprintPresentation, C: BlueprintPresentation,
           base: Optional[tuple[dict[int, Monomial], dict[int, Monomial]]] = None
           ) -> BlueprintPresentation:
    """Tensor product over F1, optionally identified over a common base.

    The generators are the disjoint union (left copies primed, right copies
    double-primed) and the relations are the images of both relation sets.
    When ``base`` is given as a pair of maps sending each base generator to a
    unit monomial of B resp. C, the identifications f1(t) (x) 1 == 1 (x) f2(t)
    are added as relations.
    """
    width = B.width + C.width
    raw = [f"{n}'" for n in B.generator_names] + \
        [f"{n}''" for n in C.generator_names]
    names, seen = [], set()
    for i, n in enumerate(raw):
        if n in seen:  # nested tensors can collide on primes
            n = f"{n}#{i}"
        seen.add(n)
        names.append(n)
    inverted = frozenset(B.inverted) | frozenset(i + B.width for i in C.inverted)
    m = max(B.coeff_order, C.coeff_order)
    rels: list[Relation] = []
    for rel in B.relations:
        rels.append(relation([_embed(t, 0, width) for t in rel.lhs.terms],
                             [_embed(t, 0, width) for t in rel.rhs.terms]))
    for rel in C.relations:
        rels.append(relation([_embed(t, B.width, width) for t in rel.lhs.terms],
                             [_embed(t, B.width, width) for t in rel.rhs.terms]))
    if base is not None:
        f1, f2 = base
        if set(f1) != set(f2):
            raise ValueError("base maps must share their domain")
        for t in sorted(f1):
            m1, m2 = f1[t], f2[t]
            for img, amb in ((m1, B), (m2, C)):
                if img.mask & ~_mask(amb.inverted) or img.zero:
                    raise UnsupportedInput("base map image is not a unit monomial")
            rels.append(relation([_embed(m1, 0, width)], [_embed(m2, B.width, width)]))
    return make_presentation(names, inverted, m, rels)


# ---------------------------------------------------------------------------
# Canonicalization against annihilated generators, bounded saturation
# ---------------------------------------------------------------------------


def _canonical_relations(B: BlueprintPresentation) -> tuple[frozenset[int], list[Relation]]:
    """Drop killed-monomial terms everywhere; absorb the kill relations."""
    dead = B.killed()
    dmask = _mask(dead)
    rels = []
    seen = set()
    for rel in B.relations:
        r = _ordered(_kill_terms(rel.lhs, dmask), _kill_terms(rel.rhs, dmask))
        if r.is_trivial():
            continue
        k = (r.lhs.sort_key, r.rhs.sort_key)
        if k not in seen:
            seen.add(k)
            rels.append(r)
    return dead, rels


SATURATION_ROUNDS = 2


def saturate_relations(B: BlueprintPresentation) -> tuple[Relation, ...]:
    """A cheap, sound closure of the generating relations.

    Terms over annihilated generators are dropped, the annihilations are
    kept as explicit relations g == 0, and pairwise transitivity
    consequences (relations sharing a side) are added for
    ``SATURATION_ROUNDS`` rounds.  The result still generates the same
    pre-addition; it just exposes a few derived relations to syntactic
    checks such as the prime criterion.

    A candidate ``a == b`` from ``s == a`` and ``s == b`` pairs two sides
    of the list, which are canonical sums, so it is tested for triviality
    and deduplicated on its ordered pair of side keys without sorting
    anything again, and a ``Relation`` is built only for a candidate kept.

    Guarantee: the kill relations come first, then the canonical relations,
    then the transitivity consequences, which are only appended.  So the
    generating relations in canonical form, after the kill relations, are
    a prefix of the result: with ``rels = _relations(B)`` it is
    ``rels.saturated[:len(rels.dead) + len(rels.relations)]``.

    A pair is skipped when every term of both outer sides meets a killed
    generator, as ``T_i == T_j`` for killed i, j does (from two kill
    relations, or from ``T_i == S`` and ``T_j == S``).  No answer read from
    the list changes.  Every prime contains every killed generator, so such
    a relation never has exactly one term outside a candidate, and the
    prime criterion ignores it; :func:`_unit_closure` never adds a support
    that meets ``dead``; the torsion probe of
    :func:`potential_characteristics` reads only relations whose terms are
    all constants; and a round-2 consequence of a skipped relation is,
    under the criterion, the same as the kept relation it shares a side
    with.  Only derived relations are skipped, so the prefix guarantee
    holds.
    """
    return _saturate(B, *_canonical_relations(B))


def _saturate(B: BlueprintPresentation, dead: frozenset[int],
              canonical: list[Relation]) -> tuple[Relation, ...]:
    """:func:`saturate_relations` from the output of :func:`_canonical_relations`."""
    rels = [relation([B.gen(g)], []) for g in sorted(dead)] + canonical
    dmask = _mask(dead)
    seen = {(r.lhs.sort_key, r.rhs.sort_key) for r in rels}
    for _ in range(SATURATION_ROUNDS):
        new = []
        # the sums each side is equated to
        by_side: dict[tuple, list[FormalSum]] = {}
        for r in rels:
            by_side.setdefault(r.lhs.sort_key, []).append(r.rhs)
            by_side.setdefault(r.rhs.sort_key, []).append(r.lhs)
        for r in rels:
            for side, other in ((r.lhs, r.rhs), (r.rhs, r.lhs)):
                a = other.sort_key
                for other2 in by_side[side.sort_key]:
                    # the candidate other == other2 pairs two canonical sums
                    b = other2.sort_key
                    if a == b:
                        continue
                    k = (a, b) if a < b else (b, a)
                    if k in seen or all(t.mask & dmask for t in other.terms + other2.terms):
                        continue
                    seen.add(k)
                    new.append(_ordered(other, other2))
        if not new:
            break
        rels.extend(new)
    return tuple(rels)


class _Relations(NamedTuple):
    """A presentation's relations, canonicalised and saturated once: the
    killed generators, the canonical relations of
    :func:`_canonical_relations`, and the ``saturated`` list, of which
    ``relations`` is a slice by the prefix guarantee.  None of it reads
    ``inverted``, so a quotient and its residue field share one bundle.  It
    is built once per presentation and passed as an argument, never kept.

    Its readers: the prime criterion and its zero test (:mod:`spectrum`),
    the bounded entailment search and :func:`_kills_a_unit`, unit
    detection, the normal-form analysis and the torsion probes of
    :func:`potential_characteristics`.
    """

    dead: frozenset[int]
    relations: list[Relation]
    saturated: tuple[Relation, ...]


def _relations(B: BlueprintPresentation) -> _Relations:
    dead, rels = _canonical_relations(B)
    return _Relations(dead, rels, _saturate(B, dead, rels))


# ---------------------------------------------------------------------------
# Bounded entailment of relations
# ---------------------------------------------------------------------------


def _kills_a_unit(B: BlueprintPresentation, rels: _Relations) -> bool:
    """Whether a unit is killed, or a canonical relation sets a monomial m
    over units to 0: then 1 == m * m^-1 == 0.  The units are the inverted
    generators closed by :func:`_unit_closure` under the canonical relations
    of two terms, so T1 == T2 with T2 inverted makes T1 one."""
    pairs = [_pair_shape(rel.lhs.terms, rel.rhs.terms)
             for rel in rels.relations if len(rel.lhs) + len(rel.rhs) == 2]
    units = _unit_closure(pairs, _mask(B.inverted), 0)
    return bool(_mask(rels.dead) & units) or any(
        len(terms) == 1 and not terms[0].mask & ~units
        for terms in map(Relation.all_terms, rels.relations))


def _rewrite_rules(B: BlueprintPresentation,
                   rels: Sequence[Relation]) -> list[tuple[FormalSum, FormalSum]]:
    rules = []
    for r in rels:
        rules.append((r.lhs, r.rhs))
        rules.append((r.rhs, r.lhs))
    if B.coeff_order == 2:
        pair = formal_sum([B.one(0), B.one(1)])
        empty = formal_sum([])
        rules.append((pair, empty))
        rules.append((empty, pair))
    return rules


def _sum_minus(s: FormalSum, part: list[Monomial]) -> Optional[FormalSum]:
    remaining = list(s.terms)
    for p in part:
        try:
            remaining.remove(p)
        except ValueError:
            return None
    return formal_sum(remaining)


def _candidate_multipliers(s: FormalSum, target: FormalSum, pattern: FormalSum,
                           B: BlueprintPresentation) -> set[Monomial]:
    cands: set[Monomial] = {B.one()}
    if B.coeff_order == 2:
        cands.add(B.one(1))
    anchors = pattern.terms[:1]
    for pool in (s.terms, target.terms):
        for t in pool:
            for a in (anchors or (B.one(),)):
                q = t.divide(a, B.inverted, B.coeff_order)
                if q is not None:
                    cands.add(q)
                    if B.coeff_order == 2:
                        cands.add(Monomial((q.sign + 1) % 2, q.exps))
    return cands


def relation_entailed(B: BlueprintPresentation, rel: Relation,
                      budget: int = 10_000) -> Literal["yes", "unknown"]:
    """Decide, within a step budget, whether a relation is derivable.

    The answer "yes" is sound: it is produced only when a chain of
    pre-addition rewrites (multiply a relation by a monomial, add relations,
    transitivity) transforms one side into the other.  "unknown" makes no
    claim.  The search is breadth-first over canonical formal sums, so the
    verdict is monotone in ``budget``.  When :func:`_kills_a_unit` holds,
    1 == 0 and every relation is derivable, so the answer is "yes" without
    a search.  The search rewrites with the canonical relations of B's
    :func:`_relations` bundle; :func:`is_zero_blueprint` and the torsion
    probes of :func:`potential_characteristics` read a bundle they already
    hold through :func:`_entailed`.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    rels = _relations(B)
    if _kills_a_unit(B, rels):
        return "yes"
    return _entailed(B, rels, rel, budget)


def _entailed(B: BlueprintPresentation, rels: _Relations, rel: Relation, budget: int,
              constant_states_only: bool = False) -> Literal["yes", "unknown"]:
    """The search of :func:`relation_entailed` over the bundle ``rels``, for
    a caller that has found :func:`_kills_a_unit` false.

    With ``constant_states_only`` the search never leaves sums of
    constants, which keeps the state space tiny for the torsion probes (at
    the cost of missing derivations that pass through non-constant sums).
    """
    dead = _mask(rels.dead)
    rules = _rewrite_rules(B, rels.relations)
    start = _kill_terms(rel.lhs, dead)
    target = _kill_terms(rel.rhs, dead)
    if start.key() == target.key():
        return "yes"
    widest = max((max(len(a), len(b)) for a, b in rules), default=0)
    max_terms = max(len(start), len(target)) + widest + 4
    frontier = [start]
    visited = {start.key()}
    steps = 0
    while frontier and steps < budget:
        nxt: list[FormalSum] = []
        for s in frontier:
            for lhs_pat, rhs_pat in rules:
                for c in _candidate_multipliers(s, target, lhs_pat, B):
                    part = [c.mul(t, B.coeff_order) for t in lhs_pat.terms]
                    if any(p.mask & dead for p in part):
                        continue
                    rest = _sum_minus(s, part)
                    if rest is None:
                        continue
                    add = [c.mul(t, B.coeff_order) for t in rhs_pat.terms]
                    if any(p.mask & dead for p in add):
                        continue
                    if constant_states_only and any(not p.is_constant() for p in add):
                        continue
                    out = formal_sum(rest.terms + tuple(add))
                    if len(out) > max_terms:
                        continue
                    k = out.key()
                    if k in visited:
                        continue
                    steps += 1
                    if k == target.key():
                        return "yes"
                    visited.add(k)
                    nxt.append(out)
                    if steps >= budget:
                        return "unknown"
        frontier = nxt
    return "unknown"


ZERO_TEST_BUDGET = 400


def _point_certifies(B: BlueprintPresentation, rels: _Relations, zeros: int) -> bool:
    """Whether the 0/1 point that sends the generators in ``zeros`` and the
    killed ones to 0, and every other generator to 1, is a point of B in
    B1 (for ``coeff_order`` 1), F2 or F3, where -1 goes to -1.

    Such a point is a blueprint morphism to a nonzero semiring, so it
    certifies 1 != 0.  It must send the inverted generators to units, and
    it must satisfy a generating set: the kill relations hold because the
    killed generators go to 0, and the rest are the canonical relations
    ``rels.relations``.  B1 has no -1, so it certifies nothing for
    ``coeff_order`` 2, whose 1 + (-1) == 0 holds in F2 and F3.
    """
    zeros |= _mask(rels.dead)
    if zeros & _mask(B.inverted):
        return False
    # per relation, the values +-1 of the terms each side keeps
    kept = [([1 - 2 * t.sign for t in rel.lhs.terms if not t.mask & zeros],
             [1 - 2 * t.sign for t in rel.rhs.terms if not t.mask & zeros])
            for rel in rels.relations]
    if B.coeff_order == 1 and all(bool(a) == bool(b) for a, b in kept):
        return True
    return any(all((sum(a) - sum(b)) % p == 0 for a, b in kept) for p in (2, 3))


def is_zero_blueprint(B: BlueprintPresentation) -> bool:
    """Detect (soundly, not completely) that 1 == 0 is derivable.

    "Zero" comes only from :func:`_kills_a_unit` or a rewrite chain within
    ``ZERO_TEST_BUDGET`` steps.  Before the rewrite search, the all-ones
    point of :func:`_point_certifies` (killed generators to 0) is tried:
    when it is a point in B1, F2 or F3 the answer is "not zero" at once.
    """
    return _is_zero(B, _relations(B))


def _is_zero(B: BlueprintPresentation, rels: _Relations) -> bool:
    """:func:`is_zero_blueprint` over the bundle ``rels``."""
    if _kills_a_unit(B, rels):
        return True
    if _point_certifies(B, rels, 0):
        return False
    return _entailed(B, rels, relation([B.one()], []), ZERO_TEST_BUDGET) == "yes"


# ---------------------------------------------------------------------------
# Unit detection
# ---------------------------------------------------------------------------


def detect_units(B: BlueprintPresentation, rels: _Relations) -> frozenset[int]:
    """Generators that are forced invertible.

    Starts from the inverted generators and saturates: whenever a relation
    identifies a monomial with a unit monomial (directly, or as the additive
    inverse of one via m1 + m2 == 0), every generator in its support becomes
    a unit.  Sound but conservative; ``rels`` is ``_relations(B)``, and its
    saturated list exposes transitivity consequences.
    """
    pairs = [pair for rel in rels.saturated
             if (pair := _pair_shape(rel.lhs.terms, rel.rhs.terms))]
    dead = _mask(rels.dead)
    units = _unit_closure(pairs, _mask(B.inverted), dead) & ~dead
    return frozenset(g for g in range(B.width) if units >> g & 1)


# ---------------------------------------------------------------------------
# Inverse closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of an inverse-closure computation."""

    ok: bool
    presentation: BlueprintPresentation
    diagnostics: tuple[str, ...] = ()


def inverse_closure(B: BlueprintPresentation) -> ClosureResult:
    """Additive closure inside the base extension adjoining -1.

    Supported class: every generator is a unit or annihilated (blue fields
    and the residue data arising in the catalog).  On that class the closure
    either leaves the presentation untouched or upgrades the coefficient
    order to 2, exactly when a relation exhibits an additively invertible
    unit (a sum of units equal to 0).  Inputs outside the class yield an
    unsupported result carrying the original presentation, never a wrong
    answer.
    """
    rels = _relations(B)
    units = detect_units(B, rels)
    stray = [B.name_of(g) for g in range(B.width) if g not in units and g not in rels.dead]
    if stray:
        return ClosureResult(False, B, (f"generators outside the normal-form class: {stray}",))
    # every canonical term is now a unit monomial: an empty side means a sum of units == 0
    if B.coeff_order == 1 and any(not (rel.lhs.terms and rel.rhs.terms)
                                  for rel in rels.relations):
        B = make_presentation(B.generator_names, B.inverted, 2, B.relations)
    return ClosureResult(True, B)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Elementary divisors d1 | d2 | ... and the rank of an integer matrix."""
    m = [list(map(int, r)) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]

    def add_col(src, dst, q):
        for r in m:
            r[dst] += q * r[src]

    t = 0
    while t < min(nrows, ncols):
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] and (best is None or abs(m[i][j]) < best):
                    best, pivot = abs(m[i][j]), (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            progressed = False
            for i in range(t + 1, nrows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    add_row(t, i, -q)
                    if m[i][t]:
                        swap_rows(t, i)
                        progressed = True
            for j in range(t + 1, ncols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    add_col(t, j, -q)
                    if m[t][j]:
                        swap_cols(t, j)
                        progressed = True
            if not progressed:
                break
        # enforce divisibility of the remaining block by the pivot
        stray = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % m[t][t]:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            add_row(stray, t, 1)
            continue
        if m[t][t] < 0:
            m[t] = [-a for a in m[t]]
        t += 1
    divisors = [m[i][i] for i in range(min(nrows, ncols)) if m[i][i]]
    return divisors, len(divisors)


# ---------------------------------------------------------------------------
# Normal-form blue fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalFormBlueField:
    """A blue field F1^epsilon[Lambda] given by an integer lattice presentation.

    Columns index the unit generators; each row encodes a relation
    prod T_j^(M[i][j]) == (-1)^(row_signs[i]).  The free rank of the unit
    lattice is ``#columns - rank(M)`` via Smith normal form, and the
    torsion invariants are the nontrivial elementary divisors.
    """

    epsilon: int
    unit_names: tuple[str, ...]
    lattice: tuple[tuple[int, ...], ...]
    row_signs: tuple[int, ...]
    torsion_invariants: tuple[int, ...] = field(init=False)
    rank: int = field(init=False)

    def __post_init__(self):
        if any(len(r) != len(self.unit_names) for r in self.lattice):
            raise ValueError("lattice rows must match the unit generators")
        if len(self.row_signs) != len(self.lattice):
            raise ValueError("one sign per lattice row required")
        if self.epsilon == 1 and any(self.row_signs):
            raise ValueError("sign bits need epsilon 2")
        divisors, rank = smith_normal_form(self.lattice) if self.lattice else ([], 0)
        object.__setattr__(self, "torsion_invariants",
                           tuple(d for d in divisors if d not in (0, 1)))
        object.__setattr__(self, "rank", len(self.unit_names) - rank)

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "units": list(self.unit_names),
            "lattice": [list(r) for r in self.lattice],
            "row_signs": list(self.row_signs),
            "rank": self.rank,
            "torsion": list(self.torsion_invariants),
        }


@dataclass(frozen=True)
class NormalFormAnalysis:
    """Decomposition of a residue-style presentation into normal-form data.

    ``sum_defined`` maps a generator to the balance of 1's in its defining
    sum-of-units relation (g == 1 + ... + 1 and variants with signs), and
    ``pairs`` holds the unit pairs of the relations between detected units.
    """

    ok: bool
    field: Optional[NormalFormBlueField]
    units: frozenset[int]
    killed: frozenset[int]
    sum_defined: dict[int, int]
    pairs: list
    diagnostics: tuple[str, ...] = ()


def analyze_normal_form(B: BlueprintPresentation) -> NormalFormAnalysis:
    """Try to read a presentation as F1^eps[Lambda] plus sum-of-unit definitions.

    Succeeds when every generator is a detected unit, annihilated, or
    directly defined as a sum of unit constants, and every relation is a
    kill, a lattice relation between unit monomials (including m1 + m2 == 0),
    or one of the defining sums, never empty for a unit.  Anything else is flagged raw.
    """
    return _analyze_normal_form(B, _relations(B))


def _analyze_normal_form(B: BlueprintPresentation, rels: _Relations) -> NormalFormAnalysis:
    units = detect_units(B, rels)
    sum_defined: dict[int, int] = {}
    pairs = []
    problems: list[str] = []
    unit_mask = _mask(units)
    for rel in rels.relations:
        lhs, rhs = rel.lhs.terms, rel.rhs.terms
        pair = _pair_shape(lhs, rhs)
        if pair and not (pair[0].mask | pair[1].mask) & ~unit_mask:
            pairs.append(pair)
            continue
        for single, rest in ((lhs, rhs), (rhs, lhs)):
            g = _defined_generator(single, rest)
            # a unit defined as 0 means 1 == 0, which has no normal form
            if g is not None and g not in sum_defined and (rest or g not in units):
                sum_defined[g] = sum(-1 if t.sign else 1 for t in rest)
                break
        else:
            problems.append(f"relation outside the normal-form shapes: "
                            f"{render_relation(B, rel)}")

    for g in range(B.width):
        if g in units or g in rels.dead or g in sum_defined:
            continue
        problems.append(f"generator {B.name_of(g)} is neither unit, killed, "
                        f"nor a sum of units")

    if rels.dead & B.inverted:  # 1 == 0; a unit set to 0 is refused above
        problems.append("an inverted generator is killed, so 1 == 0")
    if not problems and any((t1.mask | t2.mask) & _mask(sum_defined) for t1, t2, _ in pairs):
        problems.append("lattice relation touches a sum-defined generator")
    if problems:
        return NormalFormAnalysis(False, None, units, rels.dead, sum_defined, pairs,
                                  tuple(problems))
    cols = sorted(units - frozenset(sum_defined))
    rows, signs = _lattice_rows(pairs, cols)
    # every relation is now a unit pair or a sum definition, so the sums of units == 0
    # that make the inverse closure adjoin -1 are pairs t1 + t2 == 0, of sign 1 over F1
    epsilon = 2 if B.coeff_order == 2 or any(signs) else 1
    nf = NormalFormBlueField(epsilon, tuple(B.name_of(g) for g in cols),
                             tuple(rows), tuple(signs))
    return NormalFormAnalysis(True, nf, units, rels.dead, sum_defined, pairs)


# ---------------------------------------------------------------------------
# Potential characteristics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacteristicClass:
    """Which characteristics (primes, 0, and the idempotent 1) can occur.

    ``kind`` "all-but" excludes exactly ``excluded`` (so "indefinite" is
    all-but with nothing excluded); "finite" allows exactly ``included``;
    "unknown" makes no claim.
    """

    kind: Literal["all-but", "finite", "unknown"]
    excluded: frozenset[int] = frozenset()
    included: frozenset[int] = frozenset()

    @property
    def label(self) -> str:
        if self.kind == "all-but":
            if not self.excluded:
                return "indefinite"
            if self.excluded == {1}:
                return "all-but-1"
            return "all-but-" + ",".join(map(str, sorted(self.excluded)))
        if self.kind == "finite":
            return "{" + ",".join(map(str, sorted(self.included))) + "}"
        return "unknown"

    def almost_indefinite(self) -> Optional[bool]:
        if self.kind == "all-but":
            return True
        if self.kind == "finite":
            return False
        return None

    def may_include(self, p: int) -> bool:
        if self.kind == "all-but":
            return p not in self.excluded
        if self.kind == "finite":
            return p in self.included
        return True

    def intersect(self, other: "CharacteristicClass") -> "CharacteristicClass":
        if "unknown" in (self.kind, other.kind):
            return CharacteristicClass("unknown")
        if self.kind == other.kind == "all-but":
            return CharacteristicClass("all-but", self.excluded | other.excluded)
        if self.kind == "finite" and other.kind == "finite":
            return CharacteristicClass("finite", included=self.included & other.included)
        fin = self if self.kind == "finite" else other
        ab = other if self.kind == "finite" else self
        return CharacteristicClass("finite",
                                   included=frozenset(p for p in fin.included
                                                      if p not in ab.excluded))

    def is_refinement_of(self, other: "CharacteristicClass") -> bool:
        """True when every characteristic allowed here is allowed by other."""
        if other.kind == "unknown":
            return True
        if self.kind == "unknown":
            return False
        if self.kind == "finite":
            return all(other.may_include(p) for p in self.included)
        if other.kind == "finite":
            return False
        return other.excluded <= self.excluded


INDEFINITE = CharacteristicClass("all-but")
ALL_BUT_1 = CharacteristicClass("all-but", frozenset({1}))
UNKNOWN_CHARACTERISTICS = CharacteristicClass("unknown")


def _prime_divisors(n: int) -> frozenset[int]:
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


# rewrite steps per torsion probe, and the largest n probed in 1 + ... + 1 == 0
TORSION_BUDGET = 2_000
MAX_TORSION = 6


def potential_characteristics(B: BlueprintPresentation) -> CharacteristicClass:
    """Classify the potential characteristics of a presentation.

    A derivable relation 1 + ... + 1 == 0 (n times) pins the class to the
    prime divisors of n; 1 + 1 == 1 pins it to the idempotent
    characteristic 1; monoid presentations are indefinite (F1^2 ones have
    every characteristic except 1); presentations in lattice normal form
    with sum-of-unit definitions g == n_g exclude exactly the primes
    dividing some n_g (plus 1 when -1 is present).  Everything else is
    reported unknown.  One :func:`_relations` bundle serves the torsion-probe
    gate, the torsion probes, the monoid-shape test and the normal-form
    analysis.
    """
    return _potential_characteristics(B, _relations(B))


def _potential_characteristics(B: BlueprintPresentation,
                               rels: _Relations) -> CharacteristicClass:
    if _kills_a_unit(B, rels):  # 1 == 0, as the n = 1 probe reads it
        return CharacteristicClass("finite", included=frozenset({1}))
    # torsion probes are pointless (and costly) unless some relation can
    # produce a constants-only sum
    probe_worthwhile = B.coeff_order == 2 or any(
        terms and not any(t.mask for t in terms)
        for terms in map(Relation.all_terms, rels.saturated))
    if probe_worthwhile:
        for n in range(1, MAX_TORSION + 1):
            if _entailed(B, rels, relation([B.one()] * n, []), TORSION_BUDGET,
                         constant_states_only=True) == "yes":
                if n == 1:
                    return CharacteristicClass("finite", included=frozenset({1}))
                return CharacteristicClass("finite", included=_prime_divisors(n))
        if _entailed(B, rels, relation([B.one()] * 2, [B.one()]), TORSION_BUDGET,
                     constant_states_only=True) == "yes":
            return CharacteristicClass("finite", included=frozenset({1}))

    if all(len(rel.lhs) + len(rel.rhs) <= 1 or len(rel.lhs) == len(rel.rhs) == 1
           for rel in rels.relations):
        return INDEFINITE if B.coeff_order == 1 else ALL_BUT_1

    analysis = _analyze_normal_form(B, rels)
    if analysis.ok:
        excluded: set[int] = set()
        if analysis.field.epsilon == 2:
            excluded.add(1)
        for g, balance in analysis.sum_defined.items():
            if g in analysis.units:
                if balance == 0:
                    return UNKNOWN_CHARACTERISTICS
                excluded |= _prime_divisors(balance)
                if balance < 0:
                    excluded.add(1)
        return CharacteristicClass("all-but", frozenset(excluded))
    return UNKNOWN_CHARACTERISTICS


# ---------------------------------------------------------------------------
# Presentation simplification
# ---------------------------------------------------------------------------


def simplify_presentation(B: BlueprintPresentation) -> BlueprintPresentation:
    """Eliminate annihilated generators and generators identified with 1.

    Iterates: generators with g == 0 are dropped (their monomials become 0),
    generators with g == 1 are dropped (their exponents are erased), and
    trivial relations disappear.  The result presents the same blueprint on
    fewer generators; useful for recognizing free presentations.
    """
    current = B
    while True:
        dead = current.killed()
        dmask = _mask(dead)
        ones = set()
        for rel in current.relations:
            for single, other in (rel.sides(), rel.sides()[::-1]):
                if len(single) == 1 and len(other) == 1 and other.terms[0].is_one():
                    g = _bare_generator(single.terms[0])
                    if g is not None and single.terms[0].sign == 0:
                        ones.add(g)
        ones -= dead
        if not dead and not ones:
            return current
        keep = [g for g in range(current.width) if g not in dead and g not in ones]
        names = tuple(current.name_of(g) for g in keep)
        inverted = frozenset(keep.index(g) for g in current.inverted if g in keep)

        def project(t: Monomial) -> Monomial:
            if t.zero or t.mask & dmask:
                return zero_monomial(len(keep))
            return Monomial(t.sign, tuple(t.exps[g] for g in keep))

        rels = []
        for rel in current.relations:
            lhs = [project(t) for t in rel.lhs.terms]
            rhs = [project(t) for t in rel.rhs.terms]
            rels.append(relation(lhs, rhs))
        current = make_presentation(names, inverted, current.coeff_order, rels)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_monomial(B: BlueprintPresentation, m: Monomial) -> str:
    if m.zero:
        return "0"
    parts = []
    if m.sign:
        parts.append("-1")
    for i, e in enumerate(m.exps):
        if e == 1:
            parts.append(B.name_of(i))
        elif e:
            parts.append(f"{B.name_of(i)}^{e}")
    if not parts:
        return "1"
    return "*".join(parts) if parts != ["-1"] else "-1"


def render_sum(B: BlueprintPresentation, s: FormalSum) -> str:
    if not s.terms:
        return "0"
    return " + ".join(render_monomial(B, t) for t in s.terms)


def render_relation(B: BlueprintPresentation, rel: Relation) -> str:
    return f"{render_sum(B, rel.lhs)} == {render_sum(B, rel.rhs)}"
