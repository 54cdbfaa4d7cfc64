"""Prime spectra of presented blueprints as finite posets.

Every prime ideal of a blueprint presented over F1 by monomial generators is
generated by a subset of the generators, so the spectrum is a finite set of
generator subsets ordered by inclusion.  The criterion for a subset to be
prime is that no saturated relation has exactly one term outside the
candidate ideal.  Enumeration is a branch-and-bound search over subsets
against the whole saturated list, which, with the zero test, comes from
one :func:`blueprint._relations` bundle per presentation.

A zero blueprint has no primes, so the search runs before the zero test:
no leaves mean no primes, and a leaf whose 0/1 point (its generators to 0,
the rest to 1) satisfies every relation in B1, F2 or F3 is a morphism to a
nonzero semiring, which proves "not zero" without the rewrite search.

A point is a :class:`PrimePoint`, the tuple ``(size, gens)`` of its number
of generators and their increasing tuple.  Its own order, by size and then
lexicographically by index, is the spectrum order: every list of points
this module returns is sorted by it, and nothing sorts points by a key.
Orbit expansion sorts one integer key per point and builds the points in
that order, and a list in spectrum order is taken by :func:`poset` as it is.

The search and every other test of the criterion read the term-bit layout
of :func:`blueprint._term_bits`: one integer holds, per relation, a bit for
each term outside the candidate, and a few big-int operations flag every
relation with at least one and with at least two such terms at once.  A
search node updates these flags from its parent's, and the B1 test of a
leaf's point reads the same layout.

Before a node branches, it looks ahead by forced joins (unit propagation,
as in Davis-Putnam-Logemann-Loveland).  When a relation has exactly one
term outside the ideal so far and that term has exactly one undecided
generator, that generator must join: otherwise the term settles outside
and the relation keeps exactly one outside term in every leaf below.  The
node joins every forced generator at once, recounts, repeats, and is
dropped when a relation is left with exactly one outside term that is
settled.  This is exact, since it drops only subtrees holding no subset
that passes the criterion, so the leaves and their order do not change;
on so:5 the search visits 35,235 nodes instead of 111,169.

A presentation's verified ``symmetries`` map the relation set onto itself,
so they are blueprint automorphisms and the spectrum is a union of orbits
of the group they generate.  The search then keeps only the lex-least
member of each orbit (the lex-leader predicate of Crawford, Ginsberg, Luks
and Roy), and the leaves are expanded into their orbits.  This is sound.
Saturation is syntactic, so a permutation that maps the generating
relations onto themselves maps the saturated list onto itself too, and the
criterion the search applies is constant on orbits; pruning with any
subset of the group then keeps a representative of every orbit.  Without
symmetries the group is trivial and the search is the plain one.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Sequence

from .blueprint import (
    BlueprintPresentation,
    _holds_in_b1,
    _is_zero,
    _kills_a_unit,
    _mask,
    _outside_counts,
    _outside_terms,
    _point_certifies,
    _relations,
    _term_bits,
    _TermBits,
    quotient_by_vars,
    localize,
)

GENERATOR_CAP = 26


class GeneratorCapExceeded(Exception):
    """A presentation has more generators than the prime search takes."""


class PrimePoint(namedtuple("PrimePoint", "size gens")):
    """A prime ideal p_I as the increasing tuple ``gens`` of its generators.
    Points compare, hash and sort as ``(size, gens)``: by size, then
    lexicographically by index, which is the spectrum order.

    ``PrimePoint(iterable)`` sorts and deduplicates its argument.  Orbit
    expansion and the brute-force scan hold distinct increasing tuples
    already and build their points from ``(size, gens)`` as they are, as
    ``PrimePoint._make`` does."""

    __slots__ = ()

    def __new__(cls, vars: Iterable[int] = ()):
        gens = tuple(sorted(set(vars)))
        return super().__new__(cls, len(gens), gens)

    def __getnewargs__(self):
        return (self.gens,)

    @property
    def vars(self) -> frozenset[int]:
        return frozenset(self.gens)

    def label(self, B: BlueprintPresentation) -> str:
        if not self.gens:
            return "(0)"
        return "(" + ",".join(map(B.generator_names.__getitem__, self.gens)) + ")"


def _criterion_holds(layout: _TermBits, cand: int) -> bool:
    """No relation has exactly one term outside the candidate ideal ``cand``.

    ``layout`` is the term-bit layout of the relations.  The relations with
    exactly one outside term are those flagged as having at least one and
    not as having at least two, so the test is one mask operation over all
    relations at once.
    """
    some, several = _outside_counts(layout, _outside_terms(layout, cand))
    return not some & ~several


def is_prime(B: BlueprintPresentation, vars: Iterable[int]) -> bool:
    """Prime criterion on the saturated relations.

    The candidate is prime iff it holds no inverted generator and every
    relation has 0 or >= 2 terms outside it.  A relation with exactly one
    term outside would force that term into the ideal, and a constant term
    or an inverted generator can never get there.  A zero blueprint (1 == 0
    derivable) has no prime ideal, as :func:`enumerate_primes` and
    :func:`brute_force_primes` report; for a candidate that passes the
    criterion, its own 0/1 point (the candidate to 0, the rest to 1) is
    tried as a certificate of "not zero" before the zero test.  All of it
    reads one :func:`blueprint._relations` bundle of B.
    """
    cand = frozenset(vars)
    if cand & B.inverted:
        return False
    if not cand <= set(range(B.width)):
        raise ValueError("unknown generator index")
    rels = _relations(B)
    cmask = _mask(cand)
    if not _criterion_holds(_term_bits(rels.saturated, B.width), cmask):
        return False
    return _point_certifies(B, rels, cmask) or not _is_zero(B, rels)


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------


def _symmetry_group(generators: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Every element of the permutation group the generators produce,
    identity first."""
    identity = tuple(range(width))
    group = [identity]
    seen = {identity}
    for h in group:
        for sigma in generators:
            g = tuple(sigma[i] for i in h)
            if g not in seen:
                seen.add(g)
                group.append(g)
    return group


def _byte_tables(sigma: Sequence[int]) -> list[list[int]]:
    """Per-byte lookup tables: the image of a mask under ``sigma`` is the OR
    over bytes j of ``tables[j][byte j of the mask]``."""
    tables = []
    for lo in range(0, len(sigma), 8):
        table = [0]
        for g in sigma[lo:lo + 8]:
            image = 1 << g
            table += [t | image for t in table]
        tables.append(table * (256 // len(table)))
    return tables


def _orbit(mask: int, tables: Sequence[Sequence[Sequence[int]]]) -> list[int]:
    """The orbit of ``mask``, itself first, by breadth-first search over the
    generators given as :func:`_byte_tables`."""
    orbit = [mask]
    seen = {mask}
    for x in orbit:
        for per_byte in tables:
            image = 0
            rest = x
            for table in per_byte:
                image |= table[rest & 255]
                rest >>= 8
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


def _search_tables(layout: _TermBits, inv_mask: int):
    """The search order and the tables the node test and the look-ahead of
    :func:`_enumerate_masks` read, ``(order, unsettled, newly, single,
    hits)``, each indexed by the search position k.

    ``order`` lists the non-inverted generators, those in the most terms
    first, and ``order[k]`` is decided at k.  A term is settled at k when
    its support lies among the inverted generators and ``order[:k]``.
    ``unsettled[k]`` holds the terms not settled at k, and ``newly[k]`` the
    terms deciding ``order[k]`` settles, so the last generator of each term
    of ``newly[k]`` in the order is ``order[k]``.  ``single[k]`` holds the
    terms with exactly one generator among ``order[k:]``, and ``hits[k]`` is
    ``hit[g]`` for g = ``order[k]``.
    """
    hit, terms = layout.hit, layout.terms
    order = sorted((g for g in range(len(hit)) if not (inv_mask >> g) & 1),
                   key=lambda g: -hit[g].bit_count())
    norder = len(order)
    hits = [hit[g] for g in order]
    settled = [terms] * (norder + 1)
    for k in range(norder - 1, -1, -1):
        settled[k] = settled[k + 1] & ~hits[k]
    newly = [settled[k + 1] & ~settled[k] for k in range(norder)]
    unsettled = [terms & ~settled_k for settled_k in settled]
    # once and twice: the terms with at least one and at least two
    # generators among order[k:]
    single = [0] * (norder + 1)
    once = twice = 0
    for k in range(norder - 1, -1, -1):
        twice |= once & hits[k]
        once |= hits[k]
        single[k] = once & ~twice
    return order, unsettled, newly, single, hits


def _forced_joins_refute(layout: _TermBits, newly: Sequence[int], hits: Sequence[int],
                         pos: int, single: int, unsettled: int, rest: int, one: int) -> bool:
    """Whether the search node at position ``pos`` with ``rest`` and ``one``
    has no leaf below it that passes the criterion, by forced joins.
    ``newly`` and ``hits`` are the tables of :func:`_search_tables`, and
    ``single`` and ``unsettled`` its entries at ``pos``.

    A block of ``one`` has exactly one term t outside the ideal so far.  When
    t has exactly one undecided generator h (t lies in ``single``), every
    leaf below that keeps t outside has this block with exactly one outside
    term, so h joins in every passing leaf below.  The look-ahead joins all
    such generators at once, recounts the blocks, and refutes the node when
    a block is left with exactly one outside term and that term is settled;
    otherwise it repeats until no generator is forced.  Each forced join
    removes the sole term that forced it from ``rest``, so this ends, and the
    terms of ``rest`` keep the undecided generators they had, so ``single``
    and ``unsettled`` still apply.  The forced generator of a term of
    ``single`` is its last one in the search order: the ``order[j]`` with
    the term in ``newly[j]``.
    """
    terms, guard, low = layout.terms, layout.guard, layout.low
    while True:
        sole = rest & single
        forcing = (sole + terms) & guard & one
        if not forcing:
            return False
        joined = 0
        for j in range(pos, len(newly)):
            term = sole & newly[j]
            if term and (term + terms) & forcing:
                joined |= hits[j]
        rest &= ~joined
        one = (rest + terms) & ~((((rest | guard) - low) & rest) + terms) & guard
        if one & ~((rest & unsettled) + terms):
            return True


def _enumerate_masks(layout: _TermBits, inv_mask: int,
                     symmetries: Sequence[Sequence[int]]) -> list[int]:
    """The subsets passing the criterion on the relations of the term-bit
    ``layout`` that are lex-leaders under the group ``symmetries``
    generate, by depth-first branch and bound.

    Generators are decided one at a time, those in the most terms first; a
    branch dies as soon as some relation has every term decided and exactly
    one of them out.  A term is IN once it meets the chosen set, OUT once
    its support is fully among rejected or inverted generators.  Both are
    read off the term-bit layout of :func:`blueprint._term_bits`: a node
    carries ``rest``, the terms no chosen generator hits, and ``one``, the
    guard bits of the blocks with exactly one term in ``rest``.  A term of
    ``rest`` is OUT once it is settled at k, its support among the inverted
    generators and the first k generators of the order.  So a relation is
    dead exactly when its block is in ``one`` and its sole term of ``rest``
    is settled.  The tables are those of :func:`_search_tables`, indexed by
    the search position k, not by g.

    The node test is incremental; the parent is alive, so no block of its
    ``one`` has a settled sole term.  The child where g = order[k] stays
    out keeps ``rest`` and ``one``, and dies only when such a sole term is
    among ``newly[k]``, the terms that deciding g settles: one carry into
    the guard bits.  Every term of ``newly[k]`` contains g, so when g
    joins, nothing changes unless ``hit[g]`` meets ``rest``; only then is
    ``one`` recounted and the child's blocks tested in full.  Both steps
    are written out in ``decide`` with no call: the recount is the carries
    of :func:`blueprint._outside_counts`, and the full test is one carry of
    the terms of ``rest`` not yet settled into the guard bits.

    Forced joins (unit propagation, as in Davis-Putnam-Logemann-Loveland).
    Before a node branches, a block of ``one`` whose sole term has exactly
    one undecided generator forces that generator into every passing leaf
    below; :func:`_forced_joins_refute` joins the forced generators, recounts
    and drops the node when a block is then left with a settled sole term.
    The rule is exact: it only drops subtrees that hold no subset passing
    the criterion, so the leaves and their order are those of the search
    without it.  A node pays one carry, ``single[k]`` against ``one``, unless
    some block forces a join.  On so:5 the search visits 35,235 nodes for
    4,094 leaves (111,169 without the look-ahead).

    Symmetry breaking (the lex-leader predicate of Crawford, Ginsberg, Luks
    and Roy).  Read a subset x as the bit word of the generators in search
    order, and write x.sigma for the subset holding g exactly when x holds
    sigma(g).  A branch also dies once x > x.sigma is settled for some
    element sigma of the group, so every orbit keeps exactly its lex-least
    member, and with no symmetries the search is the plain one.  The check
    is incremental: each sigma waits at the first position k whose
    comparison is not yet settled, until both generators it compares are
    decided; it drops out once x < x.sigma is settled.  The lex-least
    member of an orbit passes every comparison, so pruning with any subset
    of the group would keep a representative of every orbit as well; the
    whole group keeps exactly one.  The caller expands the leaves into
    orbits, which needs the primes to form a union of orbits: each sigma
    must map the relations onto themselves, as the presentation checks.
    """
    terms, guard, low = layout.terms, layout.guard, layout.low
    order, unsettled, newly, single, hits = _search_tables(layout, inv_mask)
    position = {g: k for k, g in enumerate(order)}
    # per group element, the comparisons that are not trivially equal:
    # (level at which both bits are decided, bit of x, bit of x.sigma)
    chains = []
    for sigma in _symmetry_group(symmetries, len(layout.hit))[1:]:
        chain = [(max(k, position[sigma[g]]), 1 << g, 1 << sigma[g])
                 for k, g in enumerate(order) if sigma[g] != g]
        if chain:
            chains.append(chain)
    # waiting[level]: the (chain, index) pairs whose next comparison is
    # decided at that level
    waiting: list[list[tuple[int, int]]] = [[] for _ in order]
    for ci, chain in enumerate(chains):
        waiting[chain[0][0]].append((ci, 0))
    norder = len(order)
    bits = [1 << g for g in order]

    def lex_leader_so_far(level: int, x: int):
        """Advance the comparisons waiting at ``level`` on the decided bits
        of ``x``; None when x > x.sigma is settled for some sigma, else the
        levels the survivors now wait at, for the caller to undo."""
        moved = []
        for ci, k in waiting[level]:
            chain = chains[ci]
            while True:
                need, own, image = chain[k]
                if need > level:
                    waiting[need].append((ci, k))
                    moved.append(need)
                    break
                if x & own:
                    if not x & image:
                        for lvl in moved:
                            waiting[lvl].pop()
                        return None
                elif x & image:
                    break
                k += 1
                if k == len(chain):
                    break
        return moved

    results: list[int] = []

    def decide(pos: int, x: int, rest: int, one: int):
        if pos == norder:
            results.append(x)
            return
        # the look-ahead runs only when a block of one has its sole term
        # left with a single undecided generator
        if ((rest & single[pos]) + terms) & guard & one and \
                _forced_joins_refute(layout, newly, hits, pos, single[pos],
                                     unsettled[pos], rest, one):
            return
        symmetric = waiting[pos]
        hit_g = hits[pos]
        # g joins the ideal; every term deciding g settles contains g, so
        # the child is its parent's node unless g hits a term of rest.  Then
        # joined_one is "some and not several" of _outside_counts, and the
        # child dies when a block of joined_one has its sole term settled
        if hit_g & rest:
            joined = rest & ~hit_g
            joined_one = (joined + terms) & ~((((joined | guard) - low) & joined) + terms) & guard
            joins = not joined_one & ~((joined & unsettled[pos + 1]) + terms)
        else:
            joined, joined_one, joins = rest, one, True
        if joins:
            child = x | bits[pos]
            moved = lex_leader_so_far(pos, child) if symmetric else ()
            if moved is not None:
                decide(pos + 1, child, joined, joined_one)
                for lvl in moved:
                    waiting[lvl].pop()
        # g stays out; the child dies when a block of one has its sole term
        # among the newly settled ones
        if not ((rest & newly[pos]) + terms) & one:
            moved = lex_leader_so_far(pos, x) if symmetric else ()
            if moved is not None:
                decide(pos + 1, x, rest, one)
                for lvl in moved:
                    waiting[lvl].pop()

    some, several = _outside_counts(layout, terms)
    one = some & ~several
    if not one & ~(unsettled[0] + terms):
        decide(0, 0, terms, one)
    return results


def _prime_leaders(B: BlueprintPresentation) -> list[int]:
    """One member of each ``B.symmetries`` orbit of the prime ideals, as
    generator masks in search order: the leaves of :func:`_enumerate_masks`
    over the whole saturated list, or none on a zero blueprint.

    The leaves are exactly the lex-leaders of the subsets that pass the
    criterion, and the search prunes with the whole group, so distinct
    leaders have disjoint orbits.  Every member of a leader's orbit is prime
    because the criterion on the saturated relations is constant on orbits.

    The search runs before the zero test.  A unit that
    :func:`blueprint._kills_a_unit` finds killed means no search at all,
    and no leaves mean no primes.  Otherwise each leaf's 0/1 point (its
    generators to 0, the rest to 1) is tried as a certificate of "not
    zero": in B1 on the search's own layout for ``coeff_order`` 1, in F2
    and F3 by :func:`blueprint._point_certifies` otherwise.  Only when no
    leaf certifies does the rewrite search of the zero test run.
    """
    if B.width > GENERATOR_CAP:
        raise GeneratorCapExceeded(f"presentation has {B.width} generators, above "
                                   f"the enumeration cap {GENERATOR_CAP}")
    rels = _relations(B)
    if _kills_a_unit(B, rels):
        return []
    layout = _term_bits(rels.saturated, B.width)
    leaders = _enumerate_masks(layout, _mask(B.inverted), B.symmetries)
    if not leaders:
        return []
    if B.coeff_order == 1:
        certified = any(_holds_in_b1(layout, _outside_terms(layout, m)) for m in leaders)
    else:
        certified = any(_point_certifies(B, rels, m) for m in leaders)
    return [] if not certified and _is_zero(B, rels) else leaders


def _index_tables(width: int) -> list[list[tuple[int, ...]]]:
    """Per-byte tables that read points off the keys of :func:`_orbit_points`.

    Bit i of a key's low ``width`` bits is set when generator width - 1 - i
    is absent, and ``tables[j][b]`` is the increasing tuple of the
    generators that byte j of the key, when it is b, leaves present.  Bits
    of b above ``width`` are ignored, so the size above the low bits does not
    disturb the top byte.  A table is built bit by bit: bit i's generator is
    below those of the bits under it, so it goes first where bit i is clear.
    """
    tables = []
    for lo in range(0, width, 8):
        table: list[tuple[int, ...]] = [()]
        for g in range(width - 1 - lo, max(width - 9 - lo, -1), -1):
            table = [(g,) + gens for gens in table] + table
        tables.append(table * (256 // len(table)))
    return tables


_NO_INDICES = [()] * 256


def _orbit_points(B: BlueprintPresentation, leaders: Iterable[int]) -> list[PrimePoint]:
    """The points of the ``B.symmetries`` orbits of the disjoint orbit
    ``leaders``, sorted; each orbit is expanded by breadth-first search over
    the generators, so no point is sorted or deduplicated again.

    The orbits are expanded on bit-reversed masks r, with generator g at bit
    width - 1 - g, under the symmetries conjugated by the reversal.  One
    integer key per point, its size above the low ``width`` bits and the
    complement of r in them, sorts in spectrum order: by size, and within a
    size the point holding the least generator in which two points differ
    has the larger r.  The keys are sorted once, and each point's ``gens``
    is read off its key by the :func:`_index_tables` of four bytes at a
    time, concatenated from the high bytes, which hold the low generators,
    down.
    """
    leaders = list(leaders)
    if not leaders:
        return []
    width = B.width
    reverse = f"0{width}b"
    masks = [int(format(m, reverse)[::-1], 2) for m in leaders]
    if B.symmetries:
        tables = [_byte_tables([width - 1 - sigma[width - 1 - g] for g in range(width)])
                  for sigma in B.symmetries]
        masks = [m for leader in masks for m in _orbit(leader, tables)]
    full = (1 << width) - 1
    keys = [(m.bit_count() << width) | (m ^ full) for m in masks]
    del masks  # the expanded masks go before the sort
    keys.sort()
    index = _index_tables(width) or [_NO_INDICES]
    index += [_NO_INDICES] * (-len(index) % 4)
    gens = None
    for lo in reversed(range(0, len(index), 4)):
        t0, t1, t2, t3 = index[lo:lo + 4]
        s0, s1, s2, s3 = 8 * lo, 8 * lo + 8, 8 * lo + 16, 8 * lo + 24
        part = [t3[(k >> s3) & 255] + t2[(k >> s2) & 255] + t1[(k >> s1) & 255]
                + t0[(k >> s0) & 255] for k in keys]
        gens = part if gens is None else list(map(tuple.__add__, gens, part))
    del keys
    new = tuple.__new__  # PrimePoint._make without its length check
    return [new(PrimePoint, (len(g), g)) for g in gens]


def enumerate_primes(B: BlueprintPresentation) -> list[PrimePoint]:
    """All prime ideals of the presentation, sorted by size then index.

    Each call runs the search of :func:`_prime_leaders` and expands every
    orbit it finds into points.  :func:`weyl.rank_space` does not call it:
    it reads the orbit leaders and expands only the orbits it needs.
    """
    return _orbit_points(B, _prime_leaders(B))


def brute_force_primes(B: BlueprintPresentation) -> list[PrimePoint]:
    """Oracle: scan all subsets of the non-inverted generators.

    Every subset is tested directly against the criterion (no branch and
    bound): each relation must have 0 or at least 2 terms outside the
    candidate ideal.  The subsets are scanned by size, each size in
    lexicographic order, which is the spectrum order; each is an increasing
    tuple already, so its point is built as it is.
    """
    rels = _relations(B)
    if _is_zero(B, rels):
        return []
    layout = _term_bits(rels.saturated, B.width)
    free = [g for g in range(B.width) if g not in B.inverted]
    make = PrimePoint._make
    return [make((k, gens)) for k in range(len(free) + 1)
            for gens in itertools.combinations(free, k)
            if _criterion_holds(layout, sum(1 << g for g in gens))]


# ---------------------------------------------------------------------------
# The finite poset topology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumPoset:
    """A finite spectrum with its inclusion order.

    Closed subsets are the up-closed sets.  The points are distinct, so the
    topology is T0 and, being finite, sober: every irreducible closed set
    is the closure of exactly one point.
    """

    points: tuple[PrimePoint, ...]

    def __post_init__(self):
        if not _strictly_increasing(self.points) and \
                len(set(self.points)) != len(self.points):
            raise ValueError("points must be distinct")

    def leq(self, i: int, j: int) -> bool:
        """points[i] specializes to points[j]: inclusion of ideals."""
        return self.points[i].vars <= self.points[j].vars

    def hasse_edges(self) -> list[tuple[int, int]]:
        """The covers (i, j), points[i] < points[j] with nothing between.

        Transitive reduction (Aho, Garey and Ullman, 1972) on bit-parallel
        rows: bit k of ``rows[g]`` is set when the k-th point in spectrum
        order contains generator g, so the points above a point are the AND
        of its generators' rows, above its own bit.  Smaller points come
        first, so the lowest bit left is a cover; the points above that
        cover, the AND of the rows of its further generators, are then
        cleared.
        """
        order = sorted(range(len(self.points)), key=self.points.__getitem__)
        pts = [self.points[i] for i in order]
        rows = {g: int("".join("1" if g in p.gens else "0" for p in reversed(pts)), 2)
                for g in {g for p in pts for g in p.gens}}
        edges = []
        for a, p in enumerate(pts):
            up = (1 << len(pts)) - (2 << a)
            for g in p.gens:
                up &= rows[g]
            while up:
                c = (up & -up).bit_length() - 1
                edges.append((order[a], order[c]))
                above = up
                for g in set(pts[c].gens).difference(p.gens):
                    above &= rows[g]
                up ^= above
        return sorted(edges)

    def components(self) -> list[frozenset[int]]:
        """The connected components of the inclusion order, read off the
        covers: comparable points are joined by a chain of covers."""
        parent = list(range(len(self.points)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in self.hasse_edges():
            parent[find(i)] = find(j)
        comps: dict[int, set[int]] = {}
        for i in range(len(parent)):
            comps.setdefault(find(i), set()).add(i)
        return sorted((frozenset(v) for v in comps.values()), key=sorted)


def _strictly_increasing(points: Sequence[PrimePoint]) -> bool:
    """Whether the points are in strictly increasing spectrum order, which
    proves them distinct."""
    return all(map(operator.lt, points, itertools.islice(points, 1, None)))


def poset(points: Iterable[PrimePoint]) -> SpectrumPoset:
    """The poset of the points, sorted and deduplicated.  A spectrum in
    spectrum order, as every list of points this module returns is, is taken
    as it is."""
    points = tuple(points)
    if not _strictly_increasing(points):
        points = tuple(sorted(set(points)))
    return SpectrumPoset(points)


def export_dot(P: SpectrumPoset, B: BlueprintPresentation, name: str) -> str:
    """Deterministic DOT digraph of the Hasse diagram, edges lower to higher.
    The name and the labels are DOT strings, with ``\\`` and ``"`` escaped."""
    def quoted(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"digraph {quoted(name)} {{", "  rankdir=BT;"]
    for i, p in enumerate(P.points):
        lines.append(f"  p{i} [label={quoted(p.label(B))}];")
    for i, j in P.hasse_edges():
        lines.append(f"  p{i} -> p{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def spectrum_to_json(P: SpectrumPoset) -> dict:
    return {
        "points": [list(p.gens) for p in P.points],
        "hasse": [list(e) for e in P.hasse_edges()],
    }


# ---------------------------------------------------------------------------
# Residue presentations
# ---------------------------------------------------------------------------


def residue_presentation(B: BlueprintPresentation, p: PrimePoint) -> BlueprintPresentation:
    """The residue field as a raw presentation (all survivors inverted)."""
    complement = [g for g in range(B.width) if g not in p.gens]
    return quotient_by_vars(localize(B, complement), p.gens)
