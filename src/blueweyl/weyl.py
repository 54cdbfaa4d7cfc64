"""Rank spaces, induced Weyl laws, and Tits points over F1 and F1^2.

A point of a finite blue scheme is pseudo-Hopf when its closed subscheme is
affine, generated by its units after adjoining inverses, flat over the
integers, and almost of indefinite characteristic.  The rank space collects
the pseudo-Hopf points of minimal rank per connected component together with
their unit fields; a comultiplication then induces a monoid law on those
points by substituting vanishing patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence

from .blueprint import (
    BlueprintPresentation,
    CharacteristicClass,
    Monomial,
    NormalFormBlueField,
    Relation,
    _analyze_normal_form,
    _defined_generator,
    _lattice_rows,
    _mask,
    _outside_terms,
    _pair_shape,
    _potential_characteristics,
    _relations,
    _term_bits,
    _TermBits,
    _unit_closure,
    localize,
    quotient_by_vars,
    smith_normal_form,
    tensor,
)
from .spectrum import (
    PrimePoint,
    SpectrumPoset,
    _orbit_points,
    _prime_leaders,
)


class RankSpaceUndecidable(Exception):
    """A point of unknown pseudo-Hopf status interferes with the minimal rank."""

    def __init__(self, B: BlueprintPresentation, offenders: list["PseudoHopfReport"]):
        labels = ", ".join(r.point.label(B) for r in offenders)
        super().__init__(f"rank space undecidable: unknown-status points at "
                         f"minimal rank: {labels}")
        self.offenders = offenders


class LawDoesNotDescend(Exception):
    """The comultiplication does not induce a law on the rank points."""

    def __init__(self, B: BlueprintPresentation, x: PrimePoint, y: PrimePoint,
                 pattern: frozenset[int]):
        label = "(" + ",".join(B.name_of(i) for i in sorted(pattern)) + ")"
        super().__init__(
            f"law does not descend: product of {x.label(B)} and {y.label(B)} "
            f"has vanishing pattern {label}, which is no rank point")
        self.pair = (x, y)
        self.pattern = pattern


# ---------------------------------------------------------------------------
# Pseudo-Hopf classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PseudoHopfReport:
    """Certification status of one spectrum point.

    ``rank`` is exact for certified points (the free rank of the unit
    lattice of the closed subscheme).  For unknown points it is an upper
    estimate: detected-unit lattice rank plus the number of undetermined
    generators; it is used only to decide whether the point can interfere
    with the minimal rank.
    """

    point: PrimePoint
    rank: int
    status: Literal["certified", "unknown", "rejected"]
    epsilon: Optional[int] = None
    field: Optional[NormalFormBlueField] = None
    characteristics: Optional[CharacteristicClass] = None
    diagnostics: tuple[str, ...] = ()


def _classify_point(B: BlueprintPresentation, p: PrimePoint) -> PseudoHopfReport:
    subscheme = quotient_by_vars(B, p.gens)
    kappa = localize(subscheme, [g for g in range(B.width) if g not in p.gens])
    rels = _relations(subscheme)
    analysis = _analyze_normal_form(subscheme, rels)
    chars = _potential_characteristics(kappa, rels)

    if chars.almost_indefinite() is False:
        return PseudoHopfReport(p, 0, "rejected", characteristics=chars,
                                diagnostics=("finitely many potential characteristics",))
    if analysis.ok and chars.almost_indefinite():
        nf = analysis.field
        return PseudoHopfReport(p, nf.rank, "certified", epsilon=nf.epsilon,
                                field=nf, characteristics=chars)

    # unknown: estimate the rank from what is detected
    defined = frozenset(analysis.sum_defined)
    undetermined = B.width - len(analysis.units | analysis.killed | defined)
    cols = sorted(analysis.units - defined)
    estimate = _rank_estimate(analysis.pairs, cols) + undetermined
    diag = tuple(analysis.diagnostics) + (
        () if chars.almost_indefinite() else ("characteristic class unknown",))
    return PseudoHopfReport(p, estimate, "unknown",
                            characteristics=chars, diagnostics=diag)


def _rank_estimate(pairs, cols: Sequence[int]) -> int:
    """Free rank of the lattice the unit pairs span over ``cols``; the
    estimates add the generators nothing determines."""
    rows, _ = _lattice_rows(pairs, cols)
    return len(cols) - smith_normal_form(rows)[1]


# -- fast mask-level screen ---------------------------------------------------
#
# Spectra of the matrix models run to tens of thousands of points, so the
# full symbolic classification is reserved for the few candidates that
# survive a bitmask scan.  Everything the scan reports about the remaining
# points is an upper rank estimate of the same kind as in _classify_point.
#
# The scan reads B.relations in the term-bit layout of
# blueprint._term_bits: one integer holds the terms outside the point, a
# block per relation.  What a relation says about a point depends only on
# its block, so the outcome per (relation index, block) is memoised for the
# points of one presentation (see _scanner): a unit pair, a generator
# defined as a sum of constants, or a shape the scan does not recognise.
# Two outcomes are read off the bits without the memo: a block holding only
# constants sends the whole point to the slow path, and a block with more
# than two terms and no side of exactly one term is an unrecognised shape.
# The second keeps relations spanning every generator (the determinant) out
# of the memo, which on so:5 then holds about 200 entries.  The Smith-normal-form rank of
# the inside pairs is memoised too, keyed by their (relation, block) keys
# and the column mask.


def _relation_outcome(rel: Relation, s: int):
    """(pair, 0) for a unit pair, (None, 1 << g) for T_g == sum of constants
    and (None, 0) for any other shape, when the terms ``s`` of ``rel``
    (block-local bits) are outside the point."""
    a = [t for i, t in enumerate(rel.lhs.terms) if s >> i & 1]
    b = [t for i, t in enumerate(rel.rhs.terms, len(rel.lhs)) if s >> i & 1]
    if len(a) + len(b) == 2:
        return _pair_shape(a, b), 0
    g = None
    if len(a) == 1:
        g = _defined_generator(a, b)
    elif len(b) == 1:
        g = _defined_generator(b, a)
    return None, 0 if g is None else 1 << g


def _fast_scan(B: BlueprintPresentation, layout: _TermBits, pmask: int,
               outcomes: dict, ranks: dict) -> Optional[int]:
    """Rank estimate of the point ``pmask`` from a cheap scan, or None when
    the point needs the full classification.

    ``layout`` is the term-bit layout of ``B.relations``; ``outcomes`` and
    ``ranks`` are the memos described above, shared by the points of one
    presentation.
    """
    if B.coeff_order == 2:
        return None
    x = _outside_terms(layout, pmask)
    pairs = []         # m1 == m2 or m1 + m2 == 0 among the surviving terms
    keys = []          # the (relation, block) key of each pair
    definers = 0       # generators g == sum of constants
    shapes_ok = True
    for ri, block in enumerate(layout.blocks):
        s = (x >> block.offset) & block.terms
        if not s:
            continue
        if s == block.consts:
            # constants always survive; a relation left with only them may
            # pin characteristics
            return None
        n = s.bit_count()
        left = (s & block.lhs).bit_count()
        if n > 2 and left != 1 and n - left != 1:
            shapes_ok = False
            continue
        key = (ri, s)
        outcome = outcomes.get(key)
        if outcome is None:
            outcome = outcomes[key] = _relation_outcome(B.relations[ri], s)
        pair, definer = outcome
        if pair:
            pairs.append(pair)
            keys.append(key)
        elif definer:
            definers |= definer
        else:
            shapes_ok = False

    units = _unit_closure(pairs, _mask(B.inverted), 0)
    inside = [i for i, (t1, t2, _) in enumerate(pairs) if not (t1.mask | t2.mask) & ~units]
    alive = ~pmask & ((1 << B.width) - 1)
    uncovered = alive & ~units & ~definers
    if shapes_ok and len(inside) == len(pairs) and not uncovered:
        return None
    cols = alive & units & ~definers
    key = (tuple(keys[i] for i in inside), cols)
    rank = ranks.get(key)
    if rank is None:
        rank = ranks[key] = _rank_estimate([pairs[i] for i in inside],
                                           [g for g in range(B.width) if cols >> g & 1])
    return rank + uncovered.bit_count()


def _scanner(B: BlueprintPresentation):
    """:func:`_fast_scan` of ``B`` as a function of the point mask, with one
    term-bit layout and memo set for all points."""
    layout = _term_bits(B.relations, B.width)
    outcomes: dict = {}
    ranks: dict = {}
    return lambda pmask: _fast_scan(B, layout, pmask, outcomes, ranks)


def pseudo_hopf_points(B: BlueprintPresentation,
                       points: Iterable[PrimePoint]) -> list[PseudoHopfReport]:
    """Certified and unknown pseudo-Hopf candidates among ``points``, the
    spectrum of ``B``, one report per point in the order given.

    Points whose residue field has only finitely many potential
    characteristics are definitively not pseudo-Hopf and are dropped.
    Points that the fast scan leaves undetermined are reported unknown with
    its upper rank estimate; the rest take the full classification, so a
    certified point prints its own lattice.  :func:`rank_space` builds the
    same reports one orbit at a time, and only for the orbits it needs.
    """
    scan = _scanner(B)
    reports = []
    for p in points:
        estimate = scan(_mask(p.gens))
        if estimate is None:
            r = _classify_point(B, p)
            if r.status != "rejected":
                reports.append(r)
        else:
            reports.append(PseudoHopfReport(p, estimate, "unknown",
                                            diagnostics=("mask-level scan only",)))
    return reports


# ---------------------------------------------------------------------------
# Rank spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankSpacePoint:
    """A minimal-rank pseudo-Hopf point with its unit-field normal form."""

    point: PrimePoint
    field: NormalFormBlueField
    rank: int

    @property
    def epsilon(self) -> int:
        return self.field.epsilon

    def to_json(self) -> dict:
        return {"pattern": list(self.point.gens),
                "epsilon": self.epsilon,
                "lattice": [list(r) for r in self.field.lattice],
                "row_signs": list(self.field.row_signs)}


def rank_space(B: BlueprintPresentation) -> list[RankSpacePoint]:
    """Minimal-rank certified pseudo-Hopf points per connected component,
    sorted.  Raises :class:`RankSpaceUndecidable` when an unknown-status
    point could sit at or below the minimal rank of its component, listing
    every such point of the first component that has one.

    The prime search runs once, and the fast scan once per ``B.symmetries``
    orbit leader.  Its answer is constant on orbits, since each symmetry
    maps the relation set onto itself and so permutes the relations the
    scan reads along with the generators.  Only the orbits it sends to the
    slow path are expanded there, and each member is classified once.  A
    scanned orbit is expanded into unknown reports only where it could
    matter: always when the spectrum falls into several components, and in
    one component only if its estimate reaches the minimal certified rank
    or nothing is certified.  The spectrum is one component when it has a
    least point (:func:`_has_least_point`); otherwise the components of the
    whole spectrum decide which points compete.
    """
    leaders = _prime_leaders(B)
    scan = _scanner(B)
    by_estimate: dict[Optional[int], list[int]] = {}
    for leader in leaders:
        by_estimate.setdefault(scan(leader), []).append(leader)
    points = _orbit_points(B, by_estimate.pop(None, []))
    reports = [r for r in (_classify_point(B, p) for p in points) if r.status != "rejected"]
    connected = _has_least_point(B, leaders)
    bound = min((r.rank for r in reports if r.status == "certified"), default=None)
    for estimate, group in by_estimate.items():
        if connected and bound is not None and estimate > bound:
            continue
        members = _orbit_points(B, group)
        points += members
        reports += [PseudoHopfReport(p, estimate, "unknown",
                                     diagnostics=("mask-level scan only",)) for p in members]
    reports.sort(key=lambda r: r.point)

    components = [reports]
    if not connected:
        spec = SpectrumPoset(tuple(sorted(points)))
        comps = spec.components()
        comp_of = {spec.points[i]: ci for ci, comp in enumerate(comps) for i in comp}
        components = [[] for _ in comps]
        for r in reports:
            components[comp_of[r.point]].append(r)
    ranked = []
    for rs in components:
        least = min((r.rank for r in rs if r.status == "certified"), default=None)
        offenders = [r for r in rs if r.status == "unknown"
                     and (least is None or r.rank <= least)]
        if offenders:
            raise RankSpaceUndecidable(B, offenders)
        ranked += [RankSpacePoint(r.point, r.field, r.rank) for r in rs
                   if r.status == "certified" and r.rank == least]
    return sorted(ranked, key=lambda r: r.point)


def _has_least_point(B: BlueprintPresentation, leaders: Sequence[int]) -> bool:
    """Whether the spectrum has a least point, which makes it one component:
    a leader fixed by every symmetry that lies inside every leader, and so
    inside every member of every orbit."""
    least = min(leaders, key=int.bit_count, default=0)
    gens = [g for g in range(B.width) if least >> g & 1]
    return bool(leaders) and all(m & least == least for m in leaders) and \
        all(sum(1 << sigma[g] for g in gens) == least for sigma in B.symmetries)


# ---------------------------------------------------------------------------
# Comultiplications and the induced law on rank points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comultiplication:
    """Images of generators as formal sums of primed (x) double-primed monomials."""

    images: tuple[tuple[tuple[Monomial, Monomial], ...], ...]

    def __post_init__(self):
        widths = {len(m.exps) for terms in self.images for pair in terms for m in pair}
        if len(widths) > 1:
            raise ValueError("comultiplication terms reference inconsistent copies")

    @property
    def width(self) -> int:
        return len(self.images)


def comultiplication(images: Sequence[Sequence[tuple[Monomial, Monomial]]]) -> Comultiplication:
    return Comultiplication(tuple(tuple(terms) for terms in images))


def product_pattern(delta: Comultiplication, x_vars: frozenset[int],
                    y_vars: frozenset[int]) -> frozenset[int]:
    """Vanishing pattern of the product of two vanishing patterns: the
    generators g none of whose image terms a (x) b survives, that is, has
    both factors non-zero and a outside ``x_vars``, b outside ``y_vars``."""
    xmask, ymask = _mask(x_vars), _mask(y_vars)
    return frozenset(g for g, terms in enumerate(delta.images)
                     if all(a.zero or b.zero or a.mask & xmask or b.mask & ymask
                            for a, b in terms))


@dataclass(frozen=True)
class WeylMonoid:
    """A finite monoid structure on rank-space points.

    ``table[i][j]`` is the index of the product of elements i and j;
    ``identity`` indexes the neutral element.
    """

    elements: tuple[RankSpacePoint, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int

    def __len__(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def is_associative(self) -> bool:
        n = len(self.elements)
        return all(self.table[self.table[i][j]][k] == self.table[i][self.table[j][k]]
                   for i in range(n) for j in range(n) for k in range(n))

    def is_unital(self) -> bool:
        e = self.identity
        return all(self.table[e][i] == i and self.table[i][e] == i
                   for i in range(len(self.elements)))

    def is_group(self) -> bool:
        if not (self.is_associative() and self.is_unital()):
            return False
        n = len(self.elements)
        return all(any(self.table[i][j] == self.identity for j in range(n))
                   for i in range(n))

    def is_abelian(self) -> bool:
        n = len(self.elements)
        return all(self.table[i][j] == self.table[j][i]
                   for i in range(n) for j in range(n))

    def submonoid_closed(self, indices: Iterable[int]) -> bool:
        idx = set(indices)
        return self.identity in idx and \
            all(self.table[i][j] in idx for i in idx for j in idx)

    def to_json(self) -> dict:
        return {"order": len(self.elements),
                "identity": self.identity,
                "elements": [e.to_json() for e in self.elements],
                "table": [list(r) for r in self.table]}


def induced_weyl_law(B: BlueprintPresentation, delta: Comultiplication,
                     counit_zero: frozenset[int],
                     points: Sequence[RankSpacePoint]) -> WeylMonoid:
    """Descend a comultiplication to a monoid law on the rank points.

    For each pair of rank points the vanishing patterns are substituted into
    the comultiplication (left factor primed, right factor double-primed);
    the surviving pattern must be the pattern of exactly one rank point,
    which is the product.  The identity is the rank point fixed by the
    counit pattern.
    """
    if delta.width != B.width:
        raise ValueError("comultiplication width does not match the presentation")
    pts = list(points)
    by_pattern = {p.point.vars: i for i, p in enumerate(pts)}
    if len(by_pattern) != len(pts):
        raise ValueError("duplicate vanishing patterns among rank points")
    if counit_zero not in by_pattern:
        raise ValueError("counit pattern is not a rank point")
    table = []
    for x in pts:
        row = []
        for y in pts:
            z = product_pattern(delta, x.point.vars, y.point.vars)
            if z not in by_pattern:
                raise LawDoesNotDescend(B, x.point, y.point, z)
            row.append(by_pattern[z])
        table.append(tuple(row))
    return WeylMonoid(tuple(pts), tuple(table), by_pattern[counit_zero])


# ---------------------------------------------------------------------------
# Tits points over F1 and F1^2
# ---------------------------------------------------------------------------


def _gf2_solution_count(rows: Sequence[Sequence[int]], rhs: Sequence[int],
                        ncols: int) -> int:
    """Number of solutions of a GF(2) linear system, 0 when inconsistent."""
    aug = [(sum((r[j] & 1) << j for j in range(ncols)) | ((b & 1) << ncols))
           for r, b in zip(rows, rhs)]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(aug)) if (aug[i] >> col) & 1), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        for i in range(len(aug)):
            if i != rank and (aug[i] >> col) & 1:
                aug[i] ^= aug[rank]
        rank += 1
    for i in range(rank, len(aug)):
        if aug[i] >> ncols:
            return 0
    return 1 << (ncols - rank)


def field_hom_count(nf: NormalFormBlueField, m: int) -> int:
    """Morphisms from a lattice blue field to F1^m for m in {1, 2}."""
    if m == 1:
        if nf.epsilon == 2:
            return 0
        return 1
    rows = [[e % 2 for e in r] for r in nf.lattice]
    rhs = list(nf.row_signs)
    return _gf2_solution_count(rows, rhs, len(nf.unit_names))


@dataclass(frozen=True)
class TitsPoints:
    count: int
    per_point: tuple[int, ...]
    monoid: Optional[WeylMonoid]


def tits_points(B: BlueprintPresentation, m: int,
                points: Sequence[RankSpacePoint], delta: Comultiplication,
                counit_zero: frozenset[int]) -> TitsPoints:
    """Count the F1^m-rational points of the rank space ``points``, m in {1, 2}.

    Each rank point contributes the lattice homomorphisms from its unit
    field to the group of m-th roots of unity that respect the sign
    constraints.  The law that ``delta`` induces is returned restricted to
    the supporting rank points (and checked closed), or None when no rank
    point has an F1^m-point.
    """
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    pts = list(points)
    per_point = tuple(field_hom_count(p.field, m) for p in pts)
    monoid = None
    law = induced_weyl_law(B, delta, counit_zero, pts)
    support = [i for i, c in enumerate(per_point) if c]
    if support:
        if not law.submonoid_closed(support):
            raise ValueError(
                f"F1^{m}-points do not form a submonoid of the Weyl monoid")
        remap = {old: new for new, old in enumerate(support)}
        sub_table = tuple(tuple(remap[law.table[i][j]] for j in support)
                          for i in support)
        monoid = WeylMonoid(tuple(pts[i] for i in support), sub_table,
                            remap[law.identity])
    return TitsPoints(sum(per_point), per_point, monoid)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductReport:
    ok: bool
    left_rank: int
    right_rank: int
    product_rank: int
    pairs_expected: int
    pairs_found: int
    violations: tuple[str, ...]


def product_check(B1: BlueprintPresentation, B2: BlueprintPresentation) -> ProductReport:
    """Verify Z(X x Y) = Z(X) x Z(Y) and rank additivity on a tensor product."""
    T = tensor(B1, B2)
    r1 = rank_space(B1)
    r2 = rank_space(B2)
    rt = rank_space(T)
    expected = {frozenset(x.point.vars | frozenset(g + B1.width for g in y.point.vars))
                for x in r1 for y in r2}
    found = {p.point.vars for p in rt}
    violations = []
    for missing in sorted(map(sorted, expected - found)):
        violations.append(f"missing product rank point {missing}")
    for extra in sorted(map(sorted, found - expected)):
        violations.append(f"unexpected product rank point {extra}")
    lr = r1[0].rank if r1 else 0
    rr = r2[0].rank if r2 else 0
    pr = rt[0].rank if rt else 0
    if pr != lr + rr:
        violations.append(f"rank not additive: {pr} != {lr} + {rr}")
    return ProductReport(not violations, lr, rr, pr, len(expected), len(found),
                         tuple(violations))
