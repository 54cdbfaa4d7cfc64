"""Core blueprint operations: presentations, tensor products, entailment,
units, inverse closure, Smith normal form, characteristics."""

import hashlib
import itertools
import math
import random

import pytest

from blueweyl import (
    inverse_closure,
    localize,
    mk_free,
    potential_characteristics,
    quotient_by_vars,
    relation,
    relation_entailed,
    simplify_presentation,
    smith_normal_form,
    tensor,
)
from blueweyl.blueprint import (
    FormalSum,
    Monomial,
    _canonical_relations,
    _holds_in_b1,
    _kill_terms,
    _outside_terms,
    _point_certifies,
    _relations,
    _saturate,
    _term_bits,
    formal_sum,
    is_zero_blueprint,
    one_monomial,
    saturate_relations,
    zero_monomial,
)
from blueweyl.spectrum import (
    _criterion_holds,
    brute_force_primes,
    enumerate_primes,
    is_prime,
    residue_presentation,
)
from blueweyl import catalog


def sl2_presentation():
    return catalog.sl(2).presentation


# ---------------------------------------------------------------------------
# free objects and basic constructions
# ---------------------------------------------------------------------------


def test_mk_free_polynomial_monoid():
    B = mk_free(4)
    assert B.width == 4
    assert not B.relations
    assert not B.inverted


def test_mk_free_torus_has_one_point():
    B = mk_free(1, inverted=[0])
    assert [sorted(p.vars) for p in enumerate_primes(B)] == [[]]


def test_mk_free_f12():
    B = mk_free(0, coeff_order=2)
    assert B.coeff_order == 2
    assert B.width == 0


def test_mk_free_rejects_negative():
    with pytest.raises(ValueError):
        mk_free(-1)


def test_monomial_mask_is_its_support():
    """``Monomial.mask`` has bit g set exactly when ``exps[g]`` is non-zero,
    negative exponents and the zero monomial included, and it takes no part
    in equality, hashing or ``repr``."""
    rng = random.Random(19)
    monomials = [zero_monomial(5), one_monomial(3, sign=1), Monomial(0, ())]
    for _ in range(300):
        width = rng.randint(0, 30)
        exps = tuple(rng.choice([0, 0, 0, 1, 2, -1, -3]) for _ in range(width))
        monomials.append(Monomial(rng.randint(0, 1), exps))
    for t in monomials:
        assert t.mask == _mask_of(t.support()), t
        twin = Monomial(t.sign, t.exps, t.zero)
        assert twin == t and hash(twin) == hash(t)
    assert repr(Monomial(1, (0, -2))) == "Monomial(sign=1, exps=(0, -2), zero=False)"


def _degree(t):
    """The total degree of a monomial, the first entry of its graded key."""
    return t.sort_key[0]


def test_stored_sort_keys_match_their_definition():
    """``Monomial.key()`` is (degree, exps, sign) and ``FormalSum.key()``
    the tuple of its terms' keys, on seeded monomials with negative
    exponents over F1^2, the zero monomial and sums cut by
    ``_kill_terms``; the stored keys take no part in equality, hashing or
    ``repr``."""
    rng = random.Random(20)
    sums = []
    for _ in range(200):
        B = mk_free(rng.randint(0, 6), coeff_order=2)
        pool = [B.monomial([rng.choice([0, 0, 1, 2, -1]) for _ in range(B.width)],
                           rng.randint(0, 1)) for _ in range(4)]
        terms = [rng.choice(pool + [zero_monomial(B.width)]) for _ in range(rng.randint(0, 5))]
        s = formal_sum(terms)
        sums += [s, _kill_terms(s, rng.getrandbits(B.width))]
        for t in terms:
            assert t.key() == (sum(t.exps), t.exps, t.sign), t
            assert _degree(t) == sum(t.exps)
    for s in sums:
        assert s.key() == tuple(t.key() for t in s.terms), s
        assert list(s.terms) == sorted(s.terms, key=lambda t: (sum(t.exps), t.exps, t.sign))
        twin = FormalSum(tuple(Monomial(t.sign, t.exps) for t in s.terms))
        assert twin == s and hash(twin) == hash(s)
    assert len({s.key() for s in sums}) > 100
    assert repr(formal_sum([Monomial(1, (0, -2)), zero_monomial(2)])) == (
        "FormalSum(terms=(Monomial(sign=1, exps=(0, -2), zero=False),))")


def test_quotient_by_diagonal_vanishing():
    # killing the anti-diagonal leaves the relation T1*T4 == 1
    B = sl2_presentation()
    Q = quotient_by_vars(B, {1, 2})
    survivors = [r for r in Q.relations
                 if all(len(t.support() & {1, 2}) == 0 for t in r.all_terms())
                 and r.all_terms()]
    det = [r for r in survivors if any(_degree(t) == 2 for t in r.all_terms())]
    assert len(det) == 1
    (rel,) = det
    terms = sorted(t.exps for t in rel.all_terms())
    assert terms == [(0, 0, 0, 0), (1, 0, 0, 1)]


def test_quotient_keeps_sums_equal_to_zero():
    # killing the diagonal leaves T2*T3 + 1 == 0
    B = sl2_presentation()
    Q = quotient_by_vars(B, {0, 3})
    zero_sums = [r for r in Q.relations
                 if (len(r.lhs) == 0) != (len(r.rhs) == 0)
                 and len(r.all_terms()) == 2]
    assert any(sorted(t.exps for t in r.all_terms())
               == [(0, 0, 0, 0), (0, 1, 1, 0)] for r in zero_sums)


def test_quotient_empty_is_identity():
    B = sl2_presentation()
    assert quotient_by_vars(B, ()) == B


# ---------------------------------------------------------------------------
# saturation between killed generators
# ---------------------------------------------------------------------------


def test_saturation_skips_relations_between_killed_generators():
    """At every sl:4 rank point 12 of the 16 generators are killed; the
    quotient and the residue keep no derived relation all of whose terms
    meet a killed generator, such as T_i == T_j, so their saturated lists
    hold only 13 or 25 relations."""
    model = catalog.sl(4)
    B = model.presentation
    sizes = set()
    for rp in model.rank_points():
        for P in (quotient_by_vars(B, rp.point.vars), residue_presentation(B, rp.point)):
            dead = P.killed()
            assert len(dead) == 12
            rels = _relations(P)
            saturated = saturate_relations(P)
            derived = saturated[len(rels.dead) + len(rels.relations):]
            assert not any(all(t.support() & dead for t in rel.all_terms())
                           for rel in derived)
            sizes.add(len(saturated))
    assert sizes == {13, 25}


def _random_presentation_with_kills(rng):
    """Width 2..4, coefficient order 1 or 2, and at least one kill relation."""
    width = rng.randint(2, 4)
    order = rng.choice((1, 2))
    B = mk_free(width, inverted=rng.sample(range(width), rng.randint(0, 1)),
                coeff_order=order)
    pool = [B.one(s) for s in range(order)] + [B.gen(g) for g in range(width)]
    pool += [B.monomial([rng.randint(0, 1) for _ in range(width)], rng.randint(0, 1))
             for _ in range(2)]

    def side():
        return [rng.choice(pool) for _ in range(rng.randint(0, 2))]

    free = [g for g in range(width) if g not in B.inverted]
    rels = [relation(side(), side()) for _ in range(rng.randint(1, 4))]
    rels += [relation([B.gen(g)], []) for g in rng.sample(free, rng.randint(1, len(free)))]
    return B.with_relations(rels)


def test_skipped_killed_relations_change_no_prime_verdict():
    """Re-adding what saturation skips leaves every prime verdict alone.

    The skipped relations are T_i == T_j for killed i, j, and their
    round-2 consequences T_i == S for every side S with S == 0 in the list
    (T_i == S for a side S not known to vanish is no consequence at all).
    The criterion is compared on the two compiled lists; the rest of
    is_prime (the inverted check and the zero test) never reads the list.
    ``skipped`` counts the re-added relations the list lacked, so the test
    cannot pass with the skip never firing, and ``primes`` counts the
    candidates is_prime accepts.
    """
    rng = random.Random(5)
    skipped = primes = 0
    for _ in range(40):
        B = _random_presentation_with_kills(rng)
        relations = saturate_relations(B)
        dead = sorted(B.killed())
        vanishing = {other for rel in relations
                     for side, other in (rel.sides(), rel.sides()[::-1]) if not side.terms}
        extra = [relation([B.gen(i)], [B.gen(j)]) for i in dead for j in dead if i < j]
        extra += [relation([B.gen(i)], s.terms) for i in dead for s in vanishing]
        extra = [rel for rel in extra if not rel.is_trivial()]
        skipped += sum(rel not in relations for rel in extra)
        layout = _term_bits(relations, B.width)
        layout_extra = _term_bits(relations + tuple(extra), B.width)
        for bits in range(1 << B.width):
            verdict = _criterion_holds(layout, bits)
            assert verdict == _criterion_holds(layout_extra, bits), (B, bits)
            primes += verdict and is_prime(B, [g for g in range(B.width) if bits >> g & 1])
    assert skipped >= 100 and primes >= 20


def _reference_saturate(B, dead, canonical, rounds=2):
    """Bounded transitivity saturation with every candidate built by
    ``relation()``, which re-sorts both sides: the oracle of
    :func:`blueprint._saturate`."""
    rels = [relation([B.gen(g)], []) for g in sorted(dead)] + canonical
    dmask = _mask_of(dead)
    seen = {(r.lhs.key(), r.rhs.key()) for r in rels}
    for _ in range(rounds):
        new = []
        by_side = {}
        for r in rels:
            by_side.setdefault(r.lhs.key(), []).append((r.lhs, r.rhs))
            by_side.setdefault(r.rhs.key(), []).append((r.rhs, r.lhs))
        for r in rels:
            for side, other in ((r.lhs, r.rhs), (r.rhs, r.lhs)):
                for side2, other2 in by_side.get(side.key(), ()):
                    if all(t.mask & dmask for t in other.terms + other2.terms):
                        continue
                    cand = relation(other.terms, other2.terms)
                    if cand.is_trivial():
                        continue
                    k = (cand.lhs.key(), cand.rhs.key())
                    if k not in seen:
                        seen.add(k)
                        new.append(cand)
        if not new:
            break
        rels.extend(new)
    return tuple(rels)


SATURATION_LADDER = ("sl:2", "sl:3", "sl:4", "gl:3", "sp:4", "so:4", "o:4", "so:5",
                     "levi:3:2,1", "nstorus")


def test_saturation_is_pinned_and_matches_the_reference():
    """The saturated lists of the ladder models and of 40 seeded
    presentations with killed generators (coefficient order 2 included),
    as the ordered pairs of side keys, order of the list included; each
    list equals the reference saturation's on the same inputs."""
    rng = random.Random(20)
    presentations = [catalog.from_selector(s).presentation for s in SATURATION_LADDER]
    presentations += [_random_presentation_with_kills(rng) for _ in range(40)]
    assert any(B.coeff_order == 2 for B in presentations)
    rows = []
    for B in presentations:
        dead, canonical = _canonical_relations(B)
        saturated = _saturate(B, dead, canonical)
        assert saturated == _reference_saturate(B, dead, list(canonical)), B
        assert saturated == saturate_relations(B)
        rows.append([(r.lhs.key(), r.rhs.key()) for r in saturated])
    assert [len(row) for row in rows[:len(SATURATION_LADDER)]] == [1, 1, 1, 1, 7, 39, 39, 85, 5, 1]
    digest = hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()
    assert digest == "69338d1b78e4631e463467bccb2d8fbb38139a8ff8b2795abcf775563433936f"


def test_localize_marks_inverted():
    B = mk_free(1)
    L = localize(B, {0})
    assert L.inverted == frozenset({0})
    assert localize(B, ()) == B


def test_localized_sl2_diagonal_chart_spectrum():
    B = localize(sl2_presentation(), {0, 3})
    fast = [sorted(p.vars) for p in enumerate_primes(B)]
    slow = [sorted(p.vars) for p in brute_force_primes(B)]
    assert fast == slow
    # inverted generators never lie in a prime ideal
    assert all(0 not in p and 3 not in p for p in fast)


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------


def test_tensor_with_f1_is_unit():
    B = sl2_presentation()
    T = tensor(B, mk_free(0))
    assert T.canonical_key() == B.canonical_key()


def test_tensor_f12_f12_over_f1():
    T = tensor(mk_free(0, coeff_order=2), mk_free(0, coeff_order=2))
    assert T.coeff_order == 2
    assert not T.relations  # the presentation of F1^2 again


def test_tensor_twisted_identification_gives_char_two():
    f12 = mk_free(0, coeff_order=2)
    base = ({0: one_monomial(0, 0)}, {0: one_monomial(0, 1)})
    T = tensor(f12, f12, base=base)
    assert relation_entailed(T, relation([T.one()] * 2, [])) == "yes"
    assert potential_characteristics(T).label == "{2}"


def test_tensor_base_map_must_be_unit():
    B = mk_free(1)  # T is not invertible here
    with pytest.raises(Exception):
        tensor(B, B, base=({0: B.gen(0)}, {0: B.gen(0)}))


def test_tensor_commutative_and_associative_up_to_renaming():
    models = [catalog.sl(2).presentation, catalog.sl(3).presentation,
              catalog.torus(1).presentation, catalog.torus(2).presentation,
              catalog.nonstandard_torus().presentation,
              catalog.gl(1).presentation, catalog.gl(2).presentation,
              catalog.sp(2).presentation, catalog.so(3).presentation,
              mk_free(0, coeff_order=2)]
    for B in models:
        for C in models:
            if B.width + C.width > 12:
                continue
            left = tensor(B, C)
            right = tensor(C, B)
            perm = list(range(B.width, B.width + C.width)) + list(range(B.width))
            assert _relabel_key(right, perm) == left.canonical_key()
    A, B, C = models[0], models[2], models[5]
    assert tensor(tensor(A, B), C).canonical_key() == \
        tensor(A, tensor(B, C)).canonical_key()


def _relabel_key(B, perm):
    """Canonical key of B with generator g renamed to position perm[g]."""
    from blueweyl.blueprint import make_presentation, Monomial, relation as mk_rel

    def remap(t):
        exps = [0] * B.width
        for g, e in enumerate(t.exps):
            exps[perm[g]] = e
        return Monomial(t.sign, tuple(exps))

    rels = [mk_rel([remap(t) for t in r.lhs.terms],
                   [remap(t) for t in r.rhs.terms]) for r in B.relations]
    out = make_presentation([f"g{k}" for k in range(B.width)],
                            [perm[g] for g in B.inverted], B.coeff_order, rels)
    return out.canonical_key()


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


def test_sl2_unit_oracle_degree_four():
    """Independent check: no monomial of degree <= 4 is invertible.

    Units evaluate to units of the integers on every integral matrix of the
    model; two witness matrices separate every non-constant monomial from
    +-1.
    """
    witnesses = [(2, 1, 3, 2), (1, 5, 0, 1)]  # determinant-one integer tuples
    for a in range(5):
        for b in range(5 - a):
            for c in range(5 - a - b):
                for d in range(5 - a - b - c):
                    if a == b == c == d == 0:
                        continue
                    values = [w[0] ** a * w[1] ** b * w[2] ** c * w[3] ** d
                              for w in witnesses]
                    assert any(v not in (1, -1) for v in values)


# ---------------------------------------------------------------------------
# inverse closure
# ---------------------------------------------------------------------------


def test_inverse_closure_of_torus_unchanged():
    B = mk_free(1, inverted=[0])
    res = inverse_closure(B)
    assert res.ok and res.presentation == B


def test_inverse_closure_upgrades_additively_invertible_unit():
    B = mk_free(2, inverted=[0, 1], names=["T2", "T3"])
    B = B.with_relations([relation([B.monomial([1, 1]), B.one()], [])])
    res = inverse_closure(B)
    assert res.ok
    assert res.presentation.coeff_order == 2


def test_inverse_closure_idempotent():
    B = mk_free(2, inverted=[0, 1])
    B = B.with_relations([relation([B.monomial([1, 1]), B.one()], [])])
    once = inverse_closure(B).presentation
    twice = inverse_closure(once).presentation
    assert once == twice


def test_inverse_closure_unsupported_input_flagged():
    res = inverse_closure(catalog.nonstandard_torus().presentation)
    assert not res.ok
    assert res.diagnostics


def test_inverse_closure_commutes_with_tensor():
    B1 = mk_free(2, inverted=[0, 1])
    B1 = B1.with_relations([relation([B1.monomial([1, 1]), B1.one()], [])])
    B2 = mk_free(1, inverted=[0])
    lhs = inverse_closure(tensor(B1, B2)).presentation
    rhs = tensor(inverse_closure(B1).presentation, inverse_closure(B2).presentation)
    assert lhs.canonical_key() == rhs.canonical_key()


# ---------------------------------------------------------------------------
# bounded entailment
# ---------------------------------------------------------------------------


def test_entailment_multiply_generator_relation():
    B = sl2_presentation()
    # T1*T4*T2 == T2^2*T3 + T2 follows by multiplying the relation by T2
    lhs = [B.monomial([1, 1, 0, 1])]
    rhs = [B.monomial([0, 2, 1, 0]), B.gen(1)]
    assert relation_entailed(B, relation(lhs, rhs), budget=3) == "yes"


def test_entailment_reflexive():
    B = sl2_presentation()
    assert relation_entailed(B, B.relations[0], budget=1) == "yes"


def test_entailment_unknown_for_separated_generators():
    B = sl2_presentation()
    rel = relation([B.gen(0)], [B.gen(1)])
    assert relation_entailed(B, rel, budget=300) == "unknown"
    # integral witness: the matrix (2,1,3,2) has determinant one but T1 != T2
    assert 2 * 2 - 1 * 3 == 1 and 2 != 1


def test_entailment_monotone_in_budget():
    B = sl2_presentation()
    lhs = [B.monomial([1, 1, 0, 1])]
    rhs = [B.monomial([0, 2, 1, 0]), B.gen(1)]
    verdicts = [relation_entailed(B, relation(lhs, rhs), budget=b)
                for b in (1, 10, 100, 1000)]
    assert "".join(v[0] for v in verdicts) in ("uuuu", "uuyy", "uyyy", "yyyy",
                                               "uuuy")
    for small, big in zip(verdicts, verdicts[1:]):
        assert not (small == "yes" and big == "unknown")


def test_entailment_never_yes_on_integer_witness_violations():
    """Soundness probe: randomly generated non-relations stay unknown."""
    B = sl2_presentation()
    rng = random.Random(7)
    witness = (2, 1, 3, 2)  # determinant 1
    for _ in range(25):
        exps = [rng.randint(0, 2) for _ in range(4)]
        lhs = [B.monomial(exps)]
        rhs = [B.one()]
        lhs_val = 1
        for w, e in zip(witness, exps):
            lhs_val *= w ** e
        if lhs_val != 1:
            assert relation_entailed(B, relation(lhs, rhs), budget=150) == "unknown"


def test_entailment_uses_squared_sign_rule():
    # in a coefficient-order-2 field, (T2*T3)^2 == 1 given T2*T3 + 1 == 0
    B = mk_free(2, inverted=[0, 1], names=["T2", "T3"], coeff_order=2)
    B = B.with_relations([relation([B.monomial([1, 1]), B.one()], [])])
    target = relation([B.monomial([2, 2])], [B.one()])
    assert relation_entailed(B, target, budget=500) == "yes"


# ---------------------------------------------------------------------------
# the 0/1-point certificate of "not zero"
# ---------------------------------------------------------------------------


def _random_small_presentation(rng):
    """Width <= 4, coefficient order 1 or 2, constant terms and empty sides."""
    width = rng.randint(1, 4)
    order = rng.choice((1, 2))
    B = mk_free(width, inverted=rng.sample(range(width), rng.randint(0, 1)),
                coeff_order=order)
    pool = [B.one(s) for s in range(order)] + [B.gen(g) for g in range(width)]
    pool += [B.monomial([rng.randint(0, 1) for _ in range(width)], rng.randint(0, 1))
             for _ in range(2)]

    def side():
        return [rng.choice(pool) for _ in range(rng.randint(0, 2))]

    return B.with_relations(relation(side(), side()) for _ in range(rng.randint(1, 3)))


def _with_planted_zero(B, g):
    """B with T_g == 1, T_g + 1 == 0 and 1 + 1 == 1, so that
    1 == 1 + 1 == T_g + 1 == 0."""
    return B.with_relations([relation([B.gen(g)], [B.one()]),
                             relation([B.gen(g), B.one()], []),
                             relation([B.one(), B.one()], [B.one()])])


def _mask_of(gens):
    return sum(1 << g for g in gens)


def _point_holds_term_by_term(B, zeros, semiring):
    """Whether the 0/1 point sending the generators in ``zeros`` and the
    killed ones to 0 and the rest to 1 satisfies B's own relations in
    ``semiring`` ("B1", 2 or 3), read off the monomials: an oracle that
    shares no code with the compiled certificate."""
    zeros |= _mask_of(B.killed())
    if zeros & _mask_of(B.inverted):
        return False

    def value(side):
        kept = [(-1) ** t.sign for t in side.terms if not _mask_of(t.support()) & zeros]
        return bool(kept) if semiring == "B1" else sum(kept) % semiring

    rels = list(B.relations)
    if B.coeff_order == 2:
        rels.append(relation([B.one(), B.one(1)], []))
    return all(value(r.lhs) == value(r.rhs) for r in rels)


def test_certificate_matches_the_point_evaluated_term_by_term():
    """Every 0/1 point of seeded random presentations: the certificate
    agrees with the point read off the monomials in B1, F2 and F3 (B1 only
    for coefficient order 1), and the B1 test on the term-bit layout of
    the saturated list agrees with B1 for every point that kills the
    killed generators."""
    rng = random.Random(18)
    kinds = set()
    for _ in range(60):
        B = _random_small_presentation(rng)
        rels = _relations(B)
        layout = _term_bits(rels.saturated, B.width)
        dead = _mask_of(rels.dead)
        for zeros in range(1 << B.width):
            b1 = B.coeff_order == 1 and _point_holds_term_by_term(B, zeros, "B1")
            fields = [_point_holds_term_by_term(B, zeros, p) for p in (2, 3)]
            assert _point_certifies(B, rels, zeros) == (b1 or any(fields)), (B, zeros)
            if B.coeff_order == 1 and zeros & dead == dead and not zeros & _mask_of(B.inverted):
                assert _holds_in_b1(layout, _outside_terms(layout, zeros)) == b1, (B, zeros)
            kinds.add((B.coeff_order, b1, *fields))
    # points holding in B1 only, in F2 only, in F3 only, and nowhere
    assert {(1, True, False, False), (1, False, True, False), (2, False, False, True),
            (1, False, False, False), (2, False, False, False)} <= kinds


def test_a_certified_presentation_is_never_proved_zero():
    """Seeded random presentations and the same ones with 1 == 0 planted:
    whenever some 0/1 point certifies "not zero", the rewrite search finds
    no 1 == 0 at budget 400 or 4,000.  No point certifies a planted zero
    blueprint, and the zero test proves most of them zero, so the
    certificate is tried where "zero" is the answer too."""
    rng = random.Random(19)
    certified = uncertified = proved = 0
    orders = set()
    for _ in range(16):
        B = _random_small_presentation(rng)
        planted = _with_planted_zero(B, rng.randrange(B.width))
        for C in (B, planted):
            rels = _relations(C)
            one_is_zero = relation([C.one()], [])
            if any(_point_certifies(C, rels, zeros) for zeros in range(1 << C.width)):
                assert C is B
                certified += 1
                orders.add(C.coeff_order)
                assert not is_zero_blueprint(C)
                for budget in (400, 4000):
                    assert relation_entailed(C, one_is_zero, budget) == "unknown", C
            else:
                uncertified += 1
        proved += is_zero_blueprint(planted)
    # 11 certified of both coefficient orders, 21 not, 15 planted proved zero
    assert certified >= 10 and orders == {1, 2} and uncertified >= 20 and proved >= 15


def test_f1_with_one_plus_one_zero_is_certified_through_f2_only():
    # F1[T] with 1 + 1 == 0: the all-ones point holds in F2, not in B1 or F3
    B = mk_free(1)
    B = B.with_relations([relation([B.one(), B.one()], [])])
    rels = _relations(B)
    layout = _term_bits(rels.saturated, B.width)
    assert not _holds_in_b1(layout, _outside_terms(layout, 0))
    assert _point_certifies(B, rels, 0) and not is_zero_blueprint(B)
    assert relation_entailed(B, relation([B.one()], []), budget=4000) == "unknown"


def test_b1_never_certifies_a_coefficient_order_two_presentation():
    # F1^2 with 1 + 1 == 1 holds at the all-ones point in B1, but B1 has no
    # -1: indeed 1 == 1 + (1 + (-1)) == (1 + 1) + (-1) == 1 + (-1) == 0
    B = mk_free(1, coeff_order=2)
    B = B.with_relations([relation([B.one(), B.one()], [B.one()])])
    rels = _relations(B)
    layout = _term_bits(rels.saturated, B.width)
    assert _holds_in_b1(layout, _outside_terms(layout, 0))
    assert not any(_point_certifies(B, rels, zeros) for zeros in (0, 1))
    assert is_zero_blueprint(B)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_single_relation_row():
    divisors, rank = smith_normal_form([[1, 1]])
    assert divisors == [1] and rank == 1


def test_snf_zero_matrix():
    divisors, rank = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert divisors == [] and rank == 0


def test_snf_torsion():
    divisors, rank = smith_normal_form([[2]])
    assert divisors == [2] and rank == 1


def test_snf_divisibility_chain_and_reconstruction():
    """The divisors against the determinantal divisors, which share no code
    with the elimination: d1*...*dk is the gcd of all k x k minors, and the
    rank is the largest k with a non-zero minor."""
    rng = random.Random(20259)
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        divisors, rank = smith_normal_form(rows)
        for d1, d2 in zip(divisors, divisors[1:]):
            assert d2 % d1 == 0
        product = 1
        for k in range(1, 6):
            minors = [_det([[rows[i][j] for j in cols] for i in chosen])
                      for chosen in itertools.combinations(range(5), k)
                      for cols in itertools.combinations(range(5), k)]
            if k <= rank:
                product *= divisors[k - 1]
                assert math.gcd(*minors) == product
            else:
                assert not any(minors)
        assert all(d > 0 for d in divisors)


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _det(minor)
    return total


# ---------------------------------------------------------------------------
# potential characteristics
# ---------------------------------------------------------------------------


def test_characteristics_of_torus_indefinite():
    assert potential_characteristics(mk_free(1, inverted=[0])).label == "indefinite"


def test_characteristics_of_f12_all_but_one():
    assert potential_characteristics(mk_free(0, coeff_order=2)).label == "all-but-1"


def test_characteristics_of_char_two_field():
    B = mk_free(0)
    B = B.with_relations([relation([B.one()] * 2, [])])
    assert potential_characteristics(B).label == "{2}"


def test_characteristics_of_idempotent_semifield():
    B = mk_free(0)
    B = B.with_relations([relation([B.one()] * 2, [B.one()])])
    assert potential_characteristics(B).label == "{1}"


def test_characteristics_excludes_divisors_of_unit_sums():
    # an invertible generator identified with 1 + 1 excludes characteristic 2
    B = mk_free(1, inverted=[0], names=["S"])
    B = B.with_relations([relation([B.gen(0)], [B.one(), B.one()])])
    c = potential_characteristics(B)
    assert c.kind == "all-but" and c.excluded == {2}


def _refines(c, other):
    """Every characteristic the class c allows, the class other allows too."""
    if other.kind == "unknown":
        return True
    if c.kind == "unknown":
        return False
    if c.kind == "finite":
        if other.kind == "finite":
            return c.included <= other.included
        return not c.included & other.excluded
    if other.kind == "finite":
        return False
    return other.excluded <= c.excluded


def test_characteristics_of_tensor_refines_intersection():
    cases = [mk_free(0), mk_free(0, coeff_order=2), mk_free(1, inverted=[0])]
    B2 = mk_free(0).with_relations([relation([one_monomial(0)] * 2, [])])
    cases.append(B2)
    for A in cases:
        for B in cases:
            ct = potential_characteristics(tensor(A, B))
            ci = potential_characteristics(A).intersect(potential_characteristics(B))
            if ct.kind != "unknown":
                assert _refines(ct, ci)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def test_reduce_kills_nilpotent_generator():
    # T^2 == 0 forces T into every prime; the reduction kills T
    B = mk_free(1)
    B = B.with_relations([relation([B.monomial([2])], [])])
    primes = [p.vars for p in enumerate_primes(B)]
    assert primes == [frozenset({0})]
    # the reduction is the quotient by the intersection of the primes
    assert 0 in quotient_by_vars(B, frozenset.intersection(*primes)).killed()


def test_killed_needs_a_bare_generator():
    # T1*T2*T3^-1 == 0 kills no generator, although its exponents sum to one
    B = mk_free(3, inverted=[2])
    B = B.with_relations([relation([B.monomial([1, 1, -1])], [])])
    assert B.killed() == frozenset()


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------


def test_simplify_unit_definitions():
    B = mk_free(2, names=["T", "U"])
    B = B.with_relations([relation([B.gen(0)], [B.one()])])
    S = simplify_presentation(B)
    assert S.generator_names == ("U",)
    assert not S.relations
