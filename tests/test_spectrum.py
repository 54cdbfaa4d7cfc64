"""Prime enumeration, poset topology, residue presentations, DOT export."""

import collections
import dataclasses
import hashlib
import itertools
import random
import sys

import pytest

from blueweyl import (
    NormalFormBlueField,
    analyze_normal_form,
    enumerate_primes,
    export_dot,
    is_prime,
    localize,
    mk_free,
    poset,
    quotient_by_vars,
    relation,
    spectrum_to_json,
    tensor,
)
from blueweyl import spectrum
from blueweyl.spectrum import (
    GeneratorCapExceeded,
    PrimePoint,
    SpectrumPoset,
    _byte_tables,
    _enumerate_masks,
    _forced_joins_refute,
    _orbit,
    _orbit_points,
    _prime_leaders,
    _search_tables,
    _symmetry_group,
    brute_force_primes,
    residue_presentation,
)
from blueweyl.blueprint import (
    _canonical_relations,
    _mask,
    _outside_counts,
    _relations,
    _term_bits,
    is_zero_blueprint,
    saturate_relations,
)
from blueweyl import catalog, verify


def sl2():
    return catalog.sl(2).presentation


# ---------------------------------------------------------------------------
# the prime criterion
# ---------------------------------------------------------------------------


def test_is_prime_diagonal_pattern():
    assert is_prime(sl2(), {1, 2})  # (T2, T3)


def test_is_prime_rejects_mixed_pattern():
    # (T1, T2) leaves exactly the constant term outside
    assert not is_prime(sl2(), {0, 1})


def test_is_prime_generic_point():
    assert is_prime(sl2(), set())


def test_is_prime_rejects_inverted_generator():
    B = localize(sl2(), {0})
    assert not is_prime(B, {0})


def test_enumerate_primes_sl2_names():
    B = sl2()
    labels = sorted(tuple(B.name_of(g) for g in sorted(p.vars))
                    for p in enumerate_primes(B))
    assert labels == sorted([(), ("T1",), ("T2",), ("T3",), ("T4",),
                             ("T1", "T4"), ("T2", "T3")])


def test_enumerate_primes_affine_plane():
    assert len(enumerate_primes(mk_free(2))) == 4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_primes_sl_matches_permutation_structure(n):
    """Point sets are exactly the subsets of permutation complements."""
    import itertools

    model = catalog.sl(n)
    pts = {p.vars for p in model.spectrum()}
    allowed = set()
    for sigma in itertools.permutations(range(n)):
        support = {n * i + sigma[i] for i in range(n)}
        comp = sorted(set(range(n * n)) - support)
        for bits in range(1 << len(comp)):
            allowed.add(frozenset(comp[i] for i in range(len(comp))
                                  if (bits >> i) & 1))
    assert pts == allowed


def _generating_layout(B):
    """The term-bit layout of the kill relations and the canonical
    generating relations: the prefix of the saturated list that
    transitivity does not add to."""
    rels = _relations(B)
    return _term_bits(rels.saturated[:len(rels.dead) + len(rels.relations)], B.width)


def test_enumerate_matches_brute_force_on_catalog():
    for model in (catalog.sl(2), catalog.gl(2), catalog.sp(2), catalog.so(3),
                  catalog.nonstandard_torus(), catalog.so(4), catalog.o(4),
                  catalog.sp(4)):
        fast = [p.vars for p in enumerate_primes(model.presentation)]
        slow = [p.vars for p in brute_force_primes(model.presentation)]
        assert fast == slow, model.name


def _random_presentation(rng):
    """Width <= 6, coefficient order 1 or 2, constant terms and empty sides."""
    width = rng.randint(1, 6)
    order = rng.choice((1, 2))
    B = mk_free(width, inverted=rng.sample(range(width), rng.randint(0, 1)),
                coeff_order=order)
    pool = [B.one(s) for s in range(order)] + [B.gen(g) for g in range(width)]
    pool += [B.monomial([rng.randint(0, 1) for _ in range(width)], rng.randint(0, 1))
             for _ in range(2)]

    def side():
        return [rng.choice(pool) for _ in range(rng.randint(0, 2))]

    return B.with_relations(relation(side(), side())
                            for _ in range(rng.randint(1, 4)))


def test_enumerate_matches_brute_force_on_random_presentations():
    """The search over the saturated list equals the oracle, and the
    derived relations matter.

    ``removed`` counts, over the presentations with a non-empty spectrum,
    the leaves a search over the generating relations alone would keep
    beyond the primes; it is positive, so searching without the derived
    relations would return non-primes on these inputs.
    """
    rng = random.Random(1)
    removed = 0
    for _ in range(40):
        B = _random_presentation(rng)
        fast = [p.vars for p in enumerate_primes(B)]
        assert fast == [p.vars for p in brute_force_primes(B)], B
        if fast:
            base = _generating_layout(B)
            removed += len(_enumerate_masks(base, _mask(B.inverted), ())) - len(fast)
    assert removed >= 1


def _prime_by_term_count(B, cand):
    """The criterion counted from the saturated relations' own monomials."""
    if cand & B.inverted:
        return False
    for rel in saturate_relations(B):
        if sum(1 for t in rel.all_terms() if not t.support() & cand) == 1:
            return False
    return True


def test_criterion_matches_direct_term_count():
    """is_prime and enumerate_primes agree with terms counted one by one.

    The oracle reads ``Monomial.support()`` and never the compiled term
    bits.  The presentations cover the edge cases of a bit block: constant
    terms, one-term relations and empty sides.
    """
    import itertools

    rng = random.Random(4)
    shapes = set()
    nonempty = 0
    for _ in range(40):
        B = _random_presentation(rng)
        for rel in saturate_relations(B):
            terms = rel.all_terms()
            if any(t.is_constant() for t in terms):
                shapes.add("constant term")
            if len(terms) == 1:
                shapes.add("one term")
            if not (rel.lhs.terms and rel.rhs.terms):
                shapes.add("empty side")
        # 1 == 0 leaves no proper ideal, which no term count sees
        zero = is_zero_blueprint(B)
        for _ in range(16):
            cand = frozenset(g for g in range(B.width) if rng.random() < 0.5)
            assert is_prime(B, cand) == (_prime_by_term_count(B, cand) and not zero), (B, cand)
        free = [g for g in range(B.width) if g not in B.inverted]
        expected = [frozenset(c) for size in range(len(free) + 1)
                    for c in itertools.combinations(free, size)
                    if _prime_by_term_count(B, frozenset(c))]
        if zero:
            expected = []
        assert [p.vars for p in enumerate_primes(B)] == expected, B
        nonempty += bool(expected)
    assert shapes == {"constant term", "one term", "empty side"}
    assert nonempty >= 20  # 28 with seed 4


def test_is_prime_is_false_on_a_zero_blueprint():
    # T1 inverted, -1 adjoined, 0 == 1 + 1 and 1 == T1 + T1: 1 == 0 is
    # derivable, yet no relation has exactly one term outside (0)
    B = mk_free(1, inverted=[0], coeff_order=2)
    B = B.with_relations([relation([], [B.one(), B.one()]),
                          relation([B.one()], [B.gen(0), B.gen(0)])])
    assert is_zero_blueprint(B)
    assert _prime_by_term_count(B, frozenset())
    assert not is_prime(B, ())
    assert enumerate_primes(B) == [] and brute_force_primes(B) == []


def test_is_prime_is_false_on_random_zero_blueprints():
    """On the seeded random zero blueprints no candidate is prime and both
    enumerations are empty; candidates that pass every relation count the
    cases the zero test decides, so the test cannot pass vacuously."""
    import itertools

    rng = random.Random(4)
    passing = 0
    for _ in range(40):
        B = _random_presentation(rng)
        if not is_zero_blueprint(B):
            continue
        assert enumerate_primes(B) == [] and brute_force_primes(B) == [], B
        free = [g for g in range(B.width) if g not in B.inverted]
        for size in range(len(free) + 1):
            for cand in map(frozenset, itertools.combinations(free, size)):
                assert not is_prime(B, cand), (B, cand)
                passing += _prime_by_term_count(B, cand)
    assert passing >= 1


# ---------------------------------------------------------------------------
# symmetry orbits
# ---------------------------------------------------------------------------


def _swap_halves(width):
    return tuple(range(width, 2 * width)) + tuple(range(width))


def _permuted(B, sigma):
    """The images of B's relations under the generator permutation sigma."""
    def image(t):
        exps = [0] * B.width
        for g, e in enumerate(t.exps):
            exps[sigma[g]] = e
        return B.monomial(exps, t.sign)
    return [relation(map(image, r.lhs.terms), map(image, r.rhs.terms)) for r in B.relations]


def _with_planted_cycle(B, rng):
    """B with its relations closed under a random permutation that keeps
    the inverted generators, and that permutation as its symmetry."""
    inv = sorted(B.inverted)
    free = [g for g in range(B.width) if g not in B.inverted]
    sigma = [0] * B.width
    for part in (inv, free):
        for g, h in zip(part, rng.sample(part, len(part))):
            sigma[g] = h
    rels, frontier = list(B.relations), B
    for _ in range(B.width):
        frontier = B.with_relations(_permuted(frontier, sigma))
        rels += frontier.relations
    closed = B.with_relations(rels)
    return dataclasses.replace(closed, symmetries=(tuple(sigma),))


def _leaves(B, symmetries):
    return _enumerate_masks(_generating_layout(B), _mask(B.inverted), symmetries)


def _planted_symmetry_cases():
    """Seeded random presentations with a planted symmetry: the tensor
    square of each narrow one with its halves swapped, and each one closed
    under a random permutation."""
    rng = random.Random(6)
    cases = []
    for _ in range(25):
        B = _random_presentation(rng)
        if B.width <= 4:
            T = tensor(B, B)
            cases.append(dataclasses.replace(T, symmetries=(_swap_halves(B.width),)))
        cases.append(_with_planted_cycle(B, rng))
    return cases


def test_orbit_search_matches_brute_force_on_planted_symmetries():
    """The symmetric search and orbit expansion equal the symmetry-free
    oracle, and the lex-leader pruning drops leaves, so the test does not
    pass with the pruning never firing."""
    dropped = 0
    for B in _planted_symmetry_cases():
        fast = [p.vars for p in enumerate_primes(B)]
        assert fast == [p.vars for p in brute_force_primes(B)], B
        if fast:
            dropped += len(_leaves(B, ())) - len(_leaves(B, B.symmetries))
    assert dropped >= 1


@pytest.mark.parametrize("selector,digest", [
    ("sl:2", "3592df95a717e079bcff72d758301f7e5d216a74765cc1e3209b7619889c7d49"),
    ("sl:3", "a823881db8dcb6801e4b4d6ef7340bcabf20ba8bb3242df873b68ed5cef038c8"),
    ("sl:4", "677b784d0620e014c6d80b3fefc988e3556b8a0939906507814feaa05433e044"),
    ("gl:3", "a823881db8dcb6801e4b4d6ef7340bcabf20ba8bb3242df873b68ed5cef038c8"),
    ("sp:4", "e444c10c0ce2404ae67d0d5d57baea4c8eff230ac124c8761e8cd5a66587d677"),
    ("so:4", "abb1e125715b56f0a792494cabb137ad3f58486dfb4486dfd326dde615eb05b4"),
    ("o:4", "abb1e125715b56f0a792494cabb137ad3f58486dfb4486dfd326dde615eb05b4"),
    ("so:5", "4659ce891a1a068768b99f653f9f54bd0256ecff4a2c1fba9c8136c57bef5d71"),
    ("levi:3:2,1", "d0f19f7e7ed50f4989e7ad37d23785029fcbf3ef42cded102169d5aedb68c3e4"),
    ("nstorus", "fad748aa45cceb7106caff3dd83175c7d1c0a42e88e9faec3b815e53725e65a3"),
])
def test_prime_leaders_are_pinned_on_the_ladder(selector, digest):
    """The orbit leaders of the prime search, in the order the search finds
    them: the search order and the member kept of each orbit are pinned."""
    leaders = _prime_leaders(catalog.from_selector(selector).presentation)
    assert hashlib.sha256(repr(leaders).encode("utf-8")).hexdigest() == digest


def test_prime_leaders_are_pinned_on_planted_symmetries():
    """The leaders of the planted-symmetry presentations, zero ones
    included (they have none), in search order."""
    rows = [_prime_leaders(B) for B in _planted_symmetry_cases()]
    assert len(rows) == 39 and sum(not row for row in rows) == 16
    digest = hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()
    assert digest == "ec4a1bdc68f3299aaba89367d764624c32ee37fb561cca314c436a02234735da"


def _leaders_by_oracle(B):
    """The orbit leaders the prime search must find, read off
    ``brute_force_primes`` with neither the chain walk nor the look-ahead.

    The search order puts the generators in the most terms of the saturated
    relations first, ties by index; the terms are counted from the
    relations' own monomials.  Each orbit under ``_symmetry_group`` keeps
    its member with the least word of bits in that order, and the leaders
    come in depth-first order: by word, with 1 before 0.
    """
    count = [0] * B.width
    for rel in saturate_relations(B):
        for t in rel.all_terms():
            for g in t.support():
                count[g] += 1
    order = sorted((g for g in range(B.width) if g not in B.inverted), key=lambda g: -count[g])
    group = _symmetry_group(B.symmetries, B.width)

    def word(m):
        return tuple(m >> g & 1 for g in order)

    leaders = set()
    for p in brute_force_primes(B):
        orbit = [sum(1 << sigma[g] for g in p.gens) for sigma in group]
        leaders.add(min(orbit, key=word))
    return sorted(leaders, key=word, reverse=True)


def test_prime_leaders_match_the_orbit_oracle():
    """The leaves, in order, on the planted-symmetry presentations and on
    sl:3 and gl:3, whose coordinate symmetries generate 36 elements."""
    cases = _planted_symmetry_cases() + [catalog.sl(3).presentation,
                                         catalog.gl(3).presentation]
    nonempty = 0
    for B in cases:
        leaders = _prime_leaders(B)
        assert leaders == _leaders_by_oracle(B), B
        nonempty += bool(leaders)
    assert nonempty == 25


def _forced_join_presentation():
    """Generators a, b, f1, f2, h in that search order, where a == h and
    h == b make h join whenever a does, and the rest only pad the order."""
    B = mk_free(5, names=["a", "b", "f1", "f2", "h"])
    a, b, f1, f2, h = (B.gen(g) for g in range(5))
    return B.with_relations([
        relation([a], [h]),
        relation([h], [b]),
        relation([a.mul(f1, 1)], [a.mul(f2, 1)]),
        relation([b.mul(f1, 1)], [b.mul(f2, 1)]),
        relation([a.mul(f1, 1).mul(f2, 1)], [b.mul(f1, 1).mul(f2, 1)]),
    ])


def test_a_forced_join_refutes_a_node_two_levels_early():
    """With a joined and b out, a == h leaves h as the sole outside term, so
    h must join, and then h == b has the settled b as its sole outside term.
    The look-ahead drops the node at position 2, though the node test finds
    it alive and h is decided only at position 4."""
    B = _forced_join_presentation()
    layout = _generating_layout(B)
    order, unsettled, newly, single, hits = _search_tables(layout, 0)
    assert order == [0, 1, 2, 3, 4]
    pos, rest = 2, layout.terms & ~layout.hit[0]
    some, several = _outside_counts(layout, rest)
    one = some & ~several
    # alive for the node test: no block of one has a settled sole term
    assert one and not one & ~((rest & unsettled[pos]) + layout.terms)
    at_pos = (newly, hits, pos, single[pos], unsettled[pos])
    assert _forced_joins_refute(layout, *at_pos, rest, one)
    # with b joined as well, h == b holds and nothing is refuted
    rest &= ~layout.hit[1]
    some, several = _outside_counts(layout, rest)
    assert not _forced_joins_refute(layout, *at_pos, rest, some & ~several)
    # the subtree it drops holds no prime
    assert [p.vars for p in enumerate_primes(B)] == [p.vars for p in brute_force_primes(B)]


def _search_work(B, monkeypatch, look_ahead=True):
    """The leaves, the nodes ``decide`` visits and the nodes the look-ahead
    refutes in the search of the saturated relations of B."""
    refuted = []

    def counting_refute(*args):
        result = look_ahead and _forced_joins_refute(*args)
        refuted.append(result)
        return result

    monkeypatch.setattr(spectrum, "_forced_joins_refute", counting_refute)
    layout = _term_bits(_relations(B).saturated, B.width)
    nodes = [0]

    def count_nodes(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "decide":
            nodes[0] += 1

    sys.setprofile(count_nodes)
    try:
        leaves = _enumerate_masks(layout, _mask(B.inverted), B.symmetries)
    finally:
        sys.setprofile(None)
    return leaves, nodes[0], sum(refuted)


def test_the_look_ahead_cuts_the_so5_search(monkeypatch):
    """On so:5 the look-ahead refutes 4,433 nodes and the search visits
    35,235; without it the leaves are the same and it visits 111,169."""
    B = catalog.so(5).presentation
    leaves, nodes, refuted = _search_work(B, monkeypatch)
    assert (len(leaves), nodes, refuted) == (4094, 35235, 4433)
    plain, plain_nodes, _ = _search_work(B, monkeypatch, look_ahead=False)
    assert plain == leaves and plain_nodes == 111169


def test_pruning_keeps_exactly_the_lex_least_member_of_each_orbit():
    # the tensor square of a two-generator plane: the swap pairs T1' with T1''
    T = tensor(mk_free(2), mk_free(2))
    swap = _swap_halves(2)
    T = dataclasses.replace(T, symmetries=(swap,))
    group = _symmetry_group(T.symmetries, T.width)
    assert len(group) == 2
    leaves = _leaves(T, T.symmetries)
    orbits = {frozenset(sum(1 << s[g] for g in range(T.width) if m >> g & 1) for s in group)
              for m in range(1 << T.width)}
    assert len(leaves) == len(orbits) == 10
    # without relations the search decides the generators in index order
    def word(m):
        return [m >> g & 1 for g in range(T.width)]
    assert all(m == min(orbit, key=word) for orbit in orbits for m in leaves if m in orbit)


def test_a_proposed_symmetry_must_be_an_automorphism():
    B = sl2()
    transpose = (0, 2, 1, 3)
    assert dataclasses.replace(B, symmetries=(transpose,)).symmetries == (transpose,)
    with pytest.raises(ValueError, match="not a permutation"):
        dataclasses.replace(B, symmetries=((0, 0, 1, 3),))
    with pytest.raises(ValueError, match="not a permutation"):
        dataclasses.replace(B, symmetries=((0, 1, 2),))
    with pytest.raises(ValueError, match="inverted"):
        dataclasses.replace(localize(B, {0}), symmetries=(transpose[::-1],))
    with pytest.raises(ValueError, match="relation"):
        dataclasses.replace(B, symmetries=((1, 0, 2, 3),))


def test_symmetries_are_a_hint_outside_identity():
    B = sl2()
    C = dataclasses.replace(B, symmetries=((0, 2, 1, 3),))
    assert C == B and hash(C) == hash(B)
    assert C.canonical_key() == B.canonical_key()
    derived = [quotient_by_vars(C, {1}), localize(C, {0}), C.with_relations([]),
               tensor(C, C)]
    assert all(not D.symmetries for D in derived)


def _gap_presentation():
    # S == 1 + 1 and 1 + 1 == 0 force S == 0; only (S) remains a point
    B = mk_free(1, names=["S"])
    return B.with_relations([
        relation([B.gen(0)], [B.one(), B.one()]),
        relation([B.one(), B.one()], []),
    ])


def test_generating_relations_are_a_prefix_of_the_saturated_list():
    models = [catalog.from_selector(sel).presentation
              for sel in ("sl:2", "sl:3", "gl:2", "sp:2", "sp:4", "so:3", "so:4",
                          "o:4", "so:5", "nstorus", "psl2-adj")]
    for B in models + [_gap_presentation()]:
        dead, canonical = _canonical_relations(B)
        base = tuple(relation([B.gen(g)], []) for g in sorted(dead)) + tuple(canonical)
        assert saturate_relations(B)[:len(base)] == base


def test_brute_force_agrees_with_pointwise_criterion():
    import itertools

    for model in (catalog.sl(2), catalog.gl(2), catalog.so(3)):
        B = model.presentation
        free = [g for g in range(B.width) if g not in B.inverted]
        direct = []
        for size in range(len(free) + 1):
            for cand in itertools.combinations(free, size):
                if is_prime(B, cand):
                    direct.append(frozenset(cand))
        assert sorted(direct, key=sorted) == \
            sorted((p.vars for p in brute_force_primes(B)), key=sorted)


def test_generator_cap():
    with pytest.raises(GeneratorCapExceeded):
        enumerate_primes(mk_free(30))
    assert len(enumerate_primes(mk_free(5))) == 32


def test_zero_blueprint_has_empty_spectrum():
    B = mk_free(0)
    B = B.with_relations([relation([B.one()], [])])
    assert enumerate_primes(B) == []


def test_transitivity_closes_generating_gap():
    # S == 1 + 1 and 1 + 1 == 0 force S == 0; only (S) remains a point
    B = mk_free(1, names=["S"])
    B = B.with_relations([
        relation([B.gen(0)], [B.one(), B.one()]),
        relation([B.one(), B.one()], []),
    ])
    assert [sorted(p.vars) for p in enumerate_primes(B)] == [[0]]


# ---------------------------------------------------------------------------
# posets and topology
# ---------------------------------------------------------------------------


def test_poset_layers_of_sl2():
    P = poset(enumerate_primes(sl2()))
    sizes = sorted(len(p.vars) for p in P.points)
    assert sizes == [0, 1, 1, 1, 1, 2, 2]
    assert len(P.hasse_edges()) == 8


def test_single_point_poset():
    P = poset([PrimePoint(set())])
    assert P.hasse_edges() == []
    assert P.components() == [frozenset({0})]


def test_point_order_is_size_then_indices():
    rng = random.Random(91)
    subsets = [rng.sample(range(12), rng.randint(0, 12)) for _ in range(400)]
    points = [PrimePoint(s) for s in subsets]
    expected = sorted({(len(s), tuple(sorted(s))) for s in subsets})
    assert [(p.size, p.gens) for p in sorted(set(points))] == expected


def test_point_identity_follows_the_generator_set():
    rng = random.Random(92)
    for _ in range(200):
        gens = rng.sample(range(20), rng.randint(0, 8))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        given = [PrimePoint(gens), PrimePoint(set(gens)), PrimePoint(iter(shuffled)),
                 PrimePoint(shuffled + gens)]
        assert len(set(given)) == 1
        assert all(p == given[0] and hash(p) == hash(given[0]) for p in given)
        assert given[0].gens == tuple(sorted(gens)) and given[0].vars == frozenset(gens)
        if gens:
            assert PrimePoint(gens[1:]) != given[0]


@pytest.mark.parametrize("selector", ["sl:2", "sl:3", "sl:4", "sp:4", "so:3", "so:4",
                                      "so:5", "o:4", "gl:3"])
def test_enumerate_primes_is_strictly_increasing(selector):
    points = enumerate_primes(catalog.from_selector(selector).presentation)
    assert points and all(a < b for a, b in zip(points, points[1:]))


def _orbit_points_one_by_one(B, leaders):
    """The reference for ``_orbit_points``: each orbit expanded on the masks
    as given, each point built by ``PrimePoint(iterable)``, which sorts and
    deduplicates, and the points sorted."""
    masks = list(leaders)
    if B.symmetries:
        tables = [_byte_tables(sigma) for sigma in B.symmetries]
        masks = [m for leader in masks for m in _orbit(leader, tables)]
    return sorted(PrimePoint(g for g in range(B.width) if m >> g & 1) for m in masks)


@pytest.mark.parametrize("selector", ["sl:2", "sl:3", "sl:4", "gl:3", "sp:4", "so:4", "o:4",
                                      "so:5", "levi:3:2,1", "nstorus"])
def test_orbit_points_match_points_built_one_by_one(selector):
    B = catalog.from_selector(selector).presentation
    leaders = _prime_leaders(B)
    points = _orbit_points(B, leaders)
    assert points == _orbit_points_one_by_one(B, leaders)
    assert all(type(p) is PrimePoint and p.size == len(p.gens) for p in points)
    if selector == "so:5":
        assert len(points) == 105631


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 25, 26, 33, 40])
def test_orbit_points_match_points_built_one_by_one_on_random_masks(width):
    """Byte edges and widths past the generator cap, with no symmetry and
    with a random permutation of the generators as the symmetry, its orbit
    leaders one member of each orbit."""
    rng = random.Random(width)
    B = mk_free(width)
    sigma = rng.sample(range(width), width)
    permuted = dataclasses.replace(B, symmetries=(tuple(sigma),))
    tables = [_byte_tables(sigma)]
    for _ in range(4):
        masks = {rng.getrandbits(width) for _ in range(rng.randint(0, 60))}
        assert _orbit_points(B, masks) == _orbit_points_one_by_one(B, masks)
        leaders, seen = [], set()
        for m in masks:
            if m not in seen:
                leaders.append(m)
                seen.update(_orbit(m, tables))
        expected = _orbit_points_one_by_one(permuted, leaders)
        assert _orbit_points(permuted, leaders) == expected
        assert len(expected) == len(seen)


def test_brute_force_primes_are_pinned():
    """The oracle's points on the planted-symmetry presentations and on the
    small models that ``verify properties`` compares with the search, as
    ``PrimePoint(gens)`` built them before the scan took its increasing
    tuples as they are."""
    models = [m for m in verify._small_models()
              if m.presentation.width <= 16 and m.spectrum_override is None]
    rows = [brute_force_primes(B) for B in _planted_symmetry_cases()]
    rows += [brute_force_primes(m.presentation) for m in models]
    assert len(models) == 16 and len(rows) == 55
    assert all(type(p) is PrimePoint for row in rows for p in row)
    digest = hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()
    assert digest == "ad955af964a623540c5dbadc0a13a81471bb9c730e8436ad1b7b40ccb58ebcaf"


def test_poset_sorts_and_deduplicates_shuffled_points():
    rng = random.Random(95)
    for _ in range(100):
        width = rng.randint(0, 9)
        points = [PrimePoint(g for g in range(width) if rng.random() < 0.5)
                  for _ in range(rng.randint(1, 40))]
        points += rng.sample(points, rng.randint(0, len(points)))
        rng.shuffle(points)
        assert poset(points).points == tuple(sorted(set(points)))
        assert poset(iter(points)).points == tuple(sorted(set(points)))


def test_spectrum_poset_rejects_duplicates_in_any_order():
    a, b, c = PrimePoint(), PrimePoint([1]), PrimePoint([0, 2])
    assert SpectrumPoset((a, b, c)).points == (a, b, c)
    assert SpectrumPoset((c, a, b)).points == (c, a, b)
    for given in ((a, b, b), (b, a, b), (c, a, b, a)):
        with pytest.raises(ValueError, match="distinct"):
            SpectrumPoset(given)


def _hasse_by_triple_loop(points):
    n = len(points)
    below = [[points[i].vars < points[j].vars for j in range(n)] for i in range(n)]
    return sorted((i, j) for i in range(n) for j in range(n)
                  if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n)))


def test_hasse_edges_match_the_triple_loop_on_shuffled_families():
    rng = random.Random(93)
    for _ in range(60):
        width = rng.randint(1, 7)
        family = {frozenset(g for g in range(width) if rng.random() < rng.random())
                  for _ in range(rng.randint(1, 40))}
        points = [PrimePoint(s) for s in family]
        rng.shuffle(points)
        P = SpectrumPoset(tuple(points))
        assert P.hasse_edges() == _hasse_by_triple_loop(points)


def _hasse_by_pairs(points):
    """The covers by a pairwise scan: for each point, the larger points
    containing it, by size, are kept unless they contain a cover already
    kept.  Quadratic, but fast enough for sp:4, where the triple loop is not."""
    masks = [_mask(p.gens) for p in points]
    by_size = sorted(range(len(points)), key=lambda i: points[i].size)
    edges = []
    for a, i in enumerate(by_size):
        covers = []
        for j in by_size[a + 1:]:
            if masks[j] & masks[i] == masks[i] and not any(c & ~masks[j] == 0 for c in covers):
                covers.append(masks[j])
                edges.append((i, j))
    return sorted(edges)


def _components_by_pairs(points):
    """The components by union-find over all comparable pairs of points."""
    masks = [_mask(p.gens) for p in points]
    parent = list(range(len(points)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in itertools.combinations(range(len(points)), 2):
        if masks[i] & masks[j] in (masks[i], masks[j]):
            parent[find(i)] = find(j)
    comps = collections.defaultdict(set)
    for i in range(len(points)):
        comps[find(i)].add(i)
    return sorted((frozenset(c) for c in comps.values()), key=sorted)


def test_components_match_the_pairwise_union_on_shuffled_families():
    rng = random.Random(94)
    counts = set()
    for _ in range(200):
        width = rng.randint(1, 9)
        family = {frozenset(g for g in range(width) if rng.random() < rng.random())
                  for _ in range(rng.randint(1, 80))}
        points = [PrimePoint(s) for s in family]
        rng.shuffle(points)
        comps = SpectrumPoset(tuple(points)).components()
        assert comps == _components_by_pairs(points)
        counts.add(len(comps))
    assert 1 in counts and max(counts) > 2  # both connected and split families


def test_covers_and_components_match_the_pairwise_scans_on_sp4():
    P = poset(enumerate_primes(catalog.from_selector("sp:4").presentation))
    edges = P.hasse_edges()
    assert len(P.points) == 3259 and len(edges) == 18320
    assert edges == _hasse_by_pairs(P.points)
    assert P.components() == _components_by_pairs(P.points)


def test_sl3_spectrum_is_one_component():
    P = poset(enumerate_primes(catalog.from_selector("sl:3").presentation))
    assert P.components() == [frozenset(range(247))]


def _projective_space_points(n):
    """The 2^(n+1) - 1 points of P^n over F1, each a nonzero 0/1 coordinate
    pattern given by its vanishing set, so specialization is inclusion."""
    return [PrimePoint(i for i in range(n + 1) if not bits >> i & 1)
            for bits in range(1, 1 << (n + 1))]


def test_projective_line_chain_shape():
    P = poset(_projective_space_points(1))
    assert len(P.points) == 3
    # one generic point below two closed points
    assert len(P.hasse_edges()) == 2
    mins = [i for i in range(3) if not any(P.leq(j, i) for j in range(3) if j != i)]
    assert len(mins) == 1


def test_projective_plane_count():
    # the generic point, three lines and three closed points: each line
    # covers the generic point and is covered by its two closed points
    P = poset(_projective_space_points(2))
    assert len(P.points) == 7
    assert len(P.hasse_edges()) == 9 and len(P.components()) == 1


def test_components_of_constant_group():
    for k in range(2, 7):
        P = poset(catalog.constant_group(catalog.GroupTable.cyclic(k)).spectrum())
        assert P.components() == _components_by_pairs(P.points)
        assert len(P.components()) == k


# ---------------------------------------------------------------------------
# DOT and JSON output
# ---------------------------------------------------------------------------


def test_export_dot_sl2():
    B = sl2()
    P = poset(enumerate_primes(B))
    dot = export_dot(P, B, "sl:2")
    assert dot.startswith('digraph "sl:2" {') and dot.count("->") == 8
    assert '"(T2,T3)"' in dot and '"(0)"' in dot
    assert dot == export_dot(P, B, "sl:2")  # deterministic


def test_export_dot_empty():
    dot = export_dot(poset([]), mk_free(0), "empty")
    assert "digraph" in dot and "->" not in dot


def test_export_dot_affine_plane_diamond():
    B = mk_free(2)
    dot = export_dot(poset(enumerate_primes(B)), B, "A2")
    assert dot.count("->") == 4


def test_spectrum_json():
    P = poset(enumerate_primes(mk_free(1)))
    data = spectrum_to_json(P)
    assert data["points"] == [[], [0]]
    assert data["hasse"] == [[0, 1]]


# ---------------------------------------------------------------------------
# residue fields and closed subschemes
# ---------------------------------------------------------------------------


def _residue_field(B, p):
    # the path the rank space classifies a point by
    analysis = analyze_normal_form(residue_presentation(B, p))
    assert analysis.ok and isinstance(analysis.field, NormalFormBlueField)
    return analysis.field


def test_residue_field_even_point():
    nf = _residue_field(sl2(), PrimePoint({1, 2}))
    assert nf.epsilon == 1
    assert nf.rank == 1
    assert nf.lattice in (((1, 1),), ((-1, -1),))


def test_residue_field_odd_point():
    nf = _residue_field(sl2(), PrimePoint({0, 3}))
    assert nf.epsilon == 2
    assert nf.rank == 1
    assert nf.row_signs == (1,)


def test_residue_field_of_torus_at_generic_point():
    B = mk_free(1, inverted=[0])
    nf = _residue_field(B, PrimePoint(set()))
    assert nf.epsilon == 1 and nf.rank == 1


def _is_reduced(quotient, killed):
    # the reduction is the quotient by the intersection of the primes
    return frozenset.intersection(*(q.vars for q in enumerate_primes(quotient))) == killed


# at {T2, T3} the quotients of sl2 and gl2 are reduced, so each is the
# closed subscheme of the point


def test_closed_subscheme_diagonal_chart():
    B = sl2()
    sub = quotient_by_vars(B, PrimePoint({1, 2}).gens)
    assert {1, 2} <= sub.killed() and _is_reduced(sub, {1, 2})
    kept = [r for r in sub.relations
            if r.all_terms() and all(not (t.support() & {1, 2})
                                     for t in r.all_terms())]
    assert len(kept) == 1


def test_closed_subscheme_gl2_diagonal_chart_with_witnesses():
    """The diagonal chart of the invertible 2x2 model: d*T1*T4 == 1."""
    model = catalog.gl(2)
    p = PrimePoint({1, 2})  # T2 = T3 = 0
    sub = quotient_by_vars(model.presentation, p.gens)
    assert _is_reduced(sub, {1, 2})
    kept = [r for r in sub.relations
            if r.all_terms() and all(not (t.support() & {1, 2})
                                     for t in r.all_terms())]
    assert len(kept) == 1
    (rel,) = kept
    exps = sorted(t.exps for t in rel.all_terms())
    assert exps == [(0, 0, 0, 0, 0), (1, 0, 0, 1, 1)]
