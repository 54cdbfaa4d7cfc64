"""Catalog constructors: presentations, expected combinatorics, selectors."""

import dataclasses
import hashlib
import itertools
import json

import pytest

from blueweyl import catalog
from blueweyl.blueprint import (
    _mask,
    _relations,
    _term_bits,
    mk_free,
    simplify_presentation,
)
from blueweyl.spectrum import GENERATOR_CAP, _enumerate_masks, _symmetry_group, is_prime
from blueweyl.catalog import CatalogError, GroupTable, from_selector, perm_of_pattern


def test_sl2_presentation_shape():
    B = catalog.sl(2).presentation
    assert B.generator_names == ("T1", "T2", "T3", "T4")
    assert len(B.relations) == 1
    (rel,) = B.relations
    assert len(rel.all_terms()) == 3


def test_sl3_leibniz_term_counts():
    B = catalog.sl(3).presentation
    (rel,) = B.relations
    sides = sorted((len(rel.lhs), len(rel.rhs)))
    assert sides == [3, 4]  # three even products; three odd products plus 1


def test_sl_expected_metadata():
    m = catalog.sl(2)
    assert m.expected["rank"] == 1 and m.expected["weyl_order"] == 2


def test_sl_cap():
    with pytest.raises(CatalogError):
        catalog.sl(99)


def test_model_computes_its_rank_space_once(monkeypatch):
    calls = []
    original = catalog.rank_space

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(catalog, "rank_space", counting)
    model = catalog.sl(3)
    pts = model.rank_points()
    assert len(model.weyl_monoid()) == 6
    assert model.tits_points(1).count == 3
    assert model.tits_points(2).count == 24
    assert len(calls) == 1
    # the kept points are not handed out: a caller's list is its own
    pts.clear()
    assert len(model.rank_points()) == 6
    # a replaced model starts without rank points of its own
    odd = dataclasses.replace(model, rank_point_filter=lambda p: len(p.vars) == 6)
    assert len(odd.rank_points()) == 6
    even = dataclasses.replace(model, rank_point_filter=lambda p: 0 in p.vars)
    assert len(even.rank_points()) == 4
    assert len(calls) == 3


def _coordinate_automorphisms(model):
    """Brute force: every row permutation, column permutation and optional
    transpose of the matrix entries (other generators fixed) that maps the
    relation set onto itself, as a generator permutation."""
    B, n = model.presentation, model.dimension

    def side(terms, sigma):
        out = []
        for t in terms:
            exps = [0] * B.width
            for g, e in enumerate(t.exps):
                exps[sigma[g]] = e
            out.append((t.sign, tuple(exps)))
        return tuple(sorted(out))

    def key(rel, sigma):
        return frozenset((side(rel.lhs.terms, sigma), side(rel.rhs.terms, sigma)))

    identity = tuple(range(B.width))
    relations = {key(rel, identity) for rel in B.relations}
    found = set()
    for pi in itertools.permutations(range(n)):
        for tau in itertools.permutations(range(n)):
            for flip in (False, True):
                sigma = list(identity)
                for i in range(n):
                    for j in range(n):
                        a, b = (tau[j], pi[i]) if flip else (pi[i], tau[j])
                        sigma[i * n + j] = a * n + b
                if all(key(rel, sigma) in relations for rel in B.relations):
                    found.add(tuple(sigma))
    return found


@pytest.mark.parametrize("selector,order", [
    ("sl:2", 4), ("sl:3", 36), ("sl:4", 576), ("gl:2", 4), ("gl:3", 36), ("sp:4", 8),
    ("so:3", 2), ("so:4", 64), ("so:5", 32), ("o:4", 64)])
def test_coordinate_symmetries_generate_every_coordinate_automorphism(selector, order):
    model = from_selector(selector)
    B = model.presentation
    group = _symmetry_group(B.symmetries, B.width)
    assert len(group) == order
    assert set(group) == _coordinate_automorphisms(model)
    if B.width > model.dimension ** 2:
        assert all(sigma[-1] == B.width - 1 for sigma in B.symmetries)  # d is fixed


@pytest.mark.parametrize("selector,leaves", [("sl:4", 142), ("sp:4", 465), ("so:5", 4094)])
def test_symmetric_search_keeps_one_leaf_per_orbit(selector, leaves):
    # here the generating relations and the full saturated list have the same primes
    B = from_selector(selector).presentation
    rels = _relations(B)
    for relations in (rels.saturated[:len(rels.dead) + len(rels.relations)], rels.saturated):
        layout = _term_bits(relations, B.width)
        assert len(_enumerate_masks(layout, _mask(B.inverted), B.symmetries)) == leaves


def test_derived_models_carry_no_symmetries():
    for selector in ("levi:3:2,1", "parabolic:3:2,1", "unipotent:3:1,2", "torus:2", "nstorus"):
        assert from_selector(selector).presentation.symmetries == ()
    product = catalog.model_product(catalog.sl(2), catalog.sl(2))
    assert product.presentation.symmetries == ()


def test_gl1_is_torus_like():
    m = catalog.gl(1)
    assert len(m.spectrum()) == 1
    pts = m.rank_points()
    assert pts[0].rank == 1
    assert m.tits_points(2).count == 2


def test_gl2_counts():
    m = catalog.gl(2)
    assert m.expected["weyl_order"] == 2
    assert len(m.rank_points()) == 2
    assert m.tits_points(2).count == 8


def test_gl_rank_points_fix_last_coordinate():
    # rank patterns of the invertible model leave d alive
    m = catalog.gl(2)
    d = m.presentation.generator_names.index("d")
    assert all(d not in r.point.vars for r in m.rank_points())


def test_sp2_matches_sl2_spectrum_shape():
    sp2 = catalog.sp(2)
    assert len(sp2.spectrum()) == 7
    assert len(sp2.rank_points()) == 2


def test_sp4_hyperoctahedral_order():
    m = catalog.sp(4)
    assert len(m.rank_points()) == 8  # 2^2 * 2!
    assert m.rank_points()[0].rank == 2


# SHA-256 of sp(dim)'s presentation (relations in order, symmetries), comult
# and counit, which sp builds from the same matrix helpers as gl(dim)
SP_MODEL_DIGESTS = {
    2: "e0e6ae260210928839b42345bfc521f9ae763f39a34b8d47e73e0285f226fcca",
    4: "73aa8994a0817ac6d122fd6b9040c9d775a060df15dad84c7cd54153e451cfa8",
    6: "1e91ff7d0726a8108e3e92022ae09937407c8960670090524244639da23de59c",
}


@pytest.mark.parametrize("dim", sorted(SP_MODEL_DIGESTS))
def test_sp_model_is_pinned(dim):
    m = catalog.sp(dim)
    B = m.presentation
    text = repr((B.generator_names, sorted(B.inverted), B.coeff_order, B.relations,
                 B.symmetries, m.comult.images, sorted(m.counit_zero), m.aux_names))
    assert hashlib.sha256(text.encode()).hexdigest() == SP_MODEL_DIGESTS[dim]


def _compositions(n):
    """Every composition of n, shorter ones first."""
    return [c for k in range(1, n + 1) for c in itertools.product(range(1, n + 1), repeat=k)
            if sum(c) == n]


PINNED_SELECTORS = (
    [f"sl:{n}" for n in range(2, 7)] + [f"gl:{n}" for n in range(1, 7)]
    + [f"{head}:{n}" for head in ("sp", "o") for n in (2, 4, 6)]
    + [f"so:{n}" for n in range(2, 7)] + ["torus:0", "torus:1", "torus:2"]
    + ["nstorus", "psl2-conj", "psl2-adj"]
    + [f"{kind}:{n}:{','.join(map(str, flag))}" for n in (2, 3, 4) for flag in _compositions(n)
       for kind in ("parabolic", "levi", "unipotent")])

# SHA-256 of each model's structure: presentation (relations and symmetries
# in order, which fix the search order), comultiplication, counit, dimension,
# auxiliary names and expected metadata; "const:k" is the cyclic group of
# order k
MODEL_STRUCTURE_DIGESTS = {
    "sl:2": "e1ddd64d559e7d5ade9972a211e4739dad78628d460ce5153bccafd0fe7d1d93",
    "sl:3": "5fe9df75b987a26c40967b309ec9635e3b4143a7d5755ef7bab215f58fd5e6a9",
    "sl:4": "80cb37257c1187ce3388dbd4a7a9cc2fb9af1691355b4048aafebd6203acab16",
    "sl:5": "68f752c6d21b8ff6bb7bd8b51821d359727595c9a16b0e0507c59cf83f569521",
    "sl:6": "9c9e0dbd64455a4277cc3794760a64b39299925377a411fc5b8a76d10bab1ffd",
    "gl:1": "48cb247a64f553b3f027d35d6685470f3a6a63af1512e1f3c781a184796db891",
    "gl:2": "c46dee52c9c10762c91361d6a5433fe7cd4b9e592b15a248efbd7a469d48259f",
    "gl:3": "05647794da0a20cd2a7b46c0c4c632f401155479039f25d99ccf56ea950726a9",
    "gl:4": "6772225fc4d2db1b1601d0d76ea3be201b19f4a1ae728f9efbf791f85bba8dbd",
    "gl:5": "333e8b48e1b5b39fcc9e9604110e215d7c89fb458d78edaa001f2f1466590f8d",
    "gl:6": "03b424811539ebee7e55882bcd21f4b98d2b62ec58859b9a19b8008c947009fc",
    "sp:2": "1e48042f0a6220f26a2c38a0610074450f549d0ecc75c86dd5071f0291393bed",
    "sp:4": "f31ea2788b8cdf89fb89ff9b2a96a7f54a3c83cd3d6b4fba6569a2b51ad41e60",
    "sp:6": "396285668fbd218bc41e1f5f6c963ae5266cc28c6d083f1b9e33329d62829bc3",
    "o:2": "9659319b7dd60f0eb85b96a2947c0cb017b6b317c7e05bff1c20dff3f8db3f76",
    "o:4": "1470433bf3f39024cee3e542692cf97c0cafa780fbfdcd00ea0078376e4e01ac",
    "o:6": "fb6c1256916357bb3043c39fe1d600077701778850b2261c82c2c36c57947c91",
    "so:2": "f66268061e238edba07022eb17b9a8ef62a8be474a8ef03193fd3368b08d38f1",
    "so:3": "4197e42b5104caefdbf25832a0313a62139ea9a26f4e3331710f83848700ba14",
    "so:4": "c19f005a9f04de2b2d7316dfa3c8993286a6b1e247ca2cb99c1e41d521f27c78",
    "so:5": "a010b39fbaf5c0329828ed706b7a615eba0af1992a328defb801d5010b26aac2",
    "so:6": "ee6aa1490ec546ea98c7e5c4eedd009743bfd3259f6de35e061d4b5713f0a68b",
    "torus:0": "5ac9ae676281ae2ff013b2de90f76bce1445a7c859f81736e19b2d5daf306fee",
    "torus:1": "b135a471106ced9a4f8ec8a16c2ac919c60f1d0d9863fb4784185301e2308c2c",
    "torus:2": "09a71a696cb4e1300df4da472683dc07a3f727dc38ada34b90936b48c9c0e26e",
    "nstorus": "2355339574df0db3a91b02194e555e4e73cdf399226cb4906ec8d753cf970efe",
    "psl2-conj": "c0753bb820860db743d971eb223307c1965ad23ee29e0fb0b50d3b288e93a7d6",
    "psl2-adj": "bdb9897224b9a8918044cc089a250ea66beac92d93b77732629108bfb480c685",
    "parabolic:2:2": "a2f08c32988daa0c538dcc47c77ac8a5ed9c51c8f0f09bad3486916f1e21c513",
    "levi:2:2": "4db5864127b43a1a5c00ec46ed97ab2fdd947259dd4e631178e2ad16a04b5b18",
    "unipotent:2:2": "55d3a60b92394bd8a31364c7038222980511b609e710f6baf27d439d626c52e7",
    "parabolic:2:1,1": "9afc4ff053fbbc39bc7003b7179573638a750994f7c63b73892fd85dce53eb17",
    "levi:2:1,1": "2ef708cbf86b54e34ee13faa95e46b3aca511b3d5d78d0cba437a8493c3ebae9",
    "unipotent:2:1,1": "a5c69c3d1fe816a34da2519e4ab495b9defe0eb5b132bed9a87463db669e46c6",
    "parabolic:3:3": "6ea94cffea67be562acff8005bbbba76a90bd0765fe7474e7edc8192fe4ed79d",
    "levi:3:3": "b67f817b87222f1efc584791e70f39ed9947436eb23d604d91cc9c5959744714",
    "unipotent:3:3": "92b5305a12440109e310eb84a67d9438f15ee21f20ed0869fa4b918216d494cf",
    "parabolic:3:1,2": "138d7c30745275a54e7d943684575c2ad11f66f9ac8196ee78f3e4ee427433d9",
    "levi:3:1,2": "92748b4c67dbee45419592b628df8b731c9dce49d306b812732934731248ee66",
    "unipotent:3:1,2": "a89639c0dae1d71dd506f2744c4d7ed6b4048021929a789ceac30be8788ee646",
    "parabolic:3:2,1": "d8833a7ae0470eace728792c3e5e7e71333bea24d77b8e904aece12afb2785fb",
    "levi:3:2,1": "26142c71f4489851bff5627ff070ba6a6402d5dd1259f2fbe0c8b0279e1faea7",
    "unipotent:3:2,1": "9fa5324bad7a7dd28c216bdaa96525b9a0b6921aa098610b6a5d5abb6f1a445c",
    "parabolic:3:1,1,1": "a179d8e161508359245932382f7246f143e4d3e754237affffd329c3bb79580a",
    "levi:3:1,1,1": "679660792f9714714260e2a50b4fdb3edef7f244a360c0c974bca638859da8cb",
    "unipotent:3:1,1,1": "8cf96dd5cfc72db00d023e674ab1f2e839e6025a43566a8ecea45ac0222d31e7",
    "parabolic:4:4": "cfd6a249c6e50550a9b63aa56b05c544f09e615781469b424bf3c0489d749371",
    "levi:4:4": "1c9b60e258aaa77293d91d948324074812e2b103409f1a88a6b466498c48a9ad",
    "unipotent:4:4": "ebd128c65624e7752fe2ee5b38111b5f204d96a3c367705de10449918880b532",
    "parabolic:4:1,3": "d616a617c232b15813c57ec1ed914812f848b7e14c2dadae583f49f7d06254f4",
    "levi:4:1,3": "cd6c7fc368b2d81c6ea66a7f27c9f883681569baa700ae625f6e0fb552466866",
    "unipotent:4:1,3": "ac6315a479d44dd71e8026bd6e283a37a5b9561171adf7f39eac155581d7e699",
    "parabolic:4:2,2": "6af26a5239ddd36813278f8a15fcf1a6789c833301539929f0ea2e50ce8664d1",
    "levi:4:2,2": "7b4e577989868ee56083b7c5a47124afd82081a3c2ddbf439eea97e5c7e4d636",
    "unipotent:4:2,2": "94332201efc60a0f86ddb25b911e5a1414e4be71f323762fb95779681a9c2f75",
    "parabolic:4:3,1": "83bc73e501bd54a06381aec8b3203727a31cf44c2a87c2ed48c4c134dd776137",
    "levi:4:3,1": "aa924144055f6b62bc434c2e6c1c128a9ec1c89f021068de0e66ba757ccb2fb1",
    "unipotent:4:3,1": "90097ea258f308b8e7ff1ffc7d7496fee4be839892aa0526bc3a5e5a05041ee6",
    "parabolic:4:1,1,2": "97c7ca785023f5f71ebd34ca02f91f66963cacc6fff4569dcc704a90a31f7828",
    "levi:4:1,1,2": "8667487c6ce560da619eee9222472585ec8434a8e526116a137fd63da14d8687",
    "unipotent:4:1,1,2": "41d8cc27fcdad79af56b78c303628fe0e794b21083c4cc9ebfcc86a844d9c2b4",
    "parabolic:4:1,2,1": "28c0adc70a6218cb1a4db07055ea20257081b788cc4eebf164ea746ff12c5e4f",
    "levi:4:1,2,1": "c94c0270ac929ee6c36e382e5f9b67d0a195b2067aad4b168dd80ae9f2bb634e",
    "unipotent:4:1,2,1": "bbd65cf335ea7fe0043fbb061480ba7a22faa405ea6248d7b848cc55c613f086",
    "parabolic:4:2,1,1": "251c3d4f1922cbaa142beb249fbab7d25be570adc738318a7b849b42d910688f",
    "levi:4:2,1,1": "8f06133f508d66d70578ea2bab1300aeb15eccf572021ac8e09fe40db47414ae",
    "unipotent:4:2,1,1": "2994001933de4b85c757aa34b7e8dc4bd9794547158b1dbd6aeeffd6a3a03922",
    "parabolic:4:1,1,1,1": "01f8540bb3ab4a4a1775d0262c71c6c1f93f912bb22f258a5cfb5f91e2c5926b",
    "levi:4:1,1,1,1": "0009125ceaefc17d4d2ed6f4c90b2b2ce18cd48f57001901004b6b59ba4ab2de",
    "unipotent:4:1,1,1,1": "4d44582d6fcd27b3ad0264f96e7a28f9ede8d77b1409fa3206187f13ce03c5df",
    "const:1": "5925c58872796b17e390704b130892f8dcf0203d91910c24f78917d5f6fa2a64",
    "const:2": "e84f4aa9278b57a920614f62ec293231f8e14c5afe5da76bee420da632c07d1b",
    "const:3": "ae575f2c9cd395d820817d8163253846facfef99e56db8b2381b83d27f731f35",
    "const:5": "8c7c523a4098fa46092fc17b0b96b505a136116cb0d8f2018a7782589e4a5a36",
}


def _structure_digest(model):
    B = model.presentation
    text = repr((model.name, B.generator_names, sorted(B.inverted), B.coeff_order,
                 B.relations, B.symmetries, model.comult.images, sorted(model.counit_zero),
                 model.dimension, model.aux_names, sorted(model.expected.items())))
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_model_structure_is_pinned():
    models = {selector: from_selector(selector) for selector in PINNED_SELECTORS}
    for k in (1, 2, 3, 5):
        models[f"const:{k}"] = catalog.constant_group(GroupTable.cyclic(k))
    digests = {key: _structure_digest(model) for key, model in models.items()}
    assert digests == MODEL_STRUCTURE_DIGESTS


def test_so3_counts():
    m = catalog.so(3)
    assert len(m.rank_points()) == 2
    assert m.rank_points()[0].rank == 1


def test_so4_o4_component_selection():
    so4 = catalog.so(4)
    o4 = catalog.o(4)
    assert len(o4.rank_points()) == 8
    assert len(so4.rank_points()) == 4
    # the selected points are exactly the even permutation patterns
    for r in so4.rank_points():
        sigma = perm_of_pattern(so4, r.point)
        assert sigma is not None and catalog._perm_sign(sigma) == 1
    W = so4.weyl_monoid()
    assert W.is_group() and len(W) == 4


def test_subgroup_rank_points_are_ambient_rank_points():
    """Monomial patterns of the form-preserving models sit inside the
    invertible model's rank patterns (pattern containment)."""
    gl4_patterns = {r.point.vars for r in catalog.gl(4).rank_points()}
    for r in catalog.sp(4).rank_points():
        assert r.point.vars in gl4_patterns
    # the orthogonal models live on the bare matrix coordinates; compare
    # against the invertible patterns restricted to those coordinates
    n = 3
    gl3 = catalog.gl(n)
    d = gl3.presentation.generator_names.index("d")
    gl3_patterns = {frozenset(g for g in r.point.vars if g != d)
                    for r in gl3.rank_points()}
    for r in catalog.so(3).rank_points():
        assert r.point.vars in gl3_patterns


def test_torus_model():
    m = catalog.torus(2)
    assert len(m.weyl_monoid()) == 1
    assert m.tits_points(2).count == 4
    assert m.expected["tits_weyl"] is True


def test_constant_group_model():
    m = catalog.constant_group(GroupTable.cyclic(2))
    assert len(m.spectrum()) == 2
    W = m.weyl_monoid()
    assert len(W) == 2 and W.is_group()
    assert m.expected["tits_weyl"] is False


def test_constant_group_law_matches_table():
    table = GroupTable.cyclic(3)
    m = catalog.constant_group(table)
    W = m.weyl_monoid()
    assert len(W) == 3 and W.is_group()
    # cyclic: some element squares to the remaining one
    non_id = [i for i in range(3) if i != W.identity]
    assert W.mul(non_id[0], non_id[0]) == non_id[1]


def test_semidirect_model_flags():
    faithful = catalog.semidirect(1, GroupTable.cyclic(2),
                                  {"g0": [[1]], "g1": [[-1]]})
    assert faithful.expected["tits_weyl"] is True
    trivial_action = catalog.semidirect(1, GroupTable.cyclic(2),
                                        {"g0": [[1]], "g1": [[1]]})
    assert trivial_action.expected["tits_weyl"] is False
    W = faithful.weyl_monoid()
    assert len(W) == 2 and W.is_group()
    assert faithful.rank_points()[0].rank == 1


def test_semidirect_rejects_bad_matrices():
    with pytest.raises(CatalogError):
        catalog.semidirect(2, GroupTable.cyclic(2), {"g0": [[1]], "g1": [[1]]})


def test_semidirect_needs_an_action():
    # S3 permuting the coordinates of a rank-3 torus: A(s)A(t) = A(s*t) with
    # (s*t)(i) = t(s(i)); the transposed table presents the opposite group,
    # of which the same matrices are no action
    perms = list(itertools.permutations(range(3)))
    names = tuple("".join(map(str, s)) for s in perms)
    exps = {name: [[int(j == s[i]) for j in range(3)] for i in range(3)]
            for name, s in zip(names, perms)}
    table = tuple(tuple(perms.index(tuple(t[s[i]] for i in range(3))) for t in perms)
                  for s in perms)
    assert catalog.semidirect(3, GroupTable(names, table, 0), exps).expected["tits_weyl"]
    with pytest.raises(CatalogError, match="not an action"):
        catalog.semidirect(3, GroupTable(names, tuple(zip(*table)), 0), exps)


def test_group_table_validation():
    with pytest.raises(CatalogError):
        GroupTable(("a", "b"), ((0, 1), (1, 1)), 0)


def test_model_sizes_are_bounded_by_the_generator_cap():
    # torus rank, table size, and rank plus table size for semidirect
    # products are checked before anything is built
    assert catalog.torus(GENERATOR_CAP).presentation.width == GENERATOR_CAP
    assert len(GroupTable.cyclic(GENERATOR_CAP).elements) == GENERATOR_CAP
    table = GroupTable.cyclic(GENERATOR_CAP - 1)
    exps = {name: [[1]] for name in table.elements}
    assert catalog.semidirect(1, table, exps).presentation.width == GENERATOR_CAP
    with pytest.raises(CatalogError, match="supported range"):
        catalog.torus(GENERATOR_CAP + 1)
    with pytest.raises(CatalogError, match="supported range"):
        GroupTable.cyclic(GENERATOR_CAP + 1)
    with pytest.raises(CatalogError, match="supported range"):
        catalog.semidirect(2, table, {name: [[1, 0], [0, 1]] for name in table.elements})


def test_nonstandard_torus():
    m = catalog.nonstandard_torus()
    assert len(m.spectrum()) == 2
    pts = m.rank_points()
    assert len(pts) == 1 and pts[0].rank == 1
    W = m.weyl_monoid()
    assert len(W) == 1


def test_parabolic_full_flag_is_whole_group():
    full = catalog.standard_parabolic(2, [2])
    gl2 = catalog.gl(2)
    assert full.presentation.canonical_key() == gl2.presentation.canonical_key()


def test_borel_gl2():
    b = catalog.standard_parabolic(2, [1, 1])
    pts = b.rank_points()
    assert len(pts) == 1
    assert len(b.weyl_monoid()) == 1


def test_parabolic_intermediate_flag():
    p = catalog.standard_parabolic(3, [2, 1])
    assert len(p.rank_points()) == 2  # S2 x S1


def test_parabolic_rejects_bad_flag():
    with pytest.raises(CatalogError):
        catalog.standard_parabolic(3, [2, 2])
    # the flag is checked before its Weyl order, a product of factorials, is taken
    for selector in ("parabolic:3:4,-1", "levi:3:-1,4", "unipotent:3:0,3"):
        with pytest.raises(CatalogError, match="is not a composition of 3"):
            from_selector(selector)


def test_unipotent_radical_of_borel_gl3():
    u = catalog.unipotent_radical(3, [1, 1, 1])
    assert len(u.spectrum()) == 8
    assert len(u.rank_points()) == 1
    simplified = simplify_presentation(u.presentation)
    assert simplified.canonical_key() == mk_free(3).canonical_key()


def test_levi_of_flag_21():
    lv = catalog.levi(3, [2, 1])
    W = lv.weyl_monoid()
    assert len(W) == 2 and W.is_group()


def test_psl2_conjugation_model():
    m = catalog.psl2_conj()
    assert len(m.spectrum()) == 7
    pts = m.rank_points()
    assert len(pts) == 2 and all(p.rank == 1 for p in pts)
    assert sorted(p.epsilon for p in pts) == [1, 2]
    W = m.weyl_monoid()
    assert len(W) == 2 and W.is_group()


def test_psl2_adjoint_model():
    m = catalog.psl2_adjoint()
    assert len(m.spectrum()) == 13
    pts = m.rank_points()
    assert len(pts) == 2 and all(p.rank == 1 for p in pts)
    W = m.weyl_monoid()
    assert len(W) == 2 and W.is_group()


def test_psl2_adjoint_point_table_consistency():
    names = set(catalog.ADJOINT_POINT_TABLE)
    assert len(names) == 13
    primed = {name for name, (_, char2) in catalog.ADJOINT_POINT_TABLE.items() if char2}
    assert primed == {"x1'", "x2'", "x3'", "x4'", "eta'"}


def test_model_product_counits():
    prod = catalog.model_product(catalog.sl(2), catalog.torus(1))
    W = prod.weyl_monoid()
    assert len(W) == 2


def _counit_is_a_point(m):
    """The counit's zero pattern is a point of the model: one of its listed
    points when it is given by its points, else a prime of its presentation."""
    if m.spectrum_override is not None:
        return any(p.vars == m.counit_zero for p in m.spectrum_override)
    return is_prime(m.presentation, m.counit_zero)


def test_counit_validation():
    for m in (catalog.sl(2), catalog.gl(2), catalog.torus(1),
              catalog.psl2_conj(), catalog.psl2_adjoint(),
              catalog.nonstandard_torus()):
        assert _counit_is_a_point(m), m.name


def test_selectors(tmp_path):
    assert from_selector("sl:3").name == "sl:3"
    assert from_selector("torus:2").name == "torus:2"
    assert from_selector("psl2-adj").name == "psl2-adj"
    assert from_selector("parabolic:2:1,1").name == "parabolic:2:1,1"
    table = {"elements": ["e", "s"], "identity": 0,
             "table": [[0, 1], [1, 0]]}
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(table))
    assert from_selector(f"const:{path}").name.startswith("const:")
    table["rank"] = 1
    table["exps"] = {"e": [[1]], "s": [[-1]]}
    path.write_text(json.dumps(table))
    m = from_selector(f"semidirect:{path}")
    assert m.expected["tits_weyl"] is True
    with pytest.raises(CatalogError):
        from_selector("nope:1")
