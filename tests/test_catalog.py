"""Catalog constructors: presentations, expected combinatorics, selectors."""

import dataclasses
import hashlib
import itertools
import json

import pytest

from blueweyl import catalog
from blueweyl.blueprint import (
    _mask,
    _term_bits,
    mk_free,
    saturate_relations,
    simplify_presentation,
)
from blueweyl.spectrum import DEFAULT_GENERATOR_CAP, _enumerate_masks, _symmetry_group
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
    for rounds in (0, 2):
        layout = _term_bits(saturate_relations(B, rounds=rounds), B.width)
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
    d = m.presentation.index_of("d")
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
    d = gl3.presentation.index_of("d")
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
    assert catalog.torus(DEFAULT_GENERATOR_CAP).presentation.width == DEFAULT_GENERATOR_CAP
    assert len(GroupTable.cyclic(DEFAULT_GENERATOR_CAP).elements) == DEFAULT_GENERATOR_CAP
    table = GroupTable.cyclic(DEFAULT_GENERATOR_CAP - 1)
    exps = {name: [[1]] for name in table.elements}
    assert catalog.semidirect(1, table, exps).presentation.width == DEFAULT_GENERATOR_CAP
    with pytest.raises(CatalogError, match="supported range"):
        catalog.torus(DEFAULT_GENERATOR_CAP + 1)
    with pytest.raises(CatalogError, match="supported range"):
        GroupTable.cyclic(DEFAULT_GENERATOR_CAP + 1)
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


def test_counit_validation():
    for m in (catalog.sl(2), catalog.gl(2), catalog.torus(1),
              catalog.psl2_conj(), catalog.psl2_adjoint(),
              catalog.nonstandard_torus()):
        m.validate_counit()


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
