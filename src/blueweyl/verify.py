"""Verification suites: golden counts, property checks, and the pattern oracle.

Each check is a dict with name, expected, actual, and a pass flag; the CLI
prints one line per check and the acceptance test suite asserts them.
Independent oracles (brute-force subset scans, sign-vector counts, residue
morphism enumeration) live here next to the checks that consume them.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

from . import catalog, patterns
from .blueprint import (
    BlueprintPresentation,
    mk_free,
    one_monomial,
    potential_characteristics,
    relation,
    relation_entailed,
    simplify_presentation,
    tensor,
)
from .catalog import GroupModel, GroupTable, perm_of_pattern
from .semirings import (
    BOOLEAN,
    NATURALS,
    TROPICAL,
    PointMatrix,
    Semiring,
    hom_count,
    identity_matrix,
    integers_mod,
    is_point,
    multiply,
)
from .spectrum import (
    PrimePoint,
    brute_force_primes,
    enumerate_primes,
    poset,
    residue_presentation,
)
from .weyl import WeylMonoid, product_check


def _check(name: str, expected, actual) -> dict:
    return {"name": name, "expected": str(expected), "actual": str(actual),
            "pass": expected == actual}


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """(a after b): the map k -> a[b[k]]."""
    return tuple(a[b[k]] for k in range(len(a)))


def inverse_perm(a: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def symmetric_group_isomorphism(model: GroupModel, W: WeylMonoid) -> bool:
    """Explicit isomorphism from the Weyl monoid onto the symmetric group.

    Each rank point of a matrix model carries a permutation pattern; the map
    sending a point to the inverse of its pattern permutation intertwines
    the induced law with composition.
    """
    perms = []
    for e in W.elements:
        sigma = perm_of_pattern(model, e.point)
        if sigma is None:
            return False
        perms.append(sigma)
    if len(set(perms)) != len(perms):
        return False
    phi = [inverse_perm(p) for p in perms]
    for i in range(len(perms)):
        for j in range(len(perms)):
            k = W.table[i][j]
            if phi[k] != compose(phi[i], phi[j]):
                return False
    return True


def extended_weyl_sign_oracle(n: int) -> int:
    """Count sign vectors per permutation: t in {-1, 1}^n with prod t = sign."""
    total = 0
    for sigma in itertools.permutations(range(n)):
        target = catalog._perm_sign(sigma)
        for signs in itertools.product((-1, 1), repeat=n):
            prod = 1
            for s in signs:
                prod *= s
            if prod == target:
                total += 1
    return total


def count_homs_to_f1m(B: BlueprintPresentation, m: int) -> int:
    """Brute-force morphisms from a residue-style presentation to F1^m.

    Assignments send inverted generators to m-th roots of unity (+-1 coded
    as integers) and everything else to 0 or a root; a sum-equality holds
    in F1 when both sides have the same number of non-zero terms, and in
    F1^2 when the integer values of the sides agree.
    """
    roots = [1] if m == 1 else [1, -1]
    killed = B.killed()
    choices = []
    for g in range(B.width):
        if g in B.inverted:
            choices.append(list(roots))
        elif g in killed:
            choices.append([0])
        else:
            choices.append([0] + list(roots))
    count = 0
    for combo in itertools.product(*choices):
        ok = True
        for rel in B.relations:
            sides = []
            for side in rel.sides():
                values = []
                for t in side.terms:
                    v = -1 if (t.sign and m == 2) else 1
                    for g, e in enumerate(t.exps):
                        if e and combo[g] == 0:
                            v = 0
                            break
                        if e % 2 and combo[g] == -1:
                            v = -v
                    values.append(v)
                sides.append(values)
            lhs, rhs = sides
            if m == 1:
                ok = sum(1 for v in lhs if v) == sum(1 for v in rhs if v)
            else:
                ok = sum(lhs) == sum(rhs)
            if not ok:
                break
        if ok:
            count += 1
    return count


def class_nonempty(c) -> bool:
    if c.kind == "all-but":
        return True
    if c.kind == "finite":
        return bool(c.included)
    raise ValueError("unknown characteristic class")


# ---------------------------------------------------------------------------
# Semiring point sampling
# ---------------------------------------------------------------------------


def _natural_point_pool(n: int, rng: random.Random, size: int) -> list[PointMatrix]:
    """Products of elementary matrices: determinant-one naturals matrices."""
    pool = []
    for _ in range(size):
        M = identity_matrix(n, NATURALS)
        for _ in range(rng.randint(1, 4)):
            i, j = rng.sample(range(1, n + 1), 2)
            t = rng.randint(0, 3)
            E = [[1 if a == b else 0 for b in range(1, n + 1)]
                 for a in range(1, n + 1)]
            E[i - 1][j - 1] = t
            M = multiply(M, PointMatrix(n, tuple(v for row in E for v in row)),
                         NATURALS)
        pool.append(M)
    return pool


def _exhaustive_point_pool(model: GroupModel, S: Semiring) -> list[PointMatrix]:
    n = model.dimension
    pool = []
    for combo in itertools.product(S.elements, repeat=n * n):
        M = PointMatrix(n, combo)
        if is_point(model, M, S):
            pool.append(M)
    return pool


def _tropical_point_pool(model: GroupModel, rng: random.Random,
                         size: int) -> list[PointMatrix]:
    """Scaled even-permutation patterns plus rejection-sampled small matrices."""
    n = model.dimension
    pool = []
    evens = [s for s in itertools.permutations(range(n))
             if catalog._perm_sign(s) == 1]
    inf = TROPICAL.zero
    while len(pool) < size:
        if rng.random() < 0.6:
            sigma = rng.choice(evens)
            u = [rng.randint(0, 4) for _ in range(n)]
            v = [rng.randint(0, 4) for _ in range(n)]
            shift = sum(u) + sum(v)
            u[0] -= shift  # normalize so the permutation product is 0
            entries = [u[i] + v[j] if sigma[i] == j else inf
                       for i in range(n) for j in range(n)]
            M = PointMatrix(n, tuple(entries))
        else:
            entries = [rng.choice([0, 0, 1, 2]) for _ in range(n * n)]
            M = PointMatrix(n, tuple(entries))
        if is_point(model, M, TROPICAL):
            pool.append(M)
    return pool


def semiring_closure_check(model: GroupModel, S: Semiring, pairs: int,
                           rng: random.Random) -> dict:
    """Products of sampled points must again be points."""
    if S is NATURALS:
        pool = _natural_point_pool(model.dimension, rng, 60)
    elif S.elements is not None:
        pool = _exhaustive_point_pool(model, S)
    else:
        pool = _tropical_point_pool(model, rng, 40)
    good = 0
    for _ in range(pairs):
        M, N = rng.choice(pool), rng.choice(pool)
        if is_point(model, multiply(M, N, S), S):
            good += 1
    return _check(f"semiring closure {model.name} over {S.name} ({pairs} pairs)",
                  pairs, good)


# ---------------------------------------------------------------------------
# The paper-counts suite
# ---------------------------------------------------------------------------


SL2_EXPECTED_POINTS = [(), ("T1",), ("T2",), ("T3",), ("T4",),
                       ("T1", "T4"), ("T2", "T3")]
SL2_EXPECTED_HASSE = {((), ("T1",)), ((), ("T2",)), ((), ("T3",)), ((), ("T4",)),
                      (("T1",), ("T1", "T4")), (("T4",), ("T1", "T4")),
                      (("T2",), ("T2", "T3")), (("T3",), ("T2", "T3"))}


def _named(B, p: PrimePoint) -> tuple:
    return tuple(B.name_of(g) for g in p.gens)


def paper_counts_checks() -> list[dict]:
    checks = []

    # the seven points of the determinant-one 2x2 model, with their order
    m2 = catalog.sl(2)
    pts = m2.spectrum()
    checks.append(_check("sl:2 point set",
                         sorted(SL2_EXPECTED_POINTS),
                         sorted(_named(m2.presentation, p) for p in pts)))
    P = poset(pts)
    hasse = {(_named(m2.presentation, P.points[i]), _named(m2.presentation, P.points[j]))
             for i, j in P.hasse_edges()}
    checks.append(_check("sl:2 inclusion order", sorted(SL2_EXPECTED_HASSE),
                         sorted(hasse)))

    # rank data of the determinant-one models
    for n in (2, 3, 4):
        model = catalog.sl(n)
        rank_points = model.rank_points()
        fact = math.factorial(n)
        checks.append(_check(f"sl:{n} rank point count", fact, len(rank_points)))
        checks.append(_check(f"sl:{n} rank", n - 1,
                             sorted({r.rank for r in rank_points})[0]
                             if rank_points else None))
        parity_ok = all(
            r.epsilon == (1 if catalog._perm_sign(perm_of_pattern(model, r.point)) == 1
                          else 2)
            for r in rank_points)
        checks.append(_check(f"sl:{n} residue sign parity", True, parity_ok))

        W = model.weyl_monoid()
        checks.append(_check(f"sl:{n} Weyl group order", fact, len(W)))
        checks.append(_check(f"sl:{n} Weyl monoid is a group", True, W.is_group()))
        checks.append(_check(f"sl:{n} symmetric group isomorphism", True,
                             symmetric_group_isomorphism(model, W)))

        t1 = model.tits_points(1)
        checks.append(_check(f"sl:{n} F1-points", fact // 2, t1.count))
        checks.append(_check(f"sl:{n} F1-points closed", True,
                             t1.monoid is not None and t1.monoid.is_group()))
        t2 = model.tits_points(2)
        checks.append(_check(f"sl:{n} F1^2-points", 2 ** (n - 1) * fact, t2.count))
        checks.append(_check(f"sl:{n} F1^2 sign-vector oracle",
                             extended_weyl_sign_oracle(n), t2.count))
        oracle_homs = sum(count_homs_to_f1m(
            residue_presentation(model.presentation, r.point), 2)
            for r in rank_points)
        checks.append(_check(f"sl:{n} F1^2 residue-morphism oracle",
                             oracle_homs, t2.count))

    # general linear models
    for n in (1, 2, 3):
        model = catalog.gl(n)
        fact = math.factorial(n)
        rank_points = model.rank_points()
        checks.append(_check(f"gl:{n} rank", n, rank_points[0].rank))
        checks.append(_check(f"gl:{n} Weyl order", fact, len(rank_points)))
        W = model.weyl_monoid()
        checks.append(_check(f"gl:{n} Weyl monoid is a group", True, W.is_group()))
        if n > 1:
            checks.append(_check(f"gl:{n} symmetric group isomorphism", True,
                                 symmetric_group_isomorphism(model, W)))
        t2 = model.tits_points(2)
        checks.append(_check(f"gl:{n} F1^2-points", 2 ** n * fact, t2.count))

    # symplectic and orthogonal models
    models = {"sp:4": catalog.sp(4), "so:3": catalog.so(3), "so:5": catalog.so(5),
              "so:4": catalog.so(4), "o:4": catalog.o(4)}
    for name, order in (("sp:4", 8), ("so:3", 2), ("so:5", 8), ("so:4", 4), ("o:4", 8)):
        W = models[name].weyl_monoid()
        checks.append(_check(f"{name} Weyl order", order, len(W)))
        checks.append(_check(f"{name} Weyl monoid is a group", True, W.is_group()))
    for name in ("sp:4", "so:5"):
        checks.append(_check(f"{name} rank", 2,
                             models[name].rank_points()[0].rank))

    # projective rank-one models
    conj = catalog.psl2_conj()
    checks.append(_check("psl2-conj point count", 7, len(conj.spectrum())))
    conj_poset = poset(conj.spectrum())
    sl2_poset = poset(catalog.sl(2).spectrum())
    checks.append(_check("psl2-conj poset shape matches sl:2", True,
                         _same_poset_shape(conj_poset, sl2_poset)))
    adj = catalog.psl2_adjoint()
    checks.append(_check("psl2-adj point count", 13, len(adj.spectrum())))
    for model in (conj, adj):
        pts = model.rank_points()
        checks.append(_check(f"{model.name} rank points", 2, len(pts)))
        checks.append(_check(f"{model.name} ranks", {1}, {p.rank for p in pts}))
        W = model.weyl_monoid()
        checks.append(_check(f"{model.name} Weyl order", 2, len(W)))

    # the non-standard torus
    ns = catalog.nonstandard_torus()
    checks.append(_check("nstorus point count", 2, len(ns.spectrum())))
    rank_points = ns.rank_points()
    checks.append(_check("nstorus rank space", 1, len(rank_points)))
    checks.append(_check("nstorus generic point only", True,
                         rank_points[0].point.vars == frozenset()))
    nf = rank_points[0].field
    checks.append(_check("nstorus rank space is a rank-one torus",
                         (1, 1, ()), (nf.epsilon, nf.rank, nf.torsion_invariants)))
    checks.append(_check("nstorus has no F1-morphism", 0,
                         count_homs_to_f1m(ns.presentation, 1)))

    # parabolic and unipotent models
    borel3 = catalog.standard_parabolic(3, [1, 1, 1])
    checks.append(_check("borel gl:3 Weyl order", 1, len(borel3.rank_points())))
    uni = catalog.unipotent_radical(3, [1, 1, 1])
    checks.append(_check("unipotent borel gl:3 rank space", 1,
                         len(uni.rank_points())))
    simplified = simplify_presentation(uni.presentation)
    checks.append(_check("unipotent borel gl:3 is affine 3-space",
                         mk_free(3).canonical_key(), simplified.canonical_key()))
    return checks


def _same_poset_shape(P, Q) -> bool:
    """Isomorphism of small graded posets via sorted degree signatures."""
    if len(P.points) != len(Q.points):
        return False

    def signature(R):
        n = len(R.points)
        sig = []
        for i in range(n):
            ups = sum(1 for j in range(n) if i != j and R.leq(i, j))
            downs = sum(1 for j in range(n) if i != j and R.leq(j, i))
            sig.append((ups, downs))
        return sorted(sig)

    return signature(P) == signature(Q)


# ---------------------------------------------------------------------------
# The properties suite
# ---------------------------------------------------------------------------


def _small_models() -> list[GroupModel]:
    return [
        catalog.sl(2), catalog.sl(3),
        catalog.gl(1), catalog.gl(2),
        catalog.sp(2),
        catalog.so(3), catalog.so(4), catalog.o(4),
        catalog.torus(1), catalog.torus(2),
        catalog.nonstandard_torus(),
        catalog.constant_group(GroupTable.cyclic(2)),
        catalog.semidirect(1, GroupTable.cyclic(2),
                           {"g0": [[1]], "g1": [[-1]]}),
        catalog.standard_parabolic(2, [1, 1]),
        catalog.unipotent_radical(3, [1, 1, 1]),
        catalog.levi(3, [2, 1]),
    ]


def _blue_field_catalog() -> list[tuple[str, BlueprintPresentation]]:
    f1 = mk_free(0)
    f12 = mk_free(0, coeff_order=2)
    gm = mk_free(1, inverted=[0])
    f2 = f1.with_relations([relation([f1.one()] * 2, [])])
    f3 = f1.with_relations([relation([f1.one()] * 3, [])])
    b1 = f1.with_relations([relation([f1.one()] * 2, [f1.one()])])
    sl2 = catalog.sl(2)
    pts = {p.gens: p for p in sl2.spectrum()}
    k_even = residue_presentation(sl2.presentation, pts[(1, 2)])
    k_odd = residue_presentation(sl2.presentation, pts[(0, 3)])
    return [("F1", f1), ("F1^2", f12), ("F1[T^+-1]", gm), ("F2", f2),
            ("F3", f3), ("B1", b1), ("kappa_even", k_even), ("kappa_odd", k_odd)]


def properties_checks(seed: int, samples: int) -> list[dict]:
    base_models = _small_models()
    big_models = [catalog.sl(4), catalog.sp(4), catalog.so(5),
                  catalog.psl2_conj(), catalog.psl2_adjoint()]
    rng = random.Random(seed)
    checks = []

    # the prime enumeration against the brute-force subset oracle
    for model in base_models:
        if model.presentation.width > 16 or model.spectrum_override is not None:
            continue
        fast = enumerate_primes(model.presentation)
        slow = brute_force_primes(model.presentation)
        checks.append(_check(f"enumeration oracle {model.name}",
                             [p.gens for p in slow],
                             [p.gens for p in fast]))

    # the orbit expansion of the prime search yields each point once
    for model in base_models + big_models:
        pts = model.spectrum()
        checks.append(_check(f"spectrum lists each point once {model.name}",
                             len(pts), len(set(pts))))

    # product theorems on catalog pairs with at most 12 total generators
    small = [m for m in base_models if m.spectrum_override is None]
    for a, b in itertools.combinations_with_replacement(small, 2):
        if a.presentation.width + b.presentation.width > 12:
            continue
        report = product_check(a.presentation, b.presentation)
        checks.append(_check(f"product theorem {a.name} x {b.name}",
                             (), report.violations))

    # Weyl law respects products
    for a, b in ((catalog.sl(2), catalog.sl(2)),
                 (catalog.sl(2), catalog.torus(1)),
                 (catalog.constant_group(GroupTable.cyclic(2)), catalog.torus(2))):
        prod = catalog.model_product(a, b)
        Wp = prod.weyl_monoid()
        Wa, Wb = a.weyl_monoid(), b.weyl_monoid()
        checks.append(_check(f"product Weyl law {a.name} x {b.name}",
                             True, _is_product_table(Wp, Wa, Wb,
                                                     a.presentation.width)))

    # common-characteristic pairing on the blue-field catalog
    fields = _blue_field_catalog()
    detail = []
    for (name1, B1), (name2, B2) in itertools.combinations_with_replacement(fields, 2):
        c1 = potential_characteristics(B1)
        c2 = potential_characteristics(B2)
        if c1.kind == "unknown" or c2.kind == "unknown":
            detail.append(f"{name1}/{name2}: unclassified")
            continue
        expected = 1 if class_nonempty(c1.intersect(c2)) else 0
        actual = len(enumerate_primes(tensor(B1, B2)))
        if expected != actual:
            detail.append(f"{name1}(x){name2}: expected {expected} points, "
                          f"got {actual}")
    checks.append(_check("blue-field common-characteristic pairing",
                         [], detail))

    # the twisted tensor identifying T with 1 and -1: the field with 2 elements
    f12 = mk_free(0, coeff_order=2)
    base_maps = ({0: one_monomial(0, 0)}, {0: one_monomial(0, 1)})
    twisted = tensor(f12, f12, base=base_maps)
    checks.append(_check("twisted tensor entails 1+1 == 0", "yes",
                         relation_entailed(twisted,
                                           relation([twisted.one()] * 2, []))))
    checks.append(_check("twisted tensor characteristics", "{2}",
                         potential_characteristics(twisted).label))
    checks.append(_check("twisted tensor spectrum", 1,
                         len(enumerate_primes(twisted))))

    # semiring closure and the exhaustive counts
    for model in (catalog.sl(2), catalog.sl(3)):
        for S in (NATURALS, BOOLEAN, TROPICAL):
            checks.append(semiring_closure_check(model, S, samples, rng))
    checks.append(_check("sl:2 points over the two-element field", 6,
                         hom_count(catalog.sl(2), integers_mod(2))))
    return checks


def _is_product_table(Wp: WeylMonoid, Wa: WeylMonoid, Wb: WeylMonoid,
                      left_width: int) -> bool:
    if len(Wp) != len(Wa) * len(Wb):
        return False
    index = {}
    for k, e in enumerate(Wp.elements):
        left = frozenset(g for g in e.point.vars if g < left_width)
        right = frozenset(g - left_width for g in e.point.vars if g >= left_width)
        ia = next((i for i, x in enumerate(Wa.elements) if x.point.vars == left), None)
        ib = next((i for i, x in enumerate(Wb.elements) if x.point.vars == right), None)
        if ia is None or ib is None:
            return False
        index[k] = (ia, ib)
    for i in range(len(Wp)):
        for j in range(len(Wp)):
            ia, ib = index[i]
            ja, jb = index[j]
            if index[Wp.table[i][j]] != (Wa.table[ia][ja], Wb.table[ib][jb]):
                return False
    return True


# ---------------------------------------------------------------------------
# The oracle suite
# ---------------------------------------------------------------------------


def _sampled_model(model_name: str, seed: int, samples: int):
    """The model and its oracle families, each with its sampled pattern report."""
    if model_name == "psl2-conj":
        model, families = catalog.psl2_conj(), [patterns.conjugation_family()]
    elif model_name == "psl2-adj":
        model, families = catalog.psl2_adjoint(), list(patterns.adjoint_families())
    else:
        raise ValueError(f"no oracle family for {model_name}")
    return model, [(fam, patterns.realizable_patterns(fam, samples=samples, seed=seed))
                   for fam in families]


def _comparison(model_name: str, model: GroupModel, sampled) -> dict:
    report = patterns.merge_reports(*(rep for _, rep in sampled))
    comparison = patterns.compare_with_spectrum(model, report)
    return {
        "model": model_name,
        "ok": comparison.ok,
        "matched": comparison.matched,
        "patterns": len(report.pattern_set()),
        "missing_from_patterns": [list(map(list, m))
                                  for m in comparison.missing_from_patterns],
        "extra_patterns": [list(map(list, m)) for m in comparison.extra_patterns],
        "seed": report.seed,
    }


def oracle_comparison(model_name: str, seed: int, samples: int) -> dict:
    return _comparison(model_name, *_sampled_model(model_name, seed, samples))


def oracle_checks(seed: int, samples: int) -> list[dict]:
    # each family is sampled once and feeds every check below
    runs = {name: _sampled_model(name, seed, samples) for name in ("psl2-conj", "psl2-adj")}
    checks = []
    for name, expected_points in (("psl2-conj", 7), ("psl2-adj", 13)):
        result = _comparison(name, *runs[name])
        checks.append(_check(f"oracle {name} pattern/spectrum agreement",
                             True, result["ok"]))
        checks.append(_check(f"oracle {name} pattern count",
                             expected_points, result["patterns"]))

    # characteristic-2 witnesses pick out exactly the primed adjoint points
    adj, sampled = runs["psl2-adj"]
    report = patterns.merge_reports(*(rep for _, rep in sampled))
    n = adj.dimension
    primed = {frozenset((g // n + 1, g % n + 1) for g in
                        catalog._pp(3, pos).vars)
              for name, (pos, char2) in catalog.ADJOINT_POINT_TABLE.items() if char2}
    checks.append(_check("oracle psl2-adj characteristic-2 points",
                         sorted(map(sorted, primed)),
                         sorted(map(sorted, report.char2_only_patterns()))))

    # every reported witness re-evaluates to its pattern
    all_ok = all(patterns.reevaluate_witness(fam, pattern, w)
                 for _, sampled in runs.values() for fam, rep in sampled
                 for pattern, info in rep.patterns.items() for w in info["witnesses"])
    checks.append(_check("oracle witnesses re-evaluate exactly", True, all_ok))
    return checks


def run_suite(name: str, seed: int, samples: int) -> list[dict]:
    if name == "paper-counts":
        return paper_counts_checks()
    if name == "properties":
        return properties_checks(seed=seed, samples=min(samples, 200))
    if name == "oracle":
        return oracle_checks(seed=seed, samples=samples)
    raise ValueError(f"unknown suite {name}")
