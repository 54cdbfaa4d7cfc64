"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every expected value here is pinned: exact combinatorial counts, explicit
point lists, and the independently computed oracles from the verify module.
Timing bounds are enforced on cold computations: no module-level cache
carries work from one test to the next.
"""

import itertools
import random
import time


from blueweyl import catalog, verify
from blueweyl.blueprint import (
    mk_free,
    one_monomial,
    potential_characteristics,
    relation,
    relation_entailed,
    simplify_presentation,
    tensor,
)
from blueweyl.spectrum import (
    brute_force_primes,
    enumerate_primes,
    poset,
)
from blueweyl.semirings import BOOLEAN, NATURALS, TROPICAL, hom_count, integers_mod
from blueweyl.verify import (
    class_nonempty,
    count_homs_to_f1m,
    extended_weyl_sign_oracle,
    semiring_closure_check,
    symmetric_group_isomorphism,
)
from blueweyl.weyl import product_check


def _report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_criterion_1_sl2_spectrum_and_order():
    model = catalog.sl(2)
    start = time.perf_counter()
    pts = enumerate_primes(model.presentation)
    elapsed = time.perf_counter() - start
    B = model.presentation
    named = sorted(tuple(B.name_of(g) for g in sorted(p.vars)) for p in pts)
    expected = sorted([(), ("T1",), ("T2",), ("T3",), ("T4",),
                       ("T1", "T4"), ("T2", "T3")])
    P = poset(pts)
    hasse = {(tuple(B.name_of(g) for g in sorted(P.points[i].vars)),
              tuple(B.name_of(g) for g in sorted(P.points[j].vars)))
             for i, j in P.hasse_edges()}
    expected_hasse = {((), ("T1",)), ((), ("T2",)), ((), ("T3",)), ((), ("T4",)),
                      (("T1",), ("T1", "T4")), (("T4",), ("T1", "T4")),
                      (("T2",), ("T2", "T3")), (("T3",), ("T2", "T3"))}
    ok = named == expected and hasse == expected_hasse and elapsed < 0.1
    _report(1, ok, f"7 named points with the figure order in {elapsed * 1000:.1f} ms")


def test_criterion_2_sl_n_rank_data():
    results = []
    for n in (2, 3, 4):
        start = time.perf_counter()
        model = catalog.sl(n)
        pts = model.rank_points()
        elapsed = time.perf_counter() - start
        perms_ok = all(catalog.perm_of_pattern(model, p.point) is not None
                       for p in pts)
        parity_ok = all(
            p.epsilon == (1 if catalog._perm_sign(
                catalog.perm_of_pattern(model, p.point)) == 1 else 2)
            for p in pts)
        results.append((n, len(pts) == _factorial(n),
                        all(p.rank == n - 1 for p in pts),
                        perms_ok and parity_ok,
                        elapsed < 10 if n == 4 else True, elapsed))
    ok = all(all(r[1:5]) for r in results)
    timing = ", ".join(f"n={r[0]}: {r[5]:.1f}s" for r in results)
    _report(2, ok, f"n! monomial points, rank n-1, sign parity ({timing})")


def test_criterion_3_weyl_groups_are_symmetric():
    ok = True
    for n in (2, 3, 4):
        model = catalog.sl(n)
        W = model.weyl_monoid()
        ok = ok and len(W) == _factorial(n) and W.is_group()
        ok = ok and symmetric_group_isomorphism(model, W)
    _report(3, ok, "explicit isomorphisms onto the symmetric groups, n <= 4")


def test_criterion_4_f1_points_alternating():
    ok = True
    for n in (2, 3, 4):
        t1 = catalog.sl(n).tits_points(1)
        ok = ok and t1.count == _factorial(n) // 2
        ok = ok and t1.monoid is not None and t1.monoid.is_group()
    _report(4, ok, "F1-points count n!/2 and close under the law")


def test_criterion_5_f12_points_extended_counts():
    ok = True
    details = []
    for n in (2, 3, 4):
        t2 = catalog.sl(n).tits_points(2)
        expected = 2 ** (n - 1) * _factorial(n)
        oracle = extended_weyl_sign_oracle(n)
        details.append(f"n={n}: {t2.count}")
        ok = ok and t2.count == expected == oracle
    _report(5, ok, "F1^2-points 2^(n-1) n! with sign-vector oracle agreement "
            f"({', '.join(details)})")


def test_criterion_6_invertible_models():
    ok = True
    for n in (1, 2, 3):
        model = catalog.gl(n)
        pts = model.rank_points()
        W = model.weyl_monoid()
        t2 = model.tits_points(2)
        ok = ok and pts[0].rank == n
        ok = ok and len(W) == _factorial(n) and W.is_group()
        ok = ok and t2.count == 2 ** n * _factorial(n)
    _report(6, ok, "rank n, Weyl order n!, extended order 2^n n! for n <= 3")


def test_criterion_7_symplectic_and_orthogonal_orders():
    expected = {"sp:4": 8, "so:3": 2, "so:5": 8, "so:4": 4, "o:4": 8}
    actual = {}
    for name, make in (("sp:4", lambda: catalog.sp(4)),
                       ("so:3", lambda: catalog.so(3)),
                       ("so:5", lambda: catalog.so(5)),
                       ("so:4", lambda: catalog.so(4)),
                       ("o:4", lambda: catalog.o(4))):
        model = make()
        W = model.weyl_monoid()  # raises if the selected points do not close
        actual[name] = len(W)
        assert W.is_group(), name
    ok = actual == expected
    _report(7, ok, f"hyperoctahedral/demihyperoctahedral orders {actual}")


def test_criterion_8_projective_rank_one_models():
    conj = catalog.psl2_conj()
    adj = catalog.psl2_adjoint()
    sl2_shape = poset(catalog.sl(2).spectrum())
    conj_shape = poset(conj.spectrum())
    ok = len(conj.spectrum()) == 7
    ok = ok and verify._same_poset_shape(conj_shape, sl2_shape)
    ok = ok and len(adj.spectrum()) == 13
    for model in (conj, adj):
        pts = model.rank_points()
        ok = ok and len(pts) == 2 and all(p.rank == 1 for p in pts)
    conj_oracle = verify.oracle_comparison("psl2-conj", seed=20259, samples=300)
    adj_oracle = verify.oracle_comparison("psl2-adj", seed=20259, samples=300)
    ok = ok and conj_oracle["ok"] and adj_oracle["ok"]
    _report(8, ok, "7- and 13-point spectra, oracle agreement, "
            "two rank-one points each")


def test_criterion_9_nonstandard_torus():
    model = catalog.nonstandard_torus()
    pts = model.spectrum()
    rank_points = model.rank_points()
    nf = rank_points[0].field if rank_points else None
    ok = len(pts) == 2
    ok = ok and len(rank_points) == 1
    ok = ok and rank_points[0].point.vars == frozenset()
    ok = ok and nf is not None and (nf.epsilon, nf.rank) == (1, 1) \
        and not nf.torsion_invariants
    ok = ok and count_homs_to_f1m(model.presentation, 1) == 0
    _report(9, ok, "two points, generic rank space = rank-one torus, "
            "no morphism to F1 from the presentation")


def test_criterion_10_product_theorems_and_common_characteristics():
    small = [m for m in verify._small_models() if m.spectrum_override is None]
    violations = []
    pairs = 0
    for a, b in itertools.combinations_with_replacement(small, 2):
        if a.presentation.width + b.presentation.width > 12:
            continue
        pairs += 1
        report = product_check(a.presentation, b.presentation)
        violations.extend(f"{a.name} x {b.name}: {v}" for v in report.violations)

    fields = verify._blue_field_catalog()
    for (n1, B1), (n2, B2) in itertools.combinations_with_replacement(fields, 2):
        c1, c2 = potential_characteristics(B1), potential_characteristics(B2)
        if "unknown" in (c1.kind, c2.kind):
            violations.append(f"{n1}/{n2} unclassified")
            continue
        expected = 1 if class_nonempty(c1.intersect(c2)) else 0
        if len(enumerate_primes(tensor(B1, B2))) != expected:
            violations.append(f"{n1} (x) {n2} pairing mismatch")

    f12 = mk_free(0, coeff_order=2)
    twisted = tensor(f12, f12, base=({0: one_monomial(0, 0)},
                                     {0: one_monomial(0, 1)}))
    if relation_entailed(twisted, relation([twisted.one()] * 2, [])) != "yes":
        violations.append("twisted tensor does not entail 1+1 == 0")
    if potential_characteristics(twisted).label != "{2}":
        violations.append("twisted tensor characteristics wrong")
    if len(enumerate_primes(twisted)) != 1:
        violations.append("twisted tensor spectrum wrong")
    _report(10, not violations,
            f"{pairs} product pairs, blue-field pairing, and the twisted "
            f"tensor collapse to the two-element field"
            + (f"; violations: {violations}" if violations else ""))


def test_criterion_11_property_suites():
    violations = []
    for model in verify._small_models() + [catalog.sl(4)]:
        if model.presentation.width > 16 or model.spectrum_override is not None:
            continue
        fast = [p.vars for p in enumerate_primes(model.presentation)]
        slow = [p.vars for p in brute_force_primes(model.presentation)]
        if fast != slow:
            violations.append(f"enumeration oracle {model.name}")
    # the orbit expansion of the prime search lists each point once
    for model in verify._small_models() + [catalog.sl(4), catalog.sp(4),
                                           catalog.so(5), catalog.psl2_conj(),
                                           catalog.psl2_adjoint()]:
        points = model.spectrum()
        if len(points) != len(set(points)):
            violations.append(f"spectrum lists each point once {model.name}")
    rng = random.Random(20259)
    for model in (catalog.sl(2), catalog.sl(3)):
        for S in (NATURALS, BOOLEAN, TROPICAL):
            check = semiring_closure_check(model, S, 200, rng)
            if not check["pass"]:
                violations.append(check["name"])
    if hom_count(catalog.sl(2), integers_mod(2)) != 6:
        violations.append("two-element field count")
    _report(11, not violations,
            "enumeration oracle, each spectrum point listed once, 200-pair semiring closure, "
            "6 points over the two-element field"
            + (f"; violations: {violations}" if violations else ""))


def test_criterion_12_unipotent_radical_of_the_borel():
    model = catalog.unipotent_radical(3, [1, 1, 1])
    pts = model.rank_points()
    simplified = simplify_presentation(model.presentation)
    ok = len(pts) == 1 and pts[0].rank == 0
    ok = ok and simplified.canonical_key() == mk_free(3).canonical_key()
    _report(12, ok, "a single pseudo-Hopf point and the free presentation "
            "on three generators")
