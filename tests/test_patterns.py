"""Expression trees, the built-in families and the zero-pattern sampling oracle."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from blueweyl import catalog
from blueweyl.patterns import (
    Constraint,
    EvaluationError,
    SAMPLE_FIELDS,
    ParamFamily,
    SampleField,
    adjoint_families,
    compare_with_spectrum,
    compile_family,
    conjugation_family,
    evaluate,
    merge_reports,
    realizable_patterns,
    reevaluate_witness,
)
from blueweyl.patterns import _affine_root, _eq, _family, _ne, _randbelow, _shuffled, _vars


# ---------------------------------------------------------------------------
# expression trees and families
# ---------------------------------------------------------------------------


def test_parse_negative_power_entry():
    lam, t = _vars("lambda t")
    e = -(lam ** -2 * t ** 2)
    value = evaluate(e.tree, {"lambda": Fraction(2), "t": Fraction(3)}, SampleField(0))
    assert value == Fraction(-9, 4)
    # each operator is one node, numbers on either side included
    x = ("var", "lambda")
    assert (1 - lam / 2 * 3 + -lam ** 2).tree == (
        "add", ("sub", ("num", 1), ("mul", ("div", x, ("num", 2)), ("num", 3))),
        ("neg", ("pow", x, 2)))
    assert (2 / lam + 1).tree == ("add", ("div", ("num", 2), x), ("num", 1))
    assert _ne(lam * t, 1) == Constraint(("sub", ("mul", x, ("var", "t")), ("num", 1)), False)


def test_family_rejects_undeclared_parameters():
    a, b = _vars("a b")
    for params, constraints, rows, loci in [
            ([a], [], [[a, b]], {}),
            ([a], [_eq(b, 1)], [[a]], {}),
            ([a], [_ne(a, 0)], [[a]], {"b=0": [_eq(a, 1), _eq(b, 0)]}),
            ([a, a], [], [[a]], {}),
            ([a, b, a], [], [[a, b]], {})]:
        with pytest.raises(ValueError):
            _family("bad", params, constraints, rows, loci)


# SHA-256 of the repr of each built-in family's name, parameters, (tree,
# equality) per constraint, matrix and loci in order, as the family-text
# parser built them
FAMILIES_DIGEST = "dce91e940e9eff8f8de5b260212f2123f14f9549df25bba6c2aa8f32f9be2eed"


def test_families_round_trip_through_parser():
    fam = conjugation_family()
    assert fam.params == ("a", "b", "c", "d")
    assert fam.shape == (4, 4)
    assert len(fam.loci) == 6
    cell_b, cell_bwb = adjoint_families()
    assert cell_b.shape == (3, 3) and cell_bwb.shape == (3, 3)
    assert cell_bwb.params == ("lambda", "s", "t")
    (det,), (unit,) = fam.constraints, cell_b.constraints
    Q = SampleField(0)
    assert det.equality and not evaluate(det.expr, dict(zip("abcd", map(Fraction, (2, 1, 1, 1)))), Q)
    assert not unit.equality and evaluate(unit.expr, {"lambda": Fraction(3), "t": Fraction(0)}, Q)

    def constraints(cs):
        return [(c.expr, c.equality) for c in cs]

    fields = [(f.name, f.params, constraints(f.constraints), f.matrix,
               [(locus, constraints(cs)) for locus, cs in f.loci.items()])
              for f in (fam, cell_b, cell_bwb)]
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == FAMILIES_DIGEST


# ---------------------------------------------------------------------------
# exact field arithmetic
# ---------------------------------------------------------------------------


def test_prime_field_division():
    F = SampleField(5, 5)
    assert F.div(3, 2) == 4  # 2 * 4 == 3 mod 5
    assert F.power(2, -1) == 3


def test_gf4_arithmetic():
    F = SampleField(2, 4)
    # the two generators of the multiplicative group are inverse to each other
    assert F.mul(2, 3) == 1
    assert F.add(2, 3) == 1
    assert F.mul(2, 2) == 3
    assert F.power(2, 3) == 1
    assert F.div(1, 2) == 3


def _f4_product(x, y):
    # F4 = F2[w]/(w^2 + w + 1); the int a + 2*b stands for a + b*w
    a0, a1, b0, b1 = x & 1, x >> 1, y & 1, y >> 1
    # (a0 + a1 w)(b0 + b1 w) = a0 b0 + (a0 b1 + a1 b0) w + a1 b1 (w + 1)
    return ((a0 * b0 + a1 * b1) % 2) + 2 * ((a0 * b1 + a1 * b0 + a1 * b1) % 2)


# field tag -> (size, addition, negation, multiplication) on the field's ints
_REFERENCE_FIELDS = {
    "F2": (2, lambda x, y: (x + y) % 2, lambda x: x, lambda x, y: x * y % 2),
    "F3": (3, lambda x, y: (x + y) % 3, lambda x: -x % 3, lambda x, y: x * y % 3),
    "F5": (5, lambda x, y: (x + y) % 5, lambda x: -x % 5, lambda x, y: x * y % 5),
    "F4": (4, lambda x, y: x ^ y, lambda x: x, _f4_product),
}


@pytest.mark.parametrize("tag", sorted(_REFERENCE_FIELDS))
def test_finite_field_arithmetic_matches_reference_tables(tag):
    size, plus, minus, times = _REFERENCE_FIELDS[tag]
    F = next(F for F in SAMPLE_FIELDS if F.tag == tag)
    elements = range(size)
    inverse = {x: next(y for y in elements if times(x, y) == 1) for x in elements if x}
    for x in elements:
        for y in elements:
            assert F.add(x, y) == plus(x, y)
            assert F.sub(x, y) == plus(x, minus(y))
            assert F.mul(x, y) == times(x, y)
            if y:
                assert F.div(x, y) == times(x, inverse[y])
            else:
                with pytest.raises(EvaluationError):
                    F.div(x, y)
        for n in range(-3, 7):
            if n < 0 and not x:
                with pytest.raises(EvaluationError):
                    F.power(x, n)
                continue
            expected = 1
            for _ in range(abs(n)):
                expected = times(expected, x if n >= 0 else inverse[x])
            assert F.power(x, n) == expected
    for n in range(-7, 8):
        assert F.from_int(n) == n % (2 if size == 4 else size)


def test_sample_fields_are_pinned_in_report_order():
    assert [F.tag for F in SAMPLE_FIELDS] == ["Q", "F2", "F4", "F3", "F5"]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_conjugation_patterns_match_spectrum():
    report = realizable_patterns(conjugation_family(), samples=300, seed=20259)
    comparison = compare_with_spectrum(catalog.psl2_conj(), report)
    assert comparison.ok
    assert comparison.matched == 7


def test_adjoint_patterns_match_spectrum():
    cell_b, cell_bwb = adjoint_families()
    report = merge_reports(realizable_patterns(cell_b, samples=300, seed=20259),
                           realizable_patterns(cell_bwb, samples=300, seed=20259))
    comparison = compare_with_spectrum(catalog.psl2_adjoint(), report)
    assert comparison.ok
    assert comparison.matched == 13


def test_char2_only_patterns_are_the_primed_points():
    cell_b, cell_bwb = adjoint_families()
    report = merge_reports(realizable_patterns(cell_b, samples=300, seed=20259),
                           realizable_patterns(cell_bwb, samples=300, seed=20259))
    primed = {frozenset((g[0], g[1]) for g in pos)
              for name, (pos, char2) in catalog.ADJOINT_POINT_TABLE.items()
              if char2}
    assert report.char2_only_patterns() == primed


def test_no_char2_witness_for_midpoint_locus():
    # 2*s*t = lambda^2 has no solution with lambda != 0 in characteristic 2
    _, cell_bwb = adjoint_families()
    report = realizable_patterns(cell_bwb, samples=60, seed=20259)
    assert any(w.startswith("F2/2st=l2:") for w in report.warnings)


def test_witnesses_reevaluate():
    fam = conjugation_family()
    report = realizable_patterns(fam, samples=200, seed=20259)
    assert report.patterns
    for pattern, info in report.patterns.items():
        for witness in info["witnesses"]:
            assert reevaluate_witness(fam, pattern, witness)


def test_patterns_monotone_in_samples():
    fam = conjugation_family()
    small = realizable_patterns(fam, samples=40, seed=11)
    large = realizable_patterns(fam, samples=400, seed=11)
    assert small.pattern_set() <= large.pattern_set()


def test_patterns_monotone_in_loci():
    fam = conjugation_family()
    from blueweyl.patterns import ParamFamily

    stripped = ParamFamily(fam.params, fam.constraints, fam.matrix, {},
                           fam.name)
    fewer = realizable_patterns(stripped, samples=200, seed=3)
    more = realizable_patterns(fam, samples=200, seed=3)
    assert fewer.pattern_set() <= more.pattern_set()


def test_report_json_shape():
    fam = conjugation_family()
    report = realizable_patterns(fam, samples=60, seed=20259)
    data = report.to_json()
    assert data["family"] == "psl2-conj"
    assert data["seed"] == report.seed
    assert all("witnesses" in p for p in data["patterns"])


def test_deterministic_reports():
    fam = conjugation_family()
    r1 = realizable_patterns(fam, samples=100, seed=42)
    r2 = realizable_patterns(fam, samples=100, seed=42)
    assert r1.to_json() == r2.to_json()


# SHA-256 of the sorted-key JSON of each family's report at the given seed and
# sample count; 2,000 samples is the CLI default
PINNED_REPORTS = {
    ("psl2-conj", 20259, 300): "a4c261af6c1b7367b31620a2f54c2fd4dcf2c9dab923eee35780df70431aa97c",
    ("psl2-adj-B", 20259, 300): "c05a7fbc102aa52e9b4484efa50f0a57a69b4cbdf026491e65fc040ad418f40e",
    ("psl2-adj-BwB", 20259, 300): "d3e21a2f7b8df9e1160f03cb72273f0d12bf3e2a5ac3e8fbe39335a2de6365be",
    ("psl2-conj", 1, 300): "7dbec79599793595dcae332324b2ce0b122e9f6fd5835bef81d189063b3baede",
    ("psl2-adj-B", 1, 300): "875f815acb5714e729592d6e82c9a2a0002a9d214753c0423c0f9ea0ca92a3f4",
    ("psl2-adj-BwB", 1, 300): "1979af090506d18bfa8149a78cf883aa4f7c8182dd9737d5705bcd1508821278",
    ("psl2-conj", 1, 2000): "8169461b62698909432492431e1fb4a3294805983de55273047d2030f4a324c4",
    ("psl2-adj-B", 1, 2000): "8a74aaaaec4c9e94bd861e7e3d03797f284d1e18d189f2c63cb9781536c36b46",
    ("psl2-adj-BwB", 1, 2000): "0b20e14c96f09be4e1bfd8c9b0395316e259ba4b2cce580c33ae1187a58fa8c8",
    ("psl2-conj", 7, 2000): "8d911053578a853a04ee6de7faa49bace5fa1f8d6ac8fb95db3968a1a8d8b2b2",
    ("psl2-adj-B", 7, 2000): "3e9da41d95193571343736d96b93335263d676e557b1f99d55cfc84cef476b56",
    ("psl2-adj-BwB", 7, 2000): "f4c1c49ed50d924edb55ccfb8c60e31fa036389cb7041819f72b4ba384ad7292",
}


def test_sampler_draws_match_random_draw_for_draw():
    """Each draw the sampler makes through ``_randbelow`` and ``_shuffled``
    equals the ``random.Random`` call it stands for, interleaved on one
    seeded stream, so the reports pinned below do not move."""
    sizes = [F.size for F in SAMPLE_FIELDS if F.characteristic]
    assert sorted(sizes) == [2, 3, 4, 5]
    for seed in (0, 1, 7, 20259, 2**32 - 1, 2**40 + 3):
        ours, theirs = random.Random(seed), random.Random(seed)
        randbelow = _randbelow(ours)
        for _ in range(200):
            for size in sizes:
                assert randbelow(size) == theirs.randrange(size)
            assert randbelow(19) - 9 == theirs.randint(-9, 9)
            assert randbelow(5) + 1 == theirs.randint(1, 5)
            for n in range(7):
                order = list(range(n))
                theirs.shuffle(order)
                assert _shuffled(n, randbelow) == order
        assert ours.getstate() == theirs.getstate()


def test_affine_root_over_q_is_the_fraction_in_lowest_terms():
    """The repaired value over Q is the pair ``Fraction`` normalises to:
    lowest terms, positive denominator, (0, 1) for zero."""
    Q = next(F for F in SAMPLE_FIELDS if not F.characteristic)
    rng = random.Random(12)
    roots = 0
    for _ in range(2000):
        e0, e1 = [(rng.randint(-6, 6), rng.choice((-4, -3, -2, -1, 1, 2, 3, 6))) for _ in range(2)]
        f0, slope = Fraction(*e0), Fraction(*e1) - Fraction(*e0)
        e2 = f0 + 2 * slope + (rng.random() < 0.2)
        root = _affine_root(Q, e0, e1, (e2.numerator, e2.denominator))
        if not slope or e2 != f0 + 2 * slope:
            assert root is None
        else:
            expected = -f0 / slope
            assert root == (expected.numerator, expected.denominator)
            roots += 1
    assert roots > 500


@pytest.mark.parametrize("seed, samples", [(20259, 300), (1, 300), (1, 2000), (7, 2000)],
                         ids=["20259", "1", "1-2000", "7-2000"])
def test_reports_are_pinned(seed, samples):
    for fam in (conjugation_family(), *adjoint_families()):
        report = realizable_patterns(fam, samples=samples, seed=seed)
        text = json.dumps(report.to_json(), sort_keys=True)
        key = (fam.name, seed, samples)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[key]


# ---------------------------------------------------------------------------
# compiled straight-line code against the reference evaluator
# ---------------------------------------------------------------------------


_PARAMS = ("x", "y", "z")


def _random_tree(rng, depth, pool):
    """A random expression; pool holds earlier subtrees, reused as shared terms."""
    if pool and rng.random() < 0.25:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.2:
        tree = (("num", rng.randrange(4)) if rng.random() < 0.3
                else ("var", rng.choice(_PARAMS)))
    else:
        kind = rng.choice(["add", "sub", "mul", "div", "neg", "pow"])
        if kind == "neg":
            tree = ("neg", _random_tree(rng, depth - 1, pool))
        elif kind == "pow":
            tree = ("pow", _random_tree(rng, depth - 1, pool), rng.randint(-3, 4))
        else:
            tree = (kind, _random_tree(rng, depth - 1, pool),
                    _random_tree(rng, depth - 1, pool))
    pool.append(tree)
    return tree


def _reference(expr, values, F):
    try:
        return evaluate(expr, values, F)
    except EvaluationError:
        return EvaluationError


def _compiled_value(function, values):
    try:
        return function(values)
    except EvaluationError:
        return EvaluationError


def test_compiled_code_matches_the_reference_evaluator():
    rng = random.Random(15)
    kinds, raised = set(), 0
    for _ in range(150):
        pool = []
        trees = [_random_tree(rng, 4, pool) for _ in range(3)]
        kinds.update(t[0] for t in pool)
        family = ParamFamily(_PARAMS, (Constraint(trees[0], True),),
                             ((trees[1], trees[2]), (trees[0], ("num", 0))), {}, "random")
        entries = [e for row in family.matrix for e in row]
        for F in SAMPLE_FIELDS:
            code = compile_family(family, F)
            for _ in range(4):
                if F.characteristic:
                    point = [rng.randrange(F.size) for _ in _PARAMS]
                    values = dict(zip(_PARAMS, point))
                else:
                    point = [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in _PARAMS]
                    values = {p: Fraction(*v) for p, v in zip(_PARAMS, point)}
                expected = _reference(trees[0], values, F)
                got = _compiled_value(code.constraints[family.constraints[0]], point)
                if got is not EvaluationError and not F.characteristic:
                    got = Fraction(*got)
                assert got == expected, (trees[0], F.tag, point)
                raised += expected is EvaluationError
                expected = [_reference(e, values, F) for e in entries]
                got = _compiled_value(code.matrix, point)
                if EvaluationError in expected:
                    assert got is EvaluationError
                else:
                    assert [not e for e in got] == [not e for e in expected]
    assert kinds == {"num", "var", "add", "sub", "mul", "div", "neg", "pow"}
    assert raised > 50


def test_compiled_power_is_one_operation():
    (x,) = params = _vars("a")
    family = _family("power", params, [_eq(x ** -100000, 1)], [[x ** 100000]], {})
    for F in SAMPLE_FIELDS:
        code = compile_family(family, F)
        assert len(code.source) < 400, F.tag
        if not F.characteristic:
            continue
        for a in range(F.size):
            entry = family.matrix[0][0]
            assert (not code.matrix([a])[0]) == (not evaluate(entry, {"a": a}, F))
            expected = _reference(family.constraints[0].expr, {"a": a}, F)
            assert _compiled_value(code.constraints[family.constraints[0]], [a]) == expected


def test_compiled_source_holds_no_family_text():
    (e,) = params = _vars("evil_name")
    family = _family("evil_family", params, [_ne(e, 0)], [[e ** 2]],
                     {"evil_locus": [_eq(e, 1)]})
    for F in SAMPLE_FIELDS:
        assert "evil" not in compile_family(family, F).source
