"""Expression parsing and the zero-pattern sampling oracle."""

import hashlib
import json
from fractions import Fraction

import pytest

from blueweyl import catalog
from blueweyl.patterns import (
    EvaluationError,
    FamilySyntaxError,
    SampleField,
    adjoint_families,
    compare_with_spectrum,
    conjugation_family,
    evaluate,
    fields_for_characteristics,
    merge_reports,
    parse_constraint,
    parse_expression,
    parse_family,
    realizable_patterns,
    reevaluate_witness,
    render_expression,
)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_simple_constraint():
    c = parse_constraint("a*d - b*c = 1")
    assert c.equality
    values = {"a": Fraction(2), "b": Fraction(1), "c": Fraction(1),
              "d": Fraction(1)}
    assert c.satisfied(values, SampleField(0))


def test_parse_inequation():
    c = parse_constraint("lambda != 0")
    assert not c.equality
    assert c.satisfied({"lambda": Fraction(3)}, SampleField(0))
    assert not c.satisfied({"lambda": Fraction(0)}, SampleField(0))


def test_parse_negative_power_entry():
    e = parse_expression("-(lambda^-2*t^2)")
    value = evaluate(e, {"lambda": Fraction(2), "t": Fraction(3)}, SampleField(0))
    assert value == Fraction(-9, 4)


def test_parse_errors_carry_position():
    with pytest.raises(FamilySyntaxError):
        parse_expression("a + + b")
    with pytest.raises(FamilySyntaxError):
        parse_expression("(a")
    with pytest.raises(FamilySyntaxError):
        parse_family("params: a\nmystery: 3")


def test_family_rejects_undeclared_parameters():
    with pytest.raises(FamilySyntaxError):
        parse_family("params: a\nmatrix: [a, b]")


def test_families_round_trip_through_parser():
    fam = conjugation_family()
    assert fam.params == ("a", "b", "c", "d")
    assert fam.shape == (4, 4)
    assert len(fam.loci) == 6
    for row in fam.matrix:
        for entry in row:
            assert render_expression(entry)
    cell_b, cell_bwb = adjoint_families()
    assert cell_b.shape == (3, 3) and cell_bwb.shape == (3, 3)
    assert cell_bwb.params == ("lambda", "s", "t")


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
    F = next(F for F in fields_for_characteristics((2, 3, 5)) if F.tag == tag)
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


def test_fields_for_characteristics():
    tags = [F.tag for F in fields_for_characteristics((0, 2, 3, 5))]
    assert tags == ["Q", "F2", "F4", "F3", "F5"]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_conjugation_patterns_match_spectrum():
    report = realizable_patterns(conjugation_family(), samples=300)
    comparison = compare_with_spectrum(catalog.psl2_conj(), report)
    assert comparison.ok
    assert comparison.matched == 7


def test_adjoint_patterns_match_spectrum():
    cell_b, cell_bwb = adjoint_families()
    report = merge_reports(realizable_patterns(cell_b, samples=300),
                           realizable_patterns(cell_bwb, samples=300))
    comparison = compare_with_spectrum(catalog.psl2_adjoint(), report)
    assert comparison.ok
    assert comparison.matched == 13


def test_char2_only_patterns_are_the_primed_points():
    cell_b, cell_bwb = adjoint_families()
    report = merge_reports(realizable_patterns(cell_b, samples=300),
                           realizable_patterns(cell_bwb, samples=300))
    primed = {frozenset((g[0], g[1]) for g in pos)
              for name, (pos, char2) in catalog.ADJOINT_POINT_TABLE.items()
              if char2}
    assert report.char2_only_patterns() == primed


def test_no_char2_witness_for_midpoint_locus():
    # 2*s*t = lambda^2 has no solution with lambda != 0 in characteristic 2
    _, cell_bwb = adjoint_families()
    report = realizable_patterns(cell_bwb, characteristics=(2,), samples=60)
    assert any("2st=l2" in w for w in report.warnings)


def test_witnesses_reevaluate():
    fam = conjugation_family()
    report = realizable_patterns(fam, samples=200)
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
    report = realizable_patterns(fam, samples=60)
    data = report.to_json()
    assert data["family"] == "psl2-conj"
    assert data["seed"] == report.seed
    assert all("witnesses" in p for p in data["patterns"])


def test_deterministic_reports():
    fam = conjugation_family()
    r1 = realizable_patterns(fam, samples=100, seed=42)
    r2 = realizable_patterns(fam, samples=100, seed=42)
    assert r1.to_json() == r2.to_json()


# SHA-256 of the sorted-key JSON of each family's report at samples=300
PINNED_REPORTS = {
    ("psl2-conj", 20259): "a4c261af6c1b7367b31620a2f54c2fd4dcf2c9dab923eee35780df70431aa97c",
    ("psl2-adj-B", 20259): "c05a7fbc102aa52e9b4484efa50f0a57a69b4cbdf026491e65fc040ad418f40e",
    ("psl2-adj-BwB", 20259): "d3e21a2f7b8df9e1160f03cb72273f0d12bf3e2a5ac3e8fbe39335a2de6365be",
    ("psl2-conj", 1): "7dbec79599793595dcae332324b2ce0b122e9f6fd5835bef81d189063b3baede",
    ("psl2-adj-B", 1): "875f815acb5714e729592d6e82c9a2a0002a9d214753c0423c0f9ea0ca92a3f4",
    ("psl2-adj-BwB", 1): "1979af090506d18bfa8149a78cf883aa4f7c8182dd9737d5705bcd1508821278",
}


@pytest.mark.parametrize("seed", [20259, 1])
def test_reports_are_pinned(seed):
    for fam in (conjugation_family(), *adjoint_families()):
        report = realizable_patterns(fam, samples=300, seed=seed)
        text = json.dumps(report.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[fam.name, seed]
