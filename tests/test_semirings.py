"""Semiring abstraction and semiring-valued matrix points."""

import random

import pytest
from hypothesis import given, strategies as st

from blueweyl import catalog
from blueweyl.semirings import (
    BOOLEAN,
    NATURALS,
    TROPICAL,
    MissingAuxiliaryValue,
    PointMatrix,
    check_semiring_axioms,
    hom_count,
    identity_matrix,
    integers_mod,
    is_point,
    multiply,
)


INF = TROPICAL.zero


def test_axioms_of_builtins_on_samples():
    assert check_semiring_axioms(NATURALS, range(4)) == []
    assert check_semiring_axioms(BOOLEAN, (0, 1)) == []
    assert check_semiring_axioms(TROPICAL, (INF, 0, 1, 3)) == []
    assert check_semiring_axioms(integers_mod(4), range(4)) == []


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
def test_naturals_distributivity_property(a, b, c):
    S = NATURALS
    assert S.mul(a, S.add(b, c)) == S.add(S.mul(a, b), S.mul(a, c))


@given(st.integers(-20, 20) | st.just(INF),
       st.integers(-20, 20) | st.just(INF),
       st.integers(-20, 20) | st.just(INF))
def test_tropical_distributivity_property(a, b, c):
    S = TROPICAL
    assert S.mul(a, S.add(b, c)) == S.add(S.mul(a, b), S.mul(a, c))


def test_identity_matrix_is_a_point():
    m = catalog.sl(2)
    assert is_point(m, identity_matrix(2, NATURALS), NATURALS)


def test_unipotent_natural_matrix_is_a_point():
    m = catalog.sl(2)
    M = PointMatrix(2, (1, 1, 0, 1))
    assert is_point(m, M, NATURALS)  # 1*1 == 1*0 + 1


def test_non_point_detected():
    m = catalog.sl(2)
    assert not is_point(m, PointMatrix(2, (1, 1, 1, 1)), NATURALS)


def test_tropical_point_example():
    m = catalog.sl(2)
    M = PointMatrix(2, (0, 5, 7, 0))
    assert is_point(m, M, TROPICAL)  # 0+0 == min(5+7, 0)
    assert not is_point(m, PointMatrix(2, (1, 5, 7, 0)), TROPICAL)


def test_boolean_all_ones_matrix():
    m = catalog.sl(2)
    # over the idempotent pair 1 + 1 == 1: 1*1 == 1*1 + 1 holds
    assert is_point(m, PointMatrix(2, (1, 1, 1, 1)), BOOLEAN)


def test_multiply_identity():
    m = catalog.sl(2)
    M = PointMatrix(2, (1, 2, 1, 3))
    assert multiply(M, identity_matrix(2, NATURALS), NATURALS) == M


def test_closure_over_random_natural_points():
    rng = random.Random(3)
    m = catalog.sl(2)
    pool = []
    for _ in range(40):
        M = identity_matrix(2, NATURALS)
        for _ in range(rng.randint(1, 4)):
            i, j = rng.sample((1, 2), 2)
            E = identity_matrix(2, NATURALS).entries
            E = list(E)
            E[(i - 1) * 2 + (j - 1)] = rng.randint(0, 4)
            M = multiply(M, PointMatrix(2, tuple(E)), NATURALS)
        assert is_point(m, M, NATURALS)
        pool.append(M)
    for _ in range(200):
        M, N = rng.choice(pool), rng.choice(pool)
        assert is_point(m, multiply(M, N, NATURALS), NATURALS)


def test_integer_points_match_determinant_condition():
    """Over a ring, the relation is the classical determinant-one condition."""
    m = catalog.sl(2)
    ring = integers_mod(11)  # large enough to separate small integer cases
    rng = random.Random(5)
    for _ in range(80):
        entries = tuple(rng.randint(0, 10) for _ in range(4))
        M = PointMatrix(2, entries)
        a, b, c, d = entries
        assert is_point(m, M, ring) == ((a * d - b * c) % 11 == 1 % 11)


def test_gl_point_requires_auxiliary_value():
    m = catalog.gl(1)
    M = PointMatrix(1, (3,))
    with pytest.raises(MissingAuxiliaryValue):
        is_point(m, M, NATURALS)
    assert not is_point(m, M, NATURALS, {"d": 2})
    assert is_point(m, M, NATURALS, {"d": 0}) is False
    assert is_point(m, PointMatrix(1, (1,)), NATURALS, {"d": 1})


def test_closure_over_modular_points():
    rng = random.Random(11)
    m = catalog.sl(2)
    ring = integers_mod(5)
    pool = [PointMatrix(2, e) for e in
            ((1, 0, 0, 1), (1, 2, 0, 1), (2, 0, 0, 3), (0, 1, 4, 0), (3, 1, 2, 1))]
    assert all(is_point(m, M, ring) for M in pool)
    for _ in range(60):
        M, N = rng.choice(pool), rng.choice(pool)
        assert is_point(m, multiply(M, N, ring), ring)


def test_hom_count_sl2_over_f2():
    assert hom_count(catalog.sl(2), integers_mod(2)) == 6


def test_hom_count_sl2_over_boolean():
    # frozen by the 2^4 scan: a11 = a22 = 1, off-diagonal free
    assert hom_count(catalog.sl(2), BOOLEAN) == 4


def test_hom_count_gl1_over_f2():
    assert hom_count(catalog.gl(1), integers_mod(2)) == 1


def test_hom_count_refuses_large_enumeration():
    with pytest.raises(ValueError):
        hom_count(catalog.sl(2), integers_mod(2), bound=5)
    with pytest.raises(ValueError):
        hom_count(catalog.sl(2), TROPICAL)


def test_hom_count_refuses_a_model_given_by_its_points():
    # psl2-adj has no relations to evaluate, so every matrix would count
    with pytest.raises(ValueError, match="psl2-adj"):
        hom_count(catalog.psl2_adjoint(), BOOLEAN)
