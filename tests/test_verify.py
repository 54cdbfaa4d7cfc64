"""The verification suites themselves and their independent oracles."""

import pytest

from blueweyl import catalog, verify


def test_properties_suite_passes():
    checks = verify.properties_checks(seed=20259, samples=20)
    failed = [c for c in checks if not c["pass"]]
    assert len(checks) == 128 and not failed, failed


def test_compose_and_inverse_helpers():
    sigma = (1, 2, 0)
    assert verify.compose(verify.inverse_perm(sigma), sigma) == (0, 1, 2)
    assert verify.compose(sigma, verify.inverse_perm(sigma)) == (0, 1, 2)


def test_sign_vector_oracle_small_values():
    # n = 1: the trivial permutation with t = +1 only
    assert verify.extended_weyl_sign_oracle(1) == 1
    assert verify.extended_weyl_sign_oracle(2) == 4
    assert verify.extended_weyl_sign_oracle(3) == 24


def test_count_homs_matches_lattice_counts_on_nonstandard_torus():
    model = catalog.nonstandard_torus()
    assert verify.count_homs_to_f1m(model.presentation, 1) == 0
    # over the quadratic extension S can only be 1 + 1, still not a root
    assert verify.count_homs_to_f1m(model.presentation, 2) == 0


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        verify.run_suite("nope", seed=20259, samples=2000)


def test_oracle_suite_passes():
    checks = verify.oracle_checks(seed=20259, samples=250)
    failed = [c for c in checks if not c["pass"]]
    assert not failed, failed
