import pytest

from saska.group import PARAM_SETS


def naive_mod_exp(base: int, exponent: int, modulus: int) -> int:
    """Independent O(exponent) oracle: repeated multiplication."""
    result = 1 % modulus
    for _ in range(exponent):
        result = (result * base) % modulus
    return result


@pytest.fixture(scope="session")
def test_params():
    return PARAM_SETS["test"]


@pytest.fixture(scope="session")
def p40_params():
    return PARAM_SETS["p40"]
