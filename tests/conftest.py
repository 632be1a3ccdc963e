from __future__ import annotations

import pytest

from lpcoset import (
    Permutation,
    PermutationRep,
    basilica,
    enumerate_cosets,
    grigorchuk,
    parse_subgroup,
)


@pytest.fixture(scope="session")
def bas():
    return basilica()


@pytest.fixture(scope="session")
def grig():
    return grigorchuk()


@pytest.fixture(scope="session")
def bas_u_result(bas):
    """Enumeration of the index-3 subgroup <a^3, b, aba> of the Basilica group."""
    return enumerate_cosets(bas, parse_subgroup(bas.alphabet, "a^3, b, a*b*a"))


@pytest.fixture(scope="session")
def bas_index3_rep(bas):
    """The representation a -> (1,2,3), b -> (2,3) on three points."""
    return PermutationRep(
        bas.alphabet,
        3,
        (
            Permutation.from_cycles(3, [(1, 2, 3)]),
            Permutation.from_cycles(3, [(2, 3)]),
        ),
    )
