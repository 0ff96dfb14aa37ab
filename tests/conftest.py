"""Fixtures shared by the test modules."""

import itertools
from typing import NamedTuple

import pytest

from symdesign.catalog import B1, DATA_DIR
from symdesign.design import IncidenceStructure, develop
from symdesign.diffset import RegularAction, is_difference_set
from symdesign.perm import Perm, PermGroup, parse_generator_file


def difference_sets(action: RegularAction, k: int, lam: int) -> list[tuple[int, ...]]:
    """Every k-subset that is a difference set with lambda, lexicographically,
    by is_difference_set on each one."""
    return [d for d in itertools.combinations(range(action.degree), k)
            if is_difference_set(action, d, lam)[0]]


def right_regular(elements: list, mul) -> RegularAction:
    """A group acting on itself by right multiplication: point i is
    elements[i], and elements[0] is the identity."""
    index = {e: i for i, e in enumerate(elements)}
    gens = [Perm(tuple(index[mul(x, g)] for x in elements)) for g in elements]
    return RegularAction.from_group(PermGroup(gens, len(elements)))


# Witnesses for proper flag-transitive subgroups of the full automorphism
# group of the quadric design (catalog entry s-minus-3).  Found once by
# randomized search inside the stabilizer of point 0 and frozen here as
# explicit images; test_catalog re-verifies every claimed property from
# scratch, and test_decomp decomposes the design under them.
SEVEN_CYCLE_IMG = (
    0, 50, 1, 51, 8, 58, 9, 59, 45, 31, 44, 30, 37, 23, 36, 22,
    25, 43, 24, 42, 17, 35, 16, 34, 52, 6, 53, 7, 60, 14, 61, 15,
    56, 10, 57, 11, 48, 2, 49, 3, 21, 39, 20, 38, 29, 47, 28, 46,
    33, 19, 32, 18, 41, 27, 40, 26, 12, 62, 13, 63, 4, 54, 5, 55,
)
INVOLUTION_IMG = (
    0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15,
    16, 24, 20, 28, 18, 26, 22, 30, 17, 25, 21, 29, 19, 27, 23, 31,
    32, 40, 36, 44, 34, 42, 38, 46, 33, 41, 37, 45, 35, 43, 39, 47,
    48, 56, 52, 60, 50, 58, 54, 62, 49, 57, 53, 61, 51, 59, 55, 63,
)
TRIPLING_IMG = (
    0, 19, 17, 2, 8, 27, 25, 10, 28, 15, 13, 30, 20, 7, 5, 22,
    16, 3, 1, 18, 24, 11, 9, 26, 12, 31, 29, 14, 4, 23, 21, 6,
    42, 57, 59, 40, 34, 49, 51, 32, 54, 37, 39, 52, 62, 45, 47, 60,
    58, 41, 43, 56, 50, 33, 35, 48, 38, 53, 55, 36, 46, 61, 63, 44,
)


class D64(NamedTuple):
    group: PermGroup
    base1: list[int]
    d1: IncidenceStructure
    d2: IncidenceStructure


@pytest.fixture(scope="module")
def d64() -> D64:
    """The order-43008 group of data/d64_generators.txt, the base block
    catalog.B1 (0-based), and the developments under it of B1 and of the
    other 28 points outside point 0's class.
    Built once per module, so a group kept on a design by one module's
    searches is not seen by another."""
    degree, gens = parse_generator_file((DATA_DIR / "d64_generators.txt").read_text())
    group = PermGroup(gens, degree)
    base1 = [x - 1 for x in B1]
    base2 = sorted(set(range(8, 64)) - set(base1))
    return D64(group, base1, develop(group, base1), develop(group, base2))
