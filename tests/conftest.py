"""Fixtures shared by the test modules."""

from typing import NamedTuple

import pytest

from symdesign.catalog import B1, B2, DATA_DIR
from symdesign.design import IncidenceStructure, develop
from symdesign.diffset import RegularAction, difference_set_representatives
from symdesign.perm import PermGroup, parse_generator_file

# sha256 of the JSON list of [label, difference_sets(action, 6, 2)] over the
# fourteen groups of order 16, recorded before the search started from
# point 0
DIFFERENCE_SETS_SHA256 = \
    "7948727e70d0c23ba763e7cd9b0de2e7dddc38bc2091fc47227d86b231beda59"


def difference_sets(action: RegularAction, k: int, lam: int) -> list[tuple[int, ...]]:
    """Every k-subset that is a difference set with lambda, lexicographically:
    every translate of every representative."""
    return sorted({tuple(sorted(g.apply_to_set(d)))
                   for d in difference_set_representatives(action, k, lam)
                   for g in action.element_of.values()})


class D64(NamedTuple):
    group: PermGroup
    base1: list[int]
    d1: IncidenceStructure
    d2: IncidenceStructure


@pytest.fixture(scope="module")
def d64() -> D64:
    """The order-43008 group of data/d64_generators.txt, the base block
    catalog.B1 (0-based), and the developments of B1 and B2 under it.
    Built once per module, so a group kept on a design by one module's
    searches is not seen by another."""
    degree, gens = parse_generator_file((DATA_DIR / "d64_generators.txt").read_text())
    group = PermGroup(gens, degree)
    base1, base2 = [x - 1 for x in B1], [x - 1 for x in B2]
    return D64(group, base1, develop(group, base1), develop(group, base2))
