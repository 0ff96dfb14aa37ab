"""Fixtures shared by the test modules."""

from typing import NamedTuple

import pytest

from symdesign.catalog import B1, B2, DATA_DIR
from symdesign.design import IncidenceStructure, develop
from symdesign.perm import PermGroup, parse_generator_file


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
