"""Acceptance gate: the ten headline results, each timed against its bound.

Every test prints one summary line (visible under pytest -s or -rA) so a
full run reads as a ten-line scorecard.
"""

import itertools
import random
import time
from pathlib import Path

import oracles
import table_fixture
from test_enumeration import as_fixture_tuple, as_symmetric_tuple

from symdesign.catalog import entry, run_claims
from symdesign.decomp import decompose
from symdesign.design import (
    IncidenceStructure,
    complement,
    is_flag_transitive,
    is_point_primitive,
    verify_design,
)
from symdesign.diffset import (
    RegularAction,
    develop_difference_set,
    find_regular_subgroups,
    is_difference_set,
)
from symdesign.enumeration import render_table, table_rows
from symdesign.iso import are_isomorphic, automorphism_group
from symdesign.perm import (
    Perm,
    PermGroup,
    minimal_block_systems,
    rank_and_subdegrees,
)

ROOT = Path(__file__).resolve().parent.parent

CLASSICAL_NAMES = [
    "fano", "fano_complement", "ag2_3", "ag2_3_complement", "ag3_2_planes",
    "ag2_4_lines", "pg2_3", "pg2_3_complement", "pg2_4", "pg2_4_complement",
    "pg5_2_hyperplanes", "pg5_2_complement", "complete(6,3)", "complete(8,7)",
]


class Clock:
    def __init__(self, bound: float):
        self.bound = bound
        self.start = time.monotonic()

    def check(self, label: str = "") -> float:
        elapsed = time.monotonic() - self.start
        assert elapsed < self.bound, (label, elapsed, self.bound)
        return elapsed


def report(criterion: int, elapsed: float, detail: str) -> None:
    print("criterion %2d PASS %6.2fs  %s" % (criterion, elapsed, detail))


def test_criterion_01_generated_group_order():
    clock = Clock(5.0)
    group = entry("d64-1").group
    order = group.order()
    assert order == 43008
    report(1, clock.check(), "|<g1..g9>| = %d" % order)


def test_criterion_02_developments_are_flag_transitive_imprimitive():
    clock = Clock(10.0)
    for h in (1, 2):
        e = entry("d64-%d" % h)
        params = verify_design(e.design)
        assert (params.v, params.b, params.k, params.r, params.lam) == \
            (64, 64, 28, 28, 12)
        assert params.symmetric
        assert is_flag_transitive(e.design, e.group)
        assert not is_point_primitive(e.design, e.group)
        shapes = {(len(s), len(s[0])) for s in minimal_block_systems(e.group)}
        assert (8, 8) in shapes
        rank, subdegrees = rank_and_subdegrees(e.group)
        assert subdegrees == (1, 7, 56)
    report(2, clock.check(),
           "both developments: symmetric 2-(64,28,12), flag-transitive, "
           "8x8 classes, subdegrees (1,7,56)")


def test_criterion_03_full_automorphism_groups_and_non_isomorphism():
    d1 = entry("d64-1")
    d2 = entry("d64-2")
    orders = []
    for e in (d1, d2):
        clock = Clock(60.0)
        orders.append(automorphism_group(e.design, known=e.group).order())
        clock.check(e.name)
    assert orders == [43008, 43008]
    clock = Clock(60.0)
    assert are_isomorphic(d1.design, d2.design) is None
    clock.check("iso")
    report(3, clock.check(), "|Aut| = 43008 for both; non-isomorphic")


def test_criterion_04_quadric_design_and_third_class():
    clock = Clock(300.0)
    e = entry("s-minus-3")
    action = RegularAction.from_group(e.group)
    zeros = sorted(e.design.blocks[0])
    ok, _ = is_difference_set(action, zeros, 12)
    assert ok
    params = verify_design(e.design)
    assert (params.v, params.k, params.lam) == (64, 28, 12) and params.symmetric
    aut = automorphism_group(e.design, known=e.group)
    assert aut.order() == 92897280
    for h in (1, 2):
        assert are_isomorphic(e.design, entry("d64-%d" % h).design) is None
    report(4, clock.check(),
           "difference set ok, |Aut| = 92897280, distinct from both "
           "developments")


def test_criterion_05_decomposition_identities():
    clock = Clock(5.0)
    for h in (1, 2):
        e = entry("d64-%d" % h)
        sigma = [s for s in minimal_block_systems(e.group)
                 if (len(s), len(s[0])) == (8, 8)][0]
        d = decompose(e.design, e.group, sigma)
        assert (d.k0, d.k1, d.mu) == (4, 7, 8)
        quot = d.d1_params
        assert (quot.v, quot.b, quot.k, quot.r, quot.lam) == (8, 8, 7, 7, 6)
        assert sorted(d.d1.blocks) == sorted(
            itertools.combinations(range(8), 7))
        params = verify_design(e.design)
        v, k, lam = params.v, params.k, params.lam
        assert (v - 1) * (d.k0 - 1) == (d.v0 - 1) * (k - 1)
        assert (d.v1 - 1) * d.v0 * (d.k0 - 1) == (d.k1 - 1) * d.k0 * (d.v0 - 1)
        assert d.v0 ** 2 * lam == 6 * d.k0 ** 2 * d.mu
        assert params.b == quot.b * d.mu == 64
    report(5, clock.check(),
           "k0=4 k1=7 mu=8, quotient = complete 2-(8,7,6), identities exact")


def test_criterion_06_enumeration_matches_transcription():
    clock = Clock(1.0)
    tables = table_rows(100)
    for name, fixture in (("table2", table_fixture.MU_TABLE_2),
                          ("table3", table_fixture.MU_TABLE_3),
                          ("table4", table_fixture.MU_TABLE_4)):
        got = sorted(as_fixture_tuple(r) for r in tables[name])
        want = sorted(table_fixture.mu_rows(fixture))
        assert got == want, name
    got = sorted(as_symmetric_tuple(r) for r in tables["table5"])
    want = sorted(table_fixture.symmetric_rows())
    assert got == want
    assert len(tables["table5"]) == 16
    for name in ("table2", "table3", "table4", "table5"):
        assert render_table(name, 100) == \
            (ROOT / "tables" / ("%s.csv" % name)).read_text()
    report(6, clock.check(),
           "33 + 32 + 12 parameter rows and 16 symmetric rows match; "
           "golden files byte-identical")


def test_criterion_07_classical_catalog_claims():
    clock = Clock(120.0)
    checked = 0
    for name in CLASSICAL_NAMES:
        report_lines = run_claims(entry(name))
        failures = [line for line in report_lines if not line[1]]
        assert failures == [], (name, failures)
        checked += len(report_lines)
    report(7, clock.check(),
           "%d entries, %d claims, zero failures" % (len(CLASSICAL_NAMES),
                                                     checked))


def test_criterion_08_regular_subgroup_recovers_development():
    clock = Clock(300.0)
    e = entry("d64-1")
    aut = automorphism_group(e.design, known=e.group)
    found = find_regular_subgroups(aut, limit=1)
    assert found, "no regular subgroup within budget"
    action = found[0]
    assert action.group.order() == 64
    block = sorted(e.design.blocks[0])
    ok, _ = is_difference_set(action, block, 12)
    assert ok
    dev = develop_difference_set(action, block)
    assert dev.block_multiset() == e.design.block_multiset()
    assert are_isomorphic(dev, e.design) is not None
    report(8, clock.check(),
           "regular subgroup of order 64 found; block develops the design")


def test_criterion_09_oracle_suites():
    clock = Clock(120.0)

    small = [entry(n) for n in CLASSICAL_NAMES
             if n not in ("pg5_2_hyperplanes", "pg5_2_complement")]
    small = [e for e in small if e.design.v <= 30]
    assert len(small) >= 10
    for e in small:
        params = verify_design(e.design)
        counts = oracles.pair_count_matrix(
            e.design.v, [frozenset(b) for b in e.design.blocks])
        assert set(counts.values()) == {params.lam}, e.name

    groups = [entry("fano").group,
              entry("ag3_2_planes").group,
              entry("pg2_3").group,
              entry("d64-1").group,
              PermGroup([Perm(tuple((x + 1) % 7 for x in range(7)))], 7)]
    for g in groups:
        want = g.order()
        assert want <= 10 ** 5
        assert oracles.closure_order([p.img for p in g.generators]) == want

    fano = entry("fano").design
    ag = entry("ag3_2_planes").design
    relabel = lambda s, p: IncidenceStructure(
        s.v, [tuple(sorted(p[x] for x in b)) for b in s.blocks])
    rng = random.Random(11)
    for s in (fano, ag):
        images = list(range(s.v))
        rng.shuffle(images)
        other = relabel(s, Perm(tuple(images)))
        ours = are_isomorphic(s, other)
        theirs = oracles.first_isomorphism(s.v, list(s.blocks),
                                           list(other.blocks))
        assert ours is not None and theirs is not None
        assert relabel(s, ours).block_multiset() == other.block_multiset()
    fano_c = entry("fano_complement").design
    assert are_isomorphic(fano, fano_c) is None
    assert oracles.first_isomorphism(7, list(fano.blocks),
                                     list(fano_c.blocks)) is None
    report(9, clock.check(),
           "pair counting on %d designs, exhaustive orders on %d groups, "
           "factorial isomorphism checks agree" % (len(small), len(groups)))


def test_criterion_10_randomized_property_invariants():
    clock = Clock(60.0)
    rng = random.Random(2024)
    cases = 0

    rows = (table_rows(100)["table2"] + table_rows(100)["table3"]
            + table_rows(100)["table4"])
    for row in rows:
        for _ in range(5):
            mu = row.mu_condition * rng.randint(1, 50)
            lam, r, b = row.lambda_at(mu), row.r_at(mu), row.b_at(mu)
            assert lam * (row.v - 1) == r * (row.k - 1)
            assert b * row.k == row.v * r
            cases += 1

    designs = [entry(n).design for n in CLASSICAL_NAMES]
    for s in designs:
        params = verify_design(s)
        if s.v - params.k < 2:
            continue
        comp = complement(s)
        cparams = verify_design(comp)
        assert cparams.lam == params.b - 2 * params.r + params.lam
        assert complement(comp).block_multiset() == s.block_multiset()
        cases += 2

    for h in (1, 2):
        e = entry("d64-%d" % h)
        sigma = [s for s in minimal_block_systems(e.group)
                 if (len(s), len(s[0])) == (8, 8)][0]
        d = decompose(e.design, e.group, sigma)
        params = verify_design(e.design)
        assert (params.v - 1) * (d.k0 - 1) == (d.v0 - 1) * (params.k - 1)
        assert (d.v1 - 1) * d.v0 * (d.k0 - 1) == \
            (d.k1 - 1) * d.k0 * (d.v0 - 1)
        cases += 2

    groups = [entry("fano").group,
              entry("ag2_3").group,
              entry("pg2_3").group,
              entry("ag2_4_lines").group,
              entry("d64-1").group]
    for g in groups:
        for _ in range(120):
            p = rng.randrange(g.degree)
            assert g.point_stabilizer(p).order() * len(g.orbit(p)) == g.order()
            cases += 1

    assert cases >= 1000
    report(10, clock.check(), "%d randomized cases, all identities hold" % cases)
