"""The admissible-parameter enumerators against the transcribed tables."""

from pathlib import Path

import pytest

import table_fixture
from symdesign.enumeration import (
    INNER_DESIGNS,
    QUOTIENT_DESIGNS,
    ParamRow,
    all_rows,
    render_table,
    symmetric_filter,
    table_rows,
)

ROOT = Path(__file__).resolve().parent.parent


def pair_rows():
    """Families whose inner design is the complete 2-(v0,2,1) design."""
    return [r for r in all_rows() if r.k0 == 2]


def complete_rows():
    """Families whose inner design is the complete 2-(v0,v0-1,v0-2) design."""
    return [r for r in all_rows() if r.k0 == r.v0 - 1 >= 3]


def middle_rows():
    """Families with 3 <= k0 <= v0-2, one row per (lambda0, lambda1) option."""
    return [r for r in all_rows() if 3 <= r.k0 <= r.v0 - 2]


def as_fixture_tuple(row: ParamRow):
    def coeff(num, den):
        return "%d" % num if den == 1 else "%d/%d" % (num, den)

    lam, r, b = row.lambda_of_mu, row.r_of_mu, row.b_of_mu
    return (row.v0, row.k0, row.lambda0, row.r0, row.b0,
            coeff(*row.theta),
            row.v1, row.k1, row.lambda1, row.r1, row.b1,
            row.v, row.k,
            coeff(lam.numerator, lam.denominator),
            coeff(r.numerator, r.denominator),
            coeff(b.numerator, b.denominator),
            row.mu_condition, row.mu_s)


def as_symmetric_tuple(row: ParamRow):
    mu = row.mu_s
    return (row.v0, row.k0, row.lambda0, row.r0, row.b0, row.theta_at(mu),
            row.v1, row.k1, row.lambda1, row.r1, row.b1,
            mu, row.v, row.k, row.lambda_at(mu))


class TestRowCounts:
    def test_pair_inner_branch(self):
        assert len(pair_rows()) == 30

    def test_complete_inner_branch(self):
        assert len(complete_rows()) == 3

    def test_middle_branch(self):
        assert len(middle_rows()) == 44

    def test_rows_are_ordered_by_shape(self):
        assert all_rows() == pair_rows() + complete_rows() + middle_rows()

    def test_table_split(self):
        tables = table_rows()
        assert len(tables["table2"]) == 33
        assert len(tables["table3"]) == 32
        assert len(tables["table4"]) == 12
        assert len(tables["table5"]) == 16


class TestAgainstTranscription:
    def test_pair_and_complete_rows(self):
        got = sorted(as_fixture_tuple(r) for r in table_rows()["table2"])
        want = sorted(table_fixture.mu_rows(table_fixture.MU_TABLE_2))
        assert got == want

    def test_middle_rows(self):
        got = sorted(as_fixture_tuple(r) for r in table_rows()["table3"])
        want = sorted(table_fixture.mu_rows(table_fixture.MU_TABLE_3))
        assert got == want

    def test_sixteen_point_rows(self):
        got = sorted(as_fixture_tuple(r) for r in table_rows()["table4"])
        want = sorted(table_fixture.mu_rows(table_fixture.MU_TABLE_4))
        assert got == want

    def test_symmetric_rows(self):
        got = sorted(as_symmetric_tuple(r) for r in table_rows()["table5"])
        want = sorted(table_fixture.symmetric_rows())
        assert got == want


class TestInvariants:
    def test_layer_relations_and_bounds(self):
        for row in all_rows():
            assert row.v == row.v0 * row.v1
            assert row.k == row.k0 * row.k1
            assert 2 < row.k < row.v < 100
            assert (row.v - 1) * (row.k0 - 1) == (row.v0 - 1) * (row.k - 1)
            assert ((row.v1 - 1) * row.v0 * (row.k0 - 1)
                    == (row.k1 - 1) * row.k0 * (row.v0 - 1))

    def test_fisher_identity_at_sample_mu(self):
        # lambda*(v-1) = r*(k-1) must hold identically in mu
        for row in all_rows():
            for mu in (row.mu_condition, 2 * row.mu_condition, 5 * row.mu_condition):
                lam, r = row.lambda_at(mu), row.r_at(mu)
                assert lam * (row.v - 1) == r * (row.k - 1)
                assert row.b_at(mu) * row.k == row.v * r

    def test_condition_is_sharp(self):
        # with theta in lowest terms the modulus is the least mu making all
        # parameters integral; the complete-inner branch keeps theta
        # unreduced and its stated condition can exceed that minimum
        from math import gcd, lcm
        for row in all_rows():
            m = row.mu_condition
            least = lcm(row.lambda_of_mu.denominator, row.r_of_mu.denominator,
                        row.theta[1] // gcd(*row.theta))
            assert m % least == 0
            if gcd(*row.theta) == 1:
                assert m == least, as_fixture_tuple(row)
            else:
                assert row.k0 == row.v0 - 1

    def test_off_condition_mu_raises(self):
        row = next(r for r in all_rows() if r.mu_condition > 1)
        with pytest.raises(ValueError):
            row.lambda_at(row.mu_condition + 1)

    def test_inner_design_arithmetic(self):
        for row in all_rows():
            assert row.r0 * (row.k0 - 1) == row.lambda0 * (row.v0 - 1)
            assert row.b0 * row.k0 == row.v0 * row.r0
            assert row.r1 * (row.k1 - 1) == row.lambda1 * (row.v1 - 1)
            assert row.b1 * row.k1 == row.v1 * row.r1


class TestClassificationFixtures:
    def test_every_row_uses_a_listed_quotient(self):
        for row in all_rows():
            values = [lam for lam, _ in QUOTIENT_DESIGNS[(row.v1, row.k1)]]
            assert row.lambda1 in values

    def test_quotient_multiplicities(self):
        # each (v1,k1,lambda1) option appears once per compatible inner family
        rows = pair_rows()
        for (v1, k1), options in QUOTIENT_DESIGNS.items():
            got = sorted(r.lambda1 for r in rows if (r.v1, r.k1) == (v1, k1))
            if got:
                want = sorted(lam for lam, _ in options)
                assert got == want

    def test_middle_rows_match_inner_fixture(self):
        rows = middle_rows()
        for (v0, k0), options in INNER_DESIGNS.items():
            quads = {(r.v1, r.k1) for r in rows if (r.v0, r.k0) == (v0, k0)}
            for v1, k1 in quads:
                got = sorted(r.lambda0 for r in rows
                             if (r.v0, r.k0, r.v1, r.k1) == (v0, k0, v1, k1))
                assert got == sorted(lam for lam, _ in options)

    def test_every_inner_family_is_reached(self):
        reached = {(r.v0, r.k0) for r in middle_rows()}
        assert reached == set(INNER_DESIGNS)


class TestSymmetricFilter:
    def test_substitution_reaches_square_parameters(self):
        for row in symmetric_filter(all_rows()):
            mu = row.mu_s
            assert row.b_at(mu) == row.v
            assert row.r_at(mu) == row.k
            lam = row.lambda_at(mu)
            assert lam * (row.v - 1) == row.k * (row.k - 1)

    def test_complete_inner_families_are_dropped(self):
        rows = symmetric_filter(all_rows())
        assert all(not (r.k0 == r.v0 - 1 and r.k0 >= 3) for r in rows)
        # the (4,3) family passes the divisibility test yet yields nothing
        candidate = next(r for r in complete_rows() if r.v1 == 10)
        assert candidate.mu_s == 4

    def test_sixteen_point_exception(self):
        # arithmetic alone would allow mu=16 for the lambda0=4 family
        row = next(r for r in middle_rows()
                   if (r.v0, r.k0, r.lambda0) == (16, 4, 4))
        assert row.v % row.b1 == 0
        assert (row.v // row.b1) % row.mu_condition == 0
        assert row.mu_s is None

    def test_main_parameter_triples(self):
        triples = sorted((r.v, r.k, r.lambda_at(r.mu_s))
                         for r in symmetric_filter(all_rows()))
        assert triples.count((64, 28, 12)) == 3
        assert triples.count((96, 20, 4)) == 2
        assert triples.count((63, 32, 16)) == 2
        assert (45, 12, 3) in triples and (66, 40, 24) in triples


class TestBounds:
    @pytest.mark.parametrize("vmax", range(101))
    def test_vmax_restricts_output(self, vmax):
        assert all_rows(vmax) == [r for r in all_rows(100) if r.v < vmax]

    def test_vmax_above_support_rejected(self):
        with pytest.raises(ValueError):
            all_rows(vmax=200)


class TestGoldenFiles:
    @pytest.mark.parametrize("name", ["table2", "table3", "table4", "table5"])
    def test_rendered_tables_match_goldens(self, name):
        """render_table reproduces tables/."""
        golden = ROOT / "tables" / ("%s.csv" % name)
        assert render_table(name) == golden.read_text()
