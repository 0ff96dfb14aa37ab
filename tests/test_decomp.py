"""Tests for the trace/footprint decomposition along an invariant partition."""

import pytest

from symdesign.catalog import DATA_DIR
from symdesign.decomp import DecompositionError, decompose
from symdesign.design import IncidenceStructure, complement, develop, verify_design
from symdesign.geometry import build_projective_design, restricted_semilinear_group
from symdesign.perm import PermGroup, minimal_block_systems, parse_generator_file


def d64_group():
    degree, gens = parse_generator_file(
        (DATA_DIR / "d64_generators.txt").read_text())
    return PermGroup(gens)


B1 = [x - 1 for x in (9, 11, 13, 15, 17, 20, 22, 23, 25, 26, 31, 32, 33, 35,
                      38, 40, 41, 42, 43, 44, 49, 50, 53, 54, 57, 58, 61, 62)]


def fifteen_point_case():
    """The 2-(15,8,4) design with the semilinear group on 15 binary points."""
    pg = build_projective_design(3, 2, hyperplanes=True)
    return complement(pg.structure), restricted_semilinear_group(2)


def sixty_three_point_case():
    pg = build_projective_design(5, 2, hyperplanes=True)
    return complement(pg.structure), restricted_semilinear_group(3)


@pytest.fixture(scope="module")
def decomposed():
    g = d64_group()
    d = develop(g, B1)
    sigma = minimal_block_systems(g)[0]
    return decompose(d, g, sigma), d


class TestMainExample:
    def test_core_parameters(self, decomposed):
        dec, _ = decomposed
        assert (dec.v0, dec.v1) == (8, 8)
        assert (dec.k0, dec.k1) == (4, 7)
        assert dec.mu == 8
        assert dec.theta == 4

    def test_inner_design(self, decomposed):
        dec, _ = decomposed
        assert dec.d0_params == (8, 14, 4, 7, 3)
        assert dec.lambda0 == 3

    def test_quotient_is_complete(self, decomposed):
        dec, _ = decomposed
        assert dec.d1_params == (8, 8, 7, 7, 6)
        assert dec.lambda1 == 6
        import itertools
        assert dec.d1.blocks == tuple(itertools.combinations(range(8), 7))

    def test_lambda1_formula(self, decomposed):
        dec, d = decomposed
        lam = verify_design(d).lam
        assert dec.lambda1 == dec.v0 ** 2 * lam // (dec.k0 ** 2 * dec.mu)

    def test_block_count_identity(self, decomposed):
        dec, d = decomposed
        assert d.b == dec.d1_params.b * dec.mu == 64

    def test_symmetric_consistency(self, decomposed):
        dec, d = decomposed
        assert d.b == dec.d1_params.b * dec.mu
        assert dec.params.symmetric == (dec.mu * dec.d1_params.b == dec.params.v)

    def test_table_row(self, decomposed):
        dec, _ = decomposed
        assert dec.table_row() == "8 4 3 7 14 4 | 8 7 6 7 8 | 8"

    def test_trace_structure_carried_by_generators(self, decomposed):
        dec, d = decomposed
        g = d64_group()
        # traces on the image class of sigma[0] are the images of D0's traces
        for p in g.generators[:3]:
            image_class = p.apply_to_set(dec.sigma[0])
            got = {frozenset(image_class & set(blk)) for blk in d.blocks}
            got.discard(frozenset())
            want = {p.apply_to_set(set(dec.sigma[0][i] for i in t))
                    for t in dec.d0.blocks}
            assert got == want


class TestFifteenPoints:
    def test_decomposition(self):
        d, g = fifteen_point_case()
        assert verify_design(d) == (15, 15, 8, 8, 4)
        systems = minimal_block_systems(g)
        assert len(systems) == 1 and len(systems[0]) == 5
        dec = decompose(d, g, systems[0])
        assert (dec.v0, dec.k0, dec.v1, dec.k1) == (3, 2, 5, 4)
        assert (dec.theta, dec.mu) == (4, 3)
        assert dec.lambda0 == 1
        assert dec.d0_params == (3, 3, 2, 2, 1)
        assert dec.d1_params == (5, 5, 4, 4, 3)
        assert d.b == dec.d1_params.b * dec.mu
        assert dec.table_row() == "3 2 1 2 3 4 | 5 4 3 4 5 | 3"


class TestSixtyThreePoints:
    def test_decomposition(self):
        d, g = sixty_three_point_case()
        assert verify_design(d) == (63, 63, 32, 32, 16)
        systems = minimal_block_systems(g)
        assert len(systems) == 1 and (len(systems[0]), len(systems[0][0])) == (21, 3)
        dec = decompose(d, g, systems[0])
        assert (dec.v0, dec.k0, dec.v1, dec.k1) == (3, 2, 21, 16)
        assert (dec.theta, dec.mu) == (16, 3)
        assert dec.lambda0 == 1
        assert dec.lambda1 == 12
        assert dec.d1_params == (21, 21, 16, 16, 12)
        assert d.b == dec.d1_params.b * dec.mu


class TestIdentities:
    def test_rel1_rel2_all_cases(self):
        cases = []
        g64 = d64_group()
        cases.append((develop(g64, B1), g64))
        cases.append(fifteen_point_case())
        cases.append(sixty_three_point_case())
        for d, g in cases:
            p = verify_design(d)
            dec = decompose(d, g, minimal_block_systems(g)[0])
            assert (p.v - 1) * (dec.k0 - 1) == (dec.v0 - 1) * (p.k - 1)
            assert (dec.v1 - 1) * dec.v0 * (dec.k0 - 1) == \
                (dec.k1 - 1) * dec.k0 * (dec.v0 - 1)
            assert p.lam * dec.v0 ** 2 == dec.lambda1 * dec.k0 ** 2 * dec.mu
            if dec.lambda0 is not None:
                assert p.lam == dec.theta * dec.lambda0

    def test_bounds_trichotomy(self):
        g64 = d64_group()
        for d, g in ((develop(g64, B1), g64), fifteen_point_case()):
            dec = decompose(d, g, minimal_block_systems(g)[0])
            assert dec.v0 > dec.k0 >= 2
            case_a = dec.k0 == 2
            case_b = 3 <= dec.k0 <= dec.v0 - 2
            case_c = dec.k0 == dec.v0 - 1 >= 3
            assert sum((case_a, case_b, case_c)) == 1


class TestErrors:
    def test_not_flag_transitive(self):
        g = d64_group()
        d = develop(g, B1)
        small = PermGroup([g.generators[0]], 64)
        sigma = minimal_block_systems(g)[0]
        with pytest.raises(DecompositionError, match="flag-transitive"):
            decompose(d, small, sigma)

    def test_bad_partition(self):
        d, g = fifteen_point_case()
        with pytest.raises(DecompositionError, match="partition"):
            decompose(d, g, [(0, 1, 2), (3, 4, 5)])

    def test_trivial_partition(self):
        d, g = fifteen_point_case()
        with pytest.raises(DecompositionError, match="nontrivial"):
            decompose(d, g, [tuple(range(15))])

    def test_unequal_classes(self):
        d, g = fifteen_point_case()
        parts = [tuple(range(7)), tuple(range(7, 15))]
        with pytest.raises(DecompositionError):
            decompose(d, g, parts)

    def test_non_invariant_partition(self):
        g = d64_group()
        d = develop(g, B1)
        bad = [(2 * i, 2 * i + 1) for i in range(32)]
        with pytest.raises(DecompositionError, match="splits"):
            decompose(d, g, bad)
