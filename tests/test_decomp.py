"""Tests for the trace/footprint decomposition along an invariant partition."""

import functools
import hashlib
import json
from collections import Counter

import pytest

from conftest import INVOLUTION_IMG, SEVEN_CYCLE_IMG, TRIPLING_IMG
from symdesign.catalog import DATA_DIR, entry
from symdesign.cli import main
from symdesign.decomp import DecompositionError, decompose
from symdesign.design import complement, design_to_json, verify_design
from symdesign.enumeration import table_rows
from symdesign.geometry import build_projective_design, restricted_semilinear_group
from symdesign.perm import Perm, PermGroup, minimal_block_systems, parse_generator_file


def fifteen_point_case():
    """The 2-(15,8,4) design with the semilinear group on 15 binary points."""
    pg = build_projective_design(3, 2, hyperplanes=True)
    return complement(pg.structure), restricted_semilinear_group(2)


def sixty_three_point_case():
    pg = build_projective_design(5, 2, hyperplanes=True)
    return complement(pg.structure), restricted_semilinear_group(3)


@pytest.fixture(scope="module")
def decomposed(d64):
    g, d = d64.group, d64.d1
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

    def test_replace_gives_a_new_record(self, decomposed):
        dec, _ = decomposed
        cleared = dec._replace(lambda0=None)
        assert cleared.lambda0 is None and dec.lambda0 == 3
        assert cleared.table_row() == "8 4 - 7 14 4 | 8 7 6 7 8 | 8"
        assert cleared._replace(lambda0=3) == dec

    def test_trace_structure_carried_by_generators(self, decomposed, d64):
        dec, d = decomposed
        g = d64.group
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
    def test_rel1_rel2_all_cases(self, d64):
        cases = []
        cases.append((d64.d1, d64.group))
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

    def test_bounds_trichotomy(self, d64):
        for d, g in ((d64.d1, d64.group), fifteen_point_case()):
            dec = decompose(d, g, minimal_block_systems(g)[0])
            assert dec.v0 > dec.k0 >= 2
            case_a = dec.k0 == 2
            case_b = 3 <= dec.k0 <= dec.v0 - 2
            case_c = dec.k0 == dec.v0 - 1 >= 3
            assert sum((case_a, case_b, case_c)) == 1


class TestErrors:
    def test_not_flag_transitive(self, d64):
        g, d = d64.group, d64.d1
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

    def test_numbers_off_the_family(self, monkeypatch):
        # the family check is the one guard on the counting identities, so a
        # row for another quotient (lambda1 doubled) must fail it
        from symdesign import decomp
        real = decomp.make_row
        monkeypatch.setattr(decomp, "make_row", lambda v0, k0, lambda0, v1, k1, lambda1:
                            real(v0, k0, lambda0, v1, k1, 2 * lambda1))
        d, g = fifteen_point_case()
        with pytest.raises(DecompositionError, match="is not family"):
            decompose(d, g, minimal_block_systems(g)[0])

    def test_non_invariant_partition(self, d64):
        g, d = d64.group, d64.d1
        bad = [(2 * i, 2 * i + 1) for i in range(32)]
        with pytest.raises(DecompositionError, match="splits"):
            decompose(d, g, bad)


# -- pinned outputs ------------------------------------------------------------

def generator_text(g):
    return "\n".join(["degree %d" % g.degree]
                     + [p.cycle_string() for p in g.generators]) + "\n"


@functools.lru_cache(maxsize=None)
def pinned_case(name):
    """(design, generator file text) of one pinned decompose call."""
    d64_text = (DATA_DIR / "d64_generators.txt").read_text()
    if name in ("d64-1", "d64-2"):
        return entry(name).design, d64_text
    if name == "pg3_2_complement":
        d, g = fifteen_point_case()
    elif name == "pg5_2_complement":
        d, g = sixty_three_point_case()
    elif name == "d64-1/translations":
        d, g = entry("d64-1").design, entry("s-minus-3").group
    else:
        d, g = entry(name).design, entry(name).group
    return d, generator_text(g)


# sha256 of [exit code, stdout, stderr] of `decompose` in the table, csv and
# json formats, recorded before flag-transitivity was read off a point
# stabilizer, block systems were keyed by their class through 0 and the
# decomposition's numbers were checked against the enumerated family.
# s-minus-3 under its translation group is not flag-transitive (exit 1);
# d64-1 is not invariant under that group (exit 2)
DECOMPOSE_SHA256 = {
    "d64-1": (
        "14993ec2d3f0bc1e55d5999367f0c5caeca9812b8fffb905dd5f0d7acc190706",
        "4a090bc4ff27a1170a25430128a0494cf8211833c68fe4468b3465968cc0ffd2",
        "2c3cc9c07e82b34ff65e37c3afd218a4cd80aca4bad0c44986900fa5790b070d"),
    "d64-2": (
        "14993ec2d3f0bc1e55d5999367f0c5caeca9812b8fffb905dd5f0d7acc190706",
        "4a090bc4ff27a1170a25430128a0494cf8211833c68fe4468b3465968cc0ffd2",
        "2c3cc9c07e82b34ff65e37c3afd218a4cd80aca4bad0c44986900fa5790b070d"),
    "biplane-2": (
        "e21e57500fe76c5d6aa5dad566bcc5282e22cec063fffe562d5515a773663068",
        "60c49b320cb87db033ac5861552dbc00e54da9cde0824a6e25c170e217a99c78",
        "e3b650b624b7b33a8cfbc8453bf0439ffa952e1dfbee247559d825e8df3a0f64"),
    "pg3_2_complement": (
        "8d40377fc90fb255edd58316463317a2825c0d90eeb1a00fe02741f0bbe0d507",
        "0affd90960c9ca1f0a0c4ea113d90b08e2778096d8d49c89362c9d4f55c4551a",
        "70ada7b355277c6a9541ba19f26a3fa2c914d0a147dea49e23f12865aec1660f"),
    "pg5_2_complement": (
        "6152f3303deafc68fad14dcbc1ceed81260cbecf15f4a4eaca4bff12c09ee582",
        "dece70022b472ac719af88cb39742128385dbda0e5cd09c35577b04facd4ad15",
        "a3031ecde31863ad334405f0f0352d7290adc17399da156f295f106a63870eb5"),
    "s-minus-3": (
        "fffebe467254291bdddd4fe0a2851e458fe64a1aa7d3f195a46b4de7213c04d2",
        "fffebe467254291bdddd4fe0a2851e458fe64a1aa7d3f195a46b4de7213c04d2",
        "fffebe467254291bdddd4fe0a2851e458fe64a1aa7d3f195a46b4de7213c04d2"),
    "d64-1/translations": (
        "273f5846bbe2585c9eb5004d98a8785e77100f4c6294a92593323a70f49660e0",
        "273f5846bbe2585c9eb5004d98a8785e77100f4c6294a92593323a70f49660e0",
        "273f5846bbe2585c9eb5004d98a8785e77100f4c6294a92593323a70f49660e0"),
}

# sha256 of the JSON of minimal_block_systems of each pinned case's group,
# recorded at the same time; biplane-2's was re-recorded when the biplanes
# were first classified through the Hussain chain, which relabels them
BLOCK_SYSTEMS_SHA256 = {
    "d64-1": "4bb92989e37cd3338505c1e6ac0edb59b747f068afcc17a6b76bd3a68b7d4ac7",
    "biplane-2": "92e690ad0a45ceafa451400583b751ee659bcbc01c237feb3094c1451c24d400",
    "pg3_2_complement": "b215fb31494df80848f433113f91eefadb776f28fc2e2bf6afbd73f73476b7f3",
    "pg5_2_complement": "5e86b7bed9773c6542020fe901094bb5fa00bfa3cf4fa8620c0f81b14bf9c35e",
    "s-minus-3": "24c27910cc272050ef592aaf5557ecba1964575d4bf61a23a4db53b79741c939",
}


class TestOutputsPinned:
    @pytest.mark.parametrize("name", list(DECOMPOSE_SHA256))
    def test_decompose_outputs(self, name, capsys, tmp_path):
        d, text = pinned_case(name)
        design, gens = tmp_path / "design.json", tmp_path / "group.gens"
        design.write_text(design_to_json(d))
        gens.write_text(text)
        got = []
        for fmt in ("table", "csv", "json"):
            code = main(["decompose", str(design), str(gens), "--format", fmt])
            captured = capsys.readouterr()
            record = json.dumps([code, captured.out, captured.err])
            got.append(hashlib.sha256(record.encode()).hexdigest())
        assert tuple(got) == DECOMPOSE_SHA256[name]

    @pytest.mark.parametrize("name", list(BLOCK_SYSTEMS_SHA256))
    def test_minimal_block_systems(self, name):
        degree, gens = parse_generator_file(pinned_case(name)[1])
        systems = minimal_block_systems(PermGroup(gens, degree))
        digest = hashlib.sha256(json.dumps(systems).encode()).hexdigest()
        assert digest == BLOCK_SYSTEMS_SHA256[name]


class TestTableFive:
    """Each decomposed catalog design lies on exactly one symmetric family."""

    @staticmethod
    def assert_one_row(dec):
        family = (dec.v0, dec.k0, dec.lambda0, dec.v1, dec.k1, dec.lambda1)
        rows = [r for r in table_rows()["table5"]
                if (r.v0, r.k0, r.lambda0, r.v1, r.k1, r.lambda1) == family]
        assert len(rows) == 1
        assert rows[0].mu_s == dec.mu
        assert rows[0].theta_at(rows[0].mu_s) == dec.theta

    @pytest.mark.parametrize("name", ["d64-1", "d64-2", "biplane-2",
                                      "pg3_2_complement", "pg5_2_complement"])
    def test_decomposition_matches_one_row(self, name):
        d, text = pinned_case(name)
        degree, gens = parse_generator_file(text)
        g = PermGroup(gens, degree)
        self.assert_one_row(decompose(d, g, minimal_block_systems(g)[0]))

    @pytest.mark.parametrize("extra,order", [
        ((SEVEN_CYCLE_IMG, INVOLUTION_IMG), 3584),
        ((SEVEN_CYCLE_IMG, INVOLUTION_IMG, TRIPLING_IMG), 10752),
    ])
    def test_s_minus_3_under_its_flag_transitive_subgroups(self, extra, order):
        """The quadric design under the translations joined with the frozen
        witnesses of tests/conftest.py: one minimal system, one row."""
        e = entry("s-minus-3")
        g = PermGroup(list(e.group.generators) + [Perm(img) for img in extra], 64)
        assert g.order() == order
        systems = minimal_block_systems(g)
        assert len(systems) == 1
        dec = decompose(e.design, g, systems[0])
        assert dec.table_row() == "8 4 3 7 14 4 | 8 7 6 7 8 | 8"
        self.assert_one_row(dec)


class TestCountsReadOnce:
    """decompose reads k0 off one block, mu off one footprint and theta off
    one trace, since flag-transitivity makes each constant; here each is
    counted on every block, footprint and class instead."""

    @pytest.mark.parametrize("name", ["d64-1", "d64-2", "biplane-2", "pg3_2_complement",
                                      "pg5_2_complement", "fifteen_point_case"])
    def test_every_count_is_the_one_read(self, name):
        if name == "fifteen_point_case":
            d, g = fifteen_point_case()
        else:
            d, text = pinned_case(name)
            degree, gens = parse_generator_file(text)
            g = PermGroup(gens, degree)
        systems = minimal_block_systems(g)
        assert systems
        for sigma in systems:
            dec = decompose(d, g, sigma)
            member = {x: i for i, c in enumerate(dec.sigma) for x in c}
            meets = [Counter(member[x] for x in blk) for blk in d.blocks]
            # every block meets every class in 0 or k0 points
            assert {n for m in meets for n in m.values()} == {dec.k0}
            footprints = Counter(frozenset(m) for m in meets)
            assert {len(f) for f in footprints} == {dec.k1}
            assert set(footprints.values()) == {dec.mu}
            for c in dec.sigma:
                traces = Counter(frozenset(c).intersection(blk) for blk in d.blocks)
                del traces[frozenset()]
                assert set(traces.values()) == {dec.theta}
