"""Tests for field tables and affine/projective designs."""

import hashlib
import json

import pytest

from symdesign.catalog import entry
from symdesign.design import carries_blocks, is_flag_transitive, verify_design
from symdesign.geometry import (
    GF,
    affine_group_order,
    build_affine_design,
    build_projective_design,
    projective_group_order,
    restricted_semilinear_group,
)

from oracles import pair_count_matrix

# sha256 digests of the blocks and the generator images, recorded while the
# builders still enumerated every subspace: for each geometry row of the
# catalog, for the other builder calls tested here, and for the restricted
# semilinear groups
CATALOG_SHA256 = {
    "ag2_3": "8d61ec0d4bbd8514426feb836c234af2b411f7d6a56a7f9632ec4b6a0231fd1a",
    "ag2_3_complement": "8035338761f2f2abdb3ccb02ba45115a77d770ebc52cfe700ea2f30934e53021",
    "ag2_4_lines": "6ffbda580be1cfc810d1a2e7b68f130303bfea4f8513949808b96db2c952aa02",
    "ag3_2_planes": "27243aa2599456b01d2b9f756dc1df8bbfbe023f0612f7c183844f84ddee0808",
    "fano": "b88bd294b391d231b69afbf9ce3958a72a294a1bc9d93d14b336a9e001ac4972",
    "fano_complement": "75cb91ac435fd4f345bce14fb5313f3956d7b53c6844075d37c1100b62e44108",
    "pg2_3": "4fdcc00ae4a89a9a3f374b6b96c4c860046e515119231cc009dee8b59cc1b39e",
    "pg2_3_complement": "badf72c40f9c071e575659a0480ee5a67adcee8fee6a0f918c29cf09ed9c207a",
    "pg2_4": "f8c628cbac6cca20af36b38962375a20761838bcf8aa28cefb9a859769ed4f58",
    "pg2_4_complement": "e1061c877da77ff1848743c4c8a41b2350095fdc16a925a900d7ccdaa89f4e09",
    "pg5_2_complement": "d8b9cc2f74e420f86ef40e6d2097c585d022b393f3bf731aef8eb2e353aa2a38",
    "pg5_2_hyperplanes": "16fb650d35eb6c6888a041fe6f14d3d8691d063e4a10d247841cd17d79f8dd2c",
}
BUILDER_SHA256 = [
    (build_affine_design, (3, 3, 1),
     "1eb30f354537bd87f03a7779aa1b295818b2c759507023fb3c1937dd3db493e7"),
    (build_affine_design, (4, 2, 2),
     "ebe269942591abb5cd5cc84467b5f10aae95bff7a3f609f491e92fba4204784e"),
    (build_projective_design, (3, 2, True),
     "101910c709b6937230c33f25e14a064c0338029d6b4e0f5f6f76fe8729acec97"),
]
RESTRICTED_SHA256 = {
    2: "adc314cf38c97695ac1d76a22f76e2198f4b5e600575f498078ee10ef290030f",
    3: "cc9150d4ca83c5b259387accea79104e6d16f7bd3fb353191e7b5c2bf35d07bd",
}


def digest(blocks, gens):
    text = json.dumps([[list(b) for b in blocks], [list(g.img) for g in gens]])
    return hashlib.sha256(text.encode()).hexdigest()


class TestFieldTables:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_field_axioms_exhaustively(self, q):
        f = GF(q)
        els = range(q)
        for a in els:
            assert f.add[a][0] == a and f.mul[a][1] == a and f.mul[a][0] == 0
            assert 0 in f.add[a]  # a has an additive inverse
            if a:
                assert f.mul[a][f.inv[a]] == 1
            for b in els:
                assert f.add[a][b] == f.add[b][a]
                assert f.mul[a][b] == f.mul[b][a]
                for c in els:
                    assert f.add[f.add[a][b]][c] == f.add[a][f.add[b][c]]
                    assert f.mul[f.mul[a][b]][c] == f.mul[a][f.mul[b][c]]
                    assert f.mul[a][f.add[b][c]] == f.add[f.mul[a][b]][f.mul[a][c]]

    def test_gf4_is_not_z4(self):
        f = GF(4)
        assert f.add[2][2] == 0  # characteristic 2
        assert f.mul[2][2] == 3  # w^2 = w + 1
        assert f.mul[2][3] == 1  # w * w^2 = 1

    def test_primitive_element(self):
        for q in (2, 3, 4):
            f = GF(q)
            powers = set()
            x = 1
            for _ in range(q - 1):
                x = f.mul[x][f.primitive]
                powers.add(x)
            assert len(powers) == q - 1

    def test_frobenius_is_field_automorphism(self):
        f = GF(4)
        for a in range(4):
            for b in range(4):
                assert f.frobenius(f.add[a][b]) == f.add[f.frobenius(a)][f.frobenius(b)]
                assert f.frobenius(f.mul[a][b]) == f.mul[f.frobenius(a)][f.frobenius(b)]
        assert [f.frobenius(f.frobenius(a)) for a in range(4)] == [0, 1, 2, 3]

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            GF(5)


class TestAffineDesigns:
    @pytest.mark.parametrize(
        "dim,q,block_dim,params,nblocks",
        [
            (2, 3, 1, (9, 12, 3, 4, 1), 12),
            (3, 2, 2, (8, 14, 4, 7, 3), 14),
            (2, 4, 1, (16, 20, 4, 5, 1), 20),
            (3, 3, 1, (27, 117, 3, 13, 1), 117),
            (4, 2, 2, (16, 140, 4, 35, 7), 140),
            (4, 3, 3, (81, 120, 27, 40, 13), 120),
        ],
    )
    def test_parameters(self, dim, q, block_dim, params, nblocks):
        g = build_affine_design(dim, q, block_dim)
        assert verify_design(g.structure) == params
        assert g.structure.b == nblocks

    def test_lambda_one_for_lines(self):
        for dim, q in ((2, 3), (2, 4), (3, 3)):
            g = build_affine_design(dim, q, 1)
            assert verify_design(g.structure).lam == 1

    def test_pair_count_oracle(self):
        g = build_affine_design(3, 2, 2)
        counts = pair_count_matrix(8, [frozenset(b) for b in g.structure.blocks])
        assert set(counts.values()) == {3}

    def test_group_order_formula(self):
        assert build_affine_design(2, 3, 1).group.order() == affine_group_order(2, 3)
        assert build_affine_design(3, 2, 2).group.order() == affine_group_order(3, 2)
        assert build_affine_design(2, 4, 1).group.order() == affine_group_order(2, 4)

    def test_group_preserves_blocks(self):
        for dim, q, bd in ((2, 3, 1), (3, 2, 2), (2, 4, 1)):
            g = build_affine_design(dim, q, bd)
            for p in g.group.generators:
                assert carries_blocks(p.img, g.structure.blocks, g.structure.blocks)

    def test_rejects_f2_lines(self):
        with pytest.raises(ValueError, match="planes"):
            build_affine_design(3, 2, 1)

    def test_rejects_oversize(self):
        with pytest.raises(ValueError, match="exceeds"):
            build_affine_design(5, 3, 1)


class TestProjectiveDesigns:
    def test_fano(self):
        g = build_projective_design(2, 2)
        assert verify_design(g.structure) == (7, 7, 3, 3, 1)

    def test_pg52_hyperplanes(self):
        g = build_projective_design(5, 2, hyperplanes=True)
        assert verify_design(g.structure) == (63, 63, 31, 31, 15)

    def test_pg24_lines(self):
        g = build_projective_design(2, 4)
        assert verify_design(g.structure) == (21, 21, 5, 5, 1)

    def test_pg23_lines(self):
        g = build_projective_design(2, 3)
        assert verify_design(g.structure) == (13, 13, 4, 4, 1)

    def test_pg32_planes_as_hyperplanes(self):
        g = build_projective_design(3, 2, hyperplanes=True)
        assert verify_design(g.structure) == (15, 15, 7, 7, 3)

    def test_hyperplane_pair_count_oracle(self):
        g = build_projective_design(5, 2, hyperplanes=True)
        counts = pair_count_matrix(63, [frozenset(b) for b in g.structure.blocks])
        assert set(counts.values()) == {15}

    def test_group_order_formula(self):
        assert build_projective_design(2, 2).group.order() == projective_group_order(2, 2)
        assert build_projective_design(2, 3).group.order() == projective_group_order(2, 3)
        assert build_projective_design(2, 4).group.order() == projective_group_order(2, 4)
        assert build_projective_design(5, 2, hyperplanes=True).group.order() == \
            projective_group_order(5, 2)

    def test_group_preserves_blocks(self):
        for dim, q, hyp in ((2, 2, False), (2, 4, False), (5, 2, True)):
            g = build_projective_design(dim, q, hyp)
            for p in g.group.generators:
                assert carries_blocks(p.img, g.structure.blocks, g.structure.blocks)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_planes_flag_transitive(self, q):
        g = build_projective_design(2, q)
        assert is_flag_transitive(g.structure, g.group)

    def test_rejects_oversize(self):
        with pytest.raises(ValueError, match="exceeds"):
            build_projective_design(6, 2)

    def test_deterministic_output(self):
        a = build_projective_design(2, 4)
        b = build_projective_design(2, 4)
        assert a.structure.blocks == b.structure.blocks

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError, match="dim >= 1"):
            build_projective_design(0, 2)


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(CATALOG_SHA256))
    def test_catalog_rows(self, name):
        e = entry(name)
        assert digest(e.design.blocks, e.group.generators) == CATALOG_SHA256[name]

    @pytest.mark.parametrize("builder,args,want", BUILDER_SHA256)
    def test_builders(self, builder, args, want):
        g = builder(*args)
        assert digest(g.structure.blocks, g.group.generators) == want

    @pytest.mark.parametrize("n", sorted(RESTRICTED_SHA256))
    def test_restricted_semilinear_group(self, n):
        assert digest([], restricted_semilinear_group(n).generators) == \
            RESTRICTED_SHA256[n]
