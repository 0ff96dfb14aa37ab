"""Tests for field tables and affine/projective designs."""

import pytest

from symdesign.design import carries_blocks, is_flag_transitive, verify_design
from symdesign.geometry import (
    GF,
    affine_group_order,
    build_affine_design,
    build_projective_design,
    projective_group_order,
)

from oracles import pair_count_matrix


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
