"""Tests for incidence structures, design verification, and development."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from symdesign.design import (
    DesignError,
    IncidenceStructure,
    complement,
    design_from_json,
    design_to_json,
    develop,
    carries_blocks,
    induced_block_action,
    is_flag_transitive,
    is_point_primitive,
    verify_design,
)
from symdesign.perm import Perm, PermGroup, minimal_block_systems

from oracles import closure, design_check, flag_transitive
from test_perm import C6, D12, PSL27, WREATH, cycle_strategy, perm_strategy


def cyc(*cycles, degree):
    return Perm.from_cycles(cycles, degree)


def fano():
    # development of {0,1,3} under x -> x+1 (mod 7)
    return develop(PermGroup([cyc(tuple(range(7)), degree=7)], 7), {0, 1, 3})


def complete_design(v, k):
    return IncidenceStructure(v, itertools.combinations(range(v), k))


def numpy_pair_oracle(s):
    """Independent check via the incidence matrix: N N^T = (r-lam) I + lam J."""
    n = np.zeros((s.v, len(s.blocks)), dtype=np.int64)
    for j, blk in enumerate(s.blocks):
        for x in blk:
            n[x, j] = 1
    m = n @ n.T
    diag = np.diag(m)
    off = m[~np.eye(s.v, dtype=bool)]
    if len(set(len(b) for b in s.blocks)) != 1:
        return None
    if np.ptp(diag) != 0 or np.ptp(off) != 0 or off[0] == 0:
        return None
    return int(diag[0]), int(off[0])


@st.composite
def structure_cases(draw):
    """Structures on at most 20 points that reach every axiom check: random
    blocks (unequal sizes, replication that varies), the translates of one
    random set mod v (constant replication, pair counts that vary, pair
    (0,1) often in no block, sometimes a difference set), and complete
    designs; each possibly repeated, then possibly with one block replaced."""
    v = draw(st.integers(1, 20))
    subsets = st.sets(st.integers(0, v - 1), min_size=1, max_size=v)
    kind = draw(st.sampled_from(["random", "cyclic", "complete"]))
    if kind == "cyclic":
        base = draw(subsets)
        blocks = [[(x + t) % v for x in base] for t in range(v)]
    elif kind == "complete" and 3 <= v <= 8:
        blocks = list(itertools.combinations(range(v), draw(st.integers(2, v - 1))))
    else:
        blocks = draw(st.lists(subsets, max_size=12))
    blocks *= draw(st.integers(1, 2))
    if blocks and draw(st.booleans()):
        blocks[draw(st.integers(0, len(blocks) - 1))] = draw(subsets)
    return IncidenceStructure(v, blocks)


class TestVerify:
    def test_fano(self):
        assert verify_design(fano()) == (7, 7, 3, 3, 1)

    def test_complete_design_on_four_points(self):
        assert verify_design(complete_design(4, 2)) == (4, 6, 2, 3, 1)

    def test_d64_development(self, d64):
        d = develop(d64.group, d64.base1)
        assert verify_design(d) == (64, 64, 28, 28, 12)

    def test_repeated_blocks_count_with_multiplicity(self):
        one = fano()
        doubled = IncidenceStructure(7, one.blocks + one.blocks)
        assert verify_design(doubled) == (7, 14, 3, 6, 2)

    def test_unequal_block_sizes_witnessed(self):
        s = IncidenceStructure(4, [(0, 1), (0, 1, 2)])
        with pytest.raises(DesignError, match="unequal sizes"):
            verify_design(s)

    def test_nonconstant_replication_witnessed(self):
        s = IncidenceStructure(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(DesignError, match="replication"):
            verify_design(s)

    def test_nonconstant_pairs_witnessed(self):
        s = IncidenceStructure(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(DesignError, match="pair"):
            verify_design(s)

    def test_block_size_one_rejected(self):
        with pytest.raises(DesignError, match="below 2"):
            verify_design(IncidenceStructure(3, [(0,), (1,), (2,)]))

    def test_fisher_identities(self):
        for s in (fano(), complete_design(6, 3), complete_design(5, 4)):
            p = verify_design(s)
            assert p.v * p.r == p.b * p.k
            assert p.lam * (p.v - 1) == p.r * (p.k - 1)
            assert p.k <= p.r

    @pytest.mark.parametrize("v,k", [(4, 2), (5, 2), (6, 3), (7, 3), (8, 4), (9, 2)])
    def test_against_incidence_matrix_oracle(self, v, k):
        s = complete_design(v, k)
        p = verify_design(s)
        assert numpy_pair_oracle(s) == (p.r, p.lam)

    def test_oracle_rejects_what_verify_rejects(self):
        s = IncidenceStructure(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert numpy_pair_oracle(s) is None

    @settings(deadline=None, max_examples=400)
    @given(structure_cases())
    def test_same_verdict_as_the_pair_table(self, s):
        """Equal parameters, or the same DesignError message, as a v x v
        pair table filled block by block."""
        try:
            got = ("ok", tuple(verify_design(s)))
        except DesignError as err:
            got = ("error", str(err))
        assert got == design_check(s.v, list(s.blocks))


class TestComplement:
    def test_involution(self):
        s = fano()
        assert complement(complement(s)) == s

    def test_parameter_formula(self):
        for s in (fano(), complete_design(7, 3), complete_design(6, 2)):
            p = verify_design(s)
            q = verify_design(complement(s))
            assert q == (p.v, p.b, p.v - p.k, p.b - p.r, p.b - 2 * p.r + p.lam)

    def test_too_small_rejected(self):
        s = complete_design(4, 3)
        with pytest.raises(DesignError, match="complement"):
            complement(s)


class TestDevelop:
    def test_group_without_generators_keeps_its_degree(self):
        d = develop(PermGroup([], 10), [0, 1])
        assert d.v == 10 and d.blocks == ((0, 1),)

    def test_base_point_outside_the_group_rejected(self):
        with pytest.raises(ValueError, match="outside the group's 4 points"):
            develop(PermGroup([], 4), [1, 4])

    def test_s4_pairs(self):
        s4 = PermGroup([cyc((0, 1), degree=4), cyc((0, 1, 2, 3), degree=4)], 4)
        d = develop(s4, {0, 1})
        assert d.blocks == tuple(itertools.combinations(range(4), 2))

    def test_development_admits_group(self):
        s4 = PermGroup([cyc((0, 1), degree=4), cyc((0, 1, 2, 3), degree=4)], 4)
        d = develop(s4, {0, 1, 2})
        for g in s4.generators:
            assert carries_blocks(g.img, d.blocks, d.blocks)

    def test_blocks_sorted_canonically(self):
        d = fano()
        assert list(d.blocks) == sorted(d.blocks)


class TestBlockAction:
    def test_cyclic_shift_on_fano(self):
        d = fano()
        sigma = induced_block_action(d, cyc(tuple(range(7)), degree=7))
        assert sorted(sigma.img) == list(range(7))

    def test_non_automorphism_witnessed(self):
        d = fano()
        with pytest.raises(DesignError, match="not a block"):
            induced_block_action(d, cyc((0, 1), degree=7))

    def test_complete_design_accepts_everything(self):
        d = complete_design(5, 2)
        for img in itertools.permutations(range(5)):
            induced_block_action(d, Perm(img))

    def test_duplicate_blocks_matched_in_order(self):
        d = IncidenceStructure(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
        sigma = induced_block_action(d, Perm.identity(3))
        assert sigma.is_identity()

    def test_action_is_homomorphism_on_fano(self):
        d = fano()
        p = cyc(tuple(range(7)), degree=7)
        q = cyc((1, 2, 4), (3, 6, 5), degree=7)  # x -> 2x fixes the line set
        sp, sq = induced_block_action(d, p), induced_block_action(d, q)
        assert induced_block_action(d, p * q) == sp * sq


class TestFlagTransitivity:
    def test_frobenius_on_fano(self):
        d = fano()
        g = PermGroup([cyc(tuple(range(7)), degree=7),
                       cyc((1, 2, 4), (3, 6, 5), degree=7)], 7)
        assert g.order() == 21
        assert is_flag_transitive(d, g)

    def test_bare_cycle_is_not(self):
        d = fano()
        g = PermGroup([cyc(tuple(range(7)), degree=7)], 7)
        assert not is_flag_transitive(d, g)

    def test_symmetric_group_on_complete_design(self):
        d = complete_design(5, 2)
        g = PermGroup([cyc((0, 1), degree=5), cyc(tuple(range(5)), degree=5)], 5)
        assert is_flag_transitive(d, g)

    def test_non_automorphism_generator_rejected(self):
        d = fano()
        g = PermGroup([cyc((0, 1), degree=7)], 7)
        with pytest.raises(DesignError):
            is_flag_transitive(d, g)

    # 1-3 generators on at most 8 points, each a random cycle or permutation,
    # and a base block to develop under them; the group need not be
    # transitive, since only the points on blocks carry flags
    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.lists(st.one_of(cycle_strategy(n), perm_strategy(n)), min_size=1, max_size=3),
        st.sets(st.integers(0, n - 1), min_size=1))))
    @example(([cyc(tuple(range(7)), degree=7), cyc((1, 2, 4), (3, 6, 5), degree=7)],
              {0, 1, 3}))
    @example(([cyc(tuple(range(7)), degree=7)], {0, 1, 3}))
    @example(([cyc((0, 1), degree=4)], {0}))
    @example(([cyc(tuple(range(6)), degree=6)], {0, 3}))
    def test_against_flag_orbit_oracle(self, args):
        gens, base = args
        g = PermGroup(gens, gens[0].degree)
        d = develop(g, base)
        elements = closure([p.img for p in gens])
        assert is_flag_transitive(d, g) == flag_transitive(elements, list(d.blocks))
        doubled = list(d.blocks) * 2
        assert not flag_transitive(elements, doubled)
        assert not is_flag_transitive(IncidenceStructure(d.v, doubled), g)


class TestPointPrimitivity:
    def test_prime_degree_is_primitive(self):
        d = fano()
        g = PermGroup([cyc(tuple(range(7)), degree=7)], 7)
        assert is_point_primitive(d, g)

    def test_complete_design_with_symmetric_group(self):
        d = complete_design(6, 3)
        g = PermGroup([cyc((0, 1), degree=6), cyc(tuple(range(6)), degree=6)], 6)
        assert is_point_primitive(d, g)

    def test_imprimitive_group_detected(self):
        d = complete_design(4, 2)
        wreath = PermGroup([cyc((0, 1), degree=4), cyc((2, 3), degree=4),
                            cyc((0, 2), (1, 3), degree=4)], 4)
        assert not is_point_primitive(d, wreath)

    def test_intransitive_rejected(self):
        d = complete_design(4, 2)
        with pytest.raises(ValueError, match="transitive"):
            is_point_primitive(d, PermGroup([cyc((0, 1), degree=4)], 4))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            is_point_primitive(complete_design(5, 2), PermGroup(WREATH, 4))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 8).flatmap(lambda n: st.lists(
        st.one_of(cycle_strategy(n), perm_strategy(n)), min_size=1, max_size=3)))
    @example(C6)
    @example(D12)
    @example(WREATH)
    @example(PSL27)
    def test_primitive_exactly_without_minimal_block_systems(self, gens):
        g = PermGroup(gens, gens[0].degree)
        assume(g.is_transitive())
        d = develop(g, [0])
        assert is_point_primitive(d, g) == (not minimal_block_systems(g))


class TestSerialization:
    def test_roundtrip(self):
        d = fano()
        assert design_from_json(design_to_json(d)) == d

    def test_one_based_points_in_text(self):
        d = IncidenceStructure(3, [(0, 2)])
        assert '"blocks":[[1,3]]' in design_to_json(d)

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError):
            design_from_json('{"points": 3}')


class TestRandomized:
    @settings(deadline=None, max_examples=50)
    @given(st.integers(4, 9).flatmap(
        lambda v: st.tuples(st.just(v), st.integers(2, v - 2))))
    def test_complete_designs_satisfy_identities(self, vk):
        v, k = vk
        p = verify_design(complete_design(v, k))
        assert p.v * p.r == p.b * p.k
        assert p.lam * (p.v - 1) == p.r * (p.k - 1)
        assert p.k <= p.r
        assert numpy_pair_oracle(complete_design(v, k)) == (p.r, p.lam)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(5, 9).flatmap(
        lambda v: st.tuples(st.just(v), st.integers(2, v - 3))))
    def test_complement_involution_random(self, vk):
        v, k = vk
        s = complete_design(v, k)
        assert complement(complement(s)) == s

    @settings(deadline=None, max_examples=40)
    @given(st.integers(4, 7).flatmap(
        lambda n: st.tuples(
            st.lists(st.permutations(range(n)), min_size=1, max_size=2),
            st.sets(st.integers(0, n - 1), min_size=2, max_size=n - 1))))
    def test_develop_always_admits_group(self, args):
        imgs, base = args
        n = len(imgs[0])
        gens = [Perm(t) for t in imgs]
        d = develop(PermGroup(gens, n), base)
        for g in gens:
            assert carries_blocks(g.img, d.blocks, d.blocks)
