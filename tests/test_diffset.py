"""Difference-set verification, development, and regular-subgroup search."""

import hashlib
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import difference_sets, right_regular
from symdesign import diffset
from symdesign.catalog import entry
from symdesign.cli import main
from symdesign.design import DesignError, induced_block_action, verify_design
from symdesign.diffset import BudgetExhausted, RegularAction, \
    develop_difference_set, find_regular_subgroups, is_difference_set
from symdesign.iso import automorphism_group
from symdesign.perm import Perm, PermGroup


def translation_group() -> PermGroup:
    gens = [Perm(tuple(x ^ (1 << i) for x in range(64))) for i in range(6)]
    return PermGroup(gens, 64)


def quadric_zero_set() -> list[int]:
    # x1*x2 + x3*x4 + x5^2 + x5*x6 + x6^2 over F_2, bit i = coordinate i+1
    pts = []
    for x in range(64):
        b = [(x >> i) & 1 for i in range(6)]
        if ((b[0] & b[1]) ^ (b[2] & b[3]) ^ b[4] ^ (b[4] & b[5]) ^ b[5]) == 0:
            pts.append(x)
    return pts


@pytest.fixture(scope="module")
def translations() -> RegularAction:
    return RegularAction.from_group(translation_group())


class TestRegularAction:
    def test_from_group_bijection(self, translations):
        assert len(translations.element_of) == 64
        for point, g in translations.element_of.items():
            assert g[0] == point

    def test_rejects_nonregular(self):
        s4 = PermGroup([Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))], 4)
        with pytest.raises(ValueError):
            RegularAction.from_group(s4)


class TestIsDifferenceSet:
    def test_quadric_set_has_lambda_12(self, translations):
        d = quadric_zero_set()
        assert len(d) == 28 and 0 in d
        ok, report = is_difference_set(translations, d, 12)
        assert ok and report == []

    def test_quadric_matches_xor_count(self):
        # translations compose by xor, so the quotient counts are
        # independently the multiset of pairwise xors
        d = quadric_zero_set()
        for c in range(1, 64):
            count = sum(1 for p in d for q in d if p != q and p ^ q == c)
            assert count == 12

    def test_whole_group_gives_k_everywhere(self, translations):
        ok, report = is_difference_set(translations, range(64), 64)
        assert ok and report == []

    def test_random_subset_rejected_with_witness(self, translations):
        d = random.Random(7).sample(range(64), 28)
        ok, report = is_difference_set(translations, d, 12)
        assert not ok and report
        witness, count = report[0]
        c = witness[0]  # the translation amount
        assert count == sum(1 for p in d for q in d if p != q and p ^ q == c)
        assert count != 12

    def test_points_outside_action_rejected(self, translations):
        with pytest.raises(ValueError):
            is_difference_set(translations, {0, 70}, 1)


def cyclic(n: int) -> RegularAction:
    return RegularAction.from_group(
        PermGroup([Perm(tuple((x + 1) % n for x in range(n)))], n))


def cyclic_brute_force(n: int, k: int, lam: int) -> list[tuple[int, ...]]:
    """The k-subsets of Z_n whose differences p - q mod n hit every nonzero
    residue lam times."""
    def balanced(d):
        counts = Counter((p - q) % n for p in d for q in d if p != q)
        return all(counts[c] == lam for c in range(1, n))
    return [d for d in itertools.combinations(range(n), k) if balanced(d)]


@st.composite
def small_groups(draw) -> tuple[list, object]:
    """(elements, product) of Z_a x Z_b or D_2m, of order <= 13, identity
    first."""
    if draw(st.booleans()):
        a = draw(st.integers(2, 13))
        moduli = (a, draw(st.integers(1, 13 // a)))
        elements = list(itertools.product(range(moduli[0]), range(moduli[1])))

        def mul(x, y):
            return tuple((p + q) % m for p, q, m in zip(x, y, moduli))
    else:
        m = draw(st.integers(2, 6))
        elements = [(r, s) for r in range(m) for s in range(2)]

        def mul(x, y):
            # r^m = s^2 = 1, s r s = r^-1
            return ((x[0] + (y[0] if x[1] == 0 else -y[0])) % m, (x[1] + y[1]) % 2)
    return elements, mul


class TestDifferenceSets:
    @pytest.mark.parametrize("n, k, lam, count", [
        (7, 3, 1, 14), (11, 5, 2, 22), (13, 4, 1, 52), (15, 7, 3, 30),
        (16, 6, 2, 0), (7, 0, 0, 1), (7, 0, 1, 0), (7, 1, 0, 7), (7, 1, 1, 0),
        (7, 7, 7, 1), (7, 7, 6, 0)])
    def test_cyclic_counts_match_brute_force(self, n, k, lam, count):
        found = difference_sets(cyclic(n), k, lam)
        assert len(found) == count
        assert found == cyclic_brute_force(n, k, lam)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), small_groups())
    def test_matches_brute_force_on_small_groups(self, data, group):
        """The difference sets are the subsets whose quotients x y^-1,
        taken in the group's own product, hit each non-identity element
        lambda times."""
        elements, mul = group
        n = len(elements)
        k = data.draw(st.sampled_from(
            [k for k in range(n + 1) if k * (k - 1) % (n - 1) == 0]))
        lam = k * (k - 1) // (n - 1)
        inverse = {x: next(y for y in elements if mul(x, y) == elements[0])
                   for x in elements}

        def balanced(d):
            counts = Counter(mul(elements[p], inverse[elements[q]])
                             for p in d for q in d if p != q)
            return all(counts[e] == lam for e in elements[1:])
        want = [d for d in itertools.combinations(range(n), k) if balanced(d)]
        assert difference_sets(right_regular(elements, mul), k, lam) == want


class TestDevelopment:
    def test_quadric_development_is_symmetric_design(self, translations):
        dev = develop_difference_set(translations, quadric_zero_set())
        assert verify_design(dev) == (64, 64, 28, 28, 12)

    def test_development_invariant_under_translation(self, translations):
        d = quadric_zero_set()
        base = develop_difference_set(translations, d)
        for g in translations.group.generators:
            shifted = develop_difference_set(translations, g.apply_to_set(d))
            assert base.block_multiset() == shifted.block_multiset()

    def test_group_acts_on_development(self, translations):
        dev = develop_difference_set(translations, quadric_zero_set())
        for g in translations.group.generators:
            induced_block_action(dev, g)

    def test_empty_subset_rejected(self, translations):
        with pytest.raises(ValueError):
            develop_difference_set(translations, ())

    def test_singleton_development_is_not_a_design(self, translations):
        dev = develop_difference_set(translations, {0})
        assert dev.v == 64 and len(dev.blocks) == 64
        with pytest.raises(DesignError):
            verify_design(dev)


class TestFindRegularSubgroups:
    def test_regular_group_finds_itself(self):
        g = translation_group()
        actions = find_regular_subgroups(g, limit=2)
        assert len(actions) == 1
        assert set(actions[0].group.iter_elements()) == set(g.iter_elements())

    def test_s3_yields_the_rotation_subgroup(self):
        s3 = PermGroup([Perm((1, 0, 2)), Perm((1, 2, 0))], 3)
        actions = find_regular_subgroups(s3, limit=5)
        assert len(actions) == 1
        assert actions[0].group.order() == 3
        assert all(p.is_identity() or len(p.cycles()) == 1
                   for p in actions[0].group.iter_elements())

    def test_s4_has_four_regular_subgroups(self):
        s4 = PermGroup([Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))], 4)
        actions = find_regular_subgroups(s4, limit=10)
        # three cyclic groups on a 4-cycle and the fixed-point-free fours group
        assert len(actions) == 4
        orders = sorted(max(p.order() for p in a.group.iter_elements())
                        for a in actions)
        assert orders.count(4) == 3 and orders.count(2) == 1

    def test_projective_line_group_has_none(self):
        # order-6 subgroups all contain an involution, and involutions fix
        # two points of the projective line over F_5
        cycle = Perm((1, 2, 3, 4, 0, 5))
        inversion = Perm.from_cycles([(0, 5), (1, 4)], 6)
        psl = PermGroup([cycle, inversion], 6)
        assert psl.order() == 60
        assert find_regular_subgroups(psl, limit=1) == []

    def test_budget_zero_raises(self):
        with pytest.raises(BudgetExhausted):
            find_regular_subgroups(translation_group(), limit=1, budget=0)

    def test_budget_exhausted_after_a_find_returns_it(self):
        s4 = PermGroup([Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))], 4)
        actions = find_regular_subgroups(s4, limit=10, budget=2)
        assert len(actions) == 1
        assert actions[0].group.order() == 4

    def test_intransitive_rejected(self):
        g = PermGroup([Perm((1, 0, 2, 3))], 4)
        with pytest.raises(ValueError):
            find_regular_subgroups(g)


# sha256 digests recorded before the found subgroups were built through
# RegularAction.from_group: [exit code, stdout, stderr] of `diffset regular
# --limit 4` on the generators `aut` prints for d64-1, and the JSON list of
# the generator image tuples of find_regular_subgroups(Aut(d64-1), limit=4)
REGULAR_CLI_SHA256 = \
    "ad3a590555c97a72c18e8176098cfd2fc6c7e73a8ecb37f0b128cdb9a374131c"
REGULAR_GENERATORS_SHA256 = \
    "4ba0a5bcfbdda2bac3f4b989905267136a53a148c024e1894294b91a4370dd0a"


class TestRegularPinned:
    def test_cli_regular_on_the_printed_group(self, capsys, tmp_path):
        design, gens = tmp_path / "d64-1.json", tmp_path / "aut.gens"
        assert main(["construct", "d64-1", "--out", str(design)]) == 0
        assert main(["aut", str(design)]) == 0
        printed = capsys.readouterr().out.splitlines()
        gens.write_text("\n".join(["degree 64"] + printed[1:]) + "\n")
        code = main(["diffset", "regular", str(gens), "--limit", "4"])
        captured = capsys.readouterr()
        record = json.dumps([code, captured.out, captured.err])
        assert hashlib.sha256(record.encode()).hexdigest() == REGULAR_CLI_SHA256

    def test_found_generators(self):
        found = find_regular_subgroups(automorphism_group(entry("d64-1").design), limit=4)
        images = [[p.img for p in a.group.generators] for a in found]
        digest = hashlib.sha256(json.dumps(images).encode()).hexdigest()
        assert digest == REGULAR_GENERATORS_SHA256


@st.composite
def uniform_or_random_perms(draw) -> Perm:
    """Random permutations, and half the time one whose cycles all have one
    length d dividing the degree (d = 1 is the identity)."""
    n = draw(st.integers(min_value=0, max_value=12))
    points = draw(st.permutations(range(n)))
    if n and draw(st.booleans()):
        d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        return Perm.from_cycles([points[i:i + d] for i in range(0, n, d)], n)
    return Perm(points)


@settings(max_examples=300, deadline=None)
@given(uniform_or_random_perms())
def test_semiregular_walk_matches_the_cycle_type(p):
    """The early-exit walk agrees with the cycle-type predicate: no fixed
    point, and one length over Perm.cycles()."""
    want = (not any(p[x] == x for x in range(p.degree))
            and len({len(c) for c in p.cycles()}) == 1)
    assert diffset._semiregular(p) == want


class TestMainDesign:
    def test_regular_subgroup_recovers_the_design(self, d64):
        aut = automorphism_group(d64.d1)
        actions = find_regular_subgroups(aut, limit=1)
        assert len(actions) == 1
        action = actions[0]
        assert action.group.order() == 64
        # a regular 2-subgroup: every element order is a power of two
        assert all(p.order() & (p.order() - 1) == 0
                   for p in action.group.iter_elements())
        d = d64.base1
        ok, report = is_difference_set(action, d, 12)
        assert ok and report == []
        dev = develop_difference_set(action, d)
        assert dev.block_multiset() == d64.d1.block_multiset()
