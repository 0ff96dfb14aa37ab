"""Tests for permutations, stabilizer chains and block systems."""

import hashlib
import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from symdesign.design import design_from_json
from symdesign.perm import (
    MAX_POINTS,
    Perm,
    PermGroup,
    minimal_block_systems,
    parse_generator_file,
    parse_permutation,
    rank_and_subdegrees,
)

from oracles import (
    block_systems,
    closure,
    closure_order,
    orbit_of_point,
)


def perm_strategy(degree):
    return st.permutations(range(degree)).map(Perm)


def cycle_strategy(degree):
    """One cycle on a random subset of the points, so groups vary in size."""
    return st.tuples(st.permutations(range(degree)), st.integers(1, degree)).map(
        lambda a: Perm.from_cycles([a[0][:a[1]]], degree))


def cyc(*cycles, degree):
    return Perm.from_cycles(cycles, degree)


@st.composite
def small_groups_of_large_degree(draw):
    """(n, generators) on up to MAX_POINTS points, of order at most
    2 * 7! = 10,080: 1-3 permutations of at most 7 points, and maybe an
    involution on the other points, alone or folded into the first."""
    n = draw(st.integers(2, MAX_POINTS))
    points = draw(st.permutations(range(n)))
    k = draw(st.integers(2, min(7, n)))
    support, rest = points[:k], points[k:]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        img = list(range(n))
        for x, y in zip(support, draw(st.permutations(support))):
            img[x] = y
        gens.append(Perm(img))
    m = draw(st.integers(0, len(rest) // 2))
    if m:
        swap = Perm.from_cycles(zip(rest[:m], rest[m:2 * m]), n)
        if draw(st.booleans()):
            gens[0] = gens[0] * swap
        else:
            gens.append(swap)
    return n, gens


# -- named small groups ----------------------------------------------------

S4 = [cyc((0, 1), degree=4), cyc((0, 1, 2, 3), degree=4)]
A5 = [cyc((0, 1, 2), degree=5), cyc((0, 1, 2, 3, 4), degree=5)]
C6 = [cyc((0, 1, 2, 3, 4, 5), degree=6)]
D12 = [cyc((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), degree=12),
       Perm(tuple((12 - i) % 12 for i in range(12)))]
# PSL(2,7) on the projective line over F_7, point 7 playing infinity:
# x -> x+1 and x -> -1/x
PSL27 = [cyc((0, 1, 2, 3, 4, 5, 6), degree=8),
         cyc((0, 7), (1, 6), (2, 3), (4, 5), degree=8)]
# C2 wr C2: imprimitive of order 8 on 4 points
WREATH = [cyc((0, 1), degree=4), cyc((2, 3), degree=4), cyc((0, 2), (1, 3), degree=4)]


class TestPermBasics:
    def test_composition_is_left_to_right(self):
        p = parse_permutation("(1,2)", 3)
        q = parse_permutation("(2,3)", 3)
        assert (p * q)[0] == q[p[0]] == 2
        assert (q * p)[0] == p[q[0]] == 1

    def test_inverse_and_identity(self):
        p = cyc((0, 3, 1), (2, 4), degree=5)
        assert (p * p.inv()).is_identity()
        assert (p.inv() * p).is_identity()
        assert Perm.identity(5).is_identity()

    def test_inverse_of_product(self):
        p = cyc((0, 1, 2), degree=4)
        q = cyc((1, 3), degree=4)
        assert (p * q).inv() == q.inv() * p.inv()

    def test_order_is_lcm_of_cycle_lengths(self):
        p = cyc((0, 1), (2, 3, 4), degree=5)
        assert p.order() == 6
        assert Perm.identity(3).order() == 1

    def test_from_cycles_rejects_overlap(self):
        with pytest.raises(ValueError):
            Perm.from_cycles([(0, 1), (1, 2)], 3)
        with pytest.raises(ValueError):
            Perm.from_cycles([(0, 5)], 3)

    @pytest.mark.parametrize("img", [(1.0, 0.0, 2.0), (True, False)])
    def test_images_that_are_not_ints_rejected(self, img):
        # sorted(img) == list(range(n)) holds for both
        with pytest.raises(ValueError, match="not a permutation"):
            Perm(img)

    def test_apply_to_set(self):
        p = cyc((0, 1, 2), degree=4)
        assert p.apply_to_set({0, 3}) == frozenset({1, 3})

    @given(st.permutations(range(7)))
    def test_roundtrip_cycle_string(self, img):
        p = Perm(img)
        assert parse_permutation(p.cycle_string(), 7) == p

    @given(st.permutations(range(6)), st.permutations(range(6)))
    def test_composition_convention(self, a, b):
        p, q = Perm(a), Perm(b)
        assert all((p * q)[x] == q[p[x]] for x in range(6))

    @given(st.permutations(range(6)))
    def test_order_annihilates(self, img):
        p = Perm(img)
        power = Perm.identity(6)
        for _ in range(p.order()):
            power = power * p
        assert power.is_identity()


class TestParsing:
    def test_identity_forms(self):
        assert parse_permutation("", 4).is_identity()
        assert parse_permutation("()", 4).is_identity()

    def test_trailing_punctuation(self):
        assert parse_permutation("(1,2);", 3) == parse_permutation("(1, 2).", 3)

    def test_out_of_range_point(self):
        with pytest.raises(ValueError):
            parse_permutation("(1,9)", 4)

    def test_generator_file_roundtrip(self):
        text = "degree 4\n(1,2)\n(1,2,3,4)\n"
        degree, parsed = parse_generator_file(text)
        assert degree == 4
        assert parsed == [cyc((0, 1), degree=4), cyc((0, 1, 2, 3), degree=4)]
        lines = ["degree %d" % degree] + [g.cycle_string() for g in parsed]
        assert "\n".join(lines) + "\n" == text

    def test_generator_file_comments_and_blanks(self):
        text = "# a group\ndegree 3\n\n(1,2)  # swap\n(2,3)\n"
        degree, gens = parse_generator_file(text)
        assert degree == 3 and len(gens) == 2

    def test_generator_file_requires_degree(self):
        with pytest.raises(ValueError):
            parse_generator_file("(1,2)\n")

    def test_every_boundary_keeps_points_in_one_byte(self):
        """Chain elements hold one point per byte: the scope must stay
        below 256, and every way in must enforce it."""
        assert MAX_POINTS < 256
        assert parse_generator_file("degree %d\n(1,2)\n" % MAX_POINTS)[0] == MAX_POINTS
        assert design_from_json('{"v": %d, "blocks": []}' % MAX_POINTS).v == MAX_POINTS
        assert PermGroup([], MAX_POINTS).degree == MAX_POINTS
        for reject in (lambda: parse_generator_file("degree %d\n" % (MAX_POINTS + 1)),
                       lambda: design_from_json('{"v": %d, "blocks": []}' % (MAX_POINTS + 1)),
                       lambda: PermGroup([], MAX_POINTS + 1)):
            with pytest.raises(ValueError, match="%d" % MAX_POINTS):
                reject()

    def test_generator_file_degree_above_scope(self):
        assert parse_generator_file("degree 100\n(1,2)\n")[0] == 100
        with pytest.raises(ValueError):
            parse_generator_file("degree 101\n(1,2)\n")


class TestChainOrders:
    """Group orders from the chain against exhaustive closure."""

    @pytest.mark.parametrize(
        "gens,want",
        [(S4, 24), (A5, 60), (C6, 6), (D12, 24), (PSL27, 168), (WREATH, 8)],
    )
    def test_named_groups(self, gens, want):
        g = PermGroup(gens, gens[0].degree)
        assert g.order() == want
        assert closure_order([p.img for p in gens]) == want

    def test_symmetric_and_alternating_series(self):
        for n in range(2, 8):
            sn = PermGroup([cyc((0, 1), degree=n), cyc(tuple(range(n)), degree=n)], n)
            assert sn.order() == closure_order([p.img for p in sn.generators])

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 7).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)))
    def test_random_generator_sets(self, imgs):
        gens = [Perm(t) for t in imgs]
        g = PermGroup(gens, degree=len(imgs[0]))
        assert g.order() == closure_order(imgs)

    def test_membership_matches_closure(self):
        g = PermGroup(PSL27, 8)
        elements = closure([p.img for p in PSL27])
        assert g.order() == len(elements)
        for img in itertools.islice(elements, 200):
            assert Perm(img) in g
        # an odd permutation is outside PSL(2,7)
        assert cyc((0, 1), degree=8) not in g

    def test_membership_of_another_degree_rejected(self):
        g = PermGroup(S4, 4)
        for p in (cyc((0, 1), degree=3), cyc((0, 1), degree=5), Perm.identity(5)):
            with pytest.raises(ValueError, match="degree %d does not match the group's 4"
                               % p.degree):
                g.contains(p)
            with pytest.raises(ValueError):
                p in g

    def test_generator_of_another_degree_rejected(self):
        with pytest.raises(ValueError, match="generator degree 2 is not the group's 3"):
            PermGroup([Perm((1, 0))], 3)
        with pytest.raises(ValueError, match="generator degree 4 is not the group's 3"):
            PermGroup([cyc((0, 1), degree=4)], 3)
        with pytest.raises(ValueError, match="generator degree 2 is not the group's 3"):
            PermGroup([Perm((1, 0)), Perm((1, 2, 0))], 3)

    @pytest.mark.parametrize("gens,bad", [
        ([Perm.identity(5), Perm((1, 2, 0))], 5),
        ([Perm((1, 2, 0)), Perm.identity(2)], 2),
        ([Perm.identity(4)], 4),
        ([Perm((1, 2, 0)), Perm((1, 0, 3, 2))], 4),
    ])
    def test_any_generator_of_another_degree_rejected(self, gens, bad):
        """Every generator is checked against the given degree, the
        identity too, before the identities are dropped."""
        with pytest.raises(ValueError, match="^generator degree %d is not the group's 3$" % bad):
            PermGroup(gens, 3)

    def test_identity_generators_of_the_degree_are_dropped(self):
        g = PermGroup([Perm.identity(3), Perm((1, 2, 0)), Perm.identity(3)], 3)
        assert g.generators == (Perm((1, 2, 0)),)
        assert PermGroup([Perm.identity(3)], 3).order() == 1
        with pytest.raises(TypeError):
            PermGroup([Perm((1, 2, 0))])  # the degree is always given

    def test_degree_within_scope(self):
        assert PermGroup([Perm.identity(MAX_POINTS)], MAX_POINTS).order() == 1
        assert PermGroup([cyc(tuple(range(MAX_POINTS)), degree=MAX_POINTS)],
                         MAX_POINTS).order() == MAX_POINTS
        for degree in (-1, MAX_POINTS + 1):
            with pytest.raises(ValueError, match="^degree %d outside 0..%d$"
                               % (degree, MAX_POINTS)):
                PermGroup([], degree)

    @settings(deadline=None, max_examples=60)
    @given(small_groups_of_large_degree(), st.data())
    def test_large_degree_groups_match_closure(self, group, data):
        n, gens = group
        g = PermGroup(gens, n)
        elements = closure([p.img for p in gens])
        assert g.order() == len(elements)
        assert {p.img for p in g.iter_elements()} == elements
        listed = sorted(elements)
        probes = [Perm(e) for e in listed[:: max(1, len(listed) // 50)]]
        for _ in range(20):
            e = Perm(data.draw(st.sampled_from(listed)))
            a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            probes.append(e * Perm.from_cycles([(a, b)] if a != b else [], n))
        probes.append(Perm(data.draw(st.permutations(range(n)))))
        for p in probes:
            assert g.contains(p) == (p.img in elements)

    def test_iter_elements_enumerates_exactly(self):
        g = PermGroup(A5, 5)
        got = {p.img for p in g.iter_elements()}
        assert got == closure([p.img for p in A5])

    def test_iter_elements_order_is_pinned(self):
        """The order of the transversal walk, as recorded while chain
        elements were still image tuples; PSL(2,7) at point 3 conjugates."""
        def digest(group):
            return hashlib.sha256(repr([p.img for p in group.iter_elements()]).encode()
                                  ).hexdigest()

        assert digest(PermGroup(A5, 5)) == \
            "cbd3e1829b9f7185d3b01864a517d170ce44077a8bc9dc0e4046373c9d04399c"
        psl = PermGroup(PSL27, 8)
        assert psl.base[0] == 0 and 3 in psl._trans[0]
        assert digest(psl.point_stabilizer(3)) == \
            "ffa3a05cd206a1f66dfa4da49cf4bad9124b24deacd152468e0a88c75c5301d5"

    def test_deterministic_chain(self):
        a = PermGroup(PSL27, 8)
        b = PermGroup(PSL27, 8)
        assert a.base == b.base
        assert [sorted(t) for t in a._trans] == [sorted(t) for t in b._trans]


class TestOrbitsAndStabilizers:
    def test_orbit_sorted(self):
        assert PermGroup(C6, 6).orbit(2) == [0, 1, 2, 3, 4, 5]
        assert PermGroup([cyc((0, 1), degree=4)], 4).orbit(3) == [3]
        with pytest.raises(ValueError):
            PermGroup(C6, 6).orbit(6)

    def test_point_stabilizer_small(self):
        g = PermGroup(S4, 4)
        elements = closure([p.img for p in S4])
        for pt in range(4):
            want = len({p for p in elements if p[pt] == pt})
            assert g.point_stabilizer(pt).order() == want

    @settings(deadline=None, max_examples=40)
    @given(st.integers(3, 7).flatmap(
        lambda n: st.tuples(
            st.lists(st.permutations(range(n)), min_size=1, max_size=2),
            st.integers(0, n - 1))))
    def test_orbit_stabilizer_theorem(self, args):
        imgs, point = args
        g = PermGroup([Perm(t) for t in imgs], degree=len(imgs[0]))
        assert g.order() == len(g.orbit(point)) * g.point_stabilizer(point).order()

    def test_orbits_partition_domain(self):
        g = PermGroup([cyc((0, 1, 2), (4, 5), degree=7)], 7)
        orbs = g.orbits()
        assert sorted(x for o in orbs for x in o) == list(range(7))
        assert [len(o) for o in orbs] == [3, 1, 2, 1]

    def test_transitive_regular(self):
        assert PermGroup(C6, 6).is_regular()
        assert PermGroup(S4, 4).is_transitive() and not PermGroup(S4, 4).is_regular()
        assert not PermGroup([cyc((0, 1), degree=3)], 3).is_transitive()

    def test_rank_subdegrees_s4(self):
        assert rank_and_subdegrees(PermGroup(S4, 4)) == (2, (1, 3))

    def test_rank_subdegrees_match_brute_force(self):
        for gens in (D12, PSL27, WREATH):
            g = PermGroup(gens, gens[0].degree)
            elements = closure([p.img for p in gens])
            stab = {p for p in elements if p[0] == 0}
            sizes = sorted(len(orbit_of_point(stab, x))
                           for x in range(g.degree)
                           if x == min(orbit_of_point(stab, x)))
            assert rank_and_subdegrees(g) == (len(sizes), tuple(sizes))


class TestBlockSystems:
    def test_c6_two_minimal_systems(self):
        got = minimal_block_systems(PermGroup(C6, 6))
        assert got == [((0, 3), (1, 4), (2, 5)), ((0, 2, 4), (1, 3, 5))]

    def test_primitive_group_has_none(self):
        assert minimal_block_systems(PermGroup(A5, 5)) == []
        assert minimal_block_systems(PermGroup(PSL27, 8)) == []

    def test_wreath_system(self):
        got = minimal_block_systems(PermGroup(WREATH, 4))
        assert got == [((0, 1), (2, 3))]

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 8).flatmap(lambda n: st.lists(
        st.one_of(cycle_strategy(n), perm_strategy(n)), min_size=1, max_size=3)))
    @example(C6)
    @example(D12)
    @example(WREATH)
    @example([cyc((0, 1, 2, 3, 4, 5, 6, 7), degree=8)])
    @example([cyc((0, 1, 2), (3, 4, 5), degree=6), cyc((0, 3), (1, 4), (2, 5), degree=6)])
    def test_minimal_systems_against_brute_force(self, gens):
        g = PermGroup(gens, gens[0].degree)
        assume(g.is_transitive())
        elements = closure([p.img for p in gens])
        all_sys = block_systems(elements, g.degree)

        def refines(a, b):
            where = {x: i for i, cls in enumerate(b) for x in cls}
            return all(len({where[x] for x in cls}) == 1 for cls in a)

        minimal = [s for s in all_sys
                   if not any(t != s and refines(t, s) for t in all_sys)]
        got = minimal_block_systems(g)
        assert sorted(got) == sorted(tuple(s) for s in minimal)


# 1-3 generators on at most 8 points, each a random cycle or permutation;
# point pairs are drawn for the stabilizer checks
groups_and_points = st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.lists(st.one_of(cycle_strategy(n), perm_strategy(n)), min_size=1, max_size=3),
    st.integers(0, n - 1), st.integers(0, n - 1)))


def assert_matches(group, elements):
    """group has exactly the given elements: order, chain, generators, orbits."""
    assert group.order() == len(elements)
    assert {p.img for p in group.iter_elements()} == elements
    for g in group.generators:
        assert g.img in elements
    for x in range(group.degree):
        assert group.orbit(x) == sorted(orbit_of_point(elements, x))


class TestDerivedChains:
    """Stabilizers read off a chain, and extended chains, against closure."""

    @settings(deadline=None, max_examples=80)
    @given(groups_and_points)
    def test_nested_point_stabilizers(self, args):
        gens, p, q = args
        n = gens[0].degree
        g = PermGroup(gens, n)
        everything = closure([h.img for h in gens])
        for x in range(n):
            assert_matches(g.point_stabilizer(x), {e for e in everything if e[x] == x})
        elements = everything
        stab = g
        for pick in (p, q, p + q):
            # prefer moved points: a fixed point just returns the group
            moved = sorted({x for h in stab.generators for c in h.cycles() for x in c})
            point = moved[pick % len(moved)] if moved else pick % n
            stab = stab.point_stabilizer(point)
            elements = {e for e in elements if e[point] == point}
            assert_matches(stab, elements)
        for e in sorted(everything)[:: max(1, len(everything) // 300)]:
            assert stab.contains(Perm(e)) == (e in elements)

    @settings(deadline=None, max_examples=60)
    @given(groups_and_points)
    def test_extension_matches_fresh_group(self, args):
        gens, p, _ = args
        n = gens[0].degree
        extra = gens[0] * gens[-1]  # already a member
        grown = PermGroup(gens[:1], n)
        for h in gens[1:] + [extra]:
            grown = grown.extend(h)
        fresh = PermGroup(gens + [extra], n)
        elements = closure([h.img for h in gens])
        assert grown.generators == fresh.generators
        assert grown.order() == fresh.order()
        assert_matches(grown, elements)
        assert_matches(grown.point_stabilizer(p), {e for e in elements if e[p] == p})

    def test_first_orbit_stabilizer_runs_no_schreier_sims(self, monkeypatch):
        g = PermGroup(PSL27, 8)
        intransitive = PermGroup([cyc((0, 1, 2), degree=5), cyc((3, 4), degree=5)], 5)
        # reading the chains builds them, before the counting starts
        first_orbit = list(g._trans[0])
        assert intransitive.base[0] == 0
        builds, chains = [], []
        real, real_chain = PermGroup.__init__, PermGroup._build_chain
        monkeypatch.setattr(PermGroup, "__init__", lambda self, *args, **kwargs:
                            builds.append(self) or real(self, *args, **kwargs))
        monkeypatch.setattr(PermGroup, "_build_chain", lambda self, *args:
                            chains.append(self) or real_chain(self, *args))
        for point in first_orbit:
            assert g.point_stabilizer(point).order() == 21
        assert builds == []
        assert chains == []
        # a moved point outside the first basic orbit costs one build
        assert intransitive.point_stabilizer(3).order() == 3
        assert len(builds) == 1
        assert len(chains) == 1


def chain_of(group):
    """Everything a chain fixes: base, strong generators, the points of each
    transversal in insertion order, and the order."""
    return (group.base, group.strong_generators(),
            [list(level) for level in group._trans], group.order())


# each query that can be the first to read a lazily built chain
FIRST_QUERIES = {
    "order": lambda g, h, p: g.order(),
    "contains": lambda g, h, p: g.contains(h),
    "point_stabilizer": lambda g, h, p: g.point_stabilizer(p).order(),
    "extend": lambda g, h, p: g.extend(h).order(),
    "strong_generators": lambda g, h, p: g.strong_generators(),
    "base": lambda g, h, p: g.base,
}


class TestLazyChains:
    def test_construction_builds_no_chain(self, monkeypatch):
        chains = []
        real = PermGroup._build_chain
        monkeypatch.setattr(PermGroup, "_build_chain", lambda self, *args:
                            chains.append(self) or real(self, *args))
        g = PermGroup(PSL27, 8)
        assert (g.orbits(), g.is_transitive(), len(g.generators)) == ([list(range(8))], True, 2)
        assert chains == []
        assert g.order() == 168
        assert chains == [g]

    def test_chain_is_the_one_built_at_construction_before(self):
        g = PermGroup(PSL27, 8)
        assert g.point_stabilizer(3).order() == 21  # the first read of the chain
        assert chain_of(g) == (
            (0, 1, 2),
            tuple(parse_permutation(c, 8) for c in (
                "(1,2,3,4,5,6,7)", "(1,8)(2,7)(3,4)(5,6)", "(2,8,7,4,3,6,5)", "(3,7,8)(4,6,5)")),
            [[0, 1, 7, 2, 6, 3, 4, 5], [1, 7, 6, 3, 2, 5, 4], [2, 6, 7]],
            168)

    def test_missing_attributes_still_raise(self):
        g = PermGroup(S4, 4)
        with pytest.raises(AttributeError):
            g.no_such_attribute
        assert not hasattr(g, "_no_such_level")

    @settings(deadline=None, max_examples=80)
    @given(groups_and_points, st.sampled_from(sorted(FIRST_QUERIES)))
    def test_first_query_does_not_change_the_chain(self, args, query):
        gens, p, q = args
        n = gens[0].degree
        h = Perm.from_cycles([(p, q)], n) if p != q else gens[0] * gens[-1]
        eager = PermGroup(gens, n)
        reference = chain_of(eager)  # read at once, as a build in __init__ would
        lazy = PermGroup(gens, n)
        FIRST_QUERIES[query](lazy, h, p)
        assert chain_of(lazy) == reference
        assert chain_of(lazy.extend(h)) == chain_of(eager.extend(h))
        assert chain_of(lazy.point_stabilizer(q)) == chain_of(eager.point_stabilizer(q))
