"""Tests for isomorphism testing and automorphism groups of structures."""

import hashlib
import json
import operator
import random
from collections import deque
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from symdesign import iso
from symdesign.catalog import biplane_classes, entry
from symdesign.design import IncidenceStructure, carries_blocks, complement, develop, \
    induced_block_action
from symdesign.geometry import build_affine_design
from symdesign.iso import are_isomorphic, automorphism_group
from symdesign.perm import Perm, PermGroup


def fano():
    return develop(PermGroup([Perm.from_cycles([(0, 1, 2, 3, 4, 5, 6)], 7)], 7), (0, 1, 3))


def relabel(s: IncidenceStructure, p: Perm) -> IncidenceStructure:
    return IncidenceStructure(
        s.v, sorted(tuple(sorted(p[x] for x in b)) for b in s.blocks))


def assert_witness(s1: IncidenceStructure, s2: IncidenceStructure, w: Perm):
    mapped = sorted(tuple(sorted(w[x] for x in b)) for b in s1.blocks)
    assert mapped == list(s2.blocks)


def assert_same_verdict_with_target_group(s1, s2, got):
    """Once Aut(s2) is kept on s2, a repeated call reuses it and gives the
    same map as the first."""
    automorphism_group(s2)
    assert s2._aut is not None
    assert are_isomorphic(s1, s2) == got


class TestAutomorphismGroups:
    def test_fano(self):
        a = automorphism_group(fano())
        assert a.order() == 168

    def test_fano_matches_brute_force(self):
        s = fano()
        brute = oracles.isomorphisms(7, list(s.blocks), list(s.blocks))
        a = automorphism_group(s)
        assert a.order() == len(brute)
        assert all(a.contains(Perm(p)) for p in brute)

    def test_generators_are_automorphisms(self):
        s = fano()
        for g in automorphism_group(s).generators:
            induced_block_action(s, g)  # raises if not block-preserving

    def test_affine_planes(self):
        ag = build_affine_design(3, 2, 2)
        assert automorphism_group(ag.structure).order() == 1344

    def test_known_subgroup_is_kept(self):
        ag = build_affine_design(2, 3, 1)
        a = automorphism_group(ag.structure, known=ag.group)
        assert all(a.contains(g) for g in ag.group.generators)
        assert a.order() % ag.group.order() == 0

    def test_wrong_hint_cannot_inflate_the_group(self):
        s = fano()
        hint = PermGroup([Perm.from_cycles([(0, 1)], 7)], 7)
        a = automorphism_group(s, known=hint)
        assert a.order() == 168
        for g in a.generators:
            induced_block_action(s, g)  # raises if not block-preserving

    def test_hint_of_automorphisms_is_the_starting_group(self, monkeypatch):
        """A hint whose generators all carry the blocks is extended as it is:
        its chain, already built, is not built again over the same
        generators.  The result's generators are the ones a new group on the
        hint's generators gives, whatever chain the hint has, and a hint of
        the whole group comes back itself."""
        s = fano()
        frobenius = [Perm.from_cycles([(0, 1, 2, 3, 4, 5, 6)], 7), Perm((0, 2, 4, 6, 1, 3, 5))]
        hint = PermGroup(frobenius, 7)
        assert hint.order() == 21
        builds = []
        real = PermGroup._build_chain
        monkeypatch.setattr(PermGroup, "_build_chain",
                            lambda g: builds.append(g.generators) or real(g))
        a = automorphism_group(s, known=hint)
        assert a.order() == 168 and a.generators[:2] == hint.generators
        assert hint.generators not in builds
        for other in (PermGroup(frobenius, 7), PermGroup(frobenius, 7, _base_hint=[3, 5])):
            assert automorphism_group(s, known=other).generators == a.generators
        assert automorphism_group(s, known=a) is a
        assert s._aut is None

    def test_complement_has_same_group(self):
        s = fano()
        a1 = automorphism_group(s)
        a2 = automorphism_group(complement(s))
        assert a1.order() == a2.order()
        assert all(a2.contains(g) for g in a1.generators)

    def test_trivial_group(self):
        # an asymmetric structure: no nontrivial degree-preserving map survives
        s = IncidenceStructure(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 1, 2)])
        assert automorphism_group(s).order() == len(
            oracles.isomorphisms(5, list(s.blocks), list(s.blocks))) == 1

    def test_complete_design_gives_symmetric_group(self):
        import itertools
        s = IncidenceStructure(6, list(itertools.combinations(range(6), 3)))
        assert automorphism_group(s).order() == 720

    def test_degree_cap(self):
        s = IncidenceStructure(101, [tuple(range(101))])
        with pytest.raises(ValueError, match="100"):
            automorphism_group(s)

    def test_d64_order_and_containment(self, d64):
        d1, g = d64.d1, d64.group
        a = automorphism_group(d1, known=g)
        assert a.order() == 43008
        cold = automorphism_group(d1)
        assert cold.order() == 43008
        assert all(cold.contains(x) for x in g.generators)


class TestIsomorphism:
    def test_reflexive(self):
        s = fano()
        w = are_isomorphic(s, s)
        assert w is not None
        assert_witness(s, s, w)

    def test_relabeled_fano(self):
        s = fano()
        rng = random.Random(11)
        for _ in range(5):
            img = list(range(7))
            rng.shuffle(img)
            s2 = relabel(s, Perm(img))
            w = are_isomorphic(s, s2)
            assert w is not None
            assert_witness(s, s2, w)

    def test_symmetric_and_composition(self):
        s = fano()
        s2 = relabel(s, Perm((3, 0, 6, 2, 5, 1, 4)))
        s3 = relabel(s2, Perm((1, 2, 0, 5, 6, 3, 4)))
        w12 = are_isomorphic(s, s2)
        w21 = are_isomorphic(s2, s)
        w23 = are_isomorphic(s2, s3)
        assert w12 is not None and w21 is not None and w23 is not None
        assert_witness(s2, s, w21)
        assert_witness(s, s3, w12 * w23)

    def test_parameter_mismatch(self):
        s = fano()
        bigger = IncidenceStructure(8, [b for b in s.blocks])
        assert are_isomorphic(s, bigger) is None
        assert are_isomorphic(s, complement(s)) is None

    def test_same_parameters_non_isomorphic(self):
        # both are 2-(7,3,2): one with repeated blocks, one without
        s = fano()
        other = relabel(s, Perm((0, 1, 2, 4, 5, 6, 3)))
        doubled = IncidenceStructure(7, sorted(s.blocks + s.blocks))
        union = IncidenceStructure(7, sorted(s.blocks + other.blocks))
        assert sorted(union.block_multiset().values()) == [1] * 14
        assert are_isomorphic(doubled, union) is None
        assert oracles.first_isomorphism(
            7, list(doubled.blocks), list(union.blocks)) is None

    def test_matches_brute_force_on_random_structures(self):
        rng = random.Random(23)
        for trial in range(20):
            v = rng.randint(3, 7)
            nblocks = rng.randint(1, 6)
            blocks = []
            for _ in range(nblocks):
                size = rng.randint(1, v)
                blocks.append(tuple(sorted(rng.sample(range(v), size))))
            s1 = IncidenceStructure(v, sorted(blocks))
            if trial % 2:
                img = list(range(v))
                rng.shuffle(img)
                s2 = relabel(s1, Perm(img))
            else:
                other = [tuple(sorted(rng.sample(range(v), len(b))))
                         for b in blocks]
                s2 = IncidenceStructure(v, sorted(other))
            got = are_isomorphic(s1, s2)
            want = oracles.first_isomorphism(v, list(s1.blocks),
                                             list(s2.blocks))
            assert (got is None) == (want is None)
            if got is not None:
                assert_witness(s1, s2, got)
            assert_same_verdict_with_target_group(s1, s2, got)

    def test_affine_planes_built_twice(self):
        a = build_affine_design(3, 2, 2).structure
        b = relabel(a, Perm((5, 2, 7, 0, 3, 6, 1, 4)))
        w = are_isomorphic(a, b)
        assert w is not None
        assert_witness(a, b, w)

    def test_target_group_is_always_the_kept_one(self):
        s = fano()
        with pytest.raises(TypeError):
            are_isomorphic(s, s, automorphism_group(s))

    def test_d64_designs_not_isomorphic(self, d64):
        d1, d2 = d64.d1, d64.d2
        assert are_isomorphic(d1, d2) is None

    def test_equal_rank_pair_takes_the_exhaustive_search(self):
        """s-minus-3 and d64-2 agree on every cheap invariant, GF(2) rank 8
        included, so only the 64-point search tells them apart."""
        s, d2 = entry("s-minus-3").design, entry("d64-2").design
        assert iso.non_isomorphism_witness(s, d2) is None
        assert are_isomorphic(s, d2) is None


# sha256 of the JSON list of generator images of each unhinted
# automorphism_group, and of the point map (or null) are_isomorphic finds
# onto d64-2 from a relabelled copy (random.Random(64) shuffle) and from
# s-minus-3; recorded before a structure kept its unhinted group
AUT64_SHA256 = {
    "d64-1": "780100c295f56795be477ebe4336906bf69b3cd1f5104101aa28b94bc2df29dc",
    "d64-2": "713d0d5b803e32c548f4012555fd11174db401a6ffe6026fba00910df7abe70a",
    "s-minus-3": "29e8effc93045e451b8ad5e7dfe37d94ed74e6a336e95a02ff57a29140f6207c",
}
ISO64_SHA256 = {
    "copy": "ee789011800af4a3b65bda0786957174b457cef63be9a64b086573835522f79c",
    "s-minus-3": "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
}


def count_calls(monkeypatch, name: str) -> list:
    """From here on, the argument tuple of each call of iso.<name>."""
    calls = []
    real = getattr(iso, name)
    monkeypatch.setattr(iso, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


class TestPinned64:
    """Each pin holds on a freshly built structure and again on the same
    object once its group has been computed."""

    @pytest.mark.parametrize("name", sorted(AUT64_SHA256))
    def test_automorphism_generators(self, name):
        s = entry(name).design
        for _ in range(2):
            got = [list(p.img) for p in automorphism_group(s).generators]
            assert digest(got) == AUT64_SHA256[name]

    @pytest.mark.parametrize("source", sorted(ISO64_SHA256))
    def test_isomorphisms_onto_d64_2(self, source):
        d2 = entry("d64-2").design
        if source == "copy":
            img = list(range(64))
            random.Random(64).shuffle(img)
            s1 = relabel(d2, Perm(img))
        else:
            s1 = entry(source).design
        for _ in range(2):
            m = are_isomorphic(s1, d2)
            assert digest(None if m is None else list(m.img)) == ISO64_SHA256[source]


class TestKeptGroup:
    """An unhinted automorphism group is searched once per structure object
    and kept on it; a hinted search neither reads nor keeps it.  Every test
    builds its own structures, since a kept group would hide a search."""

    def test_second_call_returns_the_same_group(self, monkeypatch):
        s = fano()
        first = automorphism_group(s)
        refines = count_calls(monkeypatch, "_refine")
        assert automorphism_group(s) is first
        assert refines == []

    def test_isomorphism_test_reuses_the_target_group(self, monkeypatch):
        """The one reference path built is s1's own: Aut(s2) is not searched
        again (two builds when it was)."""
        s2 = fano()
        s1 = relabel(s2, Perm((3, 0, 6, 2, 5, 1, 4)))
        aut = automorphism_group(s2)
        paths = count_calls(monkeypatch, "_ReferencePath")
        w = are_isomorphic(s1, s2)
        assert len(paths) == 1
        assert_witness(s1, s2, w)
        assert s2._aut is aut

    def test_hinted_call_neither_reads_nor_keeps(self, monkeypatch):
        ag = build_affine_design(2, 3, 1)
        s = ag.structure
        hinted = automorphism_group(s, known=ag.group)
        assert s._aut is None
        unhinted = automorphism_group(s)
        fresh = automorphism_group(IncidenceStructure(s.v, s.blocks))
        assert unhinted.generators == fresh.generators
        assert unhinted.generators != hinted.generators
        paths = count_calls(monkeypatch, "_ReferencePath")
        again = automorphism_group(s, known=ag.group)
        assert len(paths) == 1
        assert again.generators == hinted.generators
        assert s._aut is unhinted

    def test_equal_structure_in_another_order_searches_its_own(self, monkeypatch):
        s = fano()
        blocks = list(s.blocks)
        random.Random(5).shuffle(blocks)
        other = IncidenceStructure(s.v, blocks)
        assert other == s and other.blocks != s.blocks
        kept = automorphism_group(s)
        paths = count_calls(monkeypatch, "_ReferencePath")
        own = automorphism_group(other)
        assert len(paths) == 1
        assert own is not kept and own.order() == kept.order() == 168

    def test_equality_and_hash_ignore_the_kept_group(self):
        s, fresh = fano(), fano()
        automorphism_group(s)
        assert s._aut is not None and fresh._aut is None
        assert s == fresh and hash(s) == hash(fresh)

    def test_bad_hint_fails_before_any_work(self, monkeypatch):
        """The degree check comes first, before the graph and the reference
        path are built, and also on a structure that keeps its group."""
        s = fano()
        kept = automorphism_group(s)
        graphs = count_calls(monkeypatch, "_Graph")
        paths = count_calls(monkeypatch, "_ReferencePath")
        for t in (s, fano()):
            with pytest.raises(ValueError, match="^known subgroup degree mismatch$"):
                automorphism_group(t, known=PermGroup([], 8))
        assert graphs == paths == []
        assert s._aut is kept


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_relabeling_always_found(data):
    v = data.draw(st.integers(min_value=3, max_value=8))
    nblocks = data.draw(st.integers(min_value=1, max_value=7))
    blocks = [
        tuple(sorted(data.draw(
            st.sets(st.integers(0, v - 1), min_size=1, max_size=v))))
        for _ in range(nblocks)
    ]
    s1 = IncidenceStructure(v, sorted(blocks))
    img = data.draw(st.permutations(list(range(v))))
    s2 = relabel(s1, Perm(tuple(img)))
    w = are_isomorphic(s1, s2)
    assert w is not None
    assert oracles.first_isomorphism(v, list(s1.blocks), list(s2.blocks)) is not None
    assert_witness(s1, s2, w)
    assert_same_verdict_with_target_group(s1, s2, w)


# -- the refinement kernel ---------------------------------------------------

def naive_refine(adj, cells, splitters):
    """The oracle for the refinement kernel: every cell is tried against
    every splitter, whichever side it is on, and a split queues every
    fragment."""
    trace = []
    while splitters:
        s_mask = splitters.popleft()
        i = 0
        while i < len(cells):
            cell = cells[i]
            groups = {}
            for u in cell:
                groups.setdefault((adj[u] & s_mask).bit_count(), []).append(u)
            if len(groups) > 1:
                counts = sorted(groups)
                parts = [tuple(groups[c]) for c in counts]
                cells[i:i + 1] = parts
                trace.append((i, tuple(counts), tuple(len(p) for p in parts)))
                splitters.extend(iso._mask(p) for p in parts)
                i += len(parts)
            else:
                i += 1
    return tuple(trace)


@st.composite
def structures(draw, max_v=9, max_blocks=8):
    v = draw(st.integers(min_value=1, max_value=max_v))
    blocks = draw(st.lists(
        st.sets(st.integers(0, v - 1), min_size=1, max_size=v).map(
            lambda b: tuple(sorted(b))), max_size=max_blocks))
    return IncidenceStructure(v, sorted(blocks))


def refinement_steps(data, s):
    """The root coloring and splitters, then one individualization of a
    drawn point per level until the coloring is discrete.  The splitters
    are the ones the kernel's callers pass: both root cells, then the
    individualized point alone."""
    g = iso._Graph(s)
    cells = [c for c in (tuple(range(g.v)), tuple(range(g.v, g.n))) if c]
    splitters = [iso._mask(c) for c in cells]
    while True:
        yield g, list(cells), splitters
        iso._refine(g.adj, cells, deque(splitters), g.v)
        idx = iso._target_cell(cells, g.v)
        if idx is None:
            return
        u = data.draw(st.sampled_from(cells[idx]))
        cells = iso._individualize(cells, idx, u)
        splitters = [1 << u]


def is_equitable(adj, cells):
    """Each vertex of a cell has the same neighbour count into each cell."""
    masks = [iso._mask(c) for c in cells]
    return all(len({(adj[u] & m).bit_count() for u in c}) == 1
               for c in cells for m in masks)


def relabel_mask(mask, perm):
    return iso._mask([perm[x] for x in range(len(perm)) if mask >> x & 1])


@settings(max_examples=150, deadline=None)
@given(st.data(), structures())
def test_same_side_skip_matches_scanning_every_cell(data, s):
    """Skipping same-side cells and queueing all but the largest fragment
    keep the coarsest equitable refinement: the cells are the full-queue
    oracle's as a set partition, each of them equitable, and a relabelled
    copy refines to the same trace and the relabelled cells."""
    for g, cells, splitters in refinement_steps(data, s):
        naive = list(cells)
        naive_refine(g.adj, naive, deque(splitters))
        got = list(cells)
        trace = iso._refine(g.adj, got, deque(splitters), g.v)
        assert set(map(frozenset, got)) == set(map(frozenset, naive))
        assert is_equitable(g.adj, got)
        # points stay points and blocks stay blocks
        perm = (data.draw(st.permutations(range(g.v)))
                + data.draw(st.permutations(range(g.v, g.n))))
        adj = [0] * g.n
        for x, nbrs in enumerate(g.adj):
            adj[perm[x]] = relabel_mask(nbrs, perm)
        moved = [tuple(perm[x] for x in c) for c in cells]
        moved_trace = iso._refine(adj, moved, deque(
            relabel_mask(m, perm) for m in splitters), g.v)
        assert moved_trace == trace
        assert [set(c) for c in moved] == [{perm[x] for x in c} for c in got]


@settings(max_examples=150, deadline=None)
@given(structures())
def test_root_refinement_queues_every_fragment(s):
    """The root keeps the full-queue order, so its trace, the root-trace
    witness, and its cells are the oracle's exactly."""
    g = iso._Graph(s)
    cells = [c for c in (tuple(range(g.v)), tuple(range(g.v, g.n))) if c]
    want = naive_refine(g.adj, cells, deque(iso._mask(c) for c in cells))
    assert iso._root(g) == (cells, want)


@settings(max_examples=150, deadline=None)
@given(st.data(), structures(), structures())
def test_guided_refinement_stops_only_off_the_expected_trace(data, s, other):
    """With expect, _refine returns None exactly when its trace stops being a
    prefix of expect; otherwise it returns the unguided trace and cells.  So
    a guided trace equals expect exactly when the unguided one does."""
    g, cells, splitters = data.draw(st.sampled_from(
        list(refinement_steps(data, s))))
    unguided_cells = list(cells)
    unguided = iso._refine(g.adj, unguided_cells, deque(splitters), g.v)
    other_trace = iso._root(iso._Graph(other))[1]
    cut = data.draw(st.integers(0, len(unguided)))
    bent = [unguided, unguided[:cut], unguided + ((0, (0, 1), (1, 1)),),
            other_trace]
    if cut < len(unguided):
        i, counts, sizes = unguided[cut]
        bent.append(unguided[:cut] + ((i + 1, counts, sizes),)
                    + unguided[cut + 1:])
    expect = data.draw(st.sampled_from(bent))
    guided_cells = list(cells)
    guided = iso._refine(g.adj, guided_cells, deque(splitters), g.v, expect)
    is_prefix = unguided == expect[:len(unguided)]
    assert (guided is None) == (not is_prefix)
    if guided is not None:
        assert guided == unguided and guided_cells == unguided_cells
    assert (guided == expect) == (unguided == expect)


@st.composite
def bipartite_colorings(draw):
    """A random incidence graph on v points and b blocks, an ordered
    partition of the points followed by one of the blocks, and a few
    splitters, each a set of vertices on one side."""
    v, b = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    adj = [0] * (v + b)
    for j in range(v, v + b):
        for x in draw(st.sets(st.integers(0, v - 1))):
            adj[x] |= 1 << j
            adj[j] |= 1 << x
    cells = []
    for side in (range(v), range(v, v + b)):
        order = draw(st.permutations(side))
        cuts = sorted(draw(st.sets(st.integers(1, max(len(order) - 1, 1)))))
        cells += [tuple(order[i:j]) for i, j in zip([0] + cuts, cuts + [len(order)])
                  if order[i:j]]
    splitters = draw(st.lists(st.sampled_from(cells).flatmap(
        lambda c: st.sets(st.sampled_from(c), min_size=1)).map(iso._mask),
        min_size=1, max_size=4))
    return adj, cells, splitters, v


@settings(max_examples=300, deadline=None)
@given(st.data(), bipartite_colorings(), st.booleans())
def test_live_cells_per_side_match_the_whole_list_scan(data, coloring, every):
    """Visiting only the live cells of the other side gives the return
    value and final cells of a scan over the whole list, with and without
    expect: on the unguided trace, a prefix, a longer trace and one with
    a record changed."""
    adj, cells, splitters, v = coloring
    unguided = oracles.refine_scan(adj, list(cells), deque(splitters), v, None, every)
    cut = data.draw(st.integers(0, len(unguided)))
    bent = [unguided[:cut], unguided + ((0, (0, 1), (1, 1)),)]
    if cut < len(unguided):
        i, counts, sizes = unguided[cut]
        bent.append(unguided[:cut] + ((i + 1, counts, sizes),) + unguided[cut + 1:])
    for expect in [None, unguided] + bent:
        want_cells, got_cells = list(cells), list(cells)
        want = oracles.refine_scan(adj, want_cells, deque(splitters), v, expect, every)
        got = iso._refine(adj, got_cells, deque(splitters), v, expect, every)
        assert (got, got_cells) == (want, want_cells)


def test_aut_search_makes_one_pass_over_the_reference_path(monkeypatch):
    """The reference path of d64-1 is 7 refinements: the root and 6
    levels, the only calls without an expected trace.  entry builds a new
    design on each call, so no group is kept on it yet.  The search walks
    that path once, deepest node first, and goes on with a node's next
    child after each of its 9 generators, so Aut(d64-1) makes 87 candidate
    refinements, 94 in all (175 when it restarted from the root after each
    generator)."""
    calls = []
    refine = iso._refine

    def counting(adj, cells, splitters, v, expect=None, **kwargs):
        calls.append(expect is not None)
        return refine(adj, cells, splitters, v, expect, **kwargs)

    monkeypatch.setattr(iso, "_refine", counting)
    assert iso.automorphism_group(entry("d64-1").design).order() == 43008
    assert (calls.count(False), calls.count(True)) == (7, 87)


@settings(max_examples=150, deadline=None)
@given(st.data(), structures(max_v=7))
def test_automorphism_group_matches_brute_force_with_any_hint(data, s):
    """The order is the number of block-preserving point maps and every
    generator carries the blocks.  A hint of random words in the unhinted
    generators gives the same order and stays in the group.  Such a hint
    moves the reference path's points, so the prefix stabilizers are
    proper subgroups from the first node on: pruning with the whole group
    instead lost automorphisms here, and a hint of unhinted generators
    alone did not show it."""
    brute = oracles.isomorphisms(s.v, list(s.blocks), list(s.blocks))
    full = automorphism_group(s)
    assert full.order() == len(brute)
    assert all(carries_blocks(p.img, s.blocks, s.blocks) for p in full.generators)
    words = data.draw(st.lists(st.lists(st.sampled_from(full.generators), min_size=1,
                                        max_size=6), max_size=3)) if full.generators else []
    hint = PermGroup([reduce(operator.mul, word) for word in words], s.v)
    hinted = automorphism_group(s, hint)
    assert hinted.order() == len(brute)
    assert all(hinted.contains(p) for p in hint.generators)
    assert all(carries_blocks(p.img, s.blocks, s.blocks) for p in hinted.generators)


# -- cheap invariants and non-isomorphism witnesses ---------------------------

@settings(max_examples=200, deadline=None)
@given(st.data(), structures(max_v=70, max_blocks=20))
def test_gf2_rank_matches_numpy_oracle(data, s):
    """Blockless structures and repeated blocks included."""
    blocks = list(s.blocks)
    if blocks:
        blocks += data.draw(st.lists(st.sampled_from(blocks), max_size=5))
    s = IncidenceStructure(s.v, sorted(blocks))
    assert iso.gf2_rank(s) == oracles.gf2_rank(s.v, list(s.blocks))


def test_gf2_ranks_of_the_paper_designs():
    for name, rank in (("d64-1", 11), ("d64-2", 8), ("s-minus-3", 8)):
        s = entry(name).design
        assert iso.gf2_rank(s) == oracles.gf2_rank(s.v, list(s.blocks)) == rank
    got = [iso.gf2_rank(s) for s, _ in biplane_classes()]
    assert sorted(got) == [6, 7, 8]
    assert got == [oracles.gf2_rank(16, list(s.blocks)) for s, _ in biplane_classes()]


def test_rank_witness_for_the_two_developments():
    d1, d2 = entry("d64-1").design, entry("d64-2").design
    assert iso.non_isomorphism_witness(d1, d2) == ("gf2-rank", 11, 8)
    assert iso.non_isomorphism_witness(d2, d1) == ("gf2-rank", 8, 11)


@settings(max_examples=150, deadline=None)
@given(st.data(), structures(max_v=6))
def test_witness_agrees_with_brute_force(data, s1):
    """A relabelled copy never gets a witness.  Against a structure with the
    same block sizes, a witness is a differing invariant and implies that
    no isomorphism exists."""
    img = data.draw(st.permutations(list(range(s1.v))))
    assert iso.non_isomorphism_witness(s1, relabel(s1, Perm(tuple(img)))) is None
    s2 = IncidenceStructure(s1.v, sorted(tuple(sorted(data.draw(st.sets(
        st.integers(0, s1.v - 1), min_size=len(b), max_size=len(b)))))
        for b in s1.blocks))
    witness = iso.non_isomorphism_witness(s1, s2)
    if witness is not None:
        kind, a, b = witness
        assert a != b
        if kind == "gf2-rank":
            assert (a, b) == (oracles.gf2_rank(s1.v, list(s1.blocks)),
                              oracles.gf2_rank(s2.v, list(s2.blocks)))
        assert oracles.first_isomorphism(
            s1.v, list(s1.blocks), list(s2.blocks)) is None
        assert are_isomorphic(s1, s2) is None


def test_rank_rejection_runs_no_search(monkeypatch):
    """d64-1 and d64-2 have GF(2) ranks 11 and 8, and the rank is compared
    before any refinement or automorphism search."""
    calls = []
    for name in ("_refine", "automorphism_group"):
        real = getattr(iso, name)
        monkeypatch.setattr(iso, name, lambda *a, name=name, real=real, **k:
                            calls.append(name) or real(*a, **k))
    d1, d2 = entry("d64-1").design, entry("d64-2").design
    assert are_isomorphic(d1, d2) is None
    assert calls == []


def test_equal_block_multisets_give_the_identity_without_search(monkeypatch):
    """A block-shuffled copy is the same structure, so the identity comes
    back before any refinement or automorphism search."""
    calls = []
    real = iso._refine
    monkeypatch.setattr(iso, "_refine", lambda *a, **k: calls.append(1) or real(*a, **k))
    for name in ("biplane-1", "fano", "d64-1"):
        s = entry(name).design
        blocks = list(s.blocks)
        random.Random(7).shuffle(blocks)
        assert are_isomorphic(IncidenceStructure(s.v, blocks), s) == Perm.identity(s.v)
    assert calls == []
