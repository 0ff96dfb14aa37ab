"""Design isomorphism and automorphism groups by partition refinement.

A structure is viewed as a bipartite graph on point-vertices and
block-vertices.  Colorings (ordered partitions) are refined to equitability
by neighbor counts, using Python integers as vertex bitsets.  Branching
individualizes one point at a time: the reference path always takes the
smallest vertex of the first smallest non-singleton point cell, and
candidate paths must reproduce the reference refinement trace exactly.

Refinement is kept cheap as in McKay (1981) and McKay-Piperno (2014): a
splitter only visits cells of the other side of the bipartite graph; a cell
that splits queues every fragment but the first largest in count order
(Hopcroft's rule: counts into the omitted fragment are those into its
parent minus those into the others, and the tie-break survives
relabelling), so an individualization queues only the new singleton; and
a candidate is dropped at its first split that differs from the reference
trace.

The automorphism search makes one pass over the reference path's nodes,
deepest first, pruning candidate images by orbit-minimality under the
stabilizer of the reference prefix in the group found so far; the
isomorphism search prunes under the target's automorphism group.  Cheap
invariants come first: non_isomorphism_witness compares the point and
block counts, block sizes, the GF(2) rank of the incidence matrix (Assmus
and Key, Designs and their Codes, 1992, ch. 2) and the root refinement
trace.  When they agree, exhausted search is the non-isomorphism
certificate; no canonical certificates are produced.

An unhinted automorphism group is searched once per structure object and
kept on it, so isomorphism tests against one target share its group.  It
is kept per object, not per equal structure, since block order steers the
refinement and so the generators found; a hinted search neither reads nor
keeps it.  A hint whose generators are all automorphisms is itself the
starting group, so a chain its caller has built is not built again.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import accumulate

from .design import IncidenceStructure, carries_blocks
from .perm import MAX_POINTS, Perm, PermGroup


class _Graph:
    """Bipartite incidence graph with bitset adjacency."""

    __slots__ = ("v", "n", "adj")

    def __init__(self, s: IncidenceStructure):
        v, b = s.v, s.b
        self.v = v
        self.n = v + b
        adj = [0] * (v + b)
        for j, blk in enumerate(s.blocks):
            mask = 0
            for x in blk:
                mask |= 1 << x
                adj[x] |= 1 << (v + j)
            adj[v + j] = mask
        self.adj = adj


def _mask(cell: tuple[int, ...]) -> int:
    m = 0
    for u in cell:
        m |= 1 << u
    return m


def _refine(adj: list[int], cells: list[tuple[int, ...]], splitters: deque[int],
            v: int, expect: tuple | None = None, every: bool = False) -> tuple | None:
    """Refine to equitability; returns the trace of splits performed.

    Cells are replaced in place by their fragments, ordered by ascending
    neighbor count into the splitter, so the procedure is deterministic
    and two isomorphic colorings produce identical traces.  Vertices below
    v are points; a splitter skips the cells of its own side, which it
    cannot split.  Given expect, returns None as soon as the trace stops
    being a prefix of it, so the caller still compares the whole trace.

    Point cells come before block cells (the root is [points, blocks] and
    only point cells are individualized), so the sides are held apart, each
    with the indices of its non-singleton cells, and a splitter visits only
    those of the other side, in list order; a trace index is still the
    position in the whole list, written back before returning.  Unlike
    McKay and Piperno's (2014) neighbourhood variant, no neighbourhood of
    the splitter is computed.

    A split queues every fragment but the largest, the first of maximal
    size in count order, so relabelling cannot change the choice.  A
    vertex's count into the omitted fragment is its count into the parent
    cell minus its counts into the queued fragments, and the parent is a
    splitter, a cell of the equitable coloring refined from, or itself an
    omitted fragment.  So callers queue only the splitters that break
    equitability (both root cells, or the one vertex individualized from an
    equitable coloring), and the result is still the coarsest equitable
    refinement; only its cell order and the trace depend on the rule.  With
    every, a split queues all its fragments, as the root refinement does.
    """
    n_points = bisect_left(cells, True, key=lambda c: c[0] >= v)
    sides = (cells[:n_points], cells[n_points:])
    live = [[i for i, c in enumerate(side) if len(c) > 1] for side in sides]
    trace = []
    try:
        while splitters:
            s_mask = splitters.popleft()
            t = 0 if s_mask >> v else 1  # a splitter with blocks splits point cells
            side, offset, still, shift = sides[t], t * len(sides[0]), [], 0
            for i in live[t]:
                i += shift
                groups: dict[int, list[int]] = {}
                for u in side[i]:
                    groups.setdefault((adj[u] & s_mask).bit_count(), []).append(u)
                if len(groups) == 1:
                    still.append(i)
                    continue
                counts = sorted(groups)
                parts = [tuple(groups[c]) for c in counts]
                side[i:i + 1] = parts
                sizes = tuple(map(len, parts))
                record = (offset + i, tuple(counts), sizes)
                if expect is not None and (len(trace) == len(expect)
                                           or expect[len(trace)] != record):
                    return None
                trace.append(record)
                still.extend(i + j for j, size in enumerate(sizes) if size > 1)
                shift += len(parts) - 1
                largest = -1 if every else sizes.index(max(sizes))
                splitters.extend(_mask(p) for j, p in enumerate(parts) if j != largest)
            live[t] = still
        return tuple(trace)
    finally:
        cells[:] = sides[0] + sides[1]


def _individualize(cells: list[tuple[int, ...]], idx: int,
                   u: int) -> list[tuple[int, ...]]:
    """A copy of the coloring with u split off at the front of cell idx."""
    cell = cells[idx]
    rest = tuple(x for x in cell if x != u)
    return cells[:idx] + [(u,), rest] + cells[idx + 1:]


def _target_cell(cells: list[tuple[int, ...]], v: int) -> int | None:
    """Index of the first smallest non-singleton point cell, if any."""
    sized = [(len(c), i) for i, c in enumerate(cells) if len(c) > 1 and c[0] < v]
    return min(sized)[1] if sized else None


def _root(g: _Graph) -> tuple[list[tuple[int, ...]], tuple]:
    """The point/block coloring refined to equitability, and its trace.

    A structure without blocks has no block cell: every cell is non-empty.
    Every fragment is queued here: the trace is the root-trace witness, and
    the full-queue trace separates some structures that Hopcroft's order
    does not.
    """
    cells = [c for c in (tuple(range(g.v)), tuple(range(g.v, g.n))) if c]
    return cells, _refine(g.adj, cells, deque([_mask(c) for c in cells]), g.v, every=True)


def gf2_rank(s: IncidenceStructure) -> int:
    """The rank of the incidence matrix of s over GF(2), by elimination on
    the block rows held as bitsets."""
    pivots: dict[int, int] = {}
    for blk in s.blocks:
        row = _mask(blk)
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def _compare(s1: IncidenceStructure, s2: IncidenceStructure):
    """The first cheap non-isomorphism witness, cheapest first; without one,
    each structure's graph and refined root."""
    for kind, invariant in (("points", lambda s: s.v), ("blocks", lambda s: s.b),
                            ("block-sizes", lambda s: tuple(sorted(map(len, s.blocks)))),
                            ("gf2-rank", gf2_rank)):
        a, b = invariant(s1), invariant(s2)
        if a != b:
            return (kind, a, b), None
    g1, g2 = _Graph(s1), _Graph(s2)
    root1, root2 = _root(g1), _root(g2)
    if root1[1] != root2[1]:
        return ("root-trace", root1[1], root2[1]), None
    return None, (g1, root1, g2, root2)


def non_isomorphism_witness(s1: IncidenceStructure,
                            s2: IncidenceStructure) -> tuple | None:
    """(kind, value for s1, value for s2) for the first cheap invariant that
    differs, else None: kind is "points", "blocks", "block-sizes" (sorted),
    "gf2-rank" or "root-trace" (the splits refining the root coloring).
    None means only the exhaustive search of are_isomorphic decides.
    """
    return _compare(s1, s2)[0]


class _ReferencePath:
    """The leftmost individualization path of a graph, computed once.

    Node i is (coloring after i individualizations, target cell index,
    point individualized, trace of the refinement that follows); node 0's
    coloring is the refined root.  Colorings are shared, never mutated;
    leaf_points lists the points in the leaf's cell order.
    """

    def __init__(self, g: _Graph, cells: list[tuple[int, ...]]):
        self.nodes: list[tuple[list[tuple[int, ...]], int, int, tuple]] = []
        while (idx := _target_cell(cells, g.v)) is not None:
            u = min(cells[idx])
            branched = _individualize(cells, idx, u)
            self.nodes.append((cells, idx, u, _refine(g.adj, branched, deque([1 << u]), g.v)))
            cells = branched
        self.leaf_points = [c[0] for c in cells if c[0] < g.v]


def _child(ref: _ReferencePath, g: _Graph, level: int, cells: list[tuple[int, ...]],
           u: int, group: PermGroup, accept) -> Perm | None:
    """The first accepted leaf below the child u of a node at this level;
    None at once when group, the stabilizer of the images chosen above,
    maps a smaller point to u, or when u's refinement leaves the reference
    trace."""
    if group.orbit(u)[0] < u:
        return None
    _, idx, _, trace = ref.nodes[level]
    branched = _individualize(cells, idx, u)
    if _refine(g.adj, branched, deque([1 << u]), g.v, trace) != trace:
        return None
    return _search(ref, g, level + 1, branched, group.point_stabilizer(u), accept)


def _search(ref: _ReferencePath, g: _Graph, level: int, cells: list[tuple[int, ...]],
            group: PermGroup, accept) -> Perm | None:
    """DFS over g's candidate images of the reference path below a level.

    cells is g's coloring at that level, reached along a path whose traces
    match the reference path's; group prunes as in _child; accept(img)
    decides whether the point map of a discrete leaf is a result.  Returns
    the first accepted leaf permutation, else None.
    """
    if level == len(ref.nodes):
        img = [0] * g.v
        for a, cell in zip(ref.leaf_points, (c for c in cells if c[0] < g.v)):
            img[a] = cell[0]
        return accept(img)
    for u in sorted(cells[ref.nodes[level][1]]):
        if (found := _child(ref, g, level, cells, u, group, accept)) is not None:
            return found
    return None


def automorphism_group(s: IncidenceStructure,
                       known: PermGroup | None = None) -> PermGroup:
    """The full automorphism group of a structure, as a permutation group.

    A known subgroup may be passed as a starting point.  Only its generators
    that carry the block multiset onto itself are used, so a wrong hint can
    cost speed but cannot put a non-automorphism into the result; one of
    another degree raises ValueError before any search.  When all of them
    pass, the search starts from known itself, reusing any chain already
    built (known comes back when nothing is added); else from a new group
    on those that pass.  The search reads only membership, orbits and
    stabilizers, so the generators found do not depend on the chain.

    Without known, the result is kept on s and every later call on s
    without known returns that same group.  A hinted call neither reads
    nor keeps it, since a hint changes which generators are found.  Sharing
    is safe because a PermGroup never changes once built.

    One pass over the reference path's nodes, deepest first: below each
    child but the reference one, _search looks for an automorphism outside
    the group found so far, pruning with the stabilizer of the node's
    reference prefix in that group.  A new automorphism extends the group
    and the pass goes on with the node's next child.  Going back to the
    root would find nothing before that child: each subtree in between was
    exhausted with a smaller group, which prunes less and accepts more.
    """
    if s.v > MAX_POINTS:
        raise ValueError("supported up to %d points, got v=%d" % (MAX_POINTS, s.v))
    if known is not None and known.degree != s.v:
        raise ValueError("known subgroup degree mismatch")
    if known is None and s._aut is not None:
        return s._aut
    g = _Graph(s)
    ref = _ReferencePath(g, _root(g)[0])
    hint = known.generators if known is not None else ()
    kept = [p for p in hint if carries_blocks(p.img, s.blocks, s.blocks)]
    group = known if known is not None and len(kept) == len(hint) else PermGroup(kept, s.v)

    def accept(img: list[int]) -> Perm | None:
        p = Perm(img)
        if group.contains(p) or not carries_blocks(img, s.blocks, s.blocks):
            return None
        return p

    def prefix_stabilizers(level: int) -> list[PermGroup]:
        return list(accumulate((node[2] for node in ref.nodes[:level]),
                               PermGroup.point_stabilizer, initial=group))

    stabs = prefix_stabilizers(len(ref.nodes) - 1)
    for level in reversed(range(len(ref.nodes))):
        cells, idx, ref_u, _ = ref.nodes[level]
        for u in sorted(cells[idx]):
            if u != ref_u and (new := _child(ref, g, level, cells, u, stabs[level],
                                             accept)) is not None:
                group = group.extend(new)
                stabs = prefix_stabilizers(level)
    if known is None:
        s._aut = group
    return group


def are_isomorphic(s1: IncidenceStructure, s2: IncidenceStructure) -> Perm | None:
    """A point bijection carrying s1's blocks onto s2's, or None.

    The identity at once when the two have the same block multiset, None
    at once when non_isomorphism_witness has a witness; otherwise the
    search is exhaustive over the pruned refinement tree, so None is a
    proof.  The search skips branches equivalent under Aut(s2), which maps
    an isomorphism through one branch to one through the other; it is
    automorphism_group(s2), searched on the first such call and kept on s2
    for later ones.
    """
    if s1 == s2:
        return Perm.identity(s1.v)
    witness, roots = _compare(s1, s2)
    if witness is not None:
        return None
    g1, root1, g2, root2 = roots
    ref = _ReferencePath(g1, root1[0])

    def accept(img: list[int]) -> Perm | None:
        return Perm(img) if carries_blocks(img, s1.blocks, s2.blocks) else None

    return _search(ref, g2, 0, root2[0], automorphism_group(s2), accept)
