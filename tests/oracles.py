"""Independent brute-force reference implementations used by the test suite.

Everything here works on raw image tuples, not on the package's own classes,
so a bug in the package cannot hide inside its oracle.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # p applied first, then q
    return tuple(q[x] for x in p)


def closure(gens: list[tuple[int, ...]], limit: int = 200_000) -> set[tuple[int, ...]]:
    """The full element set generated by BFS closure; fails the test if huge."""
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > limit:
                        raise AssertionError("closure exceeded %d elements" % limit)
        frontier = nxt
    return seen


def closure_order(gens: list[tuple[int, ...]], limit: int = 200_000) -> int:
    return len(closure(gens, limit))


def orbit_of_point(elements: set[tuple[int, ...]], point: int) -> set[int]:
    return {p[point] for p in elements}


def blocks_through_zero(elements: set[tuple[int, ...]], degree: int) -> list[frozenset[int]]:
    """All nontrivial blocks (of imprimitivity) containing the point 0."""
    out = []
    for size in range(2, degree):
        if degree % size:
            continue
        for rest in combinations(range(1, degree), size - 1):
            b = frozenset((0,) + rest)
            if all(frozenset(p[x] for x in b) in (b,) or not (frozenset(p[x] for x in b) & b)
                   for p in elements):
                out.append(b)
    return out


def block_systems(elements: set[tuple[int, ...]], degree: int) -> list[tuple[tuple[int, ...], ...]]:
    """All nontrivial block systems of a transitive permutation group."""
    systems = []
    for b in blocks_through_zero(elements, degree):
        classes = {frozenset(p[x] for x in b) for p in elements}
        part = tuple(sorted(tuple(sorted(c)) for c in classes))
        if part not in systems:
            systems.append(part)
    return systems


def flag_transitive(elements: set[tuple[int, ...]], blocks: list[tuple[int, ...]]) -> bool:
    """Whether the orbit of one flag under every element holds all flags.

    The elements must preserve the block multiset.  A flag is a (point,
    block content) pair here, so repeated blocks leave flags out of reach.
    """
    x, first = blocks[0][0], blocks[0]
    orbit = {(p[x], frozenset(p[y] for y in first)) for p in elements}
    return len(orbit) == sum(len(blk) for blk in blocks)


def pair_count_matrix(v: int, blocks: list[frozenset[int]]) -> dict[tuple[int, int], int]:
    """How many blocks contain each unordered point pair."""
    counts = {(x, y): 0 for x in range(v) for y in range(x + 1, v)}
    for b in blocks:
        for x, y in combinations(sorted(b), 2):
            counts[(x, y)] += 1
    return counts


def gf2_rank(v: int, blocks: list[tuple[int, ...]]) -> int:
    """Rank over GF(2) of the 0/1 block-by-point incidence matrix, by
    Gaussian elimination down the columns of a numpy array."""
    m = np.zeros((len(blocks), v), dtype=np.uint8)
    for i, b in enumerate(blocks):
        m[i, list(b)] = 1
    rank = 0
    for col in range(v):
        below = np.nonzero(m[rank:, col])[0]
        if below.size == 0:
            continue
        pivot = rank + below[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        hits = np.nonzero(m[:, col])[0]
        m[hits[hits != rank]] ^= m[rank]
        rank += 1
    return rank


def _maps_blocks(p: tuple[int, ...], blocks1: list[tuple[int, ...]],
                 blockset2: set[tuple[int, ...]],
                 counter2: dict[tuple[int, ...], int]) -> bool:
    # fail fast on the set test, then settle multiplicities
    mapped = []
    for b in blocks1:
        m = tuple(sorted(p[x] for x in b))
        if m not in blockset2:
            return False
        mapped.append(m)
    left = dict(counter2)
    for m in mapped:
        left[m] -= 1
        if left[m] < 0:
            return False
    return True


def isomorphisms(v: int, blocks1: list[tuple[int, ...]],
                 blocks2: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Every point bijection carrying one block multiset onto the other.

    Tries all v! candidates, so keep v small.
    """
    from collections import Counter
    from itertools import permutations

    if len(blocks1) != len(blocks2):
        return []
    blockset2 = set(blocks2)
    counter2 = dict(Counter(blocks2))
    return [p for p in permutations(range(v))
            if _maps_blocks(p, blocks1, blockset2, counter2)]


def first_isomorphism(v: int, blocks1: list[tuple[int, ...]],
                      blocks2: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    from collections import Counter
    from itertools import permutations

    if len(blocks1) != len(blocks2):
        return None
    blockset2 = set(blocks2)
    counter2 = dict(Counter(blocks2))
    for p in permutations(range(v)):
        if _maps_blocks(p, blocks1, blockset2, counter2):
            return p
    return None


def design_check(v: int, blocks: list[tuple[int, ...]]) -> tuple:
    """The 2-design check by a v x v pair table filled block by block.

    ("ok", (v, b, k, r, lambda)) for a design, else ("error", message) with
    the message of the first failed axiom, in the order and wording of
    design.verify_design.
    """
    if v < 2:
        return "error", "need v >= 2 points, got v=%d" % v
    if not blocks:
        return "error", "no blocks"
    k = len(blocks[0])
    for i, blk in enumerate(blocks):
        if len(blk) != k:
            return "error", ("blocks have unequal sizes: block 0 has %d points, "
                             "block %d has %d" % (k, i, len(blk)))
    if k < 2:
        return "error", "block size k=%d is below 2" % k
    rcount = [0] * v
    for blk in blocks:
        for x in blk:
            rcount[x] += 1
    r = rcount[0]
    for x in range(v):
        if rcount[x] != r:
            return "error", ("replication is not constant: point 0 lies in %d blocks, "
                             "point %d in %d" % (r, x, rcount[x]))
    paircount = [[0] * v for _ in range(v)]
    for blk in blocks:
        for a in range(len(blk)):
            for c in range(a + 1, len(blk)):
                paircount[blk[a]][blk[c]] += 1
    lam = paircount[0][1]
    for x in range(v):
        for y in range(x + 1, v):
            if paircount[x][y] != lam:
                return "error", ("pair coverage is not constant: pair (0,1) lies in %d "
                                 "blocks, pair (%d,%d) in %d" % (lam, x, y, paircount[x][y]))
    return "ok", (v, len(blocks), k, r, lam)


def refine_scan(adj: list[int], cells: list[tuple[int, ...]], splitters,
                v: int, expect: tuple | None = None, every: bool = False) -> tuple | None:
    """Equitable refinement by a scan of the whole cell list per splitter.

    The contract of iso._refine: adj[u] is vertex u's neighbourhood as a
    bitset, vertices below v are points, cells are tuples of vertices (split
    in place) and splitters a deque of vertex bitsets (consumed).  Each
    splitter visits every cell in list order and splits the non-singleton
    cells of the other side by neighbour count, fragments in ascending count
    order; a split queues all fragments with every, else all but the first
    largest.  Returns the tuple of (index, counts, sizes) split records, or
    None at the first record that leaves expect.
    """
    trace = []
    while splitters:
        s_mask = splitters.popleft()
        split_points = s_mask >> v != 0
        i = 0
        while i < len(cells):
            cell = cells[i]
            if len(cell) > 1 and (cell[0] < v) == split_points:
                groups: dict[int, list[int]] = {}
                for u in cell:
                    groups.setdefault(bin(adj[u] & s_mask).count("1"), []).append(u)
                if len(groups) > 1:
                    counts = sorted(groups)
                    parts = [tuple(groups[c]) for c in counts]
                    cells[i:i + 1] = parts
                    sizes = tuple(map(len, parts))
                    record = (i, tuple(counts), sizes)
                    if expect is not None and (len(trace) == len(expect)
                                               or expect[len(trace)] != record):
                        return None
                    trace.append(record)
                    largest = -1 if every else sizes.index(max(sizes))
                    splitters.extend(sum(1 << u for u in p)
                                     for j, p in enumerate(parts) if j != largest)
                    i += len(parts)
                    continue
            i += 1
    return tuple(trace)


def hussain_biplanes() -> tuple[int, list[list[tuple[int, ...]]]]:
    """Every 2-(16,6,2) design through a fixed Hussain chain, by
    backtracking; returns (search nodes, completed block lists).

    Any two blocks of a symmetric 2-(16,6,2) design meet in exactly two
    points.  Block 0 is {0, ..., 5}.  Each pair {0, i} lies in one more
    block B_i, and the outside points 6..15 are the pairs of {1, ..., 5}
    (an outside point lies on exactly two of the B_i, which meet only
    there and at 0), labelled in lexicographic order, so block 0 and the
    five B_i are forced up to relabelling.  Each other pair {i, j} of
    block 0 lies in exactly one last block, {i, j} and an outside 4-set;
    the last ten blocks are chosen in pair order, each meeting every
    earlier block in two points.  A node is one call of the recursion.
    """
    pairs = list(combinations(range(1, 6), 2))
    label = {p: 6 + n for n, p in enumerate(pairs)}
    chain = [frozenset(range(6))] + [
        frozenset({0, i} | {label[p] for p in pairs if i in p}) for i in range(1, 6)]
    outside = [frozenset(c) for c in combinations(range(6, 16), 4)]
    nodes, found = 0, []

    def extend(blocks: list[frozenset[int]]) -> None:
        nonlocal nodes
        nodes += 1
        if len(blocks) == 16:
            found.append(sorted(tuple(sorted(b)) for b in blocks))
            return
        pair = frozenset(pairs[len(blocks) - len(chain)])
        for rest in outside:
            block = pair | rest
            if all(len(block & b) == 2 for b in blocks):
                extend(blocks + [block])

    extend(chain)
    return nodes, found


def frame_labellings(blocks: list[tuple[int, ...]]) -> list[frozenset[tuple[int, ...]]]:
    """The block set of a 2-(16,6,2) design relabelled through each of its
    16 * 6 * 5! frames, in the labels of hussain_biplanes.

    A frame is a block B, a point p of B and an order q_1, ..., q_5 of B's
    other points: p becomes 0, q_i becomes i, and a point outside B
    becomes 6 + n for the n-th pair {i, j} of {1, ..., 5} with the point on
    the second blocks through {p, q_i} and {p, q_j}.  Two designs are
    isomorphic exactly when they share a labelling, and the frames that
    give a design its own labelling are its automorphisms.
    """
    from itertools import permutations

    label = {p: 6 + n for n, p in enumerate(combinations(range(1, 6), 2))}
    label.update({(j, i): n for (i, j), n in label.items()})
    sets = [frozenset(b) for b in blocks]
    out = []
    for base in sets:
        for p in base:
            # the two points of B whose second blocks through p hold x
            on: dict[int, list[int]] = {}
            for q in base - {p}:
                second, = (b for b in sets if b != base and {p, q} <= b)
                for x in second - base:
                    on.setdefault(x, []).append(q)
            for order in permutations(sorted(base - {p})):
                m = {p: 0, **{q: i for i, q in enumerate(order, 1)}}
                m.update({x: label[m[a], m[b]] for x, (a, b) in on.items()})
                out.append(frozenset(tuple(sorted(m[x] for x in b)) for b in sets))
    return out
