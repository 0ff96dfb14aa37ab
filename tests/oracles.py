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
