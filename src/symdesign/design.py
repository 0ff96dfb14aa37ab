"""Incidence structures and 2-design checks.

An incidence structure is a point count v together with a list of blocks,
each a sorted tuple of distinct points from {0, ..., v-1}.  Repeated blocks
are allowed and count with multiplicity (unions of copies of a design are
legitimate structures here).  Structure equality compares v and the block
multiset; isomorphism is a different question and lives in the iso module.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .perm import MAX_POINTS, Perm, PermGroup, candidate_systems


class DesignError(ValueError):
    """A design axiom failed; the message carries the first witness found."""


class DesignParams(NamedTuple):
    v: int
    b: int
    k: int
    r: int
    lam: int

    @property
    def symmetric(self) -> bool:
        return self.v == self.b

    def __str__(self) -> str:
        return "2-(%d,%d,%d) design, b=%d, r=%d, symmetric=%s" % (
            self.v, self.k, self.lam, self.b, self.r,
            "true" if self.symmetric else "false",
        )


class IncidenceStructure:
    """Points 0..v-1 and a list of blocks (sorted tuples, duplicates kept).

    Treated as immutable.  _aut keeps this object's unhinted automorphism
    group once iso.automorphism_group has searched it; equality and the
    hash ignore it.
    """

    __slots__ = ("v", "blocks", "_aut")

    def __init__(self, v: int, blocks: Iterable[Iterable[int]]):
        if v < 1:
            raise ValueError("need at least one point")
        cleaned = []
        for i, blk in enumerate(blocks):
            t = tuple(sorted(blk))
            if not t:
                raise ValueError("block %d is empty" % i)
            if len(set(t)) != len(t):
                raise ValueError("block %d repeats a point" % i)
            if t[0] < 0 or t[-1] >= v:
                raise ValueError("block %d leaves the point range" % i)
            cleaned.append(t)
        self.v = v
        self.blocks = tuple(cleaned)
        self._aut = None

    @property
    def b(self) -> int:
        return len(self.blocks)

    def block_multiset(self) -> Counter:
        return Counter(self.blocks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IncidenceStructure)
            and self.v == other.v
            and self.block_multiset() == other.block_multiset()
        )

    def __hash__(self) -> int:
        return hash((self.v, tuple(sorted(self.blocks))))

    def __repr__(self) -> str:
        return "IncidenceStructure(v=%d, b=%d)" % (self.v, self.b)


def verify_design(s: IncidenceStructure) -> DesignParams:
    """Check the 2-design axioms, returning the parameters.

    Raises DesignError naming the first violated axiom with a witness
    (a block, point, or point pair).  Each point's blocks are one integer
    bitset over the block indices, read from a string of 0s and 1s (or-ing
    in one bit at a time is quadratic in b); replication and pair coverage
    are the popcounts of a bitset and of two bitsets' intersection.
    """
    if s.v < 2:
        raise DesignError("need v >= 2 points, got v=%d" % s.v)
    if not s.blocks:
        raise DesignError("no blocks")
    k = len(s.blocks[0])
    for i, blk in enumerate(s.blocks):
        if len(blk) != k:
            raise DesignError(
                "blocks have unequal sizes: block 0 has %d points, block %d has %d"
                % (k, i, len(blk))
            )
    if k < 2:
        raise DesignError("block size k=%d is below 2" % k)

    rows = [bytearray(b"0") * s.b for _ in range(s.v)]
    for j, blk in enumerate(s.blocks):
        for x in blk:
            rows[x][j] = 49  # ord("1")
    masks = [int(row, 2) for row in rows]
    r = masks[0].bit_count()
    for x, mask in enumerate(masks):
        if mask.bit_count() != r:
            raise DesignError(
                "replication is not constant: point 0 lies in %d blocks, point %d in %d"
                % (r, x, mask.bit_count())
            )

    lam = (masks[0] & masks[1]).bit_count()
    for x, mask in enumerate(masks):
        for y in range(x + 1, s.v):
            if (count := (mask & masks[y]).bit_count()) != lam:
                raise DesignError(
                    "pair coverage is not constant: pair (0,1) lies in %d blocks, "
                    "pair (%d,%d) in %d" % (lam, x, y, count)
                )
    return DesignParams(s.v, s.b, k, r, lam)


def complement(s: IncidenceStructure) -> IncidenceStructure:
    """The structure whose blocks are the point-set complements."""
    params = verify_design(s)
    if s.v - params.k < 2:
        raise DesignError(
            "complement blocks would have %d < 2 points" % (s.v - params.k)
        )
    points = frozenset(range(s.v))
    return IncidenceStructure(s.v, [sorted(points.difference(blk)) for blk in s.blocks])


def develop(g: PermGroup, base: Iterable[int]) -> IncidenceStructure:
    """The orbit of a base block under a group, as an incidence structure on
    the group's degree; a base point outside it raises ValueError."""
    start = frozenset(base)
    if not start:
        raise ValueError("base block is empty")
    if max(start) >= g.degree:
        raise ValueError("base point %d outside the group's %d points"
                         % (max(start), g.degree))
    imgs = [p.img for p in g.generators]
    seen = {start}
    queue = [start]
    while queue:
        blk = queue.pop()
        for img in imgs:
            blk_img = frozenset([img[x] for x in blk])
            if blk_img not in seen:
                seen.add(blk_img)
                queue.append(blk_img)
    return IncidenceStructure(g.degree, sorted(tuple(sorted(blk)) for blk in seen))


def induced_block_action(s: IncidenceStructure, p: Perm) -> Perm:
    """The permutation of block indices induced by a point permutation.

    Raises DesignError with a witness block if some block image is not a
    block of the structure.  Duplicate blocks are matched up in index order,
    which makes the result deterministic.
    """
    if p.degree != s.v:
        raise ValueError("permutation degree %d does not match v=%d" % (p.degree, s.v))
    spare: dict[tuple[int, ...], list[int]] = {}
    for i, blk in enumerate(s.blocks):
        spare.setdefault(blk, []).append(i)
    img, p_img = [0] * s.b, p.img
    for i, blk in enumerate(s.blocks):
        target = tuple(sorted([p_img[x] for x in blk]))
        ids = spare.get(target)
        if not ids:
            raise DesignError(
                "image of block %d = %r is not a block (maps to %r)" % (i, blk, target)
            )
        img[i] = ids.pop(0)
    return Perm(img)


def carries_blocks(img: Sequence[int], blocks: Sequence[tuple[int, ...]],
                   onto: Sequence[tuple[int, ...]]) -> bool:
    """Does the point map img carry the block multiset blocks onto onto's?

    Blocks are sorted point tuples, as IncidenceStructure holds them.
    """
    remaining = Counter(onto)
    for blk in blocks:
        key = tuple(sorted([img[x] for x in blk]))
        left = remaining[key]
        if not left:
            return False
        remaining[key] = left - 1
    return True


def is_flag_transitive(s: IncidenceStructure, g: PermGroup) -> bool:
    """Whether g is transitive on flags (incident point-block pairs).

    Every generator must be an automorphism (induced_block_action raises
    DesignError with a witness otherwise).  Then g is flag-transitive when it
    is transitive on the points on blocks and the stabilizer of one such
    point x is transitive on the blocks through x: developing one of them
    under the stabilizer gives them all.  Repeated blocks are flags no point
    map tells apart, so they make the answer False.
    """
    for p in g.generators:
        induced_block_action(s, p)
    if not s.blocks:
        return False
    x = s.blocks[0][0]
    through = [blk for blk in s.blocks if x in blk]
    # the orbit of x lies among the points on blocks, so equal sizes suffice
    covered = {y for blk in s.blocks for y in blk}
    return (len(g.orbit(x)) == len(covered)
            and develop(g.point_stabilizer(x), through[0]).b == len(through))


def is_point_primitive(s: IncidenceStructure, g: PermGroup) -> bool:
    """Whether g acts primitively on the points (no nontrivial block system)."""
    if g.degree != s.v:
        raise ValueError("group degree %d does not match v=%d" % (g.degree, s.v))
    if not g.is_transitive():
        raise ValueError("primitivity requires a transitive group")
    return all(len(through0) == s.v for through0, _ in candidate_systems(g))


# -- serialization -----------------------------------------------------------

def design_to_json(s: IncidenceStructure) -> str:
    """Serialize; point lists are 1-based in the text format."""
    return json.dumps(
        {"v": s.v, "blocks": [[x + 1 for x in blk] for blk in s.blocks]},
        separators=(",", ":"),
    )


def design_from_json(text: str) -> IncidenceStructure:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("design JSON is nested too deeply") from None
    if not isinstance(obj, dict) or "v" not in obj or "blocks" not in obj:
        raise ValueError("design JSON must be an object with 'v' and 'blocks'")
    v, blocks = obj["v"], obj["blocks"]
    # bool is a subclass of int, but JSON true/false are not point numbers
    if type(v) is not int:
        raise ValueError("'v' must be an integer, got %r" % (v,))
    if v > MAX_POINTS:
        raise ValueError("v=%d above the supported %d points" % (v, MAX_POINTS))
    if not isinstance(blocks, list) or not all(
            isinstance(blk, list) and all(type(x) is int for x in blk) for blk in blocks):
        raise ValueError("'blocks' must be a list of lists of integers")
    return IncidenceStructure(v, [[x - 1 for x in blk] for blk in blocks])
