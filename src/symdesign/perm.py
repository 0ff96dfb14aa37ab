"""Permutations and permutation groups with deterministic stabilizer chains.

Points are 0-based integers throughout this package; the text formats
(cycle strings, generator files) are 1-based, matching the usual printed
convention, and are converted on parse/render.

Composition acts on the right: ``(p * q)[x] == q[p[x]]``, i.e. ``p`` is
applied first.  Everything here is deterministic — base points are chosen
as the smallest moved point, orbits are grown breadth-first in generator
order — so group data (orders, orbits, block systems) is reproducible
byte-for-byte across runs.

Only the public ``Perm(...)`` constructor and the parsers check that an
image tuple is a permutation; products, inverses and the chain code build
their results unchecked, since they are permutations by construction.

Every chain is built by one Schreier–Sims path, on the first query that
reads it, not at construction.  A group starts from an empty chain (just
the levels of a base hint) or from a copy of a complete one.  Each new
generator is stripped through the chain, and a residue other than the
identity becomes a strong generator at the level where the strip stopped;
on an empty chain that is the first base point the generator moves.  The
levels are then completed bottom-up.  Each level records which of its
Schreier generators are known to sift to the identity, so a level nothing
new reached returns at once; transversals are only ever extended, so only
the Schreier generators of new points and new generators are sifted again.
Groups derived from a chain reuse it:

* ``extend(g)`` copies the chain and adds ``g`` this way, re-verifying only
  the levels its residue reaches.
* ``point_stabilizer(p)`` reads the stabilizer off the chain.  For the
  first base point it takes levels 1 and deeper as they are; for a point of
  the first basic orbit it conjugates those levels by the transversal
  element carrying the first base point to ``p``.  Any other moved point
  costs one rebuild from the strong generators with ``p`` as the first base
  point, which stops as soon as the basic orbit lengths multiply up to the
  order already known.

References: Seress, *Permutation Group Algorithms* (2003), ch. 4–5; Holt,
Eick and O'Brien, *Handbook of Computational Group Theory* (2005), §4.4.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Sequence

# the package's scope: designs and groups on at most this many points
MAX_POINTS = 100


class Perm:
    """An immutable permutation of {0, ..., n-1}, stored as its image tuple."""

    __slots__ = ("img",)

    def __init__(self, img: Sequence[int]):
        img = tuple(img)
        if sorted(img) != list(range(len(img))):
            raise ValueError("not a permutation of 0..n-1: %r" % (img,))
        self.img = img

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return _perm(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Perm":
        """Build from disjoint 0-based cycles; points not mentioned are fixed."""
        img = list(range(degree))
        seen: set[int] = set()
        for cyc in cycles:
            for x in cyc:
                if not 0 <= x < degree:
                    raise ValueError("point %d out of range for degree %d" % (x, degree))
                if x in seen:
                    raise ValueError("point %d appears in two cycles" % x)
                seen.add(x)
            for i, x in enumerate(cyc):
                img[x] = cyc[(i + 1) % len(cyc)]
        return cls(img)

    @property
    def degree(self) -> int:
        return len(self.img)

    def __getitem__(self, x: int) -> int:
        return self.img[x]

    def __mul__(self, other: "Perm") -> "Perm":
        # apply self first, then other
        oi = other.img
        return _perm(tuple([oi[x] for x in self.img]))

    def inv(self) -> "Perm":
        return _perm(_inverse(self.img))

    def is_identity(self) -> bool:
        return self.img == tuple(range(len(self.img)))

    def min_moved(self) -> int | None:
        for x, y in enumerate(self.img):
            if x != y:
                return x
        return None

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point, sorted by it."""
        img = self.img
        seen = [False] * len(img)
        out: list[tuple[int, ...]] = []
        for start in range(len(img)):
            if seen[start] or img[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = img[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = img[x]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        cycs = self.cycles()
        return math.lcm(*(len(c) for c in cycs)) if cycs else 1

    def apply_to_set(self, points: Iterable[int]) -> frozenset[int]:
        return frozenset(self.img[x] for x in points)

    def cycle_string(self) -> str:
        """The nontrivial cycles, 1-based, as the text formats print them."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cycs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.img == other.img

    def __hash__(self) -> int:
        return hash(self.img)

    def __repr__(self) -> str:
        return "Perm[%s]" % self.cycle_string()


_new = object.__new__


def _perm(img: tuple[int, ...]) -> Perm:
    """A Perm on an image tuple that is a permutation by construction."""
    p = _new(Perm)
    p.img = img
    return p


def _inverse(img: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(img)
    for x, y in enumerate(img):
        out[y] = x
    return tuple(out)


def parse_permutation(text: str, degree: int) -> Perm:
    """Parse a product of 1-based cycles, e.g. ``(1,4)(2,3)``.

    Whitespace is ignored; ``()`` and the empty string denote the identity.
    A trailing ``;`` or ``.`` (as printed in generator listings) is allowed.
    """
    s = "".join(text.split()).rstrip(";.")
    if s in ("", "()"):
        return Perm.identity(degree)
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError("cycle string must be wrapped in parentheses: %r" % text)
    cycles: list[list[int]] = []
    for part in s[1:-1].split(")("):
        if not part:
            continue
        cyc = []
        for tok in part.split(","):
            x = int(tok)
            if not 1 <= x <= degree:
                raise ValueError("point %d out of range 1..%d" % (x, degree))
            cyc.append(x - 1)
        cycles.append(cyc)
    return Perm.from_cycles(cycles, degree)


def parse_generator_file(text: str) -> tuple[int, list[Perm]]:
    """Parse the generator file format.

    The first significant line is ``degree n``; every following significant
    line is one permutation as a product of 1-based cycles.  ``#`` starts a
    comment, blank lines are skipped.
    """
    degree: int | None = None
    gens: list[Perm] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree":
                raise ValueError("line %d: expected 'degree n', got %r" % (lineno, raw))
            degree = int(parts[1])
            if degree <= 0:
                raise ValueError("line %d: degree must be positive" % lineno)
            if degree > MAX_POINTS:
                raise ValueError("line %d: degree %d above the supported %d points"
                                 % (lineno, degree, MAX_POINTS))
            continue
        gens.append(parse_permutation(line, degree))
    if degree is None:
        raise ValueError("no 'degree n' line found")
    return degree, gens


class _OrderReached(Exception):
    """A build of known order has reached it, so its chain is complete."""


class PermGroup:
    """A permutation group with a deterministic Schreier–Sims stabilizer chain.

    Every generator, the identity too, must have the group's degree; the
    chain is built on the first query that reads it (module docstring).  Base
    points are the points of ``_base_hint`` (kept even where the group
    fixes them), then the smallest point moved by each new strong
    generator; transversals are grown breadth-first in generator order and
    only ever extended.

    A chain never changes once built, so ``point_stabilizer`` and
    ``extend`` can derive new groups from it, and a stabilizer shares its
    levels with the group it was read from.  The private keyword-only
    arguments serve them: ``_base_hint`` fixes the leading base points;
    ``_order`` is the group's order, known in advance, and ends the build
    as soon as the chain reaches it; ``_chain`` is a group generated by a
    prefix of ``generators`` whose chain is copied and extended by the rest.
    They are kept for the build, so it gives the same chain whenever it runs.
    """

    def __init__(
        self,
        generators: Sequence[Perm],
        degree: int,
        *,
        _base_hint: Sequence[int] = (),
        _order: int | None = None,
        _chain: "PermGroup | None" = None,
    ):
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree %d is not the group's %d" % (g.degree, degree))
        self.degree = degree
        self.generators = tuple(g for g in generators if not g.is_identity())
        self._ident = tuple(range(degree))
        self._pending = (_base_hint, _order, _chain)

    def __getattr__(self, name: str):
        # reached only while the chain is missing: build it on first read
        if name not in ("_base", "_lvl_gens", "_trans", "_checked"):
            raise AttributeError(name)
        self._build_chain()
        return vars(self)[name]

    # -- chain construction ------------------------------------------------

    def _build_chain(self) -> None:
        _base_hint, _order, _chain = vars(self).pop("_pending")
        if _chain is None:
            self._base: list[int] = []
            self._lvl_gens: list[list[Perm]] = []  # _lvl_gens[i] generates the stabilizer of _base[:i]
            # _trans[i][x] = (u, u^-1) as image tuples, where u maps _base[i] to x
            self._trans: list[dict[int, tuple[tuple[int, ...], tuple[int, ...]]]] = []
            # _checked[i] = (p, n): the Schreier generators of the first p
            # points and first n generators of level i are known to sift
            self._checked: list[tuple[int, int]] = []
            # hint points become the leading base points unconditionally; a
            # point the group barely moves just yields a singleton transversal
            for p in _base_hint:
                if p not in self._base:
                    self._append_level(p)
            new = self.generators
        else:
            self._base = list(_chain._base)
            self._lvl_gens = [list(gens) for gens in _chain._lvl_gens]
            self._trans = [dict(trans) for trans in _chain._trans]
            self._checked = list(_chain._checked)
            new = self.generators[len(_chain.generators):]
        try:
            for g in new:
                residue, j = self._strip(g.img, 0)
                if residue != self._ident:
                    self._insert_generator(_perm(residue), j, 0)
            for i in range(len(self._base) - 1, -1, -1):
                self._verify_level(i, _order)
        except _OrderReached:
            # the product of the basic orbit lengths is |G|, so every basic
            # orbit is complete and every Schreier generator sifts
            self._checked = [(len(t), len(g)) for t, g in zip(self._trans, self._lvl_gens)]

    def _append_level(self, point: int) -> None:
        self._base.append(point)
        self._lvl_gens.append([])
        self._trans.append({point: (self._ident, self._ident)})
        self._checked.append((0, 0))

    def _extend_transversal(self, i: int) -> None:
        """Close the orbit of level i under its generators, keeping old entries."""
        trans = self._trans[i]
        imgs = [g.img for g in self._lvl_gens[i]]
        queue = list(trans)
        for x in queue:  # grows while it is read: breadth-first
            ux = trans[x][0]
            for g in imgs:
                y = g[x]
                if y not in trans:
                    uy = tuple([g[z] for z in ux])
                    trans[y] = (uy, _inverse(uy))
                    queue.append(y)

    def _strip(self, img: tuple[int, ...], from_level: int) -> tuple[tuple[int, ...], int]:
        """Sift an image through levels >= from_level; return (residue, level reached)."""
        base, trans = self._base, self._trans
        for i in range(from_level, len(base)):
            b = base[i]
            x = img[b]
            if x != b:
                rep = trans[i].get(x)
                if rep is None:
                    return img, i
                inv = rep[1]
                img = tuple([inv[y] for y in img])
        return img, len(base)

    def _insert_generator(self, g: Perm, level: int, from_level: int) -> None:
        """Record g as a generator for levels from_level..level inclusive."""
        if level == len(self._base):
            self._append_level(g.min_moved())
        for i in range(from_level, level + 1):
            self._lvl_gens[i].append(g)

    def _verify_level(self, i: int, order: int | None) -> None:
        """Schreier-Sims step: complete level i, assuming deeper levels are complete.

        Only Schreier generators not checked before are sifted.  New strong
        generators found here are anchored strictly below level i, so the
        generator list and transversal of level i stay valid for the whole
        scan.  Raises _OrderReached once the chain reaches a known order.
        """
        trans = self._trans[i]
        imgs = [g.img for g in self._lvl_gens[i]]
        done_points, done_gens = self._checked[i]
        if (done_points, done_gens) == (len(trans), len(imgs)):
            return
        self._extend_transversal(i)
        if order is not None and self.order() == order:
            raise _OrderReached
        ident = self._ident
        points = list(trans)
        for n, x in enumerate(points):
            ux = trans[x][0]
            for g in imgs[done_gens if n < done_points else 0:]:
                uy_inv = trans[g[x]][1]
                schreier = tuple([uy_inv[g[z]] for z in ux])
                if schreier == ident:
                    continue
                residue, j = self._strip(schreier, i + 1)
                if residue == ident:
                    continue
                self._insert_generator(_perm(residue), j, i + 1)
                for l in range(min(j, len(self._base) - 1), i, -1):
                    self._verify_level(l, order)
        self._checked[i] = (len(points), len(imgs))

    # -- derived groups ----------------------------------------------------

    def extend(self, g: Perm) -> "PermGroup":
        """The group generated by this one and g; its generators are ours plus g."""
        return PermGroup(self.generators + (g,), self.degree, _chain=self)

    def point_stabilizer(self, point: int) -> "PermGroup":
        """The stabilizer of one point, read off this group's chain.

        The group itself when it fixes the point; otherwise levels 1 and
        deeper of this chain, conjugated when the point is in the first
        basic orbit but not the first base point, or of one rebuild with the
        point first when it is not in the first basic orbit.
        """
        if not 0 <= point < self.degree:
            raise ValueError("point %d out of range" % point)
        if all(g.img[point] == point for g in self.generators):
            return self
        rep = self._trans[0].get(point)
        if rep is None:
            rebased = PermGroup(self.strong_generators(), self.degree,
                                _base_hint=[point, *self._base], _order=self.order())
            return rebased._first_stabilizer(None)
        return self._first_stabilizer(None if point == self._base[0] else rep)

    def _first_stabilizer(
        self, rep: tuple[tuple[int, ...], tuple[int, ...]] | None
    ) -> "PermGroup":
        """Levels 1 and deeper as a group: the stabilizer of the first base point.

        With rep = (t, t^-1) from the first transversal, the levels are
        conjugated by t, giving the stabilizer of the point t carries the
        first base point to.
        """
        base, lvl_gens, trans = self._base[1:], self._lvl_gens[1:], self._trans[1:]
        if rep is not None:
            t, t_inv = rep

            def conj(img: tuple[int, ...]) -> tuple[int, ...]:
                return tuple([t[img[z]] for z in t_inv])

            conjugated: dict[int, Perm] = {}
            for gens in lvl_gens:
                for g in gens:
                    if id(g) not in conjugated:
                        conjugated[id(g)] = _perm(conj(g.img))
            base = [t[b] for b in base]
            lvl_gens = [[conjugated[id(g)] for g in gens] for gens in lvl_gens]
            trans = [{t[x]: (conj(u), conj(u_inv)) for x, (u, u_inv) in level.items()}
                     for level in trans]
        stab = _new(PermGroup)
        stab.degree = self.degree
        stab.generators = tuple(lvl_gens[0]) if lvl_gens else ()
        stab._ident = self._ident
        stab._base, stab._lvl_gens, stab._trans = base, lvl_gens, trans
        stab._checked = self._checked[1:]
        return stab

    # -- queries -----------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(self._base)

    def strong_generators(self) -> tuple[Perm, ...]:
        seen: dict[Perm, None] = {}
        for gens in self._lvl_gens:
            for g in gens:
                seen[g] = None
        return tuple(seen)

    def order(self) -> int:
        n = 1
        for t in self._trans:
            n *= len(t)
        return n

    def contains(self, g: Perm) -> bool:
        if g.degree != self.degree:
            raise ValueError("permutation degree %d does not match the group's %d"
                             % (g.degree, self.degree))
        residue, _ = self._strip(g.img, 0)
        return residue == self._ident

    def __contains__(self, g: Perm) -> bool:
        return self.contains(g)

    @functools.cached_property
    def _orbit_partition(self) -> tuple[list[list[int]], list[int]]:
        """The orbits, each sorted and ordered by smallest point, and the
        index of each point's orbit; computed once, on first use."""
        imgs = [g.img for g in self.generators]
        index = [-1] * self.degree
        orbits: list[list[int]] = []
        for p in range(self.degree):
            if index[p] >= 0:
                continue
            index[p] = len(orbits)
            orb = [p]
            for x in orb:  # grows while it is read: breadth-first
                for img in imgs:
                    y = img[x]
                    if index[y] < 0:
                        index[y] = len(orbits)
                        orb.append(y)
            orbits.append(sorted(orb))
        return orbits, index

    def orbit(self, point: int) -> list[int]:
        """The orbit of a point, sorted ascending."""
        if not 0 <= point < self.degree:
            raise ValueError("point %d out of range 0..%d" % (point, self.degree - 1))
        orbits, index = self._orbit_partition
        return list(orbits[index[point]])

    def orbits(self) -> list[list[int]]:
        """All orbits on {0..degree-1}, including fixed points, each sorted."""
        return [list(orb) for orb in self._orbit_partition[0]]

    def is_transitive(self) -> bool:
        return len(self._orbit_partition[0]) <= 1

    def is_regular(self) -> bool:
        return self.is_transitive() and self.order() == self.degree

    def iter_elements(self) -> Iterator[Perm]:
        """All elements, via the transversal product; only sane for small orders."""

        def rec(i: int, prefix: tuple[int, ...]) -> Iterator[Perm]:
            if i == len(self._trans):
                yield _perm(prefix)
                return
            trans = self._trans[i]
            for x in sorted(trans):
                u = trans[x][0]
                yield from rec(i + 1, tuple([prefix[y] for y in u]))

        yield from rec(0, self._ident)

    def __repr__(self) -> str:
        return "PermGroup(degree=%d, order=%d, ngens=%d)" % (
            self.degree,
            self.order(),
            len(self.generators),
        )


def rank_and_subdegrees(group: PermGroup) -> tuple[int, tuple[int, ...]]:
    """Rank and sorted subdegrees of a transitive group (stabilizer of point 0)."""
    if not group.is_transitive():
        raise ValueError("rank/subdegrees require a transitive group")
    stab = group.point_stabilizer(0)
    sizes = tuple(sorted(len(o) for o in stab.orbits()))
    return len(sizes), sizes


def _finest_system_joining(gens: Sequence[Perm], degree: int, p: int, q: int) -> list[int]:
    """The finest G-congruence with p and q in one class, as class labels.

    Union-find: merging two roots queues their images under every
    generator.  The smaller root stays, so each class is labelled by its
    smallest member.
    """
    parent = list(range(degree))
    imgs = [g.img for g in gens]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(p, q)]
    while queue:
        a, b = queue.pop()
        ra, rb = sorted((find(a), find(b)))
        if ra != rb:
            parent[rb] = ra
            queue.extend((img[ra], img[rb]) for img in imgs)
    return [find(x) for x in range(degree)]


def candidate_systems(group: PermGroup) -> Iterator[tuple[frozenset[int], list[int]]]:
    """Lazily, the class through 0 and the class labels of the finest block
    system joining 0 and q, for one q per orbit of the stabilizer of 0 but {0}.

    In a transitive group a system is fixed by its class through 0 (the whole
    set when no proper system joins 0 and q), and refines another exactly
    when that class is the smaller.  An h fixing 0 carries the system joining
    0 and q onto the one joining 0 and h(q), so one q per orbit will do.
    """
    for orb in group.point_stabilizer(0).orbits()[1:]:
        labels = _finest_system_joining(group.generators, group.degree, 0, orb[0])
        yield frozenset(x for x, label in enumerate(labels) if label == 0), labels


def minimal_block_systems(group: PermGroup) -> list[tuple[tuple[int, ...], ...]]:
    """All minimal nontrivial block systems of a transitive group.

    Each system is a tuple of classes (sorted tuples), ordered by smallest
    member; systems are ordered by class size then lexicographically.  An
    empty result means the group is primitive.
    """
    if not group.is_transitive():
        raise ValueError("block systems require a transitive group")
    candidates = {through0: labels for through0, labels in candidate_systems(group)
                  if len(through0) < group.degree}
    systems = []
    for through0, labels in candidates.items():
        if any(other < through0 for other in candidates):
            continue
        classes: dict[int, list[int]] = {}
        for x, label in enumerate(labels):  # labels are class minima: sorted
            classes.setdefault(label, []).append(x)
        systems.append(tuple(tuple(c) for c in classes.values()))
    systems.sort(key=lambda s: (len(s[0]), s))
    return systems
