"""Finite fields of order 2, 3, 4 and the small affine/projective designs.

Field elements are integers 0..q-1 indexing lookup tables; products and
inverses are read off the powers of the least primitive element, and GF(4)
uses x^2 + x + 1, with 2 and 3 standing for its two primitive elements.
Points of a geometry are coordinate tuples ordered lexicographically, and
projective representatives are normalized so the first nonzero coordinate
is 1.  Everything downstream relies on this ordering being stable.

Every design here is flag-transitive, so it is built as the orbit of one
flat under its semilinear group (AGammaL on affine space, PGammaL on
projective space): design.develop of a base block under that group.
_semilinear_maps is the one list of GammaL generators, shared with
restricted_semilinear_group.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import NamedTuple

from .design import IncidenceStructure, develop
from .perm import MAX_POINTS, Perm, PermGroup


class GF:
    """Arithmetic tables for the field of order q, q in {2, 3, 4}."""

    def __init__(self, q: int):
        if q not in (2, 3, 4):
            raise ValueError("only q in {2,3,4} is supported, got %d" % q)
        self.q = q
        # the powers 1, w, w^2 of the least primitive element w, exponents
        # mod q - 1; over GF(4) w = 2 and w^2 = w + 1 = 3, and addition is XOR
        n = q - 1
        powers = [1, 2, 3][:n]
        log = {x: e for e, x in enumerate(powers)}
        self.add = [[a ^ b if q == 4 else (a + b) % q for b in range(q)] for a in range(q)]
        self.mul = [[powers[(log[a] + log[b]) % n] if a and b else 0 for b in range(q)]
                    for a in range(q)]
        self.inv = [0] + [powers[-log[a] % n] for a in range(1, q)]
        self.primitive = powers[1 % n]

    def frobenius(self, a: int) -> int:
        """x -> x^p for q = p^e; the identity unless q = 4."""
        return self.mul[a][a] if self.q == 4 else a


class GeometryDesign(NamedTuple):
    structure: IncidenceStructure
    group: PermGroup


def _semilinear_maps(field: GF, n: int) -> list:
    """Generators of GammaL(n, q) as maps of coordinate tuples.

    Scaling of the first coordinate by the primitive element, swap of the
    first two, the transvection adding the second to the first, the cyclic
    shift, then the Frobenius map when q = 4.
    """
    add, mul, prim = field.add, field.mul, field.primitive
    maps = [lambda p: (mul[prim][p[0]],) + p[1:]]
    if n >= 2:
        maps.append(lambda p: (p[1], p[0]) + p[2:])
        maps.append(lambda p: (add[p[0]][p[1]],) + p[1:])
    if n >= 3:
        maps.append(lambda p: p[1:] + p[:1])
    if field.q == 4:
        maps.append(lambda p: tuple(map(field.frobenius, p)))
    return maps


def _group_on(points: list[tuple[int, ...]], maps: list) -> PermGroup:
    """The group generated by maps, each a bijection of points."""
    index = {p: i for i, p in enumerate(points)}
    return PermGroup([Perm(tuple(index[fn(p)] for p in points)) for fn in maps],
                     len(points))


def build_affine_design(dim: int, q: int, block_dim: int) -> GeometryDesign:
    """The block_dim-flats of AG(dim, q), developed under AGammaL(dim, q).

    The group is generated by the unit translations and the GammaL maps;
    the base block is the subspace of points whose coordinates past
    block_dim are zero.  Lines over F_2 have only two points, so q = 2
    requires block_dim = 2.
    """
    field = GF(q)
    if not 1 <= block_dim < dim:
        raise ValueError("need 1 <= block_dim < dim")
    if q == 2 and block_dim != 2:
        raise ValueError("blocks over F_2 must be planes (lines have 2 points)")
    if q ** dim > MAX_POINTS:
        raise ValueError("q^dim = %d exceeds the supported size" % q ** dim)

    points = list(product(range(q), repeat=dim))
    translations = [lambda p, i=i: p[:i] + (field.add[p[i]][1],) + p[i + 1:]
                    for i in range(dim)]
    group = _group_on(points, translations + _semilinear_maps(field, dim))
    base = [i for i, p in enumerate(points) if not any(p[block_dim:])]
    return GeometryDesign(develop(group, base), group)


def _normalize_projective(field: GF, p: tuple[int, ...]) -> tuple[int, ...]:
    lead = next(a for a in p if a != 0)
    return tuple(field.mul[field.inv[lead]][a] for a in p)


def build_projective_design(dim: int, q: int, hyperplanes: bool = False) -> GeometryDesign:
    """Lines (or hyperplanes) of PG(dim, q), developed under PGammaL(dim+1, q).

    The base block is the line of points whose coordinates past the second
    are zero, or the hyperplane of points whose first coordinate is zero.
    """
    field = GF(q)
    if dim < 1:
        raise ValueError("need dim >= 1")
    npoints = (q ** (dim + 1) - 1) // (q - 1)
    if npoints > MAX_POINTS:
        raise ValueError("point count %d exceeds the supported size" % npoints)

    points = [p for p in product(range(q), repeat=dim + 1)
              if any(p) and _normalize_projective(field, p) == p]
    group = _group_on(points, [lambda p, fn=fn: _normalize_projective(field, fn(p))
                               for fn in _semilinear_maps(field, dim + 1)])
    base = [i for i, p in enumerate(points)
            if (p[0] == 0 if hyperplanes else not any(p[2:]))]
    return GeometryDesign(develop(group, base), group)


def restricted_semilinear_group(n: int) -> PermGroup:
    """Semilinear maps of F_4^n acting on the nonzero vectors of F_2^(2n).

    Each F_4 coordinate a = a0 + a1*w is expanded to the bit pair (a0, a1),
    so multiplication by w and the squaring map become F_2-linear and the
    whole group embeds in GL(2n, 2).  Point order matches the projective
    builder over F_2 (all nonzero binary vectors, lexicographic).
    """
    vectors = [p for p in product(range(2), repeat=2 * n) if any(p)]

    def to_gf4(p: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((p[2 * i + 1] << 1) | p[2 * i] for i in range(n))

    def to_bits(u: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(bit for a in u for bit in (a & 1, a >> 1))

    return _group_on(vectors, [lambda p, fn=fn: to_bits(fn(to_gf4(p)))
                               for fn in _semilinear_maps(GF(4), n)])


def _semilinear_order(n: int, q: int) -> int:
    """|GL_n(q)|, times the field automorphism count 2 for q = 4."""
    return prod(q ** n - q ** i for i in range(n)) * (2 if q == 4 else 1)


def affine_group_order(dim: int, q: int) -> int:
    """|AGL_dim(q)|, times the field automorphism count for q = 4."""
    return q ** dim * _semilinear_order(dim, q)


def projective_group_order(dim: int, q: int) -> int:
    """|PGL_{dim+1}(q)|, times the field automorphism count for q = 4."""
    return _semilinear_order(dim + 1, q) // (q - 1)
