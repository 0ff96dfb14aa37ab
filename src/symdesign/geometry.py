"""Finite fields of order 2, 3, 4 and the small affine/projective designs.

Field elements are integers 0..q-1 indexing lookup tables; GF(4) uses the
polynomial x^2 + x + 1, with 2 and 3 standing for the two primitive elements.
Points of a geometry are coordinate tuples ordered lexicographically, and
projective representatives are normalized so the first nonzero coordinate
is 1.  Everything downstream relies on this ordering being stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .design import IncidenceStructure
from .perm import Perm, PermGroup


class GF:
    """Arithmetic tables for the field of order q, q in {2, 3, 4}."""

    def __init__(self, q: int):
        if q not in (2, 3, 4):
            raise ValueError("only q in {2,3,4} is supported, got %d" % q)
        self.q = q
        if q == 4:
            # bits (hi, lo) represent hi*w + lo where w^2 = w + 1
            self.add = [[a ^ b for b in range(4)] for a in range(4)]
            mul = [[0] * 4 for _ in range(4)]
            for a in range(1, 4):
                for b in range(1, 4):
                    # multiply as polynomials in w, then reduce w^2 -> w + 1
                    a1, a0 = a >> 1, a & 1
                    b1, b0 = b >> 1, b & 1
                    c2 = a1 & b1
                    c1 = (a1 & b0) ^ (a0 & b1) ^ c2
                    c0 = (a0 & b0) ^ c2
                    mul[a][b] = (c1 << 1) | c0
            self.mul = mul
        else:
            self.add = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        self.inv = [0] + [
            next(b for b in range(1, q) if self.mul[a][b] == 1) for a in range(1, q)
        ]
        # the least generator of the multiplicative group
        self.primitive = {2: 1, 3: 2, 4: 2}[q]

    def frobenius(self, a: int) -> int:
        """x -> x^p for q = p^e; the identity unless q = 4."""
        if self.q == 4:
            return self.mul[a][a]
        return a

    def vec_add(self, u: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.add[a][b] for a, b in zip(u, w))

    def vec_scale(self, c: int, u: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.mul[c][a] for a in u)

    def mat_apply(self, m: list[list[int]], u: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        for row in m:
            acc = 0
            for c, a in zip(row, u):
                acc = self.add[acc][self.mul[c][a]]
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True)
class GeometryDesign:
    kind: str  # AG-lines | AG-planes | PG-lines | PG-hyperplanes
    dim: int
    q: int
    structure: IncidenceStructure
    group: PermGroup


def _gl_generator_matrices(field: GF, n: int) -> list[list[list[int]]]:
    """Row-operation generators of GL(n, q): scaling, swap, cycle, transvection."""

    def eye() -> list[list[int]]:
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    mats = []
    scale = eye()
    scale[0][0] = field.primitive
    mats.append(scale)
    if n >= 2:
        swap = eye()
        swap[0][0] = swap[1][1] = 0
        swap[0][1] = swap[1][0] = 1
        mats.append(swap)
        trans = eye()
        trans[0][1] = 1
        mats.append(trans)
    if n >= 3:
        cycle = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
        mats.append(cycle)
    return mats


def _perm_from_point_map(points: list[tuple[int, ...]], fn) -> Perm:
    index = {p: i for i, p in enumerate(points)}
    return Perm(tuple(index[fn(p)] for p in points))


def build_affine_design(dim: int, q: int, block_dim: int) -> GeometryDesign:
    """Cosets of block_dim-dimensional subspaces of F_q^dim as blocks.

    Lines over F_2 have only two points, so q = 2 requires block_dim = 2.
    """
    field = GF(q)
    if not 1 <= block_dim < dim:
        raise ValueError("need 1 <= block_dim < dim")
    if q == 2 and block_dim != 2:
        raise ValueError("blocks over F_2 must be planes (lines have 2 points)")
    if q ** dim > 100:
        raise ValueError("q^dim = %d exceeds the supported size" % q ** dim)

    points: list[tuple[int, ...]] = sorted(product(range(q), repeat=dim))
    index = {p: i for i, p in enumerate(points)}
    zero = tuple([0] * dim)

    # subspaces of the requested dimension, as sets of vectors
    nonzero = [p for p in points if p != zero]
    subspaces: set[frozenset[tuple[int, ...]]] = set()
    if block_dim == 1:
        for d in nonzero:
            subspaces.add(frozenset(field.vec_scale(c, d) for c in range(q)))
    else:
        for u in nonzero:
            for w in nonzero:
                span = frozenset(
                    field.vec_add(field.vec_scale(a, u), field.vec_scale(b, w))
                    for a in range(q) for b in range(q)
                )
                if len(span) == q * q:
                    subspaces.add(span)

    blocks: set[tuple[int, ...]] = set()
    for sub in subspaces:
        for p in points:
            blocks.add(tuple(sorted(index[field.vec_add(p, s)] for s in sub)))
    structure = IncidenceStructure(q ** dim, sorted(blocks))

    gens = []
    for i in range(dim):
        e = tuple(1 if j == i else 0 for j in range(dim))
        gens.append(_perm_from_point_map(points, lambda p, e=e: field.vec_add(p, e)))
    for m in _gl_generator_matrices(field, dim):
        gens.append(_perm_from_point_map(points, lambda p, m=m: field.mat_apply(m, p)))
    if q == 4:
        gens.append(_perm_from_point_map(
            points, lambda p: tuple(field.frobenius(a) for a in p)))

    kind = "AG-lines" if block_dim == 1 else "AG-planes"
    return GeometryDesign(kind, dim, q, structure, PermGroup(gens, len(points)))


def _normalize_projective(field: GF, p: tuple[int, ...]) -> tuple[int, ...]:
    lead = next(a for a in p if a != 0)
    return tuple(field.mul[field.inv[lead]][a] for a in p)


def build_projective_design(dim: int, q: int, hyperplanes: bool = False) -> GeometryDesign:
    """Lines (or hyperplanes) of PG_dim(q) on its projective points."""
    field = GF(q)
    n = dim + 1
    npoints = (q ** n - 1) // (q - 1)
    if npoints > 100:
        raise ValueError("point count %d exceeds the supported size" % npoints)

    zero = tuple([0] * n)
    vectors = [p for p in sorted(product(range(q), repeat=n)) if p != zero]
    points = sorted({_normalize_projective(field, p) for p in vectors})
    index = {p: i for i, p in enumerate(points)}
    assert len(points) == npoints

    blocks: set[tuple[int, ...]] = set()
    if hyperplanes:
        # kernels of the projective functionals x -> sum a_i x_i
        for a in points:
            blocks.add(tuple(index[p] for p in points if field.mat_apply([a], p) == (0,)))
    else:
        for i, u in enumerate(points):
            for w in points[i + 1:]:
                line = {
                    _normalize_projective(
                        field, field.vec_add(field.vec_scale(a, u), field.vec_scale(b, w)))
                    for a in range(q) for b in range(q)
                    if not (a == 0 and b == 0)
                }
                blocks.add(tuple(sorted(index[p] for p in line)))
    structure = IncidenceStructure(npoints, sorted(blocks))

    def proj_map(fn):
        return _perm_from_point_map(
            points, lambda p: _normalize_projective(field, fn(p)))

    gens = []
    for m in _gl_generator_matrices(field, n):
        gens.append(proj_map(lambda p, m=m: field.mat_apply(m, p)))
    if q == 4:
        gens.append(proj_map(lambda p: tuple(field.frobenius(a) for a in p)))

    kind = "PG-hyperplanes" if hyperplanes else "PG-lines"
    return GeometryDesign(kind, dim, q, structure, PermGroup(gens, npoints))


def restricted_semilinear_group(n: int) -> PermGroup:
    """Semilinear maps of F_4^n acting on the nonzero vectors of F_2^(2n).

    Each F_4 coordinate a = a0 + a1*w is expanded to the bit pair (a0, a1),
    so multiplication by w and the squaring map become F_2-linear and the
    whole group embeds in GL(2n, 2).  Point order matches the projective
    builder over F_2 (all nonzero binary vectors, lexicographic).
    """
    field = GF(4)
    vectors = [p for p in sorted(product(range(2), repeat=2 * n))
               if any(p)]
    index = {p: i for i, p in enumerate(vectors)}

    def to_gf4(p: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((p[2 * i + 1] << 1) | p[2 * i] for i in range(n))

    def to_bits(u: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(bit for a in u for bit in (a & 1, a >> 1))

    gens = []
    for m in _gl_generator_matrices(field, n):
        gens.append(Perm(tuple(
            index[to_bits(field.mat_apply(m, to_gf4(p)))] for p in vectors)))
    gens.append(Perm(tuple(
        index[to_bits(tuple(field.frobenius(a) for a in to_gf4(p)))]
        for p in vectors)))
    return PermGroup(gens, len(vectors))


def _semilinear_order(n: int, q: int) -> int:
    """|GL_n(q)|, times the field automorphism count 2 for q = 4."""
    return prod(q ** n - q ** i for i in range(n)) * (2 if q == 4 else 1)


def affine_group_order(dim: int, q: int) -> int:
    """|AGL_dim(q)|, times the field automorphism count for q = 4."""
    return q ** dim * _semilinear_order(dim, q)


def projective_group_order(dim: int, q: int) -> int:
    """|PGL_{dim+1}(q)|, times the field automorphism count for q = 4."""
    return _semilinear_order(dim + 1, q) // (q - 1)
