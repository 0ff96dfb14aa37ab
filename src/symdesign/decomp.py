"""Decomposition of an imprimitive flag-transitive design along its partition.

Let G be flag-transitive on a 2-design and preserve a partition of the
points into v1 classes of size v0.  Then every block meets every class in
0 or k0 points, and the blocks split two ways (Camina and Zieschang): the
traces on one class form the inner design D0, each trace shared by theta
blocks, and the footprints (the sets of classes a block meets) form the
quotient design D1, each footprint shared by mu blocks.

Three facts make each number constant, so it is read once, from one
representative.  G_B is transitive on the points of B, so B meets each
class it meets in the same k0 points; lambda >= 1 and v0 >= 2 put two
points of a class in one block, so k0 >= 2, and k = k0 k1.  G is
transitive on blocks, so every footprint has the multiplicity mu of
block 0's.  The stabilizer of a class is transitive on the blocks that
meet it, so every trace on class 0 has the multiplicity theta of the
first.  Point-transitivity also makes the classes equal in size.  The
numbers are then certified once, against the family of enumeration.make_row
named by D0 and D1 at this mu.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple

from .design import (
    DesignParams,
    IncidenceStructure,
    is_flag_transitive,
    verify_design,
)
from .enumeration import complete_inner, make_row
from .perm import PermGroup


class DecompositionError(ValueError):
    pass


class CZDecomposition(NamedTuple):
    sigma: tuple[tuple[int, ...], ...]
    v0: int
    v1: int
    k0: int
    k1: int
    theta: int
    mu: int
    d0: IncidenceStructure
    d1: IncidenceStructure
    d0_params: DesignParams
    d1_params: DesignParams
    lambda0: int | None  # absent when D0 is the k0 = v0 - 1 edge case
    lambda1: int
    params: DesignParams

    def fields(self) -> dict[str, int | None]:
        """The twelve Table 5 columns, in order."""
        p0, p1 = self.d0_params, self.d1_params
        return {"v0": self.v0, "k0": self.k0, "lambda0": self.lambda0,
                "r0": p0.r, "b0": p0.b, "theta": self.theta,
                "v1": self.v1, "k1": self.k1, "lambda1": self.lambda1,
                "r1": p1.r, "b1": p1.b, "mu": self.mu}

    def table_row(self) -> str:
        cells = ["-" if x is None else str(x) for x in self.fields().values()]
        return " | ".join((" ".join(cells[:6]), " ".join(cells[6:11]), cells[11]))


def _check_partition(s: IncidenceStructure, g: PermGroup, sigma: Sequence[Sequence[int]]
                     ) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]]:
    """The classes, sorted by smallest point, and each point's class index."""
    classes = tuple(tuple(sorted(c)) for c in sigma)
    classes = tuple(sorted(classes, key=lambda c: c[0]))
    flat = sorted(x for c in classes for x in c)
    if flat != list(range(s.v)):
        raise DecompositionError("sigma is not a partition of the points")
    if len(classes) < 2 or len(classes[0]) < 2:
        raise DecompositionError("sigma must be nontrivial")
    member = {x: i for i, c in enumerate(classes) for x in c}
    for p in g.generators:
        for c in classes:
            images = {member[p[x]] for x in c}
            if len(images) != 1:
                raise DecompositionError(
                    "generator %r splits class %r across classes" % (p, c)
                )
    return classes, member


def decompose(s: IncidenceStructure, g: PermGroup,
              sigma: Sequence[Sequence[int]]) -> CZDecomposition:
    """Split a design along an invariant partition, checking it against its family."""
    params = verify_design(s)
    if not is_flag_transitive(s, g):
        raise DecompositionError("group is not flag-transitive on the design")
    classes, member = _check_partition(s, g, sigma)
    v0, v1 = len(classes[0]), len(classes)

    blk = s.blocks[0]
    k0 = sum(member[x] == member[blk[0]] for x in blk)
    footprints = Counter(frozenset(member[x] for x in b) for b in s.blocks)
    fp = frozenset(member[x] for x in blk)
    k1, mu = len(fp), footprints[fp]
    class0 = frozenset(classes[0])
    traces = Counter(t for b in s.blocks if (t := class0.intersection(b)))
    theta = next(iter(traces.values()))

    relabel0 = {x: i for i, x in enumerate(classes[0])}
    d0 = IncidenceStructure(
        v0, sorted(tuple(sorted(relabel0[x] for x in t)) for t in traces)
    )
    d1 = IncidenceStructure(v1, sorted(tuple(sorted(f)) for f in footprints))
    d0_params = verify_design(d0)
    d1_params = verify_design(d1)

    # D0 and D1 name one family of the enumeration (a complete D0 has
    # lambda0 = v0 - 2, the value it uses there), whose arithmetic, both
    # index relations included, must give this design's numbers at mu
    family = (v0, k0, d0_params.lam, v1, k1, d1_params.lam)
    row = make_row(*family)
    want = (params.lam, params.r, params.b, theta)
    if (row.lambda_at(mu), row.r_at(mu), row.b_at(mu), row.theta_at(mu)) != want:
        raise DecompositionError("(lambda, r, b, theta) = %s is not family %s at mu=%d"
                                 % (want, family, mu))

    return CZDecomposition(
        sigma=classes, v0=v0, v1=v1, k0=k0, k1=k1, theta=theta, mu=mu,
        d0=d0, d1=d1, d0_params=d0_params, d1_params=d1_params,
        lambda0=None if complete_inner(v0, k0) else d0_params.lam,
        lambda1=d1_params.lam, params=params,
    )
