"""Decomposition of an imprimitive flag-transitive design along its partition.

Given a 2-design, a flag-transitive group, and an invariant partition of the
points into v1 classes of size v0, every block meets every class in 0 or k0
points.  Collapsing equal traces on one class gives the inner design D0;
collapsing blocks with equal class-footprints gives the quotient design D1.
Two multiplicities fall out: theta, the number of blocks sharing one trace,
and mu, the number sharing one footprint.  The numbers are checked once,
against the family of enumeration.make_row named by D0 and D1 at this mu.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CZDecomposition:
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

    def table_row(self) -> str:
        lam0 = "-" if self.lambda0 is None else str(self.lambda0)
        return "%d %d %s %d %d %d | %d %d %d %d %d | %d" % (
            self.v0, self.k0, lam0, self.d0_params.r, self.d0_params.b, self.theta,
            self.v1, self.k1, self.lambda1, self.d1_params.r, self.d1_params.b,
            self.mu,
        )


def _check_partition(s: IncidenceStructure, g: PermGroup,
                     sigma: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    classes = tuple(tuple(sorted(c)) for c in sigma)
    classes = tuple(sorted(classes, key=lambda c: c[0]))
    flat = sorted(x for c in classes for x in c)
    if flat != list(range(s.v)):
        raise DecompositionError("sigma is not a partition of the points")
    if len(classes) < 2 or len(classes[0]) < 2:
        raise DecompositionError("sigma must be nontrivial")
    sizes = {len(c) for c in classes}
    if len(sizes) != 1:
        raise DecompositionError("classes have unequal sizes %s" % sorted(sizes))
    member = {x: i for i, c in enumerate(classes) for x in c}
    for p in g.generators:
        for c in classes:
            images = {member[p[x]] for x in c}
            if len(images) != 1:
                raise DecompositionError(
                    "generator %r splits class %r across classes" % (p, c)
                )
    return classes


def decompose(s: IncidenceStructure, g: PermGroup,
              sigma: Sequence[Sequence[int]]) -> CZDecomposition:
    """Split a design along an invariant partition, checking it against its family."""
    params = verify_design(s)
    if not is_flag_transitive(s, g):
        raise DecompositionError("group is not flag-transitive on the design")
    classes = _check_partition(s, g, sigma)
    v0 = len(classes[0])
    v1 = len(classes)
    member = {x: i for i, c in enumerate(classes) for x in c}
    class_sets = [frozenset(c) for c in classes]

    # two-valued intersection: |B meet Delta| = 0 or k0, for every pair
    k0 = 0
    for bi, blk in enumerate(s.blocks):
        hits = Counter(member[x] for x in blk)
        for ci, n in hits.items():
            if k0 == 0:
                k0 = n
            elif n != k0:
                raise DecompositionError(
                    "block %d meets class %d in %d points, expected 0 or %d"
                    % (bi, ci, n, k0)
                )
    if k0 < 2:
        raise DecompositionError("intersection constant k0=%d is below 2" % k0)
    if params.k % k0:
        raise DecompositionError("k0=%d does not divide k=%d" % (k0, params.k))
    k1 = params.k // k0

    # footprints: which classes each block meets; constant size k1, each
    # footprint shared by exactly mu blocks
    footprints = []
    for bi, blk in enumerate(s.blocks):
        fp = frozenset(member[x] for x in blk)
        if len(fp) != k1:
            raise DecompositionError(
                "block %d meets %d classes, expected k1=%d" % (bi, len(fp), k1)
            )
        footprints.append(fp)
    fp_counts = Counter(footprints)
    mu_values = set(fp_counts.values())
    if len(mu_values) != 1:
        raise DecompositionError(
            "footprint multiplicity is not constant: %s" % sorted(mu_values)
        )
    mu = mu_values.pop()

    # traces on the first class; blocks sharing a trace come in theta-packs
    def trace_counter(ci: int) -> Counter:
        out = Counter()
        for blk in s.blocks:
            t = class_sets[ci].intersection(blk)
            if t:
                out[t] += 1
        return out

    traces = trace_counter(0)
    theta_values = set(traces.values())
    if len(theta_values) != 1:
        raise DecompositionError(
            "trace multiplicity on class 0 is not constant: %s" % sorted(theta_values)
        )
    theta = theta_values.pop()
    # all classes are equivalent under the group; spot-check one more
    other = trace_counter(1)
    if sorted(other.values()) != sorted(traces.values()) or len(other) != len(traces):
        raise DecompositionError("classes 0 and 1 disagree on trace structure")

    relabel0 = {x: i for i, x in enumerate(classes[0])}
    d0 = IncidenceStructure(
        v0, sorted(tuple(sorted(relabel0[x] for x in t)) for t in traces)
    )
    d1 = IncidenceStructure(v1, sorted(tuple(sorted(fp)) for fp in fp_counts))
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

