"""Named designs with embedded construction data and verified claims.

One ordered table lists the catalog: the paper's five entries, then one
row per classical geometry.  Every row is a builder, its arguments and the
entry's claims; a builder returns the design and the group it was built
with, and entry() turns a row, or a complete(v,k) name, into a
CatalogEntry, a NamedTuple with its own copy of the claims.  The claims
(parameters, automorphism group order, transitivity properties) are
re-checked from scratch by run_claims.  The two 64-point developments are
read from the generator strings shipped in data/ (the second's base block
is the rest of the 56 points outside point 0's class).  The third 64-point
design develops an elliptic quadric's zero set under translations, and
the 16-point biplanes come from classifying every 2-(16,6,2) design through
a Hussain chain (Husain, Sankhya 7 (1945)).  Any two blocks of a symmetric
2-(16,6,2) design meet in exactly two points.  Block 0 is {0, ..., 5}.
Each pair {0, i} lies in one more block B_i, and the outside points 6..15
are the pairs of {1, ..., 5} (an outside point lies on exactly two of the
B_i, which meet only there and at 0), labelled in lexicographic order, so
block 0 and the five B_i are forced up to relabelling.  Each other pair
{i, j} of block 0 lies in exactly one last block, {i, j} and an outside
4-set; the last ten blocks are chosen in pair order, each meeting every
earlier block in two points.  A completion is the labelling of one frame
(a block, a point of it, an order of its other five points), so a design
with automorphism group A is completed 16 * 6 * 5! / |A| times; 46
completions in three classes arise, and the two designs whose full
automorphism groups are flag-transitive are the ones carried here.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from math import comb, factorial
from pathlib import Path
from typing import NamedTuple

from .design import (
    IncidenceStructure,
    complement,
    develop,
    induced_block_action,
    is_flag_transitive,
    is_point_primitive,
    verify_design,
)
from .diffset import RegularAction, develop_difference_set, is_difference_set
from .geometry import (
    affine_group_order,
    build_affine_design,
    build_projective_design,
    projective_group_order,
)
from .iso import automorphism_group, gf2_rank
from .perm import MAX_POINTS, Perm, PermGroup, minimal_block_systems, \
    parse_generator_file, rank_and_subdegrees

DATA_DIR = Path(__file__).parent / "data"

# base block of the first development, 1-based as printed
B1 = (9, 11, 13, 15, 17, 20, 22, 23, 25, 26, 31, 32, 33, 35, 38, 40,
      41, 42, 43, 44, 49, 50, 53, 54, 57, 58, 61, 62)

AUT_ORDER_LIMIT = 10 ** 11
# complete(20,10), 184,756 blocks, builds in about 1 s and 125 MiB on a 2-vCPU
# machine; complete(22,11), 705,432 blocks, takes 4.6 s and 418 MiB.
COMPLETE_BLOCK_LIMIT = 200_000


class CatalogEntry(NamedTuple):
    name: str
    design: IncidenceStructure
    group: PermGroup
    claims: dict


@lru_cache(maxsize=None)
def _embedded_group() -> tuple[int, tuple[Perm, ...]]:
    degree, gens = parse_generator_file(
        (DATA_DIR / "d64_generators.txt").read_text())
    return degree, tuple(gens)


def _d64(h: int) -> tuple[IncidenceStructure, PermGroup]:
    """Development of B1, or of the rest of the 56 points outside point 0's
    class, under the order-43008 group."""
    degree, gens = _embedded_group()
    base = [p - 1 for p in B1]
    if h == 2:
        base = sorted(set(range(8, 64)) - set(base))
    group = PermGroup(gens, degree)
    return develop(group, base), group


def _quadric_zero_set() -> list[int]:
    # x1*x2 + x3*x4 + x5^2 + x5*x6 + x6^2 over F_2, minus type: 28 zeros
    pts = []
    for x in range(64):
        b = [(x >> i) & 1 for i in range(6)]
        if ((b[0] & b[1]) ^ (b[2] & b[3]) ^ b[4] ^ (b[4] & b[5]) ^ b[5]) == 0:
            pts.append(x)
    return pts


def _boolean_translations(dim: int) -> PermGroup:
    n = 1 << dim
    gens = [Perm(tuple(x ^ (1 << i) for x in range(n))) for i in range(dim)]
    return PermGroup(gens, n)


def _s_minus_3() -> tuple[IncidenceStructure, PermGroup]:
    """Development of an elliptic quadric's zero set under translations;
    the group is the point-regular translation group, not a flag-transitive
    subgroup."""
    action = RegularAction.from_group(_boolean_translations(6))
    zeros = _quadric_zero_set()
    ok, report = is_difference_set(action, zeros, 12)
    assert ok, report
    return develop_difference_set(action, zeros), action.group


# the pairs of the labels 1..5; the outside point 6 + n is pair n
_PAIRS = list(itertools.combinations(range(1, 6), 2))


def _chain_completions() -> list[tuple[int, ...]]:
    """The block lists of every 2-(16,6,2) design through the Hussain chain
    (module docstring), blocks as point bitsets, the chain first.  Each
    free pair's candidates are filtered against the chain once, and each
    choice, in pair order, cuts the later pairs' candidates to those
    meeting it in two points."""
    chain = [0b111111] + [1 | 1 << i | sum(1 << 6 + n for n, p in enumerate(_PAIRS)
                                           if i in p) for i in range(1, 6)]

    def meets(a: int, b: int) -> bool:
        return (a & b).bit_count() == 2

    found: list[tuple[int, ...]] = []

    def extend(blocks: list[int], candidates: list[list[int]]) -> None:
        if not candidates:
            found.append(tuple(blocks))
            return
        for b in candidates[0]:
            extend(blocks + [b], [[c for c in row if meets(b, c)]
                                  for row in candidates[1:]])

    outside = [sum(1 << x for x in rest)
               for rest in itertools.combinations(range(6, 16), 4)]
    extend(chain, [[b for b in (1 << i | 1 << j | rest for rest in outside)
                    if all(meets(b, c) for c in chain)] for i, j in _PAIRS])
    return found


@lru_cache(maxsize=None)
def biplane_classes() -> tuple[tuple[IncidenceStructure, PermGroup], ...]:
    """Isomorphism classes of 2-(16,6,2) designs, each with its full
    automorphism group, largest group first.  A frame of a design D is a
    block, a point of it and an order of its other five points: D has
    16 * 6 * 5! = 11,520 frames, Aut(D) permutes them regularly and each
    completion labels exactly one frame, so exactly 11,520 / |Aut(D)|
    completions are isomorphic to D.  Isomorphic completions share their
    2-rank, so a rank group of exactly that size is D's class; the first
    completion of each group is checked as a design and carries the class."""
    by_rank: dict[int, list[IncidenceStructure]] = {}
    for blocks in _chain_completions():
        design = IncidenceStructure(16, ([x for x in range(16) if b >> x & 1]
                                         for b in blocks))
        by_rank.setdefault(gf2_rank(design), []).append(design)
    classes: list[tuple[IncidenceStructure, PermGroup]] = []
    for rank, group in by_rank.items():
        assert verify_design(group[0]) == (16, 16, 6, 6, 2)
        aut = automorphism_group(group[0])
        assert len(group) * aut.order() == 16 * 6 * factorial(5), \
            "%d completions of 2-rank %d, |Aut| = %d" % (len(group), rank, aut.order())
        classes.append((group[0], aut))
    # a lost class leaves the others' frame counts whole (Husain, 1945: three)
    assert len(classes) == 3, "%d classes of 2-(16,6,2) designs, not 3" % len(classes)
    classes.sort(key=lambda pair: -pair[1].order())
    return tuple(classes)


def _biplane(h: int) -> tuple[IncidenceStructure, PermGroup]:
    """One of the two flag-transitive 2-(16,6,2) designs, largest group
    first, with its full automorphism group."""
    flagged = [(dev, aut) for dev, aut in biplane_classes()
               if is_flag_transitive(dev, aut)]
    assert len(flagged) == 2, "expected exactly two flag-transitive biplanes"
    return flagged[h - 1]


def _geometry(builder, args: tuple, complemented: bool = False):
    """A classical design with its semilinear group, or its complement."""
    gd = builder(*args)
    return complement(gd.structure) if complemented else gd.structure, gd.group


def _complete(v: int, k: int) -> tuple[IncidenceStructure, PermGroup]:
    """All k-subsets, under the symmetric group."""
    gens = [Perm.from_cycles([(0, 1)], v), Perm(tuple((x + 1) % v for x in range(v)))]
    return IncidenceStructure(v, itertools.combinations(range(v), k)), PermGroup(gens, v)


def _complete_misfit(v: int, k: int) -> str | None:
    """Why complete(v, k) is out of range, or None."""
    if not 2 <= k <= v - 1 or v > MAX_POINTS:
        return "complete design needs 2 <= k <= v-1 and v <= %d" % MAX_POINTS
    if comb(v, k) > COMPLETE_BLOCK_LIMIT:
        return "complete(%d,%d) has more than %d blocks" % (v, k, COMPLETE_BLOCK_LIMIT)
    return None


def _claims(params: tuple, aut_order: int, flag_transitive: bool = True,
            primitive: bool = True, **more) -> dict:
    """An entry's claims; most entries are flag-transitive and primitive."""
    return dict(params=params, aut_order=aut_order, flag_transitive=flag_transitive,
                primitive=primitive, **more)


# The catalog in listing order: name -> (builder, its arguments, claims).
_TABLE = {
    "d64-1": (_d64, (1,), _claims((64, 28, 12), 43008, primitive=False,
                                  class_shape=(8, 8), subdegrees=(1, 7, 56))),
    "d64-2": (_d64, (2,), _claims((64, 28, 12), 43008, primitive=False,
                                  class_shape=(8, 8), subdegrees=(1, 7, 56))),
    "s-minus-3": (_s_minus_3, (), _claims((64, 28, 12), 92897280,
                                          flag_transitive=False, primitive=False)),
    "biplane-1": (_biplane, (1,), _claims((16, 6, 2), 11520)),
    "biplane-2": (_biplane, (2,), _claims((16, 6, 2), 768, primitive=False)),
    "ag2_3": (_geometry, (build_affine_design, (2, 3, 1)),
              _claims((9, 3, 1), affine_group_order(2, 3))),
    "ag2_3_complement": (_geometry, (build_affine_design, (2, 3, 1), True),
                         _claims((9, 6, 5), affine_group_order(2, 3))),
    "ag2_4_lines": (_geometry, (build_affine_design, (2, 4, 1)),
                    _claims((16, 4, 1), affine_group_order(2, 4))),
    "ag3_2_planes": (_geometry, (build_affine_design, (3, 2, 2)),
                     _claims((8, 4, 3), affine_group_order(3, 2))),
    "fano": (_geometry, (build_projective_design, (2, 2)),
             _claims((7, 3, 1), projective_group_order(2, 2))),
    "fano_complement": (_geometry, (build_projective_design, (2, 2), True),
                        _claims((7, 4, 2), projective_group_order(2, 2))),
    "pg2_3": (_geometry, (build_projective_design, (2, 3)),
              _claims((13, 4, 1), projective_group_order(2, 3))),
    "pg2_3_complement": (_geometry, (build_projective_design, (2, 3), True),
                         _claims((13, 9, 6), projective_group_order(2, 3))),
    "pg2_4": (_geometry, (build_projective_design, (2, 4)),
              _claims((21, 5, 1), projective_group_order(2, 4))),
    "pg2_4_complement": (_geometry, (build_projective_design, (2, 4), True),
                         _claims((21, 16, 12), projective_group_order(2, 4))),
    "pg5_2_complement": (_geometry, (build_projective_design, (5, 2, True), True),
                         _claims((63, 32, 16), projective_group_order(5, 2))),
    "pg5_2_hyperplanes": (_geometry, (build_projective_design, (5, 2, True)),
                          _claims((63, 31, 15), projective_group_order(5, 2))),
}

_COMPLETE_RE = re.compile(r"^complete\((\d+),(\d+)\)$")


def names() -> list[str]:
    return list(_TABLE) + ["complete(v,k)"]


def entry(name: str) -> CatalogEntry:
    row, problem = _TABLE.get(name), "unknown catalog name %r" % name
    if name == "complete(v,k)":
        raise ValueError("catalog name %r is a placeholder: give integers v and k, "
                         "for example complete(6,3)" % name)
    if row is None and (m := _COMPLETE_RE.match(name.replace(" ", ""))):
        v, k = int(m.group(1)), int(m.group(2))
        if misfit := _complete_misfit(v, k):
            problem = "catalog name %r is out of range: %s" % (name, misfit)
        else:
            name = "complete(%d,%d)" % (v, k)
            row = (_complete, (v, k), _claims((v, k, comb(v - 2, k - 2)), factorial(v)))
    if row is None:
        raise ValueError("%s; available: %s" % (problem, ", ".join(names())))
    builder, args, claims = row
    design, group = builder(*args)
    return CatalogEntry(name, design, group, dict(claims))


def run_claims(e: CatalogEntry) -> list[tuple[str, bool, str]]:
    """Re-check every claim of an entry; failures become report lines."""
    claims = e.claims

    def params():
        dp = verify_design(e.design)
        return (dp.v, dp.k, dp.lam) == tuple(claims["params"]), str(dp)

    def group_acts():
        for g in e.group.generators:
            induced_block_action(e.design, g)
        return True, "%d generators preserve the block multiset" % len(
            e.group.generators)

    def matches(label, test):
        got = test(e.design, e.group)
        return got == claims[label], "%s=%s" % (label, got)

    def class_shape():
        want = tuple(claims["class_shape"])
        shapes = sorted({(len(sys), len(sys[0]))
                         for sys in minimal_block_systems(e.group)})
        return want in shapes, "minimal class shapes %s" % shapes

    def subdegrees():
        _, got = rank_and_subdegrees(e.group)
        return got == tuple(claims["subdegrees"]), "subdegrees %s" % (got,)

    def aut_order():
        want = int(claims["aut_order"])
        if want > AUT_ORDER_LIMIT:
            return True, ("claimed order %d above the %d computation limit, "
                          "not recomputed" % (want, AUT_ORDER_LIMIT))
        got = automorphism_group(e.design, known=e.group).order()
        return got == want, "|Aut| = %d" % got

    checks = [("params", params), ("group_acts", group_acts),
              ("flag_transitive", lambda: matches("flag_transitive", is_flag_transitive)),
              ("primitive", lambda: matches("primitive", is_point_primitive)),
              ("class_shape", class_shape), ("subdegrees", subdegrees),
              ("aut_order", aut_order)]
    report: list[tuple[str, bool, str]] = []
    for label, check in checks:
        if label != "group_acts" and label not in claims:
            continue
        try:
            ok, detail = check()
        except Exception as err:  # a broken claim must not stop the rest
            ok, detail = False, "%s: %s" % (type(err).__name__, err)
        report.append((label, bool(ok), detail))
    return report
