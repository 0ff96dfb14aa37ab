"""Seeded inputs for the three workloads, built without importing symdesign.

Everything here is plain tuples and lists, so the same inputs can be handed
to the program (in the worker) and to the independent checks (in run.py).
The only file read is the generator list shipped with the package, which is
data from the paper, not code.  The seed drives every random choice; the same
seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
D64_GENERATORS = ROOT / "src" / "symdesign" / "data" / "d64_generators.txt"

# 1-based base blocks of the two developments, as printed in the paper
B1 = (9, 11, 13, 15, 17, 20, 22, 23, 25, 26, 31, 32, 33, 35, 38, 40,
      41, 42, 43, 44, 49, 50, 53, 54, 57, 58, 61, 62)
B2 = (10, 12, 14, 16, 18, 19, 21, 24, 27, 28, 29, 30, 34, 36, 37, 39,
      45, 46, 47, 48, 51, 52, 55, 56, 59, 60, 63, 64)

CATALOG_ENTRIES = (
    "d64-1", "d64-2", "s-minus-3",
    "fano", "fano_complement", "ag2_3", "ag2_3_complement", "ag3_2_planes",
    "ag2_4_lines", "pg2_3", "pg2_3_complement", "pg2_4", "pg2_4_complement",
    "pg5_2_hyperplanes", "pg5_2_complement", "complete(6,3)", "complete(8,7)",
)
# "all" is the merged listing that `enumerate` prints without --table
ENUMERATE_TABLES = ("table2", "table3", "table4", "table5", "all")
ENUMERATE_FORMATS = ("table", "csv", "json")
DECOMPOSE_FORMATS = ("table", "csv", "json")
REGULAR_LIMIT = 4
# ill-typed point count: the CLI must answer with a usage error (exit 2)
BAD_DESIGN_JSON = '{"v": "7", "blocks": [[1,2,4]]}'


def parse_generator_text(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """`degree n` followed by one product of 1-based cycles per line."""
    degree = 0
    gens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("degree"):
            degree = int(line.split()[1])
            continue
        img = list(range(degree))
        for cycle in line.strip("()").split(")("):
            pts = [int(x) - 1 for x in cycle.split(",")]
            for i, x in enumerate(pts):
                img[x] = pts[(i + 1) % len(pts)]
        gens.append(tuple(img))
    return degree, gens


def render_generator_text(degree: int, gens: list[tuple[int, ...]]) -> str:
    lines = ["degree %d" % degree]
    for img in gens:
        seen, cycles = set(), []
        for start in range(degree):
            if start in seen or img[start] == start:
                continue
            cyc, x = [], start
            while x not in seen:
                seen.add(x)
                cyc.append(str(x + 1))
                x = img[x]
            cycles.append("(" + ",".join(cyc) + ")")
        lines.append("".join(cycles))
    return "\n".join(lines) + "\n"


def block_orbit(gens: list[tuple[int, ...]], base) -> list[tuple[int, ...]]:
    start = frozenset(base)
    seen, queue = {start}, [start]
    while queue:
        blk = queue.pop()
        for g in gens:
            img = frozenset(g[x] for x in blk)
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return sorted(tuple(sorted(b)) for b in seen)


def d64_group() -> tuple[int, list[tuple[int, ...]]]:
    return parse_generator_text(D64_GENERATORS.read_text())


def d64(h: int) -> list[tuple[int, ...]]:
    _, gens = d64_group()
    return block_orbit(gens, [p - 1 for p in (B1 if h == 1 else B2)])


def quadric_zero_set() -> list[int]:
    """Zeros of x1x2 + x3x4 + x5^2 + x5x6 + x6^2 on F_2^6 (28 points)."""
    out = []
    for x in range(64):
        b = [(x >> i) & 1 for i in range(6)]
        if ((b[0] & b[1]) ^ (b[2] & b[3]) ^ b[4] ^ (b[4] & b[5]) ^ b[5]) == 0:
            out.append(x)
    return out


def translations(dim: int) -> list[tuple[int, ...]]:
    n = 1 << dim
    return [tuple(x ^ (1 << i) for x in range(n)) for i in range(dim)]


def s_minus_3() -> list[tuple[int, ...]]:
    zeros = quadric_zero_set()
    return sorted(tuple(sorted(x ^ t for x in zeros)) for t in range(64))


def fano() -> list[tuple[int, ...]]:
    return sorted(tuple(sorted((x + i) % 7 for x in (0, 1, 3))) for i in range(7))


def _develop(elements: list, mul, base: list) -> list[tuple[int, ...]]:
    """Left translates g*D of a difference set D in a group of order 16."""
    index = {e: i for i, e in enumerate(elements)}
    return sorted(tuple(sorted(index[mul(g, d)] for d in base)) for g in elements)


def biplanes() -> list[list[tuple[int, ...]]]:
    """One 2-(16,6,2) design per isomorphism class: 2-ranks 6, 7 and 8.

    Developments of difference sets in C2^4, C8 x C2 and Q8 x C2.
    """
    c2_4 = list(itertools.product(range(2), repeat=4))
    c8_c2 = list(itertools.product(range(8), range(2)))
    q8_c2 = list(itertools.product(range(4), range(2), range(2)))

    def xor(x, y):
        return tuple(a ^ b for a, b in zip(x, y))

    def c8c2(x, y):
        return ((x[0] + y[0]) % 8, (x[1] + y[1]) % 2)

    def q8c2(x, y):
        # r^4 = 1, s^2 = r^2, s^-1 r s = r^-1, times a central C2
        return ((x[0] + (y[0] if x[1] == 0 else -y[0]) + 2 * (x[1] * y[1])) % 4,
                (x[1] + y[1]) % 2, (x[2] + y[2]) % 2)

    return [
        _develop(c2_4, xor, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0),
                             (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1)]),
        _develop(c8_c2, c8c2, [(0, 0), (0, 1), (1, 0), (2, 0), (5, 1), (6, 0)]),
        _develop(q8_c2, q8c2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0),
                               (1, 1, 0), (2, 0, 1)]),
    ]


def relabel(blocks: list[tuple[int, ...]], v: int,
            rng: random.Random) -> list[tuple[int, ...]]:
    """A random relabelling of the points, with the block order shuffled."""
    perm = list(range(v))
    rng.shuffle(perm)
    out = [tuple(sorted(perm[x] for x in blk)) for blk in blocks]
    rng.shuffle(out)
    return out


def make(workload: str, seed: int) -> dict:
    """The workload's inputs and its operation list, in execution order.

    An operation is a tuple whose first element names its kind; the worker
    runs it and the checks in oracles.py judge its result by the same tuple.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "classify16":
        copies = [relabel(b, 16, rng) for b in biplanes()]
        ops = [("classes",), ("claims", "biplane-1"), ("claims", "biplane-2")]
        ops += [("classify", i) for i in range(len(copies))]
        return {"copies": copies, "ops": ops}
    if workload == "search64":
        designs = {"d64-1": d64(1), "d64-2": d64(2), "s-minus-3": s_minus_3()}
        designs["copy"] = relabel(designs["d64-2"], 64, rng)
        ops = [("aut", "d64-1"), ("aut", "d64-2"),
               ("iso", "d64-1", "d64-2"), ("iso", "s-minus-3", "d64-1"),
               ("iso", "s-minus-3", "d64-2"), ("iso", "copy", "d64-2"),
               ("regular", "d64-1", REGULAR_LIMIT)]
        return {"designs": designs, "ops": ops}
    if workload == "catalog":
        ops = [(kind, name) for name in CATALOG_ENTRIES
               for kind in ("construct", "verify", "claims-cli")]
        ops += [("decompose", name, fmt) for name in ("d64-1", "d64-2")
                for fmt in DECOMPOSE_FORMATS]
        ops += [("enumerate", table, fmt) for table in ENUMERATE_TABLES
                for fmt in ENUMERATE_FORMATS]
        ops += [("diffset", "check"), ("diffset", "develop"),
                ("hinted-aut", "fano"), ("verify-bad",)]
        # the order is seeded; verify reads the text its construct printed
        rng.shuffle(ops)
        ops.sort(key=lambda op: op[0] == "verify")
        degree, gens = d64_group()
        return {
            "ops": ops,
            "designs": {"d64-1": d64(1), "d64-2": d64(2), "s-minus-3": s_minus_3()},
            "fano": fano(),
            "d64_gens": render_generator_text(degree, gens),
            "translation_gens": render_generator_text(64, translations(6)),
            "zero_set": ",".join(str(x + 1) for x in quadric_zero_set()),
            "bad_design": BAD_DESIGN_JSON,
        }
    raise ValueError("unknown workload %r" % workload)
