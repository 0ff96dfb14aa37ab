"""Independent checks of every benchmark operation's output.

Nothing here imports symdesign.  Permutations are raw image tuples (point x
goes to img[x]), designs are lists of point tuples, and the group and design
facts are recomputed from scratch:

* generators are checked to map the block multiset onto itself;
* group orders up to ORDER_LIMIT are recomputed by closure, with elements as
  byte strings composed by bytes.translate;
* orders are compared with published values;
* isomorphisms are checked to carry blocks onto blocks;
* a non-isomorphism verdict must be certified by an invariant: the GF(2)
  rank of the incidence matrix, or the multiset of block counts through
  4-sets of points;
* design parameters are found by pair counting;
* regular subgroups are closed, checked to be fixed-point-free of full
  order, and the base block is checked to be a difference set in them that
  develops the design;
* parameter tables are checked against the counting identities and the
  paper's row counts;
* decompositions are checked against their counting identities.

check_op raises CheckError when an output is wrong.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

ORDER_LIMIT = 10 ** 5

# 2-(v,k,lambda) parameters and full automorphism group orders, as published
PUBLISHED = {
    "d64-1": ((64, 28, 12), 43008),
    "d64-2": ((64, 28, 12), 43008),
    "s-minus-3": ((64, 28, 12), 92897280),          # 2^6 |Sp(6,2)|
    "biplane-1": ((16, 6, 2), 11520),
    "biplane-2": ((16, 6, 2), 768),
    "fano": ((7, 3, 1), 168),                        # PGL(3,2)
    "fano_complement": ((7, 4, 2), 168),
    "ag2_3": ((9, 3, 1), 432),                       # AGL(2,3)
    "ag2_3_complement": ((9, 6, 5), 432),
    "ag3_2_planes": ((8, 4, 3), 1344),               # AGL(3,2)
    "ag2_4_lines": ((16, 4, 1), 5760),               # AGammaL(2,4)
    "pg2_3": ((13, 4, 1), 5616),                     # PGL(3,3)
    "pg2_3_complement": ((13, 9, 6), 5616),
    "pg2_4": ((21, 5, 1), 120960),                   # PGammaL(3,4)
    "pg2_4_complement": ((21, 16, 12), 120960),
    "pg5_2_hyperplanes": ((63, 31, 15), 20158709760),  # PGL(6,2)
    "pg5_2_complement": ((63, 32, 16), 20158709760),
    "complete(6,3)": ((6, 3, 4), 720),
    "complete(8,7)": ((8, 7, 6), 40320),
}
BIPLANE_CLASS_ORDERS = [11520, 768, 384]
BIPLANE_RANKS = {6, 7, 8}
# rows in the paper's Tables 2-5; the merged listing holds Tables 2-4
TABLE_ROWS = {"table2": 33, "table3": 32, "table4": 12, "table5": 16, "all": 77}
DECOMPOSITION = {"k0": 4, "k1": 7, "mu": 8}
DECOMPOSE_FIELDS = ("v0", "k0", "lambda0", "r0", "b0", "theta",
                    "v1", "k1", "lambda1", "r1", "b1", "mu")
FANO_AUT = 168
KNOWN_FAULTS = {"hinted-aut", "verify-bad"}


class CheckError(Exception):
    pass


def require(cond: bool, message: str, *args) -> None:
    if not cond:
        raise CheckError(message % args if args else message)


# -- designs ------------------------------------------------------------------

def as_blocks(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(b)) for b in blocks)


def block_multiset(blocks) -> Counter:
    return Counter(frozenset(b) for b in blocks)


def design_params(v: int, blocks) -> tuple[int, int, int, int, int]:
    """(v, b, k, r, lambda) by counting points and pairs, or CheckError."""
    blocks = as_blocks(blocks)
    require(v >= 2 and len(blocks) > 0, "empty design")
    ks = {len(b) for b in blocks}
    require(len(ks) == 1, "unequal block sizes %s", sorted(ks))
    require(all(0 <= x < v and len(set(b)) == len(b) for b in blocks for x in b),
            "block leaves the point range or repeats a point")
    reps = Counter(x for b in blocks for x in b)
    rs = {reps[x] for x in range(v)}
    require(len(rs) == 1, "replication numbers %s", sorted(rs))
    pairs = Counter(p for b in blocks for p in itertools.combinations(b, 2))
    lams = set(pairs.values())
    if len(pairs) < comb(v, 2):
        lams.add(0)
    require(len(lams) == 1 and 0 not in lams, "pair counts %s", sorted(lams))
    return v, len(blocks), ks.pop(), rs.pop(), lams.pop()


def check_params(v: int, blocks, want: tuple[int, int, int]) -> tuple:
    got = design_params(v, blocks)
    require((got[0], got[2], got[4]) == tuple(want),
            "design is 2-(%d,%d,%d), expected 2-%s", got[0], got[2], got[4], want)
    return got


@lru_cache(maxsize=None)
def gf2_rank(blocks: tuple[tuple[int, ...], ...]) -> int:
    pivots: dict[int, int] = {}
    for b in blocks:
        x = sum(1 << p for p in b)
        while x:
            h = x.bit_length() - 1
            if h not in pivots:
                pivots[h] = x
                break
            x ^= pivots[h]
    return len(pivots)


@lru_cache(maxsize=None)
def four_set_counts(v: int, blocks: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The distinct numbers of blocks through a 4-set of points."""
    counts = bytearray(v ** 4)  # indexed by the sorted 4-set in base v
    for blk in blocks:
        for a, b, c, d in itertools.combinations(blk, 4):
            counts[((a * v + b) * v + c) * v + d] += 1
    values = set(counts) - {0}
    if len(counts) - counts.count(0) < comb(v, 4):
        values.add(0)
    return tuple(sorted(values))


def certify_non_isomorphic(v: int, a, b) -> None:
    """Raise CheckError unless an invariant tells the two designs apart."""
    a, b = as_blocks(sorted(a)), as_blocks(sorted(b))
    if len(a) != len(b) or {len(x) for x in a} != {len(x) for x in b}:
        return
    ra, rb = gf2_rank(a), gf2_rank(b)
    if ra == rb:
        require(four_set_counts(v, a) != four_set_counts(v, b),
                "non-isomorphism verdict not certified: equal 2-rank %d and "
                "equal 4-set counts %s", ra, four_set_counts(v, a))


# -- permutations and groups ----------------------------------------------------

def check_perm(img, degree: int) -> tuple[int, ...]:
    img = tuple(img)
    require(sorted(img) == list(range(degree)),
            "not a permutation of %d points", degree)
    return img


def check_isomorphism(src, dst, img, degree: int) -> None:
    img = check_perm(img, degree)
    mapped = block_multiset([img[x] for x in b] for b in src)
    require(mapped == block_multiset(dst), "the map does not carry blocks onto blocks")


def check_automorphisms(blocks, gens, degree: int) -> None:
    want = block_multiset(blocks)
    for i, g in enumerate(gens):
        g = check_perm(g, degree)
        require(block_multiset([g[x] for x in b] for b in blocks) == want,
                "generator %d does not preserve the block multiset", i)


def group_elements(gens, degree: int, limit: int = ORDER_LIMIT) -> set[bytes]:
    """Every element, by closing the generators under composition."""
    require(degree <= 256, "degree %d too large for byte closure", degree)
    pad = bytes(range(degree, 256))
    tables = [bytes(check_perm(g, degree)) + pad for g in gens]
    seen = {bytes(range(degree))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for e in frontier:
            for t in tables:
                h = e.translate(t)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        require(len(seen) <= limit, "group order above %d", limit)
        frontier = nxt
    return seen


def check_group(blocks, gens, degree: int, order: int, published: int | None = None) -> None:
    """Generators preserve the design and generate a group of this order."""
    check_automorphisms(blocks, gens, degree)
    if published is not None:
        require(order == published, "order %d, published %d", order, published)
    if order <= ORDER_LIMIT:
        closed = len(group_elements(gens, degree))
        require(closed == order, "generators close to order %d, reported %d",
                closed, order)


def check_regular(gens, degree: int, blocks, base, lam: int) -> frozenset:
    """A point-regular group in which `base` develops the design."""
    check_automorphisms(blocks, gens, degree)
    elems = group_elements(gens, degree, limit=degree)
    ident = bytes(range(degree))
    require(len(elems) == degree, "order %d, expected %d", len(elems), degree)
    require(all(e[x] != x for e in elems if e != ident for x in range(degree)),
            "a non-identity element fixes a point")
    at = {e[0]: e for e in elems}
    require(len(at) == degree, "not transitive")
    inverse = {e: bytes(sorted(range(degree), key=e.__getitem__)) for e in elems}
    quotients = Counter(at[x].translate(inverse[at[y]] + bytes(range(degree, 256)))
                        for x in base for y in base if x != y)
    require(set(quotients) == elems - {ident} and set(quotients.values()) == {lam},
            "base block is not a (%d,%d,%d) difference set", degree, len(base), lam)
    developed = [[e[x] for x in base] for e in elems]
    require(block_multiset(developed) == block_multiset(blocks),
            "the base block does not develop the design")
    return frozenset(elems)


# -- tables -------------------------------------------------------------------------

def parse_table(text: str, fmt: str) -> list[dict[str, str]]:
    if fmt == "json":
        rows = json.loads(text)
        require(isinstance(rows, list) and all(isinstance(r, dict) for r in rows),
                "json output is not a list of rows")
        return rows
    lines = [line for line in text.splitlines() if line.strip()]
    split = (lambda s: s.split(",")) if fmt == "csv" else (lambda s: s.split())
    header = split(lines[0])
    rows = [dict(zip(header, split(line))) for line in lines[1:]]
    require(all(len(r) == len(header) for r in rows), "ragged %s output", fmt)
    return rows


def check_param_row(row: dict[str, str]) -> None:
    f = {k: Fraction(x) for k, x in row.items() if x != "-"}
    v0, k0, lam0, r0, b0 = f["v0"], f["k0"], f["lambda0"], f["r0"], f["b0"]
    v1, k1, lam1, r1, b1 = f["v1"], f["k1"], f["lambda1"], f["r1"], f["b1"]
    v, k = f["v"], f["k"]
    ok = (v == v0 * v1 and k == k0 * k1
          and lam0 * (v0 - 1) == r0 * (k0 - 1) and b0 * k0 == v0 * r0
          and lam1 * (v1 - 1) == r1 * (k1 - 1) and b1 * k1 == v1 * r1)
    if "lambda" in f:    # a symmetric row: r = k and b = v
        lam, mu = f["lambda"], f["mu"]
        ok = ok and lam * (v - 1) == k * (k - 1) and b1 * mu == v \
            and b0 * f["theta"] * v1 == v * k1
    else:                # lambda, r, b and theta are multiples of mu
        lam, r, b = f["lambda_mu"], f["r_mu"], f["b_mu"]
        ok = ok and lam * (v - 1) == r * (k - 1) and b * k == v * r \
            and b0 * f["theta_mu"] * v1 == b * k1
        if "mu_s" in f:
            ok = ok and b * f["mu_s"] == v
    require(ok, "row violates the counting identities: %s", row)


def check_decomposition(values: dict, params: tuple[int, int, int]) -> None:
    v, k, lam = params
    d = {key: int(values[key]) for key in DECOMPOSE_FIELDS}
    require({key: d[key] for key in DECOMPOSITION} == DECOMPOSITION,
            "(k0, k1, mu) = (%d, %d, %d)", d["k0"], d["k1"], d["mu"])
    v0, k0, v1, k1, mu = d["v0"], d["k0"], d["v1"], d["k1"], d["mu"]
    b = v  # symmetric
    require(v0 * v1 == v and k0 * k1 == k
            and (v - 1) * (k0 - 1) == (v0 - 1) * (k - 1)
            and (v1 - 1) * v0 * (k0 - 1) == (k1 - 1) * k0 * (v0 - 1)
            and v0 ** 2 * lam == d["lambda1"] * k0 ** 2 * mu
            and b == d["b1"] * mu
            and d["lambda0"] * (v0 - 1) == d["r0"] * (k0 - 1)
            and d["b0"] * k0 == v0 * d["r0"]
            and d["lambda1"] * (v1 - 1) == d["r1"] * (k1 - 1)
            and d["b1"] * k1 == v1 * d["r1"]
            and d["b0"] * d["theta"] * v1 == b * k1,
            "decomposition violates the counting identities: %s", d)


def parse_decomposition(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        header, row = text.strip().splitlines()
        return dict(zip(header.split(","), row.split(",")))
    return dict(zip(DECOMPOSE_FIELDS, text.replace("|", " ").split()))


# -- the operations -----------------------------------------------------------------

def _design_json(text: str) -> tuple[int, list[tuple[int, ...]]]:
    obj = json.loads(text)
    return obj["v"], [tuple(x - 1 for x in b) for b in obj["blocks"]]


def _cli_ok(result: dict) -> str:
    require(result["code"] == 0, "exit code %d: %s", result["code"],
            result.get("err", "").strip()[-200:])
    return result["out"]


def _claims_ok(report, name: str) -> None:
    require(report and all(ok for _, ok, _ in report),
            "failed claims %s", [r for r in report if not r[1]])
    details = {label: detail for label, _, detail in report}
    want = PUBLISHED[name][1]
    require(details.get("aut_order") == "|Aut| = %d" % want,
            "aut_order claim reads %r, published %d", details.get("aut_order"), want)


def check_op(op, result, data: dict, ctx: dict) -> None:
    """Raise CheckError unless `result` is a right answer to `op`.

    `ctx` carries what earlier operations of the same round established,
    such as the class representatives that later classifications refer to.
    """
    require(not (isinstance(result, dict) and "error" in result),
            "raised %s", result.get("error") if isinstance(result, dict) else "")
    kind = op[0]
    if kind == "classes":
        require(len(result) == 3, "%d classes, expected 3", len(result))
        for cls, order in zip(result, BIPLANE_CLASS_ORDERS):
            check_params(16, cls["blocks"], (16, 6, 2))
            check_group(cls["blocks"], cls["gens"], 16, cls["order"], order)
        ranks = [gf2_rank(as_blocks(c["blocks"])) for c in result]
        require(set(ranks) == BIPLANE_RANKS, "class 2-ranks %s", ranks)
        ctx["classes"] = [c["blocks"] for c in result]
        return
    if kind == "claims":
        name = op[1]
        params, order = PUBLISHED[name]
        check_params(16, result["blocks"], params)
        check_group(result["blocks"], result["gens"], 16, order, order)
        _claims_ok(result["report"], name)
        return
    if kind == "classify":
        copy = data["copies"][op[1]]
        reps = ctx.get("classes")
        require(reps is not None, "no classes to classify against")
        require(0 < len(result) <= len(reps) and result[-1] is not None
                and all(m is None for m in result[:-1]),
                "expected misses followed by one hit, got %s",
                ["hit" if m else "miss" for m in result])
        for rep, m in zip(reps, result[:-1]):
            certify_non_isomorphic(16, copy, rep)
        check_isomorphism(copy, reps[len(result) - 1], result[-1], 16)
        return
    if kind == "aut":
        blocks = data["designs"][op[1]]
        check_group(blocks, result["gens"], 64, result["order"], PUBLISHED[op[1]][1])
        return
    if kind == "iso":
        src, dst = data["designs"][op[1]], data["designs"][op[2]]
        if result is None:
            certify_non_isomorphic(64, src, dst)
        else:
            check_isomorphism(src, dst, result, 64)
        return
    if kind == "regular":
        blocks = data["designs"][op[1]]
        base = blocks[0]
        require(1 <= len(result) <= op[2], "%d subgroups, limit %d", len(result), op[2])
        groups = {check_regular(gens, 64, blocks, base, 12) for gens in result}
        require(len(groups) == len(result), "a subgroup is returned twice")
        return
    if kind == "construct":
        v, blocks = _design_json(_cli_ok(result))
        ctx.setdefault("constructed", {})[op[1]] = check_params(v, blocks, PUBLISHED[op[1]][0])
        if op[1] in data["designs"]:
            require(block_multiset(blocks) == block_multiset(data["designs"][op[1]]),
                    "construction differs from the paper's")
        return
    if kind == "verify":
        got = json.loads(_cli_ok(result))
        want = ctx.get("constructed", {}).get(op[1])
        require(want is not None, "verify ran before construct")
        v, b, k, r, lam = want
        require(got == {"v": v, "b": b, "k": k, "r": r, "lambda": lam,
                        "symmetric": v == b}, "verify printed %s, pair counts give %s",
                got, want)
        return
    if kind == "claims-cli":
        _claims_ok([(c["claim"], c["ok"], c["detail"]) for c in json.loads(_cli_ok(result))],
                   op[1])
        return
    if kind == "decompose":
        values = parse_decomposition(_cli_ok(result), op[2])
        check_decomposition(values, PUBLISHED[op[1]][0])
        return
    if kind == "enumerate":
        rows = parse_table(_cli_ok(result), op[2])
        table = op[1]
        require(len(rows) == TABLE_ROWS[table], "%d rows in %s, expected %d",
                len(rows), table, TABLE_ROWS[table])
        for row in rows:
            check_param_row(row)
        seen = ctx.setdefault("tables", {})
        canon = sorted(tuple(sorted(r.items())) for r in rows)
        require(seen.setdefault(table, canon) == canon,
                "%s differs between formats", table)
        return
    if kind == "diffset":
        out = _cli_ok(result)
        zeros = [int(x) - 1 for x in data["zero_set"].split(",")]
        if op[1] == "check":
            require(out.startswith("difference set"), "check printed %r", out[:80])
            quotients = Counter(x ^ y for x in zeros for y in zeros if x != y)
            require(len(quotients) == 63 and set(quotients.values()) == {12},
                    "the zero set is not a (64,28,12) difference set")
            return
        v, blocks = _design_json(out)
        check_params(v, blocks, (64, 28, 12))
        require(block_multiset(blocks) == block_multiset(data["designs"]["s-minus-3"]),
                "development differs from the translates of the zero set")
        return
    if kind == "hinted-aut":
        check_group(data["fano"], result["gens"], 7, result["order"], FANO_AUT)
        return
    if kind == "verify-bad":
        require(result["code"] == 2, "exit %d on an ill-typed design, expected 2: %s",
                result["code"], result.get("err", "").strip()[-120:])
        return
    raise CheckError("unknown operation %r" % (op,))
