"""Shows that every check in oracles.py is live: it accepts a right answer and
rejects a deliberately wrong one (a tampered order, a generator that is not an
automorphism, a wrong map, a verdict its invariants do not support, a broken
table row or decomposition).  run.py calls run() before every benchmark run
and refuses to measure if any check lets a wrong answer through.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import random
import sys

import inputs
from oracles import (
    CheckError,
    certify_non_isomorphic,
    check_automorphisms,
    check_decomposition,
    check_group,
    check_isomorphism,
    check_op,
    check_param_row,
    check_params,
    check_regular,
)


def _fano_automorphisms(blocks) -> list[tuple[int, ...]]:
    want = {frozenset(b) for b in blocks}
    return [p for p in itertools.permutations(range(7))
            if {frozenset(p[x] for x in b) for b in blocks} == want]


def cases():
    """(name, right answer, wrong answer): callables that run one check."""
    fano = inputs.fano()
    aut = _fano_automorphisms(fano)
    gens = [aut[1], aut[-1], aut[len(aut) // 2]]
    transposition = (1, 0, 2, 3, 4, 5, 6)
    broken = fano[:-1] + fano[:1]
    rng = random.Random(0)
    perm = list(range(7))
    rng.shuffle(perm)
    relabelled = [tuple(perm[x] for x in b) for b in fano]
    wrong_map = [perm[transposition[x]] for x in range(7)]
    biplanes = inputs.biplanes()
    copy = inputs.relabel(biplanes[0], 16, rng)
    zeros = inputs.quadric_zero_set()
    s3 = inputs.s_minus_3()
    trans = inputs.translations(6)
    decomposition = dict(zip(("v0", "k0", "lambda0", "r0", "b0", "theta",
                              "v1", "k1", "lambda1", "r1", "b1", "mu"),
                             (8, 4, 3, 7, 14, 4, 8, 7, 6, 7, 8, 8)))
    row = dict(zip(("v0,k0,lambda0,r0,b0,theta_mu,v1,k1,lambda1,r1,b1,"
                    "v,k,lambda_mu,r_mu,b_mu,mu_mod,mu_s").split(","),
                   "3,2,1,2,3,4/3,5,4,3,4,5,15,8,4/3,8/3,5,3,3".split(",")))
    report = [("params", True, ""), ("aut_order", True, "|Aut| = 168")]
    return [
        ("pair counting", lambda: check_params(7, fano, (7, 3, 1)),
         lambda: check_params(7, broken, (7, 3, 1))),
        ("generators are automorphisms", lambda: check_automorphisms(fano, gens, 7),
         lambda: check_automorphisms(fano, gens + [transposition], 7)),
        ("order by closure", lambda: check_group(fano, gens, 7, 168),
         lambda: check_group(fano, gens, 7, 169)),
        ("published order", lambda: check_group(fano, gens, 7, 168, 168),
         lambda: check_group(fano, gens[:1], 7, 7, 168)),
        ("isomorphism map", lambda: check_isomorphism(fano, relabelled, perm, 7),
         lambda: check_isomorphism(fano, relabelled, wrong_map, 7)),
        ("non-isomorphism certificate",
         lambda: certify_non_isomorphic(16, biplanes[0], biplanes[2]),
         lambda: certify_non_isomorphic(16, biplanes[0], copy)),
        ("regular subgroup and difference set",
         lambda: check_regular(trans, 64, s3, zeros, 12),
         lambda: check_regular(trans[:5], 64, s3, zeros, 12)),
        ("difference set develops the design",
         lambda: check_regular(trans, 64, s3, zeros, 12),
         lambda: check_regular(trans, 64, s3, list(range(28)), 12)),
        ("table row identities", lambda: check_param_row(row),
         lambda: check_param_row({**row, "lambda_mu": "5/3"})),
        ("decomposition identities",
         lambda: check_decomposition(decomposition, (64, 28, 12)),
         lambda: check_decomposition({**decomposition, "mu": 7}, (64, 28, 12))),
        ("claims report", lambda: check_op(("claims-cli", "fano"), _cli(
            [{"claim": c, "ok": ok, "detail": d} for c, ok, d in report]), {}, {}),
         lambda: check_op(("claims-cli", "fano"), _cli(
             [{"claim": c, "ok": ok, "detail": d.replace("168", "5040")}
              for c, ok, d in report]), {}, {})),
        ("hinted automorphism group",
         lambda: check_op(("hinted-aut", "fano"), {"gens": gens, "order": 168},
                          {"fano": fano}, {}),
         lambda: check_op(("hinted-aut", "fano"),
                          {"gens": gens + [transposition], "order": 5040},
                          {"fano": fano}, {})),
        ("usage error on ill-typed input",
         lambda: check_op(("verify-bad",), {"code": 2, "out": "", "err": ""}, {}, {}),
         lambda: check_op(("verify-bad",), {"code": 3, "out": "", "err": ""}, {}, {})),
        ("classification against class representatives",
         lambda: check_op(("classify", 0), [None, None, list(range(16))],
                          {"copies": [biplanes[2]]}, {"classes": biplanes}),
         lambda: check_op(("classify", 0), [list(range(16))],
                          {"copies": [biplanes[2]]}, {"classes": biplanes})),
    ]


def _cli(obj) -> dict:
    return {"code": 0, "out": json.dumps(obj), "err": ""}


def run() -> list[str]:
    """Names of the checks that rejected a right answer or passed a wrong one."""
    problems = []
    for name, right, wrong in cases():
        try:
            right()
        except CheckError as err:
            problems.append("%s rejects a right answer: %s" % (name, err))
        try:
            wrong()
            problems.append("%s accepts a wrong answer" % name)
        except CheckError:
            pass
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line)
    print("%d checks, %d problems" % (len(cases()), len(found)))
    sys.exit(1 if found else 0)
