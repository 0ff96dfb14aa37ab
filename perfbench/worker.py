"""One round of one workload, in a fresh single-threaded interpreter.

run.py starts this script once per round so that every round begins with
cold caches (biplane_classes and the embedded d64 group are lru_cached).
It imports the package from the checkout's src/, builds the round's inputs
from the seed, runs the operation list once as a closed loop and prints one
JSON line: the timings, the peak resident set, the per-layer trace when
asked for, and each operation's output as plain data for oracles.py.

    python3 -I perfbench/worker.py --workload catalog --seed 1 \\
        --spawned-at <time.monotonic() at spawn> --workdir <dir> [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def peak_rss_mib() -> float:
    """This process's peak resident set.

    VmHWM belongs to the process's own address space.  ru_maxrss would also
    count the parent's resident set at fork, which is inherited across exec.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _gens(group) -> list:
    return [g.img for g in group.generators]


def classify16_ops(data: dict, workdir: Path) -> dict:
    from symdesign import catalog, iso
    from symdesign.design import IncidenceStructure

    copies = [IncidenceStructure(16, b) for b in data["copies"]]
    state = {}

    def classes():
        state["reps"] = catalog.biplane_classes()
        return [{"blocks": rep.blocks, "gens": _gens(aut), "order": aut.order()}
                for rep, aut in state["reps"]]

    def claims(name):
        e = catalog.entry(name)
        report = catalog.run_claims(e)
        return {"blocks": e.design.blocks, "gens": _gens(e.group), "report": report}

    def classify(i):
        tests = []
        for rep, _ in state["reps"]:
            m = iso.are_isomorphic(copies[i], rep)
            tests.append(None if m is None else m.img)
            if m is not None:
                break
        return tests

    return {"classes": classes, "claims": claims, "classify": classify}


def search64_ops(data: dict, workdir: Path) -> dict:
    from symdesign import diffset, iso
    from symdesign.design import IncidenceStructure

    designs = {name: IncidenceStructure(64, b) for name, b in data["designs"].items()}
    state = {}

    def aut(name):
        state[name] = iso.automorphism_group(designs[name])
        return {"gens": _gens(state[name]), "order": state[name].order()}

    def isomorphic(src, dst):
        m = iso.are_isomorphic(designs[src], designs[dst])
        return None if m is None else m.img

    def regular(name, limit):
        found = diffset.find_regular_subgroups(state[name], limit=limit)
        return [_gens(action.group) for action in found]

    return {"aut": aut, "iso": isomorphic, "regular": regular}


def catalog_ops(data: dict, workdir: Path) -> dict:
    from symdesign import cli, iso
    from symdesign.design import IncidenceStructure
    from symdesign.perm import Perm, PermGroup

    files = {
        "d64-1": json.dumps({"v": 64, "blocks": [[x + 1 for x in b] for b in
                                                 data["designs"]["d64-1"]]}),
        "d64-2": json.dumps({"v": 64, "blocks": [[x + 1 for x in b] for b in
                                                 data["designs"]["d64-2"]]}),
        "d64.gens": data["d64_gens"],
        "translations.gens": data["translation_gens"],
    }
    for name, text in files.items():
        (workdir / name).write_text(text)
    fano = IncidenceStructure(7, data["fano"])
    transposition = PermGroup([Perm.from_cycles([(0, 1)], 7)], 7)
    constructed = {}

    def run(argv, stdin=""):
        out, err = io.StringIO(), io.StringIO()
        saved, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            sys.stdin = saved
        return {"code": code, "out": out.getvalue(), "err": err.getvalue()}

    def construct(name):
        result = run(["construct", name])
        constructed[name] = result["out"]
        return result

    def diffset_op(sub):
        return run(["diffset", sub, str(workdir / "translations.gens"), data["zero_set"]]
                   + (["--lambda", "12"] if sub == "check" else []))

    def hinted_aut(name):
        group = iso.automorphism_group(fano, known=transposition)
        return {"gens": _gens(group), "order": group.order()}

    return {
        "construct": construct,
        "verify": lambda name: run(["verify", "-", "--format", "json"], constructed[name]),
        "claims-cli": lambda name: run(["claims", name, "--format", "json"]),
        "decompose": lambda name, fmt: run(["decompose", str(workdir / name),
                                            str(workdir / "d64.gens"), "--format", fmt]),
        "enumerate": lambda table, fmt: run(
            ["enumerate"] + ([] if table == "all" else ["--table", table])
            + ["--format", fmt]),
        "diffset": diffset_op,
        "hinted-aut": hinted_aut,
        "verify-bad": lambda: run(["verify", "-"], data["bad_design"]),
    }


OPS = {"classify16": classify16_ops, "search64": search64_ops, "catalog": catalog_ops}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import symdesign
    src = (ROOT / "src").resolve()
    if src not in Path(symdesign.__file__).resolve().parents:
        raise SystemExit("symdesign imported from %s, not from %s"
                         % (symdesign.__file__, src))
    import inputs

    data = inputs.make(args.workload, args.seed)
    handlers = OPS[args.workload](data, args.workdir)
    ops = data["ops"]
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    results, op_s = [], []
    c0, w0 = time.process_time(), time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            results.append(handlers[op[0]](*op[1:]))
        except Exception as err:  # reported as a failed operation, never fatal
            results.append({"error": "%s: %s" % (type(err).__name__, err)})
        op_s.append(time.perf_counter() - t0)
    wall_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
    peak_rss = peak_rss_mib()
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss,
        "layers": tracer.metrics() if tracer else None,
        "ops": ops,
        "op_s": op_s,
        "results": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
