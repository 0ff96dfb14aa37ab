"""The symdesign benchmark: one workload, measured for a fixed time, checked.

    python3 perfbench/run.py --workload classify16|search64|catalog \\
        --seed N --seconds S --trace 0|1

Each round runs the workload's operation list once in a fresh interpreter
(worker.py), one round after another on one thread.  Rounds repeat while
the next one is expected to end within S seconds, and there is at least one.
Every output of every round is checked by oracles.py, which shares no code
with the package.  The last line of standard output is one JSON object:

* --trace 0: the medians of wall_s, cpu_s and peak_rss_mib over the rounds,
  and of setup_s over the rounds and SETUP_PROBES extra set-ups;
* --trace 1: each round is run untraced and then traced; the per-layer
  metrics are medians over the traced rounds, and trace.overhead_s is the
  median of traced minus untraced wall time.

`failed` counts operations whose output the checks reject.  Only the faults
in oracles.KNOWN_FAULTS may fail; any other failure makes `correct` false.
A human-readable account of every round goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracles  # noqa: E402
import selftest  # noqa: E402
from tracer import UNITS  # noqa: E402

WORKLOADS = ("classify16", "search64", "catalog")
SETUP_PROBES = 10
DEADLINE_S = 170.0  # the whole run, set-up probes and checks included


class BenchError(Exception):
    pass


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def spawn(args, workdir: Path, deadline: float, trace: bool = False,
          setup_only: bool = False) -> dict:
    cmd = [sys.executable, "-I", str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next round")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("a round did not finish within the run's %.0f s"
                         % DEADLINE_S)
    if proc.returncode != 0:
        raise BenchError("worker exited %d:\n%s" % (proc.returncode,
                                                     proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(round_out: dict, data: dict) -> tuple[int, int, list[str]]:
    """(operations failed, unexpected failures, messages) for one round."""
    ops = [list(op) for op in data["ops"]]
    if round_out["ops"] != ops:
        raise BenchError("worker ran %s, expected %s" % (round_out["ops"], ops))
    ctx: dict = {}
    failed, unexpected, messages = 0, 0, []
    for op, result in zip(data["ops"], round_out["results"]):
        try:
            oracles.check_op(op, result, data, ctx)
        except Exception as err:  # a malformed output is a failed check too
            failed += 1
            known = op[0] in oracles.KNOWN_FAULTS
            unexpected += not known
            messages.append("%s %s: %s: %s" % ("known fault" if known else "FAILED",
                                               " ".join(map(str, op)),
                                               type(err).__name__, err))
    return failed, unexpected, messages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "symdesign" / "__init__.py").is_file():
        log("error: no symdesign sources under %s" % (ROOT / "src"))
        return 2
    problems = selftest.run()
    if problems:
        log("error: the checks did not reject wrong answers:\n  " + "\n  ".join(problems))
        return 1

    start = time.monotonic()
    deadline = start + DEADLINE_S
    data = inputs.make(args.workload, args.seed)
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    setups, plain, traced = [], [], []
    attempted = failed = unexpected = 0
    reported = set()
    try:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(args, workdir, deadline, setup_only=True)["setup_s"])
        measure_start = time.monotonic()
        while True:
            round_start = time.monotonic()
            for trace in (False, True)[: 1 + args.trace]:
                out = spawn(args, workdir, deadline, trace=trace)
                f, u, messages = judge(out, data)
                attempted += len(data["ops"])
                failed += f
                unexpected += u
                for m in messages:
                    if m not in reported:
                        reported.add(m)
                        log(m)
                (traced if trace else plain).append(out)
                setups.append(out["setup_s"])
                log("round %d%s: wall %.3f s, cpu %.3f s, setup %.3f s, rss %.1f MiB, "
                    "%d/%d failed" % (len(plain), " traced" if trace else "",
                                      out["wall_s"], out["cpu_s"], out["setup_s"],
                                      out["peak_rss_mib"], f, len(data["ops"])))
            # whole rounds only: stop when the next one would end past --seconds
            now = time.monotonic()
            if now + (now - round_start) - measure_start > args.seconds:
                break
    except BenchError as err:
        log("error: %s" % err)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    def median(key: str, rounds: list[dict]) -> float:
        return statistics.median(r[key] for r in rounds)

    op_s = [statistics.median(r["op_s"][i] for r in plain) for i in range(len(data["ops"]))]
    log("operations taking at least 1%% of wall time (median s): %s" % ", ".join(
        "%s %.3f" % (" ".join(map(str, op)), t) for t, op in
        sorted(zip(op_s, data["ops"]), key=lambda p: -p[0]) if t >= 0.01 * sum(op_s)))
    if args.trace:
        metrics = {}
        for name, unit in UNITS.items():
            values = [r["layers"][name] for r in traced]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            if unit == "count" and len(set(values)) > 1:
                log("warning: %s differs between traced rounds: %s" % (name, values))
        overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        wall = median("wall_s", traced)
        layers = defaultdict(float)
        for name, unit in UNITS.items():
            if unit == "s":
                layers[name.split(".")[0]] += metrics[name]["value"]
        log("self time as a share of traced wall time %.3f s: %s" % (wall, ", ".join(
            "%s %.1f%%" % (k, 100 * v / wall) for k, v in
            sorted(layers.items(), key=lambda kv: -kv[1]))))
    else:
        metrics = {
            "wall_s": {"value": median("wall_s", plain), "unit": "s"},
            "cpu_s": {"value": median("cpu_s", plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": median("peak_rss_mib", plain), "unit": "MiB"},
        }
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
