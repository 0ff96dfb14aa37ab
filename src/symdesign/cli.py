"""Command-line interface over the construction and analysis operations.

Exit codes: 0 success or checked-true, 1 checked-false (a verification or
isomorphism test that ran and answered no), 2 usage or input error,
3 internal failure, 4 a search that ran out of its budget (`diffset regular
--budget`).  `-` stands for stdin wherever a file is expected.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .catalog import DATA_DIR, entry, run_claims
from .decomp import DecompositionError, decompose
from .design import DesignError, design_from_json, design_to_json, verify_design
from .diffset import (
    BudgetExhausted,
    RegularAction,
    develop_difference_set,
    find_regular_subgroups,
    is_difference_set,
)
from .enumeration import all_rows, render_csv, render_table
from .iso import are_isomorphic, automorphism_group
from .perm import PermGroup, minimal_block_systems, parse_generator_file

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BUDGET = 4


class UsageError(Exception):
    pass


def _read_text(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    try:
        return Path(spec).read_text()
    except OSError as err:
        raise UsageError("cannot read %s: %s" % (spec, err))


def _load_design(spec: str):
    text = _read_text(spec)
    try:
        return design_from_json(text)
    except ValueError as err:
        raise UsageError("%s is not a design file: %s" % (spec, err))


def _load_group(spec: str) -> PermGroup:
    text = _read_text(spec)
    try:
        degree, gens = parse_generator_file(text)
    except ValueError as err:
        raise UsageError("%s is not a generator file: %s" % (spec, err))
    return PermGroup(gens, degree)


def _parse_subset(spec: str, degree: int) -> list[int]:
    """1-based point list, inline (comma or space separated) or from a file."""
    # a blank spec is inline text: Path("") is the current directory
    if spec != "-" and not (spec.strip() and Path(spec).exists()):
        text = spec
    else:
        text = _read_text(spec)
    try:
        points = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError("subset must be a list of integers, got %r" % spec)
    if not points:
        raise UsageError("subset is empty")
    bad = [p for p in points if not 1 <= p <= degree]
    if bad:
        raise UsageError("subset points %s out of range 1..%d" % (bad, degree))
    if len(set(points)) != len(points):
        raise UsageError("subset has repeated points")
    return [p - 1 for p in points]


def _regular_action(group: PermGroup) -> RegularAction:
    try:
        return RegularAction.from_group(group)
    except ValueError as err:
        raise UsageError("group is not regular: %s" % err)


def cmd_verify(args) -> int:
    design = _load_design(args.design)
    try:
        params = verify_design(design)
    except DesignError as err:
        print("not a 2-design: %s" % err)
        return EXIT_FALSE
    if args.format == "json":
        print(json.dumps({"v": params.v, "b": params.b, "k": params.k,
                          "r": params.r, "lambda": params.lam,
                          "symmetric": params.symmetric}))
    else:
        print(params)
    return EXIT_OK


def cmd_aut(args) -> int:
    design = _load_design(args.design)
    group = automorphism_group(design)
    gens = [p.cycle_string() for p in group.generators]
    if args.format == "json":
        print(json.dumps({"order": group.order(), "generators": gens}))
    else:
        print("order %d" % group.order())
        for line in gens:
            print(line)
    return EXIT_OK


def cmd_iso(args) -> int:
    d1 = _load_design(args.design1)
    d2 = _load_design(args.design2)
    mapping = are_isomorphic(d1, d2)
    if args.format == "json":
        images = None if mapping is None else [x + 1 for x in mapping]
        print(json.dumps({"isomorphic": mapping is not None,
                          "mapping": images}))
    elif mapping is None:
        print("non-isomorphic")
    else:
        print("isomorphic: %s" % mapping.cycle_string())
    return EXIT_OK if mapping is not None else EXIT_FALSE


def cmd_decompose(args) -> int:
    design = _load_design(args.design)
    group = _load_group(args.group)
    systems = minimal_block_systems(group)
    if not systems:
        print("group is primitive: no nontrivial invariant partition")
        return EXIT_FALSE
    if not 0 <= args.system < len(systems):
        raise UsageError("--system %d out of range, group has %d minimal "
                         "partitions" % (args.system, len(systems)))
    try:
        d = decompose(design, group, systems[args.system])
    except DecompositionError as err:
        print("decomposition failed: %s" % err)
        return EXIT_FALSE
    fields = d.fields()
    if args.format == "json":
        print(json.dumps(fields))
    elif args.format == "csv":
        print(",".join(fields))
        print(",".join("-" if x is None else str(x) for x in fields.values()))
    else:
        print(d.table_row())
    return EXIT_OK


def _csv_as_aligned_table(csv_text: str) -> str:
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(r, widths))
                     for r in rows)


def _csv_as_json(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    return json.dumps([dict(zip(header, line.split(",")))
                       for line in lines[1:]])


def cmd_enumerate(args) -> int:
    if args.symmetric and args.table:
        raise UsageError("--symmetric and --table are mutually exclusive")
    table = args.table or ("table5" if args.symmetric else None)
    csv_text = render_table(table, args.vmax) if table else render_csv(all_rows(args.vmax))
    if args.format == "csv":
        sys.stdout.write(csv_text)
    elif args.format == "json":
        print(_csv_as_json(csv_text))
    else:
        print(_csv_as_aligned_table(csv_text))
    return EXIT_OK


def cmd_construct(args) -> int:
    text = design_to_json(entry(args.name).design)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as err:
            raise UsageError("cannot write %s: %s" % (args.out, err))
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            print()
    return EXIT_OK


def cmd_claims(args) -> int:
    report = run_claims(entry(args.name))
    if args.format == "json":
        print(json.dumps([{"claim": label, "ok": ok, "detail": detail}
                          for label, ok, detail in report]))
    else:
        for label, ok, detail in report:
            print("%-16s %s  %s" % (label, "PASS" if ok else "FAIL", detail))
    return EXIT_OK if all(ok for _, ok, _ in report) else EXIT_FALSE


def cmd_diffset(args) -> int:
    group = _load_group(args.group)
    if args.diffset_command == "regular":
        try:
            found = find_regular_subgroups(group, limit=args.limit,
                                           budget=args.budget)
        except BudgetExhausted as err:
            print("budget exhausted: %s" % err, file=sys.stderr)
            return EXIT_BUDGET
        if not found:
            print("no regular subgroup")
            return EXIT_FALSE
        for action in found:
            print("regular subgroup of order %d" % action.group.order())
            for p in action.group.generators:
                print(p.cycle_string())
        return EXIT_OK

    action = _regular_action(group)
    subset = _parse_subset(args.subset, group.degree)
    if args.diffset_command == "develop":
        sys.stdout.write(design_to_json(develop_difference_set(action, subset)))
        print()
        return EXIT_OK

    ok, deviants = is_difference_set(action, subset, args.lam)
    if ok:
        print("difference set: every non-identity element has %d "
              "representation%s" % (args.lam, "" if args.lam == 1 else "s"))
        return EXIT_OK
    print("not a difference set with lambda=%d:" % args.lam)
    for perm, count in deviants[:8]:
        print("  %s has %d representation%s" % (
            perm.cycle_string(), count,
            "" if count == 1 else "s"))
    if len(deviants) > 8:
        print("  ... and %d more" % (len(deviants) - 8))
    return EXIT_FALSE


def _version_text() -> str:
    lines = ["symdesign %s" % __version__]
    for path in sorted(DATA_DIR.iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append("%s  %s" % (digest, path.name))
    return "\n".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symdesign",
        description="Construct, verify, decompose, and enumerate "
                    "flag-transitive point-imprimitive symmetric 2-designs.")
    parser.add_argument("--version", action="store_true",
                        help="print package version and data checksums")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", help="check that a design file is a 2-design")
    p.add_argument("design", help="design JSON file, or - for stdin")
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("aut", help="automorphism group of a design")
    p.add_argument("design")
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("iso", help="test two designs for isomorphism")
    p.add_argument("design1")
    p.add_argument("design2")
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("decompose",
                       help="split a design along an invariant partition")
    p.add_argument("design")
    p.add_argument("group", help="generator file for a flag-transitive group")
    p.add_argument("--system", type=int, default=0, metavar="K",
                   help="index of the minimal partition to use (default 0)")
    p.add_argument("--format", choices=["table", "csv", "json"],
                   default="table")

    p = sub.add_parser("enumerate", help="admissible parameter tables")
    p.add_argument("--vmax", type=int, default=100)
    p.add_argument("--symmetric", action="store_true",
                   help="only rows where the design is symmetric")
    p.add_argument("--table", choices=["table2", "table3", "table4", "table5"],
                   help="one published table instead of the merged listing")
    p.add_argument("--format", choices=["table", "csv", "json"],
                   default="table")

    p = sub.add_parser("construct", help="emit a catalog design as JSON")
    p.add_argument("name")
    p.add_argument("--out", metavar="FILE",
                   help="write to FILE instead of stdout")

    p = sub.add_parser("claims", help="re-check the claims of a catalog entry")
    p.add_argument("name")
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("diffset", help="difference-set operations")
    dsub = p.add_subparsers(dest="diffset_command", required=True)

    q = dsub.add_parser("check", help="test a subset for the difference property")
    q.add_argument("group", help="generator file for a regular group")
    q.add_argument("subset", help="1-based points, inline or a file")
    q.add_argument("--lambda", dest="lam", type=int, required=True,
                   help="required number of representations")

    q = dsub.add_parser("develop", help="develop a subset into a design")
    q.add_argument("group")
    q.add_argument("subset")

    q = dsub.add_parser("regular", help="search for point-regular subgroups")
    q.add_argument("group", help="generator file for a transitive group")
    q.add_argument("--limit", type=int, default=1)
    q.add_argument("--budget", type=int, default=100_000)

    return parser


_HANDLERS = {
    "verify": cmd_verify,
    "aut": cmd_aut,
    "iso": cmd_iso,
    "decompose": cmd_decompose,
    "enumerate": cmd_enumerate,
    "construct": cmd_construct,
    "claims": cmd_claims,
    "diffset": cmd_diffset,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; in-process callers share one parser, built on first use."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.version:
        print(_version_text())
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    for attr, flag in (("vmax", "vmax"), ("limit", "limit"), ("budget", "budget"),
                       ("lam", "lambda")):
        if getattr(args, attr, 1) < 0:
            print("error: --%s must not be negative" % flag, file=sys.stderr)
            return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:  # anything unplanned is an internal failure
        print("internal error: %s: %s" % (type(err).__name__, err),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
