"""Per-layer counts and self times, by wrapping public functions from outside.

Tracer.install() replaces each function or method named in SPANS with a
wrapper, in every loaded symdesign module that holds a reference to it, so
calls between modules are seen too.  A wrapper with a time metric opens a
span; its self time is its duration minus the time of the spans nested in
it.  Count-only wrappers (Perm products, inverses, membership tests) open no
span, so their time stays in the enclosing span.  Nothing inside the
package changes; the overhead shows as traced minus untraced wall time.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("perm", "geometry", "design", "decomp", "enumeration", "iso",
           "diffset", "catalog", "cli")

# (module, function or Class.method, count metric, self-time metric, role)
SPANS = (
    ("perm", "PermGroup.__init__", "perm.group_builds", "perm.group_build_s", "build"),
    ("perm", "PermGroup.point_stabilizer", "perm.point_stabilizer_calls",
     "perm.point_stabilizer_s", None),
    ("perm", "Perm.__mul__", "perm.products", None, None),
    ("perm", "Perm.inv", "perm.inverses", None, None),
    ("perm", "PermGroup.contains", "perm.membership_tests", None, None),
    ("perm", "minimal_block_systems", None, "perm.block_systems_s", None),
    ("iso", "automorphism_group", "iso.aut_searches", "iso.aut_search_s", "aut"),
    ("iso", "are_isomorphic", "iso.iso_tests", "iso.iso_test_s", "iso"),
    ("diffset", "is_difference_set", "diffset.diffset_checks",
     "diffset.diffset_check_s", None),
    ("diffset", "develop_difference_set", None, "diffset.develop_s", None),
    ("diffset", "RegularAction.__init__", None, "diffset.regular_action_s", None),
    ("diffset", "RegularAction.from_group", None, "diffset.regular_action_s", None),
    ("diffset", "find_regular_subgroups", None, "diffset.regular_search_s", "regular"),
    ("design", "verify_design", "design.verify_calls", "design.verify_s", None),
    ("design", "is_flag_transitive", None, "design.flag_transitive_s", None),
    ("design", "induced_block_action", "design.block_action_calls", None, None),
    ("design", "develop", None, "design.develop_s", None),
    ("decomp", "decompose", None, "decomp.decompose_s", None),
    ("enumeration", "table_rows", None, "enumeration.table_rows_s", None),
    ("enumeration", "all_rows", None, "enumeration.table_rows_s", None),
    ("enumeration", "render_csv", None, "enumeration.render_s", None),
    ("enumeration", "render_symmetric_csv", None, "enumeration.render_s", None),
    ("enumeration", "render_table", None, "enumeration.render_s", None),
    ("geometry", "build_affine_design", None, "geometry.build_s", None),
    ("geometry", "build_projective_design", None, "geometry.build_s", None),
    ("geometry", "restricted_semilinear_group", None, "geometry.build_s", None),
    ("catalog", "biplane_classes", None, "catalog.biplane_classes_s", None),
    ("catalog", "entry", None, "catalog.entry_s", None),
    ("catalog", "run_claims", None, "catalog.claims_s", None),
    ("cli", "main", "cli.main_calls", "cli.main_s", None),
)
# every per-layer metric a traced round reports, with its unit
UNITS = {name: unit for _, _, count, timer, _ in SPANS
         for name, unit in ((count, "count"), (timer, "s")) if name}
UNITS.update({"perm.group_builds_per_aut_search": "count",
              "iso.iso_hit_ratio": "ratio", "diffset.regular_found": "count"})


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._children = [0.0]  # time of finished child spans, per open span
        self._aut_depth = 0

    def _span(self, fn, count: str | None, timer: str, role: str | None):
        counts, self_s, children = self.counts, self.self_s, self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                counts[count] += 1
            if role == "build" and self._aut_depth:
                counts["builds_in_aut"] += 1
            elif role == "aut":
                self._aut_depth += 1
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[timer] += elapsed - children.pop()
                children[-1] += elapsed
                if role == "aut":
                    self._aut_depth -= 1
            if role == "iso" and result is not None:
                counts["iso_hits"] += 1
            elif role == "regular":
                counts["regular_found"] += len(result)
            return result

        return wrapper

    def _counter(self, fn, count: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module("symdesign." + name)
                   for name in MODULES}
        for module, path, count, timer, role in SPANS:
            owner = modules[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
            fn = original.__func__ if isinstance(original, classmethod) else original
            wrapped = self._span(fn, count, timer, role) if timer else \
                self._counter(fn, count)
            if isinstance(original, classmethod):
                wrapped = classmethod(wrapped)
            if cls:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    def metrics(self) -> dict[str, float]:
        out = {name: self.counts[name] if unit == "count" else self.self_s[name]
               for name, unit in UNITS.items()}
        searches, tests = self.counts["iso.aut_searches"], self.counts["iso.iso_tests"]
        out["perm.group_builds_per_aut_search"] = (
            self.counts["builds_in_aut"] / searches if searches else 0.0)
        out["iso.iso_hit_ratio"] = self.counts["iso_hits"] / tests if tests else 0.0
        out["diffset.regular_found"] = self.counts["regular_found"]
        return out
