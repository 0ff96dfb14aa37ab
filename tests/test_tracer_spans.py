"""Every function the benchmark's tracer wraps still exists in the package.

perfbench/tracer.py wraps public functions and methods by name, from
outside the package; a rename or deletion here would otherwise only show
when a traced benchmark run fails to install its wrappers.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    modules = {name: importlib.import_module("symdesign." + name)
               for name in tracer.MODULES}
    missing = []
    for module, path, *_ in tracer.SPANS:
        owner = modules[module]
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append("%s.%s" % (module, path))
    assert not missing, "traced names missing from the package: %s" % missing
