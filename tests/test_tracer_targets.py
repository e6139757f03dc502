"""The benchmark tracer's targets resolve against the package.

``perfbench/tracer.py`` wraps wildgoppa functions by name and reads work
counts off their arguments. A library change that deletes or reshapes a
traced name would otherwise show only when the tracer is installed, in
``perfbench/selfcheck.py`` and every ``--trace 1`` run.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import wildgoppa

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("name,module_name,path,counts", TARGETS,
                         ids=[t[0] for t in TARGETS])
def test_target_resolves(name, module_name, path, counts):
    # the lookup of Tracer.install: a module of the package, then the
    # attribute path in it, a dotted path naming a method
    importlib.import_module(f"wildgoppa.{module_name}")
    owner = getattr(wildgoppa, module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name
    if name == "gf.build_tower":
        # cold builds are counted from the lru_cache's misses
        assert hasattr(owner, "cache_info"), name
    if counts is not None:
        # a counts function takes (result, *args) of the traced call, so
        # the target must accept those arguments positionally
        params = list(inspect.signature(counts).parameters.values())[1:]
        required = [p for p in params if p.default is inspect.Parameter.empty]
        inspect.signature(owner).bind(*range(len(required)))
