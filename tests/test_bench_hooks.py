"""The benchmark's hooks name functions that exist.

``bench/probe.py`` instruments the library from outside by replacing
functions by name. A hook whose function was renamed or removed installs
nothing, and its metric reads 0 without an error, so this checks each hooked
name against the layer module it names, and the argument positions the
counting hooks read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PROBE_PATH = Path(__file__).resolve().parent.parent / "bench" / "probe.py"

#: Hooks on functions the library no longer has. The benchmark drops them in
#: its own change; until then they install nothing.
KNOWN_STALE = {
    ("graphs", "boosted_graph_oracle"),  # retired with the worst-case boosted oracle
}


def _load_probe():
    spec = importlib.util.spec_from_file_location("bench_probe", PROBE_PATH)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


probe = _load_probe()


def _layer(name):
    return importlib.import_module(f"specden.{name}")


def _resolve(layer, qualname):
    """The object ``layer.qualname`` names, or None."""
    obj = _layer(layer)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    return obj


def _hooked_names():
    names = set(probe.COUNTERS)
    names |= {(layer, name) for layer, private in probe.PRIVATE_SPANS.items()
              for name in private}
    names |= {(layer, f"{cls}.{method}") for layer, (cls, methods)
              in probe.METHOD_SPANS.items() for method in methods}
    return sorted(names - KNOWN_STALE)


@pytest.mark.parametrize("layer, qualname", _hooked_names())
def test_hooked_function_exists(layer, qualname):
    assert layer in probe.LAYERS
    assert callable(_resolve(layer, qualname)), f"{layer}.{qualname}"


@pytest.mark.parametrize("name", probe.STAGE_TIMERS)
def test_stage_timer_exists(name):
    # stage timers are installed on the moments and spectrum layers
    assert any(inspect.isfunction(getattr(_layer(layer), name, None))
               for layer in ("moments", "spectrum")), name


def _positional(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def test_approx_run_takes_graph_and_budget_positionally():
    # _keep_approx_run unpacks (graph, truth, degree, t) from args[:4]
    assert len(_positional(_resolve("cli", "_approx_run"))) >= 4


@pytest.mark.parametrize("name", ["hutchinson_moments", "approx_hutchinson_moments"])
def test_estimators_take_ell_third(name):
    # _count_hutchinson reads the probe count from args[2]
    assert _positional(_resolve("moments", name))[2] == "ell"
