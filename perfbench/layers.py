"""Per-layer numbers from a cProfile run of one round.

The layers are the package's modules. A function's layer is its module,
except that the kernel module splits into the event queue, the channel
and the fuzzy centroid, and that of the metrics module only the energy
ledger is a layer of its own; the rest of the package is "other". Self time of code outside the package (builtins such as heapq,
the standard library, dataclass-generated __init__) is credited to the
package functions that called it, in proportion to each caller's share of
its cumulative time.

Counts are profiler call counts of named functions, so they repeat
exactly for a given seed. A change that renames or inlines one of those
functions changes its count; the compiled kernel backend is invisible to
the profiler, so under it the queue, channel and fuzzy numbers read 0.
"""

from __future__ import annotations

import inspect
import os
import pstats

import priomac
from priomac import _pykernels, config, engine, fps, frog, fuzzy, harness, metrics, traffic

_MODULE_LAYER = {"engine": "engine.loop", "frog": "frog", "fps": "fps", "fuzzy": "fuzzy"}
_CLASS_LAYER = {
    "EventQueue": "engine.queue",
    "Channel": "engine.channel",
    "EnergyLedger": "metrics.ledger",
}


def _code_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _qualnames() -> dict[tuple, str]:
    """Profiler key -> qualified name, for every function the package defines.

    Functions the benchmark wrapped with functools.wraps are unwrapped, so
    the index names the package's own code.
    """
    out = {}
    for mod in (_pykernels, config, engine, fps, frog, fuzzy, harness, metrics, traffic):
        for obj in vars(mod).values():
            obj = inspect.unwrap(obj) if callable(obj) else obj
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[_code_key(obj)] = obj.__qualname__
            elif inspect.isclass(obj):
                for member in vars(obj).values():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        out[_code_key(member)] = member.__qualname__
    return out


def _layer(func: tuple, qualnames: dict, pkg_dir: str) -> str | None:
    """Layer of a profiler key, or None for code outside the package."""
    filename = func[0]
    if os.path.dirname(filename) != pkg_dir:
        return None
    cls = qualnames.get(func, "").partition(".")[0]
    if cls in _CLASS_LAYER:
        return _CLASS_LAYER[cls]
    module = os.path.splitext(os.path.basename(filename))[0]
    if module == "_pykernels":
        return "fuzzy"  # fuzzy_core and its membership helper
    return _MODULE_LAYER.get(module, "other")


def split(profile) -> dict[str, float]:
    """Per-layer metrics of one profiled round, keyed as in BENCHMARK.json."""
    stats = pstats.Stats(profile).stats
    qualnames = _qualnames()
    pkg_dir = os.path.dirname(os.path.abspath(priomac.__file__))
    self_s: dict[str, float] = {}

    def credit(func, seconds, depth=0):
        layer = _layer(func, qualnames, pkg_dir)
        callers = stats[func][4] if func in stats else {}
        total = sum(c[3] for c in callers.values())
        if layer is None and depth < 16 and total > 0:
            for caller, c in callers.items():
                credit(caller, seconds * c[3] / total, depth + 1)
            return
        key = layer or "other"
        self_s[key] = self_s.get(key, 0.0) + seconds

    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        credit(func, tt)

    by_name = {}
    for func, row in stats.items():
        name = qualnames.get(func)
        if name is not None:
            by_name[name] = row

    def calls(name):
        return by_name[name][1] if name in by_name else 0

    def cumulative(name):
        return by_name[name][3] if name in by_name else 0.0

    fuzzy_calls = calls("fuzzy_core")
    output_s = 0.0
    if calls("run_sweep"):
        output_s = cumulative("run_sweep") - cumulative("run_once")
    return {
        # Each Engine.run pops one item it does not dispatch: None when the
        # queue drains, or the first event past the run's end.
        "engine.events": calls("EventQueue.pop") - calls("Engine.run"),
        "engine.cancelled": calls("EventQueue.cancel"),
        "engine.queue_s": self_s.get("engine.queue", 0.0),
        "engine.channel_s": self_s.get("engine.channel", 0.0),
        "engine.loop_s": self_s.get("engine.loop", 0.0),
        "frog.self_s": self_s.get("frog", 0.0),
        "fps.self_s": self_s.get("fps", 0.0),
        "fps.frames_built": calls("build_frame"),
        "metrics.ledger_calls": calls("EnergyLedger.add") + calls("EnergyLedger.move"),
        "metrics.ledger_s": self_s.get("metrics.ledger", 0.0),
        "metrics.report_s": cumulative("MetricsCollector.summarize"),
        "fuzzy.calls": fuzzy_calls,
        "fuzzy.self_s": self_s.get("fuzzy", 0.0),
        "fuzzy.us_per_call": self_s.get("fuzzy", 0.0) / fuzzy_calls * 1e6 if fuzzy_calls else 0.0,
        "traffic.population_s": cumulative("build_population"),
        "config.parse_s": cumulative("parse_config"),
        "harness.output_s": output_s,
    }
