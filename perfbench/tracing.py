"""Per-layer spans, recorded by the benchmark's own wrappers.

:class:`Tracer` wraps public entry points of ``repro``'s layers — module
functions wherever a module binds them, methods on their class — and sums
time and calls per layer while its ``phase`` is set.  Nothing inside the
program is edited or read back: counts come from the wrappers alone.  An
entry point that no longer exists is skipped, and every metric that
depends on it is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# layer key -> (module, qualified name)
TARGETS: Dict[str, Tuple[str, str]] = {
    "lockstep": ("repro.runtime.lockstep", "VectorizedLockstep.run"),
    "topphase": ("repro.runtime.topphase", "vectorized_top_phase"),
    "approx_search": ("repro.core.approx_search", "approximate_ball_query"),
    "treebuild": ("repro.runtime.treebuild", "vectorized_build_kdtree"),
    "split": ("repro.runtime.treebuild", "VectorizedSplitTree.__init__"),
    "aggregation": ("repro.accel.aggregation", "AggregationUnit.run"),
    "materialize": ("repro.core.pipeline", "ApproximationPipeline.materialize"),
    "forward": ("repro.models.pointnetpp", "PointNetPPClassifier.forward"),
    "backward": ("repro.nn.tensor", "Tensor.backward"),
    "optim": ("repro.nn.optim", "Adam.step"),
    "digest": ("repro.runtime.session", "geometry_digest"),
    "tree_for": ("repro.runtime.session", "SearchSession.tree_for"),
    "submit": ("repro.serve.service", "QueryService.submit"),
    "flush": ("repro.serve.service", "QueryService.flush"),
    "update": ("repro.serve.service", "QueryService.update"),
    "sweep": ("repro.runtime.batched", "BatchedBallQuery.query_merged"),
    "dyn_refresh": ("repro.kdtree.dynamic", "DynamicKdTree.refresh"),
    "dyn_query": ("repro.kdtree.dynamic", "DynamicKdTree.query_merged"),
}


def _ms(key: str) -> Callable:
    return lambda t, n: 1e3 * t.seconds["ops"][key] / n


def _calls(key: str) -> Callable:
    return lambda t, n: t.calls["ops"][key] / n


def _ratio(num: Callable, den: Callable) -> Callable:
    return lambda t, n: num(t) / den(t) if den(t) else 0.0


# metric -> (unit, layer keys it reads, value from (tracer, ops)); times and
# counts are per timed op, so totals do not grow with the number of ops.
LAYER_METRICS: Dict[str, Tuple[str, Tuple[str, ...], Callable]] = {
    "runtime.lockstep.ms": ("ms/op", ("lockstep",), _ms("lockstep")),
    "runtime.lockstep.calls": ("1/op", ("lockstep",), _calls("lockstep")),
    "runtime.topphase.ms": ("ms/op", ("topphase",), _ms("topphase")),
    "core.approx_search.ms": ("ms/op", ("approx_search",), _ms("approx_search")),
    "runtime.treebuild.build_ms": ("ms/op", ("treebuild",), _ms("treebuild")),
    "runtime.treebuild.builds": ("1/op", ("treebuild",), _calls("treebuild")),
    "runtime.treebuild.points_indexed": (
        "points/op", ("treebuild",), lambda t, n: t.extra["ops"]["treebuild"] / n,
    ),
    "runtime.treebuild.split_ms": ("ms/op", ("split",), _ms("split")),
    "accel.aggregation.ms": ("ms/op", ("aggregation",), _ms("aggregation")),
    "training.materialize_ms": ("ms/op", ("materialize",), _ms("materialize")),
    "training.materialize_setup_ms": (
        "ms", ("materialize",), lambda t, n: 1e3 * t.seconds["setup"]["materialize"],
    ),
    "models.forward_ms": ("ms/op", ("forward",), _ms("forward")),
    "nn.backward_ms": ("ms/op", ("backward",), _ms("backward")),
    "nn.optim_ms": ("ms/op", ("optim",), _ms("optim")),
    "nn.steps": ("1/op", ("optim",), _calls("optim")),
    "runtime.session.digest_ms": ("ms/op", ("digest",), _ms("digest")),
    "runtime.session.digests": ("1/op", ("digest",), _calls("digest")),
    "serve.submit_ms": ("ms/op", ("submit",), _ms("submit")),
    "serve.flush_ms": ("ms/op", ("flush",), _ms("flush")),
    "runtime.batched.sweep_ms": ("ms/op", ("sweep",), _ms("sweep")),
    "runtime.batched.sweeps": ("1/op", ("sweep",), _calls("sweep")),
    "serve.coalesce_factor": (
        "req/sweep", ("submit", "sweep"),
        _ratio(lambda t: t.calls["ops"]["submit"], lambda t: t.calls["ops"]["sweep"]),
    ),
    "runtime.session.tree_hit_rate": (
        "ratio", ("tree_for", "treebuild"),
        _ratio(lambda t: t.extra["ops"]["tree_for"], lambda t: t.calls["ops"]["tree_for"]),
    ),
    "serve.update_ms": ("ms/op", ("update",), _ms("update")),
    "kdtree.dynamic.refresh_ms": ("ms/op", ("dyn_refresh",), _ms("dyn_refresh")),
    "kdtree.dynamic.query_ms": ("ms/op", ("dyn_query",), _ms("dyn_query")),
}


def _import_all_repro_modules() -> None:
    """Load every ``repro`` module, so each binding of a wrapped function
    already exists when the wrappers are installed."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):  # running it would start a CLI
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue


def _resolve(module: str, qualname: str):
    """``(owner, attribute, object)`` for ``module:qualname``, or ``None``."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if target is None:
        return None
    return owner, attr, target


class Tracer:
    """Sums time, calls and a per-layer extra count while ``phase`` is set.

    ``phase`` is ``"setup"``, ``"ops"`` or ``None`` (not recording): the
    workload loop records only inside the op it times, never in checks.
    """

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.seconds: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.calls: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.extra: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.missing: List[str] = []
        self._builds = 0
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        _import_all_repro_modules()
        for key, (module, qualname) in TARGETS.items():
            found = _resolve(module, qualname)
            if found is None:
                self.missing.append(key)
                continue
            owner, attr, original = found
            wrapper = self._wrap(key, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # A function is bound in every module that imported it by name.
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, key: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.process_time  # CPU time, like the op times

        if key == "tree_for":
            # Counted as a hit when no tree build ran inside the call.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                phase, builds, t0 = tracer.phase, tracer._builds, clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._record(phase, key, clock() - t0, int(tracer._builds == builds))
            return wrapper

        if key == "treebuild":
            @functools.wraps(fn)
            def wrapper(points, *args, **kwargs):
                phase, t0 = tracer.phase, clock()
                try:
                    return fn(points, *args, **kwargs)
                finally:
                    tracer._builds += 1
                    tracer._record(phase, key, clock() - t0, len(points))
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase, t0 = tracer.phase, clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._record(phase, key, clock() - t0, 0)
        return wrapper

    def _record(self, phase: Optional[str], key: str, seconds: float, extra: int) -> None:
        if phase is None:
            return
        self.seconds[phase][key] += seconds
        self.calls[phase][key] += 1
        self.extra[phase][key] += extra

    # -- report ---------------------------------------------------------
    def metrics(self, ops: int) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
        """``({metric: (value, unit)}, [missing metric names])``."""
        values: Dict[str, Tuple[float, str]] = {}
        missing: List[str] = []
        for name, (unit, keys, value) in LAYER_METRICS.items():
            if any(key in self.missing for key in keys):
                missing.append(name)
                continue
            values[name] = (float(value(self, max(ops, 1))), unit)
        return values, missing
