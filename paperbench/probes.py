"""Per-layer probes: timing wrappers installed into a program process.

:func:`install` replaces public functions and methods of each layer with
wrappers that count calls and time them.  Each wrapper is set on the name
the caller looks up at call time: a function imported by name into other
modules (``from .mixture import fit_poisson_mixture``) is replaced in
every loaded ``repro`` module that holds it, and in its home module, so
modules imported later pick up the wrapper too.  Methods are replaced on
their class.

The recorder is lock-guarded and keeps a per-thread stack of open probe
frames, so it is safe under ``repro serve``'s executor threads and can
split each probe's time into self time (its own) and time spent in
nested probes.  The program's own ``repro.obs`` tracer is not used: it
is single-threaded by design.

Only ``probe_main.py`` imports this module, inside the program process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter


class Recorder:
    """Counts and times, shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.extra: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = defaultdict(set)
        self.samples_ms: Dict[str, List[float]] = defaultdict(list)
        self.experiments: Dict[str, float] = defaultdict(float)
        self.experiment_errors: Dict[str, int] = defaultdict(int)
        self.experiment_attempts: Dict[str, int] = defaultdict(int)
        self.request_ms: Dict[str, float] = {}
        self.resolve_at: Dict[str, float] = {}
        self.execute_at: Dict[str, float] = {}
        # A fork can happen while another thread holds the lock; the
        # child gets a fresh one.
        os.register_at_fork(after_in_child=self._reset_lock)

    def _reset_lock(self) -> None:
        self.lock = threading.Lock()

    def _stack(self) -> List[list]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def enter(self, probe: str) -> list:
        frame = [probe, _clock(), 0.0]
        self._stack().append(frame)
        return frame

    def leave(self, frame: list) -> float:
        """Close ``frame``; returns its duration."""
        ended = _clock()
        stack = self._stack()
        stack.pop()
        probe, started, nested = frame
        took = ended - started
        outer_same = any(other[0] == probe for other in stack)
        with self.lock:
            self.calls[probe] += 1
            if not outer_same:
                self.seconds[probe] += took
            self.self_seconds[probe] += took - nested
        if stack:
            stack[-1][2] += took
        return took

    def add(self, name: str, amount: float = 1.0) -> None:
        with self.lock:
            self.extra[name] += amount

    def dump(self, path: str) -> None:
        with self.lock:
            payload = {
                "calls": dict(self.calls),
                "seconds": dict(self.seconds),
                "self_seconds": dict(self.self_seconds),
                "extra": dict(self.extra),
                "distinct": {k: len(v) for k, v in self.distinct.items()},
                "samples_ms": dict(self.samples_ms),
                "experiments": dict(self.experiments),
                "experiment_errors": dict(self.experiment_errors),
                "experiment_attempts": dict(self.experiment_attempts),
                "request_ms": dict(self.request_ms),
                "queue_ms": [
                    (self.execute_at[rid] - at) * 1000.0
                    for rid, at in self.resolve_at.items()
                    if rid in self.execute_at
                ],
            }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


REC = Recorder()

After = Optional[Callable[[tuple, dict, Any, float], None]]


def timed(fn: Callable, probe: str, after: After = None) -> Callable:
    """Wrap ``fn`` so each call is counted and timed under ``probe``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = REC.enter(probe)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            REC.leave(frame)
            raise
        took = REC.leave(frame)
        if after is not None:
            after(args, kwargs, result, took)
        return result

    wrapper.__paperbench_probe__ = probe  # type: ignore[attr-defined]
    return wrapper


def patch_function(module: str, name: str, probe: str, after: After = None) -> None:
    """Replace ``module.name`` wherever a loaded repro module holds it."""
    original = getattr(importlib.import_module(module), name)
    if hasattr(original, "__paperbench_probe__"):
        return
    wrapper = timed(original, probe, after)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def patch_method(cls: type, name: str, probe: str, after: After = None) -> None:
    """Replace a method (plain or classmethod) on its class."""
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(timed(raw.__func__, probe, after)))
    else:
        setattr(cls, name, timed(raw, probe, after))


def _import_all() -> None:
    """Load every repro module, so name-imports exist before patching."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if ".devtools" in info.name:
            continue
        importlib.import_module(info.name)


# --------------------------------------------------------------- callbacks


def _after_cached_generate(args, kwargs, result, took) -> None:
    REC.add("synth.cache_hits" if result[1] else "synth.cache_misses")


def _after_generate(args, kwargs, result, took) -> None:
    REC.add("synth.contracts_generated", len(result.dataset))


def _after_text(probe: str):
    """Record the text argument of ``categorize``/``extract(self, text)``."""
    def after(args, kwargs, result, took) -> None:
        with REC.lock:
            REC.distinct[probe].add(args[1] if len(args) > 1 else kwargs.get("text"))
    return after


def _after_value(args, kwargs, result, took) -> None:
    contract = args[0]
    key = (contract.maker_obligation, contract.taker_obligation)
    with REC.lock:
        REC.distinct["text.value"].add(key)


def _after_mixture(args, kwargs, result, took) -> None:
    import numpy as np

    rows = np.asarray(args[0] if args else kwargs["Y"])
    REC.add("stats.em_rows", len(rows))
    REC.add("stats.em_distinct_rows", len(np.unique(rows, axis=0)))
    REC.add("stats.em_iters", int(result.n_iter))
    REC.add("stats.em_converged", 1.0 if result.converged else 0.0)


def _after_zip(args, kwargs, result, took) -> None:
    REC.add("stats.zip_converged", 1.0 if result.converged else 0.0)


def _after_experiment(args, kwargs, result, took) -> None:
    experiment_id = args[0] if args else kwargs["experiment_id"]
    with REC.lock:
        REC.experiments[experiment_id] += took
        REC.experiment_attempts[experiment_id] += 1


def _time_experiments(fn: Callable) -> Callable:
    """``run_experiment`` wrapper that also counts failed attempts."""
    inner = timed(fn, "report.experiment", _after_experiment)

    @functools.wraps(fn)
    def wrapper(experiment_id, *args, **kwargs):
        try:
            return inner(experiment_id, *args, **kwargs)
        except Exception:
            with REC.lock:
                REC.experiment_errors[experiment_id] += 1
                REC.experiment_attempts[experiment_id] += 1
            raise

    wrapper.__paperbench_probe__ = "report.experiment"  # type: ignore[attr-defined]
    return wrapper


def _after_execute(args, kwargs, result, took) -> None:
    request_id = args[2] if len(args) > 2 else kwargs.get("request_id", "")
    with REC.lock:
        REC.samples_ms[f"serve.{result.source}"].append(took * 1000.0)
        REC.calls[f"serve.execute.{result.source}"] += 1
        if request_id:
            REC.request_ms[request_id] = took * 1000.0


def _after_live(args, kwargs, result, took) -> None:
    with REC.lock:
        REC.samples_ms["serve.live"].append(took * 1000.0)


def _execute_start(fn: Callable) -> Callable:
    """Stamp when ``MarketService.execute`` starts, for queue time."""

    @functools.wraps(fn)
    def wrapper(self, context, request_id: str = ""):
        if request_id:
            with REC.lock:
                REC.execute_at[request_id] = _clock()
        return fn(self, context, request_id)

    return wrapper


def _resolve_entry(fn: Callable) -> Callable:
    """Stamp when a router hands a request to the executor."""

    @functools.wraps(fn)
    async def wrapper(request, context):
        request_id = str(request.state.get("request_id", ""))
        if request_id:
            with REC.lock:
                REC.resolve_at[request_id] = _clock()
        return await fn(request, context)

    return wrapper


# ----------------------------------------------------------------- install


def _kernel_functions() -> List[tuple]:
    """Public analysis/network functions taking ``fast``: the kernels."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith(("repro.analysis.", "repro.network.")):
            continue
        for attr, value in list(vars(mod).items()):
            if (
                inspect.isfunction(value)
                and value.__module__ == mod_name
                and not attr.startswith("_")
                and "fast" in inspect.signature(value).parameters
            ):
                found.append((mod_name, attr))
    return found


def install() -> Recorder:
    """Install every probe; returns the process recorder."""
    _import_all()
    from repro.core import columns, partitions
    from repro.robust import locks
    from repro.runs import store
    from repro.serve import routers, services
    from repro.text import payments, taxonomy

    # synth: generation and the dataset cache
    patch_function("repro.synth.cache", "cached_generate", "synth.cached_generate",
                   _after_cached_generate)
    patch_function("repro.synth.engine", "run_engine", "synth.generate", _after_generate)
    patch_function("repro.synth.cache", "save_result", "synth.cache_save")
    patch_function("repro.synth.cache", "load_result", "synth.cache_load")
    # core: materialisation, column stores, partitions
    for kind in ("users", "contracts", "threads", "posts", "ratings"):
        patch_function("repro.core.lazy", f"{kind}_from_tables", "core.materialize")
    patch_method(columns.ColumnStore, "from_tables", "core.columns_build")
    patch_method(partitions.PartitionStore, "partition", "core.partition_open")
    # text: obligation parsing
    patch_method(taxonomy.ActivityCategorizer, "categorize", "text.categorize",
                 _after_text("text.categorize"))
    patch_method(payments.PaymentExtractor, "extract", "text.extract",
                 _after_text("text.extract"))
    patch_function("repro.text.values", "estimate_contract_value", "text.value",
                   _after_value)
    # stats: model fitting
    patch_function("repro.stats.mixture", "fit_poisson_mixture", "stats.mixture",
                   _after_mixture)
    patch_function("repro.stats.zip_model", "fit_zip", "stats.zip", _after_zip)
    patch_function("repro.stats.kmeans", "kmeans", "stats.kmeans")
    patch_function("repro.stats.poisson_glm", "fit_poisson", "stats.glm")
    # analysis: columnar kernels
    for mod_name, attr in _kernel_functions():
        patch_function(mod_name, attr, "analysis.kernel")
    # report: experiments
    from repro.report import experiments

    experiments.run_experiment = _time_experiments(experiments.run_experiment)
    # runs: the run store
    patch_method(store.RunStore, "begin", "runs.record")
    patch_method(store.RunHandle, "record", "runs.record",
                 lambda a, k, r, t: REC.add("runs.records"))
    patch_method(store.RunHandle, "finish", "runs.record")
    patch_method(services.MarketService, "_stored_payload", "runs.store_lookup")
    # serve: tiers, live store reads, executor queueing
    services.MarketService.execute = _execute_start(
        timed(services.MarketService.execute, "serve.execute", _after_execute)
    )
    patch_method(services.MarketService, "list_runs", "serve.live", _after_live)
    patch_method(services.MarketService, "run_detail", "serve.live", _after_live)
    routers._resolve = _resolve_entry(routers._resolve)
    # robust: forks and locks
    patch_function("repro.robust.parallel", "forked_call", "robust.fork")
    patch_method(locks.FileLock, "acquire", "robust.lock_wait")
    return REC
