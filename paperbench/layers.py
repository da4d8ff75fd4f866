"""Turn a probe dump (see ``probes.py``) into the per-layer figures."""

from __future__ import annotations

import json
from typing import Any, Dict, List

import catalogue
import measure


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def report_figures(raw: Dict[str, Any]) -> Dict[str, float]:
    """Figures of the layers a ``repro report`` process exercises."""
    calls, secs, extra = raw["calls"], raw["seconds"], raw["extra"]
    distinct = raw["distinct"]

    def s(probe: str) -> float:
        return float(secs.get(probe, 0.0))

    text_probes = ("text.categorize", "text.extract", "text.value")
    text_calls = sum(calls.get(p, 0) for p in text_probes)
    fits = calls.get("stats.mixture", 0)
    zips = calls.get("stats.zip", 0)
    attempts = raw["experiment_attempts"]
    errors = raw["experiment_errors"]
    out: Dict[str, float] = {
        "synth.generate_s": s("synth.generate"),
        "synth.contracts_per_s": _ratio(
            extra.get("synth.contracts_generated", 0.0), s("synth.generate")
        ),
        "synth.cache_save_s": s("synth.cache_save"),
        "synth.cache_misses": extra.get("synth.cache_misses", 0.0),
        "synth.cache_load_s": s("synth.cache_load"),
        "synth.cache_hits": extra.get("synth.cache_hits", 0.0),
        "core.materializations": calls.get("core.materialize", 0),
        "core.materialize_s": s("core.materialize"),
        "core.columns_build_s": s("core.columns_build"),
        "core.partitions_opened": calls.get("core.partition_open", 0),
        "text.calls": text_calls,
        "text.busy_s": sum(s(p) for p in text_probes),
        "text.distinct_frac": _ratio(
            sum(distinct.get(p, 0) for p in text_probes), text_calls
        ),
        "stats.mixture_s": s("stats.mixture"),
        "stats.em_rows": extra.get("stats.em_rows", 0.0),
        "stats.em_distinct_frac": _ratio(
            extra.get("stats.em_distinct_rows", 0.0), extra.get("stats.em_rows", 0.0)
        ),
        "stats.em_iters": extra.get("stats.em_iters", 0.0),
        "stats.em_converged_frac": _ratio(extra.get("stats.em_converged", 0.0), fits),
        "stats.zip_s": s("stats.zip"),
        "stats.zip_converged_frac": _ratio(extra.get("stats.zip_converged", 0.0), zips),
        "stats.kmeans_s": s("stats.kmeans"),
        "stats.glm_s": s("stats.glm"),
        "analysis.kernel_s": s("analysis.kernel"),
        "analysis.kernel_calls": calls.get("analysis.kernel", 0),
        "report.failed": sum(
            1 for eid, n in attempts.items() if errors.get(eid, 0) >= n
        ),
        "report.retries": sum(max(0, n - 1) for n in attempts.values()),
        "runs.record_s": s("runs.record"),
        "runs.records": extra.get("runs.records", 0.0),
        "robust.lock_wait_s": s("robust.lock_wait"),
    }
    for eid in catalogue.EXPERIMENT_IDS:
        out[f"report.{eid}_s"] = float(raw["experiments"].get(eid, 0.0))
    return out


def serve_figures(raw: Dict[str, Any]) -> Dict[str, float]:
    """Server-side figures of a probed ``repro serve`` process."""
    samples = raw["samples_ms"]

    def med(name: str) -> float:
        values = samples.get(name, [])
        return measure.median(values) if values else 0.0

    return {
        "serve.memo_ms": med("serve.memo"),
        "serve.store_ms": med("serve.store"),
        "serve.compute_ms": med("serve.computed"),
        "serve.live_ms": med("serve.live"),
        "serve.queue_ms": (
            measure.median(raw["queue_ms"]) if raw["queue_ms"] else 0.0
        ),
        "runs.store_lookup_s": float(raw["seconds"].get("runs.store_lookup", 0.0)),
        "robust.forked_calls": raw["calls"].get("robust.fork", 0),
        "robust.fork_s": float(raw["seconds"].get("robust.fork", 0.0)),
    }


def unattributed(raw: Dict[str, Any], wall_s: float) -> float:
    """Wall time outside every probe (self times never double count)."""
    return wall_s - sum(raw["self_seconds"].values())


def zero_probes(raw: Dict[str, Any], workload: str) -> List[str]:
    """Probes said to dominate ``workload`` that recorded no call."""
    return [
        probe for probe in catalogue.MUST_CALL[workload]
        if raw["calls"].get(probe, 0) == 0
    ]


def merge(raws: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine the dumps of several probed processes of one run."""
    merged: Dict[str, Any] = {
        "calls": {}, "seconds": {}, "self_seconds": {}, "extra": {},
        "samples_ms": {}, "queue_ms": [], "distinct": {},
        "experiments": {}, "experiment_attempts": {}, "experiment_errors": {},
    }
    for raw in raws:
        for key in ("calls", "seconds", "self_seconds", "extra", "distinct",
                    "experiments", "experiment_attempts", "experiment_errors"):
            for name, value in raw[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, values in raw["samples_ms"].items():
            merged["samples_ms"].setdefault(name, []).extend(values)
        merged["queue_ms"].extend(raw["queue_ms"])
    return merged
