"""Every metric the benchmark prints: unit, direction, what it should move.

``END_TO_END`` are the figures a user sees.  Every workload reports each
of them, so they are the ones ``BENCHMARK.json`` bounds.

``PER_LAYER`` come from the traced run.  Each entry names the
end-to-end metric and workload it should move (``moves``).  The
open-loop serving figures (latency at the low and high fixed rates, the
highest sustainable rate, the fill time) only exist on ``serve-mix``;
they are measured with tracing off and reported here, unbounded, next
to the layer figures that explain them.

``MUST_CALL`` lists, per workload, the probes that must record at least
one call in the traced run: the layers said to dominate that workload.
A probe reading zero there means it patched a name nobody calls, and
the traced run fails.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: Dict[str, str] = {
    "report-paper": (
        "the 29-experiment paper run at scale 0.1 on warm dataset caches of "
        "three markets; stats and text do most of the work"
    ),
    "report-cold": (
        "the kernel experiments at scale 1.0 into an empty cache; "
        "generation, cache publishing and materialisation dominate"
    ),
    "serve-mix": (
        "repro serve: compute-tier fill, restart, then open-loop memo, "
        "run-store replay and run-listing traffic"
    ),
}

#: The paper's experiments, in report order.
EXPERIMENT_IDS: Tuple[str, ...] = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "table9", "table10", "fig01", "fig02", "fig03", "fig04",
    "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "sec45", "sec52", "disputes", "eras", "funnel", "trust",
)

#: report-cold's experiments: the columnar kernels plus the taxonomy
#: tables.  ``sec45`` is left out because it parses contract values.
COLD_IDS: Tuple[str, ...] = (
    "table1", "table2", "fig01", "fig02", "fig03", "fig04", "fig05",
    "fig06", "fig07", "fig08", "funnel",
)

#: name -> (unit, better, meaning)
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "wall_s": (
        "s", "lower",
        "report-*: repro report process start to exit (report-paper: mean "
        "over its three markets); serve-mix: wall "
        "time of the closed-loop fill phase (the figure fill_s also names)",
    ),
    "setup_s": (
        "s", "lower",
        "report-*: process start until the first experiment starts; "
        "serve-mix: process start until the first /healthz 200 after a "
        "restart",
    ),
    "peak_rss_mb": (
        "MB", "lower",
        "peak resident set of the program's process",
    ),
}

PAPER, COLD, SERVE = "report-paper", "report-cold", "serve-mix"

#: name -> (unit, better, moves)
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    # synth: generation and the dataset cache
    "synth.generate_s": ("s", "lower", f"setup_s,wall_s @ {COLD}"),
    "synth.contracts_per_s": ("1/s", "higher", f"setup_s,wall_s @ {COLD}"),
    "synth.cache_save_s": ("s", "lower", f"setup_s @ {COLD}"),
    "synth.cache_misses": ("count", "lower", f"setup_s @ {COLD}"),
    "synth.cache_load_s": ("s", "lower", f"setup_s @ {PAPER}"),
    "synth.cache_hits": ("count", "higher", f"setup_s @ {PAPER}"),
    # core: entity materialisation and column stores
    "core.materializations": (
        "count", "lower", f"setup_s,peak_rss_mb @ {COLD}; wall_s @ {PAPER}"
    ),
    "core.materialize_s": (
        "s", "lower", f"setup_s,peak_rss_mb @ {COLD}; wall_s @ {PAPER}"
    ),
    "core.columns_build_s": ("s", "lower", f"wall_s @ {COLD}"),
    "core.partitions_opened": ("count", "lower", f"wall_s @ {COLD}"),
    # text: obligation parsing
    "text.calls": ("count", "lower", f"wall_s @ {PAPER}"),
    "text.busy_s": ("s", "lower", f"wall_s @ {PAPER}"),
    "text.distinct_frac": ("ratio", "higher", f"wall_s @ {PAPER}"),
    # stats: model fitting
    "stats.mixture_s": ("s", "lower", f"wall_s @ {PAPER}"),
    "stats.em_rows": ("count", "lower", f"wall_s @ {PAPER}"),
    "stats.em_distinct_frac": ("ratio", "higher", f"wall_s @ {PAPER}"),
    "stats.em_iters": ("count", "lower", f"wall_s @ {PAPER}"),
    "stats.em_converged_frac": ("ratio", "higher", f"wall_s @ {PAPER}"),
    "stats.zip_s": ("s", "lower", f"wall_s @ {PAPER}"),
    "stats.zip_converged_frac": ("ratio", "higher", f"wall_s @ {PAPER}"),
    "stats.kmeans_s": ("s", "lower", f"wall_s @ {PAPER}"),
    "stats.glm_s": ("s", "lower", f"wall_s @ {PAPER}"),
    # analysis: columnar kernels
    "analysis.kernel_s": ("s", "lower", f"wall_s @ {COLD}"),
    "analysis.kernel_calls": ("count", "lower", f"wall_s @ {COLD}"),
    # report: one figure per experiment, plus failures and retries
    **{
        f"report.{eid}_s": (
            "s", "lower",
            f"wall_s @ {PAPER}" + (f",{COLD}" if eid in COLD_IDS else ""),
        )
        for eid in EXPERIMENT_IDS
    },
    "report.failed": ("count", "lower", f"wall_s @ {PAPER},{COLD}"),
    "report.order_unstable": ("count", "lower", "output checks (known defect)"),
    "report.retries": ("count", "lower", f"wall_s @ {PAPER},{COLD}"),
    # runs: the run store
    "runs.record_s": ("s", "lower", f"wall_s @ {PAPER},{COLD}"),
    "runs.records": ("count", "lower", f"wall_s @ {PAPER},{COLD}"),
    "runs.store_lookup_s": ("s", "lower", f"p99_ms.* @ {SERVE}"),
    # serve: per-tier service time and the HTTP path
    "serve.memo_ms": ("ms", "lower", f"p50_ms.*,p99_ms.* @ {SERVE}"),
    "serve.store_ms": ("ms", "lower", f"p50_ms.*,p99_ms.* @ {SERVE}"),
    "serve.compute_ms": ("ms", "lower", f"wall_s @ {SERVE}"),
    "serve.live_ms": ("ms", "lower", f"p50_ms.*,p99_ms.* @ {SERVE}"),
    "serve.http_overhead_ms": ("ms", "lower", f"p50_ms.*,p99_ms.* @ {SERVE}"),
    "serve.queue_ms": ("ms", "lower", f"p99_ms.high,max_rps @ {SERVE}"),
    "serve.gen_lag_ms": ("ms", "lower", f"p99_ms.high,max_rps @ {SERVE}"),
    "serve.refused": ("count", "lower", f"max_rps @ {SERVE}"),
    "serve.errors": ("count", "lower", f"max_rps @ {SERVE}"),
    # robust: forks and locks
    "robust.forked_calls": ("count", "lower", f"wall_s @ {SERVE}"),
    "robust.fork_s": ("s", "lower", f"wall_s @ {SERVE}"),
    "robust.lock_wait_s": ("s", "lower", f"setup_s @ {COLD}"),
    # serve-mix open-loop figures, measured with tracing off
    "fill_s": ("s", "lower", f"wall_s @ {SERVE} (same figure)"),
    "p50_ms.low": ("ms", "lower", f"user latency @ {SERVE}"),
    "p99_ms.low": ("ms", "lower", f"user latency @ {SERVE}"),
    "p50_ms.high": ("ms", "lower", f"user latency @ {SERVE}"),
    "p99_ms.high": ("ms", "lower", f"user latency @ {SERVE}"),
    "max_rps": ("1/s", "higher", f"user throughput @ {SERVE}"),
    # the trace itself
    "trace.overhead_s": ("s", "lower", "traced minus untraced wall_s"),
    "trace.unattributed_s": ("s", "lower", "wall_s not inside any probe"),
}

#: Per-layer figures only ``serve-mix`` produces; zero on the reports.
SERVE_ONLY: Tuple[str, ...] = tuple(
    name for name in PER_LAYER
    if name.startswith(("serve.", "p50_ms.", "p99_ms."))
    or name in ("runs.store_lookup_s", "robust.forked_calls", "robust.fork_s",
                "fill_s", "max_rps")
)

#: workload -> probes that must record calls in its traced run.
MUST_CALL: Dict[str, List[str]] = {
    PAPER: [
        "synth.cache_load", "core.materialize", "text.categorize",
        "text.extract", "text.value", "stats.mixture", "stats.zip",
        "stats.kmeans", "stats.glm", "report.experiment", "runs.record",
    ],
    COLD: [
        "synth.generate", "synth.cache_save", "core.materialize",
        "core.columns_build", "analysis.kernel", "report.experiment",
        "runs.record", "robust.lock_wait",
    ],
    SERVE: [
        "serve.execute.memo", "serve.execute.store", "serve.execute.computed",
        "serve.live", "runs.store_lookup", "robust.fork",
    ],
}


#: Share of the parent's median by which an end-to-end metric may worsen,
#: set from ten-seed proofs on a shared 2-core VM (README, "Bounds").
#: The times spread by up to ~0.15 of their median between runs and their
#: medians moved by up to ~0.1 between proofs, so they get the largest
#: bound allowed.  Peak RSS spread by at most 0.004 and moved by at most
#: 0.002, so 5% is a real regression, not noise.
BOUNDS: Dict[str, float] = {"wall_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.05}


def benchmark_spec() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document this catalogue implies."""
    return {
        "command": ["python3", "paperbench/run.py"],
        "paths": ["paperbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better,
             "bound": BOUNDS[name]}
            for name, (unit, better, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in PER_LAYER.items()
        ],
    }


#: Seconds one run measures (the ``--seconds`` that BENCHMARK.json names).
RUN_SECONDS = 20
