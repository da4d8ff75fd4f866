"""The ``report-paper`` and ``report-cold`` workloads and their checks.

Both drive ``repro report --strict`` as a user would: one fresh process
per repetition, each with its own cache directory and run store, every
experiment written by ``--out`` to ``<id>.txt``.  Checks never compare
against golden digests, so a deliberate re-baseline keeps them passing:

* every invocation exits 0 and reports every experiment ok and non-empty;
* each experiment's text is identical across the repetitions of a run,
  and between the cold run that filled a cache and warm runs reading it;
* structural oracles computed from the dataset's columnar tables: the
  ``table1`` totals and ``fig01`` monthly sums equal the contract counts,
  ``table6`` has ``latent_k`` class rows, ``eras`` has three eras.

Known defects (an unconverged Table 6 fit, say) are never checks; the
traced run reports them as layer metrics.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import catalogue
import layers
import measure
import proc

#: Default class count of the latent-class model (``--latent-k``).
LATENT_K = 12
#: Markets one report-paper run reports on.  The cost of the paper run
#: depends on the market: Table 6's EM fit takes 3.5 s on one scale-0.1
#: market and 10 s on another, so one market per run made wall_s spread
#: by a third across seeds.  A run reports the mean over its markets.
PAPER_MARKETS = 3
#: The cheap experiments report-paper's untimed cold fill runs: every
#: report-cold experiment and every oracle but Table 6's, so their cold
#: texts are compared with the warm report's.
FILL_IDS = (
    "table1", "table2", "fig01", "fig02", "fig03", "fig04", "fig05",
    "fig06", "fig07", "fig08", "fig09", "eras", "funnel",
)
#: report-cold's timed loop runs at least this many cold reports, so its
#: figures are medians of three or more.
COLD_MIN_REPS = 3
#: A single report process may take at most this long.
REPORT_TIMEOUT = 150.0
#: Experiments whose section order follows ``set`` iteration, which
#: changes between processes (a known defect of the program).  Only
#: these may hold the same blocks in another order.
KNOWN_ORDER_UNSTABLE = ("fig12", "fig13")

_WALL_LINE = re.compile(r"^\s+(\S+)\s+([0-9.]+)s(\s+FAILED)?\s*$")


@dataclass
class Outcome:
    """What a workload measured and found."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def problem(self, workload: str, operation: str, reason: str) -> None:
        self.problems.append(f"{workload}: {operation}: {reason}")


@dataclass
class Invocation:
    """One finished ``repro report`` and what it wrote."""

    label: str
    exit: proc.Exit
    texts: Dict[str, str]
    setup_s: Optional[float]


class Workdir:
    """Fresh per-repetition directories under one run's work tree."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._n = 0

    def fresh(self, kind: str) -> str:
        self._n += 1
        path = os.path.join(self.root, f"{kind}-{self._n}")
        os.makedirs(path)
        return path


def report_args(ids: Sequence[str], scale: float, seed: int, cache: str,
                runs: str, out: str) -> List[str]:
    return [
        "report", "--strict", *ids, "--scale", str(scale), "--seed", str(seed),
        "--cache-dir", cache, "--runs-dir", runs, "--out", out,
    ]


def invoke(ctx: "Context", label: str, ids: Sequence[str], scale: float,
           cache: str, probe_out: Optional[str] = None,
           seed: Optional[int] = None) -> Invocation:
    """Run one report with its own run store and output directory.

    ``seed`` is the market seed; it defaults to the run's seed.
    """
    runs = ctx.work.fresh("runs")
    out = ctx.work.fresh("out")
    market = ctx.seed if seed is None else seed
    args = report_args(ids, scale, market, cache, runs, out)
    done = proc.run(args, ctx.env, ctx.root, REPORT_TIMEOUT, probe_out)
    texts = {}
    for name in os.listdir(out):
        if name.endswith(".txt"):
            with open(os.path.join(out, name), encoding="utf-8") as handle:
                texts[name[:-4]] = handle.read()
    line = done.first_line("dataset:")
    return Invocation(label, done, texts, line[0] if line else None)


def check_invocation(ctx: "Context", inv: Invocation, ids: Sequence[str],
                     outcome: Outcome) -> None:
    """Exit status, per-experiment status, non-empty text."""
    wanted = list(ids) or list(catalogue.EXPERIMENT_IDS)
    outcome.attempted += len(wanted)
    statuses: Dict[str, bool] = {}
    in_section = False
    for _, line in inv.exit.stderr:
        if line.startswith("experiment wall times:"):
            in_section = True
            continue
        if in_section:
            match = _WALL_LINE.match(line)
            if not match:
                in_section = False
                continue
            statuses[match.group(1)] = match.group(3) is None
    bad = set()
    if inv.exit.returncode != 0:
        tail = inv.exit.stderr_text().strip().splitlines()[-3:]
        outcome.problem(ctx.workload, inv.label,
                        f"exit {inv.exit.returncode}: {' | '.join(tail)}")
    if inv.setup_s is None:
        outcome.problem(ctx.workload, inv.label, "no 'dataset:' line on stderr")
    for eid in wanted:
        if not statuses.get(eid, False):
            bad.add(eid)
            outcome.problem(ctx.workload, f"{inv.label}/{eid}", "experiment not ok")
        elif not inv.texts.get(eid, "").strip():
            bad.add(eid)
            outcome.problem(ctx.workload, f"{inv.label}/{eid}", "empty output")
    outcome.failed += len(bad)


def blocks(text: str) -> List[str]:
    """The blank-line-separated blocks of a text, sorted."""
    return sorted(text.split("\n\n"))


def note_processes(invocations: Sequence[Invocation], outcome: Outcome) -> None:
    outcome.notes.append("processes: " + ", ".join(
        f"{inv.label} {inv.exit.wall_s:.2f}s" for inv in invocations
    ))


def check_identical(ctx: "Context", invocations: Sequence[Invocation],
                    outcome: Outcome) -> None:
    """Each experiment's text is the same in every invocation that ran it.

    For the experiments in :data:`KNOWN_ORDER_UNSTABLE`, texts that hold
    the same blocks in another order are counted in
    ``report.order_unstable`` and noted, not failed.  Any other
    difference, in any experiment, fails the check.
    """
    first: Dict[str, Tuple[str, str]] = {}
    unstable = set()
    for inv in invocations:
        for eid, text in sorted(inv.texts.items()):
            if eid not in first:
                first[eid] = (inv.label, text)
            elif first[eid][1] == text:
                continue
            elif eid in KNOWN_ORDER_UNSTABLE and blocks(first[eid][1]) == blocks(text):
                unstable.add(eid)
            else:
                outcome.problem(
                    ctx.workload, f"{inv.label}/{eid}",
                    f"text differs from {first[eid][0]}",
                )
    outcome.layer["report.order_unstable"] = (
        outcome.layer.get("report.order_unstable", 0) + len(unstable)
    )
    if unstable:
        outcome.notes.append(
            "known defect: section order differs between processes in "
            + ", ".join(sorted(unstable))
        )


# ------------------------------------------------------------------ oracles


def contract_tables(cache_dir: str) -> Dict[str, np.ndarray]:
    """Contract columns gathered from every columnar table in a cache.

    Any ``.npz`` holding a ``c_id`` column contributes its contract
    columns; rows are de-duplicated on ``c_id``, so a store kept both
    whole and month-partitioned is counted once.
    """
    keys = ("c_id", "c_type", "c_status", "c_created_us")
    parts: Dict[str, List[np.ndarray]] = {key: [] for key in keys}
    for folder, _, files in os.walk(cache_dir):
        for name in sorted(files):
            if not name.endswith(".npz"):
                continue
            with np.load(os.path.join(folder, name), allow_pickle=False) as data:
                if not all(key in data.files for key in keys):
                    continue
                for key in keys:
                    parts[key].append(np.asarray(data[key]))
    if not parts["c_id"]:
        raise ValueError(f"no contract tables under {cache_dir}")
    merged = {key: np.concatenate(parts[key]) for key in keys}
    _, first = np.unique(merged["c_id"], return_index=True)
    return {key: value[first] for key, value in merged.items()}


def month_counts(created_us: np.ndarray) -> Dict[str, int]:
    """Contracts per creation month (UTC), keyed ``YYYY-MM``."""
    months = created_us.astype("datetime64[us]").astype("datetime64[M]")
    keys, counts = np.unique(months, return_counts=True)
    return {str(key): int(count) for key, count in zip(keys, counts)}


def _lines(text: str) -> List[str]:
    return text.splitlines()


def oracle_problems(texts: Dict[str, str], tables: Dict[str, np.ndarray],
                    latent_k: int = LATENT_K) -> List[Tuple[str, str]]:
    """(experiment, reason) for every oracle the texts violate."""
    found: List[Tuple[str, str]] = []
    n = len(tables["c_id"])

    def expect(eid: str, ok: bool, reason: str) -> None:
        if not ok:
            found.append((eid, reason))

    def nonzero_sorted(values: np.ndarray) -> List[int]:
        return sorted(int(c) for c in np.unique(values, return_counts=True)[1])

    if "table1" in texts:
        lines = _lines(texts["table1"])
        totals = measure.column_values(lines, "Total")
        expect("table1", measure.parse_count(totals.get("Total", "0")) == n,
               f"Total row is {totals.get('Total')!r}, tables hold {n:,} contracts")
        types = sorted(measure.parse_count(v) for k, v in totals.items() if k != "Total")
        types = [t for t in types if t]
        expect("table1", types == nonzero_sorted(tables["c_type"]),
               f"type totals {types} differ from the c_type column")
        rule = next(i for i, line in enumerate(lines) if set(line) <= {"-", " "} and line)
        headers = [h for h in re.split(r"\s{2,}", lines[rule - 1].strip())][1:-1]
        statuses = []
        for header in headers:
            cell = measure.column_values(lines, header).get("Total", "0")
            statuses.append(measure.parse_count(cell))
        statuses = sorted(s for s in statuses if s)
        expect("table1", statuses == nonzero_sorted(tables["c_status"]),
               f"status totals {statuses} differ from the c_status column")
    if "table2" in texts:
        totals = measure.column_values(_lines(texts["table2"]), "Total")
        created = sum(measure.parse_count(v) for k, v in totals.items()
                      if k.endswith("Created"))
        expect("table2", created == n, f"created rows sum to {created:,}, not {n:,}")
    if "fig01" in texts:
        created = measure.column_values(_lines(texts["fig01"]), "contracts created")
        shown = {k: measure.parse_count(v) for k, v in created.items()}
        expect("fig01", sum(shown.values()) == n,
               f"monthly sums {sum(shown.values()):,}, not {n:,}")
        truth = month_counts(tables["c_created_us"])
        differing = sorted(k for k in set(shown) | set(truth)
                           if shown.get(k, 0) != truth.get(k, 0))
        expect("fig01", not differing, f"months differ from c_created_us: {differing[:4]}")
    if "funnel" in texts:
        proposed = [int(m.replace(",", "")) for m in
                    re.findall(r"^proposed: ([\d,]+)$", texts["funnel"], re.M)]
        expect("funnel", len(proposed) == 4 and proposed[0] == n
               and sum(proposed[1:]) == n,
               f"proposed counts {proposed}, expected {n:,} overall and by era")
    if "eras" in texts:
        contracts = measure.column_values(_lines(texts["eras"]), "contracts")
        expect("eras", len(contracts) == 3, f"{len(contracts)} eras, expected 3")
        total = sum(measure.parse_count(v) for v in contracts.values())
        expect("eras", total == n, f"era contracts sum to {total:,}, not {n:,}")
    if "table6" in texts:
        weights = measure.column_values(_lines(texts["table6"]), "Weight")
        expect("table6", len(weights) == latent_k,
               f"{len(weights)} class rows, expected {latent_k}")
        share = sum(float(v.rstrip("%")) for v in weights.values())
        expect("table6", abs(share - 100.0) <= 0.1 * latent_k,
               f"class weights sum to {share:.1f}%")
    return found


# ----------------------------------------------------------------- workloads


@dataclass
class Context:
    workload: str
    root: str
    env: Dict[str, str]
    seed: int
    seconds: float
    trace: bool
    work: Workdir


def _record(outcome: Outcome, walls: List[float], setups: List[float],
            rss: List[float],
            wall_of: Callable[[List[float]], float] = measure.median) -> None:
    if walls:
        outcome.metrics["wall_s"] = wall_of(walls)
    if setups:
        outcome.metrics["setup_s"] = measure.median(setups)
    if rss:
        outcome.metrics["peak_rss_mb"] = max(rss)


def _copy_cache(ctx: Context, source: str) -> str:
    target = ctx.work.fresh("cache")
    os.rmdir(target)
    shutil.copytree(source, target, ignore=shutil.ignore_patterns("*.lock"))
    return target


def market_seeds(seed: int) -> List[int]:
    """The market seeds of one report-paper run: distinct across runs."""
    return [(seed * PAPER_MARKETS + i) % 2**31 for i in range(PAPER_MARKETS)]


def report_paper(ctx: Context) -> Outcome:
    """Full paper runs at scale 0.1, each on a warm cache of its market."""
    outcome = Outcome()
    scale = 0.1
    invocations: List[Invocation] = []
    walls, setups, rss = [], [], []
    # A traced run times one market, untraced and then traced.
    seeds = market_seeds(ctx.seed)[:1] if ctx.trace else market_seeds(ctx.seed)
    for n, seed in enumerate(seeds, 1):
        filled = ctx.work.fresh("cache")
        cold = invoke(ctx, f"m{n}-cold-fill", FILL_IDS, scale, filled, seed=seed)
        check_invocation(ctx, cold, FILL_IDS, outcome)
        invocations.append(cold)
        if cold.exit.returncode != 0:
            break
        tables = contract_tables(filled)
        market = [cold]

        def full(label: str, probe_out: Optional[str] = None) -> Invocation:
            inv = invoke(ctx, label, (), scale, _copy_cache(ctx, filled),
                         probe_out, seed=seed)
            check_invocation(ctx, inv, (), outcome)
            for eid, reason in oracle_problems(inv.texts, tables):
                outcome.problem(ctx.workload, f"{label}/{eid}", reason)
            market.append(inv)
            return inv

        inv = full(f"m{n}-warm")
        walls.append(inv.exit.wall_s)
        rss.append(inv.exit.peak_rss_mb)
        if inv.setup_s is not None:
            setups.append(inv.setup_s)
        if ctx.trace:
            probe_out = os.path.join(ctx.work.fresh("probe"), "probes.json")
            traced = full(f"m{n}-traced", probe_out)
            layer_metrics(ctx, probe_out, traced, walls, outcome)
        check_identical(ctx, market, outcome)
        invocations.extend(market[1:])
    _record(outcome, walls, setups, rss, wall_of=statistics.mean)
    note_processes(invocations, outcome)
    return outcome


def report_cold(ctx: Context) -> Outcome:
    """Kernel experiments at scale 1.0 into an empty cache."""
    outcome = Outcome()
    scale = 1.0
    ids = catalogue.COLD_IDS
    invocations: List[Invocation] = []
    walls, setups, rss = [], [], []
    tables: Optional[Dict[str, np.ndarray]] = None
    started = time.perf_counter()
    last_cache = ""
    while True:
        last_cache = ctx.work.fresh("cache")
        inv = invoke(ctx, f"cold-{len(walls) + 1}", ids, scale, last_cache)
        check_invocation(ctx, inv, ids, outcome)
        invocations.append(inv)
        walls.append(inv.exit.wall_s)
        rss.append(inv.exit.peak_rss_mb)
        if inv.setup_s is not None:
            setups.append(inv.setup_s)
        if inv.exit.returncode != 0:
            break
        if tables is None:
            tables = contract_tables(last_cache)
            for eid, reason in oracle_problems(inv.texts, tables):
                outcome.problem(ctx.workload, f"{inv.label}/{eid}", reason)
        if ctx.trace:
            break
        if (len(walls) >= COLD_MIN_REPS
                and time.perf_counter() - started >= ctx.seconds):
            break
    _record(outcome, walls, setups, rss)
    # An untraced run leaves the cold-against-warm text check to
    # report-paper, whose cold fills run all of these experiments on three
    # markets; a traced run also makes it here, at scale 1.0.
    if ctx.trace and not outcome.problems:
        warm = invoke(ctx, "warm", ids, scale, last_cache)
        check_invocation(ctx, warm, ids, outcome)
        invocations.append(warm)
    if ctx.trace:
        probe_out = os.path.join(ctx.work.fresh("probe"), "probes.json")
        traced = invoke(ctx, "traced", ids, scale, ctx.work.fresh("cache"), probe_out)
        check_invocation(ctx, traced, ids, outcome)
        invocations.append(traced)
        layer_metrics(ctx, probe_out, traced, walls, outcome)
    check_identical(ctx, invocations, outcome)
    note_processes(invocations, outcome)
    return outcome


# ------------------------------------------------------------ layer metrics


def layer_metrics(ctx: Context, probe_path: str, traced: Invocation,
                  untraced_walls: Sequence[float], outcome: Outcome) -> None:
    """Per-layer figures from one traced report's probe dump."""
    raw = layers.load(probe_path)
    outcome.layer.update(layers.report_figures(raw))
    for name in catalogue.SERVE_ONLY:
        outcome.layer[name] = 0.0
    outcome.layer["trace.overhead_s"] = (
        traced.exit.wall_s - measure.median(untraced_walls)
    )
    outcome.layer["trace.unattributed_s"] = layers.unattributed(
        raw, traced.exit.wall_s
    )
    for probe in layers.zero_probes(raw, ctx.workload):
        outcome.problem(ctx.workload, "traced", f"probe {probe} recorded no calls")
