"""The ``serve-mix`` workload: ``repro serve`` in its own process.

1. **Fill** (closed loop, one client): first-time requests, each through
   the compute tier (fork, generate, experiment, run-store record).
2. **Restart** on the same cache and runs directories, so the first
   open-loop request per key is a run-store replay and later ones are
   memo hits.
3. **Open loop** at fixed rates over at most ``nproc`` keep-alive
   connections: the low rate, the high rate, then a ladder upward until a
   rate misses the p99 limit, fails a request or builds a backlog.  The
   mix is an equal share of experiment replays (store, then memo),
   ``/v1/runs`` listings and ``/v1/runs/{id}`` reads.  The fixed rates are
   a quarter and a half of a measured capacity (``MEASURED_MAX_RPS``).

Checks: every reply 200 (no 429, no 5xx); one body digest per URL across
the compute, store and memo tiers and across phases; open-loop replays
never fall through to the compute tier.
"""

from __future__ import annotations

import json
import os
import random
import socket
from typing import Dict, List, Optional, Sequence, Tuple

import catalogue
import httpload
import layers
import measure
import proc
from reports import Context, Outcome

HOST = "127.0.0.1"
API_KEY = "paperbench"
SCALE = 0.05
#: Experiments requested in the fill phase, after the market's summary.
FILL_EXPERIMENTS = ("table1", "table2", "fig01", "fig03", "fig05", "funnel")
#: The server's capacity under this mix, as measured before the rates
#: were fixed: the highest rung of a ladder from 100/s in steps of x1.2
#: that ``_rung_passes``, median of five seeds on a 2-core VM (537/s;
#: the five ranged from 537/s to 645/s).  No record of real traffic
#: exists, so the fixed rates are fractions of this capacity.
MEASURED_MAX_RPS = 540.0
#: Fixed open-loop rates (requests per second): a quarter and a half of
#: the measured capacity.
LOW_RATE = MEASURED_MAX_RPS / 4
HIGH_RATE = MEASURED_MAX_RPS / 2
#: The ladder above the high rate, each step 50% higher.
LADDER_STEP = 1.5
LADDER_MAX = 1500.0
#: A rate is sustained when its p99 latency stays under this limit.
P99_LIMIT_MS = 50.0
#: Seconds each ladder rung runs; every phase sends at least
#: ``MIN_SAMPLES`` requests, so p99 has ten samples beyond it.
RUNG_SECONDS = 2.0
MIN_SAMPLES = 1010
#: Seconds a phase may run past its schedule while its backlog drains.
DRAIN_SECONDS = 15.0
#: Fill phases per run (fresh directories each); wall_s is their median.
FILLS = 3
#: Restarts on the filled directories; setup_s is their median.
RESTARTS = 2
#: Share of the fixed-rate phases in ``--seconds``.
LOW_SHARE, HIGH_SHARE = 0.35, 0.2
CONNS = max(1, min(2, os.cpu_count() or 1))
START_TIMEOUT = 60.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Service:
    """Start, health-check and stop ``repro serve`` on one runs dir."""

    def __init__(self, ctx: Context, cache: str, runs: str) -> None:
        self.ctx, self.cache, self.runs = ctx, cache, runs
        self.setups: List[float] = []
        self.peak_rss_mb = 0.0
        self.probe_dumps: List[str] = []

    def start(self, probe: bool) -> Tuple[proc.Server, int]:
        port = _free_port()
        probe_out = None
        if probe:
            probe_out = os.path.join(
                self.ctx.work.fresh("probe"), "probes.json"
            )
            self.probe_dumps.append(probe_out)
        server = proc.Server(
            [
                "serve", "--host", HOST, "--port", str(port),
                "--api-key", API_KEY,
                "--rate", str(LADDER_MAX * 10), "--burst", str(int(LADDER_MAX * 10)),
                "--cache-dir", self.cache, "--runs-dir", self.runs,
            ],
            self.ctx.env, self.ctx.root, probe_out,
        )
        ready = httpload.wait_healthy(HOST, port, START_TIMEOUT, server.alive)
        if ready is None:
            server.stop()
            raise RuntimeError(
                f"repro serve did not become healthy: {server.stderr_text()[-400:]}"
            )
        self.setups.append(ready - server.started)
        return server, port

    def stop(self, server: proc.Server) -> int:
        code = server.stop()
        self.peak_rss_mb = max(self.peak_rss_mb, server.peak_rss_mb)
        return code


def fill_paths(seed: int) -> List[str]:
    """One market's summary (which generates it), then its experiments."""
    query = f"?scale={SCALE}&seed={seed}"
    return [f"/v1/dataset/summary{query}"] + [
        f"/v1/experiments/{eid}{query}" for eid in FILL_EXPERIMENTS
    ]


def mix_paths(rng: random.Random, n: int, replays: Sequence[str],
              run_ids: Sequence[str]) -> List[str]:
    """``n`` open-loop requests, an equal share per endpoint class.

    The classes are experiment and summary replays, ``/v1/runs``
    listings and ``/v1/runs/{id}`` reads.  No record of real traffic
    exists to weight them, so each gets a third.
    """
    out = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            out.append(rng.choice(replays))
        elif kind == 1:
            out.append("/v1/runs")
        else:
            out.append(f"/v1/runs/{rng.choice(run_ids)}")
    return out


class Checker:
    """One body digest per URL; statuses; tiers.

    Experiment and summary bodies must match across every pass of a run
    (each pass fills fresh directories with the same requests).  Run-store
    listings and run details carry creation times, so their digests are
    compared within one pass only.
    """

    def __init__(self, ctx: Context, outcome: Outcome) -> None:
        self.ctx, self.outcome = ctx, outcome
        self.digests: Dict[str, str] = {}
        self.passes: List["Pass"] = []
        self.refused = 0
        self.errors = 0

    def replies(self, label: str, replies: Sequence[httpload.Reply],
                tiers: Sequence[str], pass_id: int) -> None:
        failed, refused, errors = httpload.summary(replies)
        self.outcome.attempted += len(replies)
        self.outcome.failed += failed
        self.refused += refused
        self.errors += errors
        for reply in replies:
            op = f"{label} GET {reply.path}"
            if not reply.ok:
                self.outcome.problem(
                    self.ctx.workload, op,
                    reply.error or f"HTTP {reply.status}",
                )
                continue
            key = reply.path
            if reply.path.startswith("/v1/runs"):
                key = f"pass {pass_id} {reply.path}"
            elif reply.source not in tiers:
                self.outcome.problem(
                    self.ctx.workload, op,
                    f"served by tier {reply.source!r}, expected {'/'.join(tiers)}",
                )
            known = self.digests.setdefault(key, reply.digest)
            if known != reply.digest:
                self.outcome.problem(
                    self.ctx.workload, op,
                    f"body digest {reply.digest[:12]} differs from {known[:12]}",
                )


def _run_ids(host: str, port: int) -> List[str]:
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.request("GET", "/v1/runs", headers={"X-API-Key": API_KEY})
        body = json.loads(conn.getresponse().read())
    finally:
        conn.close()
    return sorted(run["run_id"] for run in body["runs"])


def _tail(replies: Sequence[httpload.Reply], q: float) -> Optional[float]:
    return measure.percentile([r.latency_ms for r in replies], q)


def _rung_passes(phase: httpload.Phase) -> bool:
    failed, _, _ = httpload.summary(phase.replies)
    p99 = _tail(phase.replies, 99.0)
    return (
        failed == 0
        and p99 is not None
        and p99 <= P99_LIMIT_MS
        and not measure.backlog_grows(phase.backlog, slack=2 * CONNS)
    )


class Pass:
    """Fill a fresh cache and run store, then restart on them for traffic."""

    def __init__(self, ctx: Context, checker: Checker, probe: bool) -> None:
        self.ctx, self.outcome, self.probe = ctx, checker.outcome, probe
        self.service = Service(ctx, ctx.work.fresh("cache"), ctx.work.fresh("runs"))
        self.checker = checker
        self.pass_id = len(checker.passes)
        checker.passes.append(self)
        self.rng = random.Random(ctx.seed)
        self.fill: Optional[httpload.Phase] = None
        self.phases: Dict[str, httpload.Phase] = {}
        #: phase label -> label of the server process that served it
        self.served_by: Dict[str, str] = {}
        #: server label -> its probe dump
        self.dumps: Dict[str, str] = {}
        self.replays: List[str] = []
        self.run_ids: List[str] = []
        self.server: Optional[proc.Server] = None
        self.server_label = ""
        self.port = 0

    def restart(self, label: str) -> None:
        """Stop the running server, if any, and start a fresh one."""
        self.shutdown()
        self.server, self.port = self.service.start(self.probe)
        self.server_label = label

    def shutdown(self) -> None:
        if self.server is None:
            return
        server, self.server = self.server, None
        code = self.service.stop(server)
        if code != 0:
            self.outcome.problem(
                self.ctx.workload, f"{self.server_label} server",
                f"exit {code}: {server.stderr_text()[-300:]}",
            )
        if self.probe:
            self.dumps[self.server_label] = self.service.probe_dumps[-1]

    def run_fill(self) -> None:
        self.restart("fill")
        try:
            self.fill = httpload.closed_loop(
                HOST, self.port, API_KEY, fill_paths(self.ctx.seed)
            )
            self.checker.replies(
                "fill", self.fill.replies, ("computed",), self.pass_id
            )
            self.replays = [r.path for r in self.fill.replies if r.ok]
            self.run_ids = _run_ids(HOST, self.port)
        finally:
            self.shutdown()

    def run_phase(self, label: str, rate: float, n: int) -> httpload.Phase:
        """``n`` open-loop requests at ``rate`` on the running server."""
        paths = mix_paths(self.rng, n, self.replays, self.run_ids)
        phase = httpload.open_loop(
            HOST, self.port, API_KEY, rate, paths, CONNS,
            drain_s=n / rate + DRAIN_SECONDS,
        )
        self.checker.replies(label, phase.replies, ("store", "memo"), self.pass_id)
        self.phases[label] = phase
        self.served_by[label] = self.server_label
        return phase


def _samples(rate: float, seconds: float) -> int:
    return max(MIN_SAMPLES, int(rate * seconds))


def serve_mix(ctx: Context) -> Outcome:
    outcome = Outcome()
    checker = Checker(ctx, outcome)
    fills: List[float] = []
    rss = 0.0
    for _ in range(FILLS):
        main = Pass(ctx, checker, probe=False)
        main.run_fill()
        if outcome.problems:
            return outcome
        assert main.fill is not None
        fills.append(main.fill.wall_s)
        rss = max(rss, main.service.peak_rss_mb)
    # The last fill's directories serve the traffic, after restarts.
    try:
        for i in range(RESTARTS):
            main.restart(f"restart-{i + 1}")
        low = main.run_phase("low", LOW_RATE, _samples(LOW_RATE, ctx.seconds * LOW_SHARE))
        high = main.run_phase(
            "high", HIGH_RATE, _samples(HIGH_RATE, ctx.seconds * HIGH_SHARE)
        )
        max_rps = 0.0
        for phase in (low, high):
            if not _rung_passes(phase):
                break
            max_rps = phase.rate
        else:
            rate = HIGH_RATE * LADDER_STEP
            while rate <= LADDER_MAX:
                phase = main.run_phase(
                    f"rung-{rate:g}", rate, _samples(rate, RUNG_SECONDS)
                )
                if not _rung_passes(phase):
                    break
                max_rps = rate
                rate *= LADDER_STEP
    finally:
        main.shutdown()
    outcome.metrics["wall_s"] = measure.median(fills)
    outcome.metrics["setup_s"] = measure.median(main.service.setups[-RESTARTS:])
    outcome.metrics["peak_rss_mb"] = max(rss, main.service.peak_rss_mb)
    load = {
        "fill_s": measure.median(fills),
        "p50_ms.low": _tail(low.replies, 50.0),
        "p99_ms.low": _tail(low.replies, 99.0),
        "p50_ms.high": _tail(high.replies, 50.0),
        "p99_ms.high": _tail(high.replies, 99.0),
        "max_rps": max_rps,
    }
    for name, value in load.items():
        if value is None:
            outcome.problem(ctx.workload, name, "too few samples for this percentile")
        else:
            outcome.layer[name] = value
    outcome.notes.append("fill: " + ", ".join(f"{w:.3f}s" for w in fills))
    outcome.notes.append(
        "open loop (ms from due time): " + "; ".join(
            f"{label} {phase.rate:g}/s n={len(phase.replies)} "
            f"p50={_tail(phase.replies, 50.0)} p99={_tail(phase.replies, 99.0)}"
            for label, phase in main.phases.items()
        )
    )
    outcome.notes.append(f"max_rps {max_rps:g} (p99 limit {P99_LIMIT_MS:g} ms)")
    gen_lag = measure.percentile(high.gen_lag_ms, 99.0)
    outcome.layer["serve.gen_lag_ms"] = gen_lag if gen_lag is not None else 0.0
    outcome.layer["serve.refused"] = checker.refused
    outcome.layer["serve.errors"] = checker.errors
    outcome.layer["report.order_unstable"] = 0
    if ctx.trace:
        traced(ctx, checker, measure.median(fills))
    return outcome


def traced(ctx: Context, checker: Checker, untraced_fill_s: float) -> None:
    """The same fill and fixed rates on probed servers."""
    outcome = checker.outcome
    run = Pass(ctx, checker, probe=True)
    run.run_fill()
    if outcome.problems:
        return
    try:
        run.restart("traffic")
        run.run_phase("low", LOW_RATE, _samples(LOW_RATE, ctx.seconds * LOW_SHARE))
        run.run_phase("high", HIGH_RATE, _samples(HIGH_RATE, ctx.seconds * HIGH_SHARE))
    finally:
        run.shutdown()
    dumps = {label: layers.load(path) for label, path in run.dumps.items()}
    merged = layers.merge(list(dumps.values()))
    figures = layers.report_figures(merged)
    figures.update(layers.serve_figures(merged))
    overhead = []
    for label, phase in run.phases.items():
        service_ms = dumps[run.served_by[label]]["request_ms"]
        overhead.extend(
            reply.round_trip_ms - service_ms[reply.request_id]
            for reply in phase.replies
            if reply.ok and reply.request_id in service_ms
        )
    figures["serve.http_overhead_ms"] = measure.median(overhead) if overhead else 0.0
    assert run.fill is not None
    figures["trace.overhead_s"] = run.fill.wall_s - untraced_fill_s
    figures["trace.unattributed_s"] = layers.unattributed(dumps["fill"], run.fill.wall_s)
    for probe in layers.zero_probes(merged, ctx.workload):
        outcome.problem(ctx.workload, "traced", f"probe {probe} recorded no calls")
    for name in catalogue.PER_LAYER:
        if name in figures:
            outcome.layer.setdefault(name, figures[name])
    outcome.notes.append(
        "not measured here: the compute tier runs in forked children whose "
        "probes are not collected, so synth/core/text/stats/analysis/report "
        "figures read 0; that work is in serve.compute_ms and robust.fork_s"
    )
