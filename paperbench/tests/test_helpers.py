"""Unit tests of the benchmark's pure helpers.

Run with ``python3 -m pytest paperbench/tests -q`` from the repository
root; nothing here starts a program process.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import catalogue  # noqa: E402
import measure  # noqa: E402
import reports  # noqa: E402


# ------------------------------------------------------------- percentiles


def test_p99_needs_ten_samples_beyond_it():
    assert measure.percentile(list(range(1000)), 99.0) is not None
    assert measure.percentile(list(range(999)), 99.0) is None


def test_p99_is_nearest_rank():
    values = list(range(1, 1001))
    assert measure.percentile(values, 99.0) == 990.0
    assert measure.percentile(list(reversed(values)), 99.0) == 990.0


def test_median_percentile_needs_twenty_samples():
    assert measure.percentile(list(range(20)), 50.0) == 9.0
    assert measure.percentile(list(range(19)), 50.0) is None


def test_percentile_rejects_bad_q():
    with pytest.raises(ValueError):
        measure.percentile([1.0], 100.0)


# ----------------------------------------------------------------- backlog


def test_flat_backlog_does_not_grow():
    assert not measure.backlog_grows([1, 2, 1, 2] * 50, slack=4)


def test_rising_backlog_grows():
    assert measure.backlog_grows(list(range(200)), slack=4)


def test_backlog_within_slack_does_not_grow():
    series = [0] * 50 + [3] * 50 + [3] * 50 + [4] * 50
    assert not measure.backlog_grows(series, slack=4)
    assert measure.backlog_grows(series, slack=3)


def test_short_backlog_never_grows():
    assert not measure.backlog_grows([0, 100, 200], slack=0)


# ------------------------------------------------------------------- names


@pytest.mark.parametrize("name", ["wall_s", "p99_ms.high", "report.table10_s", "9x"])
def test_valid_names(name):
    assert measure.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "x/y", "a" * 65])
def test_invalid_names(name):
    assert not measure.valid_metric_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "MB", "%", "ratio"):
        assert measure.valid_unit(unit)
    assert not measure.valid_unit("m s")
    assert not measure.valid_unit("x" * 17)


def test_catalogue_names_and_units_are_valid():
    names = list(catalogue.END_TO_END) + list(catalogue.PER_LAYER)
    assert len(names) == len(set(names))
    for name, (unit, better, _) in {**catalogue.END_TO_END, **catalogue.PER_LAYER}.items():
        assert measure.valid_metric_name(name), name
        assert measure.valid_unit(unit), unit
        assert better in ("lower", "higher")
    assert len(catalogue.PER_LAYER) <= 128


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        assert json.load(handle) == catalogue.benchmark_spec()


# ----------------------------------------------------------------- oracles

def _render(title, headers, rows):
    """A fixed-width table laid out as the report renders one."""
    widths = [max(len(str(c)) for c in col) for col in zip(headers, *rows)]

    def fmt(cells):
        return "  ".join(
            str(c).ljust(w) if i == 0 else str(c).rjust(w)
            for i, (c, w) in enumerate(zip(cells, widths))
        )

    lines = [title, "", fmt(headers), "  ".join("-" * w for w in widths)]
    return "\n".join(lines + [fmt(row) for row in rows]) + "\n"


TABLE1 = _render(
    "Table 1: taxonomy",
    ["Type\\Status", "Complete", "Disputed", "Total"],
    [["Sale", "2 (40.00%)", "1 (20.00%)", "3 (60.00%)"],
     ["Purchase", "2 (40.00%)", "0 (0.00%)", "2 (40.00%)"],
     ["Total", "4 (80.00%)", "1 (20.00%)", "5 (100.00%)"]],
)

FIG01 = _render(
    "Figure 1: monthly growth",
    ["month", "era", "contracts created", "contracts completed"],
    [["2018-06", "E1", "3", "1"], ["2018-07", "E1", "2", "1"]],
)


def _tables():
    june, july = 1527811200 * 10**6, 1530403200 * 10**6
    return {
        "c_id": np.arange(5),
        "c_type": np.array([0, 0, 0, 1, 1]),
        "c_status": np.array([0, 0, 0, 0, 1]),
        "c_created_us": np.array([june, june, june + 5, july, july + 9]),
    }


def test_oracles_pass_on_consistent_texts():
    assert reports.oracle_problems({"table1": TABLE1, "fig01": FIG01}, _tables()) == []


def test_oracles_catch_wrong_total():
    bad = TABLE1.replace("5 (100.00%)", "6 (100.00%)")
    found = reports.oracle_problems({"table1": bad}, _tables())
    assert [eid for eid, _ in found] == ["table1"]


def test_oracles_catch_month_shift():
    bad = FIG01.replace("2018-07", "2018-08")
    found = reports.oracle_problems({"fig01": bad}, _tables())
    assert found and found[0][0] == "fig01"


def test_oracles_catch_missing_latent_class():
    rows = [[chr(65 + i), "1.0", f"{100 / 11:.1f}%"] for i in range(11)]
    text = _render("Table 6", ["Class", "x", "Weight"], rows)
    found = reports.oracle_problems({"table6": text}, _tables())
    assert any("11 class rows" in reason for _, reason in found)


def test_month_counts_are_utc_months():
    counts = reports.month_counts(_tables()["c_created_us"])
    assert counts == {"2018-06": 3, "2018-07": 2}


def test_column_values_reads_by_rule_extents():
    cells = measure.column_values(FIG01.splitlines(), "contracts created")
    assert cells == {"2018-06": "3", "2018-07": "2"}


def test_blocks_ignore_section_order():
    assert reports.blocks("a\n\nb") == reports.blocks("b\n\na")
    assert reports.blocks("a\n\nb") != reports.blocks("a\n\nc")


def _invocations(*texts):
    return [SimpleNamespace(label=f"p{i}", texts=t) for i, t in enumerate(texts)]


def test_reordered_known_experiment_is_counted_not_failed():
    outcome = reports.Outcome()
    ctx = SimpleNamespace(workload="w")
    reports.check_identical(
        ctx, _invocations({"fig12": "a\n\nb"}, {"fig12": "b\n\na"}), outcome
    )
    assert outcome.problems == []
    assert outcome.layer["report.order_unstable"] == 1


def test_reordered_other_experiment_fails():
    outcome = reports.Outcome()
    ctx = SimpleNamespace(workload="w")
    reports.check_identical(
        ctx, _invocations({"table3": "a\n\nb"}, {"table3": "b\n\na"}), outcome
    )
    assert outcome.problems == ["w: p1/table3: text differs from p0"]
    assert outcome.layer["report.order_unstable"] == 0


def test_market_seeds_are_distinct_across_runs():
    seen = [s for run in range(50) for s in reports.market_seeds(run)]
    assert len(seen) == len(set(seen)) == 50 * reports.PAPER_MARKETS
