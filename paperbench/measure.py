"""Pure helpers shared by the workloads: percentiles, backlog, names.

Nothing here touches a process, a socket or the clock, so every helper
is unit-tested in ``paperbench/tests``.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, List, Optional, Sequence

#: Metric names: a letter or digit, then up to 63 of ``[A-Za-z0-9_.-]``.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
#: Units: up to 16 of ``[A-Za-z0-9_/%.-]``.
_UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    """True when ``name`` is a legal metric or workload name."""
    return bool(_NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    """True when ``unit`` is a legal metric unit."""
    return bool(_UNIT_RE.match(unit))


def median(values: Sequence[float]) -> float:
    """The median; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when under-sampled.

    The value is reported only when at least :data:`MIN_BEYOND` samples
    lie strictly beyond its rank: p99 needs 1,000 samples, p50 needs 20.
    """
    if not 0.0 < q < 100.0:
        raise ValueError("q must be in (0, 100)")
    n = len(values)
    if n == 0:
        return None
    # The epsilon keeps 99.9% of 10,000 at rank 9,990, not 9,991.
    rank = max(1, math.ceil(q * n / 100.0 - 1e-9))
    if n - rank < MIN_BEYOND:
        return None
    return float(sorted(values)[rank - 1])


def backlog_grows(outstanding: Sequence[int], slack: int) -> bool:
    """True when a backlog series trends upward by more than ``slack``.

    ``outstanding`` is the number of requests due but not yet answered,
    sampled once per scheduled request in schedule order.  The backlog
    grows when the mean of the last quarter exceeds the mean of the first
    quarter by more than ``slack`` requests.  Fewer than eight samples
    never count as growth.
    """
    if len(outstanding) < 8:
        return False
    quarter = len(outstanding) // 4
    head = sum(outstanding[:quarter]) / quarter
    tail = sum(outstanding[-quarter:]) / quarter
    return tail - head > slack


def parse_count(text: str) -> int:
    """``"19,078"`` or ``"19,078 (100.00%)"`` -> ``19078``."""
    head = text.strip().split(" ")[0]
    return int(head.replace(",", ""))


def column_values(lines: Sequence[str], header: str) -> Dict[str, str]:
    """Map row label -> cell of the column titled ``header``.

    ``lines`` is a fixed-width table as the report renders it: a header
    line, a dashed rule, then rows.  Cells are located by the rule's
    column extents, so headers and cells may contain spaces.
    """
    rule_at = next(
        (i for i, line in enumerate(lines) if line and set(line) <= {"-", " "}),
        None,
    )
    if rule_at is None or rule_at == 0:
        raise ValueError("no table rule found")
    rule = lines[rule_at]
    extents: List[tuple] = []
    for match in re.finditer(r"-+", rule):
        extents.append((match.start(), match.end()))
    titles = [lines[rule_at - 1][a:b].strip() for a, b in extents]
    if header not in titles:
        raise ValueError(f"no column {header!r} in {titles}")
    col = titles.index(header)
    out: Dict[str, str] = {}
    for line in lines[rule_at + 1:]:
        if not line.strip():
            break
        a, b = extents[0]
        label = line[a:b].strip()
        start = extents[col][0]
        end = extents[col + 1][0] if col + 1 < len(extents) else len(line)
        out[label] = line[start:end].strip()
    return out
