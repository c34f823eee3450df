"""Order statistics and result digests shared by the ledger's files."""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Dict, Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` %
    of the sample at or below it.  ``q`` is in (0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100], got %r" % (q,))
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of ``values``.

    Quartiles are ``statistics.quantiles(values, n=4)``; a single sample
    is its own quartiles."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def bag_digest(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """An order-insensitive digest of a table: insensitive to row order
    and to column order, sensitive to multiplicity."""
    order = sorted(range(len(columns)), key=lambda i: columns[i])
    total = 0
    count = 0
    for row in rows:
        text = repr(tuple(row[i] for i in order))
        total += int.from_bytes(
            hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")
        count += 1
    names = ",".join(columns[i] for i in order)
    return "%s|%d|%016x" % (names, count, total & (2 ** 64 - 1))


def frame_digest(frame) -> str:
    """:func:`bag_digest` of a :class:`repro.dataframe.DataFrame`."""
    return bag_digest(frame.columns, frame.iter_rows())


def result_digest(result) -> str:
    """:func:`bag_digest` of a :class:`repro.sparql.results.ResultSet`."""
    return bag_digest(result.variables, result.rows)


def shares(self_ms: Dict[str, float]) -> Dict[str, float]:
    """Each layer's share of the summed self time (base: that sum)."""
    total = sum(self_ms.values())
    if total <= 0:
        return {layer: 0.0 for layer in self_ms}
    return {layer: value / total for layer, value in self_ms.items()}
