"""Report construction and byte-exact emission.

Reports are emitted as bytes so output is identical across platforms and
across repeated runs: CSV uses RFC-style CRLF line endings with minimal
quoting and carries only the column header and data rows; the table format
adds a header block and diagnostics for human reading.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence

from .errors import ValidationError
from .polity import Allocation, Move


class Report(NamedTuple):
    """A rendered result, independent of output format.

    All cells are pre-rendered strings; rationals appear as ``p/q`` and
    booleans as ``true``/``false``.
    """

    command: str
    header: tuple[tuple[str, str], ...]
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    diagnostics: tuple[str, ...] = ()


def render_allocation(allocation: Allocation) -> str:
    """``(1,2)`` for one commodity, ``((1,0),(2,1))`` for several."""
    return render_holdings([b.quantities for b in allocation.bundles])


class RationalTexts(dict):
    """``str(Fraction(n, denominator))`` for each int ``n``, made on first use.

    Each text is made once per distinct ``n``; keep one per call, not
    globally.
    """

    def __init__(self, denominator: int):
        super().__init__()
        self.denominator = denominator

    def __missing__(self, numerator: int) -> str:
        text = self[numerator] = str(Fraction(numerator, self.denominator))
        return text


def render_holdings(
    holdings: Sequence[Sequence], quantity: Callable[[Any], str] = str
) -> str:
    """Each agent's quantities as ``render_allocation`` writes them, each
    quantity written by ``quantity``.

    For int holdings on a scale, ``RationalTexts(scale).__getitem__``
    writes each as the quantity it stands for.
    """
    if len(holdings[0]) == 1:
        inner = ",".join([quantity(bundle[0]) for bundle in holdings])
    else:
        inner = ",".join(["(" + ",".join(map(quantity, bundle)) + ")" for bundle in holdings])
    return f"({inner})"


def render_move(move: Move) -> str:
    return f"{render_allocation(move.before)} -> {render_allocation(move.after)}"


def render_bool(value: bool) -> str:
    return "true" if value else "false"


def _emit_csv(report: Report) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(report.columns)
    for row in report.rows:
        writer.writerow(row)
    return buffer.getvalue().encode("utf-8")


def _emit_table(report: Report) -> bytes:
    lines = [f"paretoscope {report.command}"]
    if report.header:
        width = max(len(k) for k, _ in report.header)
        lines.extend(f"  {k.ljust(width)}  {v}" for k, v in report.header)
    lines.append("")
    widths = [len(c) for c in report.columns]
    for row in report.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines.append("  ".join(c.ljust(w) for c, w in zip(report.columns, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in report.rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    if report.diagnostics:
        lines.append("")
        lines.extend(report.diagnostics)
    lines.append("")
    return "\n".join(lines).encode("utf-8")


def emit_report(report: Report, fmt: str = "table") -> bytes:
    """Render a report to bytes in the requested format."""
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "table":
        return _emit_table(report)
    raise ValidationError(f"unknown format {fmt!r}; expected table or csv")
