"""Plain-text and CSV table rendering for experiments, credences, and ledgers.

Output is deterministic: worlds and slots appear in declared order, and the
ledger layout mirrors the usual presentation of these cases (one row per
slot plus a pre-experiment row and a totals row, one column per world).
"""

from __future__ import annotations

import csv
import io

from .credence import CenteredCredence
from .dutchbook import PRE_SLOT, Book, DutchBookVerdict, Ledger
from .model import Experiment
from .rationals import format_rational

EMPTY_CELL = "-"


def render_plain(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [cell.ljust(width) for cell, width in zip(row, widths)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def render_rows(rows: list[list[str]], fmt: str) -> str:
    return render_csv(rows) if fmt == "csv" else render_plain(rows)


def world_header(e: Experiment, decimal: bool = False) -> list[str]:
    return [""] + [
        f"{world.id} ({format_rational(world.prior, decimal)})" for world in e.worlds
    ]


def experiment_rows(e: Experiment, decimal: bool = False) -> list[list[str]]:
    """One row per slot; each cell shows what (and who) awakens there."""
    rows = [world_header(e, decimal)]
    multi_agent = len(e.agents) > 1
    for slot in e.slots:
        row = [slot]
        for world in e.worlds:
            cells = []
            for agent in e.agents:
                center = e.center_at(world.id, slot, agent)
                if center is None:
                    continue
                if multi_agent:
                    cells.append(f"{center.observation} ({agent})")
                else:
                    cells.append(center.observation)
            row.append("; ".join(cells) if cells else EMPTY_CELL)
        rows.append(row)
    return rows


def credence_rows(
    e: Experiment, dist: CenteredCredence, decimal: bool = False
) -> list[list[str]]:
    rows = [["center", "credence"]]
    for center, weight in dist.items():
        rows.append(
            [f"{center.world}/{center.slot} ({center.agent})", format_rational(weight, decimal)]
        )
    rows.append(["world", "credence"])
    seen = []
    for center, _ in dist.items():
        if center.world not in seen:
            seen.append(center.world)
    for world_id in seen:
        rows.append([world_id, format_rational(dist.world(world_id), decimal)])
    return rows


def ledger_rows(
    e: Experiment, book: Book, ledger: Ledger, decimal: bool = False
) -> list[list[str]]:
    rows = [world_header(e, decimal)]
    multi_agent = len(e.agents) > 1
    columns = []  # per world, its cells by slot
    for world in e.worlds:
        parts: dict[str, list[str]] = {}
        for entry in ledger.entries[world.id]:
            amount = format_rational(entry.net, decimal)
            who = f" ({entry.agent})" if multi_agent else ""
            parts.setdefault(entry.slot, []).append(f"{entry.bet_id}{who}: {amount}")
        columns.append({slot: "; ".join(cell) for slot, cell in parts.items()})

    slots = ([PRE_SLOT] if book.pre_bets else []) + list(e.slots)
    for slot in slots:
        rows.append([slot] + [column.get(slot, EMPTY_CELL) for column in columns])
    rows.append(
        ["total"]
        + [format_rational(ledger.total(world.id), decimal) for world in e.worlds]
    )
    return rows


def verdict_lines(verdict: DutchBookVerdict, decimal: bool = False) -> list[str]:
    return [
        f"all offers accepted: {'yes' if verdict.all_accepted else 'no'}",
        f"dutch book: {'yes' if verdict.is_dutch_book else 'no'}",
        f"worst world total: {format_rational(verdict.worst_loss, decimal)}",
    ]
