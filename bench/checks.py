"""Output checks for benchmark ops.

Each check takes an op, its exit code, stdout and stderr, and returns None
when the output is right or a one-line reason when it is not. The checks
recompute what they can from the printed tables (ledger totals, credence
sums, accept/reject against the delta's sign) and replay a synthesized
book through ``simulate_book``; the bundled-document ops are compared byte
for byte with outputs recorded at the commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction

_CELL_SPLIT = re.compile(r" {2,}")
_ENTRY = re.compile(r"^\S+(?: \(\S+\))?: (\S+)$")  # bet, optional (agent), net
_PARAMETER = re.compile(r"^  (\S+) = (\S+)$")


def digest(code: int, stdout: str, stderr: str) -> str:
    text = f"{code}\n{stdout}\0{stderr}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _cells(line: str) -> list[str]:
    return _CELL_SPLIT.split(line.strip())


def check_ledger(lines: list[str]) -> str | None:
    """A ledger table followed by the three verdict lines."""
    if len(lines) < 5:
        return "ledger output too short"
    header = _cells(lines[0])
    table, verdict = lines[1:-3], lines[-3:]
    if not table or _cells(table[-1])[0] != "total":
        return "ledger has no total row"
    sums = [Fraction(0)] * len(header)
    for line in table[:-1]:
        cells = _cells(line)[1:]
        if len(cells) != len(header):
            return f"ledger row has {len(cells)} cells, header has {len(header)}"
        for k, cell in enumerate(cells):
            if cell == "-":
                continue
            for entry in cell.split("; "):
                match = _ENTRY.match(entry)
                if not match:
                    return f"unparsable ledger entry {entry!r}"
                sums[k] += Fraction(match.group(1))
    totals = [Fraction(cell) for cell in _cells(table[-1])[1:]]
    if totals != sums:
        return "ledger totals differ from the sum of the entries"
    expected = ("all offers accepted: ", "dutch book: ", "worst world total: ")
    if any(not line.startswith(prefix) for line, prefix in zip(verdict, expected)):
        return "verdict lines missing"
    accepted, dutch, worst = (line.split(": ", 1)[1] for line in verdict)
    if Fraction(worst) != min(totals):
        return "worst world total is not the smallest ledger total"
    if (dutch == "yes") != (accepted == "yes" and all(t < 0 for t in totals)):
        return "dutch book verdict disagrees with the ledger"
    return None


def check_credence(lines: list[str]) -> str | None:
    split = next(
        (k for k, line in enumerate(lines) if k and _cells(line) == ["world", "credence"]), None
    )
    if split is None:
        return "credence output has no world section"
    centers = [_cells(line) for line in lines[1:split]]
    worlds = [_cells(line) for line in lines[split + 1:]]
    per_world: dict[str, Fraction] = {}
    for label, value in centers:
        world = label.split("/", 1)[0]
        per_world[world] = per_world.get(world, Fraction(0)) + Fraction(value)
    if sum(per_world.values()) != 1:
        return "center credences do not sum to 1"
    printed = {label: Fraction(value) for label, value in worlds}
    if printed != per_world:
        return "world credences differ from the sum of their centers"
    return None


def check_evaluate(lines: list[str]) -> str | None:
    """Each decision accepts exactly when its delta is positive (ties reject)."""
    if not lines or _cells(lines[0]) != ["bet", "offered", "delta", "decision"]:
        return "evaluate output has no header"
    if len(lines) < 2:
        return "evaluate printed no decisions"
    for line in lines[1:]:
        cells = _cells(line)
        delta, decision = Fraction(cells[-2]), cells[-1]
        if decision != ("accept" if delta > 0 else "reject"):
            return f"decision {decision!r} contradicts delta {cells[-2]}"
    return None


def check_synthesize(lines: list[str], feasible: bool, replay) -> str | None:
    """``replay(parameters)`` re-runs the instantiated book and returns its verdict."""
    outcome_at = next((k for k, line in enumerate(lines) if line.startswith("outcome: ")), None)
    if outcome_at is None:
        return "synthesize printed no outcome"
    outcome = lines[outcome_at][len("outcome: "):]
    if not feasible:
        if outcome != "infeasible_lp":
            return f"expected infeasible_lp, got {outcome}"
        if lines[outcome_at + 1:] != ["  no Dutch book for decision pattern(s): accept-all"]:
            return "infeasible outcome without its pattern line"
        return None
    if outcome != "feasible":
        return f"expected feasible, got {outcome}"
    rest = lines[outcome_at + 1:]
    parameters = {}
    while rest and _PARAMETER.match(rest[0]):
        name, value = _PARAMETER.match(rest.pop(0)).groups()
        parameters[name] = Fraction(value)
    reason = check_ledger(rest)
    if reason:
        return reason
    verdict = replay(parameters)
    if not verdict.is_dutch_book:
        return "synthesized book is not a Dutch book on replay"
    if rest[-2] != "dutch book: yes":
        return "feasible outcome printed without a Dutch book verdict"
    return None
