"""Per-layer tracing from outside the program.

The tracer replaces module attributes (and two ``Experiment`` methods) with
wrappers that record a span per call: function, start, end, parent span
and op id. Every ``centerbook`` module that imported a traced function by
name gets the wrapper, so calls made through any module's globals are seen.
Spans stay in memory and are written out when the run ends.

Self time of a span is its duration minus the part of it covered by its
child spans. A layer's numbers are sums over the spans of its functions.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

# layer -> (module, attribute) pairs; "Class.method" names a method.
LAYERS = {
    "cli": [("cli", "main")],
    "load": [("model", "load_experiment"), ("dutchbook", "load_book"),
             ("synth", "load_template")],
    "model": [("model", "Experiment.center_at"), ("model", "Experiment.information_states"),
              ("model", "consistent_centers"), ("model", "count_centers")],
    "model.alikeness": [("model", "verify_alikeness")],
    "credence": [("credence", "credence")],
    "decision": [("decision", "decision_weights"), ("decision", "evaluate_offer"),
                 ("decision", "evaluate_pre_experiment"), ("decision", "offered_at_state")],
    "dutchbook": [("dutchbook", "check_legitimacy"), ("dutchbook", "simulate_book")],
    "synth.constraints": [("synth", "build_constraints")],
    "lp": [("lp", "find_feasible_point")],
    "synth.grid": [("synth", "immunity_grid_check")],
    "tables": [("tables", "render_rows"), ("tables", "experiment_rows"),
               ("tables", "credence_rows"), ("tables", "ledger_rows"),
               ("tables", "verdict_lines")],
}

# Functions whose arguments and results feed the counters.
KEEP = {"simulate_book", "find_feasible_point", "immunity_grid_check", "verify_alikeness"}


def self_times(spans: list[tuple[int, int, int]]) -> list[int]:
    """Self time of each (start, end, parent) span: duration minus child coverage."""
    children: dict[int, list[tuple[int, int]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


class Tracer:
    """Wraps the functions in LAYERS; records spans only while ``active``."""

    def __init__(self) -> None:
        self.functions: list[str] = []  # function id -> "module.attribute"
        self.layer_of: list[str] = []  # function id -> layer
        self.spans: list[list[int]] = []  # [function id, start ns, end ns, parent, op]
        self.kept: list[tuple[str, tuple, object]] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.missing: list[str] = []
        # Totals over every traced op.
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.function_calls: dict[str, int] = {}
        self.root_ns = 0
        self.book_decisions = 0

    def install(self) -> None:
        root = importlib.import_module("centerbook")
        modules = [root] + [
            importlib.import_module(f"centerbook.{info.name}")
            for info in pkgutil.iter_modules(root.__path__)
        ]
        for layer, targets in LAYERS.items():
            for module_name, attribute in targets:
                module = sys.modules[f"centerbook.{module_name}"]
                owner_name, _, name = attribute.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attribute}")
                    continue
                wrapper = self._wrap(layer, f"{module_name}.{attribute}", name, original)
                if owner_name:
                    setattr(owner, name, wrapper)
                    continue
                for candidate in modules:
                    for key, value in list(vars(candidate).items()):
                        if value is original:
                            setattr(candidate, key, wrapper)

    def _wrap(self, layer: str, qualified: str, name: str, fn):
        fid = len(self.functions)
        self.functions.append(qualified)
        self.layer_of.append(layer)
        keep = name in KEEP
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [fid, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                self.kept.append((name, args, result))
            return result

        return traced

    def begin_op(self, op: int) -> int:
        self.op = op
        self.active = True
        return len(self.spans)

    def end_op(self, first: int) -> None:
        """Stop recording and add the op's spans, from index ``first`` on, to the totals."""
        self.active = False
        summary = self.op_summary(first)
        for totals, part in ((self.calls, summary["calls"]), (self.self_ns, summary["self_ns"]),
                             (self.function_calls, summary["functions"])):
            for key, value in part.items():
                totals[key] = totals.get(key, 0) + value
        self.root_ns += summary["root_ns"]
        self.book_decisions += summary["book_decisions"]

    def op_summary(self, first: int) -> dict:
        """Calls and self time per layer, root time, and the ``evaluate_offer``
        calls made inside ``simulate_book``, for spans from ``first`` on."""
        spans = self.spans[first:]
        rebased = [(s[1], s[2], s[3] - first if s[3] >= 0 else -1) for s in spans]
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        function_calls: dict[str, int] = {}
        root_ns = 0
        in_book: list[bool] = []  # per span: simulate_book is an ancestor
        book_decisions = 0
        for span, (_, _, parent), own in zip(spans, rebased, self_times(rebased)):
            layer = self.layer_of[span[0]]
            calls[layer] = calls.get(layer, 0) + 1
            self_ns[layer] = self_ns.get(layer, 0) + own
            qualified = self.functions[span[0]]
            function_calls[qualified] = function_calls.get(qualified, 0) + 1
            if parent < 0:
                root_ns += span[2] - span[1]
            in_book.append(parent >= 0 and (
                in_book[parent] or self.functions[spans[parent][0]] == "dutchbook.simulate_book"))
            book_decisions += in_book[-1] and qualified == "decision.evaluate_offer"
        return {"calls": calls, "self_ns": self_ns, "functions": function_calls,
                "root_ns": root_ns, "book_decisions": book_decisions}

    def take_kept(self) -> list[tuple[str, tuple, object]]:
        kept, self.kept = self.kept, []
        return kept

    def write(self, path) -> None:
        """Write every span as one JSON line: function, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"functions": self.functions, "layers": self.layer_of}, out)
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")
