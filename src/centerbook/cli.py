"""Command-line front end.

Subcommands: ``credence`` prints a distribution over centers, ``evaluate``
prints per-offer deltas and decisions, ``simulate`` runs a book against an
agent and prints the ledger and verdict, ``synthesize`` searches payoff
space (exact LP by default, a grid sweep with --grid-step), and
``reproduce`` prints one of the bundled reference tables by number.

Exit codes: 0 success, 2 usage error, 3 document parse error, 4 invariant,
label, offer, or legitimacy violation, 5 grid budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .bundled import resolve_source
from .credence import CredenceRule, credence
from .decision import (
    CDT,
    EDT,
    AgentSpec,
    AlikeClasses,
    PreExperiment,
    SameInfoOnly,
    TieRule,
    evaluate_offer,
    evaluate_pre_experiment,
    offered_at_state,
)
from .dutchbook import load_book, simulate_book
from .errors import BudgetError, CenterbookError, DocumentError, UnknownLabelError
from .model import InformationState, load_experiment
from .rationals import format_rational, parse_rational
from .synth import (
    DEFAULT_BOUNDS,
    DEFAULT_GRID_BUDGET,
    immunity_grid_check,
    load_template,
    parse_bounds,
    synthesize,
)
from .tables import credence_rows, experiment_rows, ledger_rows, render_rows, verdict_lines

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOCUMENT = 3
EXIT_INVARIANT = 4
EXIT_BUDGET = 5

RULES = {rule.value: rule for rule in CredenceRule}
THEORIES = ("cdt", "edt")

# reproduce --figure N: the bundled reference tables.
# 1, 3, 6 are experiment setups; 2, 4, 7 are simulated book ledgers.
FIGURES = {
    1: ("experiment", "original-sb"),
    2: ("ledger", "original-sb", "hitchcock", "halfer+cdt", TieRule.ACCEPT_AT_ZERO),
    3: ("experiment", "wbg"),
    4: ("ledger", "wbg", "wbg-book", "halfer+edt", TieRule.REJECT_AT_ZERO),
    6: ("experiment", "two-beauties"),
    7: ("ledger", "two-beauties", "two-beauties-book", "halfer+edt", TieRule.REJECT_AT_ZERO),
}


def parse_agent(
    spec: str,
    rho: Fraction = Fraction(1),
    linkage: str = "alike",
    tie: str = TieRule.REJECT_AT_ZERO,
) -> AgentSpec:
    """Parse "RULE+THEORY" (order-insensitive), e.g. thirder+cdt or halfer+edt."""
    tokens = [token.strip() for token in spec.split("+")]
    rule = theory_name = None
    for token in tokens:
        if token in RULES:
            rule = RULES[token]
        elif token in THEORIES:
            theory_name = token
        else:
            raise DocumentError(
                f"bad agent spec {spec!r}: unknown token {token!r} "
                f"(expected one of {sorted(RULES)} and one of {list(THEORIES)})"
            )
    if rule is None or theory_name is None or len(tokens) != 2:
        raise DocumentError(
            f"bad agent spec {spec!r}: expected RULE+THEORY, e.g. thirder+cdt"
        )
    if theory_name == "cdt":
        theory = CDT()
    elif linkage == "same-info":
        theory = EDT(SameInfoOnly())
    else:
        theory = EDT(AlikeClasses(rho))
    return AgentSpec(rule, theory, tie)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, every subcommand registered with its help.

    With ``only`` set to a subcommand name, only that subparser is filled in
    with its arguments; that is all that parsing an argv which starts with
    the name needs, and the usage and error text stay those of the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="centerbook",
        description=(
            "Exact engine for self-locating-belief betting experiments: "
            "credences over centered worlds, CDT/EDT bet evaluation, Dutch "
            "book simulation and synthesis. Scenario and book arguments "
            "accept file paths or builtin:NAME."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_display_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("plain", "csv"), default="plain")
        p.add_argument(
            "--decimal",
            action="store_true",
            help="display rationals as decimals (display only, never computation)",
        )

    def add_agent_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--agent",
            required=True,
            help="RULE+THEORY with RULE in {halfer, halfer-ra, thirder} and "
            "THEORY in {cdt, edt}",
        )
        p.add_argument("--rho", default="1", help='evidential linkage confidence "p/q"')
        p.add_argument("--linkage", choices=("alike", "same-info"), default="alike")
        p.add_argument("--tie", choices=("reject", "accept"), default="reject")

    def fill_credence(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario")
        p.add_argument("--rule", choices=sorted(RULES), required=True)
        p.add_argument("--obs", required=True, help="observation label")
        p.add_argument("--agent-label", default=None)
        add_display_flags(p)

    def fill_evaluate(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario")
        p.add_argument("book")
        add_agent_flags(p)
        add_display_flags(p)

    def fill_simulate(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario")
        p.add_argument("book")
        add_agent_flags(p)
        p.add_argument("--allow-illegitimate", action="store_true")
        add_display_flags(p)

    def fill_synthesize(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario")
        p.add_argument("template")
        add_agent_flags(p)
        p.add_argument("--epsilon", default=None, help='margin "p/q" (default: template)')
        p.add_argument(
            "--bounds",
            default=None,
            help='default parameter bounds "lo/hi" (default 0/100)',
        )
        p.add_argument(
            "--grid-step",
            default=None,
            help='sweep a payoff grid with this step "p/q" instead of solving the LP',
        )
        p.add_argument("--max-grid-points", type=int, default=DEFAULT_GRID_BUDGET)
        add_display_flags(p)

    def fill_reproduce(p: argparse.ArgumentParser) -> None:
        p.add_argument("--figure", type=int, choices=sorted(FIGURES), required=True)
        add_display_flags(p)

    for name, help_text, fill in (
        ("credence", "print a credence distribution", fill_credence),
        ("evaluate", "print per-offer deltas and decisions", fill_evaluate),
        ("simulate", "run a book against an agent", fill_simulate),
        ("synthesize", "search payoff space for a Dutch book", fill_synthesize),
        ("reproduce", "print a bundled reference table by number", fill_reproduce),
    ):
        filled = only is None or only == name
        # An unfilled subparser never parses, so it skips even its -h flag.
        p = sub.add_parser(name, help=help_text, add_help=filled)
        if filled:
            fill(p)
    return parser


def _agent_from_args(args) -> AgentSpec:
    tie = TieRule.ACCEPT_AT_ZERO if args.tie == "accept" else TieRule.REJECT_AT_ZERO
    return parse_agent(args.agent, parse_rational(args.rho, "--rho"), args.linkage, tie)


def _cmd_credence(args) -> int:
    e = load_experiment(resolve_source(args.scenario))
    agent_label = args.agent_label
    if agent_label is None:
        if len(e.agents) > 1:
            raise UnknownLabelError(
                f"--agent-label is required here; the experiment has agents {list(e.agents)}"
            )
        agent_label = e.agents[0]
    dist = credence(RULES[args.rule], e, InformationState(args.obs, agent_label))
    print(render_rows(credence_rows(e, dist, args.decimal), args.format), end="")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    e = load_experiment(resolve_source(args.scenario))
    book = load_book(resolve_source(args.book))
    agent = _agent_from_args(args)
    rows = [["bet", "offered", "delta", "decision"]]
    for bet in book.bets:
        if isinstance(bet.offer, PreExperiment):
            points = [("pre", evaluate_pre_experiment(agent, e, bet))]
        else:
            points = [
                (f"{state.observation} ({state.agent})", evaluate_offer(agent, e, state, bet))
                for state in e.information_states()
                if offered_at_state(e, bet.offer, state)
            ]
        for offered, decision in points:
            verdict = "accept" if decision.accept else "reject"
            rows.append([bet.id, offered, format_rational(decision.delta, args.decimal), verdict])
    print(render_rows(rows, args.format), end="")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    e = load_experiment(resolve_source(args.scenario))
    book = load_book(resolve_source(args.book))
    agent = _agent_from_args(args)
    ledger, verdict = simulate_book(agent, e, book, allow_illegitimate=args.allow_illegitimate)
    print(render_rows(ledger_rows(e, book, ledger, args.decimal), args.format), end="")
    for line in verdict_lines(verdict, args.decimal):
        print(line)
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    e = load_experiment(resolve_source(args.scenario))
    template = load_template(resolve_source(args.template))
    agent = _agent_from_args(args)
    default_bounds = parse_bounds(args.bounds, "--bounds") if args.bounds else DEFAULT_BOUNDS
    if args.grid_step is not None:
        result = immunity_grid_check(
            agent,
            e,
            template,
            parse_rational(args.grid_step, "--grid-step"),
            default_bounds=default_bounds,
            max_points=args.max_grid_points,
        )
        grid = result.grid
        print(f"grid: {grid.points} point(s) at step {format_rational(grid.step)}")
    else:
        epsilon = parse_rational(args.epsilon, "--epsilon") if args.epsilon else None
        result = synthesize(agent, e, template, epsilon=epsilon, default_bounds=default_bounds)
        print("constraints:")
        for constraint in result.constraints:
            print(f"  {constraint.render()}")
    print(f"outcome: {result.outcome}")
    if result.feasible:
        for name in sorted(result.parameters):
            print(f"  {name} = {format_rational(result.parameters[name], args.decimal)}")
        book = template.instantiate(result.parameters)
        print(render_rows(ledger_rows(e, book, result.ledger, args.decimal), args.format), end="")
        for line in verdict_lines(result.verdict, args.decimal):
            print(line)
    elif result.outcome == "infeasible_lp":
        print(f"  no Dutch book for decision pattern(s): {', '.join(result.patterns)}")
    else:
        print("  no Dutch book at any grid point")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    plan = FIGURES[args.figure]
    if plan[0] == "experiment":
        e = load_experiment(resolve_source(f"builtin:{plan[1]}"))
        print(render_rows(experiment_rows(e, args.decimal), args.format), end="")
        return EXIT_OK
    _, scenario, book_name, agent_spec, tie = plan
    e = load_experiment(resolve_source(f"builtin:{scenario}"))
    book = load_book(resolve_source(f"builtin:{book_name}"))
    agent = parse_agent(agent_spec, tie=tie)
    ledger, verdict = simulate_book(agent, e, book)
    print(render_rows(ledger_rows(e, book, ledger, args.decimal), args.format), end="")
    for line in verdict_lines(verdict, args.decimal):
        print(line)
    return EXIT_OK


COMMANDS = {
    "credence": _cmd_credence,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "synthesize": _cmd_synthesize,
    "reproduce": _cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Parsing past a subcommand name reads only that subcommand's arguments.
    only = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOCUMENT
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CenterbookError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
