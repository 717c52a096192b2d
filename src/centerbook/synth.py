"""Searching payoff space for Dutch books against a given agent.

A book template fixes the structure of a book (offer rules, payoff events)
and leaves costs and payouts symbolic. For a Dutch book every offer must be
accepted, so the decision pattern is pinned to accept-all, and both the
acceptance conditions and the sure-loss conditions become linear in the
parameters: the agent's delta for a bet is a fixed weight-sum of that bet's
per-world nets once credences and linkage counts are known. Synthesis
solves the resulting system exactly over the rationals; the grid check
instead certifies immunity by exhausting a finite lattice of payoff
vectors. Both replay any witness through the simulator before reporting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm, prod
from operator import add
from typing import Mapping

from .decision import (
    AgentSpec,
    Bet,
    OfferRule,
    PreExperiment,
    TieRule,
    decision_weights,
    delta_form,
    offered_at_center,
    offered_at_state,
)
from .docio import list_field, read_document, require_keys, string_field, string_list
from .dutchbook import (
    Book,
    DutchBookVerdict,
    Ledger,
    check_legitimacy,
    parse_offer,
    simulate_book,
    validate_book,
)
from .errors import BoundsError, BudgetError, DocumentError, InvariantError, LegitimacyError
from .lp import find_feasible_point
from .model import Experiment, InformationState, WorldWeights, count_by_world
from .rationals import abbreviate, format_rational, parse_integer, parse_rational

DEFAULT_BOUNDS = (Fraction(0), Fraction(100))
DEFAULT_GRID_BUDGET = 10_000_000

Bounds = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class TemplateBet:
    """A bet whose cost and payout may be left symbolic (None)."""

    id: str
    cost: Fraction | None
    payout: Fraction | None
    payoff_event: frozenset[str]
    offer: OfferRule
    cost_bounds: Bounds | None = None
    payout_bounds: Bounds | None = None


@dataclass(frozen=True)
class BookTemplate:
    bets: tuple[TemplateBet, ...]
    epsilon: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise InvariantError(f"margin must be > 0, got {self.epsilon}")
        seen: set[str] = set()
        for bet in self.bets:
            if bet.id in seen:
                raise InvariantError(f"template: duplicate bet id {bet.id!r}")
            seen.add(bet.id)

    def parameters(self) -> tuple[str, ...]:
        names: list[str] = []
        for bet in self.bets:
            if bet.cost is None:
                names.append(f"{bet.id}.cost")
            if bet.payout is None:
                names.append(f"{bet.id}.payout")
        return tuple(names)

    def bounds(self, default: Bounds = DEFAULT_BOUNDS) -> dict[str, Bounds]:
        resolved: dict[str, Bounds] = {}
        for bet in self.bets:
            if bet.cost is None:
                resolved[f"{bet.id}.cost"] = bet.cost_bounds or default
            if bet.payout is None:
                resolved[f"{bet.id}.payout"] = bet.payout_bounds or default
        for name, (lo, hi) in resolved.items():
            if lo > hi:
                raise BoundsError(f"{name}: empty bounds [{lo}, {hi}]")
            if lo < 0:
                raise BoundsError(f"{name}: costs and payouts cannot go below 0")
        return resolved

    def instantiate(self, assignment: Mapping[str, Fraction]) -> Book:
        bets = []
        for bet in self.bets:
            cost = bet.cost if bet.cost is not None else assignment[f"{bet.id}.cost"]
            payout = (
                bet.payout if bet.payout is not None else assignment[f"{bet.id}.payout"]
            )
            bets.append(Bet(bet.id, cost, payout, bet.payoff_event, bet.offer))
        return Book(tuple(bets))


@dataclass(frozen=True)
class LinearConstraint:
    """One emitted condition, linear in the template parameters."""

    label: str
    coeffs: tuple[tuple[str, Fraction], ...]
    op: str  # "<=" or ">="
    rhs: Fraction

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        return sum((coef * assignment[name] for name, coef in self.coeffs), Fraction(0))

    def satisfied_by(self, assignment: Mapping[str, Fraction]) -> bool:
        value = self.evaluate(assignment)
        return value <= self.rhs if self.op == "<=" else value >= self.rhs

    def render(self) -> str:
        if not self.coeffs:
            expression = "0"
        else:
            pieces: list[str] = []
            for name, coef in self.coeffs:
                magnitude = abs(coef)
                term = name if magnitude == 1 else f"{format_rational(magnitude)}*{name}"
                if not pieces:
                    pieces.append(term if coef > 0 else f"-{term}")
                else:
                    pieces.append(f"{'+' if coef > 0 else '-'} {term}")
            expression = " ".join(pieces)
        return f"{self.label}: {expression} {self.op} {format_rational(self.rhs)}"


@dataclass(frozen=True)
class GridSpec:
    parameters: tuple[str, ...]
    bounds: tuple[Bounds, ...]
    step: Fraction
    points: int


@dataclass(frozen=True)
class SynthesisResult:
    outcome: str  # "feasible" | "infeasible_lp" | "infeasible_over_grid"
    parameters: dict[str, Fraction] | None = None
    ledger: Ledger | None = None
    verdict: DutchBookVerdict | None = None
    constraints: tuple[LinearConstraint, ...] = ()
    patterns: tuple[str, ...] | None = None
    grid: GridSpec | None = None

    @property
    def feasible(self) -> bool:
        return self.outcome == "feasible"


def _offer_counts(e: Experiment, bet: TemplateBet) -> dict[str, int]:
    """How many times the bet is offered in each world under accept-all."""
    if isinstance(bet.offer, PreExperiment):
        return {world_id: 1 for world_id in e.world_ids}
    offer = bet.offer
    agents = e.agents if offer.agent is None else (offer.agent,)
    states = [InformationState(obs, agent) for obs in offer.observations for agent in agents]
    return count_by_world(e, states, partial(offered_at_center, offer))


def _acceptance_weightings(
    agent: AgentSpec, e: Experiment, bet: TemplateBet
) -> list[tuple[str, WorldWeights]]:
    """Per decision point: a label and the per-world weights on the bet's net."""
    if isinstance(bet.offer, PreExperiment):
        return [("pre-experiment", e._priors)]
    return [
        (f"({state.observation}, {state.agent})", decision_weights(agent, e, state, bet.offer))
        for state in e.information_states()
        if offered_at_state(e, bet.offer, state)
    ]


def _delta_terms(
    bet: TemplateBet, weights: WorldWeights
) -> tuple[list[tuple[str, Fraction]], Fraction]:
    """Split a delta into symbolic terms plus a constant, given fixed fields."""
    form = delta_form(weights, bet.payoff_event)
    terms: list[tuple[str, Fraction]] = []
    constant = Fraction(0)
    for name, coef, value in (
        ("payout", form.payout_coef, bet.payout),
        ("cost", form.cost_coef, bet.cost),
    ):
        if value is not None:
            constant += coef * value
        elif coef != 0:
            terms.append((f"{bet.id}.{name}", coef))
    return terms, constant


def build_constraints(
    agent: AgentSpec, e: Experiment, template: BookTemplate, epsilon: Fraction
) -> tuple[LinearConstraint, ...]:
    """The accept-all system: every delta >= epsilon, every world total <= -epsilon."""
    constraints: list[LinearConstraint] = []
    for bet in template.bets:
        for label, weights in _acceptance_weightings(agent, e, bet):
            terms, constant = _delta_terms(bet, weights)
            accept = f"accept {bet.id} at {label}"
            constraints.append(LinearConstraint(accept, tuple(terms), ">=", epsilon - constant))
    counts = {bet.id: _offer_counts(e, bet) for bet in template.bets}
    for world in e.worlds:
        terms: list[tuple[str, Fraction]] = []
        constant = Fraction(0)
        for bet in template.bets:
            count = counts[bet.id].get(world.id, 0)
            if count == 0:
                continue
            bet_terms, bet_constant = _delta_terms(bet, WorldWeights({world.id: count}, 1))
            terms.extend(bet_terms)
            constant += bet_constant
        constraints.append(
            LinearConstraint(
                f"sure loss in {world.id}", tuple(terms), "<=", -epsilon - constant
            )
        )
    return tuple(constraints)


def _validate_template(agent: AgentSpec, e: Experiment, template: BookTemplate) -> None:
    bounds = template.bounds()
    probe = template.instantiate({name: bounds[name][0] for name in bounds})
    validate_book(e, probe)
    check = check_legitimacy(e, probe)
    if not check:
        raise LegitimacyError(check.reason)


def synthesize(
    agent: AgentSpec,
    e: Experiment,
    template: BookTemplate,
    epsilon: Fraction | None = None,
    default_bounds: Bounds = DEFAULT_BOUNDS,
) -> SynthesisResult:
    """Find payoff parameters making the template a Dutch book, or prove none exist.

    Feasibility is decided exactly over the rationals within the bounds;
    a feasible point is replayed through simulate_book as a certificate.
    """
    margin = template.epsilon if epsilon is None else epsilon
    if margin <= 0:
        raise InvariantError(f"margin must be > 0, got {margin}")
    _validate_template(agent, e, template)
    constraints = build_constraints(agent, e, template, margin)
    bounds = template.bounds(default_bounds)
    point = find_feasible_point(
        [(dict(c.coeffs), c.op, c.rhs) for c in constraints], bounds
    )
    if point is None:
        return SynthesisResult(
            "infeasible_lp", constraints=constraints, patterns=("accept-all",)
        )
    book = template.instantiate(point)
    ledger, verdict = simulate_book(agent, e, book)
    if not verdict.is_dutch_book:
        raise RuntimeError(
            "synthesized point failed replay; constraint model out of sync "
            "with the simulator"
        )
    return SynthesisResult(
        "feasible",
        parameters=point,
        ledger=ledger,
        verdict=verdict,
        constraints=constraints,
    )


def _grid_values(lo: Fraction, hi: Fraction, step: Fraction) -> list[Fraction]:
    values = []
    value = lo
    while value <= hi:
        values.append(value)
        value += step
    return values


def immunity_grid_check(
    agent: AgentSpec,
    e: Experiment,
    template: BookTemplate,
    step: Fraction,
    default_bounds: Bounds = DEFAULT_BOUNDS,
    max_points: int = DEFAULT_GRID_BUDGET,
) -> SynthesisResult:
    """Exhaust a payoff lattice: certify immunity or return a Dutch-booking vector.

    Decisions are evaluated per information state exactly as the simulator
    would, so the search is a faithful (but heavily factored) sweep of
    simulate_book over the grid. The counterexample returned, if any, is
    the lexicographically smallest vector in parameter order.
    """
    if step <= 0:
        raise BoundsError(f"grid step must be > 0, got {step}")
    _validate_template(agent, e, template)
    bounds = template.bounds(default_bounds)
    parameters = template.parameters()

    grids = {name: _grid_values(*bounds[name], step) for name in parameters}
    points = prod(len(grids[name]) for name in parameters)
    spec = GridSpec(parameters, tuple(bounds[name] for name in parameters), step, points)
    if points > max_points:
        raise BudgetError(
            f"grid has {points} points, which exceeds the budget of {max_points}"
        )

    if not template.bets:
        return SynthesisResult("infeasible_over_grid", grid=spec)

    accept_at_zero = agent.tie_rule == TieRule.ACCEPT_AT_ZERO
    world_ids = e.world_ids
    n_worlds = len(world_ids)

    # Candidate (cost, payout) pairs per bet: those accepted at every offer
    # point, with their per-world total contributions under accept-all.
    per_bet: list[list[tuple[Fraction, Fraction, tuple[Fraction, ...]]]] = []
    for bet in template.bets:
        forms = [
            delta_form(weights, bet.payoff_event)
            for _, weights in _acceptance_weightings(agent, e, bet)
        ]
        counts = _offer_counts(e, bet)
        cost_values = grids[f"{bet.id}.cost"] if bet.cost is None else [bet.cost]
        payout_values = grids[f"{bet.id}.payout"] if bet.payout is None else [bet.payout]
        candidates = []
        for cost in cost_values:
            for payout in payout_values:
                deltas = (form.at(payout, cost) for form in forms)
                if all(d > 0 or (d == 0 and accept_at_zero) for d in deltas):
                    contribution = tuple(
                        counts.get(wid, 0)
                        * ((payout if wid in bet.payoff_event else Fraction(0)) - cost)
                        for wid in world_ids
                    )
                    candidates.append((cost, payout, contribution))
        if not candidates:
            return SynthesisResult("infeasible_over_grid", grid=spec)
        per_bet.append(candidates)

    # Scale all contributions to integers for the search.
    denominators = {
        value.denominator
        for candidates in per_bet
        for _, _, contribution in candidates
        for value in contribution
    }
    scale = lcm(*denominators) if denominators else 1
    scaled: list[list[tuple[Fraction, Fraction, tuple[int, ...]]]] = [
        [
            (cost, payout, tuple(int(value * scale) for value in contribution))
            for cost, payout, contribution in candidates
        ]
        for candidates in per_bet
    ]

    n_bets = len(scaled)
    suffix_min = [[0] * n_worlds for _ in range(n_bets + 1)]
    for index in range(n_bets - 1, -1, -1):
        for k in range(n_worlds):
            best = min(contribution[k] for _, _, contribution in scaled[index])
            suffix_min[index][k] = suffix_min[index + 1][k] + best

    # Depth-first in parameter order, so the first hit is the lexicographically
    # smallest vector. A frame is (bet index, next candidate position, sums of
    # the bets before it); an explicit stack keeps long templates off the
    # interpreter's recursion limit.
    hit = None
    stack = [(0, 0, (0,) * n_worlds)]
    while stack:
        index, position, sums = stack.pop()
        candidates = scaled[index]
        # Take the first candidate from `position` on that stays below this limit
        # in every world (the later bets can still make a sure loss there);
        # with none left, backtrack to the frame below.
        limit = [-(s + a) for s, a in zip(sums, suffix_min[index + 1])]
        for position in range(position, len(candidates)):
            contribution = candidates[position][2]
            for k in range(n_worlds):
                if contribution[k] >= limit[k]:
                    break
            else:
                break
        else:
            continue
        if index == n_bets - 1:
            hit = [scaled[i][p - 1] for i, p, _ in stack] + [candidates[position]]
            break
        stack.append((index, position + 1, sums))
        stack.append((index + 1, 0, tuple(map(add, sums, contribution))))
    if hit is None:
        return SynthesisResult("infeasible_over_grid", grid=spec)

    assignment: dict[str, Fraction] = {}
    for bet, (cost, payout, _) in zip(template.bets, hit):
        if bet.cost is None:
            assignment[f"{bet.id}.cost"] = cost
        if bet.payout is None:
            assignment[f"{bet.id}.payout"] = payout
    book = template.instantiate(assignment)
    ledger, verdict = simulate_book(agent, e, book)
    if not verdict.is_dutch_book:
        raise RuntimeError(
            "grid counterexample failed replay; decision model out of sync "
            "with the simulator"
        )
    return SynthesisResult(
        "feasible",
        parameters=assignment,
        ledger=ledger,
        verdict=verdict,
        grid=spec,
    )


def load_template(source) -> BookTemplate:
    """Build a BookTemplate from a template document (mapping or path)."""
    doc, where = read_document(source)
    require_keys(doc, where, required={"bets"}, optional={"epsilon"})
    epsilon = parse_rational(doc.get("epsilon", 1), f"{where}.epsilon")
    bets = []
    for index, entry in enumerate(list_field(doc, "bets", where)):
        sub = f"{where}.bets[{index}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{sub}: expected an object")
        require_keys(
            entry,
            sub,
            required={"id", "cost", "payout", "payoff_event", "offer"},
            optional={"bounds"},
        )
        event = string_list(entry["payoff_event"], f"{sub}.payoff_event", "world ids")
        cost = None if entry["cost"] == "?" else parse_rational(entry["cost"], f"{sub}.cost")
        payout = (
            None if entry["payout"] == "?" else parse_rational(entry["payout"], f"{sub}.payout")
        )
        cost_bounds = payout_bounds = None
        if "bounds" in entry:
            bounds_doc = entry["bounds"]
            if not isinstance(bounds_doc, dict):
                raise DocumentError(f"{sub}.bounds: expected an object")
            require_keys(bounds_doc, f"{sub}.bounds", required=set(), optional={"cost", "payout"})
            if "cost" in bounds_doc:
                if cost is not None:
                    raise DocumentError(f"{sub}.bounds.cost: cost is not symbolic")
                cost_bounds = parse_bounds(bounds_doc["cost"], f"{sub}.bounds.cost")
            if "payout" in bounds_doc:
                if payout is not None:
                    raise DocumentError(f"{sub}.bounds.payout: payout is not symbolic")
                payout_bounds = parse_bounds(bounds_doc["payout"], f"{sub}.bounds.payout")
        bets.append(
            TemplateBet(
                id=string_field(entry, "id", sub),
                cost=cost,
                payout=payout,
                payoff_event=frozenset(event),
                offer=parse_offer(entry["offer"], sub),
                cost_bounds=cost_bounds,
                payout_bounds=payout_bounds,
            )
        )
    return BookTemplate(tuple(bets), epsilon)


def parse_bounds(value, where: str) -> Bounds:
    """Parse "lo/hi" (integer ends) or a two-element list of "p/q" rationals."""
    if isinstance(value, str):
        parts = value.split("/")
        if len(parts) != 2:
            raise DocumentError(f'{where}: expected "lo/hi" with integer ends')
        try:
            return tuple(Fraction(parse_integer(part, where)) for part in parts)
        except ValueError as exc:
            raise DocumentError(
                f'{where}: expected "lo/hi" with integer ends, got {abbreviate(value)!r}; '
                f"use the [lo, hi] list form for fractional bounds"
            ) from exc
    if isinstance(value, list) and len(value) == 2:
        return (
            parse_rational(value[0], f"{where}[0]"),
            parse_rational(value[1], f"{where}[1]"),
        )
    raise DocumentError(f'{where}: expected "lo/hi" or a [lo, hi] pair')
