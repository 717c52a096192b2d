"""Books of bets: legitimacy checking, world-by-world simulation, verdicts.

A book is Dutch against an agent exactly when she accepts every offer it
makes and still comes out strictly behind in every world. An offer may
depend only on what the agent knows, her information state, so an offer
without a slot restriction is made at all of a state's centers or at none,
and an agent with the same information and the same bet in front of her
decides the same way every time. Simulation therefore decides each bet once
per information state and walks each world slot by slot, adding at each
center the bets its state accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping

from .decision import (
    AgentSpec,
    Bet,
    Decision,
    OnObservation,
    PreExperiment,
    evaluate_offer,
    evaluate_pre_experiment,
    offered_at_center,
)
from .docio import list_field, read_document, require_keys, string_field, string_list
from .errors import DocumentError, InvariantError, LegitimacyError, UnknownLabelError
from .model import Center, Experiment, InformationState, consistent_centers
from .rationals import parse_rational

PRE_SLOT = "pre"


@dataclass(frozen=True)
class Book:
    bets: tuple[Bet, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        in_experiment_seen = False
        for bet in self.bets:
            if bet.id in seen:
                raise InvariantError(f"book: duplicate bet id {bet.id!r}")
            seen.add(bet.id)
            if isinstance(bet.offer, PreExperiment):
                if in_experiment_seen:
                    raise InvariantError(
                        f"book: pre-experiment bet {bet.id!r} must come before "
                        f"in-experiment bets"
                    )
            else:
                in_experiment_seen = True

    @property
    def pre_bets(self) -> tuple[Bet, ...]:
        return tuple(b for b in self.bets if isinstance(b.offer, PreExperiment))

    @property
    def in_experiment_bets(self) -> tuple[Bet, ...]:
        return tuple(b for b in self.bets if isinstance(b.offer, OnObservation))


@dataclass(frozen=True)
class LedgerEntry:
    bet_id: str
    slot: str  # a slot label, or "pre"
    agent: str
    net: Fraction


@dataclass(frozen=True)
class Ledger:
    """Accepted-bet nets per world, in offer order."""

    entries: Mapping[str, tuple[LedgerEntry, ...]]

    @cached_property
    def _totals(self) -> dict[str, Fraction]:
        """Each world's sum of nets, added as integers over the lcm of their denominators."""
        totals = {}
        for world_id, entries in self.entries.items():
            nets = [entry.net for entry in entries]
            scale = lcm(*(net.denominator for net in nets))
            totals[world_id] = Fraction(
                sum(net.numerator * (scale // net.denominator) for net in nets), scale
            )
        return totals

    def total(self, world_id: str) -> Fraction:
        return self._totals[world_id]

    def totals(self) -> dict[str, Fraction]:
        return dict(self._totals)


@dataclass(frozen=True)
class DutchBookVerdict:
    is_dutch_book: bool
    all_accepted: bool
    worst_loss: Fraction  # minimum world total; the agent's worst case
    per_world_totals: Mapping[str, Fraction]


@dataclass(frozen=True)
class LegitimacyCheck:
    legitimate: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.legitimate


def validate_book(e: Experiment, book: Book) -> None:
    """Check that every label a book references exists in the experiment."""
    for bet in book.bets:
        unknown_worlds = bet.payoff_event - set(e.world_ids)
        if unknown_worlds:
            raise UnknownLabelError(
                f"bet {bet.id!r}: unknown world(s) {sorted(unknown_worlds)} in payoff event"
            )
        offer = bet.offer
        if isinstance(offer, PreExperiment):
            if offer.agent is not None and offer.agent not in e.agents:
                raise UnknownLabelError(f"bet {bet.id!r}: unknown agent {offer.agent!r}")
            continue
        unknown_obs = offer.observations - e.observations
        if unknown_obs:
            raise UnknownLabelError(
                f"bet {bet.id!r}: unknown observation(s) {sorted(unknown_obs)} in offer rule"
            )
        if offer.agent is not None and offer.agent not in e.agents:
            raise UnknownLabelError(f"bet {bet.id!r}: unknown agent {offer.agent!r}")
        if offer.slots is not None:
            unknown_slots = offer.slots - set(e.slots)
            if unknown_slots:
                raise UnknownLabelError(
                    f"bet {bet.id!r}: unknown slot(s) {sorted(unknown_slots)} in offer rule"
                )


def check_legitimacy(e: Experiment, book: Book) -> LegitimacyCheck:
    """Verify that offers are a function of the agent's information alone.

    Concretely: for any two centers an agent cannot tell apart (same
    observation, same agent), a bet must be offered at both or at neither.
    Pre-experiment offers are always legitimate, and so is an offer without
    a slot restriction, which only the observation and agent decide; only
    slot-restricted offers are checked center by center.
    """
    validate_book(e, book)
    for bet in book.in_experiment_bets:
        if bet.offer.slots is None:
            continue
        for state in e.information_states():
            centers = consistent_centers(e, state)
            offered = [c for c in centers if offered_at_center(bet.offer, c)]
            if 0 < len(offered) < len(centers):
                skipped = next(c for c in centers if c not in offered)
                same_world = [c for c in offered if c.world == skipped.world]
                shown = same_world[0] if same_world else offered[0]
                return LegitimacyCheck(
                    False,
                    f"bet {bet.id!r} is offered at center ({shown.world}, {shown.slot}, "
                    f"agent {shown.agent}) but not at ({skipped.world}, {skipped.slot}, "
                    f"agent {skipped.agent}); both carry observation {state.observation!r}, "
                    f"so the offer process uses information the agent does not have",
                )
    return LegitimacyCheck(True)


def simulate_book(
    agent: AgentSpec, e: Experiment, book: Book, allow_illegitimate: bool = False
) -> tuple[Ledger, DutchBookVerdict]:
    """Run the book against the agent in every world and judge the outcome.

    Each bet is decided once per information state, at the first center of
    the state in the walk (worlds in order, then slots, then agents) where it
    is offered; so decisions happen in walk order, and the first error raised
    is the one that walk meets first. A world's ledger lists its centers in
    slot order, agents in declaration order within a slot, each followed by
    the bets its state accepts in book order; a slot-restricted bet is added
    only at the centers whose slot it names.
    """
    validate_book(e, book)
    if not allow_illegitimate:
        check = check_legitimacy(e, book)
        if not check:
            raise LegitimacyError(check.reason)

    decisions: dict[object, Decision] = {
        (PRE_SLOT, bet.id): evaluate_pre_experiment(agent, e, bet) for bet in book.pre_bets
    }

    def accepts(center: Center, bet: Bet) -> bool:
        key = (center.observation, center.agent, bet.id)
        if key not in decisions:
            state = InformationState(center.observation, center.agent)
            decisions[key] = evaluate_offer(agent, e, state, bet)
        return decisions[key].accept

    def state_bets(center: Center) -> list[Bet]:
        """The accepted unrestricted bets of the center's state, and every slot-restricted bet."""
        return [
            bet
            for bet in in_experiment_bets
            if bet.offer.slots is not None
            or (offered_at_center(bet.offer, center) and accepts(center, bet))
        ]

    pre_bets, in_experiment_bets = book.pre_bets, book.in_experiment_bets
    # Each bet's net in a world outside its payoff event, then inside it.
    nets = {bet.id: (-bet.cost, bet.payout - bet.cost) for bet in book.bets}
    by_state: dict[tuple[str, str], list[Bet]] = {}
    entries: dict[str, tuple[LedgerEntry, ...]] = {}
    for world in e.worlds:
        world_entries: list[LedgerEntry] = []
        for bet in pre_bets:
            if decisions[PRE_SLOT, bet.id].accept:
                holder = bet.offer.agent or e.agents[0]
                net = nets[bet.id][world.id in bet.payoff_event]
                world_entries.append(LedgerEntry(bet.id, PRE_SLOT, holder, net))
        for slot in e.slots:
            for agent_label in e.agents:
                center = e.center_at(world.id, slot, agent_label)
                if center is None:
                    continue
                key = (center.observation, agent_label)
                if key not in by_state:
                    by_state[key] = state_bets(center)
                for bet in by_state[key]:
                    if bet.offer.slots is None or (
                        offered_at_center(bet.offer, center) and accepts(center, bet)
                    ):
                        net = nets[bet.id][world.id in bet.payoff_event]
                        world_entries.append(LedgerEntry(bet.id, slot, agent_label, net))
        entries[world.id] = tuple(world_entries)

    ledger = Ledger(entries)
    totals = ledger.totals()
    all_accepted = all(decision.accept for decision in decisions.values())
    verdict = DutchBookVerdict(
        is_dutch_book=all_accepted and all(total < 0 for total in totals.values()),
        all_accepted=all_accepted,
        worst_loss=min(totals.values()),
        per_world_totals=totals,
    )
    return ledger, verdict


def load_book(source) -> Book:
    """Build a Book from a book document (mapping or path)."""
    doc, where = read_document(source)
    require_keys(doc, where, required={"bets"})
    bets = []
    for index, entry in enumerate(list_field(doc, "bets", where)):
        sub = f"{where}.bets[{index}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{sub}: expected an object")
        require_keys(entry, sub, required={"id", "cost", "payout", "payoff_event", "offer"})
        event = string_list(entry["payoff_event"], f"{sub}.payoff_event", "world ids")
        bets.append(
            Bet(
                id=string_field(entry, "id", sub),
                cost=parse_rational(entry["cost"], f"{sub}.cost"),
                payout=parse_rational(entry["payout"], f"{sub}.payout"),
                payoff_event=frozenset(event),
                offer=parse_offer(entry["offer"], sub),
            )
        )
    return Book(tuple(bets))


def parse_offer(value, where: str):
    """Parse "pre" | {"pre": true, ...} | {"observations": [...], ...}."""
    if value == PRE_SLOT:
        return PreExperiment()
    if not isinstance(value, dict):
        raise DocumentError(f'{where}.offer: expected "pre" or an object')
    pre = PRE_SLOT in value
    if pre and value[PRE_SLOT] is not True:
        raise DocumentError(f"{where}.offer.pre: expected true")
    keys = ({PRE_SLOT}, {"agent"}) if pre else ({"observations"}, {"agent", "slots"})
    require_keys(value, f"{where}.offer", *keys)
    agent = value.get("agent")
    if agent is not None and not isinstance(agent, str):
        raise DocumentError(f"{where}.offer.agent: expected a string")
    if pre:
        return PreExperiment(agent)
    observations = string_list(value["observations"], f"{where}.offer.observations", "labels")
    slots = value.get("slots")
    if slots is not None:
        slots = frozenset(string_list(slots, f"{where}.offer.slots", "labels"))
    return OnObservation(frozenset(observations), agent, slots)
