"""Accept-or-reject evaluation of bets under causal or evidential reasoning.

A causal reasoner scores only the acceptance in front of her: her delta is
the credence-weighted net payout of one acceptance. An evidential reasoner
treats her choice as evidence about linked choices elsewhere. Linked means:
other centers in the same information state (always, with full confidence),
and, under alike-class linkage, centers whose observation falls in the same
validated alikeness class, matched with confidence rho. The delta reported
is EU(accept) minus EU(reject), where rejecting is symmetric evidence of
linked rejection; centers outside the class contribute the same unknown
amount to both branches and cancel. With n same-state acceptances and m
class-linked ones in a world, the per-world multiplier on the bet's net
payout works out to n + (2*rho - 1)*m.

With rho = p/q, decision weights stay integers over one denominator: each
world's credence numerator times q*n + (2p - q)*m, over q times the credence
denominator. A delta's two coefficients are the only Fractions it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import NamedTuple, Union

from .credence import CredenceRule, world_weights
from .errors import InvariantError, OfferError, UnjustifiedClassError
from .model import (
    AlikenessCheck,
    Center,
    Experiment,
    InformationState,
    WorldWeights,
    consistent_centers,
    count_by_world,
    verify_alikeness,
)


@dataclass(frozen=True)
class PreExperiment:
    """Offered once, before the experiment starts; agent tag is for bookkeeping."""

    agent: str | None = None


@dataclass(frozen=True)
class OnObservation:
    """Offered at every center matching the given observations (and agent, if set).

    A slot restriction makes the offer depend on something the agent cannot
    see; it exists so the engine can represent and study illegitimate books,
    and check_legitimacy flags it.
    """

    observations: frozenset[str]
    agent: str | None = None
    slots: frozenset[str] | None = None


OfferRule = Union[PreExperiment, OnObservation]


@dataclass(frozen=True)
class Bet:
    id: str
    cost: Fraction
    payout: Fraction
    payoff_event: frozenset[str]
    offer: OfferRule

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise InvariantError(f"bet {self.id!r}: cost must be >= 0")
        if self.payout < 0:
            raise InvariantError(f"bet {self.id!r}: payout must be >= 0")

    def net(self, world_id: str) -> Fraction:
        """Net gain of one acceptance in the given world, cost included."""
        won = self.payout if world_id in self.payoff_event else Fraction(0)
        return won - self.cost


@dataclass(frozen=True)
class SameInfoOnly:
    """A decision is evidence only about decisions in the very same state."""


@dataclass(frozen=True)
class AlikeClasses:
    """A decision is evidence about decisions across an alikeness class.

    rho is the agent's confidence that her choice is matched at a linked
    center; inside one information state the match is always total.
    """

    rho: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if not 0 <= self.rho <= 1:
            raise InvariantError(f"rho must lie in [0, 1], got {self.rho}")


LinkageModel = Union[SameInfoOnly, AlikeClasses]


@dataclass(frozen=True)
class CDT:
    pass


@dataclass(frozen=True)
class EDT:
    linkage: LinkageModel = AlikeClasses()


DecisionTheory = Union[CDT, EDT]


class TieRule:
    REJECT_AT_ZERO = "reject"
    ACCEPT_AT_ZERO = "accept"


@dataclass(frozen=True)
class AgentSpec:
    rule: CredenceRule
    theory: DecisionTheory
    tie_rule: str = TieRule.REJECT_AT_ZERO


@dataclass(frozen=True)
class Decision:
    accept: bool
    delta: Fraction


def offered_at_center(offer: OfferRule, center: Center) -> bool:
    if isinstance(offer, PreExperiment):
        return False
    if center.observation not in offer.observations:
        return False
    if offer.agent is not None and center.agent != offer.agent:
        return False
    if offer.slots is not None and center.slot not in offer.slots:
        return False
    return True


def offered_at_state(e: Experiment, offer: OfferRule, i: InformationState) -> bool:
    """Whether the offer is made at some center consistent with ``i``."""
    centers = consistent_centers(e, i)
    if isinstance(offer, OnObservation) and offer.slots is None:
        # Decided by what the state fixes: at all of its centers or at none.
        return bool(centers) and offered_at_center(offer, centers[0])
    return any(offered_at_center(offer, c) for c in centers)


def _class_check(e: Experiment, cls: frozenset[str]) -> AlikenessCheck:
    checks = e._alikeness_checks
    if cls not in checks:
        checks[cls] = verify_alikeness(e, cls)
    return checks[cls]


def _acceptance_multipliers(
    e: Experiment, i: InformationState, offer: OfferRule, linkage: LinkageModel
) -> tuple[dict[str, int], int]:
    """Net acceptances the choice controls per world (same-state plus linked) times q."""
    offered = partial(offered_at_center, offer)
    own = count_by_world(e, [i], offered)
    if isinstance(linkage, SameInfoOnly):
        return own, 1
    cls = e.alikeness_class_of(i.observation)
    if len(cls) > 1:
        check = _class_check(e, cls)
        if not check.justified:
            raise UnjustifiedClassError(
                f"alikeness class {sorted(cls)} is not justified: {check.reason}"
            )
    class_states = [InformationState(obs, agent) for obs in cls for agent in e.agents]
    linked = count_by_world(e, [state for state in class_states if state != i], offered)
    p, q = linkage.rho.numerator, linkage.rho.denominator
    scaled = {w: q * own.get(w, 0) + (2 * p - q) * linked.get(w, 0) for w in own | linked}
    return scaled, q


def decision_weights(
    agent: AgentSpec, e: Experiment, i: InformationState, offer: OfferRule
) -> WorldWeights:
    """Per-world weight on the bet's net payout: credence times multiplier.

    Only worlds of positive credence appear. Evaluation and synthesis both
    turn these weights into a delta through ``delta_form``.
    """
    weights = world_weights(agent.rule, e, i)
    if isinstance(agent.theory, CDT):
        return weights
    multipliers, q = _acceptance_multipliers(e, i, offer, agent.theory.linkage)
    return WorldWeights(
        {w: n * multipliers.get(w, 0) for w, n in weights.numerators.items()},
        weights.denominator * q,
    )


class DeltaForm(NamedTuple):
    """A delta as a linear form in one bet's payout and cost."""

    payout_coef: Fraction
    cost_coef: Fraction

    def at(self, payout: Fraction, cost: Fraction) -> Fraction:
        return self.payout_coef * payout + self.cost_coef * cost


def delta_form(weights: WorldWeights, payoff_event: frozenset[str]) -> DeltaForm:
    """The delta sum_w weights[w] * net(w) as (payout_coef, cost_coef).

    As net(w) = payout * [w in event] - cost, payout_coef is the weight on
    the payoff event and cost_coef is minus the total weight.
    """
    numerators, denominator = weights
    on_event = sum(n for w, n in numerators.items() if w in payoff_event)
    return DeltaForm(
        Fraction(on_event, denominator), Fraction(-sum(numerators.values()), denominator)
    )


def _decide(tie_rule: str, delta: Fraction) -> Decision:
    accept = delta > 0 or (delta == 0 and tie_rule == TieRule.ACCEPT_AT_ZERO)
    return Decision(accept, delta)


def _require_offered(e: Experiment, i: InformationState, b: Bet) -> None:
    if isinstance(b.offer, PreExperiment):
        raise OfferError(
            f"bet {b.id!r} is a pre-experiment bet; use evaluate_pre_experiment"
        )
    if not offered_at_state(e, b.offer, i):
        raise OfferError(
            f"bet {b.id!r} is not offered at observation {i.observation!r} "
            f"for agent {i.agent!r}"
        )


def evaluate_offer(
    agent: AgentSpec, e: Experiment, i: InformationState, b: Bet
) -> Decision:
    """Decide a bet offered in-experiment at information state ``i``."""
    _require_offered(e, i, b)
    form = delta_form(decision_weights(agent, e, i, b.offer), b.payoff_event)
    return _decide(agent.tie_rule, form.at(b.payout, b.cost))


def evaluate_pre_experiment(agent: AgentSpec, e: Experiment, b: Bet) -> Decision:
    """Decide a bet offered once before the experiment; theories agree here."""
    if not isinstance(b.offer, PreExperiment):
        raise OfferError(f"bet {b.id!r} is offered in-experiment, not before it")
    form = delta_form(e._priors, b.payoff_event)
    return _decide(agent.tie_rule, form.at(b.payout, b.cost))


def briggs_condition(e: Experiment, b: Bet, i: InformationState) -> Fraction:
    """Prior-weighted, consistent-center-counted net payout of the bet.

    Positive means accept under the betting rule that multiplies each
    surviving world's renormalized prior by its consistent-center count.
    On experiments where every awakening carries the same information this
    agrees in sign with both the causal thirder and the evidential halfer.
    """
    _require_offered(e, i, b)
    priors = e._priors.numerators
    counts = count_by_world(e, [i])
    numerators = {w: priors[w] * n for w, n in counts.items()}
    weights = WorldWeights(numerators, sum(priors[w] for w in counts))
    return delta_form(weights, b.payoff_event).at(b.payout, b.cost)


def rho_threshold(
    rule: CredenceRule, e: Experiment, i: InformationState, b: Bet
) -> Fraction | None:
    """Confidence at which the evidential delta crosses zero, if it does.

    The delta is affine in rho, so two evaluations pin it down. Returns
    None when the delta does not depend on rho; a root outside [0, 1]
    means no crossing at any admissible confidence.
    """
    deltas = []
    for rho in (Fraction(0), Fraction(1)):
        agent = AgentSpec(rule, EDT(AlikeClasses(rho)))
        deltas.append(evaluate_offer(agent, e, i, b).delta)
    at_zero, at_one = deltas
    if at_one == at_zero:
        return None
    return at_zero / (at_zero - at_one)
