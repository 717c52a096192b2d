"""Integer world weights over one common denominator, checked against the
per-center Fraction path they replaced (``helpers.credence_by_fractions`` and
``helpers.decision_weights_by_fractions``)."""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerbook import (
    CDT,
    EDT,
    AgentSpec,
    AlikeClasses,
    CredenceRule,
    InformationState,
    SameInfoOnly,
    UnjustifiedClassError,
    briggs_condition,
    credence,
    evaluate_pre_experiment,
    load_experiment,
    verify_alikeness,
)
from centerbook import decision as decision_module
from centerbook.credence import world_weights
from centerbook.decision import (
    Bet,
    OnObservation,
    PreExperiment,
    decision_weights,
    delta_form,
)
from centerbook.model import WorldWeights
from helpers import (
    count_centers_by_scan,
    credence_by_fractions,
    decision_weights_by_fractions,
    delta_form_by_fractions,
    random_agent_twin_experiment,
    random_coprime_experiment,
    random_multi_agent_book,
    random_multi_agent_experiment,
    random_uniform_info_experiment,
)

# The package re-exports the function `credence`, so the module is fetched by name.
credence_module = importlib.import_module("centerbook.credence")
F = Fraction
RHOS = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]
THEORIES = [CDT(), EDT(SameInfoOnly())] + [EDT(AlikeClasses(rho)) for rho in RHOS]
AGENTS = [AgentSpec(rule, theory) for rule in CredenceRule for theory in THEORIES]
GENERATORS = [
    random_uniform_info_experiment,
    random_multi_agent_experiment,
    random_agent_twin_experiment,
    random_coprime_experiment,
]
SEEDS = range(40)


def as_fractions(weights: WorldWeights) -> dict[str, Fraction]:
    return {w: F(n, weights.denominator) for w, n in weights.numerators.items()}


def offers_and_events(rng: random.Random, e):
    """Offer rules and payoff events from a random book, plus the two extreme events."""
    bets = random_multi_agent_book(rng, e).in_experiment_bets
    events = {bet.payoff_event for bet in bets} | {frozenset(), frozenset(e.world_ids)}
    return [bet.offer for bet in bets], sorted(events, key=sorted)


def check_against_oracle(e, rng: random.Random, agents=AGENTS) -> int:
    """Compare every weight, delta form and credence with the Fraction path.

    Returns how many decision weights were compared; where the Fraction path
    raises UnjustifiedClassError, the integer path must raise it too.
    """
    compared = 0
    offers, events = offers_and_events(rng, e)
    for i in e.information_states():
        for rule in CredenceRule:
            got, want = credence(rule, e, i), credence_by_fractions(rule, e, i)
            assert got.items() == want.items()
            for world_id in e.world_ids:
                assert got.world(world_id) == want.world(world_id)
            assert as_fractions(world_weights(rule, e, i)) == {
                w: want.world(w) for w in e.world_ids if want.world(w) > 0
            }
        for offer in offers:
            for agent in agents:
                try:
                    want = decision_weights_by_fractions(agent, e, i, offer)
                except UnjustifiedClassError:
                    with pytest.raises(UnjustifiedClassError):
                        decision_weights(agent, e, i, offer)
                    continue
                got = decision_weights(agent, e, i, offer)
                assert all(type(n) is int for n in got.numerators.values())
                assert type(got.denominator) is int and got.denominator > 0
                assert as_fractions(got) == want, (agent, i, offer)
                for event in events:
                    assert tuple(delta_form(got, event)) == delta_form_by_fractions(want, event)
                compared += 1
    priors = {w.id: w.prior for w in e.worlds}
    assert as_fractions(e._priors) == priors
    for event in events:
        assert tuple(delta_form(e._priors, event)) == delta_form_by_fractions(priors, event)
    return compared


@pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
def test_weights_match_fraction_path(generator):
    compared = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        compared += check_against_oracle(generator(rng), rng)
    assert compared > 500


def test_coprime_generator_exercises_the_common_denominator():
    distinct_denominators = unequal_awakenings = justified = unjustified = 0
    for seed in SEEDS:
        e = random_coprime_experiment(random.Random(seed))
        distinct_denominators += len({w.prior.denominator for w in e.worlds}) >= 3
        for i in e.information_states():
            worlds = {c.world for c in e._centers_by_state[i.observation, i.agent]}
            if len({e.awakenings(w, i.agent) for w in worlds}) > 1:
                unequal_awakenings += 1
        for cls in e.alikeness:
            if len(cls) > 1:
                verdict = verify_alikeness(e, cls).justified
                justified += verdict
                unjustified += not verdict
    assert distinct_denominators >= 10
    assert unequal_awakenings >= 40
    assert justified >= 5 and unjustified >= 5


def test_pre_experiment_and_briggs_match_fraction_formulas():
    for seed in SEEDS:
        rng = random.Random(seed)
        e = random_coprime_experiment(rng)
        _, events = offers_and_events(rng, e)
        agent = AgentSpec(CredenceRule.THIRDER, CDT())
        for event in events:
            cost, payout = F(rng.randint(0, 20)), F(rng.randint(0, 40))

            def net(world_id: str) -> Fraction:
                return (payout if world_id in event else 0) - cost

            pre = Bet("pre", cost, payout, event, PreExperiment())
            expected = sum(w.prior * net(w.id) for w in e.worlds)
            assert evaluate_pre_experiment(agent, e, pre).delta == expected
            for i in e.information_states():
                bet = Bet("b", cost, payout, event, OnObservation(frozenset([i.observation])))
                counts = {w.id: count_centers_by_scan(e, w.id, i) for w in e.worlds}
                normalizer = sum(e.world(w).prior for w, n in counts.items() if n)
                expected = sum(e.world(w).prior / normalizer * n * net(w) for w, n in counts.items())
                assert briggs_condition(e, bet, i) == expected


def test_a_decision_builds_only_the_two_delta_coefficients(monkeypatch):
    built = []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(decision_module, "Fraction", counting_fraction)
    monkeypatch.setattr(credence_module, "Fraction", counting_fraction)
    e = random_coprime_experiment(random.Random(3))
    assert len(e.worlds) >= 4
    offer = OnObservation(frozenset(e.observations))
    for i in e.information_states():
        for agent in AGENTS:
            built.clear()
            try:
                delta_form(decision_weights(agent, e, i, offer), frozenset(e.world_ids[:1]))
            except UnjustifiedClassError:
                continue
            assert len(built) == 2


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    generator=st.sampled_from(GENERATORS),
    rule=st.sampled_from(list(CredenceRule)),
    rho=st.fractions(0, 1, max_denominator=12),
)
def test_weights_match_fraction_path_on_drawn_cases(seed, generator, rule, rho):
    rng = random.Random(seed)
    e = generator(rng)
    agents = [
        AgentSpec(rule, CDT()),
        AgentSpec(rule, EDT(SameInfoOnly())),
        AgentSpec(rule, EDT(AlikeClasses(rho))),
    ]
    check_against_oracle(e, rng, agents)


def test_halfer_random_awakening_weights_scale_by_awakenings():
    # Heads: one awakening; tails: two awakenings, one of them red. Priors 1/3, 2/3.
    e = load_experiment(
        {
            "worlds": [{"id": "h", "prior": "1/3"}, {"id": "t", "prior": "2/3"}],
            "slots": ["mon", "tue"],
            "centers": [
                {"world": "h", "slot": "mon", "observation": "red"},
                {"world": "t", "slot": "mon", "observation": "red"},
                {"world": "t", "slot": "tue", "observation": "blue"},
            ],
        }
    )
    weights = world_weights(CredenceRule.HALFER_RANDOM_AWAKENING, e, InformationState("red"))
    assert as_fractions(weights) == {"h": F(1, 2), "t": F(1, 2)}
    assert as_fractions(world_weights(CredenceRule.THIRDER, e, InformationState("red"))) == {
        "h": F(1, 3),
        "t": F(2, 3),
    }
