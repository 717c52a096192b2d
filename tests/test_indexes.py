"""The Experiment's lookup tables and the shared count and delta paths,
checked against linear scans of ``e.centers`` on random experiments."""

import random
from fractions import Fraction

import pytest

from centerbook import (
    EDT,
    AgentSpec,
    AlikeClasses,
    Bet,
    CredenceRule,
    InformationState,
    OnObservation,
    UnjustifiedClassError,
    check_legitimacy,
    consistent_centers,
    count_centers,
    credence,
    evaluate_offer,
    experiment_to_document,
    load_experiment,
    simulate_book,
    verify_alikeness,
)
from centerbook.decision import offered_at_center, offered_at_state
from helpers import (
    consistent_centers_by_scan,
    count_centers_by_scan,
    edt_delta_by_profile_enumeration,
    information_states_by_scan,
    ledger_by_walk,
    legitimate_by_scan,
    random_agent,
    random_multi_agent_book,
    random_multi_agent_experiment,
    unjustified_error_by_walk,
    world_credence_by_scan,
)

F = Fraction
SEEDS = range(150)


def experiments():
    for seed in SEEDS:
        yield seed, random_multi_agent_experiment(random.Random(seed))


def test_generator_yields_justified_and_unjustified_classes():
    verdicts = [
        verify_alikeness(e, cls).justified
        for _, e in experiments()
        for cls in e.alikeness
        if len(cls) > 1
    ]
    assert verdicts.count(True) >= 20
    assert verdicts.count(False) >= 20
    assert sum(len(e.agents) == 2 for _, e in experiments()) >= 40


def test_lookups_match_linear_scans():
    for seed, e in experiments():
        assert e.information_states() == tuple(information_states_by_scan(e)), seed
        assert e.observations == {c.observation for c in e.centers}
        for world in e.worlds:
            assert e.world(world.id) is world
            assert count_centers(e, world.id) == count_centers_by_scan(e, world.id)
            for slot in e.slots:
                for agent in e.agents:
                    found = [
                        c
                        for c in e.centers
                        if (c.world, c.slot, c.agent) == (world.id, slot, agent)
                    ]
                    assert e.center_at(world.id, slot, agent) == (found[0] if found else None)
        for observation in e.observations:
            for agent in e.agents:
                i = InformationState(observation, agent)
                assert consistent_centers(e, i) == consistent_centers_by_scan(e, i), seed
                for world_id in e.world_ids:
                    assert count_centers(e, world_id, i) == count_centers_by_scan(
                        e, world_id, i
                    )


def test_centers_in_walks_slots_then_agents():
    for _, e in experiments():
        for world_id in e.world_ids:
            walk = e.centers_in(world_id)
            assert sorted(walk, key=id) == sorted(
                (c for c in e.centers if c.world == world_id), key=id
            )
            order = [(e.slots.index(c.slot), e.agents.index(c.agent)) for c in walk]
            assert order == sorted(order)


def test_credence_per_world_matches_definition():
    for seed, e in experiments():
        for i in e.information_states():
            for rule in CredenceRule:
                dist = credence(rule, e, i)
                expected = world_credence_by_scan(rule, e, i)
                assert dist.total() == 1
                for world_id in e.world_ids:
                    assert dist.world(world_id) == expected.get(world_id, 0), (seed, rule)


def test_edt_deltas_match_profile_enumeration():
    for seed, e in experiments():
        rng = random.Random(seed)
        for i in e.information_states():
            others = [o for o in sorted(e.observations) if rng.random() < 0.5]
            bet = Bet(
                "bet",
                F(rng.randint(0, 20)),
                F(rng.randint(0, 40)),
                frozenset(w for w in e.world_ids if rng.random() < 0.5),
                OnObservation(frozenset([i.observation, *others]), rng.choice([None, i.agent])),
            )
            cls = e.alikeness_class_of(i.observation)
            justified = verify_alikeness(e, cls).justified
            for rule in CredenceRule:
                for rho in (F(0), F(1, 3), F(1)):
                    agent = AgentSpec(rule, EDT(AlikeClasses(rho)))
                    if not justified:
                        with pytest.raises(UnjustifiedClassError):
                            evaluate_offer(agent, e, i, bet)
                        continue
                    expected = edt_delta_by_profile_enumeration(rule, e, i, bet, rho)
                    assert evaluate_offer(agent, e, i, bet).delta == expected, (seed, rule)


def _check_simulation_against_walk(restrict_slots: bool) -> list[bool]:
    """simulate_book against the memo-free walk, raising the walk's first class error."""
    legitimacy = []
    for seed, e in experiments():
        rng = random.Random(seed)
        for _ in range(3):
            agent = random_agent(rng)
            book = random_multi_agent_book(rng, e, restrict_slots)
            legitimate = legitimate_by_scan(e, book)
            assert bool(check_legitimacy(e, book)) == legitimate, seed
            legitimacy.append(legitimate)
            alike = isinstance(agent.theory, EDT) and isinstance(
                agent.theory.linkage, AlikeClasses
            )
            unjustified = unjustified_error_by_walk(e, book) if alike else None
            if unjustified is not None:
                with pytest.raises(UnjustifiedClassError) as info:
                    simulate_book(agent, e, book, allow_illegitimate=restrict_slots)
                assert str(info.value) == unjustified, seed
                continue
            ledger, verdict = simulate_book(agent, e, book, allow_illegitimate=restrict_slots)
            walked = ledger_by_walk(agent, e, book)
            entries = {
                world_id: [(x.bet_id, x.slot, x.agent, x.net) for x in rows]
                for world_id, rows in ledger.entries.items()
            }
            assert entries == walked, seed
            totals = {world_id: sum(x[3] for x in rows) for world_id, rows in walked.items()}
            assert verdict.per_world_totals == totals
            assert verdict.worst_loss == min(totals.values())
    return legitimacy


def test_simulate_book_matches_ledger_walk():
    assert all(_check_simulation_against_walk(restrict_slots=False))


def test_slot_restricted_books_match_ledger_walk():
    legitimacy = _check_simulation_against_walk(restrict_slots=True)
    assert legitimacy.count(False) >= 50
    assert legitimacy.count(True) >= 50


def test_first_class_error_follows_the_walk():
    """The first unjustified class met in the walk raises, whatever the declaration order.

    Centers are declared in shuffled order, so the order in which information
    states first occur differs from the walk's, and observations are paired
    into classes, so that several unjustified classes can be decided.
    """
    several = 0
    for seed, e in experiments():
        rng = random.Random(seed)
        doc = experiment_to_document(e)
        rng.shuffle(doc["centers"])
        used = sorted(e.observations)
        rng.shuffle(used)
        doc["alikeness"] = [used[k : k + 2] for k in range(0, len(used), 2)]
        shuffled = load_experiment(doc)
        for _ in range(6):
            book = random_multi_agent_book(rng, shuffled)
            expected = unjustified_error_by_walk(shuffled, book)
            if expected is None:
                continue
            with pytest.raises(UnjustifiedClassError) as info:
                simulate_book(AgentSpec(CredenceRule.THIRDER, EDT()), shuffled, book)
            assert str(info.value) == expected, seed
            decided = {
                shuffled.alikeness_class_of(c.observation)
                for c in shuffled.centers
                for bet in book.in_experiment_bets
                if offered_at_center(bet.offer, c)
            }
            unjustified = [c for c in decided if len(c) > 1 and not verify_alikeness(shuffled, c)]
            several += len(unjustified) > 1
    assert several >= 10


def test_offered_at_state_matches_center_scan():
    for seed, e in experiments():
        rng = random.Random(seed)
        for bet in random_multi_agent_book(rng, e, restrict_slots=True).in_experiment_bets:
            for observation in e.observations:
                for agent in e.agents:
                    i = InformationState(observation, agent)
                    expected = any(
                        offered_at_center(bet.offer, c) for c in consistent_centers_by_scan(e, i)
                    )
                    assert offered_at_state(e, bet.offer, i) == expected, seed
