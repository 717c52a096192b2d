import random
from fractions import Fraction

import pytest

from centerbook import (
    Bet,
    Book,
    CredenceRule,
    EDT,
    AgentSpec,
    AlikeClasses,
    InvariantError,
    LegitimacyError,
    OnObservation,
    PreExperiment,
    TieRule,
    UnjustifiedClassError,
    UnknownLabelError,
    check_legitimacy,
    load_book,
    simulate_book,
)
from centerbook.dutchbook import LedgerEntry
from helpers import (
    halfer_cdt,
    halfer_edt,
    random_agent,
    random_coprime_experiment,
    random_multi_agent_book,
    thirder_cdt,
)

F = Fraction


def entries(ledger, world_id):
    return [(e.bet_id, e.slot, e.agent, e.net) for e in ledger.entries[world_id]]


def test_wbg_book_is_legitimate(wbg, wbg_book):
    assert check_legitimacy(wbg, wbg_book).legitimate


def test_two_beauties_book_is_legitimate(two_beauties, two_beauties_book):
    assert check_legitimacy(two_beauties, two_beauties_book).legitimate


def test_pre_only_book_is_legitimate(wbg):
    book = Book((Bet("b", F(1), F(3), frozenset({"WG"}), PreExperiment()),))
    assert check_legitimacy(wbg, book).legitimate


def test_anti_thirder_book_is_illegitimate(original_sb, anti_thirder_book):
    check = check_legitimacy(original_sb, anti_thirder_book)
    assert not check.legitimate
    assert "monday" in check.reason and "tuesday" in check.reason
    assert "awake" in check.reason


def test_simulate_refuses_illegitimate_books(original_sb, anti_thirder_book):
    with pytest.raises(LegitimacyError):
        simulate_book(thirder_cdt(), original_sb, anti_thirder_book)


def test_anti_thirder_book_dutch_books_thirder_under_override(original_sb, anti_thirder_book):
    agent = thirder_cdt(tie=TieRule.ACCEPT_AT_ZERO)
    ledger, verdict = simulate_book(
        agent, original_sb, anti_thirder_book, allow_illegitimate=True
    )
    assert verdict.per_world_totals == {"heads": F(-5), "tails": F(-5)}
    assert verdict.is_dutch_book


def test_hitchcock_ledger_cell_for_cell(original_sb, hitchcock_book):
    agent = halfer_cdt(tie=TieRule.ACCEPT_AT_ZERO)
    ledger, verdict = simulate_book(agent, original_sb, hitchcock_book)
    assert entries(ledger, "heads") == [
        ("bet1", "pre", "beauty", F(-15)),
        ("bet2", "monday", "beauty", F(10)),
    ]
    assert entries(ledger, "tails") == [
        ("bet1", "pre", "beauty", F(15)),
        ("bet2", "monday", "beauty", F(-10)),
        ("bet2", "tuesday", "beauty", F(-10)),
    ]
    assert verdict.per_world_totals == {"heads": F(-5), "tails": F(-5)}
    assert verdict.all_accepted and verdict.is_dutch_book
    assert verdict.worst_loss == F(-5)


def test_wbg_ledger_cell_for_cell(wbg, wbg_book):
    ledger, verdict = simulate_book(halfer_edt(), wbg, wbg_book)
    assert entries(ledger, "WG") == [
        ("bet1", "pre", "beauty", F(22)),
        ("bet2", "monday", "beauty", F(-24)),
    ]
    assert entries(ledger, "WO") == [
        ("bet1", "pre", "beauty", F(-20)),
        ("bet2", "monday", "beauty", F(9)),
        ("bet2", "tuesday", "beauty", F(9)),
    ]
    assert entries(ledger, "BO") == [
        ("bet1", "pre", "beauty", F(-20)),
        ("bet2", "monday", "beauty", F(9)),
        ("bet2", "tuesday", "beauty", F(9)),
    ]
    assert entries(ledger, "BG") == [
        ("bet1", "pre", "beauty", F(22)),
        ("bet2", "monday", "beauty", F(-24)),
    ]
    assert verdict.per_world_totals == {w: F(-2) for w in ("WG", "WO", "BO", "BG")}
    assert verdict.is_dutch_book


def test_wbg_ledger_same_for_every_credence_rule(wbg, wbg_book):
    expected = {w: F(-2) for w in ("WG", "WO", "BO", "BG")}
    for rule in CredenceRule:
        agent = AgentSpec(rule, EDT(AlikeClasses(F(1))))
        _, verdict = simulate_book(agent, wbg, wbg_book)
        assert verdict.per_world_totals == expected
        assert verdict.is_dutch_book


def test_cdt_thirder_escapes_wbg_book(wbg, wbg_book):
    ledger, verdict = simulate_book(thirder_cdt(), wbg, wbg_book)
    assert verdict.per_world_totals == {
        "WG": F(22),
        "WO": F(-20),
        "BO": F(-20),
        "BG": F(22),
    }
    assert not verdict.all_accepted
    assert not verdict.is_dutch_book
    for world_id in wbg.world_ids:
        assert all(entry.bet_id == "bet1" for entry in ledger.entries[world_id])


def test_two_beauties_ledger_cell_for_cell(two_beauties, two_beauties_book):
    ledger, verdict = simulate_book(halfer_edt(), two_beauties, two_beauties_book)
    assert entries(ledger, "W") == [
        ("bet1w", "pre", "white_beauty", F(11)),
        ("bet1b", "pre", "black_beauty", F(11)),
        ("bet2", "monday", "white_beauty", F(-24)),
    ]
    assert entries(ledger, "WB") == [
        ("bet1w", "pre", "white_beauty", F(-10)),
        ("bet1b", "pre", "black_beauty", F(-10)),
        ("bet2", "monday", "white_beauty", F(9)),
        ("bet2", "monday", "black_beauty", F(9)),
    ]
    assert entries(ledger, "B") == [
        ("bet1w", "pre", "white_beauty", F(11)),
        ("bet1b", "pre", "black_beauty", F(11)),
        ("bet2", "monday", "black_beauty", F(-24)),
    ]
    assert verdict.per_world_totals == {"W": F(-2), "WB": F(-2), "B": F(-2)}
    assert verdict.is_dutch_book


def test_all_accepted_false_is_never_a_dutch_book(original_sb, hitchcock_book):
    # append a bet nobody takes; totals stay negative but the verdict must flip
    dud = Bet("dud", F(10), F(0), frozenset(), OnObservation(frozenset({"awake"})))
    book = Book(hitchcock_book.bets + (dud,))
    agent = halfer_cdt(tie=TieRule.ACCEPT_AT_ZERO)
    ledger, verdict = simulate_book(agent, original_sb, book)
    assert all(total < 0 for total in verdict.per_world_totals.values())
    assert not verdict.all_accepted
    assert not verdict.is_dutch_book


def test_deleting_a_rejected_bet_changes_no_ledger_entry(original_sb, hitchcock_book):
    dud = Bet("dud", F(10), F(0), frozenset(), OnObservation(frozenset({"awake"})))
    agent = halfer_cdt(tie=TieRule.ACCEPT_AT_ZERO)
    with_dud, _ = simulate_book(agent, original_sb, Book(hitchcock_book.bets + (dud,)))
    without, _ = simulate_book(agent, original_sb, hitchcock_book)
    assert with_dud.entries == without.entries


def test_alikeness_automorphism_permutes_ledger(wbg):
    # an asymmetric bet: swapping white/black and WG<->BG, WO<->BO maps the
    # book to its mirror, and world totals must follow the world relabeling
    bet = Bet("b", F(10), F(36), frozenset({"WO"}), OnObservation(frozenset({"white"})))
    mirrored = Bet("b", F(10), F(36), frozenset({"BO"}), OnObservation(frozenset({"black"})))
    sigma = {"WG": "BG", "BG": "WG", "WO": "BO", "BO": "WO"}
    for agent in (thirder_cdt(), halfer_edt()):
        _, verdict = simulate_book(agent, wbg, Book((bet,)))
        _, mirrored_verdict = simulate_book(agent, wbg, Book((mirrored,)))
        for world_id, total in verdict.per_world_totals.items():
            assert mirrored_verdict.per_world_totals[sigma[world_id]] == total


def test_mixed_acceptance_across_information_states(wbg):
    # pays on a world only the white rooms leave open, so the agent takes it
    # in white rooms and declines in black ones; one decision per state, the
    # same at every center carrying that state
    bet = Bet(
        "b", F(3), F(30), frozenset({"WG"}), OnObservation(frozenset({"white", "black"}))
    )
    ledger, verdict = simulate_book(thirder_cdt(), wbg, Book((bet,)))
    assert not verdict.all_accepted
    assert not verdict.is_dutch_book
    assert entries(ledger, "WG") == [("b", "monday", "beauty", F(27))]
    assert entries(ledger, "WO") == [("b", "monday", "beauty", F(-3))]
    assert entries(ledger, "BO") == [("b", "tuesday", "beauty", F(-3))]
    assert entries(ledger, "BG") == []


def test_book_ordering_and_uniqueness():
    pre = Bet("a", F(1), F(3), frozenset({"WG"}), PreExperiment())
    mid = Bet("b", F(1), F(3), frozenset({"WG"}), OnObservation(frozenset({"white"})))
    with pytest.raises(InvariantError, match="before in-experiment"):
        Book((mid, pre))
    with pytest.raises(InvariantError, match="duplicate"):
        Book((pre, Bet("a", F(1), F(3), frozenset({"WG"}), PreExperiment())))


def test_book_validation_against_experiment(wbg):
    unknown_obs = Book(
        (Bet("b", F(1), F(3), frozenset({"WG"}), OnObservation(frozenset({"purple"}))),)
    )
    with pytest.raises(UnknownLabelError):
        simulate_book(thirder_cdt(), wbg, unknown_obs)
    unknown_world = Book(
        (Bet("b", F(1), F(3), frozenset({"XX"}), OnObservation(frozenset({"white"}))),)
    )
    with pytest.raises(UnknownLabelError):
        simulate_book(thirder_cdt(), wbg, unknown_world)


def test_load_book_round_trip_shapes(wbg_book, two_beauties_book):
    assert [bet.id for bet in wbg_book.bets] == ["bet1", "bet2"]
    assert isinstance(wbg_book.bets[0].offer, PreExperiment)
    offer = wbg_book.bets[1].offer
    assert isinstance(offer, OnObservation)
    assert offer.observations == frozenset({"white", "black"})
    assert offer.agent is None and offer.slots is None
    assert two_beauties_book.bets[0].offer == PreExperiment("white_beauty")


def test_ledger_entry_is_immutable(original_sb, hitchcock_book):
    agent = halfer_cdt(tie=TieRule.ACCEPT_AT_ZERO)
    ledger, _ = simulate_book(agent, original_sb, hitchcock_book)
    entry = ledger.entries["heads"][0]
    assert entry == LedgerEntry("bet1", "pre", "beauty", F(-15))
    with pytest.raises(AttributeError):
        entry.net = F(0)


def test_ledger_totals_add_nets_over_coprime_denominators():
    checked = 0
    for seed in range(80):
        rng = random.Random(seed)
        e = random_coprime_experiment(rng)
        drawn = random_multi_agent_book(rng, e)

        def price() -> Fraction:
            return F(rng.randint(0, 30), rng.choice([1, 2, 3, 5, 7, 11]))

        book = Book(tuple(Bet(b.id, price(), price(), b.payoff_event, b.offer) for b in drawn.bets))
        try:
            ledger, verdict = simulate_book(random_agent(rng), e, book, allow_illegitimate=True)
        except UnjustifiedClassError:
            continue
        for world_id in e.world_ids:
            expected = sum((entry.net for entry in ledger.entries[world_id]), F(0))
            assert ledger.total(world_id) == expected
            assert verdict.per_world_totals[world_id] == expected
            checked += len({entry.net.denominator for entry in ledger.entries[world_id]}) > 1
    assert checked >= 40
