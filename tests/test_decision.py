import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerbook import (
    EDT,
    AgentSpec,
    AlikeClasses,
    Bet,
    CredenceRule,
    InformationState,
    InvariantError,
    OfferError,
    OnObservation,
    PreExperiment,
    TieRule,
    UnjustifiedClassError,
    briggs_condition,
    evaluate_offer,
    evaluate_pre_experiment,
    load_experiment,
    rho_threshold,
    simulate_book,
    verify_alikeness,
)
from centerbook import decision
from centerbook.bundled import bundled_document
from helpers import (
    awake_bet,
    edt_delta_by_profile_enumeration,
    halfer_edt,
    halfer_edt_same_info,
    random_bet,
    random_uniform_info_experiment,
    sign,
    thirder_cdt,
)

F = Fraction
WHITE = InformationState("white")
AWAKE = InformationState("awake")


def test_cdt_thirder_rejects_wbg_bet2(wbg, wbg_book):
    decision = evaluate_offer(thirder_cdt(), wbg, WHITE, wbg_book.bets[1])
    assert decision.delta == F(-2)
    assert not decision.accept


def test_edt_full_linkage_accepts_wbg_bet2(wbg, wbg_book):
    for rule in CredenceRule:
        agent = AgentSpec(rule, EDT(AlikeClasses(F(1))))
        decision = evaluate_offer(agent, wbg, WHITE, wbg_book.bets[1])
        assert decision.delta == F(4), rule
        assert decision.accept


def test_edt_halfer_rejects_hitchcock_bet2(original_sb, hitchcock_book):
    decision = evaluate_offer(halfer_edt(), original_sb, AWAKE, hitchcock_book.bets[1])
    assert decision.delta == F(-5)
    assert not decision.accept


def test_wbg_bet2_delta_is_affine_in_rho(wbg, wbg_book):
    bet2 = wbg_book.bets[1]
    for rho, expected in [
        (F(0), F(-8)),
        (F(1, 2), F(-2)),
        (F(2, 3), F(0)),
        (F(3, 4), F(1)),
        (F(99, 100), F(97, 25)),
        (F(1), F(4)),
    ]:
        delta = evaluate_offer(halfer_edt(rho), wbg, WHITE, bet2).delta
        assert delta == 12 * rho - 8 == expected


def test_wbg_bet2_rho_threshold(wbg, wbg_book):
    assert rho_threshold(CredenceRule.HALFER_STANDARD, wbg, WHITE, wbg_book.bets[1]) == F(2, 3)


def test_engine_delta_matches_profile_enumeration_oracle(wbg, two_beauties, wbg_book, two_beauties_book):
    cases = [
        (wbg, WHITE, wbg_book.bets[1]),
        (wbg, InformationState("black"), wbg_book.bets[1]),
        (two_beauties, InformationState("white", "white_beauty"), two_beauties_book.bets[2]),
    ]
    for e, state, bet in cases:
        for rho in (F(0), F(1, 3), F(1, 2), F(2, 3), F(99, 100), F(1)):
            engine = evaluate_offer(halfer_edt(rho), e, state, bet).delta
            oracle = edt_delta_by_profile_enumeration(
                CredenceRule.HALFER_STANDARD, e, state, bet, rho
            )
            assert engine == oracle


def test_pre_experiment_wbg_bet1(wbg, wbg_book):
    decision = evaluate_pre_experiment(thirder_cdt(), wbg, wbg_book.bets[0])
    assert decision.delta == F(1)
    assert decision.accept


def test_pre_experiment_hitchcock_bet1_tie(original_sb, hitchcock_book):
    bet1 = hitchcock_book.bets[0]
    assert evaluate_pre_experiment(halfer_edt(), original_sb, bet1).delta == 0
    assert not evaluate_pre_experiment(halfer_edt(), original_sb, bet1).accept
    accepts = evaluate_pre_experiment(
        halfer_edt(tie=TieRule.ACCEPT_AT_ZERO), original_sb, bet1
    )
    assert accepts.accept


def test_pre_experiment_two_beauties_split_bet(two_beauties, two_beauties_book):
    decision = evaluate_pre_experiment(halfer_edt(), two_beauties, two_beauties_book.bets[0])
    assert decision.delta == F(1, 2)
    assert decision.accept


def test_briggs_condition_examples(original_sb, wbg, hitchcock_book, wbg_book):
    assert briggs_condition(original_sb, hitchcock_book.bets[1], AWAKE) == F(-5)
    assert briggs_condition(wbg, wbg_book.bets[1], WHITE) == F(-2)
    zero_bet = awake_bet(0, 0, {"heads"})
    assert briggs_condition(original_sb, zero_bet, AWAKE) == 0


def test_briggs_disagrees_with_edt_on_wbg(wbg, wbg_book):
    bet2 = wbg_book.bets[1]
    briggs = briggs_condition(wbg, bet2, WHITE)
    edt = evaluate_offer(halfer_edt(), wbg, WHITE, bet2).delta
    assert sign(briggs) != sign(edt)


def test_same_info_edt_equals_briggs_everywhere():
    rng = random.Random(5)
    for _ in range(200):
        e = random_uniform_info_experiment(rng)
        bet = random_bet(rng, e)
        assert evaluate_offer(
            halfer_edt_same_info(), e, AWAKE, bet
        ).delta == briggs_condition(e, bet, AWAKE)


def test_uniform_information_sign_equivalence():
    rng = random.Random(6)
    for _ in range(300):
        e = random_uniform_info_experiment(rng)
        bet = random_bet(rng, e)
        cdt = evaluate_offer(thirder_cdt(), e, AWAKE, bet).delta
        edt = evaluate_offer(halfer_edt(), e, AWAKE, bet).delta
        briggs = briggs_condition(e, bet, AWAKE)
        assert sign(cdt) == sign(edt) == sign(briggs)


@pytest.mark.parametrize(
    "event,cost",
    [
        ({"WO", "BO"}, 24),       # pays on the cross-linked worlds
        ({"WO", "BO", "WG"}, 5),  # cross-linked payoffs still non-negative
        ({"WG", "WO", "BO", "BG"}, 2),
    ],
)
def test_edt_delta_affine_and_nondecreasing_in_rho(wbg, event, cost):
    # whenever net payouts are non-negative on every world that carries a
    # cross-class center, more confidence can only make the bet better
    bet = Bet("b", F(cost), F(33), frozenset(event), OnObservation(frozenset({"white", "black"})))
    samples = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    deltas = [
        evaluate_offer(halfer_edt(rho), wbg, WHITE, bet).delta for rho in samples
    ]
    slope = (deltas[-1] - deltas[0]) / (samples[-1] - samples[0])
    assert slope >= 0
    for rho, delta in zip(samples, deltas):
        assert delta == deltas[0] + slope * rho


def test_two_beauties_linkage(two_beauties, two_beauties_book):
    bet2 = two_beauties_book.bets[2]
    state = InformationState("white", "white_beauty")
    assert evaluate_offer(halfer_edt(), two_beauties, state, bet2).delta == F(4)
    assert evaluate_offer(halfer_edt_same_info(), two_beauties, state, bet2).delta == F(-2)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    scale=st.fractions(min_value=F(1, 7), max_value=F(12)),
)
def test_scaling_a_bet_scales_delta_and_preserves_decisions(seed, scale):
    rng = random.Random(seed)
    e = random_uniform_info_experiment(rng)
    bet = random_bet(rng, e)
    scaled = Bet(bet.id, bet.cost * scale, bet.payout * scale, bet.payoff_event, bet.offer)
    for agent in (thirder_cdt(), halfer_edt(), halfer_edt_same_info()):
        base = evaluate_offer(agent, e, AWAKE, bet)
        after = evaluate_offer(agent, e, AWAKE, scaled)
        assert after.delta == base.delta * scale
        assert after.accept == base.accept


def test_offer_errors(wbg, wbg_book):
    bet1, bet2 = wbg_book.bets
    with pytest.raises(OfferError):
        evaluate_offer(thirder_cdt(), wbg, WHITE, bet1)
    with pytest.raises(OfferError):
        evaluate_offer(thirder_cdt(), wbg, InformationState("grey"), bet2)
    with pytest.raises(OfferError):
        evaluate_pre_experiment(thirder_cdt(), wbg, bet2)
    with pytest.raises(OfferError):
        briggs_condition(wbg, bet1, WHITE)


def test_unjustified_class_blocks_alike_linkage():
    e = load_experiment(
        {
            "worlds": [
                {"id": "WG", "prior": "1/4"},
                {"id": "WO", "prior": "1/4"},
                {"id": "BO", "prior": "1/4"},
                {"id": "BG", "prior": "1/4"},
            ],
            "slots": ["monday", "tuesday"],
            "centers": [
                {"world": "WG", "slot": "monday", "observation": "white"},
                {"world": "WG", "slot": "tuesday", "observation": "grey"},
                {"world": "WO", "slot": "monday", "observation": "white"},
                {"world": "WO", "slot": "tuesday", "observation": "black"},
                {"world": "BO", "slot": "monday", "observation": "black"},
                {"world": "BO", "slot": "tuesday", "observation": "white"},
                {"world": "BG", "slot": "monday", "observation": "black"},
                {"world": "BG", "slot": "tuesday", "observation": "grey"},
            ],
            "alikeness": [["white", "grey"], ["black"]],
        }
    )
    bet = Bet("b", F(10), F(20), frozenset({"WO"}), OnObservation(frozenset({"white"})))
    with pytest.raises(UnjustifiedClassError):
        evaluate_offer(halfer_edt(), e, WHITE, bet)
    # causal evaluation and same-info linkage never consult the class
    evaluate_offer(thirder_cdt(), e, WHITE, bet)
    evaluate_offer(halfer_edt_same_info(), e, WHITE, bet)


def test_rho_must_be_a_probability():
    with pytest.raises(InvariantError):
        AlikeClasses(F(3, 2))
    with pytest.raises(InvariantError):
        AlikeClasses(F(-1, 2))


def test_negative_bet_amounts_rejected():
    with pytest.raises(InvariantError):
        Bet("b", F(-1), F(0), frozenset(), PreExperiment())
    with pytest.raises(InvariantError):
        Bet("b", F(0), F(-1), frozenset(), PreExperiment())


def test_alike_linked_evaluation_keeps_no_experiment_alive(two_beauties_book):
    e = load_experiment(bundled_document("two-beauties"))
    state = InformationState("white", "white_beauty")
    assert evaluate_offer(halfer_edt(), e, state, two_beauties_book.bets[2]).accept
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is None


def test_alikeness_verified_once_per_class_per_experiment(monkeypatch, two_beauties_book):
    calls = Counter()

    def counting(e, cls):
        calls[id(e), frozenset(cls)] += 1
        return verify_alikeness(e, cls)

    monkeypatch.setattr(decision, "verify_alikeness", counting)
    experiments = [load_experiment(bundled_document("two-beauties")) for _ in range(2)]
    for e in experiments:
        simulate_book(halfer_edt(), e, two_beauties_book)
    assert calls == {(id(e), frozenset({"white", "black"})): 1 for e in experiments}
