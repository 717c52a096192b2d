import itertools
from fractions import Fraction

import pytest

from centerbook import (
    BoundsError,
    BudgetError,
    DocumentError,
    InvariantError,
    LegitimacyError,
    TieRule,
    build_constraints,
    immunity_grid_check,
    load_experiment,
    load_template,
    simulate_book,
    synthesize,
)
from centerbook.synth import parse_bounds
from helpers import halfer_cdt, halfer_edt, thirder_cdt

F = Fraction

CLASSIC_VECTOR = {
    "bet1.cost": F(20),
    "bet1.payout": F(42),
    "bet2.cost": F(24),
    "bet2.payout": F(33),
}


def _edt_full_linkage_dutch_book(c1, p1, c2, p2):
    """Hand-derived accept-all sure-loss test for the four-parameter book.

    Acceptance: pre bet needs p1/2 > c1; the in-experiment bet under full
    evidential linkage needs (1/3)(-c2) + (2/3)*2*(p2 - c2) > 0, i.e.
    4*p2 > 5*c2. Sure loss: p1 - c1 - c2 < 0 in the single-offer worlds and
    -c1 + 2*(p2 - c2) < 0 in the double-offer worlds.
    """
    return (
        p1 > 2 * c1
        and 4 * p2 > 5 * c2
        and p1 - c1 - c2 < 0
        and -c1 + 2 * (p2 - c2) < 0
    )


def _cdt_thirder_dutch_book(c1, p1, c2, p2):
    """Same loss rows; causal acceptance of the in-experiment bet is (2/3)p2 > c2."""
    return (
        p1 > 2 * c1
        and 2 * p2 > 3 * c2
        and p1 - c1 - c2 < 0
        and -c1 + 2 * (p2 - c2) < 0
    )


def test_constraints_for_wbg_template(wbg, wbg_template):
    constraints = build_constraints(halfer_edt(), wbg, wbg_template, F(1))
    by_label = {c.label: c for c in constraints}
    accept2 = by_label["accept bet2 at (white, beauty)"]
    assert dict(accept2.coeffs) == {"bet2.payout": F(4, 3), "bet2.cost": F(-5, 3)}
    assert accept2.op == ">=" and accept2.rhs == F(1)
    loss_wo = by_label["sure loss in WO"]
    assert dict(loss_wo.coeffs) == {
        "bet1.cost": F(-1),
        "bet2.payout": F(2),
        "bet2.cost": F(-2),
    }
    assert loss_wo.op == "<=" and loss_wo.rhs == F(-1)
    assert all(c.satisfied_by(CLASSIC_VECTOR) for c in constraints)


def test_synthesize_edt_feasible_and_sound(wbg, wbg_template):
    result = synthesize(halfer_edt(), wbg, wbg_template)
    assert result.feasible
    assert all(c.satisfied_by(result.parameters) for c in result.constraints)
    assert result.verdict.is_dutch_book
    replay_ledger, replay_verdict = simulate_book(
        halfer_edt(), wbg, wbg_template.instantiate(result.parameters)
    )
    assert replay_verdict == result.verdict
    assert replay_ledger == result.ledger


def test_synthesize_cdt_thirder_infeasible(wbg, wbg_template):
    result = synthesize(thirder_cdt(), wbg, wbg_template)
    assert result.outcome == "infeasible_lp"
    assert result.patterns == ("accept-all",)


def test_cdt_infeasibility_confirmed_by_hand_grid():
    hits = [
        vector
        for vector in itertools.product(range(21), repeat=4)
        if _cdt_thirder_dutch_book(*vector)
    ]
    assert hits == []


def test_zero_bounds_template_infeasible(wbg, wbg_template):
    result = synthesize(
        halfer_edt(), wbg, wbg_template, default_bounds=(F(0), F(0))
    )
    assert result.outcome == "infeasible_lp"


def test_margin_monotonicity(wbg, wbg_template):
    for epsilon in (F(2), F(1), F(1, 2)):
        assert synthesize(halfer_edt(), wbg, wbg_template, epsilon=epsilon).feasible


def test_epsilon_must_be_positive(wbg, wbg_template):
    with pytest.raises(InvariantError):
        synthesize(halfer_edt(), wbg, wbg_template, epsilon=F(0))


@pytest.mark.parametrize(
    "rho,outcome",
    [
        (F(0), "infeasible_lp"),
        (F(2, 5), "infeasible_lp"),
        (F(1, 2), "infeasible_lp"),
        (F(3, 5), "feasible"),
        (F(2, 3), "feasible"),
        (F(1), "feasible"),
    ],
)
def test_synthesis_boundary_in_linkage_confidence(wbg, wbg_template, rho, outcome):
    # with all four parameters free the feasibility boundary sits at 1/2:
    # above it, proportions with a small enough premium make the in-experiment
    # bet acceptable while still forcing a sure loss
    result = synthesize(halfer_edt(rho), wbg, wbg_template, epsilon=F(1, 100))
    assert result.outcome == outcome


def test_dutch_book_at_two_thirds_confidence_witness(wbg, wbg_template):
    # concrete witness behind the boundary test above
    witness = {
        "bet1.cost": F(15),
        "bet1.payout": F(61, 2),
        "bet2.cost": F(16),
        "bet2.payout": F(23),
    }
    book = wbg_template.instantiate(witness)
    _, verdict = simulate_book(halfer_edt(F(2, 3)), wbg, book)
    assert verdict.is_dutch_book


def test_grid_counterexample_is_lexicographically_smallest(wbg, wbg_template):
    result = immunity_grid_check(
        halfer_edt(), wbg, wbg_template, F(1), default_bounds=(F(0), F(30))
    )
    assert result.feasible
    assert result.verdict.is_dutch_book
    engine_vector = tuple(
        result.parameters[name] for name in wbg_template.parameters()
    )
    oracle_vector = next(
        vector
        for vector in itertools.product(range(31), repeat=4)
        if _edt_full_linkage_dutch_book(*vector)
    )
    assert engine_vector == oracle_vector


def test_grid_certificate_for_cdt_thirder(wbg, wbg_template):
    result = immunity_grid_check(
        thirder_cdt(), wbg, wbg_template, F(1), default_bounds=(F(0), F(30))
    )
    assert result.outcome == "infeasible_over_grid"
    assert result.grid.points == 31**4
    assert not any(
        _cdt_thirder_dutch_book(*vector)
        for vector in itertools.product(range(31), repeat=4)
    )


def test_grid_certificate_at_half_confidence(wbg, wbg_template):
    result = immunity_grid_check(
        halfer_edt(F(1, 2)), wbg, wbg_template, F(1), default_bounds=(F(0), F(30))
    )
    assert result.outcome == "infeasible_over_grid"


def test_coarse_grid_can_miss_what_fine_grid_finds(wbg, wbg_template):
    coarse = immunity_grid_check(
        halfer_edt(), wbg, wbg_template, F(5), default_bounds=(F(0), F(30))
    )
    assert coarse.outcome == "infeasible_over_grid"
    assert coarse.grid.points == 7**4


def test_grid_budget(wbg, wbg_template):
    with pytest.raises(BudgetError):
        immunity_grid_check(
            halfer_edt(), wbg, wbg_template, F(1), max_points=1000
        )


def test_grid_step_must_be_positive(wbg, wbg_template):
    with pytest.raises(BoundsError):
        immunity_grid_check(halfer_edt(), wbg, wbg_template, F(0))


def test_template_loading_and_bounds_forms(wbg_template):
    assert wbg_template.epsilon == F(1)
    assert wbg_template.parameters() == (
        "bet1.cost",
        "bet1.payout",
        "bet2.cost",
        "bet2.payout",
    )
    assert parse_bounds("0/100", "b") == (F(0), F(100))
    assert parse_bounds(["1/2", "3/2"], "b") == (F(1, 2), F(3, 2))
    with pytest.raises(DocumentError):
        parse_bounds("1/2/3", "b")
    with pytest.raises(DocumentError):
        parse_bounds("a/b", "b")


def test_template_with_explicit_bounds_and_fixed_fields():
    template = load_template(
        {
            "epsilon": "1/4",
            "bets": [
                {
                    "id": "b",
                    "cost": "5",
                    "payout": "?",
                    "payoff_event": ["WG"],
                    "offer": "pre",
                    "bounds": {"payout": "0/12"},
                }
            ],
        }
    )
    assert template.bets[0].cost == F(5)
    assert template.bets[0].payout is None
    assert template.parameters() == ("b.payout",)
    assert template.bounds() == {"b.payout": (F(0), F(12))}
    with pytest.raises(DocumentError, match="not symbolic"):
        load_template(
            {
                "bets": [
                    {
                        "id": "b",
                        "cost": "5",
                        "payout": "6",
                        "payoff_event": ["WG"],
                        "offer": "pre",
                        "bounds": {"cost": "0/10"},
                    }
                ]
            }
        )


def test_fixed_payout_pre_template_synthesis(wbg):
    # one free parameter: pay 42 on the grey worlds, find an acceptable cost
    # that still loses; impossible since the single bet cannot lose everywhere
    template = load_template(
        {
            "bets": [
                {
                    "id": "solo",
                    "cost": "?",
                    "payout": "42",
                    "payoff_event": ["WG", "BG"],
                    "offer": "pre",
                }
            ]
        }
    )
    assert synthesize(halfer_edt(), wbg, template).outcome == "infeasible_lp"
    grid = immunity_grid_check(halfer_edt(), wbg, template, F(1))
    assert grid.outcome == "infeasible_over_grid"


def test_illegitimate_template_is_rejected(original_sb):
    template = load_template(
        {
            "bets": [
                {
                    "id": "b",
                    "cost": "?",
                    "payout": "?",
                    "payoff_event": ["tails"],
                    "offer": {"observations": ["awake"], "slots": ["monday"]},
                }
            ]
        }
    )
    with pytest.raises(LegitimacyError):
        synthesize(thirder_cdt(), original_sb, template)
    with pytest.raises(LegitimacyError):
        immunity_grid_check(thirder_cdt(), original_sb, template, F(1))


def test_negative_bounds_rejected(wbg, wbg_template):
    with pytest.raises(BoundsError):
        synthesize(halfer_edt(), wbg, wbg_template, default_bounds=(F(-1), F(10)))


def test_grid_search_over_a_thousand_bets_needs_no_recursion(original_sb):
    # 500 copies of each Hitchcock bet, one payout symbolic: the search goes
    # one level deeper per bet, past the interpreter's default recursion limit.
    pre = [
        {"id": f"pre{k:03d}", "cost": "15", "payout": "?" if k == 0 else "30",
         "payoff_event": ["tails"], "offer": "pre"}
        for k in range(500)
    ]
    awake = [
        {"id": f"awake{k:03d}", "cost": "10", "payout": "20",
         "payoff_event": ["heads"], "offer": {"observations": ["awake"]}}
        for k in range(500)
    ]
    template = load_template({"bets": pre + awake})
    agent = halfer_cdt(TieRule.ACCEPT_AT_ZERO)
    result = immunity_grid_check(agent, original_sb, template, F(1), (F(0), F(40)))
    assert result.feasible
    assert result.parameters == {"pre000.payout": F(30)}
    assert result.verdict.is_dutch_book


def _tiled_sleeping_beauty(n_tiles):
    """Tile k is the original experiment with its own observation and prior."""
    total = n_tiles * (n_tiles + 1)
    worlds, centers = [], []
    for k in range(n_tiles):
        prior = f"{k + 1}/{total}"
        worlds += [{"id": f"h{k:02d}", "prior": prior}, {"id": f"t{k:02d}", "prior": prior}]
        for world, slot in ((f"h{k:02d}", "monday"), (f"t{k:02d}", "monday"),
                            (f"t{k:02d}", "tuesday")):
            centers.append({"world": world, "slot": slot, "observation": f"awake{k:02d}"})
    return load_experiment({
        "worlds": worlds, "slots": ["monday", "tuesday"], "agents": ["beauty"], "centers": centers,
    })


def _tiled_hitchcock_template(n_tiles):
    """A symbolic pre-experiment bet on tails, and a symbolic-payout awake bet on
    heads per tile. The last three tiles share one awake bet, so that 20 tiles
    carry 20 parameters and every awake bet still has a symbolic field."""
    bets = [
        {"id": "pre", "cost": "?", "payout": "?",
         "payoff_event": [f"t{k:02d}" for k in range(n_tiles)], "offer": "pre"}
    ]
    groups = [[k] for k in range(n_tiles - 3)] + [list(range(n_tiles - 3, n_tiles))]
    for group in groups:
        bets.append(
            {"id": f"awake{group[0]:02d}", "cost": "10", "payout": "?",
             "payoff_event": [f"h{k:02d}" for k in group],
             "offer": {"observations": [f"awake{k:02d}" for k in group]}}
        )
    return load_template({"bets": bets})


def test_largest_tiled_sleeping_beauty_stays_exact():
    e = _tiled_sleeping_beauty(20)
    template = _tiled_hitchcock_template(20)
    assert len(e.worlds) == 40 and len(template.parameters()) == 20

    result = synthesize(halfer_cdt(), e, template)
    assert result.feasible
    assert all(c.satisfied_by(result.parameters) for c in result.constraints)
    _, replay = simulate_book(halfer_cdt(), e, template.instantiate(result.parameters))
    assert replay.is_dutch_book

    assert synthesize(thirder_cdt(), e, template).outcome == "infeasible_lp"
