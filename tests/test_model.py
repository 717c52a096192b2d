import copy
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerbook import (
    CenterbookError,
    DocumentError,
    Experiment,
    InformationState,
    InvariantError,
    UnknownLabelError,
    consistent_centers,
    count_centers,
    experiment_to_document,
    load_experiment,
    verify_alikeness,
)
from helpers import (
    alikeness_by_exhaustive_search,
    load_experiment_by_checks,
    random_agent_twin_experiment,
    random_multi_agent_experiment,
    random_scenario_document,
    random_uniform_info_experiment,
)

F = Fraction


def test_load_original_sb_counts(original_sb):
    assert count_centers(original_sb, "heads") == 1
    assert count_centers(original_sb, "tails") == 2


def test_load_wbg_shape(wbg):
    assert len(wbg.worlds) == 4
    assert all(w.prior == F(1, 4) for w in wbg.worlds)
    assert all(count_centers(wbg, wid) == 2 for wid in wbg.world_ids)


def test_priors_must_sum_to_one():
    doc = {
        "worlds": [{"id": "a", "prior": "1/2"}, {"id": "b", "prior": "1/4"}],
        "slots": ["s"],
        "centers": [{"world": "a", "slot": "s", "observation": "o"}],
    }
    with pytest.raises(InvariantError, match="priors sum to 3/4"):
        load_experiment(doc)


def test_priors_must_be_positive():
    doc = {
        "worlds": [{"id": "a", "prior": "0"}, {"id": "b", "prior": "1"}],
        "slots": ["s"],
        "centers": [{"world": "a", "slot": "s", "observation": "o"}],
    }
    with pytest.raises(InvariantError, match="must be > 0"):
        load_experiment(doc)


def test_duplicate_center_rejected():
    doc = {
        "worlds": [{"id": "a", "prior": "1"}],
        "slots": ["s"],
        "centers": [
            {"world": "a", "slot": "s", "observation": "o"},
            {"world": "a", "slot": "s", "observation": "o2"},
        ],
        "alikeness": [["o", "o2"]],
    }
    with pytest.raises(InvariantError, match="duplicate"):
        load_experiment(doc)


def test_center_must_reference_known_labels():
    base = {
        "worlds": [{"id": "a", "prior": "1"}],
        "slots": ["s"],
    }
    with pytest.raises(InvariantError, match="unknown world"):
        load_experiment({**base, "centers": [{"world": "zz", "slot": "s", "observation": "o"}]})
    with pytest.raises(InvariantError, match="unknown slot"):
        load_experiment({**base, "centers": [{"world": "a", "slot": "zz", "observation": "o"}]})


def _scenario(centers: list, agents: list[str] | None = None) -> dict:
    doc = {"worlds": [{"id": "a", "prior": "1"}], "slots": ["s"], "centers": centers}
    if agents is not None:
        doc["agents"] = agents
    return doc


GOOD_CENTER = {"world": "a", "slot": "s", "agent": "alpha", "observation": "o"}


@pytest.mark.parametrize(
    ("entry", "agents", "message"),
    [
        ("center", None, "<document>.centers[1]: expected an object"),
        ([GOOD_CENTER], None, "<document>.centers[1]: expected an object"),
        (None, None, "<document>.centers[1]: expected an object"),
        (
            {"world": "a", "observation": "o"},
            None,
            "<document>.centers[1]: missing key(s) ['slot']",
        ),
        ({}, None, "<document>.centers[1]: missing key(s) ['observation', 'slot', 'world']"),
        (
            {"world": "a", "slot": "s", "observation": "o", "colour": "red"},
            None,
            "<document>.centers[1]: unknown key(s) ['colour']",
        ),
        (
            {"world": "a", "observation": "o", "colour": "red"},
            None,
            "<document>.centers[1]: missing key(s) ['slot']",
        ),
        (
            {"world": "", "slot": "s", "observation": "o"},
            None,
            "<document>.centers[1].world: expected a non-empty string",
        ),
        (
            {"world": "a", "slot": 3, "observation": "o"},
            None,
            "<document>.centers[1].slot: expected a non-empty string",
        ),
        (
            {"world": "a", "slot": "s", "observation": None},
            None,
            "<document>.centers[1].observation: expected a non-empty string",
        ),
        (
            {"world": "a", "slot": "s", "observation": ["o"]},
            None,
            "<document>.centers[1].observation: expected a non-empty string",
        ),
        (
            {"world": "a", "slot": "s", "agent": "", "observation": "o"},
            ["alpha"],
            "<document>.centers[1].agent: expected a non-empty string",
        ),
        (
            {"world": "a", "slot": "s", "agent": None, "observation": "o"},
            None,
            "<document>.centers[1].agent: expected a non-empty string",
        ),
        (
            {"world": 1, "slot": "", "agent": 2, "observation": "o"},
            ["alpha", "beta"],
            "<document>.centers[1].agent: expected a non-empty string",
        ),
        (
            {"world": 1, "slot": "", "observation": "o"},
            None,
            "<document>.centers[1].world: expected a non-empty string",
        ),
        (
            {"world": "a", "slot": "s", "observation": "o"},
            ["alpha", "beta"],
            "<document>.centers[1]: agent is required when the experiment declares "
            "several agents",
        ),
    ],
)
def test_malformed_center_error_text(entry, agents, message):
    first = dict(GOOD_CENTER)
    if agents is None:
        del first["agent"]
    with pytest.raises(DocumentError) as info:
        load_experiment(_scenario([first, entry], agents))
    assert str(info.value) == message


def _load_outcome(load, doc):
    try:
        return load(copy.deepcopy(doc))
    except CenterbookError as exc:
        return type(exc), str(exc)


def test_typed_load_matches_checked_load():
    """Equal Experiments, or the same first error, as the per-key checks give."""
    loaded = 0
    for seed in range(600):
        doc = random_scenario_document(random.Random(seed))
        expected = _load_outcome(load_experiment_by_checks, doc)
        assert _load_outcome(load_experiment, doc) == expected, seed
        loaded += isinstance(expected, Experiment)
    assert 100 <= loaded <= 300


def test_alikeness_must_partition_used_observations():
    base = {
        "worlds": [{"id": "a", "prior": "1"}],
        "slots": ["s", "t"],
        "centers": [
            {"world": "a", "slot": "s", "observation": "o1"},
            {"world": "a", "slot": "t", "observation": "o2"},
        ],
    }
    with pytest.raises(InvariantError, match="belong to no class"):
        load_experiment({**base, "alikeness": [["o1"]]})
    with pytest.raises(InvariantError, match="used by no center"):
        load_experiment({**base, "alikeness": [["o1", "o2", "ghost"]]})
    with pytest.raises(InvariantError, match="more than one class"):
        load_experiment({**base, "alikeness": [["o1", "o2"], ["o2"]]})


def test_consistent_centers_wbg_white(wbg):
    centers = consistent_centers(wbg, InformationState("white"))
    assert {(c.world, c.slot) for c in centers} == {
        ("WG", "monday"),
        ("WO", "monday"),
        ("BO", "tuesday"),
    }


def test_consistent_centers_wbg_grey(wbg):
    centers = consistent_centers(wbg, InformationState("grey"))
    assert {(c.world, c.slot) for c in centers} == {("WG", "tuesday"), ("BG", "tuesday")}


def test_consistent_centers_original_awake(original_sb):
    centers = consistent_centers(original_sb, InformationState("awake"))
    assert {(c.world, c.slot) for c in centers} == {
        ("heads", "monday"),
        ("tails", "monday"),
        ("tails", "tuesday"),
    }


def test_consistent_centers_unknown_observation(wbg):
    with pytest.raises(UnknownLabelError):
        consistent_centers(wbg, InformationState("purple"))


def test_count_centers_with_information(wbg):
    assert count_centers(wbg, "WG", InformationState("white")) == 1
    assert count_centers(wbg, "WG", InformationState("grey")) == 1
    assert count_centers(wbg, "WG", InformationState("black")) == 0
    assert count_centers(wbg, "BO", InformationState("white")) == 1


def test_count_centers_unknown_world(wbg):
    with pytest.raises(UnknownLabelError):
        count_centers(wbg, "XX")


def test_alikeness_white_black_justified(wbg):
    assert verify_alikeness(wbg, {"white", "black"}).justified


def test_alikeness_white_grey_unjustified(wbg):
    check = verify_alikeness(wbg, {"white", "grey"})
    assert not check.justified
    assert "grey" in check.reason and "monday" in check.reason


def test_alikeness_singleton_justified(wbg):
    assert verify_alikeness(wbg, {"grey"}).justified


def test_alikeness_two_beauties_needs_agent_swap(two_beauties):
    assert verify_alikeness(two_beauties, {"white", "black"}).justified


def test_alikeness_matches_exhaustive_oracle(wbg, technicolor, two_beauties):
    for e in (wbg, technicolor, two_beauties):
        observations = sorted(e.observations)
        for a_index in range(len(observations)):
            for b_index in range(a_index + 1, len(observations)):
                cls = {observations[a_index], observations[b_index]}
                assert verify_alikeness(e, cls).justified == alikeness_by_exhaustive_search(
                    e, cls
                )


def declared_and_paired_classes(e):
    """Every declared class, then every pair of observations."""
    yield from e.alikeness
    for pair in itertools.combinations(sorted(e.observations), 2):
        yield frozenset(pair)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), twins=st.booleans())
def test_alikeness_matches_multi_agent_oracle(seed, twins):
    make = random_agent_twin_experiment if twins else random_multi_agent_experiment
    e = make(random.Random(seed))
    for cls in declared_and_paired_classes(e):
        assert verify_alikeness(e, cls).justified == alikeness_by_exhaustive_search(e, cls)


def test_agent_twin_generator_yields_both_verdicts():
    justified = needs_agent_map = unjustified = 0
    for seed in range(100):
        e = random_agent_twin_experiment(random.Random(seed))
        identity = [{agent: agent for agent in e.agents}]
        for cls in (cls for cls in e.alikeness if len(cls) > 1):
            check = verify_alikeness(e, cls)
            assert check.justified == alikeness_by_exhaustive_search(e, cls), seed
            if check.justified:
                justified += 1
                needs_agent_map += not alikeness_by_exhaustive_search(e, cls, identity)
            else:
                unjustified += 1
                assert "no prior-preserving relabeling" in check.reason, seed
    assert justified >= 20 and unjustified >= 20
    assert needs_agent_map >= 10


def mirrored_pairs_experiment(broken: bool):
    """40 equal-prior worlds in 20 pairs, each twin swapping red and blue.

    The broken variant turns one twin's red center blue; red still occurs
    at that slot in other twins, so every observation keeps its slot set.
    """
    pool = ["red", "blue", "green"]
    swap = {"red": "blue", "blue": "red"}
    slots = ["s0", "s1", "s2"]
    centers = []
    for k in range(20):
        base = [(slot, pool[(k + j * (k // 3)) % 3]) for j, slot in enumerate(slots)]
        centers += [{"world": f"w{k}", "slot": s, "observation": o} for s, o in base]
        centers += [{"world": f"v{k}", "slot": s, "observation": swap.get(o, o)} for s, o in base]
    if broken:
        victim = next(c for c in centers if c["world"][0] == "v" and c["observation"] == "red")
        victim["observation"] = "blue"
    world_ids = [f"{side}{k}" for k in range(20) for side in "wv"]
    return load_experiment(
        {
            "worlds": [{"id": w, "prior": "1/40"} for w in world_ids],
            "slots": slots,
            "centers": centers,
            "alikeness": [["red", "blue"], ["green"]],
        }
    )


def test_alikeness_at_forty_equal_prior_worlds():
    assert verify_alikeness(mirrored_pairs_experiment(False), {"red", "blue"}).justified
    check = verify_alikeness(mirrored_pairs_experiment(True), {"red", "blue"})
    assert not check.justified
    assert "no prior-preserving relabeling" in check.reason


def test_center_counts_partition_by_observation():
    rng = random.Random(7)
    for _ in range(50):
        e = random_uniform_info_experiment(rng)
        for world_id in e.world_ids:
            per_state = sum(
                count_centers(e, world_id, InformationState(obs, agent))
                for obs in e.observations
                for agent in e.agents
            )
            assert per_state == count_centers(e, world_id)


def test_round_trip_bundled(original_sb, technicolor, wbg, two_beauties):
    for e in (original_sb, technicolor, wbg, two_beauties):
        assert load_experiment(experiment_to_document(e)) == e


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_round_trip_random(seed):
    e = random_uniform_info_experiment(random.Random(seed))
    assert load_experiment(experiment_to_document(e)) == e
