"""Seeded op generators for the benchmark workloads.

An op is one ``centerbook`` command line plus the documents it reads. Every
op is a pure function of (workload, seed, index): the same triple gives
byte-identical documents. Ops come in passes; each pass holds a fixed
multiset of op kinds (size stratum, subcommand, agent) in a seeded order,
so the percentiles a run reports do not drift with the seed, while the
documents themselves are fresh for every op of the synthetic workloads.

This module imports nothing from centerbook, so the parent process can
generate documents without loading the program it measures.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("desk", "simulate-scale", "synth-lp", "alike-audit")

AGENTS = tuple(
    f"{rule}+{theory}"
    for rule in ("halfer", "halfer-ra", "thirder")
    for theory in ("cdt", "edt")
)


@dataclass
class Op:
    """One CLI invocation. ``argv`` tokens starting with "@" name a document role."""

    index: int
    kind: str
    argv: list[str]
    # Documents by role, until ``materialize`` writes them; ``roles`` stays.
    docs: dict[str, dict] = field(default_factory=dict)
    # (loader, role-or-builtin) pairs: what set-up loads for this op.
    loads: list[tuple[str, str]] = field(default_factory=list)
    # What the output check needs: see worker.check_op.
    expect: dict = field(default_factory=dict)
    centers: int = 0
    worlds: int = 0
    params: int = 0
    roles: tuple[str, ...] = field(init=False, default=())
    position: int = 0  # index within its pass

    def __post_init__(self) -> None:
        self.roles = tuple(self.docs)


def dump(doc: dict) -> str:
    """The on-disk form of a generated document."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def document_path(work: Path, op: Op, role: str) -> Path:
    """Named by the op's position in its pass: the names repeat from pass to
    pass, so the interpreter's interned path strings do not grow with the run."""
    return work / f"op{op.position}.{role}.json"


def materialize(op: Op, work: Path) -> list[str]:
    """Write the op's documents under ``work`` and drop them from the op.

    Returns the op's argv with the documents' paths.
    """
    for role, doc in op.docs.items():
        document_path(work, op, role).write_text(dump(doc), encoding="utf-8")
    op.docs = {}
    return [str(document_path(work, op, token[1:])) if token.startswith("@") else token
            for token in op.argv]


def make_op(workload: str, seed: int, index: int) -> Op:
    plan = PLANS[workload]
    pass_no, position = divmod(index, len(plan))
    order = list(range(len(plan)))
    random.Random(f"{workload}:{seed}:pass{pass_no}").shuffle(order)
    kind = plan[order[position]]
    rng = random.Random(f"{workload}:{seed}:op{index}")
    op = BUILDERS[workload](index, kind, rng)
    op.position = position
    return op


def _ratio(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _distinct_priors(rng: random.Random, n: int) -> list[str]:
    weights = rng.sample(range(1, 4 * n + 1), n)
    total = sum(weights)
    return [_ratio(Fraction(w, total)) for w in weights]


def _scenario(worlds, priors, slots, agents, centers, alikeness=None) -> dict:
    doc = {
        "worlds": [{"id": w, "prior": p} for w, p in zip(worlds, priors)],
        "slots": slots,
        "agents": agents,
        "centers": [
            {"world": w, "slot": s, "agent": a, "observation": o}
            for w, s, a, o in centers
        ],
    }
    if alikeness is not None:
        doc["alikeness"] = alikeness
    return doc


# --- desk: the README quick-start and reproduce commands, bundled documents.

DESK_OPS = {
    "fig1": ["reproduce", "--figure", "1"],
    "fig2": ["reproduce", "--figure", "2"],
    "fig3": ["reproduce", "--figure", "3"],
    "fig4": ["reproduce", "--figure", "4"],
    "fig6": ["reproduce", "--figure", "6"],
    "fig7": ["reproduce", "--figure", "7"],
    "wbg-simulate": ["simulate", "builtin:wbg", "builtin:wbg-book", "--agent", "halfer+edt"],
    "wbg-evaluate": ["evaluate", "builtin:wbg", "builtin:wbg-book", "--agent", "thirder+cdt"],
    "wbg-credence": ["credence", "builtin:wbg", "--rule", "thirder", "--obs", "white"],
    "tb-simulate": [
        "simulate", "builtin:two-beauties", "builtin:two-beauties-book", "--agent", "halfer+edt",
    ],
    "tb-evaluate": [
        "evaluate", "builtin:two-beauties", "builtin:two-beauties-book", "--agent", "thirder+cdt",
    ],
    "tb-credence": [
        "credence", "builtin:two-beauties", "--rule", "halfer", "--obs", "white",
        "--agent-label", "white_beauty",
    ],
    "sb-simulate": [
        "simulate", "builtin:original-sb", "builtin:hitchcock", "--agent", "halfer+cdt",
        "--tie", "accept",
    ],
    "sb-evaluate": ["evaluate", "builtin:original-sb", "builtin:hitchcock", "--agent", "thirder+edt"],
    "sb-credence": ["credence", "builtin:original-sb", "--rule", "halfer-ra", "--obs", "awake"],
    "wbg-synth-halfer-edt": [
        "synthesize", "builtin:wbg", "builtin:wbg-template", "--agent", "halfer+edt",
    ],
    "wbg-synth-thirder-cdt": [
        "synthesize", "builtin:wbg", "builtin:wbg-template", "--agent", "thirder+cdt",
    ],
    "wbg-grid": [
        "synthesize", "builtin:wbg", "builtin:wbg-template", "--agent", "thirder+cdt",
        "--grid-step", "1", "--bounds", "0/50",
    ],
    "anti-thirder": [
        "simulate", "builtin:original-sb", "builtin:anti-thirder", "--agent", "thirder+cdt",
    ],
}

# Sizes of the bundled scenarios, for the input.* counters.
_BUNDLED_SIZES = {
    "wbg": (8, 4),
    "two-beauties": (4, 3),
    "original-sb": (3, 2),
}
_FIGURE_SCENARIO = {
    "1": "original-sb", "2": "original-sb", "3": "wbg", "4": "wbg",
    "6": "two-beauties", "7": "two-beauties",
}
_FIGURE_BOOK = {"2": "hitchcock", "4": "wbg-book", "7": "two-beauties-book"}


def _desk_op(index: int, kind: str, rng: random.Random) -> Op:
    argv = list(DESK_OPS[kind])
    if argv[0] == "reproduce":
        figure = argv[2]
        scenario = _FIGURE_SCENARIO[figure]
        loads = [("load_experiment", f"builtin:{scenario}")]
        if figure in _FIGURE_BOOK:
            loads.append(("load_book", f"builtin:{_FIGURE_BOOK[figure]}"))
    else:
        scenario = argv[1][len("builtin:"):]
        loads = [("load_experiment", argv[1])]
        if argv[0] in ("simulate", "evaluate"):
            loads.append(("load_book", argv[2]))
        elif argv[0] == "synthesize":
            loads.append(("load_template", argv[2]))
    centers, worlds = _BUNDLED_SIZES[scenario]
    params = 4 if argv[0] == "synthesize" else 0
    return Op(
        index, kind, argv, loads=loads, expect={"reference": kind},
        centers=centers, worlds=worlds, params=params,
    )


# --- simulate-scale: large scenarios with singleton classes.

# (worlds, slots, observations) per size stratum; 3/4 of the (world, slot,
# agent) triples hold a center, with 2 agents.
SCALE_STRATA = {
    "c250": (16, 10, 6),
    "c500": (24, 14, 8),
    "c1000": (32, 21, 10),
    "c2500": (50, 34, 12),
}


def _scale_scenario(rng: random.Random, n_worlds: int, n_slots: int, n_obs: int):
    worlds = [f"w{k:02d}" for k in range(n_worlds)]
    slots = [f"s{k:02d}" for k in range(n_slots)]
    agents = ["alpha", "beta"]
    observations = [f"o{k:02d}" for k in range(n_obs)]
    triples = [(w, s, a) for w in worlds for s in slots for a in agents]
    chosen = sorted(rng.sample(range(len(triples)), len(triples) * 3 // 4))
    labels = observations + [rng.choice(observations) for _ in range(len(chosen) - n_obs)]
    rng.shuffle(labels)
    centers = [triples[k] + (label,) for k, label in zip(chosen, labels)]
    doc = _scenario(worlds, _distinct_priors(rng, n_worlds), slots, agents, centers)
    return doc, worlds, agents, observations


def _random_bets(rng: random.Random, worlds, agents, observations, n_bets: int) -> list[dict]:
    """One pre-experiment bet and ``n_bets`` bets offered on two observations each.

    Every other in-experiment bet is offered to one agent only.
    """
    def event():
        return sorted(rng.sample(worlds, rng.randint(1, len(worlds) - 1)))

    cost = rng.randint(1, 50)
    bets = [
        {"id": "pre", "cost": str(cost), "payout": str(rng.randint(cost, 100)),
         "payoff_event": event(), "offer": "pre"}
    ]
    for k in range(n_bets):
        offer = {"observations": sorted(rng.sample(observations, min(2, len(observations))))}
        if k % 2:
            offer["agent"] = agents[k // 2 % len(agents)]
        cost = rng.randint(1, 50)
        bets.append(
            {"id": f"b{k}", "cost": str(cost), "payout": str(rng.randint(cost, 100)),
             "payoff_event": event(), "offer": offer}
        )
    return bets


def _scale_op(index: int, kind: str, rng: random.Random) -> Op:
    stratum, command, agent = kind.split()
    n_bets = 4 + AGENTS.index(agent) % 5  # 4 to 8 in-experiment bets
    n_worlds, n_slots, n_obs = SCALE_STRATA[stratum]
    doc, worlds, agents, observations = _scale_scenario(rng, n_worlds, n_slots, n_obs)
    docs = {"scenario": doc}
    loads = [("load_experiment", "scenario")]
    expect: dict = {"check": command}
    if command == "credence":
        rule = agent.split("+")[0]
        argv = ["credence", "@scenario", "--rule", rule,
                "--obs", rng.choice(observations), "--agent-label", rng.choice(agents)]
    else:
        docs["book"] = {"bets": _random_bets(rng, worlds, agents, observations, n_bets)}
        loads.append(("load_book", "book"))
        argv = [command, "@scenario", "@book", "--agent", agent]
    return Op(index, kind, argv, docs, loads, expect,
              centers=len(doc["centers"]), worlds=n_worlds)


# --- synth-lp: tiled Sleeping Beauty templates.


def _tiled_sb(rng: random.Random, n_tiles: int):
    """Tile k is a copy of the original experiment with its own observation.

    Tiles have distinct priors; heads and tails split a tile's prior evenly.
    """
    weights = rng.sample(range(1, 4 * n_tiles + 1), n_tiles)
    total = 2 * sum(weights)
    worlds, priors, centers = [], [], []
    for k, weight in enumerate(weights):
        heads, tails, obs = f"h{k:02d}", f"t{k:02d}", f"awake{k:02d}"
        worlds += [heads, tails]
        priors += [_ratio(Fraction(weight, total))] * 2
        centers += [(heads, "monday", "beauty", obs), (tails, "monday", "beauty", obs),
                    (tails, "tuesday", "beauty", obs)]
    return _scenario(worlds, priors, ["monday", "tuesday"], ["beauty"], centers)


def _sb_template(rng: random.Random, n_tiles: int, n_params: int) -> dict:
    """The Hitchcock book, tiled: a pre-experiment bet on tails, an awake bet on heads per tile.

    The tails bet and every payout are symbolic; ``n_params`` fixes how
    many awake-bet costs are symbolic too. The others cost 10.
    """
    bets = [{"id": "pre", "cost": "?", "payout": "?",
             "payoff_event": [f"t{k:02d}" for k in range(n_tiles)], "offer": "pre"}]
    symbolic_costs = set(rng.sample(range(n_tiles), n_params - 2 - n_tiles))
    for k in range(n_tiles):
        bets.append({"id": f"awake{k:02d}", "cost": "?" if k in symbolic_costs else "10",
                     "payout": "?", "payoff_event": [f"h{k:02d}"],
                     "offer": {"observations": [f"awake{k:02d}"]}})
    return {"epsilon": "1", "bets": bets}


# (tiles, symbolic parameters) per size stratum.
LP_STRATA = {
    "w10": (5, 8),
    "w14": (7, 12),
    "w20": (10, 16),
    "w26": (13, 20),
}

# Tiled Sleeping Beauty is Dutch-bookable for the causal halfer and not for
# the causal thirder or the evidential halfer.
LP_FEASIBLE = {"halfer+cdt": True, "thirder+cdt": False, "halfer+edt": False}


def _lp_op(index: int, kind: str, rng: random.Random) -> Op:
    stratum, agent = kind.split()
    n_tiles, n_params = LP_STRATA[stratum]
    docs = {"scenario": _tiled_sb(rng, n_tiles),
            "template": _sb_template(rng, n_tiles, n_params)}
    argv = ["synthesize", "@scenario", "@template", "--agent", agent]
    return Op(index, kind, argv, docs,
              [("load_experiment", "scenario"), ("load_template", "template")],
              {"check": "synthesize", "feasible": LP_FEASIBLE[agent]},
              centers=3 * n_tiles, worlds=2 * n_tiles, params=n_params)


# --- alike-audit: equal-prior worlds with a declared two-observation class.


def _alike_scenario(rng: random.Random, index: int, n_worlds: int, justified: bool):
    """Worlds come in pairs that mirror each other under swapping "red" and "blue".

    An odd world out sees only "grey". The unjustified variant turns one
    grey awakening into "red" at a slot where both class members already
    occur, so the class keeps its slot sets but loses its symmetry. World
    ids carry the op index, so no two ops' scenarios are equal and the
    program's per-scenario caches never hit across ops.
    """
    slots = ["monday", "tuesday", "wednesday"]
    swap = {"red": "blue", "blue": "red", "grey": "grey"}
    worlds = [f"w{k}.{index}" for k in range(n_worlds)]
    patterns = []
    for _ in range(n_worlds // 2):
        pattern = {slots[0]: rng.choice(["red", "blue"])}
        for slot in slots[1:]:
            if rng.random() < 0.7:
                pattern[slot] = rng.choice(["red", "blue", "grey"])
        patterns += [pattern, {s: swap[o] for s, o in pattern.items()}]
    if n_worlds % 2:
        patterns.append({slot: "grey" for slot in slots})
    if "grey" not in {o for p in patterns for o in p.values()}:
        patterns[-1][slots[-1]] = "grey"
        patterns[-2][slots[-1]] = "grey"
    if not justified:
        both = [s for s in slots
                if {"red", "blue"} <= {p.get(s) for p in patterns}]
        spots = [(w, s) for w, p in enumerate(patterns) for s, o in p.items()
                 if o == "grey" and s in both]
        if not spots:
            slot = both[0]
            w = next(w for w, p in enumerate(patterns) if p.get(slot) != "red")
            spots = [(w, slot)]
        w, slot = rng.choice(spots)
        patterns[w][slot] = "red" if patterns[w].get(slot) != "red" else "blue"
    centers = [(worlds[w], s, "beauty", p[s]) for w, p in enumerate(patterns)
               for s in slots if s in p]
    used = {c[3] for c in centers}
    alikeness = [["blue", "red"]] + ([["grey"]] if "grey" in used else [])
    prior = _ratio(Fraction(1, n_worlds))
    doc = _scenario(worlds, [prior] * n_worlds, slots, ["beauty"], centers, alikeness)
    return doc, worlds


def _alike_op(index: int, kind: str, rng: random.Random) -> Op:
    stratum, verdict = kind.split()
    n_worlds = int(stratum[1:])
    justified = verdict == "justified"
    doc, worlds = _alike_scenario(rng, index, n_worlds, justified)
    observations = sorted({c["observation"] for c in doc["centers"]})
    book = {"bets": _random_bets(rng, worlds, ["beauty"], observations, 3)}
    book["bets"][1]["offer"] = {"observations": ["blue", "red"]}
    argv = ["evaluate", "@scenario", "@book", "--agent", "halfer+edt", "--linkage", "alike"]
    return Op(index, kind, argv, {"scenario": doc, "book": book},
              [("load_experiment", "scenario"), ("load_book", "book")],
              {"check": "evaluate", "justified": justified},
              centers=len(doc["centers"]), worlds=n_worlds)


# --- pass plans: the op kinds of one pass, in canonical order. Each plan
# puts its median and its 90th percentile inside a block of like ops, not
# between two blocks of different cost.


def _repeat(kinds: list[str], times: int) -> list[str]:
    return [k for k in kinds for _ in range(times)]


PLANS = {
    "desk": list(DESK_OPS)
    + ["wbg-synth-thirder-cdt"] + _repeat(["wbg-synth-halfer-edt"], 2),
    "simulate-scale": (
        [f"c500 credence {a}" for a in AGENTS]
        + [f"c250 {c} {a}" for c in ("simulate", "evaluate") for a in AGENTS]
        + [f"c500 {c} {a}" for c in ("simulate", "evaluate") for a in AGENTS]
        + [f"c1000 simulate {a}" for a in AGENTS]
        + [f"c1000 evaluate {a}" for a in AGENTS[1::2][:2]]
        + ["c2500 simulate halfer+edt"]
    ),
    "synth-lp": (
        _repeat([f"w10 {a}" for a in LP_FEASIBLE], 2) + ["w10 halfer+cdt"]
        + _repeat([f"w14 {a}" for a in LP_FEASIBLE], 2)
        + [f"w20 {a}" for a in LP_FEASIBLE]
        + [f"w26 {a}" for a in LP_FEASIBLE] + ["w26 thirder+cdt"]
    ),
    "alike-audit": (
        _repeat(["n4 justified", "n4 unjustified"], 3)
        + _repeat(["n5 justified"], 3) + _repeat(["n5 unjustified"], 4)
        + ["n6 unjustified"] + _repeat(["n7 unjustified"], 2)
        + _repeat(["n8 justified"], 4)
    ),
}

BUILDERS = {
    "desk": _desk_op,
    "simulate-scale": _scale_op,
    "synth-lp": _lp_op,
    "alike-audit": _alike_op,
}
