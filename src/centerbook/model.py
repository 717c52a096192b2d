"""Centered-world betting experiments.

An experiment is a finite set of uncentered worlds with exact rational
priors, a shared ordered list of time slots, and a set of centers: the
awakening events, each a (world, slot, agent) triple tagged with the
observation the agent makes there. An information state is what an agent
can actually tell apart: an observation plus her own identity. Alikeness
classes group observations that the scenario declares symmetric, and
``verify_alikeness`` checks such a declaration against the structure
rather than taking it on faith.

All types are immutable after construction and validate their invariants
as they are built, so an Experiment in hand is always a consistent one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from typing import Callable, Iterable, NamedTuple

from .docio import list_field, read_document, require_keys, string_field, string_list
from .errors import DocumentError, InvariantError, UnknownLabelError
from .rationals import format_rational, parse_rational

DEFAULT_AGENT = "beauty"
_CENTER_KEYS = frozenset({"world", "slot", "observation", "agent"})


@dataclass(frozen=True)
class World:
    id: str
    prior: Fraction


class WorldWeights(NamedTuple):
    """Exact per-world weights as integers over one common denominator."""

    numerators: dict[str, int]
    denominator: int


@dataclass(frozen=True)
class Center:
    """One awakening event: where, when, who, and what she observes."""

    world: str
    slot: str
    agent: str
    observation: str


@dataclass(frozen=True)
class InformationState:
    """What an awakened agent can condition on: her observation and identity."""

    observation: str
    agent: str = DEFAULT_AGENT


@dataclass(frozen=True)
class Experiment:
    worlds: tuple[World, ...]
    slots: tuple[str, ...]
    agents: tuple[str, ...]
    centers: tuple[Center, ...]
    alikeness: tuple[frozenset[str], ...]

    # Lookup tables, filled once after validation; outside equality and repr.
    _world_by_id: dict = field(init=False, repr=False, compare=False)
    _center_by_triple: dict = field(init=False, repr=False, compare=False)
    _centers_by_state: dict = field(init=False, repr=False, compare=False)
    _agent_counts: Counter = field(init=False, repr=False, compare=False)
    _observations: frozenset = field(init=False, repr=False, compare=False)
    _states: tuple = field(init=False, repr=False, compare=False)
    # Priors as integer numerators over the lcm of their denominators.
    _priors: WorldWeights = field(init=False, repr=False, compare=False)
    # Verdicts of verify_alikeness by class, memoized per experiment by the decision layer.
    _alikeness_checks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Check the invariants and fill the lookup tables, one pass over the centers."""
        world_by_id = _checked_worlds(self.worlds)
        for name, labels in (("slots", self.slots), ("agents", self.agents)):
            if not labels:
                raise InvariantError(f"{name}: at least one label is required")
            if len(set(labels)) != len(labels):
                raise InvariantError(f"{name}: duplicate labels in {list(labels)}")
        slots, agents = set(self.slots), set(self.agents)
        by_triple: dict[tuple[str, str, str], Center] = {}
        by_state: dict[tuple[str, str], list[Center]] = {}
        for c in self.centers:
            world, slot, agent = triple = (c.world, c.slot, c.agent)
            if world not in world_by_id:
                raise InvariantError(f"centers: unknown world {world!r}")
            if slot not in slots:
                raise InvariantError(f"centers: unknown slot {slot!r}")
            if agent not in agents:
                raise InvariantError(f"centers: unknown agent {agent!r}")
            if triple in by_triple:
                raise InvariantError(f"centers: duplicate (world, slot, agent) {triple}")
            by_triple[triple] = c
            by_state.setdefault((c.observation, agent), []).append(c)
        observations = frozenset(observation for observation, _ in by_state)
        _check_alikeness(self.alikeness, observations)
        scale = lcm(*(world.prior.denominator for world in self.worlds))
        tables = {
            "_world_by_id": world_by_id,
            "_center_by_triple": by_triple,
            "_centers_by_state": {key: tuple(group) for key, group in by_state.items()},
            "_agent_counts": Counter((world, agent) for world, _, agent in by_triple),
            "_observations": observations,
            "_states": tuple(InformationState(*key) for key in by_state),
            "_priors": WorldWeights({w.id: int(w.prior * scale) for w in self.worlds}, scale),
            "_alikeness_checks": {},
        }
        for name, table in tables.items():
            object.__setattr__(self, name, table)

    # Indexed: worlds by id, centers by (world, slot, agent) and by state, per-agent counts.

    def world(self, world_id: str) -> World:
        if world_id not in self._world_by_id:
            raise UnknownLabelError(f"unknown world {world_id!r}")
        return self._world_by_id[world_id]

    @property
    def world_ids(self) -> tuple[str, ...]:
        return tuple(world.id for world in self.worlds)

    @property
    def observations(self) -> frozenset[str]:
        return self._observations

    def centers_in(self, world_id: str) -> tuple[Center, ...]:
        """A world's centers slot by slot, agents in declaration order within a slot."""
        found = (self.center_at(world_id, s, a) for s in self.slots for a in self.agents)
        return tuple(center for center in found if center is not None)

    def center_at(self, world_id: str, slot: str, agent: str) -> Center | None:
        return self._center_by_triple.get((world_id, slot, agent))

    def awakenings(self, world_id: str, agent: str) -> int:
        """How many centers the agent has in the world."""
        return self._agent_counts[world_id, agent]

    def alikeness_class_of(self, observation: str) -> frozenset[str]:
        for cls in self.alikeness:
            if observation in cls:
                return cls
        raise UnknownLabelError(f"unknown observation label {observation!r}")

    def information_states(self) -> tuple[InformationState, ...]:
        """Every realizable (observation, agent) pair, in first-occurrence order."""
        return self._states


@dataclass(frozen=True)
class AlikenessCheck:
    justified: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.justified


def _checked_worlds(worlds: tuple[World, ...]) -> dict[str, World]:
    """Worlds by id, once ids are distinct and the priors positive and summing to 1."""
    if not worlds:
        raise InvariantError("worlds: at least one world is required")
    by_id: dict[str, World] = {}
    for world in worlds:
        if world.id in by_id:
            raise InvariantError(f"worlds: duplicate id {world.id!r}")
        by_id[world.id] = world
        if world.prior <= 0:
            raise InvariantError(
                f"worlds: prior of {world.id!r} must be > 0, got "
                f"{format_rational(world.prior)}"
            )
    total = sum((world.prior for world in worlds), Fraction(0))
    if total != 1:
        raise InvariantError(f"worlds: priors sum to {format_rational(total)}, expected 1")
    return by_id


def _check_alikeness(alikeness: tuple[frozenset[str], ...], used: frozenset[str]) -> None:
    """The classes must partition exactly the observations the centers use."""
    declared: set[str] = set()
    for cls in alikeness:
        if not cls:
            raise InvariantError("alikeness: empty class")
        overlap = declared & cls
        if overlap:
            raise InvariantError(
                f"alikeness: observation(s) {sorted(overlap)} appear in more than one class"
            )
        declared |= cls
    if declared != used:
        extra = declared - used
        missing = used - declared
        if extra:
            raise InvariantError(
                f"alikeness: class label(s) {sorted(extra)} are used by no center"
            )
        raise InvariantError(
            f"alikeness: observation(s) {sorted(missing)} belong to no class"
        )


def _check_state(e: Experiment, i: InformationState) -> None:
    if i.observation not in e.observations:
        raise UnknownLabelError(f"unknown observation label {i.observation!r}")
    if i.agent not in e.agents:
        raise UnknownLabelError(f"unknown agent label {i.agent!r}")


def consistent_centers(e: Experiment, i: InformationState) -> tuple[Center, ...]:
    """The centers an agent in state ``i`` cannot tell apart, in declaration order."""
    _check_state(e, i)
    return e._centers_by_state.get((i.observation, i.agent), ())


def count_by_world(
    e: Experiment,
    states: Iterable[InformationState],
    keep: Callable[[Center], bool] | None = None,
) -> dict[str, int]:
    """Per world with any, the centers in ``states`` that pass ``keep`` (all if None)."""
    counts: dict[str, int] = {}
    for state in states:
        for c in e._centers_by_state.get((state.observation, state.agent), ()):
            if keep is None or keep(c):
                counts[c.world] = counts.get(c.world, 0) + 1
    return counts


def count_centers(
    e: Experiment, world_id: str, i: InformationState | None = None
) -> int:
    """Centers in a world, optionally restricted to those consistent with ``i``."""
    e.world(world_id)
    if i is None:
        return sum(e.awakenings(world_id, agent) for agent in e.agents)
    _check_state(e, i)
    return count_by_world(e, [i]).get(world_id, 0)


def verify_alikeness(e: Experiment, observation_class) -> AlikenessCheck:
    """Check that a class of observations really is symmetric in the experiment.

    The class is justified when every swap of two labels inside it extends
    to an automorphism of the center structure: a prior-preserving
    relabeling of worlds (and, for multi-agent experiments, of agents)
    that maps the center set onto itself while fixing slots and all
    observations outside the class. Swaps generate every permutation of
    the class and automorphisms compose, so checking swaps suffices.
    Singleton classes are justified by the identity.

    Agent relabelings are few and are tried one by one. World relabelings
    are not enumerated: a world's signature is the set of its (slot,
    agent, observation) triples, and under a fixed agent map and swap the
    relabeled center set splits into per-world pieces, the swapped
    signatures. So a matching prior-preserving world bijection exists
    exactly when the multiset of (prior, swapped signature) equals the
    multiset of (prior, signature). The check is polynomial in worlds and
    centers and factorial only in agents.
    """
    cls = frozenset(observation_class)
    unknown = cls - e.observations
    if unknown:
        raise UnknownLabelError(f"unknown observation label(s) {sorted(unknown)}")
    for first, second in combinations(sorted(cls), 2):
        if not _swap_extends(e, first, second):
            return AlikenessCheck(False, _swap_failure_reason(e, first, second))
    return AlikenessCheck(True)


def _swap_extends(e: Experiment, first: str, second: str) -> bool:
    swap = {first: second, second: first}
    triples: dict[str, list[tuple[str, str, str]]] = {world.id: [] for world in e.worlds}
    for c in e.centers:
        triples[c.world].append((c.slot, c.agent, c.observation))
    pieces = [(world.prior, triples[world.id]) for world in e.worlds]
    signatures = Counter((prior, frozenset(found)) for prior, found in pieces)
    for perm in permutations(e.agents):
        agent_map = dict(zip(e.agents, perm))
        swapped = Counter(
            (prior, frozenset((s, agent_map[a], swap.get(o, o)) for s, a, o in found))
            for prior, found in pieces
        )
        if swapped == signatures:
            return True
    return False


def _swap_failure_reason(e: Experiment, first: str, second: str) -> str:
    def slots_of(observation: str) -> set[str]:
        groups = (e._centers_by_state.get((observation, a), ()) for a in e.agents)
        return {c.slot for group in groups for c in group}

    slots_first, slots_second = slots_of(first), slots_of(second)
    if slots_first != slots_second:
        def fmt(slots: set[str]) -> str:
            return "{" + ", ".join(s for s in e.slots if s in slots) + "}"

        return (
            f"cannot treat {first!r} and {second!r} alike: {first!r} occurs at "
            f"slots {fmt(slots_first)} but {second!r} occurs at slots {fmt(slots_second)}"
        )
    return (
        f"cannot treat {first!r} and {second!r} alike: no prior-preserving "
        f"relabeling of worlds and agents maps the centers onto themselves "
        f"when the two observations are swapped"
    )


def load_experiment(source) -> Experiment:
    """Build a validated Experiment from a scenario document (mapping or path)."""
    doc, where = read_document(source)
    require_keys(
        doc, where, required={"worlds", "slots", "centers"}, optional={"agents", "alikeness"}
    )

    worlds = []
    for index, entry in enumerate(list_field(doc, "worlds", where)):
        sub = f"{where}.worlds[{index}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{sub}: expected an object")
        require_keys(entry, sub, required={"id", "prior"})
        worlds.append(
            World(string_field(entry, "id", sub), parse_rational(entry["prior"], f"{sub}.prior"))
        )

    slots = _label_list(doc, "slots", where)
    agents = _label_list(doc, "agents", where) if "agents" in doc else [DEFAULT_AGENT]

    lone_agent = agents[0] if len(agents) == 1 else None
    centers = []
    for index, entry in enumerate(list_field(doc, "centers", where)):
        center = _typed_center(entry, lone_agent)
        if center is None:
            center = _checked_center(entry, f"{where}.centers[{index}]", agents)
        centers.append(center)

    if "alikeness" in doc:
        alikeness = [
            frozenset(string_list(entry, f"{where}.alikeness[{index}]", "observation labels"))
            for index, entry in enumerate(list_field(doc, "alikeness", where))
        ]
    else:
        alikeness = [frozenset([obs]) for obs in dict.fromkeys(c.observation for c in centers)]

    return Experiment(
        worlds=tuple(worlds),
        slots=tuple(slots),
        agents=tuple(agents),
        centers=tuple(centers),
        alikeness=tuple(alikeness),
    )


def _typed_center(entry: object, lone_agent: str | None) -> Center | None:
    """The center a well-formed entry describes in one typed pass; None for any other.

    Well-formed: an object whose keys are among world, slot, observation and
    agent, whose values are non-empty strings, and whose agent may be left
    out only when the experiment has one agent.
    """
    if not isinstance(entry, dict) or not entry.keys() <= _CENTER_KEYS:
        return None
    world, slot, observation = entry.get("world"), entry.get("slot"), entry.get("observation")
    agent = entry.get("agent", lone_agent)
    if type(world) is type(slot) is type(agent) is type(observation) is str and all(
        (world, slot, agent, observation)
    ):
        return Center(world, slot, agent, observation)
    return None


def _checked_center(entry: object, where: str, agents: list[str]) -> Center:
    """The center an entry describes, checked key by key so that an error names the fault."""
    if not isinstance(entry, dict):
        raise DocumentError(f"{where}: expected an object")
    require_keys(entry, where, required={"world", "slot", "observation"}, optional={"agent"})
    if "agent" in entry:
        agent = string_field(entry, "agent", where)
    elif len(agents) == 1:
        agent = agents[0]
    else:
        raise DocumentError(
            f"{where}: agent is required when the experiment declares several agents"
        )
    return Center(
        string_field(entry, "world", where),
        string_field(entry, "slot", where),
        agent,
        string_field(entry, "observation", where),
    )


def _label_list(doc: dict, key: str, where: str) -> list[str]:
    entries = list_field(doc, key, where)
    if not all(isinstance(x, str) and x for x in entries):
        raise DocumentError(f"{where}.{key}: expected a list of non-empty strings")
    return entries


def experiment_to_document(e: Experiment) -> dict:
    """Serialize back to the scenario format; loading the result round-trips."""
    return {
        "worlds": [{"id": w.id, "prior": format_rational(w.prior)} for w in e.worlds],
        "slots": list(e.slots),
        "agents": list(e.agents),
        "centers": [
            {"world": c.world, "slot": c.slot, "agent": c.agent, "observation": c.observation}
            for c in e.centers
        ],
        "alikeness": [sorted(cls) for cls in e.alikeness],
    }
