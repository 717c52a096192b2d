"""Shared fixtures-in-spirit: agent builders, random case generators, and
independent oracles that recompute engine results from first principles."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import partial

from centerbook import (
    CDT,
    EDT,
    AgentSpec,
    AlikeClasses,
    Bet,
    Book,
    Center,
    CenteredCredence,
    CredenceRule,
    Experiment,
    InformationState,
    OnObservation,
    PreExperiment,
    SameInfoOnly,
    TieRule,
    UnjustifiedClassError,
    consistent_centers,
    credence,
    load_experiment,
    verify_alikeness,
)
from centerbook.decision import _class_check, offered_at_center
from centerbook.docio import list_field, read_document, require_keys, string_field, string_list
from centerbook.errors import DocumentError, InvariantError
from centerbook.model import DEFAULT_AGENT, World, _label_list, count_by_world
from centerbook.rationals import format_rational, parse_rational

F = Fraction


def thirder_cdt(tie: str = TieRule.REJECT_AT_ZERO) -> AgentSpec:
    return AgentSpec(CredenceRule.THIRDER, CDT(), tie)


def halfer_cdt(tie: str = TieRule.REJECT_AT_ZERO) -> AgentSpec:
    return AgentSpec(CredenceRule.HALFER_STANDARD, CDT(), tie)


def halfer_edt(rho: Fraction = F(1), tie: str = TieRule.REJECT_AT_ZERO) -> AgentSpec:
    return AgentSpec(CredenceRule.HALFER_STANDARD, EDT(AlikeClasses(rho)), tie)


def halfer_edt_same_info(tie: str = TieRule.REJECT_AT_ZERO) -> AgentSpec:
    return AgentSpec(CredenceRule.HALFER_STANDARD, EDT(SameInfoOnly()), tie)


def awake_bet(cost: int, payout: int, event: set[str], bet_id: str = "bet") -> Bet:
    return Bet(
        bet_id,
        F(cost),
        F(payout),
        frozenset(event),
        OnObservation(frozenset(["awake"])),
    )


def random_uniform_info_experiment(rng: random.Random) -> Experiment:
    """A small experiment where every awakening carries the same information."""
    n_worlds = rng.randint(1, 4)
    n_slots = rng.randint(1, 3)
    denominator = rng.randint(n_worlds, 12)
    cuts = sorted(rng.sample(range(1, denominator), n_worlds - 1)) if n_worlds > 1 else []
    weights = [b - a for a, b in zip([0] + cuts, cuts + [denominator])]
    world_ids = [f"w{k}" for k in range(n_worlds)]
    slots = [f"s{k}" for k in range(n_slots)]
    centers = []
    for world_id in world_ids:
        for slot in slots:
            if rng.random() < 0.5:
                centers.append({"world": world_id, "slot": slot, "observation": "awake"})
    if not centers:
        centers.append(
            {"world": rng.choice(world_ids), "slot": rng.choice(slots), "observation": "awake"}
        )
    return load_experiment(
        {
            "worlds": [
                {"id": wid, "prior": f"{w}/{denominator}"}
                for wid, w in zip(world_ids, weights)
            ],
            "slots": slots,
            "centers": centers,
        }
    )


def random_bet(rng: random.Random, e: Experiment, bet_id: str = "bet") -> Bet:
    event = frozenset(wid for wid in e.world_ids if rng.random() < 0.5)
    return Bet(
        bet_id,
        F(rng.randint(0, 50)),
        F(rng.randint(0, 50)),
        event,
        OnObservation(frozenset(["awake"])),
    )


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def edt_delta_by_profile_enumeration(
    rule: CredenceRule,
    e: Experiment,
    i: InformationState,
    bet: Bet,
    rho: Fraction,
) -> Fraction:
    """EU(accept) - EU(reject) via explicit expectation over linked decisions.

    For each world, enumerate every accept/reject profile of the class-linked
    centers, weight it by rho-per-match, and sum the resulting acceptance
    counts. Bets outside the class would add the same constant to both
    branches, so they are omitted. This is the closed formula's slow twin.
    """
    dist = credence(rule, e, i)
    cls = e.alikeness_class_of(i.observation)
    total = F(0)
    for world in e.worlds:
        world_credence = dist.world(world.id)
        if world_credence == 0:
            continue
        net = bet.net(world.id)
        own = [
            c
            for c in e.centers
            if c.world == world.id
            and (c.observation, c.agent) == (i.observation, i.agent)
            and offered_at_center(bet.offer, c)
        ]
        linked = [
            c
            for c in e.centers
            if c.world == world.id
            and c.observation in cls
            and (c.observation, c.agent) != (i.observation, i.agent)
            and offered_at_center(bet.offer, c)
        ]
        expected = {}
        for action in (1, 0):
            eu = F(0)
            for profile in itertools.product((1, 0), repeat=len(linked)):
                probability = F(1)
                for choice in profile:
                    probability *= rho if choice == action else 1 - rho
                acceptances = action * len(own) + sum(profile)
                eu += probability * acceptances * net
            expected[action] = eu
        total += world_credence * (expected[1] - expected[0])
    return total


def alikeness_by_exhaustive_search(e: Experiment, cls: set[str], agent_maps=None) -> bool:
    """Oracle from the definition: every in-class swap extends to some relabeling.

    Tries every world permutation that preserves priors times every agent
    permutation (or only the given agent maps) and asks whether one maps
    the center set onto itself, slots and out-of-class observations fixed.
    """
    center_set = set(e.centers)
    ids = list(e.world_ids)
    priors = {w.id: w.prior for w in e.worlds}
    if agent_maps is None:
        agent_maps = [dict(zip(e.agents, perm)) for perm in itertools.permutations(e.agents)]
    for a, b in itertools.combinations(sorted(cls), 2):
        swap = {a: b, b: a}
        extended = False
        for perm in itertools.permutations(ids):
            mapping = dict(zip(ids, perm))
            if any(priors[wid] != priors[mapping[wid]] for wid in ids):
                continue
            for agent_map in agent_maps:
                mapped = {
                    Center(
                        mapping[c.world],
                        c.slot,
                        agent_map[c.agent],
                        swap.get(c.observation, c.observation),
                    )
                    for c in e.centers
                }
                if mapped == center_set:
                    extended = True
                    break
            if extended:
                break
        if not extended:
            return False
    return True


def random_agent_twin_experiment(rng: random.Random) -> Experiment:
    """Mirrored world pairs whose twin also exchanges two agents.

    Each pair's twin swaps "red" and "blue" and exchanges the same two of
    the two or three agents, so {red, blue} is justified only through a
    non-identity agent map. Half the time one twin center is dropped, one
    whose (slot, observation) occurs at another center too, so the class
    turns unjustified while every observation keeps its slot set.
    """
    agents = ["alpha", "beta", "gamma"][: rng.randint(2, 3)]
    exchanged = rng.sample(agents, 2)
    agent_swap = {exchanged[0]: exchanged[1], exchanged[1]: exchanged[0]}
    swap = {"red": "blue", "blue": "red"}
    slots = [f"s{k}" for k in range(rng.randint(1, 3))]
    pool = ["red", "blue", "green"]
    worlds: list[tuple[str, int]] = []
    centers: list[tuple[str, str, str, str]] = []
    twin_centers: list[tuple[str, str, str, str]] = []
    for k in range(rng.randint(1, 3)):
        weight = rng.randint(1, 3)
        base = [
            (slot, agent, rng.choice(pool))
            for slot in slots
            for agent in agents
            if rng.random() < 0.6
        ] or [(slots[0], agents[0], "red")]
        worlds += [(f"w{k}", weight), (f"v{k}", weight)]
        centers += [(f"w{k}", s_, a, o) for s_, a, o in base]
        twin_centers += [
            (f"v{k}", s_, agent_swap.get(a, a), swap.get(o, o)) for s_, a, o in base
        ]
    centers += twin_centers
    if rng.random() < 0.5:
        droppable = [
            c
            for c in twin_centers
            if sum(1 for d in centers if (d[1], d[3]) == (c[1], c[3])) > 1
        ]
        if droppable:
            centers.remove(rng.choice(droppable))
    used = {o for _, _, _, o in centers}
    classes = [sorted(used & {"red", "blue"})] if used & {"red", "blue"} else []
    classes += [[o] for o in sorted(used - {"red", "blue"})]
    total = sum(weight for _, weight in worlds)
    return load_experiment(
        {
            "worlds": [{"id": wid, "prior": f"{w}/{total}"} for wid, w in worlds],
            "slots": slots,
            "agents": agents,
            "centers": [
                {"world": w, "slot": s_, "agent": a, "observation": o}
                for w, s_, a, o in centers
            ],
            "alikeness": classes,
        }
    )


def random_multi_agent_experiment(rng: random.Random) -> Experiment:
    """A small experiment with one or two agents and up to four observations.

    Half the time the worlds come in mirrored pairs of equal prior, the twin
    swapping "red" and "blue", and those two form a justified alikeness
    class. Otherwise the observations are grouped into random classes, which
    are usually unjustified when they are not singletons.
    """
    agents = ["alpha", "beta"][: rng.randint(1, 2)]
    slots = [f"s{k}" for k in range(rng.randint(1, 3))]
    pool = ["red", "blue", "green", "white"][: rng.randint(1, 4)]
    mirrored = rng.random() < 0.5
    swap = {"red": "blue", "blue": "red"}
    worlds: list[tuple[str, int]] = []
    centers: list[dict] = []
    for k in range(rng.randint(1, 3)):
        weight = rng.randint(1, 5)
        base = [
            (slot, agent, rng.choice(pool))
            for slot in slots
            for agent in agents
            if rng.random() < 0.6
        ]
        twins = [(f"w{k}", base)]
        if mirrored:
            twins.append((f"v{k}", [(s_, a, swap.get(o, o)) for s_, a, o in base]))
        for world_id, triples in twins:
            worlds.append((world_id, weight))
            centers += [
                {"world": world_id, "slot": s_, "agent": a, "observation": o}
                for s_, a, o in triples
            ]
    if not centers:
        centers.append(
            {"world": worlds[0][0], "slot": slots[0], "agent": agents[0], "observation": pool[0]}
        )
    used = sorted({c["observation"] for c in centers})
    if mirrored and {"red", "blue"} <= set(used):
        classes = [["red", "blue"]] + [[o] for o in used if o not in swap]
    else:
        rng.shuffle(used)
        classes = []
        for obs in used:
            if classes and rng.random() < 0.5:
                classes[-1].append(obs)
            else:
                classes.append([obs])
    total = sum(weight for _, weight in worlds)
    return load_experiment(
        {
            "worlds": [{"id": wid, "prior": f"{w}/{total}"} for wid, w in worlds],
            "slots": slots,
            "agents": agents,
            "centers": centers,
            "alikeness": classes,
        }
    )


def random_agent(rng: random.Random) -> AgentSpec:
    theory = rng.choice(
        [CDT(), EDT(SameInfoOnly()), EDT(AlikeClasses(rng.choice([F(0), F(1, 3), F(1)])))]
    )
    tie = rng.choice([TieRule.REJECT_AT_ZERO, TieRule.ACCEPT_AT_ZERO])
    return AgentSpec(rng.choice(list(CredenceRule)), theory, tie)


def random_multi_agent_book(
    rng: random.Random, e: Experiment, restrict_slots: bool = False
) -> Book:
    """Zero or one pre-experiment bet, then one to three bets on observations.

    With ``restrict_slots``, each bet on observations is offered only at a
    random nonempty subset of the slots half the time, which usually makes
    the book illegitimate.
    """

    def event() -> frozenset[str]:
        return frozenset(wid for wid in e.world_ids if rng.random() < 0.5)

    def payoffs() -> tuple[Fraction, Fraction]:
        return F(rng.randint(0, 20)), F(rng.randint(0, 40))

    bets = []
    if rng.random() < 0.5:
        bets.append(Bet("pre", *payoffs(), event(), PreExperiment()))
    observations = sorted(e.observations)
    for k in range(rng.randint(1, 3)):
        offered = rng.sample(observations, rng.randint(1, len(observations)))
        agent = rng.choice([None, *e.agents])
        slots = None
        if restrict_slots and rng.random() < 0.5:
            slots = frozenset(rng.sample(e.slots, rng.randint(1, len(e.slots))))
        offer = OnObservation(frozenset(offered), agent, slots)
        bets.append(Bet(f"b{k}", *payoffs(), event(), offer))
    return Book(tuple(bets))


# Linear-scan oracles: every lookup recomputed from ``e.centers`` alone.


def same_state(center: Center, i: InformationState) -> bool:
    return (center.observation, center.agent) == (i.observation, i.agent)


def consistent_centers_by_scan(e: Experiment, i: InformationState) -> tuple[Center, ...]:
    return tuple(c for c in e.centers if same_state(c, i))


def count_centers_by_scan(
    e: Experiment, world_id: str, i: InformationState | None = None
) -> int:
    return sum(
        1 for c in e.centers if c.world == world_id and (i is None or same_state(c, i))
    )


def information_states_by_scan(e: Experiment) -> list[InformationState]:
    states: list[InformationState] = []
    for c in e.centers:
        if InformationState(c.observation, c.agent) not in states:
            states.append(InformationState(c.observation, c.agent))
    return states


def world_credence_by_scan(
    rule: CredenceRule, e: Experiment, i: InformationState
) -> dict[str, Fraction]:
    """Each world's credence from the rule's definition, counting by scan."""
    weights = {}
    for world in e.worlds:
        consistent = count_centers_by_scan(e, world.id, i)
        if consistent == 0:
            continue
        if rule is CredenceRule.HALFER_STANDARD:
            weights[world.id] = world.prior
        elif rule is CredenceRule.HALFER_RANDOM_AWAKENING:
            awakenings = sum(1 for c in e.centers if c.world == world.id and c.agent == i.agent)
            weights[world.id] = world.prior * F(consistent, awakenings)
        else:
            weights[world.id] = world.prior * consistent
    total = sum(weights.values())
    return {world_id: weight / total for world_id, weight in weights.items()}


def delta_by_scan(agent: AgentSpec, e: Experiment, i: InformationState, bet: Bet) -> Fraction:
    """EU(accept) - EU(reject) of an in-experiment bet: credence x multiplier x net."""
    delta = F(0)
    for world_id, world_credence in world_credence_by_scan(agent.rule, e, i).items():
        offered = [c for c in e.centers if c.world == world_id and offered_at_center(bet.offer, c)]
        own = sum(1 for c in offered if same_state(c, i))
        if isinstance(agent.theory, CDT):
            multiplier = F(1)
        elif isinstance(agent.theory.linkage, SameInfoOnly):
            multiplier = F(own)
        else:
            cls = e.alikeness_class_of(i.observation)
            linked = sum(1 for c in offered if c.observation in cls and not same_state(c, i))
            multiplier = own + (2 * agent.theory.linkage.rho - 1) * linked
        delta += world_credence * multiplier * bet.net(world_id)
    return delta


def ledger_by_walk(agent: AgentSpec, e: Experiment, book: Book) -> dict[str, list[tuple]]:
    """simulate_book's ledger, walked without memo or index.

    Each world's centers are visited in slot order, agents in declaration
    order within a slot, and every offered bet is decided from scratch.
    Entries are (bet id, slot or "pre", agent, net).
    """

    def accepts(delta: Fraction) -> bool:
        return delta > 0 or (delta == 0 and agent.tie_rule == TieRule.ACCEPT_AT_ZERO)

    entries = {}
    for world in e.worlds:
        rows = []
        for bet in book.pre_bets:
            if accepts(sum(w.prior * bet.net(w.id) for w in e.worlds)):
                rows.append((bet.id, "pre", bet.offer.agent or e.agents[0], bet.net(world.id)))
        walk = sorted(
            (c for c in e.centers if c.world == world.id),
            key=lambda c: (e.slots.index(c.slot), e.agents.index(c.agent)),
        )
        for c in walk:
            state = InformationState(c.observation, c.agent)
            for bet in book.in_experiment_bets:
                if offered_at_center(bet.offer, c) and accepts(delta_by_scan(agent, e, state, bet)):
                    rows.append((bet.id, c.slot, c.agent, bet.net(world.id)))
        entries[world.id] = rows
    return entries


def unjustified_error_by_walk(e: Experiment, book: Book) -> str | None:
    """The UnjustifiedClassError message an alike-linked agent meets first, if any.

    The walk is ledger_by_walk's: worlds in order, each world's centers in
    slot order, agents in declaration order within a slot, offered bets in
    book order. The first decision taken in a non-singleton class that
    fails verification raises.
    """
    for world in e.worlds:
        walk = sorted(
            (c for c in e.centers if c.world == world.id),
            key=lambda c: (e.slots.index(c.slot), e.agents.index(c.agent)),
        )
        for c in walk:
            if not any(offered_at_center(bet.offer, c) for bet in book.in_experiment_bets):
                continue
            cls = e.alikeness_class_of(c.observation)
            check = verify_alikeness(e, cls)
            if len(cls) > 1 and not check.justified:
                return f"alikeness class {sorted(cls)} is not justified: {check.reason}"
    return None


def legitimate_by_scan(e: Experiment, book: Book) -> bool:
    """Each in-experiment bet is offered at all of a state's centers or at none."""
    for bet in book.in_experiment_bets:
        for state in information_states_by_scan(e):
            offered = {
                offered_at_center(bet.offer, c) for c in consistent_centers_by_scan(e, state)
            }
            if len(offered) > 1:
                return False
    return True


def phase_one_by_fractions(
    matrix: list[list[Fraction]], rhs: list[Fraction], n_vars: int
) -> list[Fraction] | None:
    """Solve A y <= b, y >= 0 for a basic feasible point via artificials.

    A dense Fraction tableau with Bland's rule: the reference that the integer
    kernel `centerbook.lp._phase_one` must match, point for point and None for
    None, since both take the same pivot sequence.
    """
    m = len(matrix)
    if m == 0:
        return [Fraction(0)] * n_vars

    artificial_rows = [i for i in range(m) if rhs[i] < 0]
    n_slack = m
    n_art = len(artificial_rows)
    width = n_vars + n_slack + n_art

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    art_col = {row: n_vars + n_slack + k for k, row in enumerate(artificial_rows)}
    for i in range(m):
        negate = rhs[i] < 0
        sign = Fraction(-1 if negate else 1)
        row = [sign * value for value in matrix[i]]
        row += [Fraction(0)] * (n_slack + n_art)
        row_rhs = sign * rhs[i]
        row[n_vars + i] = sign  # slack
        if negate:
            row[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        else:
            basis.append(n_vars + i)
        tableau.append(row + [row_rhs])

    is_artificial = [col >= n_vars + n_slack for col in range(width)]
    # Minimize the artificial sum; start with reduced costs for the basis above.
    objective = [Fraction(0)] * (width + 1)
    for col in range(width):
        objective[col] = (Fraction(1) if is_artificial[col] else Fraction(0))
    for i in range(m):
        if is_artificial[basis[i]]:
            for col in range(width + 1):
                objective[col] -= tableau[i][col]

    while True:
        entering = next(
            (col for col in range(width) if objective[col] < 0), None
        )
        if entering is None:
            break
        best_ratio: Fraction | None = None
        leaving = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][width] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            raise RuntimeError("phase-1 objective unbounded; solver invariant broken")
        _pivot_fractions(tableau, objective, basis, leaving, entering, width)

    infeasibility = -objective[width]
    if infeasibility > 0:
        return None

    solution = [Fraction(0)] * n_vars
    for i in range(m):
        if basis[i] < n_vars:
            solution[basis[i]] = tableau[i][width]
    return solution


def _pivot_fractions(tableau, objective, basis, row: int, col: int, width: int) -> None:
    pivot_value = tableau[row][col]
    tableau[row] = [value / pivot_value for value in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            factor = tableau[i][col]
            tableau[i] = [
                value - factor * pivot_row
                for value, pivot_row in zip(tableau[i], tableau[row])
            ]
    if objective[col] != 0:
        factor = objective[col]
        for j in range(width + 1):
            objective[j] -= factor * tableau[row][j]
    basis[row] = col


# The per-center Fraction path that integer world weights replaced, kept as
# the reference: credence shares per center, summed back into world weights.


def credence_by_fractions(
    rule: CredenceRule, e: Experiment, i: InformationState
) -> CenteredCredence:
    """The agent's credence over centers consistent with her information."""
    centers = consistent_centers(e, i)
    counts = count_by_world(e, [i])
    world_weights: dict[str, Fraction] = {}
    for world_id, count in counts.items():
        prior = e.world(world_id).prior
        if rule is CredenceRule.HALFER_STANDARD:
            weight = prior
        elif rule is CredenceRule.HALFER_RANDOM_AWAKENING:
            weight = prior * Fraction(count, e.awakenings(world_id, i.agent))
        else:
            weight = prior * count
        world_weights[world_id] = weight

    normalizer = sum(world_weights.values(), Fraction(0))
    shares = {
        world_id: weight / normalizer / counts[world_id]
        for world_id, weight in world_weights.items()
    }
    return CenteredCredence(tuple((center, shares[center.world]) for center in centers))


def _acceptance_multipliers_by_fractions(e, i, offer, linkage) -> dict[str, Fraction]:
    """Net acceptances the choice controls per world: same-state plus linked."""
    offered = partial(offered_at_center, offer)
    own = count_by_world(e, [i], offered)
    if isinstance(linkage, SameInfoOnly):
        return own
    cls = e.alikeness_class_of(i.observation)
    if len(cls) > 1:
        check = _class_check(e, cls)
        if not check.justified:
            raise UnjustifiedClassError(
                f"alikeness class {sorted(cls)} is not justified: {check.reason}"
            )
    class_states = [InformationState(obs, agent) for obs in cls for agent in e.agents]
    linked = count_by_world(e, [state for state in class_states if state != i], offered)
    factor = 2 * linkage.rho - 1
    return {w: own.get(w, 0) + factor * linked.get(w, 0) for w in own.keys() | linked.keys()}


def decision_weights_by_fractions(
    agent: AgentSpec, e: Experiment, i: InformationState, offer
) -> dict[str, Fraction]:
    """Per-world weight on the bet's net payout: credence times multiplier."""
    weights: dict[str, Fraction] = {}
    for center, value in credence_by_fractions(agent.rule, e, i).items():
        world_id = center.world
        weights[world_id] = weights[world_id] + value if world_id in weights else value
    if isinstance(agent.theory, CDT):
        return weights
    multipliers = _acceptance_multipliers_by_fractions(e, i, offer, agent.theory.linkage)
    return {w: value * multipliers.get(w, 0) for w, value in weights.items()}


def delta_form_by_fractions(
    weights: dict[str, Fraction], payoff_event: frozenset[str]
) -> tuple[Fraction, Fraction]:
    """(payout_coef, cost_coef) of the delta sum_w weights[w] * net(w)."""
    return (
        sum((weights[w] for w in weights if w in payoff_event), Fraction(0)),
        -sum(weights.values(), Fraction(0)),
    )


def random_coprime_experiment(rng: random.Random) -> Experiment:
    """Priors over pairwise coprime denominators and unequal awakenings.

    The first worlds get priors a/p for distinct primes p, the last world
    the remainder. Each agent's awakenings differ from world to world, so
    the random-awakening halfer's per-world factors differ. Half the time
    every world has a mirrored twin (prior split evenly) that swaps "red"
    and "blue", and {red, blue} is declared a class, which is then
    justified; otherwise the class is declared half the time, and is
    usually unjustified.
    """
    primes = rng.sample([3, 5, 7, 11, 13, 17, 19], rng.randint(1, 3))
    priors = [F(rng.randint(1, p // 3), p) for p in primes]
    priors.append(1 - sum(priors))
    agents = ["alpha", "beta"][: rng.randint(1, 2)]
    slots = [f"s{k}" for k in range(rng.randint(2, 4))]
    mirrored = rng.random() < 0.5
    swap = {"red": "blue", "blue": "red"}
    worlds: list[tuple[str, Fraction]] = []
    centers: list[dict] = []
    for k, prior in enumerate(priors):
        base = [
            (slot, agent, rng.choice(["red", "blue", "green"]))
            for slot in slots
            for agent in agents
            if rng.random() < rng.choice([0.3, 0.6, 0.9])
        ] or [(slots[0], agents[0], "red")]
        twins = [(f"w{k}", base)]
        if mirrored:
            twins.append((f"v{k}", [(s_, a, swap.get(o, o)) for s_, a, o in base]))
        for world_id, triples in twins:
            worlds.append((world_id, prior / len(twins)))
            centers += [
                {"world": world_id, "slot": s_, "agent": a, "observation": o}
                for s_, a, o in triples
            ]
    used = sorted({c["observation"] for c in centers})
    pair = [o for o in used if o in swap]
    classes = [pair] if pair and (mirrored or rng.random() < 0.5) else [[o] for o in pair]
    classes += [[o] for o in used if o not in swap]
    return load_experiment(
        {
            "worlds": [
                {"id": wid, "prior": f"{p.numerator}/{p.denominator}"} for wid, p in worlds
            ],
            "slots": slots,
            "agents": agents,
            "centers": centers,
            "alikeness": classes,
        }
    )


# The scenario loader before centers took one typed pass and the Experiment
# validated and indexed in one loop: every center checked key by key, then
# every invariant checked on its own before the Experiment is built.


def load_experiment_by_checks(source) -> Experiment:
    """load_experiment with a per-key check of every center and a separate validation."""
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
    centers = []
    for index, entry in enumerate(list_field(doc, "centers", where)):
        sub = f"{where}.centers[{index}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{sub}: expected an object")
        require_keys(entry, sub, required={"world", "slot", "observation"}, optional={"agent"})
        if "agent" in entry:
            agent = string_field(entry, "agent", sub)
        elif len(agents) == 1:
            agent = agents[0]
        else:
            raise DocumentError(
                f"{sub}: agent is required when the experiment declares several agents"
            )
        centers.append(
            Center(
                string_field(entry, "world", sub),
                string_field(entry, "slot", sub),
                agent,
                string_field(entry, "observation", sub),
            )
        )
    if "alikeness" in doc:
        alikeness = [
            frozenset(string_list(entry, f"{where}.alikeness[{index}]", "observation labels"))
            for index, entry in enumerate(list_field(doc, "alikeness", where))
        ]
    else:
        alikeness = [frozenset([obs]) for obs in dict.fromkeys(c.observation for c in centers)]
    fields = dict(
        worlds=tuple(worlds),
        slots=tuple(slots),
        agents=tuple(agents),
        centers=tuple(centers),
        alikeness=tuple(alikeness),
    )
    validate_by_checks(**fields)
    return Experiment(**fields)


def validate_by_checks(worlds, slots, agents, centers, alikeness) -> None:
    """Every Experiment invariant, checked with its own set and tuple lookups."""
    if not worlds:
        raise InvariantError("worlds: at least one world is required")
    seen_worlds: set[str] = set()
    for world in worlds:
        if world.id in seen_worlds:
            raise InvariantError(f"worlds: duplicate id {world.id!r}")
        seen_worlds.add(world.id)
        if world.prior <= 0:
            raise InvariantError(
                f"worlds: prior of {world.id!r} must be > 0, got "
                f"{format_rational(world.prior)}"
            )
    total = sum((world.prior for world in worlds), Fraction(0))
    if total != 1:
        raise InvariantError(f"worlds: priors sum to {format_rational(total)}, expected 1")
    for name, labels in (("slots", slots), ("agents", agents)):
        if not labels:
            raise InvariantError(f"{name}: at least one label is required")
        if len(set(labels)) != len(labels):
            raise InvariantError(f"{name}: duplicate labels in {list(labels)}")
    seen_triples: set[tuple[str, str, str]] = set()
    for center in centers:
        if center.world not in seen_worlds:
            raise InvariantError(f"centers: unknown world {center.world!r}")
        if center.slot not in slots:
            raise InvariantError(f"centers: unknown slot {center.slot!r}")
        if center.agent not in agents:
            raise InvariantError(f"centers: unknown agent {center.agent!r}")
        triple = (center.world, center.slot, center.agent)
        if triple in seen_triples:
            raise InvariantError(f"centers: duplicate (world, slot, agent) {triple}")
        seen_triples.add(triple)
    used = {center.observation for center in centers}
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


# Values a mutated scenario puts where a label belongs.
BAD_LABELS = ["", 0, 1.5, None, True, ["w0"], {"id": "w0"}]


def random_scenario_document(rng: random.Random) -> dict:
    """A scenario document, well formed about one time in four, else mutated once or twice.

    Mutations cover every check a center goes through (not an object,
    missing or unknown key, empty or non-string label, missing agent among
    several, unknown or duplicate labels) and the document-level invariants
    (duplicate ids and labels, priors, alikeness classes).
    """
    n_agents = rng.randint(1, 3)
    agents = ["alpha", "beta", "gamma"][:n_agents]
    declare_agents = n_agents > 1 or rng.random() < 0.5
    if not declare_agents:
        agents = ["beauty"]
    worlds = [f"w{k}" for k in range(rng.randint(1, 4))]
    slots = [f"s{k}" for k in range(rng.randint(1, 3))]
    pool = ["red", "blue", "green"][: rng.randint(1, 3)]
    centers = []
    for world in worlds:
        for slot in slots:
            for agent in agents:
                if rng.random() < 0.7:
                    center = {"world": world, "slot": slot, "observation": rng.choice(pool)}
                    if n_agents > 1 or rng.random() < 0.5:
                        center["agent"] = agent
                    centers.append(dict(rng.sample(list(center.items()), len(center))))
    if not centers:
        centers.append({"world": worlds[0], "slot": slots[0], "agent": agents[0],
                        "observation": pool[0]})
    doc: dict = {
        "worlds": [{"id": w, "prior": f"1/{len(worlds)}"} for w in worlds],
        "slots": slots,
        "centers": centers,
    }
    if declare_agents:
        doc["agents"] = agents
    if rng.random() < 0.5:
        used = sorted({c["observation"] for c in centers})
        doc["alikeness"] = [used] if rng.random() < 0.5 else [[o] for o in used]
    if rng.random() < 0.25:
        return doc
    for _ in range(rng.randint(1, 2)):
        _mutate(rng, doc)
    return doc


def _mutate(rng: random.Random, doc: dict) -> None:
    if not all(isinstance(doc[key], list) and doc[key] for key in ("worlds", "slots", "centers")):
        return  # an earlier mutation replaced a whole list
    centers = doc["centers"]
    index = rng.randrange(len(centers))
    center = centers[index]
    kind = rng.randrange(12)
    if kind == 0:
        centers[index] = rng.choice(["center", 7, None, [center]])
    elif kind == 1 and isinstance(center, dict) and center:
        del center[rng.choice(sorted(center))]
    elif kind == 2 and isinstance(center, dict):
        center[rng.choice(["colour", "Agent", "worlds", "pre"])] = "x"
    elif kind == 3 and isinstance(center, dict):
        center[rng.choice(["world", "slot", "observation", "agent"])] = rng.choice(BAD_LABELS)
    elif kind == 4 and isinstance(center, dict):
        center[rng.choice(["world", "slot", "agent"])] = "ghost"
    elif kind == 5:
        centers.insert(rng.randrange(len(centers) + 1), dict(center) if isinstance(
            center, dict) else center)
    elif kind == 6:
        doc["worlds"].append(dict(rng.choice(doc["worlds"])))
    elif kind == 7:
        doc["slots"].append(rng.choice(doc["slots"]))
    elif kind == 8:
        world = rng.choice(doc["worlds"])
        world["prior"] = rng.choice(["0", "2", "1/7", "-1/2"])
    elif kind == 9:
        doc["alikeness"] = rng.choice([[[]], [["red"], ["red"]], [["ghost"]], [["red"]]])
    elif kind == 10:
        doc["agents"] = rng.choice([[], ["alpha", "alpha"], ["alpha", "beta"], [""]])
    else:
        doc[rng.choice(["worlds", "slots", "centers"])] = rng.choice([[], "x", None])
