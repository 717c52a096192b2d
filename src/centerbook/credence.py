"""Credence distributions over consistent centers.

Three rules cover the betting positions the engine models:

* standard halfer: renormalize the prior over the worlds not ruled out;
* random-awakening halfer: Bayes-condition on the observation, treating
  the current awakening as drawn uniformly from the agent's awakenings
  in the actual world;
* thirder: give each consistent center weight proportional to its
  world's prior (so a world counts once per consistent awakening).

Within a world, its consistent centers always share the world's credence
equally. That is the unique split respecting their symmetry, and every
downstream computation only needs world-level credences anyway. So each
rule yields integer world weights over one common denominator, scaled from
the integer prior numerators: P_w (halfer), P_w * count_w (thirder), and
P_w * count_w * A / awakenings_w (random-awakening halfer, A the lcm of
the awakenings).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .errors import InvariantError
from .model import (
    Center,
    Experiment,
    InformationState,
    WorldWeights,
    consistent_centers,
    count_by_world,
)


class CredenceRule(Enum):
    HALFER_STANDARD = "halfer"
    HALFER_RANDOM_AWAKENING = "halfer-ra"
    THIRDER = "thirder"


@dataclass(frozen=True)
class CenteredCredence:
    """An exact probability distribution over centers."""

    weights: tuple[tuple[Center, Fraction], ...]

    def world(self, world_id: str) -> Fraction:
        return sum(
            (value for center, value in self.weights if center.world == world_id),
            Fraction(0),
        )

    def items(self) -> tuple[tuple[Center, Fraction], ...]:
        return self.weights

    def total(self) -> Fraction:
        return sum((value for _, value in self.weights), Fraction(0))


def world_weights(rule: CredenceRule, e: Experiment, i: InformationState) -> WorldWeights:
    """The agent's credence in each world she cannot rule out, as integer weights."""
    if not consistent_centers(e, i):
        raise InvariantError(
            f"no centers are consistent with observation {i.observation!r} "
            f"for agent {i.agent!r}"
        )
    counts = count_by_world(e, [i])
    priors = e._priors.numerators
    if rule is CredenceRule.HALFER_STANDARD:
        numerators = {w: priors[w] for w in counts}
    elif rule is CredenceRule.HALFER_RANDOM_AWAKENING:
        awakenings = {w: e.awakenings(w, i.agent) for w in counts}
        scale = lcm(*awakenings.values())
        numerators = {w: priors[w] * n * (scale // awakenings[w]) for w, n in counts.items()}
    else:
        numerators = {w: priors[w] * n for w, n in counts.items()}
    return WorldWeights(numerators, sum(numerators.values()))


def credence(rule: CredenceRule, e: Experiment, i: InformationState) -> CenteredCredence:
    """The agent's credence over centers consistent with her information."""
    numerators, denominator = world_weights(rule, e, i)
    counts = count_by_world(e, [i])
    shares = {w: Fraction(n, denominator * counts[w]) for w, n in numerators.items()}
    return CenteredCredence(tuple((c, shares[c.world]) for c in consistent_centers(e, i)))
