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
downstream computation only needs world-level credences anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InvariantError
from .model import (
    Center,
    Experiment,
    InformationState,
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

    def weight(self, center: Center) -> Fraction:
        for candidate, value in self.weights:
            if candidate == center:
                return value
        return Fraction(0)

    def world(self, world_id: str) -> Fraction:
        return sum(
            (value for center, value in self.weights if center.world == world_id),
            Fraction(0),
        )

    def items(self) -> tuple[tuple[Center, Fraction], ...]:
        return self.weights

    def total(self) -> Fraction:
        return sum((value for _, value in self.weights), Fraction(0))


def credence(rule: CredenceRule, e: Experiment, i: InformationState) -> CenteredCredence:
    """The agent's credence over centers consistent with her information."""
    centers = consistent_centers(e, i)
    if not centers:
        raise InvariantError(
            f"no centers are consistent with observation {i.observation!r} "
            f"for agent {i.agent!r}"
        )

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
