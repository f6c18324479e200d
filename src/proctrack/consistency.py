"""Merge decoded states with raw location predictions into consistent tracks.

State and location come from two independent predictors, so they routinely
disagree: a location span on a step whose state says the entity does not
exist, a "none" right where the state says it was just created, and so on.
The state sequence is trusted as-is; locations are repaired around it with
a single forward pass. Every overwrite of a parsed prediction is recorded
so downstream reports can audit what was changed and why.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import LocationValue, StateVocabulary, Track, coupling_breaks, parse_prediction
from .errors import ValidationError


@dataclass(frozen=True)
class Repair:
    slot: int
    original: LocationValue
    repaired: LocationValue
    rule: str


@dataclass(frozen=True)
class ResolvedTrack:
    states: tuple[str, ...]
    locations: tuple[LocationValue, ...]
    repairs: tuple[Repair, ...]

    def track(self) -> Track:
        return Track(states=self.states, locations=self.locations)


def resolve(states, location_preds, vocabulary: StateVocabulary) -> ResolvedTrack:
    """Forward pass over steps 1..T, repairing locations to fit the states.

    Each coupling rule that step t breaks (`corpus.coupling_breaks`, on the
    repaired slot t-1 and the predicted slot t) overwrites its slot with the
    value the rule requires and is recorded as a Repair under its repair name.

    The state sequence is never altered; it comes back as the vocabulary's
    own label objects (`canonical`). Output satisfies the grid rules for
    any state sequence a transition model estimated from consistent gold can
    produce (a sequence that admits no consistent locations at all, such as
    create immediately after move, is repaired best-effort).
    """
    try:
        states, count = tuple(states), len(location_preds)
    except TypeError:                       # either is not a sequence
        raise ValidationError("states and location predictions must be sequences") from None
    if not states:
        raise ValidationError("resolve needs at least one step")
    if count != len(states) + 1:
        raise ValidationError(f"{count} location predictions for {len(states)} steps")
    states = vocabulary.canonical(states)

    try:
        locations = [parse_prediction(p) for p in location_preds]
    except (AttributeError, TypeError):     # not a string
        raise ValidationError("location predictions must be strings") from None
    repairs: list[Repair] = []
    for t, state in enumerate(states, start=1):
        for slot, required, rule, _, _ in coupling_breaks(
                t, state, locations[t - 1], locations[t], vocabulary):
            repairs.append(Repair(slot, locations[slot], required, rule))
            locations[slot] = required

    return ResolvedTrack(
        states=states,
        locations=tuple(locations),
        repairs=tuple(repairs),
    )
