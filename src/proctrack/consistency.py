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

from .corpus import (
    NO_LOCATION,
    NONEXISTENT,
    UNKNOWN_LOCATION,
    LocationValue,
    StateVocabulary,
    Track,
    parse_prediction,
)
from .errors import ValidationError

RULE_START = "start-nonexistent"
RULE_CREATE_BEFORE = "create-clears-before"
RULE_CREATE_AFTER = "create-yields-location"
RULE_NONEXISTENT = "nonexistent-state"
RULE_EXIST = "exist-keeps-location"
RULE_MOVE = "move-requires-change"


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
    """Forward pass over slots 0..T, repairing locations to fit the states.

    Rules, in application order per slot:
      * slot 0 is "-" when step 1 creates the entity or it starts outside;
      * create: the previous slot is forced to "-" and the created location
        must exist, upgrading a predicted "none" to "unknown";
      * destroy and nonexistent states force "-";
      * exist copies the previous slot (only for vocabularies with "move");
      * move must land somewhere new: a prediction equal to the previous
        slot, or "none", degrades to "unknown".

    The state sequence is never altered; it comes back as the vocabulary's
    own label objects (`canonical`). Output satisfies the grid rules for
    any state sequence a transition model estimated from consistent gold can
    produce (a sequence that admits no consistent locations at all, such as
    create immediately after move, is repaired best-effort).
    """
    states = tuple(states)
    if not states:
        raise ValidationError("resolve needs at least one step")
    if len(location_preds) != len(states) + 1:
        raise ValidationError(
            f"{len(location_preds)} location predictions for {len(states)} steps")
    states = vocabulary.canonical(states)

    try:
        parsed = [parse_prediction(p) for p in location_preds]
    except (AttributeError, TypeError):     # not a string
        raise ValidationError("location predictions must be strings") from None
    locations: list[LocationValue] = [None] * len(parsed)
    repairs: list[Repair] = []

    def fix(slot, original, repaired, rule):
        if not original.matches(repaired):
            repairs.append(Repair(slot, original, repaired, rule))
        locations[slot] = repaired

    if states[0] in ("outside_before", "create"):
        fix(0, parsed[0], NO_LOCATION, RULE_START)
    else:
        locations[0] = parsed[0]

    for t, state in enumerate(states, start=1):
        value = parsed[t]
        if state == "create":
            if locations[t - 1].kind != NONEXISTENT:
                fix(t - 1, locations[t - 1], NO_LOCATION, RULE_CREATE_BEFORE)
            if value.kind == NONEXISTENT:
                fix(t, value, UNKNOWN_LOCATION, RULE_CREATE_AFTER)
            else:
                locations[t] = value
        elif state == "destroy" or state in vocabulary.nonexistent_states:
            fix(t, value, NO_LOCATION, RULE_NONEXISTENT)
        elif state == "exist" and vocabulary.tracks_movement:
            if value.matches(locations[t - 1]):
                locations[t] = value
            else:
                fix(t, value, locations[t - 1], RULE_EXIST)
        elif state == "move":
            if value.kind == NONEXISTENT or value.matches(locations[t - 1]):
                fix(t, value, UNKNOWN_LOCATION, RULE_MOVE)
            else:
                locations[t] = value
        else:
            # No coupling rule for this state (e.g. free-moving "exist" in a
            # vocabulary without "move"): trust the prediction.
            locations[t] = value

    return ResolvedTrack(
        states=states,
        locations=tuple(locations),
        repairs=tuple(repairs),
    )
