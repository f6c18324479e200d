"""Render tracking decisions as text-to-text QA instances.

State prediction becomes multiple-choice QA over the label set; location
prediction becomes extractive QA over the full procedure text with the two
escape answers "none" and "unknown". Instance text always carries the whole
procedure, each step prefixed "step k:", so a downstream text model sees
full context.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

from .corpus import AnnotationGrid, Entity, Procedure, StateVocabulary, check_int, write_records
from .errors import ValidationError

STATE = "state"
LOCATION = "location"
KINDS = (STATE, LOCATION)

# Fixed presentation order for the multiple-choice line. This is independent
# of the vocabulary's logit order and is part of the serialized format, so
# changing it would invalidate any cached model outputs.
_CHOICE_ORDER = {
    "propara": ("create", "exist", "destroy", "outside_before", "outside_after", "move"),
}


@dataclass(frozen=True)
class QAInstance:
    procedure_id: str
    entity_id: str
    step: int
    kind: str
    input_text: str
    target_text: str = ""


def choices_line(vocabulary: StateVocabulary) -> str:
    labels = _CHOICE_ORDER.get(vocabulary.name, vocabulary.labels)
    if len(labels) > len(string.ascii_lowercase):
        raise ValidationError("too many labels for lettered choices")
    return " ".join(
        f"({letter}) {label}"
        for letter, label in zip(string.ascii_lowercase, labels)
    )


def indexed_steps(procedure: Procedure) -> str:
    """The procedure as one line: "step 1: ... step 2: ..."."""
    return " ".join(f"step {k}: {text}" for k, text in enumerate(procedure.steps, start=1))


def _checked(procedure: Procedure, entity: Entity, t, gold, what: str, least: int):
    """(t, the entity's gold track or None). The entity must be one of the
    procedure's, and `t` an int (`corpus.check_int`, which checks only its
    type here) from `least` to the procedure's step count."""
    procedure.entity(entity.id)
    if not least <= (t := check_int(t, what, -math.inf)) <= procedure.num_steps:
        raise ValidationError(f"{what} {t} out of range {least}..{procedure.num_steps} "
                              f"for procedure {procedure.id!r}")
    return t, None if gold is None else gold.entries.get(entity.id)


def format_state_instance(procedure: Procedure, entity: Entity, t: int,
                          vocabulary: StateVocabulary,
                          gold: AnnotationGrid | None = None) -> QAInstance:
    """Multiple-choice state question for step t (1-based)."""
    t, track = _checked(procedure, entity, t, gold, "state step", 1)
    question = f"What is the state of {entity.aliases[0]} in step {t}?"
    input_text = f"{question}\n{choices_line(vocabulary)}\n{indexed_steps(procedure)}"
    target = "" if track is None else track.states[t - 1]
    return QAInstance(procedure.id, entity.id, t, STATE, input_text, target)


def format_location_instance(procedure: Procedure, entity: Entity, t: int,
                             gold: AnnotationGrid | None = None) -> QAInstance:
    """Extractive location question for slot t (0-based; slot 0 = before step 1)."""
    t, track = _checked(procedure, entity, t, gold, "location slot", 0)
    question = f"Where is {entity.aliases[0]} located in step {t}?"
    input_text = (
        f"{question}\n{indexed_steps(procedure)} Other locations: none, unknown."
    )
    target = "" if track is None else track.locations[t].answer_text()
    return QAInstance(procedure.id, entity.id, t, LOCATION, input_text, target)


def iter_instances(procedures, grids, vocabulary: StateVocabulary, kinds=KINDS):
    """All instances for a corpus, ordered by (procedure, entity, step, kind).

    State questions cover steps 1..T, location questions slots 0..T. Targets
    are filled from gold grids where available and left empty otherwise. A
    kind named twice counts once.
    """
    kinds = tuple(kinds)
    if not kinds:
        raise ValidationError(f"no instance kinds given; choose from {KINDS}")
    for kind in kinds:
        if kind not in KINDS:
            raise ValidationError(f"unknown instance kind {kind!r}")
    kinds = sorted(set(kinds))                  # every kind is a known string by now
    for procedure in sorted(procedures, key=lambda p: p.id):
        gold = grids.get(procedure.id) if grids else None
        for entity in sorted(procedure.entities, key=lambda e: e.id):
            for t in range(procedure.num_steps + 1):
                for kind in kinds:
                    if kind == LOCATION:
                        yield format_location_instance(procedure, entity, t, gold)
                    elif t >= 1:
                        yield format_state_instance(procedure, entity, t, vocabulary, gold)


def export_instances(procedures, grids, vocabulary: StateVocabulary,
                     out_path, kinds=KINDS) -> int:
    """Write instances as JSON lines; returns how many were written."""
    return write_records(out_path, ({
        "procedure_id": inst.procedure_id,
        "entity_id": inst.entity_id,
        "step": inst.step,
        "kind": inst.kind,
        "input": inst.input_text,
        "target": inst.target_text,
    } for inst in iter_instances(procedures, grids, vocabulary, kinds)))
