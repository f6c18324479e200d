"""Scoring for predicted grids against gold grids.

Three protocols:

* document level: per-procedure tuple sets for four questions (what were
  the inputs, what were the outputs, what was converted, what moved), each
  scored with exact-tuple precision/recall/F1 over the whole split;
* sentence level: per (procedure, entity, event) triples for create,
  destroy, and move, scored on occurrence, step agreement, and location
  arguments;
* ingredient location changes, for two-state vocabularies: the set of slots
  where an entity's location differs from the previous slot.

Location comparisons are normalized (case, whitespace, surrounding
punctuation); "?" matches only "?" and "-" only "-". Entities missing from
the predictions count as empty tracks, which hurts recall but never crashes
the scorer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import NONEXISTENT, AnnotationGrid, StateVocabulary, Track
from .errors import ValidationError

EVENTS = ("create", "destroy", "move")


@dataclass(frozen=True)
class QuestionScore:
    precision: float
    recall: float
    f1: float
    n_pred: int
    n_gold: int
    n_correct: int


@dataclass(frozen=True)
class CategoryScore:
    score: float
    n_correct: int
    n_scored: int


@dataclass(frozen=True)
class DocumentReport:
    inputs: QuestionScore
    outputs: QuestionScore
    conversions: QuestionScore
    moves: QuestionScore
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def counts(self) -> list[tuple[int, int, int]]:
        """The (n_pred, n_gold, n_correct) rows that `document_report` takes."""
        return [(q.n_pred, q.n_gold, q.n_correct)
                for q in (self.inputs, self.outputs, self.conversions, self.moves)]


@dataclass(frozen=True)
class SentenceReport:
    cat1: CategoryScore
    cat2: CategoryScore
    cat3: CategoryScore
    macro: float
    micro: float


@dataclass(frozen=True)
class BucketAccuracy:
    accuracy: float | None
    n_correct: int
    n_steps: int


@dataclass(frozen=True)
class SplitReport:
    explicit: BucketAccuracy
    implicit: BucketAccuracy


def _prf(n_pred: int, n_gold: int, n_correct: int) -> QuestionScore:
    # Empty sets score vacuously perfect on their own side: predicting
    # nothing costs recall, not precision, and vice versa.
    precision = n_correct / n_pred if n_pred > 0 else 1.0
    recall = n_correct / n_gold if n_gold > 0 else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return QuestionScore(precision, recall, f1, n_pred, n_gold, n_correct)


def _check_coverage(gold_grids: dict[str, AnnotationGrid],
                    pred_grids: dict[str, AnnotationGrid]) -> None:
    for proc_id, grid in pred_grids.items():
        gold = gold_grids.get(proc_id)
        if gold is None:
            raise ValidationError(f"prediction for unknown procedure {proc_id!r}")
        for entity_id, track in grid.entries.items():
            gold_track = gold.entries.get(entity_id)
            if gold_track is None:
                raise ValidationError(
                    f"prediction for unknown entity {entity_id!r} "
                    f"in procedure {proc_id!r}")
            if track.num_steps != gold_track.num_steps:
                raise ValidationError(
                    f"prediction length mismatch for ({proc_id!r}, {entity_id!r})")


def _event_slots(track: Track, event: str, t: int):
    """Where an event at step t happens: a create fills slot t, a destroy
    empties slot t - 1 (an entity is destroyed where it last was), and a
    move goes from slot t - 1 to slot t."""
    if event == "create":
        return track.locations[t].key
    if event == "destroy":
        return track.locations[t - 1].key
    return track.locations[t - 1].key, track.locations[t].key


_NO_EVENTS = {event: {} for event in EVENTS}


def _events(track: Track | None) -> dict[str, dict[int, object]]:
    """{event: {step: slots}} from one walk of a track, the one reader of a
    track's events for both protocols. A missing track, or one with no event
    state, gets the shared `_NO_EVENTS`, which is never written."""
    if track is None or _NO_EVENTS.keys().isdisjoint(track.states):
        return _NO_EVENTS
    table = {event: {} for event in EVENTS}
    for t, state in enumerate(track.states, start=1):
        if state in table:
            table[state][t] = _event_slots(track, state, t)
    return table


def _document_tuples(grids: dict[str, AnnotationGrid]):
    """The four questions' tuple sets. A conversion joins a destruction and a
    creation in one procedure on (step, place), where the place is never "-"."""
    inputs, outputs, conversions, moves = set(), set(), set(), set()
    for proc_id, grid in grids.items():
        destroyed, created = [], {}         # created: {(step, place): [entity]}
        for entity_id, track in grid.entries.items():
            first, last = track.locations[0].kind, track.locations[-1].kind
            if first != NONEXISTENT and last == NONEXISTENT:
                inputs.add((proc_id, entity_id))
            if first == NONEXISTENT and last != NONEXISTENT:
                outputs.add((proc_id, entity_id))
            events = _events(track)
            if events is _NO_EVENTS:
                continue
            for t, slots in events["move"].items():
                moves.add((proc_id, entity_id, t, *slots))
            destroyed += [(entity_id, at) for at in events["destroy"].items()]
            for at in events["create"].items():
                created.setdefault(at, []).append(entity_id)
        conversions.update((proc_id, t, died, born, place) for died, (t, place) in destroyed
                           if place != (NONEXISTENT,) for born in created.get((t, place), ()))
    return inputs, outputs, conversions, moves


def document_report(counts) -> DocumentReport:
    """Scores from (n_pred, n_gold, n_correct) for each question, in the
    order inputs, outputs, conversions, moves."""
    scores = [_prf(*c) for c in counts]
    return DocumentReport(
        inputs=scores[0],
        outputs=scores[1],
        conversions=scores[2],
        moves=scores[3],
        macro_precision=sum(s.precision for s in scores) / 4,
        macro_recall=sum(s.recall for s in scores) / 4,
        macro_f1=sum(s.f1 for s in scores) / 4,
    )


def eval_document_level(gold_grids: dict[str, AnnotationGrid],
                        pred_grids: dict[str, AnnotationGrid]) -> DocumentReport:
    _check_coverage(gold_grids, pred_grids)
    gold_tuples = _document_tuples(gold_grids)
    pred_tuples = _document_tuples(pred_grids)
    return document_report([(len(p), len(g), len(p & g))
                            for p, g in zip(pred_tuples, gold_tuples)])


def eval_sentence_level(gold_grids: dict[str, AnnotationGrid],
                        pred_grids: dict[str, AnnotationGrid]) -> SentenceReport:
    """Score (procedure, entity, event) triples on three questions.

    Cat-1: does the event happen at all (all triples). Cat-2: at exactly the
    gold steps (gold-positive triples). Cat-3: with the gold location
    arguments, read off at the gold event steps (gold-positive triples).
    """
    _check_coverage(gold_grids, pred_grids)
    correct, total = [0, 0, 0], [0, 0, 0]
    for proc_id, gold in gold_grids.items():
        pred = pred_grids.get(proc_id)
        for entity_id, gold_track in gold.entries.items():
            pred_track = pred.entries.get(entity_id) if pred else None
            pred_events = _events(pred_track)
            for event, gold_at in _events(gold_track).items():
                pred_at = pred_events[event]
                total[0] += 1
                correct[0] += bool(gold_at) == bool(pred_at)
                if gold_at:
                    total[1] += 1
                    correct[1] += pred_at.keys() == gold_at.keys()
                    total[2] += 1
                    correct[2] += pred_track is not None and all(
                        _event_slots(pred_track, event, t) == slots
                        for t, slots in gold_at.items())
    cats = [CategoryScore(c / n if n else 1.0, c, n) for c, n in zip(correct, total)]
    return SentenceReport(*cats, macro=sum(cat.score for cat in cats) / 3,
                          micro=sum(correct) / sum(total) if sum(total) else 1.0)


def _change_tuples(grids: dict[str, AnnotationGrid]) -> set:
    changes = set()
    for proc_id, grid in grids.items():
        for entity_id, track in grid.entries.items():
            for t in range(1, track.num_steps + 1):
                here = track.locations[t].key
                if here != track.locations[t - 1].key:
                    changes.add((proc_id, entity_id, t, here))
    return changes


def eval_recipes_locations(gold_grids: dict[str, AnnotationGrid],
                           pred_grids: dict[str, AnnotationGrid],
                           vocabulary: StateVocabulary) -> QuestionScore:
    """Location-change tuples (entity, slot, new location), exact match."""
    if vocabulary.name != "recipes":
        raise ValidationError(
            f"location-change scoring expects the recipes vocabulary, "
            f"got {vocabulary.name!r}")
    _check_coverage(gold_grids, pred_grids)
    pred, gold = _change_tuples(pred_grids), _change_tuples(gold_grids)
    return _prf(len(pred), len(gold), len(pred & gold))


def eval_split(rows) -> tuple[SplitReport, SplitReport]:
    """(argmax, decoded) per-step state accuracy, partitioned by the mention
    flag of the step, from one (gold track, mention flags, argmax states,
    decoded states) row per decoded entity."""
    total, correct = Counter(), (Counter(), Counter())
    for n, (gold_track, flags, argmax, decoded) in enumerate(rows):
        if len(flags) != gold_track.num_steps:
            raise ValidationError(f"bad mention flags in split row {n}")
        if not len(argmax) == len(decoded) == gold_track.num_steps:
            raise ValidationError(f"bad state count in split row {n}")
        total.update(flags)
        for states, hits in zip((argmax, decoded), correct):
            hits.update(flag for flag, pred, gold_state in zip(flags, states, gold_track.states)
                        if pred == gold_state)

    def report(hits):
        return SplitReport(*(BucketAccuracy(hits[flag] / total[flag] if total[flag] else None,
                                            hits[flag], total[flag]) for flag in (True, False)))

    return report(correct[0]), report(correct[1])
