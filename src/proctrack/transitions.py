"""Label transition statistics estimated from gold tracks.

Scores are natural-log relative frequencies. A transition (or start label)
never seen in the training grids scores exactly -inf: the decoder must not
smooth over structurally impossible moves, it must refuse them.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .corpus import StateVocabulary, write_json
from .errors import ValidationError


@dataclass
class TransitionModel:
    vocabulary: StateVocabulary
    start_scores: np.ndarray          # (L,) log p(label at step 1), -inf if unseen
    trans_scores: np.ndarray          # (L, L) log p(q | p), -inf if unseen
    start_counts: np.ndarray = field(default=None)  # raw counts kept for audits
    trans_counts: np.ndarray = field(default=None)
    sequence_count: int = 0

    def __post_init__(self):
        size = self.vocabulary.size
        self.start_scores = np.asarray(self.start_scores, dtype=float)
        self.trans_scores = np.asarray(self.trans_scores, dtype=float)
        if self.start_scores.shape != (size,):
            raise ValidationError(f"start_scores must have shape ({size},)")
        if self.trans_scores.shape != (size, size):
            raise ValidationError(f"trans_scores must have shape ({size}, {size})")
        if np.isnan(self.start_scores).any() or np.isnan(self.trans_scores).any():
            raise ValidationError("scores must not contain NaN")
        if np.isposinf(self.start_scores).any() or np.isposinf(self.trans_scores).any():
            raise ValidationError("scores must be finite or -inf")
        self.start_counts = _counts(self.start_counts, (size,), "start_counts")
        self.trans_counts = _counts(self.trans_counts, (size, size), "trans_counts")
        if not _is_count(self.sequence_count):
            raise ValidationError("sequence_count must be a non-negative integer")

    def start_score(self, label: str) -> float:
        return float(self.start_scores[self.vocabulary.index(label)])

    def transition_score(self, from_label: str, to_label: str) -> float:
        i = self.vocabulary.index(from_label)
        j = self.vocabulary.index(to_label)
        return float(self.trans_scores[i, j])


def _is_count(value) -> bool:
    """A non-negative integer, not a bool, that fits an int64 array."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and 0 <= value < 2 ** 63)


def _counts(value, shape, name) -> np.ndarray:
    """`value` as an int array of `shape`, all zero when it is None."""
    if value is None:
        return np.zeros(shape, dtype=int)
    cells = np.array(value, dtype=object)     # keeps bools and big ints as they are
    if cells.shape != shape or not all(map(_is_count, cells.flat)):
        raise ValidationError(f"{name} must be non-negative integers of shape {shape}")
    return cells.astype(int)


def estimate(grids, vocabulary: StateVocabulary) -> TransitionModel:
    """Count start labels and adjacent label pairs over all gold tracks.

    The result is order-independent: permuting the input grids changes
    nothing. Raises if there are no sequences at all.
    """
    size = vocabulary.size
    start_counts = np.zeros(size, dtype=int)
    trans_counts = np.zeros((size, size), dtype=int)
    sequences = 0
    for grid in grids:
        for entity_id, track in grid.entries.items():
            idx = [vocabulary.index(s) for s in track.states]
            if not idx:
                continue
            sequences += 1
            start_counts[idx[0]] += 1
            for a, b in zip(idx, idx[1:]):
                trans_counts[a, b] += 1
    if sequences == 0:
        raise ValidationError("cannot estimate transitions from an empty corpus")

    start_scores = np.full(size, -np.inf)
    seen = start_counts > 0
    start_scores[seen] = np.log(start_counts[seen] / sequences)

    trans_scores = np.full((size, size), -np.inf)
    row_totals = trans_counts.sum(axis=1)
    for i in range(size):
        if row_totals[i] == 0:
            continue
        seen = trans_counts[i] > 0
        trans_scores[i, seen] = np.log(trans_counts[i, seen] / row_totals[i])

    return TransitionModel(
        vocabulary=vocabulary,
        start_scores=start_scores,
        trans_scores=trans_scores,
        start_counts=start_counts,
        trans_counts=trans_counts,
        sequence_count=sequences,
    )


def fewest_vetoes(model: TransitionModel, num_steps: int) -> int:
    """The fewest -inf starts and transitions on any length-T sequence."""
    if num_steps < 1:
        raise ValidationError("num_steps must be >= 1")
    vetoes, edges = (np.isneginf(s) * 1 for s in (model.start_scores, model.trans_scores))
    for _ in range(num_steps - 1):              # min-plus over veto counts
        vetoes = (vetoes[:, None] + edges).min(axis=0)
    return int(vetoes.min())


def validate_path_exists(model: TransitionModel, num_steps: int) -> bool:
    """True when some length-T sequence has finite start and transition scores."""
    return fewest_vetoes(model, num_steps) == 0


def audit_rare_transitions(model: TransitionModel, min_count: int):
    """Transitions seen fewer than min_count times (but at least once).

    Purely informational; scores are never altered.
    """
    labels = model.vocabulary.labels
    rare = []
    for i, p in enumerate(labels):
        for j, q in enumerate(labels):
            count = int(model.trans_counts[i, j])
            if 0 < count < min_count:
                rare.append((p, q, count))
    return rare


def _encode_score(value: float):
    return "-inf" if value == -np.inf else float(value)


def _decode_score(value):
    """A JSON score, or a list or list of lists of them, as floats."""
    if isinstance(value, list):
        return [_decode_score(x) for x in value]
    if value == "-inf":
        return -np.inf
    if type(value) not in (int, float):         # a bool is not a score
        raise ValidationError(f'a score must be a number or "-inf", got {value!r}')
    return float(value)


def save_model(model: TransitionModel, path) -> None:
    """Serialize to JSON. Finite scores keep full round-trip precision;
    unseen entries are written as the string "-inf"."""
    payload = {
        "vocabulary": model.vocabulary.name,
        "labels": list(model.vocabulary.labels),
        "nonexistent_states": sorted(model.vocabulary.nonexistent_states),
        "sequence_count": model.sequence_count,
        "start_scores": [_encode_score(x) for x in model.start_scores],
        "transition_scores": [
            [_encode_score(x) for x in row] for row in model.trans_scores
        ],
        "start_counts": [int(x) for x in model.start_counts],
        "transition_counts": [[int(x) for x in row] for row in model.trans_counts],
    }
    write_json(path, payload)


def load_model(path) -> TransitionModel:
    """Read a file written by `save_model`. Any fault in it raises
    ValidationError naming the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except (ValueError, RecursionError) as exc:   # or nested too deep to parse
            raise ValidationError(f"{path}: bad JSON: {exc}") from None
    try:
        vocabulary = StateVocabulary(
            name=payload["vocabulary"],
            labels=tuple(payload["labels"]),
            nonexistent_states=frozenset(payload["nonexistent_states"]),
        )
        return TransitionModel(
            vocabulary=vocabulary,
            start_scores=_decode_score(payload["start_scores"]),
            trans_scores=_decode_score(payload["transition_scores"]),
            start_counts=payload["start_counts"],
            trans_counts=payload["transition_counts"],
            sequence_count=payload["sequence_count"],
        )
    except (ValidationError, KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise ValidationError(f"{path}: bad model file: {exc}") from None
