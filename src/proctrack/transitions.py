"""Label transition statistics estimated from gold tracks.

Scores are natural-log relative frequencies. A transition (or start label)
never seen in the training grids scores exactly -inf: the decoder must not
smooth over structurally impossible moves, it must refuse them.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import StateVocabulary, check_int, write_json
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
        scores = real_array(self.start_scores, 1), real_array(self.trans_scores, 2)
        if any(array is None for array in scores):
            raise ValidationError("scores must be arrays of numbers")
        self.start_scores, self.trans_scores = scores
        if self.start_scores.shape != (size,):
            raise ValidationError(f"start_scores must have shape ({size},)")
        if self.trans_scores.shape != (size, size):
            raise ValidationError(f"trans_scores must have shape ({size}, {size})")
        if np.isnan(self.start_scores).any() or np.isnan(self.trans_scores).any():
            raise ValidationError("scores must not contain NaN")
        # Past 1e300 a path's sum could overflow, which a decode would report
        # against an entity rather than the model.
        if not all((np.isneginf(s) | (np.abs(s) <= 1e300)).all()
                   for s in (self.start_scores, self.trans_scores)):
            raise ValidationError("scores must be -inf or finite, at most 1e300 in magnitude")
        self.start_counts = _counts(self.start_counts, (size,), "start_counts")
        self.trans_counts = _counts(self.trans_counts, (size, size), "trans_counts")
        if not _is_count(self.sequence_count):
            raise ValidationError("sequence_count must be a non-negative integer")
        self.sequence_count = int(self.sequence_count)      # a numpy int is not JSON

    def start_score(self, label: str) -> float:
        return float(self.start_scores[self.vocabulary.index(label)])

    def transition_score(self, from_label: str, to_label: str) -> float:
        i = self.vocabulary.index(from_label)
        j = self.vocabulary.index(to_label)
        return float(self.trans_scores[i, j])


def real_array(value, depth: int):
    """`value` as a float array if it is an int or float ndarray, or a list
    (depth 1) or rows (depth 2) of real numbers that are not bools; else None.
    The one test of a score's or a logit's type: numpy reads "0.5" and True as floats."""
    try:
        if isinstance(value, np.ndarray):
            real = value.dtype.kind in "iuf"
        else:
            kinds = set(map(type, chain.from_iterable(value) if depth == 2 else value))
            real = kinds <= {int, float} or all(
                issubclass(kind, numbers.Real) and kind is not bool for kind in kinds)
        return np.asarray(value, dtype=float) if real else None
    except (TypeError, ValueError, OverflowError):  # not lists, ragged rows, huge ints
        return None


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
    # Each track's label indices behind a start marker `size`: a pair (size, q)
    # is a start at q, and a pair into the marker (after an empty track too)
    # is dropped.
    labels = np.fromiter(chain.from_iterable(
        (size, *map(vocabulary.index, track.states))
        for grid in grids for track in grid.entries.values()), dtype=int)
    counts = np.bincount(labels[:-1] * (size + 1) + labels[1:], minlength=(size + 1) ** 2)
    counts = counts.reshape(size + 1, size + 1)[:, :size]
    totals = counts.sum(axis=1, keepdims=True)
    sequences = int(totals[size, 0])
    if sequences == 0:
        raise ValidationError("cannot estimate transitions from an empty corpus")
    # An unseen start or pair scores log(0) = -inf; a row no pair leaves is 0 / 1.
    with np.errstate(divide="ignore"):
        scores = np.log(counts / np.maximum(totals, 1))
    return TransitionModel(vocabulary, start_scores=scores[size], trans_scores=scores[:size],
                           start_counts=counts[size], trans_counts=counts[:size],
                           sequence_count=sequences)


def veto_counts(model: TransitionModel, num_steps: int) -> np.ndarray:
    """A (T, L) int array: row t holds, per label q, the fewest -inf starts
    and transitions on any sequence of t + 1 labels that ends in q."""
    check_int(num_steps, "num_steps", 1)
    counts, edges = [np.isneginf(model.start_scores) * 1], np.isneginf(model.trans_scores) * 1
    for _ in range(num_steps - 1):              # min-plus over veto counts
        counts.append((counts[-1][:, None] + edges).min(axis=0))
    return np.array(counts)


def validate_path_exists(model: TransitionModel, num_steps: int) -> bool:
    """True when some length-T sequence has finite start and transition scores."""
    return int(veto_counts(model, num_steps)[-1].min()) == 0


def audit_rare_transitions(model: TransitionModel, min_count: int):
    """Transitions seen fewer than min_count times (but at least once).

    Purely informational; scores are never altered.
    """
    check_int(min_count, "min_count", 1)
    labels, counts = model.vocabulary.labels, model.trans_counts
    return [(labels[i], labels[j], int(counts[i, j]))
            for i, j in np.argwhere((counts > 0) & (counts < min_count)).tolist()]


def _encode_score(value: float):
    return "-inf" if value == -np.inf else float(value)


def _decode_score(value):
    """A JSON score, or a list or list of lists of them, with "-inf" read as
    -inf; `TransitionModel` checks the rest, such as a bool or a string."""
    if isinstance(value, list):
        return [_decode_score(x) for x in value]
    return -np.inf if value == "-inf" else value


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
        "start_counts": model.start_counts.tolist(),
        "transition_counts": model.trans_counts.tolist(),
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
            labels=tuple(map(sys.intern, payload["labels"])),   # the built-in labels' objects
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
