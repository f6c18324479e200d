"""Mention-aware Viterbi decoding over per-step state logits.

The per-step logits come from an external text model (one logit per label,
vocabulary order). Before decoding, each step's logit row is scaled by
tau_exp when the entity is explicitly mentioned in that step's text and by
tau_imp otherwise; the transition model then vetoes structurally impossible
sequences via its -inf entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import (Entity, Procedure, StateVocabulary, check_str, check_str_list,
                     read_records, token_text, write_records)
from .errors import NoValidPathError, ValidationError
from .transitions import TransitionModel, real_array, veto_counts


def as_float(value) -> float:
    """`value` as a float, or NaN (which fails every range check) if it is not a real number."""
    if isinstance(value, (str, bytes, bool, np.bool_, np.complexfloating)):
        return math.nan             # float() would parse, truncate or count it
    try:    # float() takes any int, Decimal, Fraction or real numpy scalar
        return float(value)
    except (TypeError, ValueError, ArithmeticError):   # not a number, sNaN, beyond a float
        return math.nan


@dataclass(frozen=True)
class DecodeConfig:
    """Emission weights for explicitly mentioned vs unmentioned steps, held as floats."""

    tau_exp: float = 0.6
    tau_imp: float = 0.7

    def __post_init__(self):
        taus = as_float(self.tau_exp), as_float(self.tau_imp)
        if not all(0 < tau < math.inf for tau in taus):
            raise ValidationError(f"tau values must be finite and positive, "
                                  f"got ({self.tau_exp}, {self.tau_imp})")
        object.__setattr__(self, "tau_exp", taus[0])
        object.__setattr__(self, "tau_imp", taus[1])


# The most values a tau grid (`tuner.parse_grid`, `tune --grid`) may have
# per axis. It lives here so the CLI's help text can name it without
# importing the tuner.
GRID_MAX_VALUES = 1000


@dataclass
class EmissionTrack:
    """Model outputs for one entity, held as checked (else ValidationError): a
    (T, L) float matrix of logits and a tuple of T+1 location strings."""

    state_logits: np.ndarray
    location_preds: tuple[str, ...]

    def __post_init__(self):
        self.state_logits = _logit_matrix(self.state_logits, finite=True)
        self.location_preds = tuple(check_str_list(self.location_preds, "'location_preds'"))
        if (count := len(self.location_preds)) != self.num_steps + 1:
            raise ValidationError(f"expected {self.num_steps + 1} location predictions, got {count}")

    @property
    def num_steps(self) -> int:
        return self.state_logits.shape[0]


@dataclass
class EmissionSet:
    procedure_id: str
    tracks: dict[str, EmissionTrack]


def detect_mentions(procedure: Procedure, entity: Entity) -> tuple[bool, ...]:
    """Flag each step whose text contains any alias of the entity.

    Matching is case-insensitive on alphanumeric token boundaries, so
    "Water flows." mentions water while "The underwater cave." does not.
    An alias with no alphanumeric token never matches.
    """
    steps = procedure.step_token_texts
    flags = [False] * len(steps)
    for alias in map(token_text, entity.aliases):
        if alias != "  ":
            flags = [hit or alias in step for hit, step in zip(flags, steps)]
    return tuple(flags)


def _logit_matrix(logits, name: str = "state_logits", *, steps=None, labels=None,
                  finite=False) -> np.ndarray:
    """The argument `name` as a float array, which must be a (T, L) matrix of
    real numbers that are not bools (`transitions.real_array`) with `steps`
    rows and `labels` columns where given, and all finite with `finite`.
    The one check of each logit fact, in that order, and its one message."""
    if (matrix := real_array(logits, 2)) is None or matrix.ndim != 2:
        raise ValidationError(f"{name} must be a (T, L) matrix")
    if steps is not None and matrix.shape[0] != steps:
        raise ValidationError(f"{name} has {matrix.shape[0]} rows for {steps} steps")
    if labels is not None and matrix.shape[1] != labels:
        raise ValidationError(f"{name} has {matrix.shape[1]} columns for {labels} labels")
    if finite and not np.isfinite(matrix).all():
        raise ValidationError(f"{name} must all be finite")
    return matrix


def weight_emissions(state_logits, flags, config: DecodeConfig) -> np.ndarray:
    """Scale each logit row by tau_exp (mentioned) or tau_imp (not mentioned)."""
    logits = _logit_matrix(state_logits)
    try:
        mentioned = np.asarray(flags, dtype=bool)
    except ValueError:                      # ragged rows
        mentioned = None
    if np.shape(mentioned) != logits.shape[:1]:
        raise ValidationError(f"mention flags must be one value per step ({len(logits)} steps)")
    with np.errstate(over="ignore"):        # an overflowed logit fails viterbi's finiteness check
        return logits * np.where(mentioned, config.tau_exp, config.tau_imp)[:, None]


def argmax_states(state_logits, vocabulary: StateVocabulary) -> list[str]:
    """Per-step argmax baseline, ignoring transitions. Ties pick the lowest
    label index."""
    logits = _logit_matrix(state_logits, labels=vocabulary.size)
    return [vocabulary.labels[j] for j in logits.argmax(axis=1)]


def viterbi(emissions, model: TransitionModel, relax: bool = False,
            runner_up: bool = False):
    """Best state sequence under start + emission + transition scores.

    Emissions that are not a (T, L) matrix of finite numbers raise
    ValidationError, as does a best path whose score overflows a float to
    +inf or -inf, relaxed or not. Returns (labels, score). Ties are broken
    toward the lowest label index at every backpointer decision. Raises
    NoValidPathError when every sequence has a vetoed (-inf) start or
    transition; with relax=True it then ranks sequences by fewest vetoes
    first and score second, a vetoed entry adding 0 (a lexicographic
    semiring, Roark, Sproat & Shafran 2011). That decode runs the same
    kernel over the same labels, on only the entries that lie on some
    fewest-veto path (`veto_counts`). So a vetoed path is picked only when
    no legal one exists.

    With runner_up=True it returns (labels, score, runner_up): runner_up is
    the second-highest score over all label sequences of the same decode,
    under relax those with the fewest vetoes. It equals score on a tie and
    is -inf when there is no second such sequence.
    """
    U = _logit_matrix(emissions, "emissions", labels=model.vocabulary.size, finite=True)
    if U.shape[0] < 1:
        raise ValidationError("emissions must cover at least one step")

    rows = U.tolist()
    start, trans = model.start_scores, model.trans_scores
    path, score, second = _max_plus(rows, start, [_incoming(trans)] * (len(rows) - 1))
    # A -inf best score is a missing path only if every path takes a veto.
    if score == -math.inf and (counts := veto_counts(model, len(rows)))[-1].min() > 0:
        if not relax:
            raise NoValidPathError(f"no state sequence of length {len(rows)} "
                                   "has finite score under the model")
        # Each prefix of a fewest-veto path has its label's fewest vetoes at
        # its length, so a step keeps only the entries that hold them; no
        # entry reaches a last label above the fewest.
        counts[-1][counts[-1] > counts[-1].min()] = -1
        steps = [_incoming(_fewest(trans, a[:, None], b)) for a, b in zip(counts, counts[1:])]
        path, score, second = _max_plus(rows, _fewest(start, 0, counts[0]), steps)
    if not math.isfinite(score):
        raise ValidationError("the best path's score overflows a float")
    labels = [model.vocabulary.labels[i] for i in path]
    return (labels, score, second) if runner_up else (labels, score)


def _fewest(scores, before, after):
    """`scores` with a vetoed entry scored 0, and -inf where an entry does
    not take `before` vetoes to `after`."""
    vetoed = np.isneginf(scores)
    return np.where(before + vetoed == after, np.where(vetoed, 0.0, scores), -np.inf)


def _incoming(trans):
    """Per label q, its (p, score) edges from each p, the -inf ones left out:
    a vetoed edge only adds -inf, which never beats the -inf a state starts
    from, so skipping it leaves every score and backpointer as is."""
    return [[(p, s) for p, s in enumerate(col) if s != -np.inf] for col in trans.T.tolist()]


def _max_plus(rows, start, steps):
    """(label indices, score, runner_up) for logit rows, start scores and one
    `_incoming` edge list per step after the first; `viterbi` judges the score."""
    # Max-plus over Python floats: the same IEEE additions in the same order
    # as a numpy formulation, without its per-step array overhead at L <= 6.
    # Each state also keeps the second-best score of the prefixes ending in
    # it. Float addition is monotone, so the two best extensions into a
    # state come from the two best prefixes of its predecessors, and the
    # runner-up is exactly the second-largest of the path sums whose
    # largest is the score.
    veto = -np.inf
    dp = [s + u for s, u in zip(start.tolist(), rows[0])]
    dp2 = [veto] * len(dp)
    backptr = []
    for row, incoming in zip(rows[1:], steps):
        best_prev = []
        step, step2 = [], []
        for edges, u in zip(incoming, row):
            best, second, arg = veto, veto, 0
            for p, s in edges:
                cand = dp[p] + s
                if cand > best:                 # strict: lowest predecessor wins ties
                    best, second, arg = cand, best, p
                elif cand > second:
                    second = cand
                cand = dp2[p] + s               # never above dp[p] + s
                if cand > second:
                    second = cand
            step.append(best + u)
            step2.append(second + u)
            best_prev.append(arg)
        dp, dp2 = step, step2
        backptr.append(best_prev)
    last = max(range(len(dp)), key=dp.__getitem__)
    path = [last]
    for best_prev in reversed(backptr):
        path.append(best_prev[path[-1]])
    path.reverse()
    return path, dp[last], sorted(dp + dp2, reverse=True)[1]


def rounding_bound(state_logits, tau: float, model: TransitionModel) -> float:
    """B: a bound on the rounding error of the float score `viterbi` gives
    any path of these logits, weighted by taus no larger than `tau`, against
    the exact sum of the path's terms.

    `_max_plus` adds a path's 2T terms in one fixed order (the start score
    and the first weighted logit, then per step a transition score and a
    weighted logit), so each term, a product tau * logit included, goes
    through at most 2T roundings. By Higham's analysis of recursive
    summation, with room to spare,

        B = gamma(2T+2) * (max|start| + (T-1) * max|trans| + tau * sum_t max_l |u_tl|)

    with gamma(n) = n*u / (1 - n*u), u = 2**-53 and the finite model scores
    (a relaxed decode adds 0 for a vetoed one), plus the least subnormal per
    step for a product that underflows. Past 1e300 a partial sum could
    overflow, and B is infinite.
    """
    row_max = np.abs(_logit_matrix(state_logits)).max(axis=1, initial=0.0)
    # The largest |score| a decode may add at a start or a transition.
    start_max, trans_max = (float(np.abs(scores[np.isfinite(scores)]).max(initial=0.0))
                            for scores in (model.start_scores, model.trans_scores))
    steps = len(row_max)
    with np.errstate(over="ignore"):        # an overflowed sum makes B infinite below
        mass = start_max + (steps - 1) * trans_max + tau * float(row_max.sum())
    if not mass < 1e300:
        return math.inf
    n = (2 * steps + 2) * 2.0 ** -53
    return n / (1 - n) * mass + steps * math.ulp(0.0)


def decode_entity(procedure: Procedure, entity: Entity, track: EmissionTrack,
                  model: TransitionModel, config: DecodeConfig) -> list[str]:
    """Mention-weighted decode for one entity; returns its state sequence."""
    logits = _logit_matrix(track.state_logits, steps=procedure.num_steps)
    weighted = weight_emissions(logits, detect_mentions(procedure, entity), config)
    states, _ = viterbi(weighted, model)
    return states


def load_emissions(path, procedures, vocabulary: StateVocabulary):
    """Read an emissions file (JSON lines keyed by procedure and entity).

    Each record: {"procedure_id", "entity_id", "state_logits" (T x L,
    row-major), "location_preds" (T+1 strings)}. Dimensions are checked
    against the corpus and all logits must be finite. Ids are the corpus's
    own objects, and equal location predictions are one string object.
    """
    by_id = {p.id: p for p in procedures}
    sets: dict[str, EmissionSet] = {}
    shared: dict[str, str] = {}

    def parse(record):
        proc_id = check_str(record.get("procedure_id"), "'procedure_id'")
        entity_id = check_str(record.get("entity_id"), "'entity_id'")
        procedure = by_id.get(proc_id)
        if procedure is None:
            raise ValidationError(f"unknown procedure id {proc_id!r}")
        entity = procedure.entity(entity_id)
        track = EmissionTrack(record.get("state_logits"), preds := record.get("location_preds"))
        track.location_preds = tuple(map(shared.setdefault, preds, preds))
        _logit_matrix(track.state_logits, steps=procedure.num_steps, labels=vocabulary.size)
        bucket = sets.setdefault(procedure.id, EmissionSet(procedure.id, {}))
        if entity.id in bucket.tracks:
            raise ValidationError(f"duplicate emissions for ({proc_id!r}, {entity_id!r})")
        bucket.tracks[entity.id] = track

    read_records(path, parse)
    return sets


def save_emissions(sets, path) -> None:
    write_records(path, ({
        "procedure_id": emission_set.procedure_id,
        "entity_id": entity_id,
        "state_logits": track.state_logits.tolist(),
        "location_preds": list(track.location_preds),
    } for emission_set in sets.values() for entity_id, track in emission_set.tracks.items()))
