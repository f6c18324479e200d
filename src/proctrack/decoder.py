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
from itertools import chain

import numpy as np

from .corpus import (Entity, Procedure, StateVocabulary, check_str, check_str_list,
                     read_records, token_text, write_records)
from .errors import NoValidPathError, ValidationError
from .transitions import TransitionModel, fewest_vetoes


@dataclass(frozen=True)
class DecodeConfig:
    """Emission weights for explicitly mentioned vs unmentioned steps."""

    tau_exp: float = 0.6
    tau_imp: float = 0.7

    def __post_init__(self):
        if not (self.tau_exp > 0 and self.tau_imp > 0):
            raise ValidationError(
                f"tau values must be positive, got ({self.tau_exp}, {self.tau_imp})")


@dataclass
class EmissionTrack:
    """Model outputs for one entity: a (T, L) logit matrix and T+1 location
    strings ("none", "unknown", or a span)."""

    state_logits: np.ndarray
    location_preds: tuple[str, ...]

    def __post_init__(self):
        try:
            self.state_logits = np.asarray(self.state_logits, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError("state_logits must be a (T, L) matrix of numbers") from None
        if self.state_logits.ndim != 2:
            raise ValidationError("state_logits must be a (T, L) matrix")
        if not np.isfinite(self.state_logits).all():
            raise ValidationError("state logits must all be finite")
        if len(self.location_preds) != self.state_logits.shape[0] + 1:
            raise ValidationError(
                f"expected {self.state_logits.shape[0] + 1} location predictions, "
                f"got {len(self.location_preds)}")

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


def weight_emissions(state_logits, flags, config: DecodeConfig) -> np.ndarray:
    """Scale each logit row by tau_exp (mentioned) or tau_imp (not mentioned)."""
    logits = np.asarray(state_logits, dtype=float)
    if logits.ndim != 2:
        raise ValidationError("state_logits must be a (T, L) matrix")
    if len(flags) != logits.shape[0]:
        raise ValidationError(
            f"{len(flags)} mention flags for {logits.shape[0]} steps")
    taus = np.where(np.asarray(flags, dtype=bool), config.tau_exp, config.tau_imp)
    return logits * taus[:, None]


def argmax_states(state_logits, vocabulary: StateVocabulary) -> list[str]:
    """Per-step argmax baseline, ignoring transitions. Ties pick the lowest
    label index."""
    logits = np.asarray(state_logits, dtype=float)
    if logits.shape[1] != vocabulary.size:
        raise ValidationError(
            f"logits have {logits.shape[1]} columns for {vocabulary.size} labels")
    return [vocabulary.labels[j] for j in logits.argmax(axis=1)]


def viterbi(emissions, model: TransitionModel, relax: bool = False,
            runner_up: bool = False):
    """Best state sequence under start + emission + transition scores.

    Returns (labels, score). Ties are broken toward the lowest label index
    at every backpointer decision. Raises NoValidPathError when every
    sequence scores -inf; with relax=True it then ranks sequences by fewest
    vetoed (-inf) starts and transitions first and score second, a vetoed
    entry adding 0 (a lexicographic semiring, Roark, Sproat & Shafran 2011).
    So a vetoed path is picked only when no legal one exists.

    With runner_up=True it returns (labels, score, runner_up): runner_up is
    the second-highest score over all label sequences of the same decode,
    under relax those with the fewest vetoes. It equals score on a tie and
    is -inf when there is no second such sequence.
    """
    U = np.asarray(emissions, dtype=float)
    if U.ndim != 2:
        raise ValidationError("emissions must be a (T, L) matrix")
    size = model.vocabulary.size
    if U.shape[1] != size:
        raise ValidationError(
            f"emissions have {U.shape[1]} columns for {size} labels")
    if U.shape[0] < 1:
        raise ValidationError("emissions must cover at least one step")
    if not np.isfinite(U).all():
        raise ValidationError("emission scores must all be finite")

    rows, depth = U.tolist(), 1
    start, trans = model.start_scores, model.trans_scores
    try:
        path, score, second = _max_plus(rows, start, trans)
    except NoValidPathError:
        if not relax:
            raise
        # State q*depth + k is label q after k vetoed entries, which add 0;
        # label-major, so ties still go to the lowest label. No state holds
        # more than the fewest vetoes. Row `size` at k = 0 holds the starts.
        depth = fewest_vetoes(model, len(rows)) + 1
        k, scores = np.arange(depth), np.vstack([trans, start])
        layered = np.full((size + 1, depth, size, depth), -np.inf)
        layered[:, k, :, k] = scores
        layered[:, k[:-1], :, k[1:]] = np.where(np.isneginf(scores), 0.0, -np.inf)
        layered = layered.reshape(-1, size * depth)
        path, score, second = _max_plus([[u for u in row for _ in k] for row in rows],
                                        layered[-depth], layered[:-depth])
    labels = [model.vocabulary.labels[i // depth] for i in path]
    return (labels, score, second) if runner_up else (labels, score)


def _max_plus(rows, start, trans):
    """(label indices, score, runner_up) for logit rows; see `viterbi`."""
    # Max-plus over Python floats: the same IEEE additions in the same order
    # as a numpy formulation, without its per-step array overhead at L <= 6.
    # Each state also keeps the second-best score of the prefixes ending in
    # it. Float addition is monotone, so the two best extensions into a
    # state come from the two best prefixes of its predecessors, and the
    # runner-up is exactly the second-largest of the path sums whose
    # largest is the score.
    veto = -np.inf
    # A vetoed edge only adds -inf, which never beats the -inf a state
    # starts from, so skipping it leaves every score and backpointer as is.
    incoming = [[(p, s) for p, s in enumerate(col) if s != veto] for col in trans.T.tolist()]
    dp = [s + u for s, u in zip(start.tolist(), rows[0])]
    dp2 = [veto] * len(dp)
    backptr = []
    for row in rows[1:]:
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
    if dp[last] == veto:
        raise NoValidPathError(f"no state sequence of length {len(rows)} "
                               "has finite score under the model")
    path = [last]
    for best_prev in reversed(backptr):
        path.append(best_prev[path[-1]])
    path.reverse()
    return path, dp[last], sorted(dp + dp2, reverse=True)[1]


def rounding_bound(state_logits, flags, config: DecodeConfig, model: TransitionModel) -> float:
    """B: a bound on the rounding error of the float score `viterbi` gives
    any path of these logits, weighted by taus no larger than config's,
    against the exact sum of the path's terms.

    `_max_plus` adds a path's 2T terms in one fixed order (the start score
    and the first weighted logit, then per step a transition score and a
    weighted logit), so each term, a product tau * logit included, goes
    through at most 2T roundings. By Higham's analysis of recursive
    summation, with room to spare,

        B = gamma(2T+2) * (max|start| + (T-1) * max|trans| + sum_t max_l |tau_t * u_tl|)

    with gamma(n) = n*u / (1 - n*u), u = 2**-53 and the finite model scores
    (a relaxed decode adds 0 for a vetoed one), plus the least subnormal per
    step for a product that underflows. Past 1e300 a partial sum could
    overflow, and B is infinite.
    """
    logits = np.asarray(state_logits, dtype=float)
    mentioned = np.asarray(flags, dtype=bool)
    row_max = np.abs(logits).max(axis=1)
    # The largest |score| a decode may add at a start or a transition.
    start_max, trans_max = (float(np.abs(scores[np.isfinite(scores)]).max(initial=0.0))
                            for scores in (model.start_scores, model.trans_scores))
    steps = len(mentioned)
    mass = (start_max + (steps - 1) * trans_max
            + config.tau_exp * float(row_max[mentioned].sum())
            + config.tau_imp * float(row_max[~mentioned].sum()))
    if not mass < 1e300:
        return math.inf
    n = (2 * steps + 2) * 2.0 ** -53
    return n / (1 - n) * mass + steps * math.ulp(0.0)


def decode_entity(procedure: Procedure, entity: Entity, track: EmissionTrack,
                  model: TransitionModel, config: DecodeConfig) -> list[str]:
    """Mention-weighted decode for one entity; returns its state sequence."""
    if track.num_steps != procedure.num_steps:
        raise ValidationError(
            f"emissions cover {track.num_steps} steps but procedure "
            f"{procedure.id!r} has {procedure.num_steps}")
    flags = detect_mentions(procedure, entity)
    weighted = weight_emissions(track.state_logits, flags, config)
    states, _ = viterbi(weighted, model)
    return states


def load_emissions(path, procedures, vocabulary: StateVocabulary):
    """Read an emissions file (JSON lines keyed by procedure and entity).

    Each record: {"procedure_id", "entity_id", "state_logits" (T x L,
    row-major), "location_preds" (T+1 strings)}. Dimensions are checked
    against the corpus and all logits must be finite.
    """
    by_id = {p.id: p for p in procedures}
    sets: dict[str, EmissionSet] = {}

    def parse(record):
        proc_id = check_str(record.get("procedure_id"), "'procedure_id'")
        entity_id = check_str(record.get("entity_id"), "'entity_id'")
        preds = check_str_list(record.get("location_preds"), "'location_preds'")
        # Type check before numpy, which would turn "0.5" and true into floats.
        logits = record.get("state_logits")
        if not (isinstance(logits, list) and set(map(type, logits)) <= {list}
                and set(map(type, chain.from_iterable(logits))) <= {int, float}):
            raise ValidationError("'state_logits' must be a list of rows of numbers")
        procedure = by_id.get(proc_id)
        if procedure is None:
            raise ValidationError(f"unknown procedure id {proc_id!r}")
        if all(e.id != entity_id for e in procedure.entities):
            raise ValidationError(f"unknown entity {entity_id!r} in procedure {proc_id!r}")
        track = EmissionTrack(logits, tuple(preds))
        if track.num_steps != procedure.num_steps:
            raise ValidationError(
                f"{track.num_steps} logit rows for {procedure.num_steps} steps")
        if track.state_logits.shape[1] != vocabulary.size:
            raise ValidationError(
                f"{track.state_logits.shape[1]} logit columns for {vocabulary.size} labels")
        bucket = sets.setdefault(proc_id, EmissionSet(proc_id, {}))
        if entity_id in bucket.tracks:
            raise ValidationError(f"duplicate emissions for ({proc_id!r}, {entity_id!r})")
        bucket.tracks[entity_id] = track

    read_records(path, parse)
    return sets


def save_emissions(sets, path) -> None:
    write_records(path, ({
        "procedure_id": emission_set.procedure_id,
        "entity_id": entity_id,
        "state_logits": [[float(x) for x in row] for row in track.state_logits],
        "location_preds": list(track.location_preds),
    } for emission_set in sets.values() for entity_id, track in emission_set.tracks.items()))
