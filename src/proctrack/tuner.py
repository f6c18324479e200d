"""Exhaustive grid search over the two emission weights.

Every (tau_exp, tau_imp) cell is scored by decoding the dev emissions,
repairing locations, and taking the document-level macro F1 against gold.
Ties prefer the smaller tau_exp, then the smaller tau_imp, which falls out
of scanning the grid in sorted order with a strict improvement test.

Work is done once per distinct result, not once per cell. An entity's
weighted emissions depend only on the taus its mention flags use, so it is
decoded once per distinct pair of those; each distinct path is resolved
once; and each procedure is scored once per distinct combination of its
entities' paths. Every document tuple starts with its procedure id, so the
per-procedure counts sum to the counts of the whole split, and the macro F1
built from them is bit-identical to scoring the split in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .consistency import resolve
from .corpus import AnnotationGrid, StateVocabulary
from .decoder import DecodeConfig, detect_mentions, viterbi, weight_emissions
from .errors import ToolkitError, ValidationError
from .evaluator import document_report, eval_document_level
from .pipeline import join
from .transitions import TransitionModel


def default_grid() -> tuple[float, ...]:
    """0.1 through 1.5 in steps of 0.1 (both weights range over it)."""
    return tuple(round(0.1 * k, 1) for k in range(1, 16))


@dataclass(frozen=True)
class TuneResult:
    tau_exp: float
    tau_imp: float
    f1: float
    table: tuple[tuple[float, float, float], ...]


def _counts(report):
    return [(q.n_pred, q.n_gold, q.n_correct) for q in report.questions().values()]


def _entity_paths(procedure, entity_id, track, cells, model, vocabulary, relax):
    """Resolved tracks of one entity: (distinct tracks, index into them per cell)."""
    flags = detect_mentions(procedure, procedure.entity(entity_id))
    explicit, implicit = any(flags), not all(flags)
    resolved, path_index, by_weights, column = [], {}, {}, []
    for tau_exp, tau_imp in cells:
        weights = (tau_exp if explicit else None, tau_imp if implicit else None)
        if weights not in by_weights:
            try:
                weighted = weight_emissions(track.state_logits, flags,
                                            DecodeConfig(tau_exp, tau_imp))
                states, _ = viterbi(weighted, model, relax=relax)
                states = tuple(states)
                if states not in path_index:
                    path_index[states] = len(resolved)
                    resolved.append(resolve(states, track.location_preds, vocabulary).track())
            except ToolkitError as exc:
                raise type(exc)(f"grid cell ({tau_exp}, {tau_imp}): procedure "
                                f"{procedure.id!r}, entity {entity_id!r}: {exc}") from exc
            by_weights[weights] = path_index[states]
        column.append(by_weights[weights])
    return resolved, column


def tune(procedures, gold_grids, emissions, model: TransitionModel,
         vocabulary: StateVocabulary, grid=None, relax: bool = False) -> TuneResult:
    """Score every grid cell and return the best plus the full table."""
    taus = tuple(grid) if grid is not None else default_grid()
    if not taus:
        raise ValidationError("tuning grid must be non-empty")
    for tau in taus:
        if not tau > 0:
            raise ValidationError(f"tuning grid values must be positive, got {tau}")
    values = sorted(set(taus))
    cells = [(tau_exp, tau_imp) for tau_exp in values for tau_imp in values]

    # Per cell, (n_pred, n_gold, n_correct) for each question, summed over
    # procedures. Gold procedures without any emissions score the same in
    # every cell.
    joined, _ = join(procedures, gold_grids, emissions)
    with_tracks = {procedure.id for procedure, tracks in joined if tracks}
    fixed = _counts(eval_document_level(
        {pid: gold for pid, gold in gold_grids.items() if pid not in with_tracks}, {}))
    totals = [fixed] * len(cells)
    for procedure, tracks in joined:
        if not tracks:
            continue
        pid = procedure.id
        entity_ids = [entity_id for entity_id, _ in tracks]
        paths, columns = zip(*(
            _entity_paths(procedure, entity_id, track, cells, model, vocabulary, relax)
            for entity_id, track in tracks))
        scored = {}
        for c, combination in enumerate(zip(*columns)):
            counts = scored.get(combination)
            if counts is None:
                entries = {entity_id: tracks_of[i] for entity_id, tracks_of, i
                           in zip(entity_ids, paths, combination)}
                counts = scored[combination] = _counts(eval_document_level(
                    {pid: gold_grids[pid]}, {pid: AnnotationGrid(pid, entries)}))
            totals[c] = [(a + x, b + y, n + z)
                         for (a, b, n), (x, y, z) in zip(totals[c], counts)]

    rows = [(tau_exp, tau_imp, document_report(counts).macro_f1)
            for (tau_exp, tau_imp), counts in zip(cells, totals)]
    best = None
    for row in rows:
        if best is None or row[2] > best[2]:
            best = row
    return TuneResult(tau_exp=best[0], tau_imp=best[1], f1=best[2],
                      table=tuple(rows))
