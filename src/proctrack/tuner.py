"""Exhaustive grid search over the two emission weights.

Every (tau_exp, tau_imp) cell is scored by decoding the dev emissions,
repairing locations, and taking the document-level macro F1 against gold.
Ties prefer the smaller tau_exp, then the smaller tau_imp, which falls out
of scanning the grid in sorted order with a strict improvement test. Cells
are independent, so they can be farmed out to worker processes; the table
order and the maximizer never depend on jobs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .consistency import resolve
from .corpus import AnnotationGrid, StateVocabulary
from .decoder import DecodeConfig, detect_mentions, viterbi, weight_emissions
from .errors import ToolkitError, ValidationError
from .evaluator import eval_document_level
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


def _score_cell(state, cell):
    units, model, vocabulary, gold_grids, relax = state
    tau_exp, tau_imp = cell
    config = DecodeConfig(tau_exp=tau_exp, tau_imp=tau_imp)
    pred_grids: dict[str, AnnotationGrid] = {}
    try:
        for proc_id, entity_id, track, flags in units:
            weighted = weight_emissions(track.state_logits, flags, config)
            states, _ = viterbi(weighted, model, relax=relax)
            resolved = resolve(states, track.location_preds, vocabulary)
            grid_pred = pred_grids.setdefault(
                proc_id, AnnotationGrid(procedure_id=proc_id, entries={}))
            grid_pred.entries[entity_id] = resolved.track()
    except ToolkitError as exc:
        raise type(exc)(f"grid cell ({tau_exp}, {tau_imp}): {exc}") from exc
    f1 = eval_document_level(gold_grids, pred_grids).macro_f1
    return tau_exp, tau_imp, f1


# Worker processes receive the shared inputs once, at pool start, instead
# of re-pickling them for each of the 225 cells.
_CELL_STATE = None


def _init_cell_state(state):
    global _CELL_STATE
    _CELL_STATE = state


def _score_cell_worker(cell):
    return _score_cell(_CELL_STATE, cell)


def tune(procedures, gold_grids, emissions, model: TransitionModel,
         vocabulary: StateVocabulary, grid=None, relax: bool = False,
         jobs: int = 1) -> TuneResult:
    """Score every grid cell and return the best plus the full table."""
    taus = tuple(grid) if grid is not None else default_grid()
    if not taus:
        raise ValidationError("tuning grid must be non-empty")
    for tau in taus:
        if not tau > 0:
            raise ValidationError(f"tuning grid values must be positive, got {tau}")

    # Decode inputs are fixed across cells; hoist everything reusable.
    joined, _ = join(procedures, gold_grids, emissions)
    units = [(procedure.id, entity_id, track,
              detect_mentions(procedure, procedure.entity(entity_id)))
             for procedure, tracks in joined for entity_id, track in tracks]

    values = sorted(set(taus))
    cells = [(tau_exp, tau_imp) for tau_exp in values for tau_imp in values]
    state = (units, model, vocabulary, gold_grids, relax)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_cell_state,
                                 initargs=(state,)) as pool:
            rows = list(pool.map(_score_cell_worker, cells))
    else:
        rows = [_score_cell(state, cell) for cell in cells]

    best = None
    for row in rows:
        if best is None or row[2] > best[2]:
            best = row
    return TuneResult(tau_exp=best[0], tau_imp=best[1], f1=best[2],
                      table=tuple(rows))
