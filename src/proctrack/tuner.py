"""Exhaustive grid search over the two emission weights.

Every (tau_exp, tau_imp) cell is scored by decoding the dev emissions,
repairing locations, and taking the document-level macro F1 against gold.
Ties prefer the smaller tau_exp, then the smaller tau_imp, which falls out
of scanning the grid in sorted order with a strict improvement test.

Work is done once per distinct result, not once per cell. An entity's
weighted emissions depend only on the taus its mention flags use, so its
decodes span a 2-D grid when it has both mentioned and unmentioned steps,
else a 1-D one. Each distinct path is resolved once, and each procedure is
scored once per distinct combination of its entities' paths. Every document
tuple starts with its procedure id, so the per-procedure counts sum to the
counts of the whole split, and the macro F1 built from them is
bit-identical to scoring the split in one call.

An entity is not decoded at every cell of its grid. A path's exact score is
affine in (tau_exp, tau_imp), so the region where one path beats every
other is convex, and a recursive search over rectangles of the sorted grid
values decodes mostly at region boundaries. It decodes a rectangle's four
corners with `viterbi(..., runner_up=True)`. If one path wins at all four
and each corner's float score beats the runner-up by more than 4*B, every
cell of the rectangle gets that path; otherwise the rectangle is split in
two along its longer side, and one of 2x2 cells or fewer is decoded cell by
cell. B bounds the rounding error of any path's float score anywhere in
the rectangle:

    B = gamma(2T+2) * (max|start| + (T-1) * max|trans| + sum_t max_l |tau_t * u_tl|)

with gamma(n) = n*u / (1 - n*u), u = 2**-53, the finite model scores (and
|RELAX_SCORE| when relaxed) and the rectangle's largest taus. A margin over
4*B at the corners leaves an exact margin over 2*B everywhere in the
rectangle, so the winner's float score still beats every other path's at
each cell. Float addition is monotone, so Viterbi returns the argmax of the
fixed-order float path sums: the filled path is the one a decode of that
cell returns. Ties and near-ties never fill, and a cell on them is decoded.
When a decode fails, the entity's cells are decoded in grid order instead,
so the error names the first failing cell as a per-cell loop would.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .consistency import resolve
from .corpus import AnnotationGrid, StateVocabulary
from .decoder import RELAX_SCORE, DecodeConfig, detect_mentions, viterbi, weight_emissions
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


def _rounding_bound(steps: int, mass: float) -> float:
    """B for a path of `steps` steps whose terms have absolute values summing
    to at most `mass`; see the module docstring. Each of the `steps`
    products may also underflow by half a subnormal. Past 1e300 a partial
    sum could overflow, and the bound is infinite."""
    if not mass < 1e300:
        return math.inf
    n = (2 * steps + 2) * 2.0 ** -53
    return n / (1 - n) * mass + steps * math.ulp(0.0)


def _entity_paths(procedure, entity_id, track, values, model, vocabulary, relax):
    """Resolved tracks of one entity: (distinct tracks, index into them per
    cell of the grid over the sorted `values`)."""
    flags = detect_mentions(procedure, procedure.entity(entity_id))
    # Cell (i, j) of the tune grid is cell (exp_of[i], imp_of[j]) of this
    # entity's grid, where an axis whose tau no step uses collapses to the
    # first value.
    exp_of = range(len(values)) if any(flags) else [0] * len(values)
    imp_of = range(len(values)) if not all(flags) else [0] * len(values)
    row_max = np.abs(track.state_logits).max(axis=1)
    mentioned = np.asarray(flags, dtype=bool)
    mass_exp, mass_imp = float(row_max[mentioned].sum()), float(row_max[~mentioned].sum())
    # The largest |score| a decode may add at a start or a transition.
    start_max, trans_max = (
        max(np.abs(scores[np.isfinite(scores)]).max(initial=0.0),
            abs(RELAX_SCORE) if relax else 0.0)
        for scores in (model.start_scores, model.trans_scores))
    fixed = start_max + (len(flags) - 1) * trans_max

    resolved, path_index = [], {}
    decoded = {}            # (i, j) -> (path index, score minus runner-up)
    at = {}                 # (i, j) -> path index, decoded or filled

    def decode(i, j):
        if (i, j) not in decoded:
            weighted = weight_emissions(track.state_logits, flags,
                                        DecodeConfig(values[i], values[j]))
            states, score, runner_up = viterbi(weighted, model, relax=relax, runner_up=True)
            states = tuple(states)
            if states not in path_index:
                resolved.append(resolve(states, track.location_preds, vocabulary).track())
                path_index[states] = len(resolved) - 1
            decoded[i, j] = path_index[states], score - runner_up
            at[i, j] = path_index[states]
        return decoded[i, j]

    def search(i0, i1, j0, j1):
        corners = [decode(i, j) for i in (i0, i1) for j in (j0, j1)]
        if i1 - i0 <= 1 and j1 - j0 <= 1:
            return                                  # every cell is a corner
        bound = _rounding_bound(len(flags), fixed + values[i1] * mass_exp
                                + values[j1] * mass_imp)
        path = corners[0][0]
        if all(p == path and margin > 4 * bound for p, margin in corners):
            for cell in itertools.product(range(i0, i1 + 1), range(j0, j1 + 1)):
                at[cell] = path
        elif i1 - i0 >= j1 - j0:
            mid = (i0 + i1) // 2
            search(i0, mid, j0, j1)
            search(mid, i1, j0, j1)
        else:
            mid = (j0 + j1) // 2
            search(i0, i1, j0, mid)
            search(i0, i1, mid, j1)

    try:
        search(0, exp_of[-1], 0, imp_of[-1])
    except ToolkitError:
        # Name the first failing cell in grid order, as a per-cell loop would.
        for (i, tau_exp), (j, tau_imp) in itertools.product(enumerate(values), repeat=2):
            try:
                decode(exp_of[i], imp_of[j])
            except ToolkitError as exc:
                raise type(exc)(f"grid cell ({tau_exp}, {tau_imp}): procedure "
                                f"{procedure.id!r}, entity {entity_id!r}: {exc}") from exc
        raise
    return resolved, [at[i, j] for i in exp_of for j in imp_of]


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
            _entity_paths(procedure, entity_id, track, values, model, vocabulary, relax)
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
