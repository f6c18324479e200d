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

An entity is not decoded at every cell of its grid. A path's exact score
is affine in (tau_exp, tau_imp), c + tau_exp*E + tau_imp*I, so the cells
where one path beats every other lie in a convex region (parametric shortest
paths, Gusfield 1980). E and I sum the path's logits over the mentioned and
the unmentioned steps, and c is the float score of the decode that found
the path less its tau_exp*E and tau_imp*I. The search decodes the grid's
corners with `viterbi(..., runner_up=True)`, then repeats a round until
every cell is settled (decoded or filled). A round predicts each unsettled
cell's winner among the paths found so far from their affine scores; the
prediction only chooses what to check, never what a cell gets, so its
rounding does not matter. For each group of cells with the same predicted
path p, joined by the cells already decoded to p with a margin over 4*B, it
decodes every unsettled vertex of the group's convex hull. If each vertex
returns p and its float score beats the runner-up by more than 4*B, every
cell of the group gets p. B is `decoder.rounding_bound` at the grid's
largest taus, which bounds the rounding error of any path's float score
anywhere in the entity's grid. A margin over 4*B at each vertex leaves an
exact margin over 2*B at every point of the hull, since the exact margin
over any other path is affine too, so the winner's float score still beats
every other path's at each cell inside. Float addition is monotone, so
Viterbi returns the argmax of the fixed-order float path sums: a filled
cell gets the path a decode of it returns. Ties and near-ties never fill,
and a cell on them is decoded. A relaxed decode ranks only the paths with
the fewest vetoed entries, a count the taus do not change, so every cell
ranks the same paths, and the argument holds among them. The hull is taken
at the cells' taus, as exact integers in one power-of-two unit, not at
their grid indices: on an uneven grid a cell inside the hull of indices can
lie outside the hull of taus, where another path wins. A group that is not
filled has a vertex that failed, and only a cell decoded in this round can
fail, so every round settles at least one cell and the search ends. On
`propara-tune` at seed 1 it decodes 1,279 times for the 225-cell grid and
2,412 times for a 3,600-cell one (0.025 to 1.5 in steps of 0.025).
When a decode fails, the entity's cells are decoded in grid order instead,
so the error names the first failing cell as a per-cell loop would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .consistency import resolve
from .corpus import AnnotationGrid, StateVocabulary
from .decoder import DecodeConfig, detect_mentions, rounding_bound, viterbi, weight_emissions
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


def _exact(values):
    """`values` as integers in one common power-of-two unit: exact, and in
    the same order and ratios as the floats."""
    ratios = [float(value).as_integer_ratio() for value in values]
    unit = max(d for _, d in ratios)
    return [n * (unit // d) for n, d in ratios]


def _hull(mask, x, y):
    """Vertices of the convex hull of the cells (i, j) set in `mask`, taken
    at the points (x[i], y[j]) of increasing integers; collinear points are
    left out."""
    rows = np.flatnonzero(mask.any(axis=1))
    first = mask[rows].argmax(axis=1).tolist()
    last = (mask.shape[1] - 1 - mask[rows, ::-1].argmax(axis=1)).tolist()
    rows = rows.tolist()

    def chain(points):                  # Andrew's monotone chain, one half
        out = []
        for i, j in points:
            while len(out) >= 2:
                (oi, oj), (ai, aj) = out[-2:]
                if (x[ai] - x[oi]) * (y[j] - y[oj]) > (y[aj] - y[oj]) * (x[i] - x[oi]):
                    break
                out.pop()
            out.append((i, j))
        return out

    # A row's first cell can only be on the lower half, its last on the upper.
    return list(dict.fromkeys(chain(list(zip(rows, first)))
                              + chain(list(zip(rows, last))[::-1])))


def _entity_paths(procedure, entity_id, track, values, model, vocabulary, relax):
    """Resolved tracks of one entity: (distinct tracks, index into them per
    cell of the grid over the sorted `values`)."""
    flags = detect_mentions(procedure, procedure.entity(entity_id))
    mentioned = np.asarray(flags, dtype=bool)
    # This entity's grid has cells (i, j) at taus (values[i], values[j]); an
    # axis whose tau no step uses collapses to the first value.
    shape = (len(values) if mentioned.any() else 1, len(values) if not mentioned.all() else 1)
    logits = track.state_logits
    # B at the grid's largest taus bounds it at every cell.
    threshold = 4 * rounding_bound(logits, flags, DecodeConfig(values[-1], values[-1]), model)

    resolved, path_index = [], {}
    terms = []              # per path: its score's (constant, tau_exp, tau_imp) terms
    at = np.full(shape, -1)                 # path index per cell, -1 while unsettled
    strong = np.zeros(shape, dtype=bool)    # decoded, with margin over 4*B

    def decode(i, j):
        weighted = weight_emissions(logits, flags, DecodeConfig(values[i], values[j]))
        states, score, runner_up = viterbi(weighted, model, relax=relax, runner_up=True)
        states = tuple(states)
        if states not in path_index:
            path_index[states] = len(resolved)
            resolved.append(resolve(states, track.location_preds, vocabulary).track())
            labels = [model.vocabulary.index(state) for state in states]
            emitted = logits[np.arange(len(labels)), labels]
            per_exp, per_imp = float(emitted[mentioned].sum()), float(emitted[~mentioned].sum())
            terms.append((score - values[i] * per_exp - values[j] * per_imp, per_exp, per_imp))
        at[i, j] = path_index[states]
        strong[i, j] = score - runner_up > threshold

    exact = _exact(values)
    x, y = exact[:shape[0]], exact[:shape[1]]
    taus_exp, taus_imp = np.array(values[:shape[0]])[:, None], np.array(values[:shape[1]])
    try:
        for i, j in sorted({(i, j) for i in (0, shape[0] - 1) for j in (0, shape[1] - 1)}):
            decode(i, j)
        while (unsettled := at < 0).any():
            constant, per_exp, per_imp = np.array(terms).T[:, :, None, None]
            with np.errstate(all="ignore"):
                predicted = (constant + per_exp * taus_exp + per_imp * taus_imp).argmax(axis=0)
            for path in np.unique(predicted[unsettled]).tolist():
                group = unsettled & (predicted == path)
                vertices = _hull(group | (strong & (at == path)), x, y)
                for i, j in vertices:
                    if at[i, j] < 0:
                        decode(i, j)
                if all(at[cell] == path and strong[cell] for cell in vertices):
                    at[group] = path
    except ToolkitError:
        # Name the first failing cell in grid order, as a per-cell loop would.
        for i, j in itertools.product(range(shape[0]), range(shape[1])):
            try:
                decode(i, j)
            except ToolkitError as exc:
                raise type(exc)(f"grid cell ({values[i]}, {values[j]}): procedure "
                                f"{procedure.id!r}, entity {entity_id!r}: {exc}") from exc
        raise
    return resolved, np.broadcast_to(at, (len(values),) * 2).ravel().tolist()


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
    totals = np.array([fixed] * len(cells))
    for procedure, tracks in joined:
        if not tracks:
            continue
        pid = procedure.id
        entity_ids = [entity_id for entity_id, _ in tracks]
        paths, columns = zip(*(
            _entity_paths(procedure, entity_id, track, values, model, vocabulary, relax)
            for entity_id, track in tracks))
        scored, counts, index = {}, [], []  # index: per cell, into the distinct counts
        for combination in zip(*columns):
            if combination not in scored:
                scored[combination] = len(counts)
                entries = {entity_id: tracks_of[i] for entity_id, tracks_of, i
                           in zip(entity_ids, paths, combination)}
                counts.append(_counts(eval_document_level(
                    {pid: gold_grids[pid]}, {pid: AnnotationGrid(pid, entries)})))
            index.append(scored[combination])
        totals += np.array(counts)[index]

    rows = [(tau_exp, tau_imp, document_report(counts).macro_f1)
            for (tau_exp, tau_imp), counts in zip(cells, totals.tolist())]
    best = None
    for row in rows:
        if best is None or row[2] > best[2]:
            best = row
    return TuneResult(tau_exp=best[0], tau_imp=best[1], f1=best[2],
                      table=tuple(rows))
