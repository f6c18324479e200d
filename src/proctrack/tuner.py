"""Exhaustive grid search over the two emission weights.

Every (tau_exp, tau_imp) cell is scored by decoding the dev emissions,
repairing locations, and taking the document-level macro F1 against gold.
Ties prefer the smaller tau_exp, then the smaller tau_imp, which falls out
of scanning the grid in sorted order with a strict improvement test.

Work is done once per distinct result, not once per cell. An entity's
weighted emissions depend only on the taus its mention flags use, so its
decodes span a 2-D grid when it has both mentioned and unmentioned steps,
else a 1-D one. Each distinct path is resolved once, and each procedure is
scored once per distinct combination of its entities' paths. A combination
is one int64 code per cell, folded in an entity at a time as code * n_paths
+ path and renumbered 0, 1, ... by `np.unique`; the procedures fold into one
split code per cell the same way, renumbered after each, with one count row
per code. Codes stay below the cell count, folded ones below cells² (10^12
at most). A procedure without emissions has one combination, its empty
grid. Every document tuple starts with its procedure id, so the
per-procedure counts sum to the counts of the whole split, and the macro F1
built from them is bit-identical to scoring the split in one call.

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
largest tau, which bounds the rounding error of any path's float score
anywhere in the entity's grid. A margin over 4*B at each vertex leaves an
exact margin over 2*B at every point of the hull, since the exact margin
over any other path is affine too, so the winner's float score still beats
every other path's at each cell inside. Float addition is monotone, so
Viterbi returns the argmax of the fixed-order float path sums: a filled
cell gets the path a decode of it returns. Ties and near-ties never fill,
so a group whose vertices all return its path, but not all by a margin, has
its other cells decoded in that round, not one hull layer per round. A
relaxed decode ranks only the paths with the fewest vetoed entries, a count
the taus do not change, so every cell ranks the same paths, and the
argument holds among them. The hull is taken at the cells' taus, as exact
integers in one power-of-two unit, not at their grid indices: on an uneven
grid a cell inside the hull of indices can lie outside the hull of taus,
where another path wins. A group that is not filled has a vertex that
failed, and only a cell decoded in this round can fail, so every round
settles at least one cell and the search ends.
A failed decode names its cell: the first to fail in grid order. With a
finite B the mass `rounding_bound` sums stays below 1e300, so no weighted
logit, score or prediction overflows, and what can still fail (no legal
path, a bad shape) fails at every cell or none, first at corner (0, 0), the
grid's first cell. An infinite B fills no cell, so all are decoded in order.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .consistency import resolve
from .corpus import AnnotationGrid, StateVocabulary
from .decoder import (GRID_MAX_VALUES, DecodeConfig, detect_mentions, rounding_bound, viterbi,
                      weight_emissions)
from .errors import ToolkitError, ValidationError
from .evaluator import document_report, eval_document_level
from .pipeline import join
from .transitions import TransitionModel


# A grid spec has at most GRID_MAX_VALUES values, and its arithmetic is
# exact or fails: 1,000 digits hold start + i*step for any three floats.
_EXACT = decimal.Context(prec=1000, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
                         traps=[decimal.Inexact])


def parse_grid(spec: str) -> tuple[float, ...]:
    """The values of a start:stop:step spec (`tune --grid`): start + i*step
    up to stop, stepped exactly in decimal and then rounded to floats, so
    0.1:0.36:0.1 ends at 0.3 and 1e-12:5e-12:1e-12 has 5 distinct values."""
    def bad(reason):
        return ValidationError(f"bad grid spec {spec!r}; {reason}")
    try:
        start, stop, step = (decimal.Decimal(x) for x in spec.split(":"))
    except (AttributeError, ValueError, decimal.InvalidOperation):    # or not a string
        raise bad("expected start:stop:step") from None
    if (not all(x.is_finite() and math.isfinite(float(x)) for x in (start, stop, step))
            or step <= 0 or stop < start):
        raise bad("values must be finite, with step > 0 and stop >= start")
    with decimal.localcontext(_EXACT):
        try:
            if stop - start >= GRID_MAX_VALUES * step:
                raise bad(f"it has more than {GRID_MAX_VALUES} values")
            return tuple(float(start + i * step) for i in range(int((stop - start) // step) + 1))
        except decimal.Inexact:
            raise bad(f"its values need more than {_EXACT.prec} digits") from None


def default_grid() -> tuple[float, ...]:
    """0.1 through 1.5 in steps of 0.1 (both weights range over it)."""
    return parse_grid("0.1:1.5:0.1")


@dataclass(frozen=True)
class TuneResult:
    tau_exp: float
    tau_imp: float
    f1: float
    table: tuple[tuple[float, float, float], ...]


def _exact(values):
    """`values` as integers in one common power-of-two unit: exact, and in
    the same order and ratios as the floats."""
    ratios = [value.as_integer_ratio() for value in values]
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
    """Resolved tracks of one entity: (distinct tracks, an int array of the
    index into them per cell of the grid over the sorted `values`)."""
    flags = detect_mentions(procedure, procedure.entity(entity_id))
    mentioned = np.asarray(flags, dtype=bool)
    # This entity's grid has cells (i, j) at taus (values[i], values[j]); an
    # axis whose tau no step uses collapses to the first value.
    shape = (len(values) if mentioned.any() else 1, len(values) if not mentioned.all() else 1)
    logits = track.state_logits
    # B at the grid's largest taus bounds it at every cell.
    threshold = 4 * rounding_bound(logits, values[-1], model)

    resolved, path_index = [], {}
    terms = []              # per path: its score's (constant, tau_exp, tau_imp) terms
    at = np.full(shape, -1)                 # path index per cell, -1 while unsettled
    strong = np.zeros(shape, dtype=bool)    # decoded, with margin over 4*B

    def decode(i, j):
        try:
            weighted = weight_emissions(logits, flags, DecodeConfig(values[i], values[j]))
            states, score, runner_up = viterbi(weighted, model, relax=relax, runner_up=True)
        except ToolkitError as exc:
            raise type(exc)(f"grid cell ({values[i]}, {values[j]}): procedure "
                            f"{procedure.id!r}, entity {entity_id!r}: {exc}") from exc
        states = tuple(states)
        if states not in path_index:
            path_index[states] = len(resolved)
            resolved.append(resolve(states, track.location_preds, vocabulary).track())
            labels = [model.vocabulary.index(state) for state in states]
            emitted = logits[np.arange(len(labels)), labels]
            with np.errstate(over="ignore"):     # only under an infinite B: no round runs
                per_exp, per_imp = (float(emitted[m].sum()) for m in (mentioned, ~mentioned))
            terms.append((score - values[i] * per_exp - values[j] * per_imp, per_exp, per_imp))
        at[i, j] = path_index[states]
        strong[i, j] = score - runner_up > threshold

    exact = _exact(values)
    x, y = exact[:shape[0]], exact[:shape[1]]
    taus_exp, taus_imp = np.array(values[:shape[0]])[:, None], np.array(values[:shape[1]])
    # The corners, or every cell in grid order where an infinite B fills none.
    for i, j in (itertools.product(range(shape[0]), range(shape[1])) if threshold == math.inf
                 else sorted({(i, j) for i in (0, shape[0] - 1) for j in (0, shape[1] - 1)})):
        decode(i, j)
    while (unsettled := at < 0).any():
        constant, per_exp, per_imp = np.array(terms).T[:, :, None, None]
        predicted = (constant + per_exp * taus_exp + per_imp * taus_imp).argmax(axis=0)
        # Each predicted path once, in order; np.unique would import numpy.ma.
        for path in np.flatnonzero(np.bincount(predicted[unsettled])).tolist():
            group = unsettled & (predicted == path)
            vertices = _hull(group | (strong & (at == path)), x, y)
            for i, j in vertices:
                if at[i, j] < 0:
                    decode(i, j)
            if all(at[cell] == path and strong[cell] for cell in vertices):
                at[group] = path
            elif all(at[cell] == path for cell in vertices):    # only a margin failed
                for i, j in np.argwhere(group & (at < 0)).tolist():
                    decode(i, j)
    return resolved, np.broadcast_to(at, (len(values),) * 2).ravel()


def tune(procedures, gold_grids, emissions, model: TransitionModel,
         vocabulary: StateVocabulary, grid=None, relax: bool = False) -> TuneResult:
    """Score every grid cell and return the best plus the full table."""
    try:        # the floats DecodeConfig checked: values equal as floats are one cell
        values = sorted({DecodeConfig(tau, tau).tau_exp
                         for tau in (default_grid() if grid is None else grid)})
    except TypeError:                               # a grid that is not iterable
        values = []
    if not values:
        raise ValidationError(f"tuning grid must be a non-empty collection of taus, got {grid!r}")

    # Per split code, (n_pred, n_gold, n_correct) for each question. A gold
    # procedure without tracks, or not in the corpus, has no paths.
    joined = {procedure.id: (procedure, tracks)
              for procedure, tracks in join(procedures, gold_grids, emissions)[0]}
    code, table = np.zeros(len(values) ** 2, dtype=np.int64), np.zeros((1, 4, 3), dtype=np.int64)
    for pid, gold in gold_grids.items():
        procedure, tracks = joined.get(pid, (None, ()))
        found = {entity_id: _entity_paths(procedure, entity_id, track, values, model, vocabulary,
                                          relax) for entity_id, track in tracks}
        combination, first = np.zeros(len(code), dtype=np.int64), np.zeros(1, dtype=np.int64)
        for paths, column in found.values():
            _, first, combination = np.unique(combination * len(paths) + column,
                                              return_index=True, return_inverse=True)
        counts = []
        for cell in first.tolist():                 # one cell of each combination
            grid_of = AnnotationGrid(pid, {entity_id: paths[column[cell]]
                                           for entity_id, (paths, column) in found.items()})
            counts.append(eval_document_level({pid: gold}, {pid: grid_of}).counts())
        _, first, joint = np.unique(code * len(counts) + combination,
                                    return_index=True, return_inverse=True)
        table, code = table[code[first]] + np.array(counts)[combination[first]], joint

    # Codes often share one count row; score each distinct row once.
    distinct, row_of = np.unique(table, axis=0, return_inverse=True)
    f1s = [document_report(counts).macro_f1 for counts in distinct.tolist()]
    rows = [(*cell, f1s[k]) for cell, k in zip(itertools.product(values, repeat=2),
                                               row_of.ravel()[code].tolist())]
    return TuneResult(*max(rows, key=lambda row: row[2]), table=tuple(rows))  # first of ties
