"""Grid search over emission weights."""

import dataclasses
import itertools
import json
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (CORPUS_PROPARA, EMISSIONS_PROPARA, MODEL_PROPARA, reference_tune,
                     tune_certificate_mismatches)

from proctrack import tuner
from proctrack.corpus import PROPARA, RECIPES
from proctrack.consistency import resolve
from proctrack.corpus import AnnotationGrid, Entity, Procedure, load_corpus, write_json
from proctrack.decoder import (DecodeConfig, EmissionSet, EmissionTrack, decode_entity,
                               load_emissions, viterbi, weight_emissions)
from proctrack.errors import NoValidPathError, ToolkitError, ValidationError
from proctrack.evaluator import document_report, eval_document_level
from proctrack.synth import OracleConfig, make_corpus, synth_emissions
from proctrack.transitions import TransitionModel, estimate, load_model
from proctrack.tuner import TuneResult, _entity_paths, default_grid, parse_grid, tune


def _setup(n=12, noise=0.2, seed=4):
    procedures, grids = make_corpus(n, PROPARA, seed=seed)
    model = estimate(grids.values(), PROPARA)
    emissions = synth_emissions(
        procedures, grids, PROPARA,
        OracleConfig(state_noise=noise, location_noise=noise, seed=seed + 1),
    )
    return procedures, grids, model, emissions


def _objective(procedures, grids, emissions, model, config):
    pred_grids = {}
    for procedure in procedures:
        entries = {}
        for entity in procedure.entities:
            track = emissions[procedure.id].tracks[entity.id]
            states = decode_entity(procedure, entity, track, model, config)
            entries[entity.id] = resolve(
                states, track.location_preds, PROPARA
            ).track()
        pred_grids[procedure.id] = AnnotationGrid(
            procedure_id=procedure.id, entries=entries
        )
    return eval_document_level(grids, pred_grids).macro_f1


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 15
    assert grid[0] == 0.1
    assert grid[-1] == 1.5
    assert 0.6 in grid and 0.7 in grid and 1.0 in grid


def _decimal(units, places):
    """`units` * 10**-15 written with `places` decimals (it must fit)."""
    whole, fraction = divmod(units // 10 ** (15 - places), 10 ** places)
    return f"{whole}.{fraction:0{places}d}"


@settings(max_examples=300, deadline=None)
@given(start_places=st.integers(1, 15), step_places=st.integers(1, 15),
       start=st.integers(0, 10 ** 16), step=st.integers(1, 10 ** 16),
       steps=st.integers(0, 49), data=st.data())
def test_parse_grid_steps_exactly_then_rounds_to_floats(start_places, step_places, start,
                                                        step, steps, data):
    """A grid's values are the exact decimals start + i*step up to stop, each
    rounded to the nearest float once; start and step have up to 15 decimal
    places, stop is any decimal short of the next step."""
    start -= start % 10 ** (15 - start_places)
    step -= step % 10 ** (15 - step_places)
    if step == 0:
        step = 10 ** (15 - step_places)
    stop = start + steps * step + data.draw(st.integers(0, step - 1), label="past the last")
    spec = f"{_decimal(start, start_places)}:{_decimal(stop, 15)}:{_decimal(step, step_places)}"
    unit = Fraction(1, 10 ** 15)
    assert parse_grid(spec) == tuple(float((start + i * step) * unit) for i in range(steps + 1))


def test_singleton_grid_reports_that_cell():
    procedures, grids, model, emissions = _setup()
    result = tune(procedures, grids, emissions, model, PROPARA, grid=(0.7,))
    assert (result.tau_exp, result.tau_imp) == (0.7, 0.7)
    assert [(te, ti) for te, ti, _ in result.table] == [(0.7, 0.7)]


def test_reported_f1_is_reproducible_from_the_cell():
    procedures, grids, model, emissions = _setup()
    result = tune(
        procedures, grids, emissions, model, PROPARA, grid=(0.5, 0.8, 1.1)
    )
    replay = _objective(
        procedures, grids, emissions, model,
        DecodeConfig(result.tau_exp, result.tau_imp),
    )
    assert replay == result.f1
    cells = {(te, ti): f1 for te, ti, f1 in result.table}
    assert cells[(result.tau_exp, result.tau_imp)] == result.f1


def test_best_cell_dominates_table():
    procedures, grids, model, emissions = _setup()
    result = tune(procedures, grids, emissions, model, PROPARA, grid=(0.4, 0.9, 1.3))
    assert len(result.table) == 9
    assert all(result.f1 >= f1 for _, _, f1 in result.table)


def test_ties_prefer_smaller_taus():
    procedures, grids, model, emissions = _setup(noise=0.0)
    result = tune(procedures, grids, emissions, model, PROPARA, grid=(0.5, 1.0))
    assert result.f1 == 1.0
    assert (result.tau_exp, result.tau_imp) == (0.5, 0.5)


@pytest.mark.parametrize("relax", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tune_matches_per_cell_reference(seed, relax):
    """Tuning by distinct decodes equals the per-cell loop, table floats
    included, over the default grid. One gold entity has no emissions and
    one gold procedure none at all. Relaxed runs scale the logits by 3e4,
    far past the model's scores."""
    procedures, grids, model, emissions = _setup(n=4, seed=seed)
    first, last = procedures[0].id, procedures[-1].id
    del emissions[first].tracks[next(iter(emissions[first].tracks))]
    del emissions[last]
    if relax:
        for eset in emissions.values():
            for track in eset.tracks.values():
                track.state_logits = track.state_logits * 3e4
    expected = reference_tune(procedures, grids, emissions, model, PROPARA, relax=relax)
    result = tune(procedures, grids, emissions, model, PROPARA, relax=relax)
    assert len(result.table) == len(default_grid()) ** 2
    assert result == expected


def _force_mentions(procedure, modes):
    """`procedure` with each entity whose mode is "all" mentioned in every
    step, and each one whose mode is "none" in no step; "text" keeps it."""
    steps, entities = list(procedure.steps), []
    for k, (entity, mode) in enumerate(zip(procedure.entities, modes)):
        if mode == "text":
            entities.append(entity)
            continue
        alias = f"zqmark{k}"
        entities.append(Entity.from_raw(entity.id, alias))
        if mode == "all":
            steps = [f"{step} {alias}" for step in steps]
    return dataclasses.replace(procedure, steps=tuple(steps), entities=tuple(entities))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    values=st.lists(st.integers(1, 300), min_size=1, max_size=20, unique=True),
    integer=st.booleans(),
    relax=st.booleans(),
    data=st.data(),
)
def test_tune_matches_reference_on_random_grids(seed, values, integer, relax, data):
    """The region search equals the per-cell loop on grids of 1 to 20
    unevenly spaced values. Integer logits make paths tie exactly; forced
    mention flags give entities a 1-D grid; relaxed runs scale the logits
    by 3e4 and may veto every start, so that every decode is relaxed."""
    procedures, grids, model, emissions = _setup(n=2, seed=seed)
    procedures = [_force_mentions(procedure, data.draw(st.lists(
        st.sampled_from(["text", "all", "none"]), min_size=len(procedure.entities),
        max_size=len(procedure.entities)), label="mentions")) for procedure in procedures]
    for eset in emissions.values():
        for track in eset.tracks.values():
            if integer:
                track.state_logits = np.round(track.state_logits)
            if relax:
                track.state_logits = track.state_logits * 3e4
    if relax and data.draw(st.booleans(), label="veto every start"):
        model = TransitionModel(vocabulary=model.vocabulary,
                                start_scores=np.full(PROPARA.size, -np.inf),
                                trans_scores=model.trans_scores)
    grid = [k / 100 for k in values]
    expected = reference_tune(procedures, grids, emissions, model, PROPARA,
                              grid=grid, relax=relax)
    assert tune(procedures, grids, emissions, model, PROPARA, grid=grid,
                relax=relax) == expected


def _procedure_mentioning(flags):
    """A procedure with one entity, "e", mentioned in the steps flagged True."""
    return Procedure("p", tuple("water flows" if flag else "sand sits" for flag in flags),
                     (Entity.from_raw("e", "water"),))


@settings(max_examples=200, deadline=None)
@given(
    flags=st.lists(st.booleans(), min_size=1, max_size=6),
    values=st.lists(st.integers(1, 300), min_size=1, max_size=20, unique=True),
    divisor=st.sampled_from([1.0, 3.0, 7.0, 11.0]),
    relax=st.booleans(),
    data=st.data(),
)
def test_entity_paths_equal_a_decode_of_every_cell(flags, values, divisor, relax, data):
    """Each cell gets the path a decode of that cell returns, also where the
    region search fills instead of decoding; the tune table alone cannot
    show a wrong path that scores the same F1. Small integer scores, divided
    by 3, 7 or 11 so that sums round, make many paths tie or nearly tie, and
    rounding picks their winner cell by cell."""
    size = PROPARA.size
    scores = st.sampled_from([-np.inf]) | st.integers(-2, 2).map(float)
    model = TransitionModel(
        vocabulary=PROPARA,
        start_scores=np.array(data.draw(st.lists(scores, min_size=size, max_size=size))),
        trans_scores=np.array(data.draw(st.lists(
            scores, min_size=size * size, max_size=size * size))).reshape(size, size) / divisor)
    logits = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=len(flags) * size,
                                         max_size=len(flags) * size)), dtype=float)
    track = EmissionTrack(logits.reshape(len(flags), size) / divisor, ("?",) * (len(flags) + 1))
    procedure = _procedure_mentioning(flags)
    grid = sorted(k / 100 for k in values)

    def decode(tau_exp, tau_imp):
        weighted = weight_emissions(track.state_logits, flags, DecodeConfig(tau_exp, tau_imp))
        return tuple(viterbi(weighted, model, relax=relax)[0])

    try:
        resolved, column = _entity_paths(procedure, "e", track, grid, model, PROPARA, relax)
    except NoValidPathError:
        with pytest.raises(NoValidPathError):
            decode(grid[0], grid[0])
        return
    assert isinstance(column, np.ndarray) and column.dtype.kind == "i"
    assert column.shape == (len(grid) ** 2,)
    for (tau_exp, tau_imp), c in zip(itertools.product(grid, repeat=2), column):
        assert resolved[c].states == decode(tau_exp, tau_imp)


_VETO = -np.inf


@pytest.mark.parametrize("grid, start, trans, logits, tie, states", [
    ([0.03, 0.25, 0.68, 1.21, 1.35, 2.52],
     [-1, 1, _VETO, _VETO, _VETO, -2],
     [[2, 0, _VETO, 2, 0, _VETO], [2, _VETO, 0, _VETO, 0, 2], [_VETO, 0, -2, _VETO, 2, -1],
      [_VETO, 1, _VETO, 1, 2, 1], [-1, 1, _VETO, _VETO, _VETO, _VETO], [_VETO, 1, 2, -1, _VETO, -2]],
     [[2, -2, 3, 0, 2, -2], [-1, -1, 1, 2, 2, -1], [-2, -1, 2, 1, 3, 1]],
     ((0.25, 0.25), 4.75), ["exist", "outside_after", "move"]),
    # A hull taken over grid indices, not taus, fills (0.64, 0.9) and the
    # tie at (0.64, 0.96) with create, destroy, outside_before.
    ([0.22, 0.59, 0.64, 0.9, 0.96, 2.02, 2.17],
     [0, 0, _VETO, _VETO, _VETO, -2],
     [[_VETO, _VETO, -1, 1, _VETO, 0], [-2, 2, 1, _VETO, 0, _VETO], [2, -2, 0, 0, _VETO, _VETO],
      [-1, 1, _VETO, 1, 1, _VETO], [2, _VETO, 2, _VETO, -1, 1], [_VETO, 1, _VETO, -2, -2, 2]],
     [[-3, 3, 2, -3, -3, -3], [0, -1, 0, 3, 1, -1], [-3, -1, -3, 0, 2, 0]],
     ((0.64, 0.96), 4.88), ["exist", "exist", "outside_before"]),
])
def test_entity_paths_equal_a_decode_on_uneven_grids(grid, start, trans, logits, tie, states):
    """The hull of a group of cells is taken at their exact taus: on an
    uneven grid, a cell inside the hull of grid indices can lie outside the
    hull of taus, where another path wins or ties. `tie` is a cell where
    two paths score the same, and `states` the path its decode returns."""
    flags = (True, False, False)
    model = TransitionModel(vocabulary=PROPARA, start_scores=start, trans_scores=trans)
    track = EmissionTrack(logits, ("?",) * (len(flags) + 1))
    procedure = _procedure_mentioning(flags)

    def decode(tau_exp, tau_imp):
        weighted = weight_emissions(track.state_logits, flags, DecodeConfig(tau_exp, tau_imp))
        return viterbi(weighted, model, runner_up=True)

    tie_cell, tie_score = tie
    assert decode(*tie_cell) == (states, tie_score, tie_score)
    resolved, column = _entity_paths(procedure, "e", track, grid, model, PROPARA, False)
    for cell, c in zip(itertools.product(grid, repeat=2), column):
        assert resolved[c].states == tuple(decode(*cell)[0])


def test_a_relaxed_group_is_not_filled_without_a_margin_at_each_vertex():
    """Every hull vertex of a group can return its path while the group
    still holds a cell where another path wins: here (0.75, 0.75), where
    the decode returns exist, exist, move, exist. A vertex that returns the
    path by less than 4*B does not let the group be filled."""
    flags = (True, True, False, False)
    start = [_VETO, 2, -2, _VETO, _VETO, -2]
    trans = np.array([[-1, 1, 2, 0, _VETO, 1], [-1, 2, 2, 0, _VETO, -1],
                      [-2, 2, _VETO, 2, _VETO, 0], [_VETO, -1, 2, -1, 2, -1],
                      [_VETO, 0, _VETO, 2, _VETO, _VETO], [_VETO, -1, -1, -2, _VETO, 0]]) / 11
    logits = np.array([[1, 1, 3, 3, 2, -2], [1, -2, -1, 0, -3, -2], [-1, 2, 3, 2, 3, 3],
                       [2, 1, -3, 0, -1, -2]]) / 11
    model = TransitionModel(vocabulary=PROPARA, start_scores=start, trans_scores=trans)
    track = EmissionTrack(logits, ("?",) * (len(flags) + 1))
    grid = [0.29, 0.66, 0.75, 0.88, 2.19, 2.81]
    resolved, column = _entity_paths(_procedure_mentioning(flags), "e", track, grid, model,
                                     PROPARA, True)
    for cell, c in zip(itertools.product(grid, repeat=2), column):
        weighted = weight_emissions(logits, flags, DecodeConfig(*cell))
        assert resolved[c].states == tuple(viterbi(weighted, model, relax=True)[0])


# 300 taus from 0.01 to 1.46, each 1.68% above the last: no two steps alike.
_GEOMETRIC = tuple(0.01 * 1.0168 ** k for k in range(300))


@pytest.mark.parametrize("values, relax, procedures, jitter", [
    (parse_grid("0.005:1.5:0.005"), False, 10, True),
    (parse_grid("0.005:1.5:0.005"), True, 3, True),
    (parse_grid("0.005:1.5:0.005"), False, 10, False),
    (_GEOMETRIC, False, 10, True),
    (_GEOMETRIC, True, 3, True),
], ids=["False-10", "True-3", "exact-ties", "geometric", "geometric-relaxed"])
def test_entity_paths_equal_a_decode_at_sampled_cells_of_a_fine_grid(values, relax, procedures,
                                                                       jitter):
    """At 90,000 cells the region search fills most cells without decoding
    them. 200 cells per entity, drawn with a fixed seed, each get the track
    that resolving a direct decode of the cell gives, strict and on a model
    that vetoes every start. Unjittered logits keep their exact ties, and
    on a geometric grid the hull of grid indices is not the hull of taus.
    CI runs the same audit at 10^6 cells."""
    assert tune_certificate_mismatches(values, relax, procedures, jitter=jitter) == []


def _counting_decodes(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return viterbi(*args, **kwargs)

    monkeypatch.setattr(tuner, "viterbi", counted)
    return calls


@pytest.mark.parametrize("size", [15, 60])
@pytest.mark.parametrize("flags, corners", [
    ((True, False, True), 4), ((True, True, True), 2), ((False, False, False), 2)])
def test_entity_with_one_path_is_decoded_at_its_corners_only(monkeypatch, size, flags,
                                                             corners):
    exist = PROPARA.index("exist")
    start, trans = np.full(PROPARA.size, -np.inf), np.full((PROPARA.size,) * 2, -np.inf)
    start[exist] = trans[exist, exist] = 0.0
    model = TransitionModel(vocabulary=PROPARA, start_scores=start, trans_scores=trans)
    track = EmissionTrack(np.random.default_rng(size).normal(size=(len(flags), PROPARA.size)),
                          ("?",) * (len(flags) + 1))
    procedure = _procedure_mentioning(flags)
    calls = _counting_decodes(monkeypatch)
    resolved, column = _entity_paths(procedure, "e", track, [k / 10 for k in range(1, size + 1)],
                                     model, PROPARA, False)
    assert len(calls) == corners
    assert len(resolved) == 1 and column.tolist() == [0] * size ** 2


def test_logits_near_1e300_fill_no_cell(monkeypatch):
    """Past 1e300 a partial sum could overflow, so `rounding_bound` is
    infinite and no margin exceeds 4*B: every cell is decoded, and each gets
    the path its decode returns."""
    flags = (True, False, True)
    logits = np.random.default_rng(3).integers(-3, 4, size=(len(flags), PROPARA.size)) * 3e299
    model = load_model(MODEL_PROPARA)
    grid = [k / 10 for k in range(1, 13)]
    assert tuner.rounding_bound(logits, grid[-1], model) == np.inf
    track = EmissionTrack(logits, ("?",) * (len(flags) + 1))
    calls = _counting_decodes(monkeypatch)
    resolved, column = _entity_paths(_procedure_mentioning(flags), "e", track, grid, model,
                                     PROPARA, False)
    assert len(calls) == len(grid) ** 2 and len(resolved) > 1
    for cell, c in zip(itertools.product(grid, repeat=2), column):
        weighted = weight_emissions(logits, flags, DecodeConfig(*cell))
        assert resolved[c].states == tuple(viterbi(weighted, model)[0])


def test_entity_paths_equal_a_per_cell_loop_or_raise_its_first_error():
    """`_entity_paths` gives each cell the path a decode of it returns, or
    raises the error that a loop over the cells in grid order raises first,
    naming that cell, and lets no numpy warning escape. 400 small entities
    on uneven grids, strict and relaxed: logits near 1e308 make
    `rounding_bound` infinite and overflow at some taus but not at others,
    and a model that vetoes every start fails every strict decode."""
    rng = np.random.default_rng(11)
    size = PROPARA.size

    def scores(count):
        drawn = rng.integers(-2, 3, count).astype(float)
        drawn[rng.random(count) < 0.3] = -np.inf
        return drawn

    def per_cell(flags, grid, track, model, relax):
        paths = []
        for tau_exp, tau_imp in itertools.product(grid, repeat=2):
            try:
                weighted = weight_emissions(track.state_logits, flags,
                                            DecodeConfig(tau_exp, tau_imp))
                paths.append(tuple(viterbi(weighted, model, relax=relax)[0]))
            except ToolkitError as exc:
                raise type(exc)(f"grid cell ({tau_exp}, {tau_imp}): procedure 'p', "
                                f"entity 'e': {exc}") from None
        return paths

    def tuned(flags, grid, track, model, relax):
        resolved, column = _entity_paths(_procedure_mentioning(flags), "e", track, grid, model,
                                         PROPARA, relax)
        return [resolved[c].states for c in column.tolist()]

    def outcome(run, *args):
        """The path per cell that `run` returns, or its error's type and message."""
        try:
            return run(*args)
        except ToolkitError as exc:
            return type(exc), str(exc)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(400):
            flags = rng.integers(0, 2, rng.integers(1, 5)).astype(bool).tolist()
            # Taus up to 0.3 or up to 3, so that a path's logits can sum past
            # a float where no weighted score does.
            values = rng.choice(np.arange(1, rng.choice([31, 301])), rng.integers(1, 7),
                                replace=False)
            grid = sorted(int(k) / 100 for k in values)
            start = np.full(size, -np.inf) if rng.random() < 0.5 else scores(size)
            model = TransitionModel(PROPARA, start, scores(size * size).reshape(size, size))
            scale = rng.choice([1.0, 3e299, 1e307, 5.6e307])
            track = EmissionTrack(rng.integers(-3, 4, (len(flags), size)) * scale,
                                  ("?",) * (len(flags) + 1))
            args = flags, grid, track, model, bool(rng.integers(2))
            assert outcome(tuned, *args) == outcome(per_cell, *args), args


def _all_tie_case():
    """(procedures, gold, emissions, model) where every path ties at every
    cell: equal model scores and zero logits."""
    model = TransitionModel(vocabulary=RECIPES, start_scores=np.zeros(RECIPES.size),
                            trans_scores=np.zeros((RECIPES.size,) * 2))
    procedure = _procedure_mentioning((True, False, True, False))
    track = EmissionTrack(np.zeros((4, RECIPES.size)), ("?",) * 5)
    gold = {"p": AnnotationGrid("p", {"e": resolve(["exist"] * 4, ["?"] * 5, RECIPES).track()})}
    return [procedure], gold, {"p": EmissionSet("p", {"e": track})}, model


def test_an_exact_tie_is_decoded_in_one_round(monkeypatch):
    """Every path ties at every cell, so no decode has a margin and no group
    can be filled. The round that finds this decodes the group's cells,
    instead of peeling one hull layer per round (49 hulls for this grid)."""
    procedures, gold, emissions, model = _all_tie_case()
    hull, hulls = tuner._hull, []

    def counted(*args):
        hulls.append(None)
        return hull(*args)

    monkeypatch.setattr(tuner, "_hull", counted)
    grid = [k / 10 for k in range(1, 31)]
    result = tune(procedures, gold, emissions, model, RECIPES, grid=grid)
    assert len(hulls) <= 2
    assert result == reference_tune(procedures, gold, emissions, model, RECIPES, grid=grid)


def test_decodes_grow_slower_than_the_grid(monkeypatch):
    """Decodes follow region boundaries: on the propara fixture, a 60-value
    grid costs under 3 times the decodes of the 15-value default grid
    (16 times the cells)."""
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    emissions = load_emissions(EMISSIONS_PROPARA, procedures, PROPARA)
    model = load_model(MODEL_PROPARA)
    calls = _counting_decodes(monkeypatch)
    tune(procedures, grids, emissions, model, PROPARA)
    coarse = len(calls)
    calls.clear()
    tune(procedures, grids, emissions, model, PROPARA, grid=[k / 40 for k in range(1, 61)])
    assert len(calls) < 3 * coarse


def test_each_distinct_count_row_is_scored_once(monkeypatch):
    """The table's macro F1 is built once per distinct row of question
    counts, not once per cell: the all-tie case has 900 cells and one row,
    and on the propara fixture no row is scored twice."""
    rows = []

    def counted(counts):
        rows.append(tuple(map(tuple, counts)))
        return document_report(counts)

    monkeypatch.setattr(tuner, "document_report", counted)
    procedures, gold, emissions, model = _all_tie_case()
    result = tune(procedures, gold, emissions, model, RECIPES,
                  grid=[k / 10 for k in range(1, 31)])
    assert len(result.table) == 900 and len(rows) == 1

    rows.clear()
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    emissions = load_emissions(EMISSIONS_PROPARA, procedures, PROPARA)
    result = tune(procedures, grids, emissions, load_model(MODEL_PROPARA), PROPARA)
    assert len(rows) == len(set(rows)) < len(result.table)


def test_a_procedure_with_many_entities_tunes_like_the_reference():
    """65 entities with two paths each: e0 along tau_exp, the other 64 along
    tau_imp. A code that folded all 65 without renumbering would need 2**65
    values, so it would wrap int64 and merge cells that e0 tells apart."""
    ids = [f"e{k}" for k in range(65)]
    procedure = Procedure("p", ("stir the flour", "bake the flour"),
                          tuple(Entity.from_raw(entity_id, "flour" if entity_id == "e0" else
                                                f"spice{entity_id}") for entity_id in ids))
    model = TransitionModel(vocabulary=RECIPES, start_scores=np.zeros(2),
                            trans_scores=np.array([[0.0, -1.0], [0.0, 0.0]]))
    tracks = {entity_id: EmissionTrack(np.array([[1.0, 0.0], [0.0, 1.0]]), ("?",) * 3)
              for entity_id in ids}
    gold = {"p": AnnotationGrid("p", {
        entity_id: resolve(["exist", "absence"], ["?"] * 3, RECIPES).track() for entity_id in ids})}
    inputs = ([procedure], gold, {"p": EmissionSet("p", tracks)}, model, RECIPES)
    assert tune(*inputs, grid=[0.5, 2.0]) == reference_tune(*inputs, grid=[0.5, 2.0])


def test_many_procedures_tune_like_the_reference():
    """65 two-step procedures of one entity with two paths each: the entity
    of half of them is mentioned in both steps, the rest in neither. The
    split's code must keep every earlier procedure's counts, and one folded
    without renumbering would need 2**65 values."""
    mentioned = ("stir the flour", "bake the flour")
    procedures = [Procedure(f"p{k}", mentioned if k % 2 else ("stir it", "bake it"),
                            (Entity.from_raw("e", "flour"),)) for k in range(65)]
    model = TransitionModel(vocabulary=RECIPES, start_scores=np.zeros(2),
                            trans_scores=np.array([[0.0, -1.0], [0.0, 0.0]]))
    track = EmissionTrack(np.array([[1.0, 0.0], [0.0, 1.0]]), ("?",) * 3)
    gold = {p.id: AnnotationGrid(p.id, {"e": resolve(["exist", "absence"], ["?"] * 3,
                                                     RECIPES).track()}) for p in procedures}
    emissions = {p.id: EmissionSet(p.id, {"e": track}) for p in procedures}
    inputs = (procedures, gold, emissions, model, RECIPES)
    assert tune(*inputs, grid=[0.5, 2.0]) == reference_tune(*inputs, grid=[0.5, 2.0])


def test_tune_scores_one_procedure_per_call(monkeypatch, tmp_path):
    """Every gold procedure is scored in calls of its own, also one without
    emissions or without a procedure in the corpus (an empty prediction),
    and the split's result is still that of the reference."""
    golds = []

    def recorded(gold, pred):
        golds.append(sorted(gold))
        return eval_document_level(gold, pred)

    monkeypatch.setattr(tuner, "eval_document_level", recorded)
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    model = load_model(MODEL_PROPARA)
    lines = EMISSIONS_PROPARA.read_text().splitlines()
    without = tmp_path / "emissions.jsonl"
    without.write_text("".join(line + "\n" for line in lines
                               if json.loads(line)["procedure_id"] != "propara-0004"))
    emissions = load_emissions(EMISSIONS_PROPARA, procedures, PROPARA)
    for corpus, emitted in ((procedures, emissions), (procedures[1:], emissions),
                            (procedures, load_emissions(without, procedures, PROPARA))):
        golds.clear()
        result = tune(corpus, grids, emitted, model, PROPARA, grid=[0.5, 1.0])
        assert all(len(gold) == 1 for gold in golds), golds
        assert {pid for [pid] in golds} == set(grids)
        assert result == reference_tune(corpus, grids, emitted, model, PROPARA, grid=[0.5, 1.0])


@pytest.mark.parametrize("kind", [float, Decimal, Fraction, np.float32])
def test_a_grid_of_any_real_type_tunes_as_floats(kind):
    # Every value is a float exactly, so each type names the same cells, and
    # the result holds the floats the grid check produced.
    procedures, grids, model, emissions = _setup(n=2)
    values = (0.25, 0.5, 1.25)
    grid = [kind(str(v)) if kind is Decimal else kind(v) for v in values]
    as_floats = tune(procedures, grids, emissions, model, PROPARA, grid=values)
    result = tune(procedures, grids, emissions, model, PROPARA, grid=grid)
    assert [f1 for _, _, f1 in result.table] == [f1 for _, _, f1 in as_floats.table]
    assert result == as_floats
    assert all(type(tau) is float for row in result.table for tau in row[:2])
    assert type(result.tau_exp) is type(result.tau_imp) is float


def test_a_decimal_and_fraction_grid_writes_as_json_and_equal_floats_are_one_cell():
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    inputs = (procedures, grids, load_emissions(EMISSIONS_PROPARA, procedures, PROPARA),
              load_model(MODEL_PROPARA), PROPARA)
    result = tune(*inputs, grid=[Decimal("0.5"), Fraction(3, 4)])
    taus = [result.tau_exp, result.tau_imp] + [tau for row in result.table for tau in row[:2]]
    assert all(type(tau) is float for tau in taus) and len(result.table) == 4
    assert json.loads(write_json(None, dataclasses.asdict(result)))["table"][-1][:2] == [0.75] * 2
    one = tune(*inputs, grid=[Decimal("0.1"), 0.1])
    assert one.table == tune(*inputs, grid=[0.1]).table
    assert [row[:2] for row in one.table] == [(0.1, 0.1)]


def test_a_path_score_that_overflows_names_its_cell():
    # Every logit of the fixtures' first track (hydropower's water, six
    # steps) set to 1e308: at tau 0.1 a path sums to 6e307, at 0.5 to +inf.
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    emissions = load_emissions(EMISSIONS_PROPARA, procedures, PROPARA)
    emissions["hydropower"].tracks["water"].state_logits[:] = 1e308
    model = load_model(MODEL_PROPARA)
    tune(procedures, grids, emissions, model, PROPARA, grid=[0.1])
    with pytest.raises(ValidationError, match=re.escape(
            "grid cell (0.5, 0.5): procedure 'hydropower', entity 'water': "
            "the best path's score overflows a float")):
        tune(procedures, grids, emissions, model, PROPARA, grid=[0.5])


def test_grid_validation():
    procedures, grids, model, emissions = _setup(n=2)
    with pytest.raises(ValidationError):
        tune(procedures, grids, emissions, model, PROPARA, grid=())
    with pytest.raises(ValidationError):
        tune(procedures, grids, emissions, model, PROPARA, grid=(0.0, 0.5))
    for grid in ([0.5, float("inf")], ["a"], [0.5, 10 ** 400], [Decimal("sNaN")],
                 [Decimal("1e400")], [True], [0.5, np.bool_(True)]):
        with pytest.raises(ValidationError, match="must be finite and positive"):
            tune(procedures, grids, emissions, model, PROPARA, grid=grid)
