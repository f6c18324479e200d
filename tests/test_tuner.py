"""Grid search over emission weights."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import CORPUS_PROPARA, EMISSIONS_PROPARA, MODEL_PROPARA, reference_tune

from proctrack import tuner
from proctrack.corpus import PROPARA
from proctrack.consistency import resolve
from proctrack.corpus import AnnotationGrid, Entity, Procedure, load_corpus
from proctrack.decoder import (DecodeConfig, EmissionTrack, decode_entity, load_emissions,
                               viterbi, weight_emissions)
from proctrack.errors import NoValidPathError, ValidationError
from proctrack.evaluator import eval_document_level
from proctrack.synth import OracleConfig, make_corpus, synth_emissions
from proctrack.transitions import TransitionModel, estimate, load_model
from proctrack.tuner import TuneResult, _entity_paths, default_grid, tune


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
    divisor=st.sampled_from([1.0, 3.0, 7.0]),
    relax=st.booleans(),
    data=st.data(),
)
def test_entity_paths_equal_a_decode_of_every_cell(flags, values, divisor, relax, data):
    """Each cell gets the path a decode of that cell returns, also where the
    region search fills instead of decoding; the tune table alone cannot
    show a wrong path that scores the same F1. Small integer scores, divided
    by 3 or 7 so that sums round, make many paths tie or nearly tie, and
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
    assert len(column) == len(grid) ** 2
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
    assert len(resolved) == 1 and column == [0] * size ** 2


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


def test_grid_validation():
    procedures, grids, model, emissions = _setup(n=2)
    with pytest.raises(ValidationError):
        tune(procedures, grids, emissions, model, PROPARA, grid=())
    with pytest.raises(ValidationError):
        tune(procedures, grids, emissions, model, PROPARA, grid=(0.0, 0.5))
