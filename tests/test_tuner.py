"""Grid search over emission weights."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_tune

from proctrack.corpus import PROPARA
from proctrack.consistency import resolve
from proctrack.corpus import AnnotationGrid, Entity, Procedure
from proctrack.decoder import (DecodeConfig, EmissionTrack, decode_entity, viterbi,
                               weight_emissions)
from proctrack.errors import NoValidPathError, ValidationError
from proctrack.evaluator import eval_document_level
from proctrack.synth import OracleConfig, make_corpus, synth_emissions
from proctrack.transitions import TransitionModel, estimate
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
    one gold procedure none at all. Relaxed runs scale the logits so that a
    vetoed edge can outscore the relax penalty."""
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
    procedure = Procedure("p", tuple("water flows" if flag else "sand sits" for flag in flags),
                          (Entity.from_raw("e", "water"),))
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


def test_grid_validation():
    procedures, grids, model, emissions = _setup(n=2)
    with pytest.raises(ValidationError):
        tune(procedures, grids, emissions, model, PROPARA, grid=())
    with pytest.raises(ValidationError):
        tune(procedures, grids, emissions, model, PROPARA, grid=(0.0, 0.5))
