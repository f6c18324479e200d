"""Grid search over emission weights."""

import pytest

from helpers import reference_tune

from proctrack.corpus import PROPARA
from proctrack.consistency import resolve
from proctrack.corpus import AnnotationGrid
from proctrack.decoder import DecodeConfig, decode_entity
from proctrack.errors import ValidationError
from proctrack.evaluator import eval_document_level
from proctrack.synth import OracleConfig, make_corpus, synth_emissions
from proctrack.transitions import estimate
from proctrack.tuner import TuneResult, default_grid, tune


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


def test_grid_validation():
    procedures, grids, model, emissions = _setup(n=2)
    with pytest.raises(ValidationError):
        tune(procedures, grids, emissions, model, PROPARA, grid=())
    with pytest.raises(ValidationError):
        tune(procedures, grids, emissions, model, PROPARA, grid=(0.0, 0.5))
