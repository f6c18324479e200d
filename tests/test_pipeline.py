"""End-to-end decode/repair/score runs and their serialized reports."""

import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from helpers import CORPUS_PROPARA, EMISSIONS_PROPARA, FIXTURES, GOLDEN_DIR, MODEL_PROPARA
from proctrack import pipeline
from proctrack.cli import EXIT_OK, main
from proctrack.corpus import (
    PROPARA,
    RECIPES,
    get_vocabulary,
    grid_violations,
    load_corpus,
    load_predictions,
)
from proctrack.decoder import DecodeConfig, decode_entity, load_emissions
from proctrack.errors import ValidationError
from proctrack.pipeline import report_dict, run_pipeline, write_outputs
from proctrack.synth import OracleConfig, make_corpus, synth_emissions
from proctrack.transitions import estimate, load_model


def _fixture_inputs(vocab="propara"):
    vocabulary = get_vocabulary(vocab)
    procedures, grids = load_corpus(FIXTURES / f"corpus_{vocab}.jsonl", vocabulary)
    model = load_model(FIXTURES / f"model_{vocab}.json")
    emissions = load_emissions(FIXTURES / f"emissions_{vocab}.jsonl", procedures, vocabulary)
    return procedures, grids, model, emissions


def test_taus_that_overflow_the_weighted_logits_raise_validation_error():
    procedures, grids, model, emissions = _fixture_inputs()
    config = DecodeConfig(1e308, 1e308)
    with pytest.raises(ValidationError, match="emissions must all be finite"):
        run_pipeline(procedures, grids, emissions, model, PROPARA, config)
    procedure = procedures[0]
    entity_id, track = next(iter(emissions[procedure.id].tracks.items()))
    with pytest.raises(ValidationError, match="emissions must all be finite"):
        decode_entity(procedure, procedure.entity(entity_id), track, model, config)


def test_noiseless_run_is_perfect():
    procedures, grids = make_corpus(8, PROPARA, seed=30)
    model = estimate(grids.values(), PROPARA)
    emissions = synth_emissions(procedures, grids, PROPARA, OracleConfig(seed=1))
    result = run_pipeline(procedures, grids, emissions, model, PROPARA)
    assert result.document.macro_f1 == 1.0
    assert result.sentence.macro == 1.0
    assert result.split_decoded.explicit.accuracy == 1.0
    assert result.split_decoded.implicit.accuracy == 1.0
    assert result.missing == []


def test_predictions_always_satisfy_grid_rules():
    procedures, grids, model, emissions = _fixture_inputs()
    result = run_pipeline(procedures, grids, emissions, model, PROPARA)
    for proc_id, grid in result.pred_grids.items():
        assert grid_violations(grid, PROPARA) == []


def test_recipes_run_reports_location_changes():
    procedures, grids = make_corpus(6, RECIPES, seed=12)
    model = estimate(grids.values(), RECIPES)
    emissions = synth_emissions(procedures, grids, RECIPES, OracleConfig(seed=2))
    result = run_pipeline(procedures, grids, emissions, model, RECIPES)
    assert result.recipes_location is not None
    assert result.recipes_location.f1 == 1.0


def test_missing_emissions_cost_recall_but_never_crash():
    procedures, grids, model, emissions = _fixture_inputs()
    victim = procedures[0]
    victim_entity = next(iter(emissions[victim.id].tracks))
    del emissions[victim.id].tracks[victim_entity]
    result = run_pipeline(procedures, grids, emissions, model, PROPARA)
    assert (victim.id, victim_entity) in result.missing
    assert victim_entity not in result.pred_grids[victim.id].entries
    payload = report_dict(result)
    assert payload["coverage"]["missing_emissions"] == 1
    # The mention split covers exactly the decoded entities.
    decoded_steps = sum(track.num_steps for grid in result.pred_grids.values()
                        for track in grid.entries.values())
    for split in (result.split_argmax, result.split_decoded):
        assert split.explicit.n_steps + split.implicit.n_steps == decoded_steps


def test_a_run_without_emissions_decodes_nothing():
    procedures, grids, model, _ = _fixture_inputs()
    payload = report_dict(run_pipeline(procedures, grids, {}, model, PROPARA))
    assert payload["coverage"] == {
        "decoded_entities": 0,
        "missing_emissions": sum(len(grid.entries) for grid in grids.values())}
    for report in payload["split_accuracy"].values():
        for bucket in report.values():
            assert bucket == {"accuracy": None, "correct": 0, "steps": 0}


def test_jobs_flag_leaves_outputs_unchanged(tmp_path):
    # `pipeline --jobs` is still parsed and runs in one process at any value.
    outputs = {}
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main([
            "pipeline", "--corpus", str(CORPUS_PROPARA), "--vocab", "propara",
            "--emissions", str(EMISSIONS_PROPARA), "--model", str(MODEL_PROPARA),
            "--jobs", jobs, "--out", str(out),
        ]) == EXIT_OK
        outputs[jobs] = [(out / name).read_bytes()
                         for name in ("predictions.jsonl", "report.json", "report.txt")]
    assert outputs["1"] == outputs["2"]


def test_repeat_runs_are_byte_identical(tmp_path):
    procedures, grids, model, emissions = _fixture_inputs()
    for name in ("a", "b"):
        result = run_pipeline(
            procedures, grids, emissions, model, PROPARA,
            DecodeConfig(0.6, 0.7), seed=0,
        )
        write_outputs(result, procedures, tmp_path / name)
    for filename in ("predictions.jsonl", "report.json", "report.txt"):
        assert (tmp_path / "a" / filename).read_bytes() == (
            tmp_path / "b" / filename
        ).read_bytes()


@pytest.mark.parametrize("taus", [(Decimal("0.6"), Fraction(7, 10)), (np.float32(0.6), 0.7)],
                         ids=["Decimal-Fraction", "float32"])
def test_taus_of_any_real_type_write_the_outputs_of_their_floats(tmp_path, taus):
    procedures, grids, model, emissions = _fixture_inputs()
    for name, config in (("real", DecodeConfig(*taus)),
                         ("float", DecodeConfig(*map(float, taus)))):
        result = run_pipeline(procedures, grids, emissions, model, PROPARA, config, seed=0)
        write_outputs(result, procedures, tmp_path / name)
    for filename in ("predictions.jsonl", "report.json", "report.txt"):
        assert (tmp_path / "real" / filename).read_bytes() == (
            tmp_path / "float" / filename).read_bytes(), filename


GOLDEN_RUNS = {
    "propara": (GOLDEN_DIR, {}),
    # `pipeline --relax --per-procedure --seed 0` on the recipes fixtures: it
    # covers report.txt's location-changes block and per_procedure staying
    # the last block of report.json.
    "recipes": (FIXTURES / "golden_recipes", {"relax": True, "per_procedure": True}),
}


@pytest.mark.parametrize("vocab", GOLDEN_RUNS)
def test_outputs_match_checked_in_golden_run(tmp_path, vocab):
    golden_dir, options = GOLDEN_RUNS[vocab]
    procedures, grids, model, emissions = _fixture_inputs(vocab)
    result = run_pipeline(
        procedures, grids, emissions, model, get_vocabulary(vocab),
        DecodeConfig(0.6, 0.7), seed=0, **options,
    )
    write_outputs(result, procedures, tmp_path)
    for filename in ("predictions.jsonl", "report.json", "report.txt"):
        assert (tmp_path / filename).read_bytes() == (
            golden_dir / filename
        ).read_bytes(), filename


def test_failed_render_leaves_report_txt_untouched(tmp_path, monkeypatch):
    """Every report is made before any file is written, and report.txt is
    replaced whole: a render that raises leaves the old file's bytes."""
    procedures, grids, model, emissions = _fixture_inputs()
    result = run_pipeline(procedures, grids, emissions, model, PROPARA)
    write_outputs(result, procedures, tmp_path)
    before = (tmp_path / "report.txt").read_bytes()

    def broken(report):
        raise RuntimeError("render failed")

    monkeypatch.setattr(pipeline, "render_report", broken)
    with pytest.raises(RuntimeError, match="render failed"):
        write_outputs(result, procedures, tmp_path)
    assert (tmp_path / "report.txt").read_bytes() == before


def test_written_predictions_reload_cleanly(tmp_path):
    procedures, grids, model, emissions = _fixture_inputs()
    result = run_pipeline(procedures, grids, emissions, model, PROPARA)
    write_outputs(result, procedures, tmp_path)
    pred_grids, violations = load_predictions(
        tmp_path / "predictions.jsonl", procedures, PROPARA
    )
    assert violations == []
    assert set(pred_grids) == set(result.pred_grids)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["vocabulary"] == "propara"
    assert report["document_level"]["macro"]["f1"] == result.document.macro_f1
