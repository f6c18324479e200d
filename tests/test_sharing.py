"""A run holds each closed-set string once: the loaders and `resolve` hand
back the vocabulary's own label objects, one string object per distinct
location prediction, and the corpus's own id objects. Identity is checked
with `is`, not by measuring memory."""

import json

import pytest

from helpers import CORPUS_PROPARA, EMISSIONS_PROPARA, MODEL_PROPARA
from proctrack.cli import EXIT_OK, EXIT_VALIDATION, main
from proctrack.consistency import resolve
from proctrack.corpus import PROPARA, ValidationError, load_corpus, load_predictions
from proctrack.decoder import load_emissions, viterbi
from proctrack.transitions import load_model

OWN_LABELS = {id(label) for label in PROPARA.labels}


def _fresh(text):
    """An equal string that is a new object, as JSON decoding makes one."""
    copy = json.loads(json.dumps(text))
    assert copy == text and copy is not text
    return copy


def _tracks(grids):
    return [track for grid in grids.values() for track in grid.entries.values()]


def test_gold_and_prediction_states_are_the_vocabularys_labels():
    procedures, gold = load_corpus(CORPUS_PROPARA, PROPARA)
    # A corpus file is also a valid prediction file.
    predicted, _ = load_predictions(CORPUS_PROPARA, procedures, PROPARA)
    for grids in (gold, predicted):
        states = [s for track in _tracks(grids) for s in track.states]
        assert len(states) > len(OWN_LABELS)
        assert {id(s) for s in states} <= OWN_LABELS


def test_model_and_viterbi_labels_are_the_vocabularys_labels():
    model = load_model(MODEL_PROPARA)
    assert all(a is b for a, b in zip(model.vocabulary.labels, PROPARA.labels, strict=True))
    procedures, _ = load_corpus(CORPUS_PROPARA, PROPARA)
    emissions = load_emissions(EMISSIONS_PROPARA, procedures, PROPARA)
    for eset in emissions.values():
        for track in eset.tracks.values():
            labels, _ = viterbi(track.state_logits, model)
            assert {id(s) for s in labels} <= OWN_LABELS


def test_resolve_returns_the_vocabularys_labels():
    states = [_fresh(s) for s in ("outside_before", "create", "exist", "move", "destroy")]
    resolved = resolve(states, ["none", "soil", "soil", "air", "air", "none"], PROPARA)
    assert resolved.states == tuple(states)
    assert {id(s) for s in resolved.states} <= OWN_LABELS


def test_canonical_names_the_first_unknown_label():
    assert PROPARA.canonical([]) == ()
    with pytest.raises(ValidationError, match="^label 'fly' not in vocabulary 'propara'$"):
        PROPARA.canonical(["exist", "fly", "swim"])


def test_emissions_share_location_strings_and_the_corpus_ids():
    procedures, _ = load_corpus(CORPUS_PROPARA, PROPARA)
    by_id = {p.id: p for p in procedures}
    emissions = load_emissions(EMISSIONS_PROPARA, procedures, PROPARA)
    preds = [p for eset in emissions.values() for track in eset.tracks.values()
             for p in track.location_preds]
    assert len(preds) > len(set(preds))
    first = {}
    assert all(first.setdefault(p, p) is p for p in preds)
    for proc_id, eset in emissions.items():
        procedure = by_id[proc_id]
        assert proc_id is procedure.id and eset.procedure_id is procedure.id
        own_ids = {id(e.id) for e in procedure.entities}
        assert {id(entity_id) for entity_id in eset.tracks} <= own_ids


def _replace_state(path, target, edit):
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    edit(record)["states"][1] = "fly"
    lines[1] = json.dumps(record)
    target.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("source", ["gold", "prediction", "decoded"])
def test_an_unknown_label_names_its_line(tmp_path, capsys, source):
    corpus_args = ["--corpus", str(CORPUS_PROPARA), "--vocab", "propara"]
    bad = tmp_path / "bad.jsonl"
    if source == "decoded":
        decoded = tmp_path / "decoded.jsonl"
        assert main(["decode", *corpus_args, "--emissions", str(EMISSIONS_PROPARA),
                     "--model", str(MODEL_PROPARA), "--out", str(decoded)]) == EXIT_OK
        _replace_state(decoded, bad, lambda record: record)
        argv = ["resolve", *corpus_args, "--decoded", str(bad),
                "--emissions", str(EMISSIONS_PROPARA), "--out", str(tmp_path / "out.jsonl")]
        where = ""
    else:
        _replace_state(CORPUS_PROPARA, bad, lambda record: record["gold"]["pollen"])
        argv = (["stats", "--corpus", str(bad), "--vocab", "propara"] if source == "gold"
                else ["evaluate", *corpus_args, "--predictions", str(bad)])
        where = "entity 'pollen': "
    capsys.readouterr()
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: {bad}:2: {where}label 'fly' not in vocabulary 'propara'\n")
