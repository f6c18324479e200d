"""Corpus loading, location values, and gold-grid validation."""

import json
import os
import re
import stat
import threading

import pytest
from hypothesis import given, strategies as st

from helpers import CORPUS_PROPARA
from proctrack.corpus import (
    NO_LOCATION,
    PROPARA,
    RECIPES,
    SPAN,
    UNKNOWN_LOCATION,
    Entity,
    LocationValue,
    Procedure,
    Track,
    ValidationError,
    get_vocabulary,
    grid_violations,
    load_corpus,
    load_predictions,
    normalize_location,
    parse_prediction,
    save_corpus,
    split_stats,
    track_violations,
    write_json,
)
from proctrack.consistency import resolve
from proctrack.synth import make_corpus


def test_vocabulary_registry():
    assert get_vocabulary("propara") is PROPARA
    assert get_vocabulary("recipes") is RECIPES
    with pytest.raises(ValidationError):
        get_vocabulary("unknown-vocab")


def test_propara_vocabulary_shape():
    assert PROPARA.labels == (
        "create",
        "exist",
        "move",
        "destroy",
        "outside_before",
        "outside_after",
    )
    assert PROPARA.nonexistent_states == frozenset(
        {"outside_before", "outside_after"}
    )
    assert PROPARA.tracks_movement
    assert PROPARA.size == 6
    assert PROPARA.index("move") == 2


def test_recipes_vocabulary_shape():
    assert RECIPES.labels == ("exist", "absence")
    assert RECIPES.nonexistent_states == frozenset({"absence"})
    assert not RECIPES.tracks_movement


def test_location_token_round_trip():
    for token in ("-", "?", "power plant", "the soil"):
        value = LocationValue.from_token(token)
        assert value.token() == token


def test_location_matching_is_normalized():
    assert LocationValue.from_token("The  Soil.").matches(
        LocationValue.from_token("the soil")
    )
    assert not LocationValue.from_token("?").matches(
        LocationValue.from_token("soil")
    )
    assert LocationValue.from_token("?").matches(LocationValue.from_token("?"))
    assert not LocationValue.from_token("-").matches(LocationValue.from_token("?"))


def test_parse_prediction_aliases():
    assert parse_prediction("none").kind == "nonexistent"
    assert parse_prediction("-").kind == "nonexistent"
    assert parse_prediction("unknown").kind == "unknown"
    assert parse_prediction("?").kind == "unknown"
    assert parse_prediction("").kind == "unknown"
    span = parse_prediction("the  Dam.")
    assert span.kind == "span"


@given(st.text(max_size=40))
def test_normalization_idempotent(text):
    once = normalize_location(text)
    assert normalize_location(once) == once


@given(st.text(max_size=30))
def test_interned_values_equal_fresh_ones(text):
    # Parsed values are shared per distinct string; each must equal a freshly
    # constructed value and carry the same normalized key.
    if text.strip() and text not in ("-", "?"):
        token = LocationValue.from_token(text)
        assert token is LocationValue.from_token(text)
        assert token == LocationValue(SPAN, text)
        assert token.key == LocationValue(SPAN, text).key == (
            SPAN, normalize_location(text))
    prediction = parse_prediction(text)
    assert prediction is parse_prediction(text)
    trimmed = text.strip()
    if trimmed.lower() in ("none", "-"):
        assert prediction is NO_LOCATION
    elif trimmed.lower() in ("unknown", "?") or not trimmed:
        assert prediction is UNKNOWN_LOCATION
    else:
        assert prediction == LocationValue(SPAN, trimmed)
        assert prediction.key == (SPAN, normalize_location(trimmed))


@pytest.mark.parametrize("text", [" ", "\t\n", "   "])
def test_whitespace_span_raises_on_every_call(text):
    for _ in range(3):
        with pytest.raises(ValidationError):
            LocationValue.from_token(text)


def test_entity_aliases_split_on_semicolon():
    entity = Entity.from_raw("e0", "H2O; water ;steam")
    assert entity.aliases == ("H2O", "water", "steam")
    with pytest.raises(ValidationError):
        Entity.from_raw("e0", " ; ")


def test_track_length_contract():
    with pytest.raises(ValidationError):
        Track(
            states=("exist", "exist"),
            locations=tuple(LocationValue.from_token(t) for t in ("?", "?")),
        )


@pytest.mark.parametrize("states, locations", [
    (("exist",), None), (("exist",), ("?", "?")), (["exist"], (UNKNOWN_LOCATION,) * 2),
    ((1,), (UNKNOWN_LOCATION,) * 2), (("exist",), (UNKNOWN_LOCATION, None)),
    (("exist",), [UNKNOWN_LOCATION] * 2)])
def test_track_takes_a_tuple_of_labels_and_one_of_location_values(states, locations):
    with pytest.raises(ValidationError, match="tuple of labels and one of LocationValues"):
        Track(states, locations)


def test_fixture_corpus_is_consistent():
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    assert len(procedures) == 10
    assert sum(len(p.entities) for p in procedures) == 25
    for procedure in procedures:
        assert not grid_violations(grids[procedure.id], PROPARA)


# One track per rule of `track_violations` that breaks that rule alone, and
# the message `load_corpus` shows for it.
RULE_BREAKERS = {
    "start-nonexistent": (["outside_before"], ["soil", "-"],
                          "outside_before at step 1 requires slot 0 to be '-', got 'soil'"),
    "nonexistent-state-location": (["destroy"], ["soil", "soil"],
                                   "state 'destroy' at step 1 requires location '-', got 'soil'"),
    "create-clears-before": (["create"], ["soil", "soil"],
                             "create at step 1 requires slot 0 to be '-', got 'soil'"),
    "create-yields-location": (["create"], ["-", "-"],
                               "create at step 1 forbids location '-' at slot 1"),
    "exist-keeps-location": (["exist"], ["soil", "rock"],
                             "exist at step 1 requires slot 1 to repeat slot 0 ('soil'), "
                             "got 'rock'"),
    "move-needs-location": (["move"], ["soil", "-"],
                            "move at step 1 forbids location '-' at slot 1"),
    "move-requires-change": (["move"], ["soil", " Soil."],
                             "move at step 1 requires slot 1 to differ from slot 0, "
                             "got ' Soil.' after 'soil'"),
}


@pytest.mark.parametrize("rule", RULE_BREAKERS)
def test_each_gold_rule_fires_alone(rule):
    states, locations, message = RULE_BREAKERS[rule]
    track = Track(tuple(states), tuple(map(LocationValue.from_token, locations)))
    assert [(v.rule, v.message) for v in track_violations(track, PROPARA)] == [(rule, message)]


def test_unknown_to_unknown_move_is_legal():
    # resolve degrades a move that names no new place to "?", so a move from
    # "?" to "?" is one of its outputs and must stay legal gold.
    resolved = resolve(["exist", "move"], ["?", "?", "none"], PROPARA)
    assert [loc.token() for loc in resolved.locations] == ["?", "?", "?"]
    assert track_violations(resolved.track(), PROPARA) == []


def test_round_trip_preserves_corpus(tmp_path):
    procedures, grids = make_corpus(4, PROPARA, seed=5)
    path = tmp_path / "corpus.jsonl"
    save_corpus(procedures, grids, path)
    loaded_procedures, loaded_grids = load_corpus(path, PROPARA)
    assert loaded_procedures == procedures
    for procedure in procedures:
        assert loaded_grids[procedure.id].entries == grids[procedure.id].entries


def _with_escaped_step(tmp_path, escape):
    """The fixture corpus with `escape` written, as JSON text, before the
    first step of its first record."""
    lines = CORPUS_PROPARA.read_text().splitlines()
    assert '"steps": ["' in lines[0]
    lines[0] = lines[0].replace('"steps": ["', '"steps": ["' + escape, 1)
    path = tmp_path / "escaped.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("escape, text", [
    ("\\u00e9", "\u00e9"),
    ("\\ud83d\\ude00", "\U0001F600"),
    ("\\uD83D\\uDE00", "\U0001F600"),
])
def test_escaped_text_loads(tmp_path, escape, text):
    procedures, _ = load_corpus(_with_escaped_step(tmp_path, escape), PROPARA)
    assert procedures[0].steps[0].startswith(text + "Water flows")


@pytest.mark.parametrize("escape", ["\\ud800", "\\uDFFF", "\\ude00\\ud83d"])
def test_an_unpaired_surrogate_escape_is_bad_json(tmp_path, escape):
    path = _with_escaped_step(tmp_path, escape)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:1: bad JSON: "):
        load_corpus(path, PROPARA)


def test_load_rejects_slot_count_mismatch(tmp_path):
    record = {
        "id": "p0",
        "steps": ["Water falls.", "Water pools."],
        "entities": [{"id": "e0", "raw_name": "water"}],
        "gold": {
            "e0": {"states": ["move", "exist"], "locations": ["?", "lake"]}
        },
    }
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValidationError):
        load_corpus(path, PROPARA)


def test_load_rejects_inconsistent_gold(tmp_path):
    record = {
        "id": "p0",
        "steps": ["A seed grows."],
        "entities": [{"id": "e0", "raw_name": "seed"}],
        "gold": {"e0": {"states": ["create"], "locations": ["-", "-"]}},
    }
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValidationError):
        load_corpus(path, PROPARA)


def test_load_predictions_reports_instead_of_raising(tmp_path):
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    record = {
        "id": procedures[0].id,
        "steps": list(procedures[0].steps),
        "entities": [
            {"id": e.id, "raw_name": e.raw_name} for e in procedures[0].entities
        ],
        "gold": {
            e.id: {
                "states": ["exist"] * len(procedures[0].steps),
                "locations": ["-"] * (len(procedures[0].steps) + 1),
            }
            for e in procedures[0].entities
        },
    }
    path = tmp_path / "pred.jsonl"
    path.write_text(json.dumps(record) + "\n")
    pred_grids, violations = load_predictions(path, [procedures[0]], PROPARA)
    assert procedures[0].id in pred_grids
    assert not violations


def test_split_stats_single_procedure():
    procedure = Procedure(
        id="p0",
        steps=tuple(f"Step {i}." for i in range(6)),
        entities=(Entity.from_raw("e0", "water"),),
    )
    stats = split_stats([procedure])
    assert stats.procedures == 1
    assert stats.avg_steps == pytest.approx(6.0)
    assert stats.avg_entities == pytest.approx(1.0)


def test_writer_writes_a_fifo_in_place(tmp_path):
    # A target that is not a regular file, such as /dev/stdout, is written
    # as it is, not replaced by a regular file.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    write_json(fifo, {"a": 1})
    reader.join(timeout=10)
    assert received == ['{\n  "a": 1\n}\n']
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


def test_writer_follows_a_symlink_and_keeps_the_mode(tmp_path):
    # The file a link names is replaced; the link itself stays a link.
    target = tmp_path / "real.json"
    target.write_text("old\n")
    target.chmod(0o600)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_json(link, {"a": 1})
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text() == '{\n  "a": 1\n}\n'
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    # A dangling link creates the file it names, as open(link, "w") would.
    dangling = tmp_path / "dangling.json"
    dangling.symlink_to(tmp_path / "new.json")
    write_json(dangling, [])
    assert dangling.is_symlink() and (tmp_path / "new.json").read_text() == "[]\n"
    assert sorted(os.listdir(tmp_path)) == ["dangling.json", "link.json", "new.json", "real.json"]
