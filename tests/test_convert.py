"""Public grid-file conversion: state derivation and record packing."""

import importlib.util
import json
from pathlib import Path

import pytest

from proctrack.corpus import PROPARA, LocationValue, grid_violations, load_corpus
from proctrack.errors import ValidationError

_SCRIPT = Path(__file__).parent.parent / "scripts" / "convert_datasets.py"
_spec = importlib.util.spec_from_file_location("convert_datasets", _SCRIPT)
convert_datasets = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(convert_datasets)


def _states(tokens):
    row = tuple(LocationValue.from_token(t) for t in tokens)
    return list(convert_datasets.derive_states(row))


def test_derive_states_covers_every_event():
    assert _states(["-", "-", "soil", "soil", "pond", "-", "-"]) == [
        "outside_before",
        "create",
        "exist",
        "move",
        "destroy",
        "outside_after",
    ]


def test_derive_states_unknown_is_a_real_place():
    assert _states(["?", "?"]) == ["exist"]
    assert _states(["?", "soil"]) == ["move"]
    assert _states(["soil", "?"]) == ["move"]


def test_derive_states_matching_is_normalized():
    assert _states(["The Soil.", "the soil"]) == ["exist"]


def test_derive_states_distinguishes_before_and_after():
    assert _states(["-", "-", "soil", "-", "-"]) == [
        "outside_before",
        "create",
        "destroy",
        "outside_after",
    ]


def test_convert_record_builds_consistent_grid():
    record = {
        "para_id": "1",
        "sentence_texts": ["Water evaporates.", "Clouds form."],
        "participants": ["water; H2O", "cloud"],
        "states": [
            ["ocean", "sky", "sky"],
            ["-", "-", "sky"],
        ],
    }
    procedure, grid = convert_datasets.convert_record(record)
    assert procedure.id == "1"
    assert [e.id for e in procedure.entities] == ["water; H2O", "cloud"]
    assert procedure.entities[0].aliases == ("water", "H2O")
    assert grid.entries["water; H2O"].states == ("move", "exist")
    assert grid.entries["cloud"].states == ("outside_before", "create")
    assert grid_violations(grid, PROPARA) == []


def test_convert_record_disambiguates_duplicate_participants():
    record = {
        "para_id": "2",
        "sentence_texts": ["Things happen."],
        "participants": ["water", "water"],
        "states": [["ocean", "ocean"], ["-", "cloud"]],
    }
    procedure, grid = convert_datasets.convert_record(record)
    assert [e.id for e in procedure.entities] == ["water", "water#2"]
    assert set(grid.entries) == {"water", "water#2"}


def test_convert_record_rejects_bad_rows():
    with pytest.raises(ValidationError):
        convert_datasets.convert_record(
            {
                "para_id": "3",
                "sentence_texts": ["One step."],
                "participants": ["water"],
                "states": [["ocean"]],  # needs T+1 = 2 slots
            }
        )
    with pytest.raises(ValidationError):
        convert_datasets.convert_record(
            {
                "para_id": "4",
                "sentence_texts": ["One step."],
                "participants": ["water"],
                "states": [["ocean", ""]],
            }
        )


def test_convert_record_keeps_an_integer_para_id():
    procedure, _ = convert_datasets.convert_record(
        {"para_id": 12, "sentence_texts": ["Rain falls."], "participants": ["water"],
         "states": [["sky", "ground"]]})
    assert procedure.id == "12"


def test_main_converts_and_reports(tmp_path, capsys):
    records = [
        {
            "para_id": "10",
            "sentence_texts": ["Water evaporates.", "Clouds form.", "Rain falls."],
            "participants": ["water"],
            "states": [["ocean", "sky", "sky", "ground"]],
        },
        {
            "para_id": "11",
            "sentence_texts": ["Magma rises.", "Rock melts."],
            "participants": ["magma", "rock"],
            "states": [["mantle", "crust", "crust"], ["crust", "crust", "-"]],
        },
    ]
    data_dir = tmp_path / "raw"
    out_dir = tmp_path / "converted"
    data_dir.mkdir()
    (data_dir / "grids.v1.train.json").write_text(
        "".join(json.dumps(r) + "\n" for r in records)
    )
    code = convert_datasets.main(
        ["--data-dir", str(data_dir), "--out-dir", str(out_dir), "--splits", "train"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "train" in out
    procedures, grids = load_corpus(out_dir / "propara.train.jsonl", PROPARA)
    assert len(procedures) == 2
    for procedure in procedures:
        assert grid_violations(grids[procedure.id], PROPARA) == []


def test_main_fails_cleanly_on_missing_input(tmp_path, capsys):
    code = convert_datasets.main(
        ["--data-dir", str(tmp_path), "--out-dir", str(tmp_path / "out")]
    )
    assert code != 0


@pytest.mark.parametrize("splits, message", [
    ("bogus", "error: unknown split 'bogus'"),
    ("train,bogus", "error: unknown split 'bogus'"),
    ("train,dev", "grids.v1.dev.json not found"),
])
def test_a_bad_split_or_input_leaves_out_dir_absent(tmp_path, capsys, splits, message):
    data_dir = tmp_path / "raw"
    data_dir.mkdir()
    (data_dir / "grids.v1.train.json").write_text(json.dumps(
        {"para_id": "10", "sentence_texts": ["Rain falls."], "participants": ["water"],
         "states": [["sky", "ground"]]}) + "\n")
    out_dir = tmp_path / "X" / "out"
    code = convert_datasets.main(
        ["--data-dir", str(data_dir), "--out-dir", str(out_dir), "--splits", splits])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "X").exists()


def _with_field(field, value):
    """A good record with para_id, or the one participant or sentence, set to value."""
    record = {"para_id": "12", "sentence_texts": ["Rain falls."],
              "participants": ["water"], "states": [["sky", "ground"]]}
    record[field] = value if field == "para_id" else [value]
    return record


# Values that used to be coerced with str(): a para_id may still be an integer.
_NOT_STRINGS = [None, True, ["water"], {"name": "water"}]


@pytest.mark.parametrize("bad", [
    {"para_id": "12", "sentence_texts": ["One step."], "participants": ["water"],
     "states": [["ocean"]]},
    ["not", "an", "object"],
    *(_with_field("para_id", value) for value in _NOT_STRINGS),
    *(_with_field(field, value) for field in ("participants", "sentence_texts")
      for value in [*_NOT_STRINGS, 7]),
])
def test_main_names_the_line_of_a_bad_record(tmp_path, capsys, bad):
    data_dir = tmp_path / "raw"
    data_dir.mkdir()
    good = {"para_id": "10", "sentence_texts": ["Rain falls."],
            "participants": ["water"], "states": [["sky", "ground"]]}
    grids = data_dir / "grids.v1.train.json"
    grids.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    code = convert_datasets.main(
        ["--data-dir", str(data_dir), "--out-dir", str(tmp_path / "out"), "--splits", "train"]
    )
    assert code == 2
    assert f"error: {grids}:2: " in capsys.readouterr().err
