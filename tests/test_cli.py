"""Command-line interface: subcommands, file handoffs, exit codes."""

import io
import json
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import CORPUS_PROPARA, EMISSIONS_PROPARA, MODEL_PROPARA
from proctrack.cli import EXIT_DECODE, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from proctrack.corpus import PROPARA, VOCABULARIES, load_corpus, load_predictions
from proctrack.pipeline import score, score_dict
from proctrack.transitions import load_model, save_model
from proctrack.tuner import GRID_MAX_VALUES


def _corpus_args():
    return ["--corpus", str(CORPUS_PROPARA), "--vocab", "propara"]


def test_stats_prints_table(capsys):
    assert main(["stats", *_corpus_args()]) == EXIT_OK
    out = capsys.readouterr().out
    assert "procedures" in out
    assert "10" in out


def test_format_qa_writes_instances(tmp_path, capsys):
    out = tmp_path / "qa.jsonl"
    code = main(["format-qa", *_corpus_args(), "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines
    record = json.loads(lines[0])
    assert {"procedure_id", "entity_id", "step", "kind", "input", "target"} <= set(
        record
    )


def test_estimate_transitions_round_trips(tmp_path):
    out = tmp_path / "model.json"
    code = main(["estimate-transitions", *_corpus_args(), "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_bytes() == MODEL_PROPARA.read_bytes()
    model = load_model(out)
    reference = load_model(MODEL_PROPARA)
    assert np.array_equal(model.trans_scores, reference.trans_scores)
    assert np.array_equal(model.start_scores, reference.start_scores)


@pytest.mark.parametrize("kinds", [",", "", " , "])
def test_format_qa_rejects_an_empty_kind_list(tmp_path, capsys, kinds):
    out = tmp_path / "qa.jsonl"
    code = main(["format-qa", *_corpus_args(), "--kinds", kinds, "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "error: no instance kinds given" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("min_count", ["-3", "0"])
def test_estimate_transitions_rejects_a_min_count_below_one(tmp_path, capsys, min_count):
    out = tmp_path / "model.json"
    code = main(["estimate-transitions", *_corpus_args(), "--min-count", min_count,
                 "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert f"error: min_count must be >= 1, got {min_count}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_decode_resolve_evaluate_chain(tmp_path, capsys):
    emissions = tmp_path / "emissions.jsonl"
    decoded = tmp_path / "decoded.jsonl"
    predictions = tmp_path / "predictions.jsonl"
    assert main([
        "synth", *_corpus_args(), "--state-noise", "0.1",
        "--location-noise", "0.1", "--seed", "7", "--out", str(emissions),
    ]) == EXIT_OK
    assert emissions.read_bytes() == EMISSIONS_PROPARA.read_bytes()
    assert main([
        "decode", *_corpus_args(), "--emissions", str(emissions),
        "--model", str(MODEL_PROPARA), "--out", str(decoded),
    ]) == EXIT_OK
    assert main([
        "resolve", *_corpus_args(), "--decoded", str(decoded),
        "--emissions", str(emissions), "--out", str(predictions),
    ]) == EXIT_OK
    assert main([
        "evaluate", *_corpus_args(), "--predictions", str(predictions),
    ]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"document_level"' in out
    assert '"sentence_level"' in out


def _split_commands_and_pipeline(tmp_path, corpus_path):
    """Run decode -> resolve -> evaluate --per-procedure and pipeline
    --per-procedure on the same inputs, check that evaluate prints the score
    blocks of report.json, and return the predictions file of each."""
    corpus_args = ["--corpus", str(corpus_path), "--vocab", "propara"]
    decoded = tmp_path / "decoded.jsonl"
    predictions = tmp_path / "predictions.jsonl"
    scores = tmp_path / "scores.json"
    out_dir = tmp_path / "run"
    model_args = ["--emissions", str(EMISSIONS_PROPARA), "--model", str(MODEL_PROPARA)]
    assert main(["decode", *corpus_args, *model_args, "--out", str(decoded)]) == EXIT_OK
    assert main([
        "resolve", *corpus_args, "--decoded", str(decoded),
        "--emissions", str(EMISSIONS_PROPARA), "--out", str(predictions),
    ]) == EXIT_OK
    assert main([
        "evaluate", *corpus_args, "--predictions", str(predictions),
        "--per-procedure", "--out", str(scores),
    ]) == EXIT_OK
    assert main([
        "pipeline", *corpus_args, *model_args, "--seed", "0",
        "--per-procedure", "--out", str(out_dir),
    ]) == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"] == {
        "vocabulary": "propara", "tau_exp": 0.6, "tau_imp": 0.7, "seed": 0,
    }
    evaluated = json.loads(scores.read_text())
    for key, value in evaluated.items():
        assert value == report[key], key
    assert set(evaluated) == {"document_level", "sentence_level",
                              "recipes_location_changes", "per_procedure"}
    return predictions, out_dir / "predictions.jsonl"


def test_pipeline_matches_split_commands(tmp_path):
    split, piped = _split_commands_and_pipeline(tmp_path, CORPUS_PROPARA)
    assert split.read_bytes() == piped.read_bytes()


def test_split_commands_score_partial_gold_like_pipeline(tmp_path, capsys, caplog):
    # Gold for one entity is dropped: decode still decodes its emissions,
    # and evaluate must leave that track out, as the pipeline never decodes it.
    corpus_path = tmp_path / "partial.jsonl"
    lines = CORPUS_PROPARA.read_text().splitlines()
    record = json.loads(lines[3])
    del record["gold"][next(iter(record["gold"]))]
    lines[3] = json.dumps(record)
    corpus_path.write_text("\n".join(lines) + "\n")

    split, _ = _split_commands_and_pipeline(tmp_path, corpus_path)
    assert "left out 1 predicted track(s) without gold" in caplog.text

    # A prediction for an entity the corpus does not know is still an error.
    ghost = tmp_path / "ghost.jsonl"
    _rewrite_line(split, ghost, 4, "gold",
                  lambda gold: {**gold, "ghost": gold[next(iter(gold))]})
    capsys.readouterr()
    code = main(["evaluate", "--corpus", str(corpus_path), "--vocab", "propara",
                 "--predictions", str(ghost)])
    assert code == EXIT_VALIDATION
    assert (f"error: {ghost}:4: procedure 'propara-0002' has no entity 'ghost'"
            in capsys.readouterr().err)


def test_evaluate_summarises_violations_per_rule(tmp_path, capsys, caplog):
    # Every location becomes "?", which breaks two rules many times over.
    predictions = tmp_path / "predictions.jsonl"
    lines = []
    for line in CORPUS_PROPARA.read_text().splitlines():
        record = json.loads(line)
        for track in record["gold"].values():
            track["locations"] = ["?"] * len(track["locations"])
        lines.append(json.dumps(record))
    predictions.write_text("\n".join(lines) + "\n")

    procedures, gold = load_corpus(CORPUS_PROPARA, PROPARA)
    pred_grids, violations = load_predictions(predictions, procedures, PROPARA)
    by_rule = {}
    for proc_id, violation in violations:
        by_rule.setdefault(violation.rule, []).append(
            f"{proc_id}/{violation.entity_id} step {violation.step}")
    assert len(by_rule) >= 2 and len(violations) > len(by_rule)

    capsys.readouterr()
    assert main(["evaluate", *_corpus_args(), "--predictions", str(predictions)]) == EXIT_OK
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [
        f"inconsistent predictions: rule {rule} violated {len(where)} time(s), "
        f"e.g. {', '.join(where[:3])}"
        for rule, where in sorted(by_rule.items())
    ]
    printed = json.loads(capsys.readouterr().out)
    assert printed == json.loads(json.dumps(score_dict(score(gold, pred_grids, PROPARA))))


def _rewrite_line(source, target, lineno, field, make_value):
    """Copy a JSON-lines file, replacing one field of one record."""
    lines = source.read_text().splitlines()
    record = json.loads(lines[lineno - 1])
    record[field] = make_value(record[field])
    lines[lineno - 1] = json.dumps(record)
    target.write_text("\n".join(lines) + "\n")


MALFORMED_LISTS = {
    "number": lambda items: 5,
    "null": lambda items: None,
    "string": lambda items: "c" * len(items),
    "numbers": lambda items: list(range(len(items))),
}


@pytest.mark.parametrize("make_value", MALFORMED_LISTS.values(), ids=list(MALFORMED_LISTS))
@pytest.mark.parametrize("field", ["location_preds", "states"])
def test_malformed_list_fields_exit_two_with_line(tmp_path, capsys, field, make_value):
    if field == "location_preds":
        bad = tmp_path / "emissions.jsonl"
        _rewrite_line(EMISSIONS_PROPARA, bad, 2, field, make_value)
        argv = ["decode", "--emissions", str(bad), "--model", str(MODEL_PROPARA)]
    else:
        decoded = tmp_path / "decoded.jsonl"
        assert main(["decode", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                     "--model", str(MODEL_PROPARA), "--out", str(decoded)]) == EXIT_OK
        bad = tmp_path / "bad_decoded.jsonl"
        _rewrite_line(decoded, bad, 2, field, make_value)
        argv = ["resolve", "--decoded", str(bad), "--emissions", str(EMISSIONS_PROPARA)]
    capsys.readouterr()
    code = main([*argv, *_corpus_args(), "--out", str(tmp_path / "out.jsonl")])
    assert code == EXIT_VALIDATION
    assert f"error: {bad}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("command, field", [
    ("decode", "procedure_id"),
    ("decode", "entity_id"),
    ("resolve", "procedure_id"),
    ("resolve", "entity_id"),
    ("evaluate", "id"),
])
def test_non_string_ids_exit_two_with_line(tmp_path, capsys, command, field):
    bad = tmp_path / "bad.jsonl"
    if command == "decode":
        source = EMISSIONS_PROPARA
        argv = ["decode", "--emissions", str(bad), "--model", str(MODEL_PROPARA)]
    elif command == "resolve":
        source = tmp_path / "decoded.jsonl"
        assert main(["decode", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                     "--model", str(MODEL_PROPARA), "--out", str(source)]) == EXIT_OK
        argv = ["resolve", "--decoded", str(bad), "--emissions", str(EMISSIONS_PROPARA)]
    else:
        source = CORPUS_PROPARA
        argv = ["evaluate", "--predictions", str(bad)]
    _rewrite_line(source, bad, 2, field, lambda value: [value])
    capsys.readouterr()
    code = main([*argv, *_corpus_args(), "--out", str(tmp_path / "out.jsonl")])
    assert code == EXIT_VALIDATION
    assert f"error: {bad}:2: " in capsys.readouterr().err


def test_duplicate_decoded_states_exit_two_with_line(tmp_path, capsys):
    decoded = tmp_path / "decoded.jsonl"
    assert main(["decode", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                 "--model", str(MODEL_PROPARA), "--out", str(decoded)]) == EXIT_OK
    lines = decoded.read_text().splitlines()
    decoded.write_text("\n".join([lines[0], *lines]) + "\n")
    record = json.loads(lines[0])
    capsys.readouterr()
    code = main(["resolve", *_corpus_args(), "--decoded", str(decoded),
                 "--emissions", str(EMISSIONS_PROPARA), "--out", str(tmp_path / "out.jsonl")])
    assert code == EXIT_VALIDATION
    assert (f"error: {decoded}:2: duplicate decoded states for "
            f"({record['procedure_id']!r}, {record['entity_id']!r})"
            in capsys.readouterr().err)


BAD_LOGITS = {
    "object-cell": lambda rows: [[{"a": 1}, *row[1:]] for row in rows],
    "beyond-float-range": lambda rows: [[10 ** 400, *row[1:]] for row in rows],
    "string-cell": lambda rows: [["0.5", *rows[0][1:]], *rows[1:]],
    "bool-cell": lambda rows: [[True, *rows[0][1:]], *rows[1:]],
    "number-row": lambda rows: [5, *rows[1:]],
}


@pytest.mark.parametrize("make_value", BAD_LOGITS.values(), ids=list(BAD_LOGITS))
def test_non_numeric_state_logits_exit_two_with_line(tmp_path, capsys, make_value):
    bad = tmp_path / "emissions.jsonl"
    _rewrite_line(EMISSIONS_PROPARA, bad, 2, "state_logits", make_value)
    code = main(["decode", *_corpus_args(), "--emissions", str(bad),
                 "--model", str(MODEL_PROPARA), "--out", str(tmp_path / "out.jsonl")])
    assert code == EXIT_VALIDATION
    assert f"error: {bad}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decode", "pipeline"])
def test_overflowed_weighted_logit_names_the_entity(tmp_path, capsys, command):
    bad = tmp_path / "emissions.jsonl"
    _rewrite_line(EMISSIONS_PROPARA, bad, 2, "state_logits",
                  lambda rows: [[1e308, *rows[0][1:]], *rows[1:]])
    record = json.loads(bad.read_text().splitlines()[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # numpy's overflow warning must not escape
        code = main([command, *_corpus_args(), "--emissions", str(bad),
                     "--model", str(MODEL_PROPARA), "--tau-exp", "2", "--tau-imp", "2",
                     "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert (f"error: procedure {record['procedure_id']!r}, entity {record['entity_id']!r}: "
            "emissions must all be finite") in capsys.readouterr().err


def _huge_first_track(tmp_path, logit=1e308):
    """The fixture emissions with every logit of line 1, hydropower's water
    (six steps), set to `logit`: at +-1e308 a path's score overflows once
    weighted by a tau above about 0.3."""
    bad = tmp_path / "emissions.jsonl"
    _rewrite_line(EMISSIONS_PROPARA, bad, 1, "state_logits",
                  lambda rows: [[logit] * len(row) for row in rows])
    return bad


@pytest.mark.parametrize("command", ["decode", "pipeline"])
def test_overflowed_path_score_exits_two_naming_the_entity(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main([command, *_corpus_args(), "--emissions", str(_huge_first_track(tmp_path)),
                 "--model", str(MODEL_PROPARA), "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == ("error: procedure 'hydropower', entity 'water': "
                                       "the best path's score overflows a float\n")
    assert not out.exists()


@pytest.mark.parametrize("relax", [False, True])
def test_path_score_overflowed_to_minus_inf_exits_two_naming_the_entity(tmp_path, capsys,
                                                                        relax):
    """A legal path exists, so a -inf best score is overflow, not a missing
    path (exit 3), with or without --relax."""
    out, bad = tmp_path / "out", _huge_first_track(tmp_path, -1e308)
    code = main(["decode", *_corpus_args(), "--emissions", str(bad), "--model", str(MODEL_PROPARA),
                 "--out", str(out), *["--relax"] * relax])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == ("error: procedure 'hydropower', entity 'water': "
                                       "the best path's score overflows a float\n")
    assert not out.exists()


def test_overflowed_path_score_in_tune_names_the_cell(tmp_path, capsys):
    code = main(["tune", *_corpus_args(), "--emissions", str(_huge_first_track(tmp_path)),
                 "--model", str(MODEL_PROPARA), "--grid", "0.5:0.5:0.1"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: grid cell (0.5, 0.5): procedure 'hydropower', entity 'water': "
        "the best path's score overflows a float\n")


def test_synth_rate_that_underflows_exits_two_naming_it(tmp_path, capsys):
    out = tmp_path / "emissions.jsonl"
    code = main(["synth", *_corpus_args(), "--state-noise", "5e-324", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == ("error: state noise 5e-324 is too small to spread over "
                                       "the 5 wrong labels of 6: it underflows to 0\n")
    assert not out.exists()


def _first_track(record):
    return record["gold"][next(iter(record["gold"]))]


# Each edit breaks a check made by a data class or the vocabulary, below the
# record parsers, sets a field that used to be coerced with str(), or holds a
# string that no output file can encode.
BAD_RECORDS = {
    "gold-label": ("corpus", lambda r: _first_track(r)["states"].__setitem__(0, "fly")),
    "prediction-label": ("predictions",
                         lambda r: _first_track(r)["states"].__setitem__(0, "fly")),
    "duplicate-entity-ids": ("corpus", lambda r: r["entities"].append(r["entities"][0])),
    "blank-step": ("corpus", lambda r: r["steps"].__setitem__(0, " \t")),
    "semicolon-raw-name": ("corpus", lambda r: r["entities"][0].update(raw_name=";")),
    "empty-entity-id": ("corpus", lambda r: r["entities"][0].update(id="")),
    "null-raw-name": ("corpus", lambda r: r["entities"][0].update(raw_name=None)),
    "number-entity-id": ("corpus", lambda r: r["entities"].append({"id": 7, "raw_name": "rock"})),
    "unpaired-surrogate": ("corpus", lambda r: r["entities"][0].update(raw_name="w\ud800ter")),
    # Gold that breaks a rule resolve holds predictions to: pollen starts
    # outside_before, and iron moves at step 2 back onto slot 1's place.
    "gold-start-outside": ("corpus", lambda r: r["gold"]["pollen"]["locations"].__setitem__(
        0, "soil")),
    "gold-move-in-place": ("corpus", lambda r: r["gold"]["iron"]["locations"].__setitem__(
        slice(0, 2), ["Ocean", "Ocean"])),
}


@pytest.mark.parametrize("source, edit", BAD_RECORDS.values(), ids=list(BAD_RECORDS))
def test_bad_records_exit_two_with_line(tmp_path, capsys, source, edit):
    lines = CORPUS_PROPARA.read_text().splitlines()
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    if source == "corpus":
        argv = ["stats", "--corpus", str(bad), "--vocab", "propara"]
    else:
        argv = ["evaluate", *_corpus_args(), "--predictions", str(bad)]
    assert main(argv) == EXIT_VALIDATION
    assert f"error: {bad}:2: " in capsys.readouterr().err


def test_line_that_is_not_utf8_exits_two_with_line(tmp_path, capsys):
    lines = CORPUS_PROPARA.read_bytes().splitlines()
    lines[2] = lines[2].replace(b'"steps": ["', b'"steps": ["\xe4', 1)
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["stats", "--corpus", str(bad), "--vocab", "propara"]) == EXIT_VALIDATION
    assert f"error: {bad}:3: bad JSON: " in capsys.readouterr().err


@pytest.fixture(scope="module")
def split_files(tmp_path_factory):
    """Each JSON-lines input of the CLI, from the fixtures."""
    base = tmp_path_factory.mktemp("inputs")
    files = {"corpus": CORPUS_PROPARA, "emissions": EMISSIONS_PROPARA,
             "decoded": base / "decoded.jsonl", "predictions": base / "predictions.jsonl"}
    assert main(["decode", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                 "--model", str(MODEL_PROPARA), "--out", str(files["decoded"])]) == EXIT_OK
    assert main(["resolve", *_corpus_args(), "--decoded", str(files["decoded"]),
                 "--emissions", str(EMISSIONS_PROPARA),
                 "--out", str(files["predictions"])]) == EXIT_OK
    return files


def _fuzz_argv(files, out):
    """The command that reads each input, run on `files`."""
    corpus_args = ["--corpus", str(files["corpus"]), "--vocab", "propara"]
    pipeline = ["pipeline", *corpus_args, "--emissions", str(files["emissions"]),
                "--model", str(MODEL_PROPARA), "--out", str(out)]
    return {
        "corpus": pipeline,
        "emissions": pipeline,
        "predictions": ["evaluate", *corpus_args, "--predictions", str(files["predictions"])],
        "decoded": ["resolve", *corpus_args, "--decoded", str(files["decoded"]),
                    "--emissions", str(files["emissions"]), "--out", str(out) + ".jsonl"],
    }


_first = json.loads(CORPUS_PROPARA.read_text().splitlines()[0])
# Values the records hold, so that some fuzzed values get past the type checks.
PLAUSIBLE = sorted({_first["id"], *(e["id"] for e in _first["entities"]),
                    *(lab for v in VOCABULARIES.values() for lab in v.labels),
                    "?", "-", "none", "unknown", "", " ", ";"})
# Any code point, unpaired surrogates included: JSON can escape them all.
TEXT = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(PLAUSIBLE)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 400, 10 ** 400)
    | st.floats(allow_nan=False, allow_infinity=False) | TEXT,
    lambda inner: st.lists(inner, max_size=8) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24)


@pytest.mark.parametrize("kind", ["corpus", "predictions", "emissions", "decoded"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_field_exits_zero_or_two_with_line(split_files, tmp_path_factory, kind, data):
    # One field of one record is set to an arbitrary JSON value. The command
    # that reads the file must succeed or name a line of one of its inputs;
    # any other exception would be a traceback on the command line.
    files = dict(split_files)
    lines = files[kind].read_text().splitlines()
    lineno = data.draw(st.integers(1, len(lines)), label="line")
    record = json.loads(lines[lineno - 1])
    record[data.draw(st.sampled_from(sorted(record)), label="field")] = data.draw(JSON_VALUES)
    lines[lineno - 1] = json.dumps(record)
    work = tmp_path_factory.mktemp("fuzz")
    files[kind] = work / f"{kind}.jsonl"
    files[kind].write_text("\n".join(lines) + "\n")

    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(_fuzz_argv(files, work / "out")[kind])
    assert code in (EXIT_OK, EXIT_VALIDATION), err.getvalue()
    if code == EXIT_VALIDATION:
        paths = "|".join(re.escape(str(path)) for path in files.values())
        assert re.match(rf"error: ({paths}):\d+: ", err.getvalue()), err.getvalue()


def _one_track(record, **fields):
    """The gold of a corpus record cut to its first track, with `fields` replaced."""
    entity_id, track = next(iter(record["gold"].items()))
    return {entity_id: {**track, **fields}}


# One bad record per check that rejects it: (input, line, an edit of that
# line's record given (record, all records), the message after "path:line: ").
BAD_RECORDS = {
    "decoded-unknown-procedure": ("decoded", 1, lambda r, _: r.update(procedure_id="ghost"),
                                  "unknown procedure id 'ghost'"),
    # An entity the procedure lacks fails its lookup before the emissions do;
    # see test_resolve_names_a_real_entity_without_emissions.
    "decoded-no-emissions": ("decoded", 1, lambda r, _: r.update(entity_id="ghost"),
                             "procedure 'hydropower' has no entity 'ghost'"),
    "emissions-unknown-procedure": ("emissions", 1, lambda r, _: r.update(procedure_id="ghost"),
                                    "unknown procedure id 'ghost'"),
    "emissions-rows": ("emissions", 1, lambda r, _: r.update(
        state_logits=r["state_logits"][1:], location_preds=r["location_preds"][1:]),
        "state_logits has 5 rows for 6 steps"),
    "emissions-columns": ("emissions", 1, lambda r, _: r.update(
        state_logits=[row[1:] for row in r["state_logits"]]),
        "state_logits has 5 columns for 6 labels"),
    "emissions-not-finite": ("emissions", 1, lambda r, _: r.update(
        state_logits=[[float("inf")] * 6, *r["state_logits"][1:]]),
        "state_logits must all be finite"),
    "corpus-track-not-object": ("corpus", 1, lambda r, _: r.update(gold={"water": []}),
                                "entity 'water': track must be an object"),
    "corpus-states": ("corpus", 1, lambda r, _: r.update(
        gold=_one_track(r, states=["exist"] * 5)), "entity 'water': 5 states for 6 steps"),
    "corpus-locations": ("corpus", 1, lambda r, _: r.update(
        gold=_one_track(r, locations=["?"] * 6)),
        r"entity 'water': track needs T\+1 locations for T states, got 6 states and 6 locations"),
    "corpus-unknown-entity": ("corpus", 1, lambda r, _: r.update(
        gold={"ghost": r["gold"]["water"]}), "procedure 'hydropower' has no entity 'ghost'"),
    "predictions-unknown-entity": ("predictions", 1, lambda r, _: r.update(
        gold={"ghost": r["gold"]["water"]}), "procedure 'hydropower' has no entity 'ghost'"),
    "corpus-alias": ("corpus", 1, lambda r, _: r.update(
        entities=[{"id": "water", "raw_name": " ; "}]),
        "entity 'water': no usable alias in ' ; '"),
    "corpus-duplicate-id": ("corpus", 2, lambda r, records: r.update(id=records[0]["id"]),
                            "duplicate procedure id 'hydropower'"),
    "predictions-duplicate-id": ("predictions", 2,
                                 lambda r, records: r.update(id=records[0]["id"]),
                                 "duplicate procedure id 'hydropower'"),
}


@pytest.mark.parametrize("case", BAD_RECORDS)
def test_each_bad_record_exits_two_naming_its_file_and_line(split_files, tmp_path, capsys,
                                                            case):
    kind, lineno, edit, message = BAD_RECORDS[case]
    records = [json.loads(line) for line in split_files[kind].read_text().splitlines()]
    edit(records[lineno - 1], records)
    files = {**split_files, kind: tmp_path / f"{kind}.jsonl"}
    files[kind].write_text("".join(json.dumps(record) + "\n" for record in records))
    assert main(_fuzz_argv(files, tmp_path / "out")[kind]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(files[kind]))}:{lineno}: {message}\n", err), err


def test_resolve_names_a_real_entity_without_emissions(split_files, tmp_path, capsys):
    emissions = tmp_path / "emissions.jsonl"      # all but hydropower's water
    emissions.write_text("".join(EMISSIONS_PROPARA.read_text().splitlines(True)[1:]))
    files = {**split_files, "emissions": emissions}
    assert main(_fuzz_argv(files, tmp_path / "out")["decoded"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: {files['decoded']}:1: no emissions for ('hydropower', 'water')\n")


@pytest.mark.parametrize("min_count", [1, 5])
def test_estimate_transitions_reports_the_transitions_below_min_count(tmp_path, capsys,
                                                                      min_count):
    model = load_model(MODEL_PROPARA)
    labels = model.vocabulary.labels
    rare = [f"rare transition {labels[p]} -> {labels[q]}: seen {count} time(s)"
            for (p, q), count in np.ndenumerate(model.trans_counts) if 0 < count < min_count]
    out = tmp_path / "model.json"
    assert main(["estimate-transitions", *_corpus_args(), "--min-count", str(min_count),
                 "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        *(rare or [f"no transitions seen fewer than {min_count} times"]),
        f"wrote transition model ({model.sequence_count} sequences) to {out}"]
    assert len(rare) == (0 if min_count == 1 else 3)


def _nested_slot(record, target, pick):
    """(list, index) of one nested value of a record: a step string, a logit
    row or cell, or a state or location of one track. `pick(n)` draws an
    index below n."""
    if target == "step":
        values = record["steps"]
    elif target == "logit":
        values = record["state_logits"]
        if pick(2):
            values = values[pick(len(values))]          # a cell, not a row
    else:
        tracks = record["gold"]
        values = tracks[sorted(tracks)[pick(len(tracks))]][("states", "locations")[pick(2)]]
    return values, pick(len(values))


@pytest.mark.parametrize("kind, target", [("corpus", "step"), ("emissions", "logit"),
                                          ("corpus", "track"), ("predictions", "track")])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_nested_field_exits_zero_or_two_with_line(split_files, tmp_path_factory,
                                                         kind, target, data):
    # As above, one level down: one entry of a list inside one record.
    files = dict(split_files)
    lines = files[kind].read_text().splitlines()
    lineno = data.draw(st.integers(1, len(lines)), label="line")
    record = json.loads(lines[lineno - 1])
    values, index = _nested_slot(record, target,
                                 lambda n: data.draw(st.integers(0, n - 1)))
    values[index] = data.draw(JSON_VALUES, label="value")
    lines[lineno - 1] = json.dumps(record)
    work = tmp_path_factory.mktemp("fuzz")
    files[kind] = work / f"{kind}.jsonl"
    files[kind].write_text("\n".join(lines) + "\n")

    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(_fuzz_argv(files, work / "out")[kind])
    assert code in (EXIT_OK, EXIT_VALIDATION), err.getvalue()
    if code == EXIT_VALIDATION:
        paths = "|".join(re.escape(str(path)) for path in files.values())
        assert re.match(rf"error: ({paths}):\d+: ", err.getvalue()), err.getvalue()


MODEL_MISMATCHES = {
    "labels": lambda m: m.update(labels=[m["labels"][1], m["labels"][0], *m["labels"][2:]]),
    "name": lambda m: m.update(vocabulary="recipes"),
    "nonexistent": lambda m: m.update(nonexistent_states=["outside_after"]),
}


@pytest.mark.parametrize("mutate", MODEL_MISMATCHES.values(), ids=list(MODEL_MISMATCHES))
@pytest.mark.parametrize("command", ["decode", "tune", "pipeline"])
def test_model_vocabulary_mismatch_exits_two(tmp_path, capsys, command, mutate):
    payload = json.loads(MODEL_PROPARA.read_text())
    mutate(payload)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    out = tmp_path / ("run" if command == "pipeline" else "out.json")
    code = main([command, *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                 "--model", str(model), "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "does not match --vocab 'propara'" in capsys.readouterr().err
    assert not out.exists()


# Model files that used to load, or to fail without naming the file.
BAD_MODELS = {
    "count-beyond-int64": lambda m: m["transition_counts"][0].__setitem__(0, 10 ** 30),
    "short-start-scores": lambda m: m.update(start_scores=m["start_scores"][:3]),
    "duplicate-labels": lambda m: m["labels"].__setitem__(1, m["labels"][0]),
    "bool-score": lambda m: m["start_scores"].__setitem__(0, True),
    # A path through it would sum past the float range.
    "huge-score": lambda m: m["transition_scores"][0].__setitem__(0, 1.6e307),
    "short-start-counts": lambda m: m.update(start_counts=m["start_counts"][:3]),
    "bool-count": lambda m: m["start_counts"].__setitem__(0, True),
    "negative-count": lambda m: m["transition_counts"][1].__setitem__(1, -1),
}


@pytest.mark.parametrize("mutate", BAD_MODELS.values(), ids=list(BAD_MODELS))
def test_bad_model_file_exits_two_naming_it(tmp_path, capsys, mutate):
    payload = json.loads(MODEL_PROPARA.read_text())
    mutate(payload)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    code = main(["decode", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                 "--model", str(model), "--out", str(tmp_path / "out.jsonl")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {model}: bad model file: ")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_model_exits_zero_or_two_naming_the_file(tmp_path_factory, data):
    # One field of the model file, or one entry of a list field, is set to an
    # arbitrary JSON value. decode must succeed or name the model file.
    payload = json.loads(MODEL_PROPARA.read_text())
    field = data.draw(st.sampled_from(sorted(payload)), label="field")
    value = data.draw(JSON_VALUES, label="value")
    if isinstance(payload[field], list) and data.draw(st.booleans(), label="one entry"):
        payload[field][data.draw(st.integers(0, len(payload[field]) - 1), label="entry")] = value
    else:
        payload[field] = value
    work = tmp_path_factory.mktemp("model")
    model = work / "model.json"
    model.write_text(json.dumps(payload))

    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["decode", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                     "--model", str(model), "--out", str(work / "out.jsonl")])
    assert code in (EXIT_OK, EXIT_VALIDATION), err.getvalue()
    if code == EXIT_VALIDATION:
        assert err.getvalue().startswith(f"error: {model}: "), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_model_score_entry_exits_zero_or_two_naming_the_file(tmp_path_factory, data):
    # One start score, or one cell of the transition scores, is set to an
    # arbitrary JSON value.
    payload = json.loads(MODEL_PROPARA.read_text())
    values = payload[data.draw(st.sampled_from(["start_scores", "transition_scores"]),
                               label="field")]
    if isinstance(values[0], list):
        values = values[data.draw(st.integers(0, len(values) - 1), label="row")]
    values[data.draw(st.integers(0, len(values) - 1), label="entry")] = data.draw(
        JSON_VALUES, label="value")
    work = tmp_path_factory.mktemp("model")
    model = work / "model.json"
    model.write_text(json.dumps(payload))

    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["decode", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                     "--model", str(model), "--out", str(work / "out.jsonl")])
    assert code in (EXIT_OK, EXIT_VALIDATION), err.getvalue()
    if code == EXIT_VALIDATION:
        assert err.getvalue().startswith(f"error: {model}: "), err.getvalue()


def _nested_lists(depth):
    return "[" * depth + "]" * depth


def test_deeply_nested_corpus_line_exits_two_with_line(tmp_path, capsys):
    lines = CORPUS_PROPARA.read_text().splitlines()
    record = json.loads(lines[1])
    record["steps"] = None
    lines[1] = json.dumps(record).replace('"steps": null', '"steps": ' + _nested_lists(100_000))
    bad = tmp_path / "deep.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["stats", "--corpus", str(bad), "--vocab", "propara"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {bad}:2: bad JSON: ")


# Nesting too deep for the JSON parser, and nesting it parses but too deep
# for reading scores out of lists of lists.
@pytest.mark.parametrize("depth, message", [(100_000, "bad JSON"), (600, "bad model file")])
def test_deeply_nested_model_exits_two_naming_it(tmp_path, capsys, depth, message):
    payload = json.loads(MODEL_PROPARA.read_text())
    payload["start_scores"] = None
    model = tmp_path / "deep.json"
    model.write_text(json.dumps(payload).replace('"start_scores": null',
                                                 '"start_scores": ' + _nested_lists(depth)))
    code = main(["decode", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                 "--model", str(model), "--out", str(tmp_path / "out.jsonl")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {model}: {message}: ")


@pytest.mark.parametrize("command", ["pipeline", "tune"])
def test_missing_emissions_log_one_warning(tmp_path, caplog, command):
    emissions = tmp_path / "emissions.jsonl"
    lines = EMISSIONS_PROPARA.read_text().splitlines()
    emissions.write_text("\n".join(lines[:-2]) + "\n")
    missing = [f"{r['procedure_id']}/{r['entity_id']}" for r in map(json.loads, lines[-2:])]
    out = tmp_path / ("run" if command == "pipeline" else "tune.json")
    argv = [command, *_corpus_args(), "--emissions", str(emissions),
            "--model", str(MODEL_PROPARA), "--out", str(out)]
    if command == "tune":
        argv += ["--grid", "0.5:0.6:0.1"]
    assert main(argv) == EXIT_OK
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        f"no emissions for 2 gold track(s), scored as empty tracks, e.g. {', '.join(missing)}"]


def test_tune_prints_best_cell(tmp_path, capsys):
    out = tmp_path / "tune.json"
    code = main([
        "tune", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
        "--model", str(MODEL_PROPARA), "--grid", "0.6:0.8:0.1",
        "--jobs", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"best", "table"}
    assert {"tau_exp", "tau_imp", "macro_f1"} == set(payload["best"])
    assert len(payload["table"]) == 9
    assert "best tau_exp=" in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["nan:1:0.1", "0.1:inf:0.1", "0.1:1:nan"])
def test_non_finite_grid_exits_two(tmp_path, capsys, spec):
    code = main(["tune", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                 "--model", str(MODEL_PROPARA), "--grid", spec,
                 "--out", str(tmp_path / "tune.json")])
    assert code == EXIT_VALIDATION
    assert f"error: bad grid spec {spec!r}" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["-1e308:1e308:1", "0.1:1.5:1e-9"])
def test_oversized_grid_exits_two(tmp_path, capsys, spec):
    code = main(["tune", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                 "--model", str(MODEL_PROPARA), f"--grid={spec}",
                 "--out", str(tmp_path / "tune.json")])
    assert code == EXIT_VALIDATION
    assert (f"error: bad grid spec {spec!r}; it has more than {GRID_MAX_VALUES} values"
            in capsys.readouterr().err)


@pytest.mark.parametrize("spec, values", [
    ("0.1:0.36:0.1", [0.1, 0.2, 0.3]),
    ("0.1:0.3:0.1", [0.1, 0.2, 0.3]),
    ("0.5:0.7:0.1", [0.5, 0.6, 0.7]),
])
def test_grid_stops_at_stop(tmp_path, spec, values):
    """The grid never runs past stop, and keeps a stop that float division
    lands just short of."""
    out = tmp_path / "tune.json"
    assert main(["tune", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                 "--model", str(MODEL_PROPARA), "--grid", spec, "--out", str(out)]) == EXIT_OK
    table = json.loads(out.read_text())["table"]
    assert sorted({row["tau_exp"] for row in table}) == values


def test_tiny_grid_keeps_its_values(tmp_path):
    """Grid values are stepped in decimal, not rounded to a fixed number of
    places, so small positive values stay positive and distinct."""
    out = tmp_path / "tune.json"
    assert main(["tune", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                 "--model", str(MODEL_PROPARA), "--grid", "1e-12:5e-12:1e-12",
                 "--out", str(out)]) == EXIT_OK
    table = json.loads(out.read_text())["table"]
    assert sorted({row["tau_exp"] for row in table}) == [1e-12, 2e-12, 3e-12, 4e-12, 5e-12]


@pytest.mark.parametrize("spec, reason", [
    ("sNaN:1:0.1", "values must be finite"),
    ("0.1:1e400:1", "values must be finite"),
    ("0.1:1.5:1e-999999", f"it has more than {GRID_MAX_VALUES} values"),
    ("1e-2000:1:0.5", "its values need more than 1000 digits"),
    ("1e-99999999999999999999:1:1", "expected start:stop:step"),
    ("0.1:1.5", "expected start:stop:step"),
])
def test_grid_spec_faults_exit_two(tmp_path, capsys, spec, reason):
    code = main(["tune", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                 "--model", str(MODEL_PROPARA), f"--grid={spec}",
                 "--out", str(tmp_path / "tune.json")])
    assert code == EXIT_VALIDATION
    assert f"error: bad grid spec {spec!r}; {reason}" in capsys.readouterr().err
    assert not (tmp_path / "tune.json").exists()


@pytest.mark.parametrize("flag", ["--bias-explicit", "--bias-implicit"])
def test_nan_bias_exits_two_naming_the_key(tmp_path, capsys, flag):
    code = main(["synth", *_corpus_args(), flag, "nan", "--out", str(tmp_path / "e.jsonl")])
    assert code == EXIT_VALIDATION
    key = flag.removeprefix("--bias-")
    assert f"error: corruption_bias[{key!r}] must be >= 0, got nan" in capsys.readouterr().err
    assert not (tmp_path / "e.jsonl").exists()


def test_negative_synth_seed_exits_two(tmp_path, capsys):
    code = main(["synth", *_corpus_args(), "--seed", "-1", "--out", str(tmp_path / "e.jsonl")])
    assert code == EXIT_VALIDATION
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "e.jsonl").exists()


@pytest.mark.parametrize("flag", ["--tau-exp", "--tau-imp"])
def test_infinite_tau_exits_two_naming_the_taus(tmp_path, capsys, flag):
    code = main(["pipeline", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                 "--model", str(MODEL_PROPARA), flag, "inf", "--out", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    assert "error: tau values must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_validation_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "p0"}\n')
    code = main(["stats", "--corpus", str(bad), "--vocab", "propara"])
    assert code == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_four(tmp_path, capsys):
    code = main([
        "stats", "--corpus", str(tmp_path / "nope.jsonl"), "--vocab", "propara",
    ])
    assert code == EXIT_IO
    assert "i/o error:" in capsys.readouterr().err


_DECODE_INPUTS = ["--emissions", str(EMISSIONS_PROPARA), "--model", str(MODEL_PROPARA)]
# Each command's inputs beside its corpus, and what it does on a corpus without
# gold: (exit code, error message or None). The scoring commands ask for gold,
# and so does `estimate-transitions`, which counts the gold sequences.
_WITHOUT_GOLD = {
    "stats": ([], EXIT_OK, None),
    "format-qa": (["--out", "{out}"], EXIT_OK, None),
    "estimate-transitions": (["--out", "{out}"], EXIT_VALIDATION,
                             "estimate-transitions needs gold grids in the corpus file"),
    "synth": (["--out", "{out}"], EXIT_OK, None),
    "decode": ([*_DECODE_INPUTS, "--out", "{out}"], EXIT_OK, None),
    "resolve": (["--decoded", "{decoded}", "--emissions", str(EMISSIONS_PROPARA),
                 "--out", "{out}"], EXIT_OK, None),
    "evaluate": (["--predictions", str(CORPUS_PROPARA)], EXIT_VALIDATION,
                 "evaluate needs gold grids in the corpus file"),
    "tune": ([*_DECODE_INPUTS, "--out", "{out}"], EXIT_VALIDATION,
             "tune needs gold grids in the corpus file"),
    "pipeline": ([*_DECODE_INPUTS, "--out", "{out}"], EXIT_VALIDATION,
                 "pipeline needs gold grids in the corpus file"),
}


@pytest.mark.parametrize("command", sorted(_WITHOUT_GOLD))
def test_scoring_without_gold_exits_two(tmp_path, capsys, command):
    corpus = tmp_path / "nogold.jsonl"
    records = [json.loads(line) for line in CORPUS_PROPARA.read_text().splitlines()]
    corpus.write_text("".join(json.dumps({k: v for k, v in r.items() if k != "gold"}) + "\n"
                              for r in records))
    inputs, code, message = _WITHOUT_GOLD[command]
    decoded = tmp_path / "decoded.jsonl"
    if command == "resolve":
        assert main(["decode", *_corpus_args(), *_DECODE_INPUTS, "--out", str(decoded)]) == EXIT_OK
    argv = [arg.format(out=tmp_path / "out", decoded=decoded) for arg in inputs]
    capsys.readouterr()
    assert main([command, "--corpus", str(corpus), "--vocab", "propara", *argv]) == code
    err = capsys.readouterr().err
    if message is None:
        assert "error" not in err
    else:
        assert f"error: {message}" in err


def test_undecodable_model_exits_three(tmp_path, capsys):
    model = load_model(MODEL_PROPARA)
    model.start_scores = np.full(model.vocabulary.size, -np.inf)
    degenerate = tmp_path / "degenerate.json"
    save_model(model, degenerate)
    code = main([
        "decode", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
        "--model", str(degenerate), "--out", str(tmp_path / "decoded.jsonl"),
    ])
    assert code == EXIT_DECODE
    assert "decode error:" in capsys.readouterr().err


def _degenerate_model(path):
    """The fixture model with every start score -inf: no path is legal."""
    model = load_model(MODEL_PROPARA)
    model.start_scores = np.full(model.vocabulary.size, -np.inf)
    save_model(model, path)
    return path


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("command", ["decode", "format-qa"])
def test_failed_command_leaves_output_untouched(tmp_path, capsys, command, existing):
    # decode fails on its first entity (exit 3) and format-qa on its first
    # instance (exit 2), both after opening --out. No partial file is left:
    # a new path stays absent and an existing file keeps its bytes.
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "out.jsonl"
    if existing:
        out.write_bytes(b"earlier output\n")
    if command == "decode":
        argv = ["decode", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
                "--model", str(_degenerate_model(tmp_path / "degenerate.json"))]
        expected = EXIT_DECODE
    else:
        argv = ["format-qa", *_corpus_args(), "--kinds", "bogus"]
        expected = EXIT_VALIDATION
    assert main([*argv, "--out", str(out)]) == expected
    assert capsys.readouterr().err
    assert sorted(out_dir.iterdir()) == ([out] if existing else [])
    if existing:
        assert out.read_bytes() == b"earlier output\n"


def test_undecodable_model_in_tune_names_cell_and_entity(tmp_path, capsys):
    model = load_model(MODEL_PROPARA)
    model.start_scores = np.full(model.vocabulary.size, -np.inf)
    degenerate = tmp_path / "degenerate.json"
    save_model(model, degenerate)
    code = main([
        "tune", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
        "--model", str(degenerate), "--out", str(tmp_path / "tune.json"),
    ])
    assert code == EXIT_DECODE
    first = json.loads(CORPUS_PROPARA.read_text().splitlines()[0])
    assert (f"decode error: grid cell (0.1, 0.1): procedure {first['id']!r}, "
            f"entity {next(iter(first['gold']))!r}: no state sequence"
            ) in capsys.readouterr().err


# A logit of 1e308 overflows once weighted by a tau above 1.79. Line 2 is the
# hydropower entity electricity, unmentioned in step 1 and mentioned in step 5.
@pytest.mark.parametrize("row, cell", [(0, "(0.5, 2.0)"), (4, "(2.0, 0.5)")])
def test_overflow_in_tune_names_the_first_failing_cell(tmp_path, capsys, row, cell):
    # The grid's largest value is 2.5, so a corner of the grid fails before
    # the first failing cell in grid order is reached.
    bad = tmp_path / "emissions.jsonl"
    _rewrite_line(EMISSIONS_PROPARA, bad, 2, "state_logits",
                  lambda rows: [*rows[:row], [1e308, *rows[row][1:]], *rows[row + 1:]])
    code = main(["tune", *_corpus_args(), "--emissions", str(bad), "--model",
                 str(MODEL_PROPARA), "--grid", "0.5:2.5:0.5"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: grid cell {cell}: procedure 'hydropower', entity 'electricity': "
        "emissions must all be finite\n")


def test_relax_rescues_undecodable_model(tmp_path):
    model = load_model(MODEL_PROPARA)
    model.start_scores = np.full(model.vocabulary.size, -np.inf)
    degenerate = tmp_path / "degenerate.json"
    save_model(model, degenerate)
    code = main([
        "decode", *_corpus_args(), "--emissions", str(EMISSIONS_PROPARA),
        "--model", str(degenerate), "--relax",
        "--out", str(tmp_path / "decoded.jsonl"),
    ])
    assert code == EXIT_OK
