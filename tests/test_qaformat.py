"""Text-to-text QA rendering: choice lines, step indexing, export layout."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import CORPUS_PROPARA, FIXTURES
from proctrack.corpus import PROPARA, RECIPES, load_corpus, normalize_location
from proctrack.errors import ValidationError
from proctrack.qaformat import (
    choices_line,
    export_instances,
    format_location_instance,
    format_state_instance,
    indexed_steps,
    iter_instances,
)
from proctrack.synth import make_corpus


def _hydropower():
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    procedure = next(p for p in procedures if p.id == "hydropower")
    return procedure, grids[procedure.id]


def test_choices_line_propara_presentation_order():
    assert choices_line(PROPARA) == (
        "(a) create (b) exist (c) destroy (d) outside_before "
        "(e) outside_after (f) move"
    )


def test_choices_line_recipes():
    assert choices_line(RECIPES) == "(a) exist (b) absence"


@pytest.mark.parametrize("vocabulary, columns", [
    (PROPARA, {"a": 0, "b": 1, "c": 3, "d": 4, "e": 5, "f": 2}),
    (RECIPES, {"a": 0, "b": 1}),
])
def test_each_choice_letter_names_the_logit_column_the_readme_gives(vocabulary, columns):
    # A model's answer to letter x belongs in this column of `state_logits`.
    letters = dict(re.findall(r"\((\w)\) (\w+)", choices_line(vocabulary)))
    assert {letter: vocabulary.labels.index(label)
            for letter, label in letters.items()} == columns


def test_indexed_steps_prefixes_each_step():
    procedure, _ = _hydropower()
    text = indexed_steps(procedure)
    assert text.startswith("step 1: Water flows downwards")
    assert "step 6: The water leaves the dam at the bottom." in text


# A step that is not an int: a bool would read "in step True", and the
# others would reach a comparison or an index.
NOT_STEPS = [True, 1.5, 2.0, "1", None]


def test_state_instance_rejects_step_zero():
    procedure, grid = _hydropower()
    entity = procedure.entity("water")
    with pytest.raises(ValidationError):
        format_state_instance(procedure, entity, 0, PROPARA, grid)
    with pytest.raises(ValidationError):
        format_state_instance(procedure, entity, procedure.num_steps + 1, PROPARA, grid)
    for t in NOT_STEPS:
        with pytest.raises(ValidationError, match=f"^state step must be an integer, got {t!r}$"):
            format_state_instance(procedure, entity, t, PROPARA, grid)


def test_location_instance_covers_slot_zero_and_t():
    procedure, grid = _hydropower()
    entity = procedure.entity("water")
    first = format_location_instance(procedure, entity, 0, grid)
    last = format_location_instance(procedure, entity, procedure.num_steps, grid)
    assert first.target_text == "unknown"
    assert last.target_text == "unknown"
    with pytest.raises(ValidationError):
        format_location_instance(procedure, entity, procedure.num_steps + 1, grid)
    for t in NOT_STEPS:
        with pytest.raises(ValidationError,
                           match=f"^location slot must be an integer, got {t!r}$"):
            format_location_instance(procedure, entity, t, grid)


def test_an_entity_of_another_procedure_is_rejected_by_both_formats():
    procedure, grid = _hydropower()
    other = make_corpus(1, PROPARA, seed=1)[0][0].entities[0]
    message = f"^procedure 'hydropower' has no entity {other.id!r}$"
    with pytest.raises(ValidationError, match=message):
        format_state_instance(procedure, other, 1, PROPARA, grid)
    with pytest.raises(ValidationError, match=message):
        format_location_instance(procedure, other, 0, grid)


def test_state_instance_matches_frozen_bytes():
    procedure, grid = _hydropower()
    entity = procedure.entity("water")
    instance = format_state_instance(procedure, entity, 2, PROPARA, grid)
    expected_input = (FIXTURES / "qa_state_water_step2.input.txt").read_text()
    expected_target = (FIXTURES / "qa_state_water_step2.target.txt").read_text()
    assert instance.input_text == expected_input
    assert instance.target_text == expected_target


def test_location_instance_matches_frozen_bytes():
    procedure, grid = _hydropower()
    entity = procedure.entity("water")
    instance = format_location_instance(procedure, entity, 2, grid)
    expected_input = (FIXTURES / "qa_location_water_step2.input.txt").read_text()
    expected_target = (FIXTURES / "qa_location_water_step2.target.txt").read_text()
    assert instance.input_text == expected_input
    assert instance.target_text == expected_target


def test_instance_counts_per_entity():
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    instances = list(iter_instances(procedures, grids, PROPARA))
    n_entities = sum(len(p.entities) for p in procedures)
    expected = sum(
        len(p.entities) * (2 * p.num_steps + 1) for p in procedures
    )
    assert len(instances) == expected
    states = [i for i in instances if i.kind == "state"]
    locations = [i for i in instances if i.kind == "location"]
    assert len(states) == sum(len(p.entities) * p.num_steps for p in procedures)
    assert len(locations) == sum(
        len(p.entities) * (p.num_steps + 1) for p in procedures
    )
    assert n_entities == 25


def test_instances_sorted_by_procedure_entity_step_kind():
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    keys = [
        (i.procedure_id, i.entity_id, i.step, i.kind)
        for i in iter_instances(procedures, grids, PROPARA)
    ]
    assert keys == sorted(keys)


@pytest.mark.parametrize("kinds", [("state",), ("location", "state")])
def test_a_kind_named_twice_counts_once(kinds):
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    once = list(iter_instances(procedures, grids, PROPARA, kinds=kinds))
    assert list(iter_instances(procedures, grids, PROPARA, kinds=kinds + kinds[:1])) == once


@pytest.mark.parametrize("kind", ["states", None, ["state"]])
def test_an_unknown_or_unhashable_kind_is_rejected(kind):
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    with pytest.raises(ValidationError, match=f"^unknown instance kind {re.escape(repr(kind))}$"):
        list(iter_instances(procedures, grids, PROPARA, kinds=("state", kind, "state")))


def test_export_writes_jsonl(tmp_path):
    procedures, grids = make_corpus(2, PROPARA, seed=3)
    out = tmp_path / "qa.jsonl"
    count = export_instances(procedures, grids, PROPARA, out)
    lines = out.read_text().splitlines()
    assert len(lines) == count
    record = json.loads(lines[0])
    assert set(record) == {
        "procedure_id", "entity_id", "step", "kind", "input", "target",
    }


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_location_targets_are_escape_words_or_spans(seed):
    procedures, grids = make_corpus(1, PROPARA, seed=seed)
    for instance in iter_instances(procedures, grids, PROPARA, kinds=("location",)):
        target = instance.target_text
        assert target
        if target not in ("none", "unknown"):
            assert normalize_location(target) == target
