"""The library's error boundary: an entry point given arguments of the shapes
a file or a flag can hold returns or raises a ToolkitError, never another
Python error or a warning."""

import dataclasses
import os
import warnings
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import CORPUS_PROPARA, EMISSIONS_PROPARA, MODEL_PROPARA
from proctrack.consistency import resolve
from proctrack.corpus import PROPARA, AnnotationGrid, LocationValue, Track, load_corpus, write_json
from proctrack.decoder import DecodeConfig, EmissionTrack, load_emissions, weight_emissions
from proctrack.errors import ToolkitError, ValidationError
from proctrack.evaluator import eval_document_level
from proctrack.pipeline import to_payload
from proctrack.transitions import estimate, load_model, save_model
from proctrack.tuner import parse_grid, tune
from test_cli import JSON_VALUES
from test_synth import NUMBERS

# Each entry point with arguments it accepts. A draw replaces one argument,
# or one entry of a list argument, with any JSON value.
CALLS = {
    "resolve": (lambda states, preds: resolve(states, preds, PROPARA),
                (["create", "move"], ["-", "soil", "river"])),
    "EmissionTrack": (EmissionTrack, ([[0.5] * PROPARA.size] * 2, ["-", "soil", "river"])),
    "weight_emissions": (lambda logits, flags: weight_emissions(logits, flags, DecodeConfig()),
                         ([[0.5] * PROPARA.size] * 2, [True, False])),
    "parse_grid": (parse_grid, ("0.1:0.5:0.1",)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_json_arguments_give_a_result_or_a_toolkit_error(name, data):
    call, args = CALLS[name]
    args = [list(arg) if isinstance(arg, list) else arg for arg in args]
    index = data.draw(st.integers(0, len(args) - 1), label="argument")
    value = data.draw(JSON_VALUES, label="value")
    if isinstance(args[index], list) and data.draw(st.booleans(), label="one entry"):
        args[index][data.draw(st.integers(0, len(args[index]) - 1), label="entry")] = value
    else:
        args[index] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except ToolkitError:
            pass


# The results below are written as JSON by the CLI. An entry point given
# such arguments raises ValidationError, or returns a result that `write`
# writes through `write_json`, with no warning either way.
def _written_or_rejected(call, write):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except ValidationError:
            return
        write(result)


FIXTURES = load_corpus(CORPUS_PROPARA, PROPARA)
FIXTURES += (load_emissions(EMISSIONS_PROPARA, FIXTURES[0], PROPARA), load_model(MODEL_PROPARA))


@settings(max_examples=150, deadline=None)
@given(grid=NUMBERS | st.lists(NUMBERS, max_size=4))
@example(grid=[Decimal("1e308")])          # the weighted logits overflow
def test_tune_takes_a_grid_of_any_values_or_raises_validation_error(grid):
    _written_or_rejected(lambda: tune(*FIXTURES, PROPARA, grid=grid),
                         lambda result: write_json(None, dataclasses.asdict(result)))


# A gold track of the fixtures' vocabulary, and a draw that replaces its
# labels or locations, or one entry of them, with any JSON value.
TRACK = {"states": ("create", "exist", "move"),
         "locations": tuple(map(LocationValue.from_token, ("-", "soil", "soil", "river")))}


def _track(data):
    fields = dict(TRACK)
    name = data.draw(st.sampled_from(sorted(fields)), label="field")
    value = data.draw(JSON_VALUES, label="value")
    if data.draw(st.booleans(), label="one entry"):
        entries = list(fields[name])
        entries[data.draw(st.integers(0, len(entries) - 1), label="entry")] = value
        value = tuple(entries)
    fields[name] = value
    return Track(**fields)


def _grids(track):
    return {"p": AnnotationGrid("p", {"e": track})}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_estimate_takes_any_track_values_or_raises_validation_error(data):
    _written_or_rejected(lambda: estimate(_grids(_track(data)).values(), PROPARA),
                         lambda model: save_model(model, os.devnull))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), gold=st.booleans())
def test_eval_document_level_takes_any_track_values_or_raises_validation_error(data, gold):
    def call():
        fuzzed, valid = _grids(_track(data)), _grids(Track(**TRACK))
        return eval_document_level(*((fuzzed, valid) if gold else (valid, fuzzed)))

    _written_or_rejected(call, lambda report: write_json(None, to_payload(report)))
