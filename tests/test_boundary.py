"""The library's error boundary: an entry point given arguments of the shapes
a file or a flag can hold returns or raises a ToolkitError, never another
Python error or a warning."""

import dataclasses
import json
import os
import re
import warnings
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

import numpy as np

from helpers import CORPUS_PROPARA, EMISSIONS_PROPARA, MODEL_PROPARA, reference_detect_mentions
from proctrack.consistency import resolve
from proctrack.corpus import (PROPARA, AnnotationGrid, Entity, LocationValue, Procedure, Track,
                              load_corpus, load_predictions, write_json)
from proctrack.decoder import (DecodeConfig, EmissionSet, EmissionTrack, decode_entity,
                               detect_mentions, load_emissions, rounding_bound, save_emissions,
                               weight_emissions)
from proctrack.errors import ToolkitError, ValidationError
from proctrack.evaluator import eval_document_level
from proctrack.pipeline import report_dict, run_pipeline, to_payload
from proctrack.synth import OracleConfig, synth_emissions
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
FIRST_RECORD = json.loads(CORPUS_PROPARA.read_text().splitlines()[0])


@settings(max_examples=150, deadline=None)
@given(grid=NUMBERS | st.lists(NUMBERS, max_size=4))
@example(grid=[Decimal("1e308")])          # the weighted logits overflow
def test_tune_takes_a_grid_of_any_values_or_raises_validation_error(grid):
    _written_or_rejected(lambda: tune(*FIXTURES, PROPARA, grid=grid),
                         lambda result: write_json(None, dataclasses.asdict(result)))


# A record's "gold" may be missing or null in a prediction file, where it
# means no predicted tracks; any other value that is not an object is an
# error in either file, named by path and line.
@settings(max_examples=100, deadline=None)
@given(gold=JSON_VALUES.filter(lambda value: value is not None and not isinstance(value, dict)))
@example(gold=[])
@example(gold=0)
@example(gold="")
@example(gold=False)
def test_gold_that_is_not_an_object_is_rejected_by_both_loaders(tmp_path_factory, gold):
    path = tmp_path_factory.mktemp("gold") / "records.jsonl"
    path.write_text(json.dumps({**FIRST_RECORD, "gold": gold}) + "\n")
    for load in (lambda: load_corpus(path, PROPARA),
                 lambda: load_predictions(path, FIXTURES[0], PROPARA)):
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}:1: "):
            load()


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


# Every (procedure, entity, track) of the fixture emissions, in file order:
# the first is hydropower's water, six steps long.
TRACKS = [(procedure, procedure.entity(entity_id), track) for procedure in FIXTURES[0]
          for entity_id, track in FIXTURES[2][procedure.id].tracks.items()]


@settings(max_examples=150, deadline=None)
@given(taus=st.tuples(NUMBERS, NUMBERS), which=st.integers(0, len(TRACKS) - 1),
       ones=st.booleans(), scale=st.sampled_from([1.0, -1.0]), power=st.integers(0, 308))
@example(taus=(1e308, 1e308), which=0, ones=False, scale=1.0, power=0)  # weighting overflows
@example(taus=(0.6, 0.7), which=0, ones=True, scale=1.0, power=308)     # a path's score does
def test_decoding_takes_any_taus_and_logit_scale_or_raises_toolkit_error(taus, which, ones,
                                                                        scale, power):
    """One track's logits, or ones in their place, times +-10**power and
    decoded at any taus: `rounding_bound`, `decode_entity` and `run_pipeline`
    give a result or a ToolkitError, never a warning."""
    procedures, grids, emissions, model = FIXTURES
    procedure, entity, track = TRACKS[which]
    logits = np.ones_like(track.state_logits) if ones else track.state_logits
    with np.errstate(over="ignore"):        # a logit past the float range is rejected below
        logits = logits * scale * 10.0 ** power
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = DecodeConfig(*taus)
            track = EmissionTrack(logits, track.location_preds)
        except ValidationError:
            return
        assert rounding_bound(logits, max(config.tau_exp, config.tau_imp), model) >= 0
        scaled = {**emissions, procedure.id: EmissionSet(procedure.id, {
            **emissions[procedure.id].tracks, entity.id: track})}
        try:
            decode_entity(procedure, entity, track, model, config)
            write_json(None, report_dict(run_pipeline(procedures, grids, scaled, model,
                                                      PROPARA, config)))
        except ToolkitError:
            pass


@settings(max_examples=150, deadline=None)
@given(rates=st.tuples(NUMBERS, NUMBERS, NUMBERS, NUMBERS))
@example(rates=(5e-324, 0.0, 0.0, 0.0))     # eps / (L - 1) underflows to 0
def test_synth_emissions_takes_any_oracle_config_or_raises_validation_error(rates):
    state_noise, location_noise, explicit, implicit = rates
    _written_or_rejected(
        lambda: synth_emissions(*FIXTURES[:2], PROPARA, OracleConfig(
            state_noise, location_noise, {"explicit": explicit, "implicit": implicit})),
        lambda sets: save_emissions(sets, os.devnull))


# Text a JSON file can carry: any code point but a lone surrogate. Words and
# letters whose lowercase is ASCII or more than one code point (the Kelvin
# sign, dotted capital I, sharp s) are mixed in, so that aliases do match.
_WORDS = ("water", "Water", "WATER", "h2o", "\u212aelvin", "kelvin", "\u0130", "i", "\u00df",
          "ss", ";", " ", "")
JSON_TEXT = st.lists(st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
                     | st.sampled_from(_WORDS), min_size=1, max_size=5).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(JSON_TEXT, min_size=1, max_size=4), raw_name=JSON_TEXT)
def test_detect_mentions_takes_any_text_or_raises_validation_error(steps, raw_name):
    """Steps and an entity name of any such text fail to build with a
    ValidationError, or give one flag per step, each true exactly when some
    alias's lowercased [a-z0-9]+ tokens run contiguously in the step's."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            entity = Entity.from_raw("e", raw_name)
            procedure = Procedure("p", tuple(steps), (entity,))
        except ValidationError:
            return
        flags = detect_mentions(procedure, entity)
    assert len(flags) == len(steps) and set(map(type, flags)) <= {bool}
    assert flags == reference_detect_mentions(procedure, entity)
