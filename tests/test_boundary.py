"""The library's error boundary: an entry point given arguments of the shapes
a file or a flag can hold returns or raises a ToolkitError, never another
Python error or a warning."""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from proctrack.consistency import resolve
from proctrack.corpus import PROPARA
from proctrack.decoder import DecodeConfig, EmissionTrack, weight_emissions
from proctrack.errors import ToolkitError
from proctrack.tuner import parse_grid
from test_cli import JSON_VALUES

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
