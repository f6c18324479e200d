"""Synthetic corpus generator and noisy emission oracle."""

import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_propara_track, reference_recipes_track
from proctrack import synth
from proctrack.corpus import PROPARA, RECIPES, grid_violations
from proctrack.decoder import DecodeConfig, argmax_states, detect_mentions, save_emissions
from proctrack.errors import ValidationError
from proctrack.synth import OracleConfig, make_corpus, synth_emissions
from test_cli import JSON_VALUES


def test_make_corpus_is_deterministic():
    a_procs, a_grids = make_corpus(6, PROPARA, seed=3)
    b_procs, b_grids = make_corpus(6, PROPARA, seed=3)
    assert a_procs == b_procs
    for procedure in a_procs:
        assert a_grids[procedure.id].entries == b_grids[procedure.id].entries
    c_procs, _ = make_corpus(6, PROPARA, seed=4)
    assert c_procs != a_procs


def test_make_corpus_rejects_a_negative_seed():
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        make_corpus(6, PROPARA, seed=-1)


@pytest.mark.parametrize("n_procedures, seed, message", [
    ("3", 1, "n_procedures must be an integer, got '3'"),
    (2.0, 1, "n_procedures must be an integer, got 2.0"),
    (0, 1, "n_procedures must be >= 1, got 0"),
    (3, 1.5, "seed must be an integer, got 1.5"),
    (3, "a", "seed must be an integer, got 'a'"),
    (True, 1, "n_procedures must be an integer, got True"),
    (3, False, "seed must be an integer, got False"),
])
def test_make_corpus_rejects_a_non_integer_count_or_seed(n_procedures, seed, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        make_corpus(n_procedures, PROPARA, seed)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_generated_gold_is_always_consistent(seed):
    for vocabulary in (PROPARA, RECIPES):
        procedures, grids = make_corpus(3, vocabulary, seed=seed)
        assert len(procedures) == 3
        for procedure in procedures:
            assert not grid_violations(grids[procedure.id], vocabulary)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       T=st.integers(min_value=9, max_value=13),
       flavor=st.sampled_from(["propara", "recipes"]))
def test_lifecycle_samplers_match_reference(seed, T, flavor):
    sample, reference = {
        "propara": (synth._propara_track, reference_propara_track),
        "recipes": (synth._recipes_track, reference_recipes_track),
    }[flavor]
    locations = synth._LOCATION_WORDS[flavor]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):         # one generator, many lifecycles, as make_corpus draws them
        states, slots, events = sample(rng, T, locations)
        ref_states, ref_slots, ref_events = reference(ref_rng, T, locations)
        assert states == ref_states
        assert slots == ref_slots
        assert list(events.items()) == list(ref_events.items())
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_generated_procedures_have_bounded_length():
    procedures, _ = make_corpus(30, PROPARA, seed=0)
    for procedure in procedures:
        assert 9 <= procedure.num_steps <= 13
        assert len(procedure.entities) >= 1


def test_mentions_follow_generated_text():
    procedures, grids = make_corpus(10, PROPARA, seed=1)
    saw_true = saw_false = False
    for procedure in procedures:
        for entity in procedure.entities:
            flags = detect_mentions(procedure, entity)
            saw_true = saw_true or any(flags)
            saw_false = saw_false or not all(flags)
    assert saw_true and saw_false


def test_oracle_config_validates_rates():
    with pytest.raises(ValidationError):
        OracleConfig(state_noise=1.0)
    with pytest.raises(ValidationError):
        OracleConfig(state_noise=-0.1)
    with pytest.raises(ValidationError):
        OracleConfig(corruption_bias={"weekend": 0.1})
    with pytest.raises(ValidationError):
        OracleConfig(corruption_bias={"even": 0.05})
    with pytest.raises(ValidationError):
        OracleConfig(corruption_bias={"implicit": -0.2})
    with pytest.raises(ValidationError):
        OracleConfig(state_noise=0.8, corruption_bias={"implicit": 0.3})
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        OracleConfig(seed=-1)
    for bad in ({"state_noise": "a"}, {"location_noise": None},
                {"corruption_bias": {"implicit": "a"}}, {"corruption_bias": [1]},
                {"corruption_bias": []}, {"corruption_bias": 0}, {"corruption_bias": ""},
                {"seed": "a"}, {"seed": 1.5}, {"state_noise": Decimal("NaN")},
                {"location_noise": Decimal("sNaN")}, {"state_noise": False},
                {"location_noise": np.bool_(False)}, {"corruption_bias": {"implicit": False}}):
        with pytest.raises(ValidationError):
            OracleConfig(**bad)


@pytest.mark.parametrize("bias", [{}, {"explicit": 5e-324}, {"implicit": 5e-324}])
def test_a_rate_too_small_to_spread_over_the_wrong_labels_raises_validation_error(bias):
    # eps / (L - 1) underflows to 0 on propara's six labels, but not on
    # recipes' two, whose one wrong label takes all of eps.
    config = OracleConfig(state_noise=0.0 if bias else 5e-324, corruption_bias=bias)
    procedures, grids = make_corpus(3, PROPARA, seed=2)
    with pytest.raises(ValidationError, match=re.escape(
            "state noise 5e-324 is too small to spread over the 5 wrong labels of 6")):
        synth_emissions(procedures, grids, PROPARA, config)
    procedures, grids = make_corpus(3, RECIPES, seed=2)
    sets = synth_emissions(procedures, grids, RECIPES, config)
    logits = np.concatenate([track.state_logits for s in sets.values()
                             for track in s.tracks.values()])
    assert np.isfinite(logits).all()


def test_effective_noise_composes_bias_terms():
    config = OracleConfig(state_noise=0.1, corruption_bias={"implicit": 0.2})
    assert config.effective_state_noise(True) == pytest.approx(0.1)
    assert config.effective_state_noise(False) == pytest.approx(0.3)


@pytest.mark.parametrize("field", ["state_noise", "location_noise", "explicit", "implicit"])
@pytest.mark.parametrize("rate", [Decimal("0.1"), Fraction(1, 10), np.float32(0.1)],
                         ids=["Decimal", "Fraction", "float32"])
def test_a_rate_of_any_real_type_gives_the_emissions_of_its_float(tmp_path, field, rate):
    procedures, grids = make_corpus(8, PROPARA, seed=8)

    def emissions(value):
        rates = ({"corruption_bias": {field: value}} if field in ("explicit", "implicit")
                 else {field: value})
        config = OracleConfig(seed=5, **rates)
        assert type(config.effective_state_noise(field != "implicit")) is float
        path = tmp_path / f"{type(value).__name__}.jsonl"
        save_emissions(synth_emissions(procedures, grids, PROPARA, config), path)
        return path.read_bytes()

    assert emissions(rate) == emissions(float(rate))


# Each numeric field of the two configs takes what a file or a flag can hold,
# plus the other real types a library caller may pass. Half the draws are
# rates of each type in [0, 0.25], so that many drawn configs are valid.
RATES = st.one_of(st.integers(0, 0), st.floats(0, 0.25), st.decimals(0, "0.25"),
                  st.fractions(0, "1/4"), st.builds(np.float16, st.floats(0, 0.25, width=16)),
                  st.builds(np.float32, st.floats(0, 0.25, width=32)),
                  st.builds(np.float64, st.floats(0, 0.25)))
NUMBERS = RATES | st.one_of(
    JSON_VALUES, st.decimals(), st.fractions(), st.builds(np.float16, st.floats(width=16)),
    st.builds(np.float32, st.floats(width=32)), st.builds(np.float64, st.floats()),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)), st.builds(np.bool_, st.booleans()),
    st.builds(np.complex128, st.complex_numbers()))


@settings(max_examples=300, deadline=None)
@given(rates=st.tuples(NUMBERS, NUMBERS, st.integers(0, 9) | NUMBERS, NUMBERS),
       bias=st.none() | JSON_VALUES | st.dictionaries(
           st.sampled_from(["explicit", "implicit"]) | st.text(max_size=3), NUMBERS, max_size=2))
def test_configs_take_any_number_or_raise_validation_error(rates, bias):
    state_noise, location_noise, seed, tau = rates
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = OracleConfig(state_noise, location_noise, bias, seed)
        except ValidationError:
            pass
        else:
            # The config holds the values its checks produced.
            assert type(config.seed) is int
            assert {type(config.state_noise), type(config.location_noise),
                    *map(type, config.corruption_bias.values())} == {float}
            for mentioned in (True, False):
                noise = config.effective_state_noise(mentioned)
                assert type(noise) is float and 0 <= noise < 1
        for taus in ((tau, 0.7), (0.6, tau)):
            try:
                DecodeConfig(*taus)
            except ValidationError:
                pass


def test_noiseless_oracle_recovers_gold_by_argmax():
    procedures, grids = make_corpus(5, PROPARA, seed=8)
    sets = synth_emissions(procedures, grids, PROPARA, OracleConfig(seed=0))
    for procedure in procedures:
        for entity_id, track in grids[procedure.id].entries.items():
            emission = sets[procedure.id].tracks[entity_id]
            assert argmax_states(emission.state_logits, PROPARA) == list(track.states)
            assert set(np.unique(emission.state_logits)) <= {10.0, -10.0}
            assert emission.location_preds == tuple(
                loc.answer_text() for loc in track.locations
            )


def test_noisy_oracle_rows_encode_channel_probabilities():
    procedures, grids = make_corpus(5, PROPARA, seed=8)
    config = OracleConfig(state_noise=0.1, seed=0)
    sets = synth_emissions(procedures, grids, PROPARA, config)
    hi = math.log(1.0 - 0.1)
    lo = math.log(0.1 / (PROPARA.size - 1))
    for emission_set in sets.values():
        for track in emission_set.tracks.values():
            for row in track.state_logits:
                values = sorted(set(row.tolist()))
                assert values == pytest.approx([lo, hi], abs=1e-12)
                assert (row == row.max()).sum() == 1


def test_oracle_is_deterministic_and_seed_sensitive():
    procedures, grids = make_corpus(5, PROPARA, seed=8)
    config = OracleConfig(state_noise=0.2, location_noise=0.2, seed=5)
    a = synth_emissions(procedures, grids, PROPARA, config)
    b = synth_emissions(procedures, grids, PROPARA, config)
    for pid in a:
        for eid in a[pid].tracks:
            assert np.array_equal(
                a[pid].tracks[eid].state_logits, b[pid].tracks[eid].state_logits
            )
            assert a[pid].tracks[eid].location_preds == b[pid].tracks[eid].location_preds
    other = synth_emissions(
        procedures, grids, PROPARA,
        OracleConfig(state_noise=0.2, location_noise=0.2, seed=6),
    )
    assert any(
        not np.array_equal(
            a[pid].tracks[eid].state_logits, other[pid].tracks[eid].state_logits
        )
        for pid in a
        for eid in a[pid].tracks
    )


def test_noise_rate_is_approximately_honored():
    procedures, grids = make_corpus(60, PROPARA, seed=2)
    config = OracleConfig(state_noise=0.25, seed=9)
    sets = synth_emissions(procedures, grids, PROPARA, config)
    wrong = total = 0
    for procedure in procedures:
        for entity_id, track in grids[procedure.id].entries.items():
            observed = argmax_states(
                sets[procedure.id].tracks[entity_id].state_logits, PROPARA
            )
            for got, want in zip(observed, track.states):
                total += 1
                wrong += got != want
    assert wrong / total == pytest.approx(0.25, abs=0.03)


def test_bias_concentrates_noise_on_implicit_steps():
    procedures, grids = make_corpus(60, PROPARA, seed=2)
    config = OracleConfig(
        state_noise=0.05, corruption_bias={"implicit": 0.30}, seed=9
    )
    sets = synth_emissions(procedures, grids, PROPARA, config)
    wrong = {True: 0, False: 0}
    total = {True: 0, False: 0}
    for procedure in procedures:
        for entity in procedure.entities:
            flags = detect_mentions(procedure, entity)
            track = grids[procedure.id].entries[entity.id]
            observed = argmax_states(
                sets[procedure.id].tracks[entity.id].state_logits, PROPARA
            )
            for flag, got, want in zip(flags, observed, track.states):
                total[flag] += 1
                wrong[flag] += got != want
    explicit_rate = wrong[True] / total[True]
    implicit_rate = wrong[False] / total[False]
    assert explicit_rate == pytest.approx(0.05, abs=0.03)
    assert implicit_rate == pytest.approx(0.35, abs=0.04)
