"""Mention detection, emission weighting, and constrained decoding."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    CORPUS_PROPARA,
    brute_force_decode,
    fuzz_vocabulary,
    path_score,
    random_model,
    relaxed_path_scores,
    reference_detect_mentions,
    reference_viterbi,
    strict_else_relaxed_reference,
)
from proctrack.corpus import PROPARA, RECIPES, Entity, LocationValue, Procedure, Track
from proctrack.corpus import AnnotationGrid
from proctrack.corpus import load_corpus
from proctrack.decoder import (
    DecodeConfig,
    EmissionSet,
    EmissionTrack,
    argmax_states,
    decode_entity,
    detect_mentions,
    load_emissions,
    rounding_bound,
    save_emissions,
    viterbi,
    weight_emissions,
)
from proctrack.errors import NoValidPathError, ValidationError
from proctrack.synth import make_corpus
from proctrack.transitions import TransitionModel, estimate, fewest_vetoes, validate_path_exists


def _single_track_model():
    track = Track(
        states=("create", "exist"),
        locations=tuple(LocationValue.from_token(t) for t in ("-", "soil", "soil")),
    )
    grid = AnnotationGrid(procedure_id="p0", entries={"e0": track})
    return estimate([grid], PROPARA)


def _procedure(steps, raw_name="water"):
    return Procedure(
        id="p0",
        steps=tuple(steps),
        entities=(Entity.from_raw("e0", raw_name),),
    )


def test_mentions_case_insensitive_word_match():
    procedure = _procedure(
        [
            "Water flows downwards thanks to gravity.",
            "Enters the dam at high pressure.",
            "WATER, spins the turbines!",
            "The underwater cave stays dry.",
        ]
    )
    assert detect_mentions(procedure, procedure.entities[0]) == (
        True,
        False,
        True,
        False,
    )


def test_mentions_any_alias_counts():
    procedure = Procedure(
        id="p0",
        steps=("The H2O cycles.", "Steam rises.", "water falls."),
        entities=(Entity.from_raw("e0", "H2O; water"),),
    )
    assert detect_mentions(procedure, procedure.entities[0]) == (True, False, True)


def test_mentions_multiword_alias():
    procedure = Procedure(
        id="p0",
        steps=("The power plant hums.", "The plant grows."),
        entities=(Entity.from_raw("e0", "power plant"),),
    )
    assert detect_mentions(procedure, procedure.entities[0]) == (True, False)


# Words that exercise tokenisation: mixed case, digits, punctuation inside
# and around words, non-ASCII letters (some lowercase to ASCII ones, such as
# the Kelvin sign), and fragments with no [a-z0-9] token at all.
_WORDS = ("water", "Water", "WATER", "under", "underwater", "h2o", "H2O", "2",
          "o", "salt's", "co-2", "café", "ÉTÉ", "\u212a", "k", "ß", "ss",
          "!!", "...", "–", "é")
_SEPARATORS = (" ", "  ", ", ", ".", "-", "'", "\t")


def _phrases(max_words):
    return st.builds(
        lambda words, seps: "".join(w + s for w, s in zip(words, seps)),
        st.lists(st.sampled_from(_WORDS), min_size=1, max_size=max_words),
        st.lists(st.sampled_from(_SEPARATORS), min_size=max_words, max_size=max_words))


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(_phrases(8) | st.text(min_size=1, max_size=20), min_size=1, max_size=5),
    aliases=st.lists(_phrases(3) | st.text(min_size=1, max_size=6), min_size=1, max_size=3),
)
def test_mentions_match_token_list_reference(steps, aliases):
    steps = [s for s in steps if s.strip()] or ["water"]
    aliases = [a for a in aliases if a.strip()] or ["!!"]
    procedure = Procedure(id="p0", steps=tuple(steps),
                          entities=(Entity("e0", ";".join(aliases), tuple(aliases)),))
    entity = procedure.entities[0]
    assert detect_mentions(procedure, entity) == reference_detect_mentions(procedure, entity)


def test_weighting_worked_example():
    logits = [[2.0, -1.0]]
    config = DecodeConfig(tau_exp=0.6, tau_imp=0.7)
    mentioned = weight_emissions(logits, [True], config)
    unmentioned = weight_emissions(logits, [False], config)
    assert mentioned.tolist() == [[1.2, -0.6]]
    assert unmentioned.tolist() == [[1.4, -0.7]]


def test_weighting_identity_at_unit_taus():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(7, 6))
    weighted = weight_emissions(logits, [True, False] * 3 + [True], DecodeConfig(1.0, 1.0))
    assert np.array_equal(weighted, logits)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
)
def test_weighting_matches_elementwise_recomputation(T, L, seed, tau_exp, tau_imp):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(T, L))
    flags = rng.random(T) < 0.5
    config = DecodeConfig(tau_exp=tau_exp, tau_imp=tau_imp)
    weighted = weight_emissions(logits, flags, config)
    for t in range(T):
        tau = tau_exp if flags[t] else tau_imp
        for j in range(L):
            assert weighted[t, j] == logits[t, j] * tau


def test_config_requires_positive_taus():
    with pytest.raises(ValidationError):
        DecodeConfig(tau_exp=0.0, tau_imp=0.7)
    with pytest.raises(ValidationError):
        DecodeConfig(tau_exp=0.6, tau_imp=-0.1)


def test_viterbi_single_step():
    model = _single_track_model()
    emissions = np.zeros((1, PROPARA.size))
    states, score = viterbi(emissions, model)
    assert states == ["create"]
    assert score == model.start_score("create")


def test_viterbi_prefers_high_scoring_path():
    vocab = fuzz_vocabulary(2)
    model_zero = random_model(np.random.default_rng(0), 2, 3)
    model = type(model_zero)(
        vocabulary=vocab,
        start_scores=np.zeros(2),
        trans_scores=np.zeros((2, 2)),
    )
    emissions = np.array([[10.0, 0.0], [0.0, 10.0], [10.0, 0.0]])
    states, score = viterbi(emissions, model)
    assert states == ["s0", "s1", "s0"]
    assert score == 30.0


def test_viterbi_ties_break_to_lowest_label_index():
    vocab = fuzz_vocabulary(3)
    model = random_model(np.random.default_rng(0), 3, 4)
    model = type(model)(
        vocabulary=vocab,
        start_scores=np.zeros(3),
        trans_scores=np.zeros((3, 3)),
    )
    states, score = viterbi(np.zeros((4, 3)), model)
    assert states == ["s0"] * 4
    assert score == 0.0


def test_viterbi_raises_without_valid_path():
    model = _single_track_model()
    with pytest.raises(NoValidPathError):
        viterbi(np.zeros((3, PROPARA.size)), model)


def test_viterbi_relax_takes_fewest_vetoed_entries():
    """Only create -> exist is legal, so every length-3 path has a vetoed
    entry; those with one tie at score 0, and the lowest label wins."""
    model = _single_track_model()
    states, score, runner_up = viterbi(np.zeros((3, PROPARA.size)), model, relax=True,
                                       runner_up=True)
    assert states == ["create", "exist", "create"]
    assert score == runner_up == model.start_score("create") + model.transition_score(
        "create", "exist")


def test_relax_is_not_outbid_by_a_large_logit():
    """Only s0 may start and every transition is vetoed: s0 s0 has one
    vetoed entry, and s1 s0 two, however large its logit."""
    model = TransitionModel(vocabulary=fuzz_vocabulary(2), start_scores=np.array([0.0, -np.inf]),
                            trans_scores=np.full((2, 2), -np.inf))
    assert viterbi(np.array([[0.0, 1e5], [0.0, 0.0]]), model, relax=True) == (["s0", "s0"], 0.0)


def test_viterbi_rejects_nonfinite_emissions():
    model = _single_track_model()
    emissions = np.zeros((2, PROPARA.size))
    emissions[0, 0] = np.inf
    with pytest.raises(ValidationError):
        viterbi(emissions, model)


def test_viterbi_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        L = int(rng.integers(2, 7))
        T = int(rng.integers(1, 7))
        model = random_model(rng, L, 6)
        emissions = rng.normal(size=(T, L))
        states, score = viterbi(emissions, model)
        _, best = brute_force_decode(emissions, model)
        assert score == best
        indices = [model.vocabulary.index(s) for s in states]
        assert path_score(indices, emissions, model) == best


def test_viterbi_follows_score_arrays_edited_in_place_or_reassigned():
    """The edge lists the kernel builds once per model never go stale."""
    _, grids = make_corpus(30, PROPARA, seed=11)
    model = estimate(grids.values(), PROPARA)
    emissions = np.random.default_rng(5).normal(size=(6, PROPARA.size))
    states, score = viterbi(emissions, model)
    assert (states, score) == reference_viterbi(emissions, model)
    first, second = (PROPARA.index(state) for state in states[:2])
    model.trans_scores[first, second] = -np.inf
    assert viterbi(emissions, model) == reference_viterbi(emissions, model)
    assert viterbi(emissions, model)[0][:2] != states[:2]
    model.start_scores = np.where(np.arange(PROPARA.size) == first, -np.inf,
                                  model.start_scores)
    assert viterbi(emissions, model) == reference_viterbi(emissions, model)
    assert viterbi(emissions, model)[0][0] != states[0]


def _kernel_models():
    models = []
    for vocabulary in (PROPARA, RECIPES):
        _, grids = make_corpus(30, vocabulary, seed=11)
        model = estimate(grids.values(), vocabulary)
        models.append(model)
        models.append(TransitionModel(
            vocabulary=vocabulary,
            start_scores=np.full(vocabulary.size, -np.inf),
            trans_scores=model.trans_scores,
        ))
    return models


KERNEL_MODELS = _kernel_models()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(range(len(KERNEL_MODELS))),
    st.integers(min_value=1, max_value=13),
    st.sampled_from([1.0, 1e4, 3e4]),
    st.booleans(),
    st.data(),
)
def test_viterbi_matches_numpy_reference(which, n_steps, scale, relax, data):
    """Labels and score equal the numpy loop's, ties and large logits
    included; a model with no finite start raises in both unless relaxed,
    and a relaxed decode is the relaxed loop's only when the strict one has
    no path."""
    model = KERNEL_MODELS[which]
    size = model.vocabulary.size
    logits = data.draw(st.lists(st.integers(-2, 2), min_size=n_steps * size,
                                max_size=n_steps * size))
    emissions = np.array(logits, dtype=float).reshape(n_steps, size) * scale
    try:
        expected = strict_else_relaxed_reference(emissions, model, relax)
    except NoValidPathError:
        with pytest.raises(NoValidPathError):
            viterbi(emissions, model, relax=relax)
        return
    states, score = viterbi(emissions, model, relax=relax)
    assert states == expected[0]
    assert score == expected[1]
    assert type(score) is float


# The kernel models that veto some transition yet have a legal path of the
# longest length drawn below.
VETOING_MODELS = [model for model in KERNEL_MODELS
                  if np.isneginf(model.trans_scores).any()
                  and validate_path_exists(model, 13)]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(range(len(VETOING_MODELS))),
    st.integers(min_value=9, max_value=13),
    st.sampled_from([1.0, 1e3, 5e3, 1e4, 1e5, 1e6]),
    st.data(),
)
def test_relax_changes_nothing_while_a_legal_path_exists(which, n_steps, scale, data):
    """A relaxed decode never takes a vetoed edge when the strict decode
    finds a path, however large the logits."""
    model = VETOING_MODELS[which]
    size = model.vocabulary.size
    logits = data.draw(st.lists(st.floats(-1, 1), min_size=n_steps * size,
                                max_size=n_steps * size))
    emissions = np.array(logits).reshape(n_steps, size) * scale
    try:
        strict = viterbi(emissions, model)
    except NoValidPathError:
        return
    assert viterbi(emissions, model, relax=True) == strict


# Model scores for the runner-up test: -inf vetoes, small integers tie.
MODEL_SCORES = st.sampled_from([-np.inf, -1.0, 0.0, 1.0]) | st.floats(-3, 3)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.sampled_from([1.0, 3e4]),
    st.booleans(),
    st.data(),
)
def test_runner_up_matches_exhaustive_enumeration(n_labels, n_steps, integer, scale,
                                                 relax, data):
    """viterbi(..., runner_up=True) gives the default decode's labels and
    score plus the second-highest of all L**T path scores, each summed in
    the decoder's order. Integer logits force exact ties, where the
    runner-up equals the score. When no path is legal, a relaxed decode
    ranks the paths with the fewest vetoed entries, which add 0."""
    model = TransitionModel(
        vocabulary=fuzz_vocabulary(n_labels),
        start_scores=np.array(data.draw(st.lists(MODEL_SCORES, min_size=n_labels,
                                                 max_size=n_labels))),
        trans_scores=np.array(data.draw(st.lists(
            MODEL_SCORES, min_size=n_labels ** 2, max_size=n_labels ** 2))
        ).reshape(n_labels, n_labels))
    entries = st.integers(-2, 2).map(float) if integer else st.floats(-2, 2)
    emissions = np.array(data.draw(st.lists(entries, min_size=n_steps * n_labels,
                                            max_size=n_steps * n_labels))
                         ).reshape(n_steps, n_labels) * scale

    scores = relaxed_path_scores(emissions, model)
    vetoes = min(scores.values())[0]
    if vetoes and not relax:
        with pytest.raises(NoValidPathError):
            viterbi(emissions, model, runner_up=True)
        return
    ranked = sorted((score for count, score in scores.values() if count == vetoes),
                    reverse=True) + [-np.inf]
    states, score, runner_up = viterbi(emissions, model, relax=relax, runner_up=True)
    assert (states, score) == viterbi(emissions, model, relax=relax)
    assert score == ranked[0]
    assert scores[tuple(map(model.vocabulary.index, states))] == (vetoes, score)
    assert runner_up == ranked[1]
    assert type(runner_up) is float


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([1.0, 1e5, 1e9]),
    st.data(),
)
def test_relax_takes_fewest_vetoes_then_best_score(n_labels, n_steps, scale, data):
    """Over all L**T paths of a model that vetoes most entries, the relaxed
    decode's path has the fewest vetoed entries (as `fewest_vetoes` counts
    them), its score is the best at that count and the runner-up the second
    best, however large the logits."""
    entries = st.sampled_from([-np.inf, -np.inf, -np.inf, -1.0, 0.0, 1.5])
    model = TransitionModel(
        vocabulary=fuzz_vocabulary(n_labels),
        start_scores=np.array(data.draw(st.lists(entries, min_size=n_labels,
                                                 max_size=n_labels))),
        trans_scores=np.array(data.draw(st.lists(
            entries, min_size=n_labels ** 2, max_size=n_labels ** 2))
        ).reshape(n_labels, n_labels))
    emissions = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=n_steps * n_labels,
                                            max_size=n_steps * n_labels))
                         ).reshape(n_steps, n_labels) * scale
    scores = relaxed_path_scores(emissions, model)
    vetoes = min(scores.values())[0]
    assert fewest_vetoes(model, n_steps) == vetoes
    ranked = sorted((score for count, score in scores.values() if count == vetoes),
                    reverse=True) + [-np.inf]
    states, score, runner_up = viterbi(emissions, model, relax=True, runner_up=True)
    assert scores[tuple(map(model.vocabulary.index, states))] == (vetoes, score)
    assert (score, runner_up) == (ranked[0], ranked[1])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1e-310, 1e-300, 1e-20, 1.0, 1e3, 1e6]),
    st.data(),
)
def test_rounding_bound_bounds_the_kernels_float_error(n_labels, n_steps, relax, zero_model,
                                                       scale, data):
    """A decode's float score is within rounding_bound of the exact sum of
    its path's start, transition and tau * logit terms. A model whose finite
    scores are all 0, with subnormal logits, leaves only the products'
    underflow as error."""
    entries = st.sampled_from([-np.inf, 0.0]) if zero_model else MODEL_SCORES
    model = TransitionModel(
        vocabulary=fuzz_vocabulary(n_labels),
        start_scores=np.array(data.draw(st.lists(entries, min_size=n_labels,
                                                 max_size=n_labels))),
        trans_scores=np.array(data.draw(st.lists(
            entries, min_size=n_labels ** 2, max_size=n_labels ** 2))
        ).reshape(n_labels, n_labels))
    logits = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=n_steps * n_labels,
                                         max_size=n_steps * n_labels))
                      ).reshape(n_steps, n_labels) * scale
    flags = data.draw(st.lists(st.booleans(), min_size=n_steps, max_size=n_steps))
    taus = st.floats(0, 1.5, exclude_min=True)
    config = DecodeConfig(data.draw(taus), data.draw(taus))
    try:
        states, score = viterbi(weight_emissions(logits, flags, config), model, relax=relax)
    except NoValidPathError:
        return
    # A relaxed decode adds 0 for a vetoed entry.
    start, trans = (np.where(np.isneginf(scores), 0.0, scores)
                    for scores in (model.start_scores, model.trans_scores))
    path = [model.vocabulary.index(state) for state in states]
    exact = (Fraction(start[path[0]])
             + sum(Fraction(trans[p, q]) for p, q in zip(path, path[1:]))
             + sum(Fraction(config.tau_exp if flag else config.tau_imp) * Fraction(row[label])
                   for flag, row, label in zip(flags, logits, path)))
    assert abs(Fraction(score) - exact) <= Fraction(rounding_bound(logits, flags, config,
                                                                    model))


def test_rounding_bound_holds_when_every_addition_rounds_down():
    """Logits picked so that each of the kernel's additions rounds down by
    nearly half an ulp: the error of 8 steps is past gamma(2) of the terms,
    and still within the bound."""
    logits, total = [], 0.0
    for _ in range(8):
        logit = max((1 - k * 2.0 ** -53 for k in range(1, 64)),
                    key=lambda x: Fraction(total) + Fraction(x) - Fraction(total + x))
        logits.append([logit, 0.0])
        total += logit
    model = TransitionModel(vocabulary=fuzz_vocabulary(2), start_scores=np.zeros(2),
                            trans_scores=np.zeros((2, 2)))
    flags, config = [True] * 8, DecodeConfig(1.0, 1.0)
    states, score = viterbi(weight_emissions(logits, flags, config), model)
    assert states == ["s0"] * 8
    exact = sum(Fraction(row[0]) for row in logits)
    error = exact - Fraction(score)
    n = Fraction(2, 2 ** 53)
    assert n / (1 - n) * exact < error          # past gamma(2) * the terms' sum
    assert error <= Fraction(rounding_bound(logits, flags, config, model))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.25, 0.5, 2.0, 3.75]),
)
def test_joint_scaling_preserves_best_path(seed, scale):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(2, 6))
    T = int(rng.integers(1, 6))
    model = random_model(rng, L, 6)
    emissions = rng.normal(size=(T, L))
    base_states, base_score = viterbi(emissions, model)
    scaled = type(model)(
        vocabulary=model.vocabulary,
        start_scores=model.start_scores * scale,
        trans_scores=model.trans_scores * scale,
    )
    scaled_states, scaled_score = viterbi(emissions * scale, scaled)
    assert scaled_states == base_states
    assert scaled_score == pytest.approx(base_score * scale, rel=1e-9)


def test_argmax_states_ties_take_lowest_label():
    logits = np.zeros((2, PROPARA.size))
    logits[1, PROPARA.index("move")] = 1.0
    assert argmax_states(logits, PROPARA) == ["create", "move"]


def test_decode_entity_weights_by_mention():
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    procedure = next(p for p in procedures if p.id == "hydropower")
    entity = procedure.entity("water")
    gold = grids[procedure.id].entries["water"].states
    model = estimate(grids.values(), PROPARA)
    logits = np.full((procedure.num_steps, PROPARA.size), -4.0)
    for t, state in enumerate(gold):
        logits[t, PROPARA.index(state)] = 4.0
    track = EmissionTrack(
        state_logits=logits,
        location_preds=tuple(["unknown"] * (procedure.num_steps + 1)),
    )
    states = decode_entity(procedure, entity, track, model, DecodeConfig())
    assert states == list(gold)


def test_decode_entity_rejects_step_mismatch():
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    procedure = next(p for p in procedures if p.id == "hydropower")
    entity = procedure.entity("water")
    model = estimate(grids.values(), PROPARA)
    track = EmissionTrack(
        state_logits=np.zeros((2, PROPARA.size)),
        location_preds=("?", "?", "?"),
    )
    with pytest.raises(ValidationError):
        decode_entity(procedure, entity, track, model, DecodeConfig())


def test_emissions_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    procedures, grids = load_corpus(CORPUS_PROPARA, PROPARA)
    procedure = procedures[0]
    sets = {
        procedure.id: EmissionSet(
            procedure.id,
            {
                e.id: EmissionTrack(
                    state_logits=rng.normal(size=(procedure.num_steps, PROPARA.size)),
                    location_preds=tuple(["unknown"] * (procedure.num_steps + 1)),
                )
                for e in procedure.entities
            },
        )
    }
    path = tmp_path / "emissions.jsonl"
    save_emissions(sets, path)
    loaded = load_emissions(path, [procedure], PROPARA)
    for entity in procedure.entities:
        original = sets[procedure.id].tracks[entity.id]
        restored = loaded[procedure.id].tracks[entity.id]
        assert np.array_equal(restored.state_logits, original.state_logits)
        assert restored.location_preds == original.location_preds


def test_emissions_load_rejects_duplicates(tmp_path):
    procedures, _ = load_corpus(CORPUS_PROPARA, PROPARA)
    procedure = procedures[0]
    entity = procedure.entities[0]
    line = {
        "procedure_id": procedure.id,
        "entity_id": entity.id,
        "state_logits": [[0.0] * PROPARA.size] * procedure.num_steps,
        "location_preds": ["unknown"] * (procedure.num_steps + 1),
    }
    import json

    path = tmp_path / "emissions.jsonl"
    path.write_text(json.dumps(line) + "\n" + json.dumps(line) + "\n")
    with pytest.raises(ValidationError):
        load_emissions(path, [procedure], PROPARA)
