"""Mention detection, emission weighting, and constrained decoding."""

import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    CORPUS_PROPARA,
    EMISSIONS_PROPARA,
    MODEL_PROPARA,
    brute_force_decode,
    fuzz_vocabulary,
    path_score,
    random_model,
    relaxed_path_scores,
    reference_detect_mentions,
    reference_viterbi,
    strict_else_relaxed_reference,
)
from proctrack.corpus import (PROPARA, RECIPES, Entity, LocationValue, Procedure,
                              StateVocabulary, Track)
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
from proctrack.transitions import (TransitionModel, estimate, load_model, validate_path_exists,
                                   veto_counts)


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
    # A real number beyond a float, a Decimal NaN or one that converts to inf
    # or 0 is no tau either, and nor is a bool, which float() reads as 1 or 0.
    for taus in ((math.inf, 0.7), (0.6, math.inf), (math.nan, 0.7), ("a", 0.7), ("0.5", 0.7),
                 (10 ** 400, 0.7), (Decimal("1e400"), 0.7), (0.6, Decimal("1e-400")),
                 (Decimal("NaN"), 0.7), (0.6, Decimal("sNaN")), (True, True), (0.6, True),
                 (np.bool_(True), 0.7)):
        with pytest.raises(ValidationError, match="tau values must be finite and positive"):
            DecodeConfig(*taus)


def test_config_holds_the_floats_of_its_taus():
    config = DecodeConfig(Decimal("0.6"), Fraction(7, 10))
    assert (config.tau_exp, config.tau_imp) == (0.6, 0.7)
    assert type(config.tau_exp) is float and type(config.tau_imp) is float
    # The error still quotes the values the caller gave.
    with pytest.raises(ValidationError, match=r"got \(-1/2, 0.7\)"):
        DecodeConfig(Fraction(-1, 2), 0.7)


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
    """`viterbi` reads the model's score arrays on every call, so an edit in
    place or a new array shows in the next decode."""
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
    decode's path has the fewest vetoed entries (as `veto_counts` counts
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
    assert veto_counts(model, n_steps)[-1].min() == vetoes
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
    bound = rounding_bound(logits, max(config.tau_exp, config.tau_imp), model)
    assert abs(Fraction(score) - exact) <= Fraction(bound)


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
    assert error <= Fraction(rounding_bound(logits, 1.0, model))


def test_rounding_bound_is_infinite_when_the_logit_sum_overflows():
    model = TransitionModel(vocabulary=PROPARA, start_scores=np.zeros(6),
                            trans_scores=np.zeros((6, 6)))
    assert rounding_bound(np.full((3, 6), 1e308), 1.0, model) == math.inf


def test_a_best_path_whose_score_overflows_raises_validation_error():
    """To +inf or -inf, strict or relaxed: a -inf best score is a missing
    path (NoValidPathError) only when every path takes a veto."""
    overflows = "the best path's score overflows a float"
    model = TransitionModel(vocabulary=fuzz_vocabulary(2), start_scores=np.zeros(2),
                            trans_scores=np.zeros((2, 2)))
    assert viterbi(np.full((2, 2), 8e307), model)[1] == 1.6e308
    for relax in (False, True):
        with pytest.raises(ValidationError, match=overflows):
            viterbi(np.full((3, 2), 8e307), model, relax=relax)
        with pytest.raises(ValidationError, match=overflows):
            viterbi(np.full((6, 6), -1e308), load_model(MODEL_PROPARA), relax=relax)
    vetoing = TransitionModel(vocabulary=fuzz_vocabulary(2), start_scores=np.zeros(2),
                              trans_scores=np.full((2, 2), -np.inf))
    assert viterbi(np.full((2, 2), -8e307), vetoing, relax=True) == (["s0", "s0"], -1.6e308)
    with pytest.raises(NoValidPathError, match="no state sequence of length 3"):
        viterbi(np.full((3, 2), -8e307), vetoing)
    with pytest.raises(ValidationError, match=overflows):
        viterbi(np.full((3, 2), -8e307), vetoing, relax=True)


def _permuted(model, order):
    """`model` with its labels in `order` (a permutation of label indices)."""
    vocabulary = model.vocabulary
    return TransitionModel(
        vocabulary=StateVocabulary(vocabulary.name, tuple(vocabulary.labels[i] for i in order),
                                   vocabulary.nonexistent_states),
        start_scores=model.start_scores[order],
        trans_scores=model.trans_scores[np.ix_(order, order)])


def _outcome(decode):
    """The repr of what `decode()` returns, or NoValidPathError: equal reprs
    hold bit-equal floats, 0.0 and -0.0 apart."""
    try:
        return repr(decode())
    except NoValidPathError:
        return NoValidPathError


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
    st.sampled_from([0.0, 0.2, 0.5, 0.8]),
    st.data(),
)
def test_decoding_is_equivariant_under_label_permutation(n_labels, n_steps, seed, veto_rate,
                                                        data):
    """Reordering the labels (logit columns, start scores, transition rows
    and columns) changes no decoded label, score or runner-up bit, strict or
    relaxed, nor whether a decode has no legal path. Random normal scores
    leave no tie between path sums, so the lowest-index tie-break never
    decides."""
    rng = np.random.default_rng(seed)
    start, trans = rng.normal(size=n_labels), rng.normal(size=(n_labels, n_labels))
    start[rng.random(n_labels) < veto_rate] = -np.inf
    trans[rng.random((n_labels, n_labels)) < veto_rate] = -np.inf
    model = TransitionModel(vocabulary=fuzz_vocabulary(n_labels), start_scores=start,
                            trans_scores=trans)
    logits = rng.normal(size=(n_steps, n_labels))
    order = data.draw(st.permutations(range(n_labels)), label="order")
    permuted = _permuted(model, order)
    for relax in (False, True):
        assert (_outcome(lambda: viterbi(logits, model, relax=relax, runner_up=True))
                == _outcome(lambda: viterbi(logits[:, order], permuted, relax=relax,
                                            runner_up=True)))
    procedure = _procedure(data.draw(st.lists(st.sampled_from(["Water flows.", "Salt stays."]),
                                              min_size=n_steps, max_size=n_steps)))
    entity = procedure.entities[0]
    preds = ["-"] * (n_steps + 1)
    decoded = [_outcome(lambda: decode_entity(procedure, entity, EmissionTrack(scores, preds),
                                              which, DecodeConfig()))
               for scores, which in ((logits, model), (logits[:, order], permuted))]
    assert decoded[0] == decoded[1]


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


_ZERO_MODEL = TransitionModel(PROPARA, np.zeros(PROPARA.size), np.zeros((PROPARA.size,) * 2))


def _decode_entity(logits):
    """decode_entity on a two-step track whose logits were set after it was built."""
    track = EmissionTrack(np.zeros((2, PROPARA.size)), ("?",) * 3)
    track.state_logits = logits
    procedure = _procedure(["water flows", "sand sits"])
    return decode_entity(procedure, procedure.entities[0], track, _ZERO_MODEL, DecodeConfig())


# Every entry point that takes logits, with the name its error gives them.
LOGIT_CALLS = [
    pytest.param(lambda logits: argmax_states(logits, PROPARA), "state_logits",
                 id="argmax_states"),
    pytest.param(lambda logits: weight_emissions(logits, [True, False], DecodeConfig()),
                 "state_logits", id="weight_emissions"),
    pytest.param(lambda logits: viterbi(logits, _ZERO_MODEL), "emissions", id="viterbi"),
    pytest.param(lambda logits: EmissionTrack(logits, ("?",) * 3).state_logits, "state_logits",
                 id="EmissionTrack"),
    pytest.param(lambda logits: rounding_bound(logits, 1.0, _ZERO_MODEL), "state_logits",
                 id="rounding_bound"),
    pytest.param(_decode_entity, "state_logits", id="decode_entity"),
]


@pytest.mark.parametrize("decode, name", LOGIT_CALLS)
@pytest.mark.parametrize("logits", [
    pytest.param([0.0] * PROPARA.size, id="one-dimensional"),
    pytest.param([[0.0] * PROPARA.size, [0.0] * (PROPARA.size - 1)], id="ragged"),
    pytest.param([["a"] * PROPARA.size], id="strings"),
    pytest.param([[10 ** 400] + [0.0] * (PROPARA.size - 1)], id="too-large-int"),
    # numpy alone reads each of these as floats.
    pytest.param([[0.0] * PROPARA.size, ["0.5"] + [0.0] * (PROPARA.size - 1)],
                 id="json-string-cell"),
    pytest.param([[0.0] * PROPARA.size, [True] + [0.0] * (PROPARA.size - 1)], id="bool-cell"),
    pytest.param(np.ones((2, PROPARA.size), dtype=bool), id="bool-array"),
    pytest.param(np.full((2, PROPARA.size), "0.5"), id="string-array"),
    pytest.param([[Decimal("0.5")] * PROPARA.size] * 2, id="decimal-cells"),
])
def test_logits_that_are_not_a_matrix_are_rejected(decode, name, logits):
    with pytest.raises(ValidationError, match=rf"^{name} must be a \(T, L\) matrix$"):
        decode(logits)


# Per logit fact, logits that break it and the message of each entry point
# that checks it; `decode_entity` leaves columns and finiteness to `viterbi`.
LOGIT_FACTS = {
    "rows": (np.zeros((3, PROPARA.size)), {
        "decode_entity": "state_logits has 3 rows for 2 steps"}),
    "columns": (np.zeros((2, PROPARA.size - 1)), {
        "argmax_states": "state_logits has 5 columns for 6 labels",
        "viterbi": "emissions has 5 columns for 6 labels",
        "decode_entity": "emissions has 5 columns for 6 labels"}),
    "not-finite": (np.array([[math.inf] + [0.0] * (PROPARA.size - 1),
                             [0.0] * (PROPARA.size - 1) + [math.nan]]), {
        "EmissionTrack": "state_logits must all be finite",
        "viterbi": "emissions must all be finite",
        "decode_entity": "emissions must all be finite"}),
}
_FACT_WORDING = r"(state_logits|emissions) (has \d+ (rows|columns) for|must all be finite)"


@pytest.mark.parametrize("fact", LOGIT_FACTS)
@pytest.mark.parametrize("entry", [call.id for call in LOGIT_CALLS])
def test_each_logit_fact_has_one_wording_at_every_entry_point(entry, fact):
    decode = next(call.values[0] for call in LOGIT_CALLS if call.id == entry)
    logits, messages = LOGIT_FACTS[fact]
    if entry in messages:
        with pytest.raises(ValidationError, match=f"^{re.escape(messages[entry])}$"):
            decode(logits)
        return
    try:                    # an entry point that does not check the fact
        decode(logits)
    except ValidationError as exc:
        assert not re.match(_FACT_WORDING, str(exc)), exc


@pytest.mark.parametrize("decode, name", LOGIT_CALLS)
def test_an_int_array_and_rows_of_numpy_floats_are_logits(decode, name):
    """Each gives the result of the float matrix with the same values."""
    ints = [[1, -1, 2, 0, -3, 1], [0, 2, -2, 1, 3, -1]]
    halves = [[0.5, -1.0, 2.5, 0.25, -0.5, 1.0], [1.5, 0.0, -2.0, 0.75, 2.5, -1.5]]
    for logits, floats in ((np.array(ints), np.array(ints, dtype=float)),
                           ([list(map(np.float32, row)) for row in halves], np.array(halves)),
                           ([list(map(np.float64, row)) for row in halves], np.array(halves)),
                           (list(np.array(halves)), np.array(halves))):
        assert repr(decode(logits)) == repr(decode(floats))


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
                    location_preds=["none"] + ["soil"] * procedure.num_steps,
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
        assert type(original.location_preds) is tuple


@pytest.mark.parametrize("preds", [list(range(7)), ["-"] * 6 + [None], "-" * 7,
                                   ("-",) * 6 + (b"-",), None, 7])
def test_emission_track_rejects_location_predictions_that_are_not_strings(preds):
    # The one check of location_preds: what a track is built with, a file of
    # it can be loaded from.
    with pytest.raises(ValidationError, match="'location_preds' must be a list of strings"):
        EmissionTrack(np.zeros((6, 6)), preds)


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


def _set_cell(record, value):
    record["state_logits"][0][0] = value


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda record: _set_cell(record, "0.5"), "state_logits must be a (T, L) matrix",
                 id="string-logit"),
    pytest.param(lambda record: _set_cell(record, True), "state_logits must be a (T, L) matrix",
                 id="bool-logit"),
    pytest.param(lambda record: record.update(entity_id="ghost"),
                 "procedure 'hydropower' has no entity 'ghost'", id="unknown-entity"),
    pytest.param(lambda record: record.update(state_logits=record["state_logits"][1:],
                                              location_preds=record["location_preds"][1:]),
                 "state_logits has 5 rows for 6 steps", id="rows"),
    pytest.param(lambda record: record.update(
        state_logits=[row[1:] for row in record["state_logits"]]),
                 "state_logits has 5 columns for 6 labels", id="columns"),
    pytest.param(lambda record: _set_cell(record, math.inf), "state_logits must all be finite",
                 id="not-finite"),
])
def test_emissions_load_names_the_line_of_a_bad_logit_or_entity(tmp_path, edit, message):
    procedures, _ = load_corpus(CORPUS_PROPARA, PROPARA)
    lines = EMISSIONS_PROPARA.read_text().splitlines()
    record = json.loads(lines[1])
    edit(record)
    path = tmp_path / "emissions.jsonl"
    path.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        load_emissions(path, procedures, PROPARA)
