"""Shared test utilities: brute-force decoding oracle, reference
implementations of mention detection, the decoder kernel, the tuner and the
lifecycle samplers, the tune certificate audit, and random model builders."""

from __future__ import annotations

import itertools
import re
from pathlib import Path

import numpy as np

from proctrack.consistency import resolve
from proctrack.corpus import (NO_LOCATION, NONEXISTENT, PROPARA, SPAN, UNKNOWN_LOCATION,
                              AnnotationGrid, LocationValue, StateVocabulary)
from proctrack.decoder import DecodeConfig, detect_mentions, viterbi, weight_emissions
from proctrack.errors import NoValidPathError
from proctrack.evaluator import eval_document_level
from proctrack.pipeline import join
from proctrack.synth import OracleConfig, _pick, _sample_event_steps, make_corpus, synth_emissions
from proctrack.transitions import TransitionModel, estimate
from proctrack.tuner import TuneResult, _entity_paths, default_grid

FIXTURES = Path(__file__).parent / "fixtures"

CORPUS_PROPARA = FIXTURES / "corpus_propara.jsonl"
MODEL_PROPARA = FIXTURES / "model_propara.json"
EMISSIONS_PROPARA = FIXTURES / "emissions_propara.jsonl"
GOLDEN_DIR = FIXTURES / "golden"


def brute_force_decode(emissions: np.ndarray, model: TransitionModel):
    """Exhaustive max over all label paths.

    Scores are accumulated left to right, one addition per term, so a path's
    score is bit-identical to the dynamic program's value for that path.
    Returns (best_path, best_score); best_path is None when no path has a
    finite score.
    """
    scores = np.asarray(emissions, dtype=float)
    n_steps, n_labels = scores.shape
    best_path = None
    best = -np.inf
    for path in itertools.product(range(n_labels), repeat=n_steps):
        s = model.start_scores[path[0]] + scores[0, path[0]]
        for t in range(1, n_steps):
            s = s + model.trans_scores[path[t - 1], path[t]] + scores[t, path[t]]
        if s > best:
            best = s
            best_path = path
    return best_path, float(best)


def exhaustive_best_score(emissions: np.ndarray, model: TransitionModel) -> float:
    """Max path score by scoring every one of the L**T label paths.

    Prefix scores are kept for all paths (no pruning); each extension adds
    the transition then the emission, the same association order as
    brute_force_decode and the decoder, so the max is bit-identical.
    """
    scores = np.asarray(emissions, dtype=float)
    n_steps, n_labels = scores.shape
    prefix = model.start_scores + scores[0]
    last = np.arange(n_labels)
    for t in range(1, n_steps):
        prefix = (prefix[:, None] + model.trans_scores[last]) + scores[t][None, :]
        prefix = prefix.reshape(-1)
        last = np.tile(np.arange(n_labels), last.size)
    return float(prefix.max())


def path_score(labels, emissions: np.ndarray, model: TransitionModel) -> float:
    """Score of one label-index path, same accumulation order as the decoder."""
    scores = np.asarray(emissions, dtype=float)
    s = model.start_scores[labels[0]] + scores[0, labels[0]]
    for t in range(1, len(labels)):
        s = s + model.trans_scores[labels[t - 1], labels[t]] + scores[t, labels[t]]
    return float(s)


def relaxed_path_scores(emissions: np.ndarray, model: TransitionModel) -> dict:
    """(vetoed entries, score) of every label-index path, each score summed
    in the decoder's order with 0 for a vetoed (-inf) start or transition."""
    scores = np.asarray(emissions, dtype=float)
    n_steps, n_labels = scores.shape
    start, trans = (np.where(np.isneginf(s), 0.0, s)
                    for s in (model.start_scores, model.trans_scores))
    out = {}
    for path in itertools.product(range(n_labels), repeat=n_steps):
        vetoes = int(np.isneginf(model.start_scores[path[0]])) + sum(
            int(np.isneginf(model.trans_scores[p, q])) for p, q in zip(path, path[1:]))
        total = start[path[0]] + scores[0, path[0]]
        for t in range(1, n_steps):
            total = total + trans[path[t - 1], path[t]] + scores[t, path[t]]
        out[path] = (vetoes, float(total))
    return out


def reference_detect_mentions(procedure, entity) -> tuple[bool, ...]:
    """Mention flags by token lists: a step mentions the entity when some
    alias's [a-z0-9]+ tokens occur as a contiguous run of the step's."""
    def tokens(text):
        return re.findall(r"[a-z0-9]+", text.lower())

    def contains(haystack, needle):
        return bool(needle) and any(
            haystack[i:i + len(needle)] == needle
            for i in range(len(haystack) - len(needle) + 1))

    aliases = [tokens(alias) for alias in entity.aliases]
    return tuple(any(contains(tokens(step), alias) for alias in aliases)
                 for step in procedure.steps)


def reference_viterbi(emissions, model: TransitionModel, relax: bool = False):
    """The decoder's Viterbi as a numpy loop over steps: one (L, L) candidate
    matrix per step. Each state keeps the candidate ranked first by (vetoed
    entries, -score, predecessor), so a strict decode, which counts no
    vetoes, takes the best score and the lowest-index backpointer. With
    relax=True a vetoed start or transition counts 1 and adds 0 to the
    score. Returns (labels, score) like `decoder.viterbi`, without its input
    checks."""
    U = np.asarray(emissions, dtype=float)
    size = model.vocabulary.size
    start, trans = model.start_scores, model.trans_scores
    start_vetoes, trans_vetoes = np.zeros(size, dtype=int), np.zeros((size, size), dtype=int)
    if relax:
        start_vetoes, trans_vetoes = np.isneginf(start) * 1, np.isneginf(trans) * 1
        start, trans = (np.where(np.isneginf(scores), 0.0, scores) for scores in (start, trans))

    def first(vetoes, scores):
        """Per column, the row ranked first by (vetoes, -score, row)."""
        rows = np.broadcast_to(np.arange(len(scores))[:, None], scores.shape)
        return np.lexsort((rows, -scores, vetoes), axis=0)[0]

    T = U.shape[0]
    dp, vetoes = start + U[0], start_vetoes
    backptr = np.zeros((T, size), dtype=int)
    for t in range(1, T):
        cand, cand_vetoes = dp[:, None] + trans, vetoes[:, None] + trans_vetoes
        best_prev = first(cand_vetoes, cand)
        dp = cand[best_prev, np.arange(size)] + U[t]
        vetoes = cand_vetoes[best_prev, np.arange(size)]
        backptr[t] = best_prev

    last = int(first(vetoes[:, None], dp[:, None])[0])
    score = float(dp[last])
    if score == -np.inf:
        raise NoValidPathError(
            f"no state sequence of length {T} has finite score under the model")
    path = [last]
    for t in range(T - 1, 0, -1):
        path.append(int(backptr[t][path[-1]]))
    path.reverse()
    return [model.vocabulary.labels[i] for i in path], score


def strict_else_relaxed_reference(emissions, model: TransitionModel, relax: bool):
    """`reference_viterbi`, relaxed only when the strict decode has no path:
    the contract of `viterbi(..., relax=True)`."""
    try:
        return reference_viterbi(emissions, model)
    except NoValidPathError:
        if not relax:
            raise
        return reference_viterbi(emissions, model, relax=True)


def reference_tune(procedures, gold_grids, emissions, model: TransitionModel,
                   vocabulary: StateVocabulary, grid=None, relax: bool = False):
    """The tuner as a plain per-cell loop: every cell weights, decodes and
    resolves every entity, then scores the whole split in one call."""
    values = sorted(set(grid if grid is not None else default_grid()))
    joined, _ = join(procedures, gold_grids, emissions)
    units = [(procedure.id, entity_id, track,
              detect_mentions(procedure, procedure.entity(entity_id)))
             for procedure, tracks in joined for entity_id, track in tracks]
    rows = []
    for tau_exp in values:
        for tau_imp in values:
            config = DecodeConfig(tau_exp=tau_exp, tau_imp=tau_imp)
            pred_grids: dict[str, AnnotationGrid] = {}
            for proc_id, entity_id, track, flags in units:
                weighted = weight_emissions(track.state_logits, flags, config)
                states, _ = strict_else_relaxed_reference(weighted, model, relax)
                resolved = resolve(states, track.location_preds, vocabulary)
                pred_grids.setdefault(proc_id, AnnotationGrid(proc_id, {})).entries[
                    entity_id] = resolved.track()
            f1 = eval_document_level(gold_grids, pred_grids).macro_f1
            rows.append((tau_exp, tau_imp, f1))
    best = None
    for row in rows:
        if best is None or row[2] > best[2]:
            best = row
    return TuneResult(tau_exp=best[0], tau_imp=best[1], f1=best[2], table=tuple(rows))


def reference_scores(gold, pred, vocabulary: StateVocabulary) -> dict:
    """The integer counts of the three scoring protocols, written from their
    definitions with no code shared with `proctrack.evaluator`. `gold` and
    `pred` map procedure ids to grids; a gold entity without a predicted
    track has no predicted answers. Locations compare by
    `LocationValue.matches`. Returns

    - "document": (n_pred, n_gold, n_correct) for inputs, outputs,
      conversions and moves (ProStruct, Tandon et al. 2018). An input exists
      before the first step and not after the last; an output the reverse. A
      conversion is an entity destroyed at step t where another is created at
      step t, at one place that is not "-". A move is (step, from, to).
    - "sentence": (n_correct, n_scored) for Cat-1, Cat-2 and Cat-3 (ProPara,
      Dalvi et al. 2018), over each gold entity and event (create, destroy,
      move). Cat-1: the event happens in the prediction iff in gold. Cat-2,
      for events in gold: the prediction has it at exactly gold's steps.
      Cat-3, for events in gold: at each of gold's steps, the prediction's
      places (created at slot t, destroyed from slot t - 1, moved from slot
      t - 1 to slot t) match gold's.
    - "location_changes": (n_pred, n_gold, n_correct) over (entity, step t,
      place) where slot t's place does not match slot t - 1's, for the
      recipes vocabulary; else None.
    """
    def tracks(grids):
        return [(pid, eid, track) for pid, grid in grids.items()
                for eid, track in grid.entries.items()]

    def exists(location):
        return location.kind != NONEXISTENT

    def same(a, b):             # two answers: equal, with places compared by `matches`
        return len(a) == len(b) and all(
            x.matches(y) if isinstance(x, LocationValue) else x == y for x, y in zip(a, b))

    def counted(pred_answers, gold_answers):
        correct = sum(any(same(p, g) for g in gold_answers) for p in pred_answers)
        return len(pred_answers), len(gold_answers), correct

    def document(grids):
        answers = {"inputs": [], "outputs": [], "conversions": [], "moves": []}
        for pid, eid, track in tracks(grids):
            before, after = track.locations[0], track.locations[-1]
            if exists(before) and not exists(after):
                answers["inputs"].append((pid, eid))
            if not exists(before) and exists(after):
                answers["outputs"].append((pid, eid))
            for t, state in enumerate(track.states, start=1):
                if state == "move":
                    answers["moves"].append(
                        (pid, eid, t, track.locations[t - 1], track.locations[t]))
            for other_pid, other_eid, other in tracks(grids):
                if other_pid != pid:
                    continue
                for t, (state, other_state) in enumerate(zip(track.states, other.states), 1):
                    place = track.locations[t - 1]
                    if (state == "destroy" and other_state == "create" and exists(place)
                            and place.matches(other.locations[t])):
                        answers["conversions"].append((pid, t, eid, other_eid, place))
        return answers

    gold_answers, pred_answers = document(gold), document(pred)
    result = {"document": [counted(pred_answers[q], gold_answers[q]) for q in
                           ("inputs", "outputs", "conversions", "moves")]}

    def places(track, event, t):
        slots = {"create": [t], "destroy": [t - 1], "move": [t - 1, t]}[event]
        return [track.locations[slot] for slot in slots]

    cats = [[0, 0], [0, 0], [0, 0]]             # [n_correct, n_scored] per category
    for pid, eid, gold_track in tracks(gold):
        pred_track = pred[pid].entries.get(eid) if pid in pred else None
        for event in ("create", "destroy", "move"):
            gold_steps = [t for t, s in enumerate(gold_track.states, 1) if s == event]
            pred_steps = [] if pred_track is None else [
                t for t, s in enumerate(pred_track.states, 1) if s == event]
            cats[0][0] += (len(gold_steps) > 0) == (len(pred_steps) > 0)
            cats[0][1] += 1
            if gold_steps:
                cats[1][0] += pred_steps == gold_steps
                cats[1][1] += 1
                cats[2][0] += pred_track is not None and all(
                    same(places(pred_track, event, t), places(gold_track, event, t))
                    for t in gold_steps)
                cats[2][1] += 1
    result["sentence"] = [tuple(cat) for cat in cats]

    def changes(grids):
        return [(pid, eid, t, track.locations[t]) for pid, eid, track in tracks(grids)
                for t in range(1, len(track.locations))
                if not track.locations[t].matches(track.locations[t - 1])]

    result["location_changes"] = (counted(changes(pred), changes(gold))
                                  if vocabulary.name == "recipes" else None)
    return result


def tune_certificate_mismatches(values, relax: bool, procedures: int, cells: int = 200,
                                seed: int = 7, jitter: bool = True) -> list[tuple]:
    """Audit `tuner._entity_paths` on the grid over the sorted taus `values`,
    where it fills most cells without decoding them: for `cells` cells of
    each entity, drawn with `seed`, its resolved track must equal resolving
    a direct `viterbi` of that cell. Returns (procedure, entity, tau_exp,
    tau_imp) per mismatch.

    The split is `procedures` generated ones with noisy emissions and a model
    estimated on their own gold. With `relax`, the model vetoes every start,
    so each decode is relaxed and ranks only paths with the fewest vetoes.
    The oracle's logits tie across its wrong labels, and a vetoed start adds
    0 to every path, so many relaxed paths tie exactly; a tie is never
    filled, and every tied cell is decoded, which costs time and audits
    nothing. So each logit gets a jitter of about 1e-6 first, unless
    `jitter` is false, which keeps the oracle's exact ties."""
    generated, grids = make_corpus(procedures, PROPARA, seed=seed)
    model = estimate(grids.values(), PROPARA)
    if relax:
        model = TransitionModel(vocabulary=PROPARA, start_scores=np.full(PROPARA.size, -np.inf),
                                trans_scores=model.trans_scores)
    emissions = synth_emissions(generated, grids, PROPARA,
                                OracleConfig(state_noise=0.2, location_noise=0.2, seed=seed + 1))
    rng = np.random.default_rng(seed)
    mismatches = []
    for procedure in generated:
        for entity in procedure.entities:
            track = emissions[procedure.id].tracks[entity.id]
            if jitter:
                track.state_logits = track.state_logits + rng.normal(
                    scale=1e-6, size=track.state_logits.shape)
            resolved, column = _entity_paths(procedure, entity.id, track, values, model,
                                             PROPARA, relax)
            flags = detect_mentions(procedure, entity)
            for cell in rng.choice(len(column), size=min(cells, len(column)), replace=False):
                tau_exp, tau_imp = values[cell // len(values)], values[cell % len(values)]
                weighted = weight_emissions(track.state_logits, flags,
                                            DecodeConfig(tau_exp, tau_imp))
                states, _ = viterbi(weighted, model, relax=relax)
                if resolved[column[cell]] != resolve(states, track.location_preds,
                                                     PROPARA).track():
                    mismatches.append((procedure.id, entity.id, tau_exp, tau_imp))
    return mismatches


# The two lifecycle samplers as they were written before `synth` shared one
# per-step loop between them; the sampler tests compare against these.


def reference_propara_track(rng, T: int, locations: tuple[str, ...]):
    """One lifecycle: outside_before prefix + create, or existing from the
    start; an exist body with isolated moves; optional destroy with an
    outside_after tail. Returns (states, slots, events) where events maps
    step -> (kind, location word or None)."""
    from_start = rng.random() < 0.15
    events: dict[int, tuple[str, str | None]] = {}
    if from_start:
        create = None
        die = int(rng.integers(2, T)) if rng.random() < 0.55 else None
        move_high = die - 2 if die is not None else T
        moves = _sample_event_steps(rng, 2, move_high, (0.40, 0.45, 0.15))
        if rng.random() < 0.5:
            word = _pick(rng, locations)
            start_loc = LocationValue(SPAN, word)
            events[1] = ("intro", word)
        else:
            start_loc = UNKNOWN_LOCATION
    else:
        create = int(rng.integers(2, T))
        die = None
        if create + 1 <= T - 1 and rng.random() < 0.55:
            die = int(rng.integers(create + 1, T))
        move_high = die - 2 if die is not None else T
        moves = _sample_event_steps(rng, create + 2, move_high, (0.60, 0.40))
        start_loc = NO_LOCATION

    states: list[str] = []
    slots: list[LocationValue] = [start_loc]
    current = start_loc
    for t in range(1, T + 1):
        if create is not None and t < create:
            states.append("outside_before")
            slots.append(NO_LOCATION)
        elif create is not None and t == create:
            states.append("create")
            if rng.random() < 0.8:
                word = _pick(rng, locations)
                current = LocationValue(SPAN, word)
                events[t] = ("create", word)
            else:
                current = UNKNOWN_LOCATION
                events[t] = ("create", None)
            slots.append(current)
        elif die is not None and t == die:
            states.append("destroy")
            slots.append(NO_LOCATION)
            events[t] = ("destroy", None)
        elif die is not None and t > die:
            states.append("outside_after")
            slots.append(NO_LOCATION)
        elif t in moves:
            states.append("move")
            word = _pick(rng, locations,
                         exclude=current.text if current.kind == "span" else None)
            current = LocationValue(SPAN, word)
            slots.append(current)
            events[t] = ("move", word)
        else:
            states.append("exist")
            slots.append(current)
            if t not in events and rng.random() < 0.10:
                events[t] = ("note", None)
    return states, slots, events


def reference_recipes_track(rng, T: int, locations: tuple[str, ...]):
    """An ingredient is either present throughout, added mid-procedure,
    consumed mid-procedure, or both; add/consume keep two steps clear of
    either edge so each state run spans at least two steps."""
    # Exist runs are long and absence runs short: adds happen early and
    # consumes late. The estimated exist-run continuation then clearly
    # outweighs the absence-run one, keeping decoded event boundaries
    # pinned to the emissions instead of drifting.
    roll = rng.random()
    add = consume = None
    if roll < 0.55:
        pass
    elif roll < 0.67:
        consume = int(rng.integers(max(3, T - 3), T))
    elif roll < 0.92:
        add = int(rng.integers(3, 7))
    else:
        add = int(rng.integers(3, 6))
        consume = int(rng.integers(add + 2, T))

    events: dict[int, tuple[str, str | None]] = {}
    if add is None:
        if rng.random() < 0.5:
            word = _pick(rng, locations)
            start_loc = LocationValue(SPAN, word)
            events[1] = ("intro", word)
        else:
            start_loc = UNKNOWN_LOCATION
    else:
        start_loc = NO_LOCATION
    move_low = add + 1 if add is not None else 2
    move_high = consume - 1 if consume is not None else T
    moves = _sample_event_steps(rng, move_low, move_high, (0.55, 0.30, 0.15))

    states: list[str] = []
    slots: list[LocationValue] = [start_loc]
    current = start_loc
    for t in range(1, T + 1):
        if add is not None and t < add:
            states.append("absence")
            slots.append(NO_LOCATION)
        elif consume is not None and t >= consume:
            states.append("absence")
            slots.append(NO_LOCATION)
            if t == consume:
                events[t] = ("consume", None)
        elif add is not None and t == add:
            states.append("exist")
            if rng.random() < 0.85:
                word = _pick(rng, locations)
                current = LocationValue(SPAN, word)
                events[t] = ("add", word)
            else:
                current = UNKNOWN_LOCATION
                events[t] = ("add", None)
            slots.append(current)
        elif t in moves:
            states.append("exist")
            word = _pick(rng, locations,
                         exclude=current.text if current.kind == "span" else None)
            current = LocationValue(SPAN, word)
            slots.append(current)
            events[t] = ("move", word)
        else:
            states.append("exist")
            slots.append(current)
            if t not in events and rng.random() < 0.10:
                events[t] = ("note", None)
    return states, slots, events


def fuzz_vocabulary(n_labels: int) -> StateVocabulary:
    labels = tuple(f"s{i}" for i in range(n_labels))
    return StateVocabulary(
        name=f"fuzz{n_labels}", labels=labels, nonexistent_states=frozenset()
    )


def random_model(rng: np.random.Generator, n_labels: int, max_steps: int) -> TransitionModel:
    """Random scores with random impossible edges, but at least one legal path.

    A witness path of length max_steps is drawn first and its edges are forced
    finite, so every instance with n_steps <= max_steps is decodable.
    """
    start = rng.normal(size=n_labels)
    trans = rng.normal(size=(n_labels, n_labels))
    start[rng.random(n_labels) < 0.35] = -np.inf
    trans[rng.random((n_labels, n_labels)) < 0.35] = -np.inf
    witness = [int(rng.integers(n_labels)) for _ in range(max_steps)]
    if not np.isfinite(start[witness[0]]):
        start[witness[0]] = float(rng.normal())
    for a, b in zip(witness, witness[1:]):
        if not np.isfinite(trans[a, b]):
            trans[a, b] = float(rng.normal())
    return TransitionModel(
        vocabulary=fuzz_vocabulary(n_labels),
        start_scores=start,
        trans_scores=trans,
    )


def random_walk_states(
    rng: np.random.Generator, model: TransitionModel, n_steps: int
) -> list[str]:
    """Sample a state sequence along finite-scored edges of a model.

    This is the support of what the decoder can emit, which is the input
    domain the resolver sees in practice.
    """
    labels = model.vocabulary.labels
    starts = [i for i in range(len(labels)) if np.isfinite(model.start_scores[i])]
    cur = int(rng.choice(starts))
    out = [labels[cur]]
    for _ in range(n_steps - 1):
        nxt = [j for j in range(len(labels)) if np.isfinite(model.trans_scores[cur, j])]
        if not nxt:
            break
        cur = int(rng.choice(nxt))
        out.append(labels[cur])
    return out


LOCATION_PRED_POOL = (
    "none",
    "NONE",
    "unknown",
    "Unknown",
    "?",
    "-",
    "",
    "soil",
    "the soil",
    "Power Plant",
    "power plant",
    "river bed.",
    "  padded  ",
    "sediment; rock",
)


def random_location_preds(rng: np.random.Generator, n_slots: int) -> list[str]:
    return [str(rng.choice(LOCATION_PRED_POOL)) for _ in range(n_slots)]


__all__ = [
    "FIXTURES",
    "CORPUS_PROPARA",
    "MODEL_PROPARA",
    "EMISSIONS_PROPARA",
    "GOLDEN_DIR",
    "PROPARA",
    "brute_force_decode",
    "exhaustive_best_score",
    "path_score",
    "reference_detect_mentions",
    "reference_viterbi",
    "relaxed_path_scores",
    "strict_else_relaxed_reference",
    "reference_tune",
    "reference_scores",
    "tune_certificate_mismatches",
    "reference_propara_track",
    "reference_recipes_track",
    "fuzz_vocabulary",
    "random_model",
    "random_walk_states",
    "random_location_preds",
    "LOCATION_PRED_POOL",
]
