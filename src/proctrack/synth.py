"""Synthetic corpora and a noisy emission oracle.

The generator builds small procedures with known-consistent gold tracks and
step text whose entity mentions are controlled, so mention-dependent
behavior can be exercised end to end. The oracle then fabricates the file
an external text model would produce: per-step state logits and per-slot
location strings, corrupted at configurable rates.

Everything here is driven by one seeded generator, so identical inputs and
seeds give byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (
    AnnotationGrid,
    Entity,
    LocationValue,
    NO_LOCATION,
    Procedure,
    StateVocabulary,
    Track,
    UNKNOWN_LOCATION,
)
from .decoder import EmissionSet, EmissionTrack, detect_mentions
from .errors import ValidationError

_BIAS_KEYS = ("explicit", "implicit")

# Word pools are disjoint from each other and from every template word, so
# a step mentions an entity if and only if the generator chose to name it.
_ENTITY_WORDS = {
    "propara": ("water", "rock", "sand", "seed", "oxygen", "magma", "salt",
                "ice", "iron", "pollen", "carbon", "snow", "clay", "moss"),
    "recipes": ("butter", "flour", "sugar", "yeast", "milk", "honey",
                "cocoa", "cream", "vanilla", "cinnamon"),
}
_EXTRA_ALIASES = {
    "water": "liquid", "rock": "stone", "ice": "frost", "salt": "brine",
    "seed": "kernel", "sugar": "sweetener", "milk": "dairy",
}
_LOCATION_WORDS = {
    "propara": ("river", "dam", "soil", "cloud", "ocean", "valley", "crater",
                "glacier", "swamp", "cave", "delta", "reef", "basin", "ridge"),
    "recipes": ("bowl", "oven", "pan", "pot", "tray", "shelf", "mixer",
                "plate", "jar", "rack"),
}
_FILLERS = {
    "propara": ("The process continues.", "Heat builds slowly.", "Time passes."),
    "recipes": ("Keep stirring gently.", "Wait a few minutes.", "The kitchen warms up."),
}


@dataclass(frozen=True)
class OracleConfig:
    """Noise model for fabricated emissions.

    state_noise is the chance a step's observed state label is corrupted to
    a uniformly random wrong label; location_noise likewise degrades a
    location slot to "unknown". corruption_bias adds extra state noise by
    the mention flag of the step: keys "explicit" and "implicit". All
    effective rates must stay inside [0, 1).
    """

    state_noise: float = 0.0
    location_noise: float = 0.0
    corruption_bias: dict | None = None
    seed: int = 0

    def __post_init__(self):
        for name, rate in (("state_noise", self.state_noise),
                           ("location_noise", self.location_noise)):
            if not 0.0 <= rate < 1.0:
                raise ValidationError(f"{name} must be in [0, 1), got {rate}")
        bias = self.corruption_bias or {}
        for key, extra in bias.items():
            if key not in _BIAS_KEYS:
                raise ValidationError(
                    f"unknown corruption_bias key {key!r}; allowed: {_BIAS_KEYS}")
            if not extra >= 0:                  # NaN included
                raise ValidationError(f"corruption_bias[{key!r}] must be >= 0, got {extra}")
        worst = self.state_noise + max(bias.get("explicit", 0.0), bias.get("implicit", 0.0))
        if worst >= 1.0:
            raise ValidationError(
                f"biased state noise can reach {worst}, which is outside [0, 1)")

    def effective_state_noise(self, mentioned: bool) -> float:
        bias = self.corruption_bias or {}
        return self.state_noise + bias.get("explicit" if mentioned else "implicit", 0.0)


def synth_emissions(procedures, grids, vocabulary: StateVocabulary,
                    config: OracleConfig):
    """Fabricate emissions for every gold track.

    The observed label of each step is the gold label, except with the
    step's effective noise it is swapped for a random wrong one. The logit
    row then encodes that observation's channel: log(1 - eps) for the
    observed label and log(eps / (L - 1)) elsewhere, with eps = 0 mapped to
    +10 / -10 margins. Location slots emit the gold answer string, degraded
    to "unknown" at the location noise rate.
    """
    rng = np.random.default_rng(config.seed)
    size = vocabulary.size
    sets: dict[str, EmissionSet] = {}
    for procedure in procedures:
        grid = grids.get(procedure.id)
        if grid is None:
            continue
        bucket = EmissionSet(procedure.id, {})
        for entity_id, track in grid.entries.items():
            flags = detect_mentions(procedure, procedure.entity(entity_id))
            logits = np.empty((procedure.num_steps, size))
            for t, state in enumerate(track.states, start=1):
                eps = config.effective_state_noise(flags[t - 1])
                observed = vocabulary.index(state)
                if eps > 0 and rng.random() < eps:
                    wrong = int(rng.integers(size - 1))
                    observed = wrong if wrong < observed else wrong + 1
                if eps <= 0 or size == 1:
                    row = np.full(size, -10.0)
                    row[observed] = 10.0
                else:
                    row = np.full(size, np.log(eps / (size - 1)))
                    row[observed] = np.log1p(-eps)
                logits[t - 1] = row
            preds = []
            for loc in track.locations:
                if config.location_noise > 0 and rng.random() < config.location_noise:
                    preds.append("unknown")
                else:
                    preds.append(loc.answer_text())
            bucket.tracks[entity_id] = EmissionTrack(logits, tuple(preds))
        sets[procedure.id] = bucket
    return sets


def _pick(rng, pool, exclude=None):
    options = [w for w in pool if w != exclude]
    return options[int(rng.integers(len(options)))]


def _sample_event_steps(rng, low, high, weights):
    """Pick pairwise non-adjacent steps in [low, high]; weights[k] is the
    probability of aiming for k picks (fewer if the window is too tight)."""
    if high < low:
        return set()
    roll, acc, count = rng.random(), 0.0, 0
    for k, weight in enumerate(weights):
        acc += weight
        if roll < acc:
            count = k
            break
    candidates = list(range(low, high + 1))
    rng.shuffle(candidates)
    chosen: list[int] = []
    for step in candidates:
        if len(chosen) == count:
            break
        if all(abs(step - other) >= 2 for other in chosen):
            chosen.append(step)
    return set(chosen)


# Per vocabulary, how a sampled lifecycle reads: the state label of each
# phase (before the entity appears, the step it appears, a move step, the
# step it goes away, after it is gone; every other step is "exist"), the
# event names of the appear and go-away steps, and the chance that the
# appearing step names a location.
_LIFECYCLES = {
    "propara": {"before": "outside_before", "appear": "create", "move": "move",
                "gone": "destroy", "after": "outside_after",
                "appear_event": "create", "gone_event": "destroy", "appear_named": 0.8},
    "recipes": {"before": "absence", "appear": "exist", "move": "exist",
                "gone": "absence", "after": "absence",
                "appear_event": "add", "gone_event": "consume", "appear_named": 0.85},
}

# Both samplers keep event states away from the sequence edges and never
# place two moves (or a move and a create/destroy) on adjacent steps. Every
# gold sequence then starts in exist or a nonexistent state, and a single
# corrupted step usually produces a transition never seen in gold, which
# the decoder repairs. That is what makes low-noise decoding land back on
# gold almost everywhere.


def _start_word(rng, locations):
    """Half the time an entity present from step 1 starts at a named place,
    which an intro clause at step 1 announces; else it starts unknown."""
    return _pick(rng, locations) if rng.random() < 0.5 else None


def _lifecycle(rng, flavor: str, T: int, locations: tuple[str, ...],
               appear, gone, moves, start):
    """Spell out a sampled lifecycle step by step: the entity appears at
    step `appear` (None: it exists from the start, at place `start` or
    unknown when that is None), goes away at step `gone` (None: never) and
    moves at the steps in `moves`. Returns (states, slots, events) where
    events maps step -> (kind, location word or None)."""
    labels = _LIFECYCLES[flavor]
    events: dict[int, tuple[str, str | None]] = {}
    if appear is not None:
        current = NO_LOCATION
    elif start is not None:
        current = LocationValue.span(start)
        events[1] = ("intro", start)
    else:
        current = UNKNOWN_LOCATION
    states: list[str] = []
    slots: list[LocationValue] = [current]
    for t in range(1, T + 1):
        if appear is not None and t < appear:
            states.append(labels["before"])
            slots.append(NO_LOCATION)
        elif appear is not None and t == appear:
            states.append(labels["appear"])
            if rng.random() < labels["appear_named"]:
                word = _pick(rng, locations)
                current = LocationValue.span(word)
            else:
                word, current = None, UNKNOWN_LOCATION
            events[t] = (labels["appear_event"], word)
            slots.append(current)
        elif gone is not None and t == gone:
            states.append(labels["gone"])
            slots.append(NO_LOCATION)
            events[t] = (labels["gone_event"], None)
        elif gone is not None and t > gone:
            states.append(labels["after"])
            slots.append(NO_LOCATION)
        elif t in moves:
            states.append(labels["move"])
            word = _pick(rng, locations,
                         exclude=current.text if current.kind == "span" else None)
            current = LocationValue.span(word)
            slots.append(current)
            events[t] = ("move", word)
        else:
            states.append("exist")
            slots.append(current)
            if t not in events and rng.random() < 0.10:
                events[t] = ("note", None)
    return states, slots, events


def _propara_track(rng, T: int, locations: tuple[str, ...]):
    """One lifecycle: outside_before prefix + create, or existing from the
    start; an exist body with isolated moves; optional destroy with an
    outside_after tail."""
    if rng.random() < 0.15:
        create = None
        die = int(rng.integers(2, T)) if rng.random() < 0.55 else None
        move_low, weights = 2, (0.40, 0.45, 0.15)
    else:
        create = int(rng.integers(2, T))
        die = None
        if create + 1 <= T - 1 and rng.random() < 0.55:
            die = int(rng.integers(create + 1, T))
        move_low, weights = create + 2, (0.60, 0.40)
    moves = _sample_event_steps(rng, move_low, die - 2 if die is not None else T, weights)
    start = _start_word(rng, locations) if create is None else None
    return _lifecycle(rng, "propara", T, locations, create, die, moves, start)


def _recipes_track(rng, T: int, locations: tuple[str, ...]):
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
    start = _start_word(rng, locations) if add is None else None
    moves = _sample_event_steps(rng, add + 1 if add is not None else 2,
                                consume - 1 if consume is not None else T,
                                (0.55, 0.30, 0.15))
    return _lifecycle(rng, "recipes", T, locations, add, consume, moves, start)


_CLAUSES = {
    ("propara", "intro", True): "The {name} sits in the {loc}.",
    ("propara", "intro", False): "Everything begins in the {loc}.",
    ("propara", "create", True): "The {name} forms in the {loc}.",
    ("propara", "create", False): "Something new forms in the {loc}.",
    ("propara", "move", True): "The {name} moves to the {loc}.",
    ("propara", "move", False): "It drifts toward the {loc}.",
    ("propara", "destroy", True): "The {name} breaks apart.",
    ("propara", "destroy", False): "It breaks apart.",
    ("propara", "note", True): "The {name} holds steady.",
    ("recipes", "intro", True): "The {name} starts in the {loc}.",
    ("recipes", "intro", False): "The {loc} holds the first of it.",
    ("recipes", "add", True): "Add the {name} to the {loc}.",
    ("recipes", "add", False): "More goes into the {loc}.",
    ("recipes", "move", True): "Transfer the {name} to the {loc}.",
    ("recipes", "move", False): "Pour everything into the {loc}.",
    ("recipes", "consume", True): "The {name} dissolves.",
    ("recipes", "consume", False): "It dissolves.",
    ("recipes", "note", True): "Check on the {name}.",
}

# Share of a step's clauses about an entity that name it.
MENTION_RATE = 0.75

_NO_LOC_CLAUSES = {
    ("propara", "create", True): "The {name} forms.",
    ("propara", "create", False): "Something new forms.",
    ("recipes", "add", True): "Add the {name}.",
    ("recipes", "add", False): "More goes in.",
}


def _clause(rng, flavor, kind, entity, word):
    mentioned = rng.random() < MENTION_RATE
    name = entity.aliases[int(rng.integers(len(entity.aliases)))]
    if word is None and (flavor, kind, mentioned) in _NO_LOC_CLAUSES:
        return _NO_LOC_CLAUSES[flavor, kind, mentioned].format(name=name)
    template = _CLAUSES.get((flavor, kind, mentioned))
    if template is None:
        return None
    return template.format(name=name, loc=word)


def make_corpus(n_procedures: int, vocabulary: StateVocabulary, seed: int):
    """Generate (procedures, grids) with consistent gold tracks.

    Every location span in the gold appears verbatim in the step text that
    introduced it, and entity names appear in a step's text only when the
    generator chose an explicit clause, at MENTION_RATE.
    """
    if vocabulary.name not in _ENTITY_WORDS:
        raise ValidationError(
            f"no generator recipe for vocabulary {vocabulary.name!r}")
    if n_procedures < 1:
        raise ValidationError("n_procedures must be >= 1")
    flavor = vocabulary.name
    rng = np.random.default_rng(seed)
    sample_track = _propara_track if flavor == "propara" else _recipes_track

    procedures: list[Procedure] = []
    grids: dict[str, AnnotationGrid] = {}
    for i in range(n_procedures):
        proc_id = f"{flavor}-{i:04d}"
        T = int(rng.integers(9, 14))
        n_entities = int(rng.integers(1, 5))
        names = list(_ENTITY_WORDS[flavor])
        rng.shuffle(names)
        entities = []
        for name in names[:n_entities]:
            raw = name
            if name in _EXTRA_ALIASES and rng.random() < 0.3:
                raw = f"{name}; {_EXTRA_ALIASES[name]}"
            entities.append(Entity.from_raw(name, raw))

        tracks: dict[str, Track] = {}
        calendars: dict[str, dict] = {}
        for entity in entities:
            states, slots, events = sample_track(rng, T, _LOCATION_WORDS[flavor])
            tracks[entity.id] = Track(states=tuple(states), locations=tuple(slots))
            calendars[entity.id] = events

        steps = []
        for t in range(1, T + 1):
            clauses = []
            for entity in entities:
                event = calendars[entity.id].get(t)
                if event is None:
                    continue
                kind, word = event
                clause = _clause(rng, flavor, kind, entity, word)
                if clause:
                    clauses.append(clause)
            if not clauses:
                fillers = _FILLERS[flavor]
                clauses.append(fillers[int(rng.integers(len(fillers)))])
            steps.append(" ".join(clauses))

        procedure = Procedure(id=proc_id, steps=tuple(steps), entities=tuple(entities))
        procedures.append(procedure)
        grids[proc_id] = AnnotationGrid(procedure_id=proc_id, entries=tracks)
    return procedures, grids
