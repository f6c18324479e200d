"""Data model for procedures, entities, and per-entity annotation grids.

On-disk corpus files are UTF-8 JSON lines, one procedure per line:

    {"id": "p1",
     "steps": ["...", "..."],
     "entities": [{"id": "water", "raw_name": "water; liquid"}],
     "gold": {"water": {"states": ["move", ...], "locations": ["?", ...]}}}

``steps`` has length T. Each gold ``states`` list has length T and each
``locations`` list length T+1: slot 0 is the location before step 1 and
slot t the location after step t. Location tokens are "-" (nonexistent),
"?" (unknown), or a verbatim text span. Prediction files reuse the exact
same record layout, with the predicted tracks in the ``gold`` field.
"""

from __future__ import annotations

import json
import operator
import os
import re
import shutil
import string
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import ValidationError

SPAN = "span"
UNKNOWN = "unknown"
NONEXISTENT = "nonexistent"

_STRIP_CHARS = string.punctuation + string.whitespace
_TOKEN_RE = re.compile(r"[a-z0-9]+")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def normalize_location(text: str) -> str:
    """Lowercase, collapse whitespace runs, strip surrounding punctuation.

    Idempotent: normalizing a normalized string is a no-op.
    """
    return " ".join(text.lower().split()).strip(_STRIP_CHARS)


def token_text(text: str) -> str:
    """The lowercased text's [a-z0-9]+ tokens, space-joined and space-padded.

    A token sequence occurs contiguously in another exactly when its token
    text, minus the outer padding, occurs as a substring of the other's.
    """
    return f" {' '.join(_TOKEN_RE.findall(text.lower()))} "


@dataclass(frozen=True)
class LocationValue:
    """One location slot: a text span, unknown ("?"), or nonexistent ("-").

    `key` is its comparison key: spans compare after normalization, "-" and
    "?" only match themselves. Values parsed from strings are interned:
    `from_token` and `parse_prediction` return one shared instance per
    distinct string, so each distinct span is validated and normalized once.
    """

    kind: str
    text: str = ""

    def __post_init__(self):
        if self.kind not in (SPAN, UNKNOWN, NONEXISTENT):
            raise ValidationError(f"bad location kind: {self.kind!r}")
        if self.kind == SPAN and not self.text.strip():
            raise ValidationError("span location needs non-empty text")
        if self.kind != SPAN and self.text:
            raise ValidationError(f"{self.kind} location carries no text")

    @classmethod
    @cache
    def from_token(cls, token: str) -> "LocationValue":
        """Decode a grid token ("-", "?", or a span kept verbatim)."""
        if token == "-":
            return NO_LOCATION
        if token == "?":
            return UNKNOWN_LOCATION
        return cls(SPAN, token)

    def token(self) -> str:
        """Grid encoding, the inverse of :meth:`from_token`."""
        if self.kind == NONEXISTENT:
            return "-"
        if self.kind == UNKNOWN:
            return "?"
        return self.text

    def answer_text(self) -> str:
        """QA answer encoding: "none", "unknown", or the span verbatim."""
        if self.kind == NONEXISTENT:
            return "none"
        if self.kind == UNKNOWN:
            return "unknown"
        return self.text

    @cached_property
    def key(self) -> tuple:
        if self.kind == SPAN:
            return (SPAN, normalize_location(self.text))
        return (self.kind,)

    def matches(self, other: "LocationValue") -> bool:
        return self.key == other.key


NO_LOCATION = LocationValue(NONEXISTENT)
UNKNOWN_LOCATION = LocationValue(UNKNOWN)


@cache
def parse_prediction(text: str) -> LocationValue:
    """Map a raw location prediction string onto a LocationValue.

    "none"/"-" mean nonexistent, "unknown"/"?" mean unknown. An empty or
    whitespace-only prediction degrades to unknown rather than fabricating
    a span. Anything else is kept verbatim (minus outer whitespace).
    """
    trimmed = text.strip()
    lowered = trimmed.lower()
    if lowered in ("none", "-"):
        return NO_LOCATION
    if lowered in ("unknown", "?") or not trimmed:
        return UNKNOWN_LOCATION
    return LocationValue(SPAN, trimmed)


@dataclass(frozen=True)
class StateVocabulary:
    """Closed label set for one dataset flavor.

    ``labels`` order is normative: emission logit vectors are indexed by it.
    ``nonexistent_states`` are the labels that imply the entity has no
    location at that step.
    """

    name: str
    labels: tuple[str, ...]
    nonexistent_states: frozenset[str]

    def __post_init__(self):
        if not self.labels:
            raise ValidationError("vocabulary needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("duplicate labels in vocabulary")
        if any(not lab for lab in self.labels):
            raise ValidationError("empty label in vocabulary")
        if not self.nonexistent_states <= set(self.labels):
            raise ValidationError("nonexistent_states must be a subset of labels")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):           # unknown or unhashable
            raise ValidationError(
                f"label {label!r} not in vocabulary {self.name!r}"
            ) from None

    def canonical(self, states) -> tuple[str, ...]:
        """`states` as this vocabulary's own label objects, so that a run holds
        each label string once. The first unknown label raises as `index` does."""
        try:
            return tuple(map(self.labels.__getitem__, map(self._index.__getitem__, states)))
        except (KeyError, TypeError):           # an unknown or unhashable label
            bad = next(label for label in states if label not in self.labels)
            raise ValidationError(f"label {bad!r} not in vocabulary {self.name!r}") from None

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def tracks_movement(self) -> bool:
        """Whether "exist" means "did not move" (only when "move" is a label).

        Without a "move" label, an existing entity may change location
        freely between steps, so the exist-keeps-location rule is off.
        """
        return "move" in self.labels


PROPARA = StateVocabulary(
    name="propara",
    labels=("create", "exist", "move", "destroy", "outside_before", "outside_after"),
    nonexistent_states=frozenset({"outside_before", "outside_after"}),
)

RECIPES = StateVocabulary(
    name="recipes",
    labels=("exist", "absence"),
    nonexistent_states=frozenset({"absence"}),
)

VOCABULARIES = {v.name: v for v in (PROPARA, RECIPES)}


def get_vocabulary(name: str) -> StateVocabulary:
    try:
        return VOCABULARIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown vocabulary {name!r}; choose from {sorted(VOCABULARIES)}"
        ) from None


@dataclass(frozen=True)
class Entity:
    id: str
    raw_name: str
    aliases: tuple[str, ...]

    def __post_init__(self):
        if not self.id:
            raise ValidationError("entity id must be non-empty")
        if not self.aliases or any(not a.strip() for a in self.aliases):
            raise ValidationError(f"entity {self.id!r}: no usable alias in {self.raw_name!r}")

    @classmethod
    def from_raw(cls, entity_id: str, raw_name: str) -> "Entity":
        # Raw names may pack alternates: "water; liquid" names two aliases.
        aliases = tuple(part.strip() for part in raw_name.split(";") if part.strip())
        return cls(id=entity_id, raw_name=raw_name, aliases=aliases)


@dataclass(frozen=True)
class Procedure:
    id: str
    steps: tuple[str, ...]
    entities: tuple[Entity, ...]

    def __post_init__(self):
        if not self.id:
            raise ValidationError("procedure id must be non-empty")
        if not self.steps:
            raise ValidationError(f"procedure {self.id!r} has no steps")
        if any(not s.strip() for s in self.steps):
            raise ValidationError(f"procedure {self.id!r} has an empty step")
        ids = [e.id for e in self.entities]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"procedure {self.id!r} has duplicate entity ids")

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @cached_property
    def step_token_texts(self) -> tuple[str, ...]:
        """`token_text` of each step, computed once per procedure."""
        return tuple(token_text(step) for step in self.steps)

    def entity(self, entity_id: str) -> Entity:
        for ent in self.entities:
            if ent.id == entity_id:
                return ent
        raise ValidationError(f"procedure {self.id!r} has no entity {entity_id!r}")


@dataclass(frozen=True)
class Track:
    """States and locations for one entity across one procedure: a tuple of
    label strings and a tuple of T+1 LocationValues, else ValidationError."""

    states: tuple[str, ...]
    locations: tuple[LocationValue, ...]

    def __post_init__(self):
        if not (type(self.states) is type(self.locations) is tuple
                and set(map(type, self.states)) <= {str}
                and set(map(type, self.locations)) <= {LocationValue}):
            raise ValidationError("a track needs a tuple of labels and one of LocationValues")
        if len(self.locations) != len(self.states) + 1:
            raise ValidationError(f"track needs T+1 locations for T states, got "
                                  f"{len(self.states)} states and {len(self.locations)} locations")

    @property
    def num_steps(self) -> int:
        return len(self.states)


@dataclass
class AnnotationGrid:
    """Per-entity tracks for one procedure. Treated as immutable after load."""

    procedure_id: str
    entries: dict[str, Track]


@dataclass(frozen=True)
class Violation:
    entity_id: str
    step: int
    rule: str
    message: str


# Repair names: `resolve` records them and report.json counts them. A
# violation carries the same name unless `coupling_breaks` gives another.
RULE_START = "start-nonexistent"
RULE_CREATE_BEFORE = "create-clears-before"
RULE_CREATE_AFTER = "create-yields-location"
RULE_NONEXISTENT = "nonexistent-state"
RULE_EXIST = "exist-keeps-location"
RULE_MOVE = "move-requires-change"


def coupling_breaks(t, state, prev, value, vocabulary: StateVocabulary) -> list[tuple]:
    """The coupling rules that step t's `state` breaks on slots t-1 (`prev`)
    and t (`value`), in order, as (slot, required value, repair name,
    violation name, message).

    Spans compare after normalization. A move from "?" to "?" is legal: an
    unknown place may still be a new one. Without a "move" label, "exist"
    may change location freely (`tracks_movement`).
    """
    breaks = []
    if state == "outside_before" and t == 1 and prev.kind != NONEXISTENT:
        breaks.append((0, NO_LOCATION, RULE_START, RULE_START,
                       f"outside_before at step 1 requires slot 0 to be '-', got {prev.token()!r}"))
    if state == "create":
        if prev.kind != NONEXISTENT:
            breaks.append((t - 1, NO_LOCATION, RULE_START if t == 1 else RULE_CREATE_BEFORE,
                           RULE_CREATE_BEFORE, f"create at step {t} requires slot {t - 1} "
                           f"to be '-', got {prev.token()!r}"))
        if value.kind == NONEXISTENT:
            breaks.append((t, UNKNOWN_LOCATION, RULE_CREATE_AFTER, RULE_CREATE_AFTER,
                           f"create at step {t} forbids location '-' at slot {t}"))
    elif state == "destroy" or state in vocabulary.nonexistent_states:
        if value.kind != NONEXISTENT:
            breaks.append((t, NO_LOCATION, RULE_NONEXISTENT, "nonexistent-state-location",
                           f"state {state!r} at step {t} requires location '-', "
                           f"got {value.token()!r}"))
    elif state == "exist" and vocabulary.tracks_movement:
        if not value.matches(prev):
            breaks.append((t, prev, RULE_EXIST, RULE_EXIST,
                           f"exist at step {t} requires slot {t} to repeat slot "
                           f"{t - 1} ({prev.token()!r}), got {value.token()!r}"))
    elif state == "move":
        if value.kind == NONEXISTENT:
            breaks.append((t, UNKNOWN_LOCATION, RULE_MOVE, "move-needs-location",
                           f"move at step {t} forbids location '-' at slot {t}"))
        elif value.kind == SPAN and value.matches(prev):
            breaks.append((t, UNKNOWN_LOCATION, RULE_MOVE, RULE_MOVE,
                           f"move at step {t} requires slot {t} to differ from slot "
                           f"{t - 1}, got {value.token()!r} after {prev.token()!r}"))
    return breaks


def track_violations(track: Track, vocabulary: StateVocabulary,
                     entity_id: str = "") -> list[Violation]:
    """The coupling rules (`coupling_breaks`) that one track breaks.

    Slot indices in messages are location slots (0..T); each violation hangs
    off the step t = 1..T whose state constrains slots t-1 and t.
    """
    locs = track.locations
    return [Violation(entity_id, t, rule, message)
            for t, (state, prev, value) in enumerate(zip(track.states, locs, locs[1:]), start=1)
            for _, _, _, rule, message in coupling_breaks(t, state, prev, value, vocabulary)]


def grid_violations(grid: AnnotationGrid, vocabulary: StateVocabulary) -> list[Violation]:
    found = []
    for entity_id, track in grid.entries.items():
        found.extend(track_violations(track, vocabulary, entity_id))
    return found


def check_str(value, what: str) -> str:
    """`value`, which must be a string; `what` names it in the error."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string")
    return value


def check_int(value, what: str, least: int) -> int:
    """`value` as an int, which must be at least `least`; `what` names it."""
    try:
        if isinstance(value, bool):             # an int to Python, but never a count
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None
    if value < least:
        raise ValidationError(f"{what} must be >= {least}, got {value}")
    return value


def check_str_list(value, what: str) -> list[str] | tuple[str, ...]:
    """`value`, which must be a list or tuple of strings; `what` names it in
    the error. Types are checked exactly: JSON decoding never yields a subclass."""
    if type(value) not in (list, tuple) or not set(map(type, value)) <= {str}:
        raise ValidationError(f"{what} must be a list of strings")
    return value


def read_records(path, parse) -> None:
    """Call `parse(record)` on each non-blank line of a JSON-lines file.

    Every record must be a JSON object. This is the one place that names a
    bad record: a line that is not UTF-8 JSON, or whose `parse` raises
    ValidationError, raises ValidationError prefixed with "path:line". A
    string with an unpaired surrogate is bad JSON too, because no output
    file could encode it.
    """
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                text = line.decode("utf-8")
                if not text.strip():
                    continue
                record = json.loads(text)
                if _SURROGATE_ESCAPE.search(text):    # no other text decodes to a surrogate
                    json.dumps(record, ensure_ascii=False).encode("utf-8")
            except (ValueError, RecursionError) as exc:   # or nested too deep to parse
                raise ValidationError(f"{path}:{lineno}: bad JSON: {exc}") from None
            try:
                if not isinstance(record, dict):
                    raise ValidationError("record must be an object")
                parse(record)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None


@contextmanager
def _replacing(path):
    """A text handle on a file beside `path` that takes its place only when
    the block ends without an exception. A failed command leaves no partial
    output, and an existing file keeps its bytes. A symlink is followed, so
    the file it names is replaced and the link stays; a replaced file keeps
    its mode, but other hard links to it keep the old bytes. A path that
    exists but is not a regular file, such as /dev/stdout, is written in
    place."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as handle:
            yield handle
        return
    partial = f"{target}.{os.getpid()}.tmp"
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            yield handle
        if os.path.exists(target):
            shutil.copymode(target, partial)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def write_records(path, records) -> int:
    """Write each record as one line of UTF-8 JSON; returns how many. This,
    `write_json` and `write_text` write every output file, whole or not at
    all."""
    count = 0
    with _replacing(path) as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count


def write_json(path, payload) -> str:
    """`payload` as UTF-8 JSON indented by 2 with a final newline, written
    to `path` unless it is None; returns the text."""
    text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    if path is not None:
        write_text(path, text)
    return text


def write_text(path, text: str) -> None:
    with _replacing(path) as handle:
        handle.write(text)


def _parse_track(payload, num_steps: int, vocabulary: StateVocabulary) -> Track:
    if not isinstance(payload, dict):
        raise ValidationError("track must be an object")
    states = check_str_list(payload.get("states"), "'states'")
    locations = check_str_list(payload.get("locations"), "'locations'")
    if len(states) != num_steps:
        raise ValidationError(f"{len(states)} states for {num_steps} steps")
    return Track(states=vocabulary.canonical(states),
                 locations=tuple(map(LocationValue.from_token, locations)))


def _parse_grid(tracks, procedure: Procedure, vocabulary: StateVocabulary) -> AnnotationGrid:
    """A corpus or prediction record's tracks, keyed by the corpus's own entity ids."""
    if not isinstance(tracks, dict):
        raise ValidationError("'gold' must be an object keyed by entity id")
    entries = {}
    for entity_id, payload in tracks.items():
        entity = procedure.entity(entity_id)
        try:
            entries[entity.id] = _parse_track(payload, procedure.num_steps, vocabulary)
        except ValidationError as exc:
            raise ValidationError(f"entity {entity_id!r}: {exc}") from None
    return AnnotationGrid(procedure_id=procedure.id, entries=entries)


def _parse_procedure(record: dict) -> Procedure:
    proc_id = check_str(record.get("id"), "'id'")
    steps = check_str_list(record.get("steps"), "'steps'")
    entities = record.get("entities")
    if not isinstance(entities, list) or not all(isinstance(e, dict) for e in entities):
        raise ValidationError("'entities' must be a list of objects")
    return Procedure(id=proc_id, steps=tuple(steps), entities=tuple(
        Entity.from_raw(check_str(e.get("id"), "entity 'id'"),
                        check_str(e.get("raw_name"), "entity 'raw_name'"))
        for e in entities))


def load_corpus(path, vocabulary: StateVocabulary):
    """Read a corpus file. Gold grids are validated with hard errors.

    Returns (procedures, grids) where grids maps procedure id to
    AnnotationGrid for every record that carried gold annotations. Track
    states are the vocabulary's own label objects (`canonical`).
    """
    procedures: dict[str, Procedure] = {}
    grids: dict[str, AnnotationGrid] = {}

    def parse(record):
        procedure = _parse_procedure(record)
        if procedure.id in procedures:
            raise ValidationError(f"duplicate procedure id {procedure.id!r}")
        procedures[procedure.id] = procedure
        gold = record.get("gold")
        if gold is not None:
            grid = _parse_grid(gold, procedure, vocabulary)
            bad = grid_violations(grid, vocabulary)
            if bad:
                first = bad[0]
                raise ValidationError(
                    f"gold grid inconsistent ({len(bad)} violation(s)); "
                    f"first: entity {first.entity_id!r} rule {first.rule}: {first.message}")
            grids[procedure.id] = grid

    read_records(path, parse)
    return list(procedures.values()), grids


def load_predictions(path, procedures: list[Procedure], vocabulary: StateVocabulary):
    """Read a prediction file written in the corpus record layout.

    Structural problems (bad schema, wrong lengths, unknown labels) raise;
    state/location rule violations are collected and returned, because a
    scorer must still accept inconsistent predictions.

    Returns (grids, violations).
    """
    by_id = {p.id: p for p in procedures}
    grids: dict[str, AnnotationGrid] = {}
    violations: list[tuple[str, Violation]] = []

    def parse(record):
        proc_id = check_str(record.get("id"), "'id'")
        procedure = by_id.get(proc_id)
        if procedure is None:
            raise ValidationError(f"unknown procedure id {proc_id!r}")
        if proc_id in grids:
            raise ValidationError(f"duplicate procedure id {proc_id!r}")
        gold = record.get("gold")               # missing or null: no predicted tracks
        grid = _parse_grid({} if gold is None else gold, procedure, vocabulary)
        violations.extend((proc_id, v) for v in grid_violations(grid, vocabulary))
        grids[procedure.id] = grid

    read_records(path, parse)
    return grids, violations


def _record_dict(procedure: Procedure, grid: AnnotationGrid | None) -> dict:
    record = {
        "id": procedure.id,
        "steps": list(procedure.steps),
        "entities": [{"id": e.id, "raw_name": e.raw_name} for e in procedure.entities],
    }
    if grid is not None and grid.entries:
        record["gold"] = {
            entity_id: {
                "states": list(track.states),
                "locations": [loc.token() for loc in track.locations],
            }
            for entity_id, track in grid.entries.items()
        }
    return record


def save_corpus(procedures, grids, path) -> None:
    """Write procedures (and any grids) back out as JSON lines."""
    write_records(path, (_record_dict(p, grids.get(p.id) if grids else None)
                         for p in procedures))


@dataclass(frozen=True)
class CorpusStats:
    procedures: int
    avg_steps: float
    avg_entities: float


def split_stats(procedures) -> CorpusStats:
    """Procedure count plus mean steps/entities per procedure."""
    procs = list(procedures)
    if not procs:
        return CorpusStats(procedures=0, avg_steps=0.0, avg_entities=0.0)
    n = len(procs)
    return CorpusStats(
        procedures=n,
        avg_steps=sum(p.num_steps for p in procs) / n,
        avg_entities=sum(len(p.entities) for p in procs) / n,
    )


def format_stats_table(rows: dict[str, CorpusStats]) -> str:
    """Plain-text stats table; means shown to one decimal."""
    lines = [f"{'split':<12} {'procedures':>10} {'avg_steps':>10} {'avg_entities':>13}"]
    for name, stats in rows.items():
        lines.append(
            f"{name:<12} {stats.procedures:>10d} {stats.avg_steps:>10.1f} "
            f"{stats.avg_entities:>13.1f}")
    return "\n".join(lines)
