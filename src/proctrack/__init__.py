"""Entity state tracking over procedural text.

The package turns step-by-step procedure descriptions into per-entity
state sequences and location slots: QA-style instance formatting for a
text-to-text model, transition estimation from gold annotations,
mention-weighted Viterbi decoding over model emissions, location
consistency repair, and document/sentence-level scoring.
"""

from .consistency import Repair, ResolvedTrack, resolve
from .corpus import (
    NO_LOCATION,
    PROPARA,
    RECIPES,
    UNKNOWN_LOCATION,
    AnnotationGrid,
    Entity,
    LocationValue,
    Procedure,
    StateVocabulary,
    Track,
    Violation,
    get_vocabulary,
    grid_violations,
    load_corpus,
    load_predictions,
    normalize_location,
    parse_prediction,
    save_corpus,
    split_stats,
    track_violations,
)
from .decoder import (
    DecodeConfig,
    EmissionSet,
    EmissionTrack,
    argmax_states,
    decode_entity,
    detect_mentions,
    load_emissions,
    save_emissions,
    viterbi,
    weight_emissions,
)
from .errors import DecodeError, NoValidPathError, ToolkitError, ValidationError
from .evaluator import (
    DocumentReport,
    SentenceReport,
    SplitReport,
    eval_document_level,
    eval_recipes_locations,
    eval_sentence_level,
    eval_split,
)
from .pipeline import PipelineResult, render_report, report_dict, run_pipeline, write_outputs
from .qaformat import QAInstance, export_instances, format_location_instance, format_state_instance, iter_instances
from .synth import OracleConfig, make_corpus, synth_emissions
from .transitions import TransitionModel, estimate, load_model, save_model, validate_path_exists
from .tuner import TuneResult, default_grid, tune

__version__ = "0.1.0"

__all__ = [
    "AnnotationGrid",
    "DecodeConfig",
    "DecodeError",
    "DocumentReport",
    "EmissionSet",
    "EmissionTrack",
    "Entity",
    "LocationValue",
    "NO_LOCATION",
    "NoValidPathError",
    "OracleConfig",
    "PROPARA",
    "PipelineResult",
    "Procedure",
    "QAInstance",
    "RECIPES",
    "Repair",
    "ResolvedTrack",
    "SentenceReport",
    "SplitReport",
    "StateVocabulary",
    "ToolkitError",
    "Track",
    "TransitionModel",
    "TuneResult",
    "UNKNOWN_LOCATION",
    "ValidationError",
    "Violation",
    "argmax_states",
    "decode_entity",
    "default_grid",
    "detect_mentions",
    "estimate",
    "eval_document_level",
    "eval_recipes_locations",
    "eval_sentence_level",
    "eval_split",
    "export_instances",
    "format_location_instance",
    "format_state_instance",
    "get_vocabulary",
    "grid_violations",
    "iter_instances",
    "load_corpus",
    "load_emissions",
    "load_model",
    "load_predictions",
    "make_corpus",
    "normalize_location",
    "parse_prediction",
    "render_report",
    "report_dict",
    "resolve",
    "run_pipeline",
    "save_corpus",
    "save_emissions",
    "save_model",
    "split_stats",
    "synth_emissions",
    "track_violations",
    "tune",
    "validate_path_exists",
    "viterbi",
    "weight_emissions",
    "write_outputs",
]
