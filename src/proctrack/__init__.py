"""Entity state tracking over procedural text.

The package turns step-by-step procedure descriptions into per-entity
state sequences and location slots: QA-style instance formatting for a
text-to-text model, transition estimation from gold annotations,
mention-weighted Viterbi decoding over model emissions, location
consistency repair, and document/sentence-level scoring.
"""

from .corpus import get_vocabulary, load_corpus, load_predictions, save_corpus
from .decoder import detect_mentions, load_emissions, save_emissions
from .errors import ToolkitError
from .synth import OracleConfig, make_corpus, synth_emissions
from .transitions import estimate, load_model, save_model
from .tuner import default_grid

__version__ = "0.1.0"

# The names the scripts and the benchmark take from the package root; the
# rest of the API is imported from its module.
__all__ = [
    "OracleConfig",
    "ToolkitError",
    "default_grid",
    "detect_mentions",
    "estimate",
    "get_vocabulary",
    "load_corpus",
    "load_emissions",
    "load_model",
    "load_predictions",
    "make_corpus",
    "save_corpus",
    "save_emissions",
    "save_model",
    "synth_emissions",
]
