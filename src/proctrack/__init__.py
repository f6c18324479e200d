"""Entity state tracking over procedural text.

The package turns step-by-step procedure descriptions into per-entity
state sequences and location slots: QA-style instance formatting for a
text-to-text model, transition estimation from gold annotations,
mention-weighted Viterbi decoding over model emissions, location
consistency repair, and document/sentence-level scoring.
"""

from importlib import import_module

from .corpus import get_vocabulary, load_corpus, load_predictions, save_corpus
from .decoder import detect_mentions, load_emissions, save_emissions
from .errors import ToolkitError
from .transitions import estimate, load_model, save_model

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

# Root names from modules that loading and decoding never run. Each is
# imported on first access (PEP 562), so `import proctrack` compiles only
# the four modules above.
_LAZY = {"OracleConfig": "synth", "make_corpus": "synth", "synth_emissions": "synth",
         "default_grid": "tuner"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
