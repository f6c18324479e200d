"""Entity state tracking over procedural text.

The package turns step-by-step procedure descriptions into per-entity
state sequences and location slots: QA-style instance formatting for a
text-to-text model, transition estimation from gold annotations,
mention-weighted Viterbi decoding over model emissions, location
consistency repair, and document/sentence-level scoring.
"""

from importlib import import_module

__version__ = "0.1.0"

# The names the scripts and the benchmark take from the package root, and
# the module each lives in. Each imports its module on first access (PEP 562),
# so `import proctrack` loads no submodule. The rest of the API is imported
# from its module.
_HOMES = {
    "OracleConfig": "synth",
    "ToolkitError": "errors",
    "default_grid": "tuner",
    "detect_mentions": "decoder",
    "estimate": "transitions",
    "get_vocabulary": "corpus",
    "load_corpus": "corpus",
    "load_emissions": "decoder",
    "load_model": "transitions",
    "load_predictions": "corpus",
    "make_corpus": "synth",
    "save_corpus": "corpus",
    "save_emissions": "decoder",
    "save_model": "transitions",
    "synth_emissions": "synth",
}
__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
