"""Start-up: what `import proctrack` and each CLI command import.

Each check runs in a fresh interpreter, because the test process has long
since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import CORPUS_PROPARA, EMISSIONS_PROPARA, MODEL_PROPARA
from proctrack.decoder import GRID_MAX_VALUES

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
# What loading and decoding need: the CLI imports these before any command.
LOADERS = {"proctrack", "proctrack.corpus", "proctrack.decoder", "proctrack.errors",
           "proctrack.transitions"}
COMMANDS = ("stats", "format-qa", "estimate-transitions", "synth", "decode", "resolve",
            "evaluate", "tune", "pipeline")
INPUTS = ["--corpus", str(CORPUS_PROPARA), "--vocab", "propara",
          "--emissions", str(EMISSIONS_PROPARA), "--model", str(MODEL_PROPARA)]


def _python(*argv):
    proc = subprocess.run([sys.executable, *argv], env=ENV, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def _fresh(code):
    """The JSON that `code` prints, run in a fresh interpreter."""
    return json.loads(_python("-c", code).stdout)


def _cli_imports(*argv):
    """(stdout, every module imported) of `python -m proctrack.cli argv` in a
    fresh process, which must exit 0."""
    proc = _python("-X", "importtime", "-m", "proctrack.cli", *argv)
    return proc.stdout, {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                         if line.startswith("import time:")}


def test_import_proctrack_loads_no_submodule():
    loaded = _fresh("import json, sys, proctrack; "
                    "print(json.dumps([m for m in sys.modules if m.startswith('proctrack')]))")
    assert set(loaded) == {"proctrack"}     # each root name loads its module on first use


def test_every_root_name_resolves_and_is_listed():
    probe = _fresh("""\
import json, proctrack
try:
    proctrack.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "modules": {name: getattr(proctrack, name).__module__ for name in proctrack.__all__},
    "dir": dir(proctrack),
    "missing": missing,
}))
""")
    assert all(module.startswith("proctrack.") for module in probe["modules"].values())
    assert probe["modules"]["OracleConfig"] == "proctrack.synth"
    assert probe["modules"]["default_grid"] == "proctrack.tuner"
    assert set(probe["modules"]) <= set(probe["dir"])
    assert probe["missing"] == "module 'proctrack' has no attribute 'no_such_name'"


def test_a_submodule_still_imports_from_the_root():
    probe = _fresh("import json, sys; from proctrack import tuner; "
                   "print(json.dumps(tuner is sys.modules['proctrack.tuner']))")
    assert probe is True


def test_pipeline_imports_neither_synth_nor_qaformat_nor_tuner(tmp_path):
    _, imported = _cli_imports("pipeline", *INPUTS, "--out", str(tmp_path / "run"))
    assert "proctrack.pipeline" in imported
    assert not imported & {"proctrack.synth", "proctrack.qaformat", "proctrack.tuner"}


def test_tune_imports_neither_synth_nor_qaformat():
    _, imported = _cli_imports("tune", *INPUTS, "--grid", "0.5:0.7:0.1")
    assert "proctrack.tuner" in imported
    assert not imported & {"proctrack.synth", "proctrack.qaformat"}
    # numpy 2.4's 1-D `unique` imports numpy.ma, which tune has no use for.
    assert not {name for name in imported if name.split(".")[:2] == ["numpy", "ma"]}


@pytest.mark.parametrize("command", COMMANDS)
def test_help_exits_zero_importing_no_command_module(command):
    out, imported = _cli_imports(command, "--help")
    # `-m` runs cli.py as __main__
    assert {name for name in imported if name.split(".")[0] == "proctrack"} == LOADERS
    if command == "tune":
        assert f"at most {GRID_MAX_VALUES} values" in " ".join(out.split())
