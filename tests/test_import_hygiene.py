"""The exact commands never import numpy; only the float paths load it.

Each command runs in a fresh interpreter that reports on stderr whether
numpy ended up in ``sys.modules``.  Its stdout and exit code must equal an
in-process ``cli.main`` run of the same argv, so the check also pins that
the lazy imports change no output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hinv as H
from hinv import serialization as ser
from hinv.cli import main

ROOT = Path(__file__).resolve().parent.parent

PROBE = ("import sys, hinv.cli; c = hinv.cli.main(sys.argv[1:]); "
         "print('numpy' in sys.modules, file=sys.stderr); sys.exit(c)")


def fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def numpy_loaded(stderr):
    verdict = stderr.strip().splitlines()[-1]
    assert verdict in ("True", "False"), stderr[-2000:]
    return verdict == "True"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, h in (("optimal", H.ohm(5)), ("violated", H.h_dual(H.strange3()))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(ser.hmatrix_to_dict(h)))
        paths[name] = str(path)
    return paths


def run_both(capsys, argv):
    """(subprocess result, in-process exit code, in-process stdout)."""
    proc = fresh_python("-c", PROBE, *argv)
    code = main(list(argv))
    return proc, code, capsys.readouterr().out


EXACT = [
    ("certify", "optimal"),
    ("certify", "violated"),
    ("dual", "violated"),
    ("gen", "ohm", "--n", "6"),
    ("falsify", "violated"),
    ("sweep", "--family", "ohm", "--n-range", "3:6"),
    ("oracle-check", "--seed", "1", "--n-max", "3"),
]

FLOAT = [
    ("falsify", "violated", "--emit-vectors"),
    ("simulate", "--h", "optimal"),
]


def resolve(argv, files):
    return [files.get(arg, arg) for arg in argv]


@pytest.mark.parametrize("argv", EXACT, ids=" ".join)
def test_exact_command_never_imports_numpy(argv, files, capsys):
    proc, code, stdout = run_both(capsys, resolve(argv, files))
    assert not numpy_loaded(proc.stderr)
    assert (proc.returncode, proc.stdout) == (code, stdout)


@pytest.mark.parametrize("argv", FLOAT, ids=" ".join)
def test_float_command_loads_numpy(argv, files, capsys):
    proc, code, stdout = run_both(capsys, resolve(argv, files))
    assert numpy_loaded(proc.stderr)
    assert proc.returncode == code == 0
    assert proc.stdout == stdout


def test_package_import_leaves_numpy_out():
    probe = "import sys, hinv; print('numpy' in sys.modules, file=sys.stderr)"
    assert not numpy_loaded(fresh_python("-c", probe).stderr)
    # a re-exported simulator name loads it on first use
    probe = "import sys, hinv; hinv.run; print('numpy' in sys.modules, file=sys.stderr)"
    assert numpy_loaded(fresh_python("-c", probe).stderr)


def test_public_api_unchanged():
    import hinv.simulate

    for name in H.__all__:
        assert getattr(H, name) is not None
    for name in ("OperatorOracle", "Trajectory", "anytime_check", "linear_oracle",
                 "rotation_oracle", "run", "worst_case_oracle", "worst_case_start"):
        assert getattr(H, name) is getattr(hinv.simulate, name)
    assert set(H.__all__) <= set(dir(H))
    namespace = {}
    exec("from hinv import *", namespace)
    assert set(H.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        H.no_such_name
