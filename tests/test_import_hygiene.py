"""Each command loads only the modules it runs; only the float paths load numpy.

Each command runs in a fresh interpreter that reports on stderr which
``hinv`` modules, and whether numpy and dataclasses, ended up in
``sys.modules``; no command loads dataclasses.  Its stdout and exit code must equal an in-process
``cli.main`` run of the same argv, so the check also pins that the lazy
imports change no output.
"""

import hashlib
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

REPORT = ("import json, sys; print(json.dumps({'hinv': sorted(m[5:] for m in sys.modules "
          "if m.startswith('hinv.')), 'numpy': 'numpy' in sys.modules, "
          "'dataclasses': 'dataclasses' in sys.modules}), file=sys.stderr)")
PROBE = f"import sys, hinv.cli; c = hinv.cli.main(sys.argv[1:]); {REPORT}; sys.exit(c)"

CORE = {"algebra", "combinatorics", "certify", "serialization", "cli"}
# command -> the hinv modules it loads
LOADS = {
    "certify": CORE,
    "dual": CORE,
    "gen": CORE | {"catalog"},
    "sweep": CORE | {"catalog"},
    "falsify": CORE | {"worstcase", "exactlinalg"},
    # the certificate-solvers check solves each row block with solve_consistent
    "oracle-check": CORE | {"oracles", "exactlinalg"},
    # the default cyclic oracle reads its operator from worstcase, which imports exactlinalg
    "simulate": CORE | {"simulate", "worstcase", "exactlinalg"},
}


def fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def loaded(stderr):
    """The probe's report: loaded hinv modules, and whether numpy and dataclasses are."""
    try:
        return json.loads(stderr.strip().splitlines()[-1])
    except (IndexError, ValueError):
        pytest.fail(stderr[-2000:])


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
    # nor dataclasses, nor any hinv module that the command does not run
    proc, code, stdout = run_both(capsys, resolve(argv, files))
    report = loaded(proc.stderr)
    assert not report["numpy"] and not report["dataclasses"]
    assert set(report["hinv"]) == LOADS[argv[0]]
    assert (proc.returncode, proc.stdout) == (code, stdout)


@pytest.mark.parametrize("argv", FLOAT, ids=" ".join)
def test_float_command_loads_numpy(argv, files, capsys):
    proc, code, stdout = run_both(capsys, resolve(argv, files))
    report = loaded(proc.stderr)
    assert report["numpy"] and not report["dataclasses"]
    assert set(report["hinv"]) == LOADS[argv[0]]
    assert proc.returncode == code == 0
    assert proc.stdout == stdout


def test_simulate_off_the_cyclic_operator_loads_no_witness_code(files, tmp_path, capsys):
    y0 = tmp_path / "y0.json"
    y0.write_text("[0.6, -0.8]")
    argv = ["simulate", "--h", files["optimal"], "--oracle", "rotation:0.7", "--y0", str(y0)]
    proc, code, stdout = run_both(capsys, argv)
    report = loaded(proc.stderr)
    assert report["numpy"] and not report["dataclasses"]
    assert set(report["hinv"]) == CORE | {"simulate"}
    assert proc.returncode == code == 0 and proc.stdout == stdout


def test_package_import_leaves_numpy_out():
    # a bare import loads the core only
    report = loaded(fresh_python("-c", f"import hinv; {REPORT}").stderr)
    assert set(report["hinv"]) == {"algebra", "combinatorics", "certify"}
    assert not report["numpy"] and not report["dataclasses"]
    # catalog and witness names load their modules on first use, and the
    # package attribute certify stays the function
    probe = "\n".join((
        "import sys, types, hinv as H",
        "ohm, witness = H.ohm, H.suboptimality_witness",
        "assert ohm is sys.modules['hinv.catalog'].ohm",
        "assert witness is sys.modules['hinv.worstcase'].suboptimality_witness",
        "assert isinstance(H.certify, types.FunctionType)",
        "assert H.certify is sys.modules['hinv.certify'].certify",
    ))
    proc = fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # a re-exported simulator name loads numpy on first use
    assert loaded(fresh_python("-c", f"import hinv; hinv.run; {REPORT}").stderr)["numpy"]


def test_public_api_unchanged():
    import hinv.oracles
    import hinv.simulate

    # the 55 public names, sorted and joined by spaces
    assert hashlib.sha256(" ".join(sorted(H.__all__)).encode()).hexdigest() == \
        "88de145885eb55718f0c5f37c73d780500fedf98e423c3de0de2fdf12a7e3e61"
    for name in H.__all__:
        assert getattr(H, name) is not None
    # the slow routes live only in hinv.oracles
    for name in ("s_coefficients", "solve_lambda_by_elimination", "necessity_triangular_solve",
                 "adjugate_spotcheck"):
        assert getattr(H, name) is getattr(hinv.oracles, name)
        assert not hasattr(sys.modules["hinv.certify"], name)
        assert not hasattr(H.worstcase, name)
    for name in ("OperatorOracle", "Trajectory", "anytime_check", "linear_oracle",
                 "rotation_oracle", "run", "worst_case_oracle", "worst_case_start"):
        assert getattr(H, name) is getattr(hinv.simulate, name)
    assert set(H.__all__) <= set(dir(H))
    namespace = {}
    exec("from hinv import *", namespace)
    assert set(H.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        H.no_such_name
