"""Property test: a malformed input document exits 1 with one stderr line.

Every document generated here is malformed by construction; the CLI must
turn each into exit code 1, no stdout, exactly one line on stderr and no
traceback.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hinv import serialization as ser  # noqa: E402
from hinv.cli import main  # noqa: E402

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _not_rational(value):
    try:
        ser.parse_rational(value)
    except (ValueError, TypeError):
        return True
    return False


GOOD_ENTRY = st.fractions(max_denominator=9).map(ser.format_rational)
BAD_ENTRY = JSON.filter(_not_rational)


@st.composite
def _bad_entry_matrix(draw):
    """A well-shaped step matrix with one entry that is not an exact rational."""
    size = draw(st.integers(1, 4))
    rows = [[draw(GOOD_ENTRY) for _ in range(k)] for k in range(1, size + 1)]
    k = draw(st.integers(0, size - 1))
    rows[k][draw(st.integers(0, k))] = draw(BAD_ENTRY)
    return {"rows": rows}


@st.composite
def _bad_shape_matrix(draw):
    """Rows of rationals where some row k does not have exactly k entries."""
    lengths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    if all(n == k for k, n in enumerate(lengths, start=1)):
        lengths[-1] += 1
    return {"rows": [[draw(GOOD_ENTRY) for _ in range(n)] for n in lengths]}


BAD_DECLARED = JSON.filter(lambda v: v is not None and (type(v) is not int or v != 1))
MALFORMED_MATRIX = st.one_of(
    JSON.filter(lambda v: not isinstance(v, dict)),
    st.dictionaries(st.text(max_size=4).filter(lambda k: k != "rows"), JSON, max_size=3),
    st.fixed_dictionaries({"rows": JSON.filter(lambda v: not isinstance(v, list))}),
    _bad_entry_matrix(),
    _bad_shape_matrix(),
    st.fixed_dictionaries({"n": BAD_DECLARED, "rows": st.just([["1/2"]])}),
)
# A horizon-3 method on the cyclic operator starts in R^3; anything else is malformed.
MALFORMED_START = st.one_of(
    JSON.filter(lambda v: not isinstance(v, list)),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6).filter(
        lambda v: len(v) != 3
    ),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_failure(code, stdout, stderr):
    assert code == 1
    assert stdout == ""
    assert len(stderr.strip().splitlines()) == 1, stderr
    assert "Traceback" not in stderr


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as path:
        with open(os.path.join(path, "h.json"), "w", encoding="utf-8") as fh:
            json.dump({"n": 2, "rows": [["3/4"], ["-1/4", "4/7"]]}, fh)
        yield path


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@settings(max_examples=150, deadline=None)
@given(doc=MALFORMED_MATRIX)
def test_malformed_step_matrix_exits_1(workdir, doc):
    path = _write(workdir, "doc.json", json.dumps(doc))
    _assert_clean_failure(*_run(["certify", path]))


@settings(max_examples=50, deadline=None)
@given(data=st.binary(max_size=40))
def test_unparsable_step_matrix_exits_1(workdir, data):
    path = os.path.join(workdir, "raw.json")
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        ser.hmatrix_from_dict(json.loads(data))
    except (ValueError, TypeError):
        pass
    else:
        return  # the bytes happen to be a valid document
    _assert_clean_failure(*_run(["certify", path]))


@settings(max_examples=100, deadline=None)
@given(doc=MALFORMED_START, operator=st.booleans())
def test_malformed_start_or_operator_exits_1(workdir, doc, operator):
    h = os.path.join(workdir, "h.json")
    bad = _write(workdir, "bad.json", json.dumps(doc))
    if operator:  # the malformed document is the operator matrix; the start is fine
        good = _write(workdir, "y0.json", "[0.5, 0.5, 0.5]")
        argv = ["simulate", "--h", h, "--oracle", f"matrix:{bad}", "--y0", good]
    else:
        argv = ["simulate", "--h", h, "--oracle", "worstcase", "--y0", bad]
    _assert_clean_failure(*_run(argv))
