import json
import random
from fractions import Fraction as F

import pytest

import hinv as H
from hinv import serialization as ser
from hinv.oracles import random_h, random_q_profile


def test_rational_formatting():
    assert ser.format_rational(F(3, 4)) == "3/4"
    assert ser.format_rational(F(-6, 8)) == "-3/4"
    assert ser.format_rational(F(5)) == "5"
    assert ser.format_rational(0) == "0"


def test_rational_parsing():
    assert ser.parse_rational("3/4") == F(3, 4)
    assert ser.parse_rational("-7") == F(-7)
    assert ser.parse_rational(12) == F(12)
    assert ser.parse_rational("-1/2") == F(-1, 2)
    assert ser.parse_rational("0") == 0
    # only the text format_rational writes back is canonical
    for bad in ("0.5", "3/-4", "1/0", "a/b", "", "1.0e3",
                "\u0661/2", " 1/2 ", "1/2\n", "007", "+1", "-0", "2/4", "3/1", "0/5"):
        with pytest.raises(ValueError):
            ser.parse_rational(bad)


def decimal_by_chunks(n):
    """Decimal text of an integer, 18 digits at a time (never str() on a long int)."""
    sign, n, chunks = "-" if n < 0 else "", abs(n), []
    while n >= 10 ** 18:
        n, low = divmod(n, 10 ** 18)
        chunks.append(f"{low:018d}")
    return sign + str(n) + "".join(reversed(chunks))


def test_rationals_beyond_the_int_str_digit_limit():
    # exact at any length, past Python's 4300-digit int<->str limit
    rng = random.Random(4300)
    for digits in (599, 600, 601, 1999, 4301, 10_000):
        num = rng.randrange(10 ** (digits - 1), 10 ** digits)
        for value in (F(num), F(-num), F(num, 10 ** digits + 1), F(-7, num)):
            text = ser.format_rational(value)
            want = decimal_by_chunks(value.numerator)
            if value.denominator > 1:
                want += "/" + decimal_by_chunks(value.denominator)
            assert text == want
            assert ser.parse_rational(text) == value
    ten = ser.format_rational(F(10 ** 10_000))
    assert ten == "1" + "0" * 10_000
    assert ser.parse_rational("-" + ten + "/3") == F(-10 ** 10_000, 3)
    for bad in ("0" + ten, ten + "/" + ten, "-0" + "0" * 10_000):
        with pytest.raises(ValueError):
            ser.parse_rational(bad)


def test_hmatrix_document_shape():
    doc = ser.hmatrix_to_dict(H.strange3())
    assert doc == {
        "n": 3,
        "rows": [["3/4"], ["-1/4", "4/7"], ["-1/12", "-1/14", "7/12"]],
    }
    assert ser.hmatrix_from_dict(doc) == H.strange3()


def test_hmatrix_round_trip_random():
    rng = random.Random(3)
    for _ in range(10):
        h = random_h(rng, rng.randint(0, 6))
        doc = json.loads(json.dumps(ser.hmatrix_to_dict(h)))
        assert ser.hmatrix_from_dict(doc) == h


def test_hmatrix_empty_round_trip():
    doc = ser.hmatrix_to_dict(H.HMatrix([]))
    assert doc == {"n": 0, "rows": []}
    assert ser.hmatrix_from_dict(doc) == H.HMatrix([])


def test_hmatrix_document_errors():
    with pytest.raises(ValueError):
        ser.hmatrix_from_dict({"n": 2, "rows": [["1/2"]]})  # declared size mismatch
    with pytest.raises(ValueError):
        ser.hmatrix_from_dict({"rows": [["0.5"]]})  # float string
    with pytest.raises(ValueError):
        ser.hmatrix_from_dict(["not", "an", "object"])
    for declared in (1.0, "1", [1]):  # the declared dimension must be a JSON integer
        with pytest.raises(ValueError):
            ser.hmatrix_from_dict({"n": declared, "rows": [["1/2"]]})


def test_hmatrix_document_rejects_non_list_rows():
    # a string row would otherwise iterate character by character
    with pytest.raises(ValueError):
        ser.hmatrix_from_dict({"rows": [["1/2"], "12"]})
    with pytest.raises(ValueError):
        ser.hmatrix_from_dict({"rows": [["1/2"], {"a": "1"}]})
    with pytest.raises(ValueError):
        ser.hmatrix_from_dict({"rows": "1"})


def test_hmatrix_document_rejects_booleans():
    for doc in (
        {"rows": [[True]]},
        {"rows": [["1/2"], ["1/3", False]]},
        json.loads('{"rows": [[true]]}'),
        {"n": True, "rows": [["1"]]},
    ):
        with pytest.raises(ValueError):
            ser.hmatrix_from_dict(doc)
    with pytest.raises(ValueError):
        ser.parse_rational(True)
    assert ser.hmatrix_from_dict({"n": 1, "rows": [[1]]}) == H.HMatrix([[1]])


def test_qprofile_round_trip():
    rng = random.Random(5)
    for _ in range(8):
        q = random_q_profile(rng, rng.randint(2, 7))
        doc = json.loads(json.dumps(ser.qprofile_to_dict(q)))
        assert ser.qprofile_from_dict(doc) == q


def test_qprofile_absent_keys_are_zero():
    q = ser.qprofile_from_dict({"n": 3, "q": {"2,1": "1/3"}})
    assert q.value(2, 1) == F(1, 3)
    assert q.value(1, 1) == 0
    assert q.value(1, 2) == 0


def test_qprofile_document_errors():
    # the horizon must be a JSON integer and 'q' an object (absent or null: empty)
    for doc in (
        {"n": 4.9},
        {"n": True},
        {"n": "3"},
        {"n": None},
        {"n": 3, "q": [1]},
        {"n": 3, "q": "1,1"},
        {"n": 3, "q": {"1,1": 0.5}},
        ["n", 3],
    ):
        with pytest.raises(ValueError):
            ser.qprofile_from_dict(doc)
    # a key is exactly two positive decimal indices 'k,j': int() alone would
    # read each of these as a valid pair (or let '01,1' overwrite '1,1')
    for key in ("1_0,1", "01,1", "1,01", "+1,1", " 1,1", "1, 1", "1,1\n", "\u0661,1",
                "0,1", "1,0", "-1,1", "1,1,1", "1", "", "1;1", "k,j"):
        with pytest.raises(ValueError, match="bad index key"):
            ser.qprofile_from_dict({"n": 12, "q": {key: "1"}})
    with pytest.raises(ValueError, match="bad index key"):
        ser.qprofile_from_dict({"n": 3, "q": {"1,1": "1", "01,1": "2"}})
    assert ser.qprofile_from_dict({"n": 3}) == H.QProfile(3, {})
    assert ser.qprofile_from_dict({"n": 3, "q": None}) == H.QProfile(3, {})


def test_verdict_documents():
    doc = ser.verdict_to_dict(H.certify(H.strange3()))
    assert doc["status"] == "optimal"
    assert doc["residuals"] == {"1": "0", "2": "0", "3": "0"}
    assert doc["lambda"]["4,3"] == "7/3"
    assert doc["negative"] == []

    doc = ser.verdict_to_dict(H.certify(H.h_dual(H.strange3())))
    assert doc["status"] == "certificate_violated"
    assert [4, 2] in doc["negative"]
    assert doc["lambda"]["4,2"] == "-3/7"

    doc = ser.verdict_to_dict(H.certify(H.HMatrix([["1/3"]])))
    assert doc["status"] == "invariance_violated"
    assert doc["lambda"] == {}
    assert doc["residuals"]["1"] == "-1/6"


def test_witness_document():
    w = H.suboptimality_witness(H.h_dual(H.strange3()), 4, 2)
    doc = json.loads(json.dumps(ser.witness_to_dict(w)))
    assert doc["n"] == 4
    assert doc["violated_pair"] == [4, 2]
    assert doc["bound_sq"] == "1/4"
    assert ser.parse_rational(doc["residual_sq"]) == w.residual_sq
    gram = [[ser.parse_rational(x) for x in row] for row in doc["gram"]]
    assert gram == w.gram_rows()
