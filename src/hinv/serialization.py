"""Stable JSON formats for the exact types.

Rationals always travel as canonical strings "p/q" (or "p" when integral),
never as floats; floats appear only in explicitly float payloads such as
emitted witness vectors.  Indices in files are 1-based throughout.

Formats:

* step matrix   {"n": <dimension>, "rows": [["1/2"], ["-1/6", "2/3"], ...]}
* profile       {"n": <horizon>, "q": {"k,j": "p/q", ...}}   (absent = zero)
* verdict       {"status": ..., "residuals": {"m": "p/q"}, "lambda": {"k,j": "p/q"},
                 "negative": [[k, j], ...]}
* witness       {"n": ..., "epsilon": "p/q", "gram": [[...]], "violated_pair": [i, j],
                 "residual_sq": "p/q", "bound_sq": "p/q"}
"""

import re
from fractions import Fraction

from .algebra import HMatrix, QProfile
from .certify import Verdict

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
_PAIR_KEY_RE = re.compile(r"[1-9][0-9]*,[1-9][0-9]*")
# Plain int() and str() convert integers of up to _PIECE digits, below 640,
# the smallest int<->str digit limit Python can be set to; longer integers
# are split in halves at a power of ten, so they convert at any length.
_PIECE = 600


def _decimal(n: int) -> str:
    """str(n) for an integer of any length."""
    if n.bit_length() <= 3 * _PIECE:  # 2^1800 < 10^542
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half its digits, as log10(2) > 3/10
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def _integer(text: str) -> int:
    """int(text) for a decimal string of any length."""
    if len(text) <= _PIECE:
        return int(text)
    if text.startswith("-"):
        return -_integer(text[1:])
    k = len(text) // 2
    return _integer(text[:-k]) * 10 ** k + _integer(text[-k:])


def format_rational(x) -> str:
    x = Fraction(x)
    num = _decimal(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_decimal(x.denominator)}"


def parse_rational(text) -> Fraction:
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ValueError(f"rationals must be integers or 'p/q' strings, not the JSON number {text!r}")
    # canonical: format_rational writes the value back as exactly this text
    if not (isinstance(text, str) and _RATIONAL_RE.fullmatch(text)):
        raise ValueError(f"not a canonical rational string: {text!r}")
    num, _, den = text.partition("/")
    value = Fraction(_integer(num), _integer(den or "1"))
    if format_rational(value) != text:
        raise ValueError(f"not a canonical rational string: {text!r}")
    return value


def hmatrix_to_dict(h: HMatrix) -> dict:
    return {
        "n": h.n_minus_1,
        "rows": [[format_rational(x) for x in row] for row in h.rows],
    }


def hmatrix_from_dict(data) -> HMatrix:
    if not isinstance(data, dict) or "rows" not in data:
        raise ValueError("step matrix document must be an object with a 'rows' field")
    rows = data["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("'rows' must be a list of lists")
    h = HMatrix([[parse_rational(x) for x in row] for row in rows])
    declared = data.get("n")
    if declared is not None and type(declared) is not int:
        raise ValueError(f"declared dimension must be an integer, got {declared!r}")
    if declared is not None and declared != h.n_minus_1:
        raise ValueError(f"declared dimension {declared} does not match {h.n_minus_1} rows")
    return h


def _pair_key(k: int, j: int) -> str:
    return f"{k},{j}"


def _parse_pair_key(key: str):
    # fullmatch: '$' would also accept a trailing newline
    if not isinstance(key, str) or not _PAIR_KEY_RE.fullmatch(key):
        raise ValueError(f"bad index key {key!r}; expected 'k,j' with positive decimal indices")
    k, j = key.split(",")
    return int(k), int(j)


def qprofile_to_dict(q: QProfile) -> dict:
    return {
        "n": q.n,
        "q": {_pair_key(k, j): format_rational(v) for (k, j), v in q.items()},
    }


def qprofile_from_dict(data) -> QProfile:
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError("profile document must be an object with an 'n' field")
    n = data["n"]
    if type(n) is not int:
        raise ValueError(f"profile horizon must be an integer, got {n!r}")
    table = data.get("q")
    if table is None:
        table = {}
    if not isinstance(table, dict):
        raise ValueError("'q' must be an object mapping 'k,j' to rationals")
    values = {_parse_pair_key(key): parse_rational(v) for key, v in table.items()}
    return QProfile(n, values)


def verdict_to_dict(v: Verdict) -> dict:
    lam = () if v.certificates is None else v.certificates.items()
    return {
        "status": v.status,
        "residuals": {str(m): format_rational(v.report.residual(m)) for m in range(1, v.report.n)},
        "lambda": {_pair_key(k, j): format_rational(value) for (k, j), value in lam},
        "negative": [list(pair) for pair in v.negative],
    }


def witness_to_dict(w) -> dict:
    """The document of a :class:`hinv.worstcase.GramWitness`."""
    return {
        "n": w.n,
        "epsilon": format_rational(w.epsilon),
        "gram": [[format_rational(x) for x in row] for row in w.gram],
        "violated_pair": list(w.violated_pair),
        "residual_sq": format_rational(w.residual_sq),
        "bound_sq": format_rational(w.bound_sq()),
    }
