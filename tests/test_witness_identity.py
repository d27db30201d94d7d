"""One digest over ``hinv falsify`` output, so a change to the witness stage
that alters any witness byte shows up as a failing test.

The population is every negative pair of h_dual(strange3()) (``--pair``) and
two seeded certificate violators for each horizon 4..8 (default pair), each
run with and without ``--emit-vectors``.  The digest covers the exit code and
stdout of every run in order.  ``--emit-vectors`` prints the floats of a numpy
Cholesky factor, so a different numpy or BLAS build may change the digest
without any change to the exact witness; the exact part alone is pinned by
``EXACT_DIGEST``.
"""

import hashlib
import json
import random

import hinv as H
from hinv import serialization as ser
from hinv.cli import main
from hinv.oracles import random_certificate_violating_h

EXACT_DIGEST = "5d63d6fbb69f589a1c51b8ab37b5cbc78ee3ee9f4da81b9dc0ddfb1480b0a1dc"
FULL_DIGEST = "42a7bbb081b38f0a0a971a1e41b1a0da6f607c8c7c24038719d7c59e836824b5"


def _population():
    h = H.h_dual(H.strange3())
    cases = [(h, pair) for pair in H.certificates(h).negative_pairs()]
    rng = random.Random(10)
    cases += [(random_certificate_violating_h(rng, n), None) for n in range(4, 9) for _ in range(2)]
    return cases


def _digests(tmp_path, capsys):
    exact, full = hashlib.sha256(), hashlib.sha256()
    for k, (h, pair) in enumerate(_population()):
        path = tmp_path / f"h{k}.json"
        path.write_text(json.dumps(ser.hmatrix_to_dict(h)))
        argv = ["falsify", str(path)] + (["--pair", str(pair[0]), str(pair[1])] if pair else [])
        for vectors in (False, True):
            code = main(argv + (["--emit-vectors"] if vectors else []))
            record = f"{code}\n{capsys.readouterr().out}".encode()
            full.update(record)
            if not vectors:
                exact.update(record)
    return exact.hexdigest(), full.hexdigest()


def test_falsify_output_digest(tmp_path, capsys):
    exact, full = _digests(tmp_path, capsys)
    assert exact == EXACT_DIGEST
    assert full == FULL_DIGEST
