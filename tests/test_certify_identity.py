"""One digest over ``hinv certify`` output, so a change to the invariant tables
or the certificates that alters any verdict byte shows up as a failing test.

The population is every catalog member with horizon N <= 10, strange3 and
its dual, one seeded ``h_from_sparsity`` matrix for each N = 11..20, and ten
seeded ``random_h`` matrices (which violate invariance).  The digest covers
the exit code and stdout of every run in order; certify prints exact
rationals only, so the digest does not depend on numpy or the platform.
"""

import hashlib
import json
import random

import hinv as H
from hinv import serialization as ser
from hinv.cli import main
from hinv.oracles import random_h

DIGEST = "15aa271b4e3b065f627bc3fb7999ec71e076a41c37fd9fa8ffc5a9cb52312dbe"


def _population():
    cases = []
    for n in range(2, 11):
        cases += [H.ohm(n), H.dual_ohm(n)]
        for n_prime in range(2, n - 1):
            cases += [H.self_dual_mixed(n, n_prime), H.second_mixed(n, n_prime)]
    cases += [H.strange3(), H.h_dual(H.strange3())]
    rng = random.Random(11)
    for n in range(11, 21):
        pattern = [rng.choice((H.TOP, H.BOTTOM)) for _ in range(n - 2)]
        cases.append(H.h_from_sparsity(H.SparsityChoice(n, pattern)))
    cases += [random_h(rng, size) for size in range(3, 13)]
    return cases


def test_certify_output_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    codes = []
    for k, h in enumerate(_population()):
        path = tmp_path / f"h{k}.json"
        path.write_text(json.dumps(ser.hmatrix_to_dict(h)))
        code = main(["certify", str(path)])
        codes.append(code)
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert codes[-10:] == [2] * 10  # the random matrices are off the invariance level set
    assert codes.count(0) == len(codes) - 11  # every other member but dual strange3 is optimal
    assert digest.hexdigest() == DIGEST
