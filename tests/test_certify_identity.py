"""One digest over ``hinv certify`` output, so a change to the invariant tables
or the certificates that alters any verdict byte shows up as a failing test.

The population is every catalog member with horizon N <= 10, strange3 and
its dual, one seeded ``h_from_sparsity`` matrix for each N = 11..20, and ten
seeded ``random_h`` matrices (which violate invariance).  The digest covers
the exit code and stdout of every run in order; certify prints exact
rationals only, so the digest does not depend on numpy or the platform.

Among certificate-violated matrices that population holds only strange3's
dual, so a second digest covers dense, mixed-sign certificates: one seeded
``random_certificate_violating_h`` for each N = 4..14.

A third digest covers ``hinv oracle-check`` for a few seeds and horizons and
one run with a bug injected into the chain enumeration (P off by one), so it
pins the order of the seeded draws and the counterexample JSON.

A fourth digest covers ``hinv sweep`` CSVs: the self-dual and second-mixed
families over N = 4..10 and ohm and dual ohm over N = 2..16, so sharing one
invariance report between the verdict's steps changes no sweep byte.

A fifth digest covers optimal matrices with dense certificates: one seeded
``random_hull_h`` for each N = 4..14.  A sixth covers the terminal
partial-invariant profile of every catalog member with N <= 24, so the Q
table behind the certificates and the profile bijection changes no value.
"""

import hashlib
import json
import random

import hinv as H
from hinv import serialization as ser
from hinv.cli import main
from hinv.oracles import random_certificate_violating_h, random_h, random_hull_h

DIGEST = "15aa271b4e3b065f627bc3fb7999ec71e076a41c37fd9fa8ffc5a9cb52312dbe"
VIOLATOR_DIGEST = "947c77668ece89a5432a56c36a871c358368c67a79278cbdaa4e59371a40987f"
ORACLE_DIGEST = "d2897a0583d722d511ef1cf0fad07a66ca2d79d29c5488c2765260791c445363"
SWEEP_DIGEST = "adb13bbd09db43603402391176d2c339fe18dd56f7a799894a6c56e0a2e8684c"
HULL_DIGEST = "8718a9f0533734c4ca0f3df2fe8a43c48eee86bdef58ebba5ba4f41d605291f6"
PROFILE_DIGEST = "cb74800aff126f007ac7e0e84ff8b99eb12418861d4103fbce833787b8758814"


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


def test_certify_output_digest_on_certificate_violators(tmp_path, capsys):
    rng = random.Random(17)
    digest = hashlib.sha256()
    for n in range(4, 15):
        h = random_certificate_violating_h(rng, n)
        signs = {v > 0 for _, v in H.certificates(h).items() if v}
        assert signs == {True, False}, n  # mixed signs
        path = tmp_path / f"v{n}.json"
        path.write_text(json.dumps(ser.hmatrix_to_dict(h)))
        code = main(["certify", str(path)])
        assert code == 3, n
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == VIOLATOR_DIGEST


def test_oracle_check_output_digest(capsys, monkeypatch):
    import hinv.oracles

    enumerate_p = hinv.oracles.p_by_enumeration
    digest = hashlib.sha256()
    codes = []
    for seed, n_max, bug in ((1, 3, 0), (2, 5, 0), (7, 6, 0), (9, 8, 0), (3, 4, 1)):
        monkeypatch.setattr(hinv.oracles, "p_by_enumeration",
                            lambda h, k, m, bug=bug: enumerate_p(h, k, m) + bug)
        code = main(["oracle-check", "--seed", str(seed), "--n-max", str(n_max)])
        codes.append(code)
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert codes == [0, 0, 0, 0, 6]
    assert digest.hexdigest() == ORACLE_DIGEST


def test_sweep_output_digest(capsys):
    digest = hashlib.sha256()
    for family, n_range in (("self-dual", "4:10"), ("second-mixed", "4:10"),
                            ("ohm", "2:16"), ("dual-ohm", "2:16")):
        code = main(["sweep", "--family", family, "--n-range", n_range])
        out = capsys.readouterr().out
        assert code == 0 and out.count(",optimal,") == len(out.splitlines()) - 1, family
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == SWEEP_DIGEST


def test_certify_output_digest_on_hull_matrices(tmp_path, capsys):
    rng = random.Random(19)
    digest = hashlib.sha256()
    for n in range(4, 15):
        path = tmp_path / f"hull{n}.json"
        path.write_text(json.dumps(ser.hmatrix_to_dict(random_hull_h(rng, n))))
        code = main(["certify", str(path)])
        assert code == 0, n
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == HULL_DIGEST


def test_q_profile_digest_on_the_catalog():
    digest = hashlib.sha256()
    cases = [H.strange3()]
    for n in range(2, 25):
        cases += [H.ohm(n), H.dual_ohm(n)]
        for n_prime in range(2, n - 1):
            cases += [H.self_dual_mixed(n, n_prime), H.second_mixed(n, n_prime)]
    for h in cases:
        digest.update(json.dumps(ser.qprofile_to_dict(H.q_profile(h))).encode() + b"\n")
    assert digest.hexdigest() == PROFILE_DIGEST
