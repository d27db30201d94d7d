"""One-line mutants of ``src/hinv``, and a runner that shows each one killed.

Each entry of ``MUTANTS`` names one fault: the old text occurs exactly once
in its file under ``src/hinv``, and replacing it by the new text must make
every listed test fail.  Most mutants disable one exact re-check or move one
tolerance; the tests that kill them inject the fault the check guards.
``EQUIVALENT`` lists mutants that change no result, each with its reason;
the runner skips them.  pytest does not collect this file (its name does not
match ``test_*.py``), and ``tests/test_source_hygiene.py`` checks that every
old text still occurs once and that every listed test still exists.

    python tests/mutants.py              # each mutant against its listed tests

Each mutant runs on its own copy of the checkout in a temporary directory,
so the checkout itself is never edited.  The exit code is 1 if any mutant
survives.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name file old new kills")

MUTANTS = (
    Mutant("p-table order bound", "algebra.py",
           "if j >= m - 1 and (prev := table[j][m - 1]):",
           "if j > m - 1 and (prev := table[j][m - 1]):",
           ("tests/test_acceptance.py::test_criterion_01_optimal_family_certification",
            "tests/test_algebra.py::test_enumeration_oracle_agreement")),
    Mutant("certificate denominator", "certify.py",
           "dens[j - 1] * dens[k - 1]",
           "dens[j - 1] * dens[j - 1]",
           ("tests/test_acceptance.py::test_criterion_02_strange_regression",
            "tests/test_certify.py::test_elimination_agrees_on_catalog")),
    Mutant("corner recheck", "worstcase.py",
           "    if c != 0:\n",
           "    if False:\n",
           ("tests/test_worstcase.py::test_build_perturbation_corner_recheck_catches_a_wrong_corner",)),
    Mutant("selector recheck", "worstcase.py",
           "    if d <= 0 or e <= 0:\n",
           "    if False:\n",
           ("tests/test_worstcase.py::"
            "test_build_perturbation_selector_recheck_fires_on_a_nonpositive_selector",)),
    Mutant("residual recheck", "worstcase.py",
           "    if residual_sq <= Fraction(4, n * n):\n",
           "    if False:\n",
           ("tests/test_worstcase.py::"
            "test_witness_residual_recheck_catches_a_direction_that_lowers_the_terminal_entry",)),
    Mutant("determinant recheck", "worstcase.py",
           "    if mat_det(scaled) != minors[-1]:\n",
           "    if False:\n",
           ("tests/test_worstcase.py::test_witness_determinant_recheck_catches_wrong_minors",)),
    Mutant("trace symmetrization", "worstcase.py",
           "    gram = [[(x + y) / 2 for x, y in zip(row, col)] for row, col in zip(gram, zip(*gram))]\n",
           "",
           ("tests/test_worstcase.py::test_interpolation_traces_read_the_symmetrized_gram",)),
    Mutant("float cholesky failure", "worstcase.py",
           'raise InternalConsistencyError("float Cholesky failed on an exactly PD matrix") from exc',
           "return []",
           ("tests/test_worstcase.py::test_witness_vectors_report_a_failed_float_cholesky",)),
    Mutant("minor scale", "exactlinalg.py",
           "minors.append(Fraction(p, den ** (k + 1)))",
           "minors.append(Fraction(p, den ** k))",
           ("tests/test_exactlinalg.py::"
            "test_leading_minors_one_pass_meets_a_zero_pivot_first_midway_and_last",
            "tests/test_exactlinalg_sympy.py::test_leading_minors_at_a_zero_pivot_match_sympy")),
    Mutant("row-1 recheck", "oracles.py",
           "    if _row_block(h, lam, 1)[2] != 0:\n",
           "    if False:\n",
           ("tests/test_certify.py::test_elimination_checks_the_row_1_equation",)),
    Mutant("spot-check tolerance", "simulate.py",
           "rel_tol: float = 1e-12",
           "rel_tol: float = 1e-3",
           ("tests/test_simulate.py::test_spot_check_tolerance_is_1e_12_relative",)),
    Mutant("operator-norm slack", "simulate.py",
           "if not norm <= 1.0 + 1e-12:",
           "if not norm <= 1.0 + 1e-6:",
           ("tests/test_simulate.py::test_linear_oracle_norm_slack_is_1e_12",)),
)

EQUIVALENT = (
    (Mutant("echelon row gcd", "exactlinalg.py",
            "        g = math.gcd(*ints) or 1\n",
            "        g = 1\n",
            ()),
     "the Bareiss divisions stay exact without the row gcd, so every result is the same; "
     "only build_perturbation's Frobenius solve gets slower"),
)

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*")


def apply(mutant, root):
    """Write the mutant into the copy at ``root``; the old text must occur exactly once."""
    path = Path(root) / "src" / "hinv" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_mutant(mutant):
    """(killed, detail): the mutant is killed when every one of its listed tests fails."""
    with tempfile.TemporaryDirectory(prefix="hinv-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        apply(mutant, copy)
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf",
                               *mutant.kills],
                              cwd=copy, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(copy / "src")})
    failed = set(re.findall(r"^FAILED (\S+)", proc.stdout, re.M))
    missed = [test for test in mutant.kills if test not in failed]
    return not missed, "every listed test failed" if not missed else f"passed: {', '.join(missed)}"


def main():
    survivors = 0
    for mutant in MUTANTS:
        killed, detail = run_mutant(mutant)
        survivors += not killed
        print(f"{'killed  ' if killed else 'SURVIVED'} {mutant.name}: {detail}", flush=True)
    for mutant, reason in EQUIVALENT:
        print(f"skipped  {mutant.name} (equivalent: {reason})")
    print(f"{len(MUTANTS) - survivors} killed, {survivors} survived of {len(MUTANTS)} mutants")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
