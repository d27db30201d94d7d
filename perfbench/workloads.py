"""The benchmark's workloads: seeded inputs, one real hinv command per op, exact checks.

certify-large    ``hinv certify FILE`` in-process on a fresh optimal matrix of
                 horizon N=16, built by ``h_from_sparsity`` from a seeded
                 top/bottom pattern (2^14 patterns, none repeats in a run).
                 Nearly all its time is the P/Q tables and the closed-form
                 certificates; it never reaches ``worstcase`` or ``exactlinalg``.
falsify-witness  ``hinv falsify FILE --emit-vectors`` in-process on a fresh
                 certificate-violating invariant matrix of horizon N=6.  Most
                 of its time is ``build_perturbation`` and the epsilon-halving
                 leading minors; ``certify`` is a few percent.
sweep-catalog    ``python -m hinv.cli sweep --family F --n-range 4:10`` in a
                 fresh process, F alternating self-dual / second-mixed (28
                 optimal cells each).  Many small-N certifications, where the
                 per-matrix fixed costs, the sweep's thread pool and the
                 interpreter start weigh most; a cache kept across calls earns
                 nothing because every op is a new process.  For the end-to-end
                 metrics the op child runs on one CPU (see ``SweepCatalog.cpus``).

A workload makes each input with ``next_input()`` before the op's timed span,
runs the op with ``run()`` (the only timed part) and checks the output with
``check()``, which raises CheckFailed or returns the items the op completed.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from hinv import cli, oracles, serialization
from hinv.catalog import BOTTOM, TOP, SparsityChoice, h_from_sparsity
from hinv.worstcase import interpolation_traces


class CheckFailed(Exception):
    """An op's output is not what the input requires."""


class Input(NamedTuple):
    argv: tuple   # hinv command line, without the program name
    h: object     # the step matrix behind the input file, if any
    detail: object  # the generating pattern (certify-large) or family (sweep-catalog)


class Outcome(NamedTuple):
    code: int
    stdout: str
    stderr: str
    cpu_s: float = 0.0    # child CPU seconds; subprocess ops only
    maxrss_kb: int = 0    # child peak resident set; subprocess ops only


def child_env(root):
    """Environment that makes a child interpreter import hinv from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["HINV_COLOR"] = "0"
    return env


def in_process(argv):
    """Run ``hinv.cli.main`` in this interpreter with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return Outcome(code, out.getvalue(), err.getvalue())


def in_subprocess(argv, root, err_path, cpus=None):
    """Run a command to completion and collect the child's own resource usage.

    ``cpus``, if given, is the set of CPUs the child may run on.
    """
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    with open(err_path, "w+b") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(root), cwd=root, preexec_fn=pin)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        errtext = err.read().decode(errors="replace")
    return Outcome(proc.returncode, out.decode(), errtext,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def _expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def _exit_ok(out):
    _expect(out.code == 0, f"exit code {out.code}: {out.stderr.strip()[-300:]}")


def _positive_definite(a):
    """Every leading principal minor is positive: elimination pivots all positive."""
    a = [list(row) for row in a]
    for k in range(len(a)):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, len(a)):
            f = a[i][k] / pivot
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return True


class Workload:
    """Seeded input stream plus the op and its output check."""

    name = ""
    required = ()  # traced functions the op must reach
    fresh_process = False  # whether run() starts a new interpreter per op

    def __init__(self, seed, workdir, root):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.root = root
        self._seen = set()
        self._made = 0

    def _file_for(self, h):
        """Assert the matrix is new in this run and write it as the op's input file."""
        if h.rows in self._seen:
            raise RuntimeError(f"{self.name}: input matrix repeated within the run")
        self._seen.add(h.rows)
        self._made += 1
        path = self.workdir / f"{self.name}-{self._made}.json"
        path.write_text(json.dumps(serialization.hmatrix_to_dict(h)), encoding="utf-8")
        return str(path)

    def run(self, inp):
        return in_process(inp.argv)

    def run_in_process(self, inp):
        return in_process(inp.argv)


class CertifyLarge(Workload):
    name = "certify-large"
    required = ("algebra.HMatrix.column_sum", "algebra.p_invariant",
                "certify.invariance_report", "certify.certificates", "certify.certify",
                "cli.main", "serialization.hmatrix_from_dict", "serialization.verdict_to_dict")

    def __init__(self, seed, workdir, root, smoke=False):
        super().__init__(seed, workdir, root)
        self.n = 5 if smoke else 16
        self._patterns = set()

    def next_input(self):
        bits = self.rng.getrandbits(self.n - 2)
        while bits in self._patterns:
            bits = self.rng.getrandbits(self.n - 2)
        self._patterns.add(bits)
        pattern = tuple(TOP if bits >> i & 1 else BOTTOM for i in range(self.n - 2))
        h = h_from_sparsity(SparsityChoice(self.n, pattern))
        return Input(("certify", self._file_for(h)), h, pattern)

    def check(self, inp, out):
        """Optimal, and column j's only nonzero certificate sits where the pattern puts it."""
        _exit_ok(out)
        doc = json.loads(out.stdout)
        n = self.n
        _expect(doc["status"] == "optimal", f"status {doc['status']}")
        _expect(len(doc["residuals"]) == n - 1 and set(doc["residuals"].values()) == {"0"},
                "nonzero invariance residual")
        nonzero = {}
        for key, value in doc["lambda"].items():
            k, j = map(int, key.split(","))
            if Fraction(value):
                nonzero.setdefault(j, []).append((k, Fraction(value)))
        _expect(set(nonzero) == set(range(1, n)), f"columns with certificates: {sorted(nonzero)}")
        for j in range(1, n):
            row = j + 1 if j <= n - 2 and inp.detail[j - 1] == TOP else n
            _expect(len(nonzero[j]) == 1 and nonzero[j][0][0] == row and nonzero[j][0][1] > 0,
                    f"column {j}: expected one positive certificate at ({row},{j}), "
                    f"got {nonzero[j]}")
        return 1


class FalsifyWitness(Workload):
    name = "falsify-witness"
    required = ("certify.certify", "certify.certificates", "worstcase.suboptimality_witness",
                "worstcase.build_perturbation", "worstcase.constraint_matrices",
                "worstcase.gram_g0", "worstcase.witness_vectors",
                "exactlinalg.solve_consistent", "exactlinalg.leading_principal_minors",
                "exactlinalg.mat_det", "cli.main", "serialization.hmatrix_from_dict",
                "serialization.witness_to_dict")

    def __init__(self, seed, workdir, root, smoke=False):
        super().__init__(seed, workdir, root)
        self.n = 4 if smoke else 6

    def next_input(self):
        h = oracles.random_certificate_violating_h(self.rng, self.n)
        return Input(("falsify", self._file_for(h), "--emit-vectors"), h, None)

    def check(self, inp, out):
        """Re-check the emitted witness exactly, and its float vectors to 1e-9."""
        _exit_ok(out)
        doc = json.loads(out.stdout)
        h, n = inp.h, self.n
        gram = [[Fraction(x) for x in row] for row in doc["gram"]]
        _expect(len(gram) == n + 1 and all(len(row) == n + 1 for row in gram), "gram shape")
        _expect(_positive_definite(gram), "gram is not positive definite")
        _expect(gram[n][n] == 1, "corner entry is not 1")
        pair = tuple(doc["violated_pair"])
        _expect(interpolation_traces(gram, h).zero_except(pair),
                f"interpolation traces not zero except at {pair}")
        residual = Fraction(doc["residual_sq"])
        _expect(residual == 4 * gram[n - 1][n - 1], "residual_sq != 4 * gram[N-1][N-1]")
        _expect(residual > Fraction(4, n * n), "residual_sq does not beat 4/N^2")
        _expect(Fraction(doc["bound_sq"]) == Fraction(4, n * n), "bound_sq != 4/N^2")
        vectors = np.array(doc["vectors"], dtype=float)
        target = np.array([[float(x) for x in row] for row in gram])
        _expect(vectors.shape == target.shape, f"vectors shape {vectors.shape}")
        err = float(np.max(np.abs(vectors @ vectors.T - target)))
        _expect(err <= 1e-9 * max(1.0, float(np.max(np.abs(target)))),
                f"vectors miss the gram matrix by {err}")
        return 1


class SweepCatalog(Workload):
    name = "sweep-catalog"
    required = ("catalog.self_dual_mixed", "catalog.second_mixed", "certify.certify",
                "algebra.HMatrix.column_sum", "cli.main")
    families = ("self-dual", "second-mixed")
    fresh_process = True
    # CPUs the op child may run on; None leaves it the benchmark's own.  The
    # sweep's thread pool takes the GIL in turns, so on two cores it gains
    # nothing and each hand-over between cores waits on the host's scheduling
    # of both: runs of the same code spread by half on a shared host.
    cpus = None

    def __init__(self, seed, workdir, root, smoke=False):
        super().__init__(seed, workdir, root)
        self.lo, self.hi = (4, 6) if smoke else (4, 10)
        self._next = self.rng.randrange(2)
        self.cells = {(n, p) for n in range(self.lo, self.hi + 1) for p in range(2, n - 1)}

    def next_input(self):
        family = self.families[self._next]
        self._next ^= 1
        return Input(("sweep", "--family", family, "--n-range", f"{self.lo}:{self.hi}"),
                     None, family)

    def run(self, inp):
        return in_subprocess([sys.executable, "-m", "hinv.cli", *inp.argv], self.root,
                             self.workdir / "sweep.stderr", self.cpus)

    def check(self, inp, out):
        """One optimal row per catalog cell, with exact zero residual and lambda >= 0."""
        _exit_ok(out)
        lines = out.stdout.splitlines()
        _expect(lines[:1] == ["family,n,n_prime,status,min_lambda,max_residual"], "CSV header")
        seen = set()
        for line in lines[1:]:
            family, n, n_prime, status, min_lambda, max_residual = line.split(",")
            _expect(family == inp.detail and status == "optimal" and max_residual == "0"
                    and Fraction(min_lambda) >= 0, f"bad row {line!r}")
            seen.add((int(n), int(n_prime)))
        _expect(len(lines) - 1 == len(self.cells) and seen == self.cells,
                f"{len(lines) - 1} rows for {len(self.cells)} cells")
        return len(self.cells)


WORKLOADS = {w.name: w for w in (CertifyLarge, FalsifyWitness, SweepCatalog)}


def setup_probe(seed, workdir, root):
    """A function timing one fresh ``python -m hinv.cli certify`` on a horizon-4 file.

    Each call pays interpreter start, import and first call, as every hinv
    invocation does, and raises CheckFailed unless the verdict is optimal.
    """
    rng = random.Random(f"setup:{seed}")
    pattern = tuple(rng.choice((TOP, BOTTOM)) for _ in range(2))
    path = workdir / "setup.json"
    path.write_text(json.dumps(serialization.hmatrix_to_dict(
        h_from_sparsity(SparsityChoice(4, pattern)))), encoding="utf-8")
    argv = [sys.executable, "-m", "hinv.cli", "certify", str(path)]

    def probe():
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, env=child_env(root), cwd=root)
        elapsed = time.perf_counter() - start
        if done.returncode != 0 or json.loads(done.stdout)["status"] != "optimal":
            raise CheckFailed(f"setup certify failed: exit {done.returncode}: {done.stderr[-300:]}")
        return elapsed

    return probe
