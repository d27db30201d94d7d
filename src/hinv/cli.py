"""Command-line front end.

Commands (stdout is machine-readable JSON or CSV on every success path;
human commentary goes to stderr):

    hinv gen {ohm|dual-ohm|self-dual|second-mixed|strange3} --n N
             [--n-prime N'] [--extend M] [--out FILE]
    hinv certify FILE
    hinv dual FILE [--out FILE]
    hinv falsify FILE [--pair I J] [--emit-vectors] [--out FILE]
    hinv simulate --h FILE --oracle {worstcase|rotation:THETA|matrix:FILE}
                  --y0 {worstcase|FILE} [--steps K] [--r-sq R2]
    hinv sweep --family NAME --n-range A:B [--n-prime-range A:B]
    hinv oracle-check --seed S [--n-max K]

Exit codes: 0 success; 1 malformed input or a bad command line (one stderr
line, as argparse words it); certify: 2 invariance violated, 3 certificate
violated; falsify: 4 nothing to falsify (input optimal), 5 input violates
invariance (excess report emitted instead); oracle-check: 6 on any oracle
mismatch.  A stdout closed early (``| head``) drops the rest of the output
without a word and keeps the exit code.  Set HINV_COLOR=0/1 to
force-disable/enable the coloring of stderr summaries.
"""

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import serialization
from .algebra import h_dual
from .certify import STATUS_INVARIANCE_VIOLATED, STATUS_OPTIMAL, certify

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INVARIANCE = 2
EXIT_CERTIFICATE = 3
EXIT_NOTHING_TO_FALSIFY = 4
EXIT_FALSIFY_INVARIANCE = 5
EXIT_ORACLE_MISMATCH = 6

# family name -> its generator in hinv.catalog; the mixed families also take the split n'
FAMILIES = {"ohm": "ohm", "dual-ohm": "dual_ohm", "self-dual": "self_dual_mixed",
            "second-mixed": "second_mixed", "strange3": "strange3"}
MIXED_FAMILIES = ("self-dual", "second-mixed")


def _use_color():
    env = os.environ.get("HINV_COLOR")
    if env == "0":
        return False
    if env == "1":
        return True
    return sys.stderr.isatty()


def _say(text, color=None):
    codes = {"green": "32", "red": "31", "yellow": "33"}
    if color in codes and _use_color():
        text = f"\x1b[{codes[color]}m{text}\x1b[0m"
    print(text, file=sys.stderr)


def _write_out(payload: str, path):
    if not payload.endswith("\n"):
        payload += "\n"
    if path in (None, "-"):
        try:
            sys.stdout.write(payload)
        except BrokenPipeError:  # main drops the rest; the command keeps its verdict code
            pass
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        _say(f"cannot write {path}: {exc.strerror or exc}", "red")
        raise SystemExit(EXIT_MALFORMED) from None


def _read_json(path):
    """The JSON document in a file, integers of any length; nesting too deep to parse is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=serialization._integer)
        except RecursionError:
            raise ValueError("JSON nesting is too deep") from None


def _read_floats(path):
    """The JSON array of numbers in a file as a float array; a string, boolean or null entry is a TypeError."""
    import numpy as np

    doc = _read_json(path)
    stack = [doc]
    while stack:  # not recursive: the parser accepts nesting deeper than a recursive walk could
        x = stack.pop()
        if type(x) is list:
            stack.extend(x)
        elif type(x) not in (int, float):
            raise TypeError(f"entry {json.dumps(x)[:40]} is not a number")
    return np.array(doc, dtype=float)


def _load_hmatrix(path):
    try:
        return serialization.hmatrix_from_dict(_read_json(path))
    except (OSError, ValueError, TypeError) as exc:
        _say(f"cannot read step matrix from {path}: {exc}", "red")
        raise SystemExit(EXIT_MALFORMED)


def _generate(family, n, n_prime):
    from . import catalog  # only gen and sweep build family members

    if family in MIXED_FAMILIES and n_prime is None:
        raise ValueError(f"--n-prime is required for {family}")
    sizes = () if family == "strange3" else (n, n_prime) if family in MIXED_FAMILIES else (n,)
    return getattr(catalog, FAMILIES[family])(*sizes)


def cmd_gen(args):
    try:
        h = _generate(args.family, args.n, args.n_prime)
        if args.extend is not None:
            from . import catalog

            h = catalog.anytime_extend(h, args.extend)
    except ValueError as exc:
        _say(f"gen: {exc}", "red")
        return EXIT_MALFORMED
    _write_out(json.dumps(serialization.hmatrix_to_dict(h), indent=2), args.out)
    return EXIT_OK


def cmd_certify(args):
    h = _load_hmatrix(args.input)
    verdict = certify(h)
    _write_out(json.dumps(serialization.verdict_to_dict(verdict), indent=2), None)
    if verdict.status == STATUS_OPTIMAL:
        lam = verdict.certificates
        _say(f"optimal: horizon {h.n}, min certificate "
             f"{serialization.format_rational(lam.min_value())}", "green")
        return EXIT_OK
    if verdict.status == STATUS_INVARIANCE_VIOLATED:
        _say("invariance violated: max |residual| = "
             f"{serialization.format_rational(verdict.report.max_abs())}", "red")
        return EXIT_INVARIANCE
    pairs = ", ".join(f"({k},{j})" for k, j in verdict.negative)
    _say(f"certificate violated at {pairs}", "red")
    return EXIT_CERTIFICATE


def cmd_dual(args):
    h = _load_hmatrix(args.input)
    _write_out(json.dumps(serialization.hmatrix_to_dict(h_dual(h)), indent=2), args.out)
    return EXIT_OK


def cmd_falsify(args):
    from . import worstcase  # the witness machinery loads only here

    h = _load_hmatrix(args.input)
    verdict = certify(h)
    if verdict.status == STATUS_OPTIMAL:
        _say("nothing to falsify: the method certifies optimal", "yellow")
        return EXIT_NOTHING_TO_FALSIFY
    if verdict.status == STATUS_INVARIANCE_VIOLATED:
        residual = worstcase.worst_case_residual_sq(h, 1)
        bound = Fraction(4, h.n ** 2)
        payload = {
            "status": "invariance_violated",
            "residual_sq": serialization.format_rational(residual),
            "bound_sq": serialization.format_rational(bound),
            "excess": serialization.format_rational(residual - bound),
        }
        _write_out(json.dumps(payload, indent=2), args.out)
        _say("invariance already violated: the cyclic operator exceeds the bound "
             f"by {payload['excess']}; no perturbation needed", "yellow")
        return EXIT_FALSIFY_INVARIANCE
    i0, j0 = args.pair if args.pair else verdict.negative[0]
    try:
        witness = worstcase.suboptimality_witness(h, i0, j0)
    except ValueError as exc:
        _say(f"falsify: {exc}", "red")
        return EXIT_MALFORMED
    doc = serialization.witness_to_dict(witness)
    if args.emit_vectors:
        doc["vectors"] = [[float(x) for x in vec] for vec in worstcase.witness_vectors(witness)]
    _write_out(json.dumps(doc, indent=2), args.out)
    _say(f"witness at pair {witness.violated_pair}: residual_sq = "
         f"{doc['residual_sq']} > {doc['bound_sq']}", "green")
    return EXIT_OK


def _oracle_from_spec(spec, dim):
    from . import simulate

    if spec == "worstcase":
        return simulate.worst_case_oracle(dim)
    if spec.startswith("rotation:"):
        return simulate.rotation_oracle(float(spec.split(":", 1)[1]))
    if spec.startswith("matrix:"):
        path = spec.split(":", 1)[1]
        try:
            m = _read_floats(path)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"it has shape {m.shape}")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"matrix:{path} must be a square JSON array of numbers: {exc}") from None
        return simulate.linear_oracle(m)
    raise ValueError(f"unknown oracle spec {spec!r}")


def cmd_simulate(args):
    # numpy and the float simulator load only here, so the exact commands
    # start without them.
    import numpy as np

    from . import simulate

    h = _load_hmatrix(args.h)
    if args.steps is not None:
        if not 0 <= args.steps <= h.n_minus_1:
            _say(f"--steps {args.steps} is outside 0..{h.n_minus_1} (the matrix dimension)", "red")
            return EXIT_MALFORMED
        h = h.truncate(args.steps)
    try:
        if args.r_sq is not None and not 0 < args.r_sq < math.inf:
            raise ValueError(f"--r-sq must be positive and finite, got {args.r_sq}")
        oracle = _oracle_from_spec(args.oracle, h.n)
        if args.y0 == "worstcase":
            if args.oracle != "worstcase":
                raise ValueError("--y0 worstcase only pairs with --oracle worstcase")
            y0 = simulate.worst_case_start(h.n, args.r_sq if args.r_sq is not None else 1.0)
        else:
            try:
                y0 = _read_floats(args.y0)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"--y0 must be a JSON array of numbers: {exc}") from None
            if y0.shape != (oracle.dimension,):  # before |y0|^2, the default --r-sq
                raise ValueError(f"--y0 has shape {y0.shape}, oracle expects ({oracle.dimension},)")
            for i, x in enumerate(y0.flat, 1):
                if not math.isfinite(x):
                    raise ValueError(f"--y0 entry {i} is {x}; every entry must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # overflows are reported below
            r_sq = args.r_sq if args.r_sq is not None else float(y0 @ y0)
            if not 0 < r_sq < math.inf:
                raise ValueError("--y0 must be finite and nonzero (|y0|^2 is the default --r-sq)")
            traj = simulate.run(h, oracle, y0, r_sq=r_sq)
        for k, (res, bnd) in enumerate(zip(traj.residuals_sq, traj.bound_sq)):
            if not (math.isfinite(res) and math.isfinite(bnd)):
                raise OverflowError(f"float overflow at iterate {k}: residual_sq {res}, bound_sq {bnd}")
            if not (bnd and math.isfinite(res / bnd)):
                raise ValueError(f"--r-sq {r_sq} is too small: the ratio at iterate {k} overflows")
    except (OSError, ValueError, TypeError, OverflowError) as exc:
        _say(f"simulate: {exc}", "red")
        return EXIT_MALFORMED
    print("k,residual_sq,bound_sq,ratio")
    for k, (res, bnd) in enumerate(zip(traj.residuals_sq, traj.bound_sq)):
        print(f"{k},{res:.17g},{bnd:.17g},{res / bnd:.17g}")
    return EXIT_OK


def _parse_range(text):
    lo, _, hi = text.partition(":")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _sweep_cell(family, n, n_prime, h):
    verdict = certify(h)
    min_lam = ""
    if verdict.certificates is not None:
        min_lam = serialization.format_rational(verdict.certificates.min_value())
    return (
        family,
        str(n),
        "" if n_prime is None else str(n_prime),
        verdict.status,
        min_lam,
        serialization.format_rational(verdict.report.max_abs()),
    )


def cmd_sweep(args):
    # Every cell's matrix is generated before the header, so a bad range
    # fails cleanly with no partial CSV on stdout.
    try:
        ns = _parse_range(args.n_range)
        primes = _parse_range(args.n_prime_range) if args.n_prime_range else None
        cells = []
        for n in ns:
            if args.family in MIXED_FAMILIES:
                cells.extend((args.family, n, p) for p in primes or range(2, n - 1) if 2 <= p <= n - 2)
            elif args.family != "strange3" or n == 4:  # strange3 has the one horizon 4
                cells.append((args.family, n, None))
        if not cells:
            raise ValueError("the ranges select no family member")
        cells = [cell + (_generate(*cell),) for cell in cells]
    except ValueError as exc:
        _say(f"sweep: {exc}", "red")
        return EXIT_MALFORMED
    print("family,n,n_prime,status,min_lambda,max_residual")
    for cell in cells:
        print(",".join(_sweep_cell(*cell)))
    return EXIT_OK


def cmd_oracle_check(args):
    if not 3 <= args.n_max <= 8:
        _say("--n-max must be in 3..8 (the certificate checks start at horizon 3; "
             "enumeration cost caps it at 8)", "red")
        return EXIT_MALFORMED
    from . import oracles  # the slow routes load only here

    lines, counterexample = oracles.oracle_check_report(args.seed, args.n_max)
    if counterexample is not None:
        lines.append(json.dumps({"counterexample": counterexample}))
    _write_out("\n".join(lines), None)
    return EXIT_OK if counterexample is None else EXIT_ORACLE_MISMATCH


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # exit 1 with one line, as for any malformed input: 2 is a certify verdict
        self.exit(EXIT_MALFORMED, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process: prog is fixed and no default is mutable
def build_parser():
    parser = _Parser(
        prog="hinv",
        description="Exact certification and construction of rate-optimal "
                    "fixed-step methods for nonexpansive fixed-point problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named family member")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n", type=int, default=4, help="horizon N (ignored by strange3)")
    p.add_argument("--n-prime", type=int, default=None, help="split column for mixed families")
    p.add_argument("--extend", type=int, default=None,
                   help="extend to this dimension with the forced per-iterate-optimal tail")
    p.add_argument("--out", default=None, help="output file ('-' or omit for stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("certify", help="certify a step-matrix file")
    p.add_argument("input")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("dual", help="anti-diagonal transpose of a step-matrix file")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("falsify", help="emit an exact rate-violation witness")
    p.add_argument("input")
    p.add_argument("--pair", type=int, nargs=2, metavar=("I", "J"), default=None,
                   help="negative-certificate pair to activate (default: smallest)")
    p.add_argument("--emit-vectors", action="store_true",
                   help="append float realization vectors to the witness JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("simulate", help="run a step matrix against an operator oracle")
    p.add_argument("--h", required=True, help="step-matrix file")
    p.add_argument("--oracle", default="worstcase",
                   help="worstcase | rotation:THETA | matrix:FILE")
    p.add_argument("--y0", default="worstcase", help="worstcase | FILE (JSON array)")
    p.add_argument("--steps", type=int, default=None, help="run only this many steps")
    p.add_argument("--r-sq", type=float, default=None,
                   help="squared initial distance (default |y0|^2)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="certify a family across a range of sizes (CSV)")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n-range", required=True, help="A:B inclusive")
    p.add_argument("--n-prime-range", default=None, help="A:B inclusive (mixed families)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-check", help="run the slow-path oracles against the library")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-max", type=int, default=6, help="largest horizon checked, 3..8")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None):
    code = EXIT_OK  # what sweep and simulate have earned once their CSV starts
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the interpreter's exit flush
    except SystemExit as exc:
        code = exc.code
    except BrokenPipeError:  # the reader stopped early (`| head`): drop the rest quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
