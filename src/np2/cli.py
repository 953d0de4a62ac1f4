"""Command line front end for the predictor routes and the sweep harness.

Exit codes: 0 clean, 2 oracle-vs-predictor disagreement (or selftest
failure), 3 bad arguments, unsatisfiable request or unwritable report.

A call that starts with a command name is scanned against that command's
options in COMMANDS, the table that build_parser also reads.  Whatever the
scan is not sure of (-h, an abbreviation of --help, a missing, unknown,
ambiguous, extra or malformed argument) is parsed again by the argparse
parser of build_parser, which prints the help or the error and exits (0 for
help, 3 for an error).  So a well-formed call builds no argparse parser, and
only that parser writes help and error text.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import stat
import sys
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import asdict
from fractions import Fraction

from .field import smallest_irreducible
from .hasse import classify
from .modsolve import density, minimal_irreducible_solutions, odds_up_to
from .sweep import (
    PREDICTORS,
    SweepSpec,
    coeffs_str,
    frac_str,
    frontier_summary,
    parse_coeffs,
    parse_frac,
    report_lines,
    run_sweep,
)
from .vss import predict_first_vertex, vss_report
from .zeta import CurvePoly, first_vertex, l_polynomial, newton_polygon_of_curve


class _Parser(argparse.ArgumentParser):
    # bad arguments exit 3; argparse's default 2 is reserved for disagreements
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _q_arg(s: str) -> int:
    try:
        if s.startswith("2^"):
            a = int(s[2:])
        else:
            v = int(s)
            a = v.bit_length() - 1
            if 1 << a != v:
                raise ValueError
        if a < 1:
            raise ValueError
        return a
    except ValueError:
        raise argparse.ArgumentTypeError(f"{s!r} is not a power of two (use 2^a)")


def _coeffs_arg(s: str) -> dict[int, int]:
    try:
        return parse_coeffs(s)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _ints_arg(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{s!r} is not a comma list of integers")


def _frac_arg(s: str) -> Fraction:
    try:
        return parse_frac(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{s!r} is not num/den")


def _curve(args) -> CurvePoly:
    return CurvePoly.make(args.q, args.coeffs)


def _vertex_json(v):
    if v is None:
        return None
    x, y = v
    y = Fraction(y)
    return [x, y.numerator if y.denominator == 1 else frac_str(y)]


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _exponent_set(args) -> tuple[int, ...]:
    # modsolve checks that every exponent is odd and positive
    if args.set is not None:
        if args.max is not None or args.exclude is not None:
            raise ValueError("--set takes no --max or --exclude")
        return tuple(sorted(set(args.set)))
    if args.max is None:
        raise ValueError("give either --set or --max")
    return odds_up_to(args.max, exclude=args.exclude or ())


def cmd_zeta(args) -> int:
    f = _curve(args)
    coeffs = l_polynomial(f, full=args.full)
    _emit({"q": 1 << args.q, "g": f.genus, "l": coeffs})
    return 0


def cmd_np(args) -> int:
    f = _curve(args)
    hull = newton_polygon_of_curve(f)
    _emit(
        {
            "q": 1 << args.q,
            "g": f.genus,
            "vertices": [[x, frac_str(y)] for x, y in hull],
            "first_vertex": _vertex_json(first_vertex(hull)),
        }
    )
    return 0


def cmd_density(args) -> int:
    D = _exponent_set(args)
    res = density(D)
    _emit(
        {
            "set": ",".join(str(e) for e in D),
            "value": frac_str(res.value),
            "length": res.length,
            "certified": True,  # density raises unless its value is proven minimal
            "witness": {
                "length": res.witness.length,
                "digits": coeffs_str(res.witness.digits),
            },
        }
    )
    return 0


def cmd_minimal(args) -> int:
    D = _exponent_set(args)
    sols = minimal_irreducible_solutions(D, target=args.target)
    _emit(
        {
            "set": ",".join(str(e) for e in D),
            "classes": [
                {
                    "length": s.length,
                    "digits": coeffs_str(s.digits),
                    "density": frac_str(s.density),
                    "support": list(s.support()),
                }
                for s in sols
            ],
        }
    )
    return 0


def cmd_vss(args) -> int:
    r = vss_report(_curve(args))
    _emit(
        {
            "sigma": list(r.matrix.sigma),
            "dim": r.dim,
            "vertex": _vertex_json(r.vertex),
            "density": frac_str(r.matrix.density),
            "slope_above": None if r.slope_above is None else frac_str(r.slope_above),
        }
    )
    return 0


def cmd_classify(args) -> int:
    t = classify(_curve(args))
    obj = {
        "case": t.case_id,
        "n": t.n,
        "hasse": str(t.hasse_bits),
        "vertex": list(t.vertex) if t.vertex else None,
        "large_n_caveat": t.large_n_caveat,
    }
    if t.slope_at_least is not None:
        obj["slope_at_least"] = frac_str(t.slope_at_least)
    _emit(obj)
    return 0


def _stat(path):
    """os.stat of a path or a file descriptor, or None where it fails."""
    try:
        return os.stat(path)
    except OSError:
        return None


def _same_file(a, b) -> bool:
    """Whether a and b, each a path or a file descriptor, name one file: the
    same device and inode where both exist, else the same real path."""
    sa, sb = _stat(a), _stat(b)
    if sa and sb:
        return os.path.samestat(sa, sb)
    return isinstance(a, str) and isinstance(b, str) and os.path.realpath(a) == os.path.realpath(b)


@contextmanager
def _reports(*paths):
    """One open file per path (None for None), all opened before the block.

    A path that names the file of fd 1 or fd 2 is written through
    sys.stdout or sys.stderr, in place: a shell's >> or 2> file is neither
    truncated nor replaced.  A new path, or one that resolves to another
    regular file, is written to a temporary file beside it, which replaces
    it only if the block ends without error and is removed otherwise.  A
    new report takes its mode from the umask, an existing one keeps its
    own.  Any other existing path (a device, a FIFO) is opened as given, in
    place.
    """
    temps = {}  # temporary file -> the file it replaces

    def open_report(path, stack):
        for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
            if _same_file(path, fd):
                stack.callback(stream.flush)
                return stream
        st = _stat(path)
        if st is not None and not stat.S_ISREG(st.st_mode):
            return stack.enter_context(open(path, "w"))
        target = os.path.realpath(path)
        if st is not None:
            os.close(os.open(target, os.O_WRONLY))  # refuse a report we may not write
        head, tail = os.path.split(target)
        temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        try:
            fh = stack.enter_context(open(temp, "x"))  # mode 0o666 under the umask
        except OSError as e:
            e.filename = path
            raise
        temps[temp] = target
        if st is not None:
            os.chmod(temp, stat.S_IMODE(st.st_mode))
        return fh

    try:
        with ExitStack() as stack:
            yield [path and open_report(path, stack) for path in paths]
        for temp, target in temps.items():
            os.replace(temp, target)
    finally:
        for temp in temps:
            with suppress(FileNotFoundError):
                os.remove(temp)


def cmd_sweep(args) -> int:
    fixed = tuple(sorted(args.fix.items())) if args.fix else ()
    spec = SweepSpec(
        args.q,
        args.g,
        "random" if args.random else "exhaustive",
        args.seed,
        args.count,
        fixed,
        tuple(args.predictors.split(",")),
    )
    spec.validate()
    # without --out the report goes to stdout, fd 1
    if args.frontier and _same_file(args.out or 1, args.frontier):
        raise ValueError(f"{'--out' if args.out else 'stdout'} and --frontier name the same file")
    # an unwritable report fails here, before any curve is evaluated
    with _reports(args.out, args.frontier) as (out, frontier):
        sweep, summary = run_sweep(spec)
        (out or sys.stdout).writelines(line + "\n" for line in report_lines(sweep, args.format, args.timing))
        if frontier:
            json.dump(frontier_summary(sweep), frontier, indent=2, sort_keys=True)
            frontier.write("\n")
    print(json.dumps(asdict(summary), sort_keys=True), file=sys.stderr)
    if summary.oracle_disagreements and not args.expect_frontier:
        return 2
    return 0


def _selftest_checks():
    from fractions import Fraction as F

    def expect(ok: bool) -> None:
        # raised explicitly, so that python -O keeps the checks
        if not ok:
            raise AssertionError

    def check_moduli():
        frozen = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011, 8: 0b100011011}
        for a, poly in frozen.items():
            expect(smallest_irreducible(a) == poly)

    def check_zeta():
        expect(l_polynomial(CurvePoly.make(1, {3: 1})) == [1, 0, 2])
        l_polynomial(CurvePoly.make(1, {7: 1, 1: 1}), full=True)

    def check_modsolve():
        expect(density(odds_up_to(13)).value == F(1, 3))
        # first attained past the length-by-length seed, which stops at length 6
        r = density((3, 47))
        expect((r.value, r.length, r.witness.digits) == (F(3, 8), 16, ((3, 1), (47, 19521))))
        sols = minimal_irreducible_solutions(odds_up_to(29, exclude=(15,)), target=F(2, 7))
        expect(len(sols) == 4)

    def check_vss():
        cases = {
            (7, 3): (3, F(1)),
            (13, 11): (6, F(2)),
            (11, 5): (5, F(2)),
        }
        for (e1, e2), want in cases.items():
            expect(predict_first_vertex(CurvePoly.make(1, {e1: 1, e2: 1})) == want)

    def check_hasse():
        expect(classify(CurvePoly.make(1, {29: 1, 23: 1})).vertex == (8, 2))
        expect(classify(CurvePoly.make(1, {29: 1, 15: 1})).vertex == (4, 1))
        expect(classify(CurvePoly.make(1, {25: 1, 13: 1, 23: 1})).vertex == (7, 2))

    def check_oracle_vs_vss():
        # every F_2 curve of genus 1..4; a curve with no rank verdict counts as no disagreement
        for g in (1, 2, 3, 4):
            expect(run_sweep(SweepSpec(1, g, predictors=("oracle", "vss")))[1].oracle_disagreements == 0)

    return [
        ("canonical moduli", check_moduli),
        ("l-polynomial", check_zeta),
        ("density and minimal solutions", check_modsolve),
        ("stable-image predictions", check_vss),
        ("case ladder", check_hasse),
        ("oracle vs stable image, genus <= 4", check_oracle_vs_vss),
    ]


def cmd_selftest(args) -> int:
    failed = 0
    for name, check in _selftest_checks():
        try:
            check()
        except AssertionError:
            failed += 1
            print(f"FAIL - {name}")
        else:
            print(f"ok - {name}")
    if failed:
        print(f"selftest: {failed} check(s) failed")
        return 2
    print("selftest: all checks passed")
    return 0


# each command's options as (flag, add_argument keywords); the options marked
# "exclusive" form one mutually exclusive group
_CURVE = (
    ("--q", {"type": _q_arg, "required": True, "help": "field size, as 2^a"}),
    ("--coeffs", {"type": _coeffs_arg, "required": True, "help": "sparse coefficients e:bits[,e:bits...]"}),
)
_ZETA = (*_CURVE, ("--full", {"action": "store_true", "help": "compute all coefficients and verify"}))
_SET = (
    ("--set", {"type": _ints_arg, "help": "explicit exponent set, comma list"}),
    ("--max", {"type": int, "help": "odd exponents up to this bound"}),
    ("--exclude", {"type": _ints_arg, "help": "exponents to drop from --max"}),
)
_MINIMAL = (
    *_SET,
    (
        "--target",
        {
            "type": _frac_arg,
            "default": None,
            "help": "density to enumerate at (default: the density); it must not lie below the density, "
            "and only as far above it as no solution can spend more than the fewest exponents on a column",
        },
    ),
)
_SWEEP = (
    ("--q", {"type": _q_arg, "required": True}),
    ("--g", {"type": int, "required": True}),
    ("--exhaustive", {"action": "store_true", "exclusive": True}),
    ("--random", {"action": "store_true", "exclusive": True}),
    ("--seed", {"type": int, "default": 0}),
    ("--count", {"type": int, "default": 0}),
    ("--fix", {"type": _coeffs_arg, "default": None, "help": "frozen coefficients e:bits[,...]"}),
    ("--predictors", {"default": ",".join(PREDICTORS)}),
    ("--out", {"default": None}),
    ("--format", {"choices": ("jsonl", "csv"), "default": "jsonl"}),
    ("--frontier", {"default": None, "help": "write per-case agreement table here"}),
    ("--timing", {"action": "store_true", "help": "include wall time (breaks digest stability)"}),
    ("--expect-frontier", {"action": "store_true", "help": "disagreements do not fail the run"}),
)

# name -> (help, options, function running it), in help order
COMMANDS = {
    "zeta": ("L-polynomial coefficients", _ZETA, cmd_zeta),
    "np": ("Newton polygon vertices", _CURVE, cmd_np),
    "density": ("2-density of an exponent set", _SET, cmd_density),
    "minimal": ("minimal irreducible solutions", _MINIMAL, cmd_minimal),
    "vss": ("stable-image first-vertex prediction", _CURVE, cmd_vss),
    "classify": ("coefficient case ladder", _CURVE, cmd_classify),
    "sweep": ("run predictors over a curve family", _SWEEP, cmd_sweep),
    "selftest": ("frozen-value and small-sweep checks", (), cmd_selftest),
}


def build_parser() -> argparse.ArgumentParser:
    # the help text is the module docstring without its last paragraph, on parsing
    parser = _Parser(prog="np2", description=__doc__ and __doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options, func) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        group = None
        for flag, spec in options:
            spec = dict(spec)
            if spec.pop("exclusive", False):
                group = group or p.add_mutually_exclusive_group()
                group.add_argument(flag, **spec)
            else:
                p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


# argparse's test for an argument that starts with "-" yet is a value
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _parse_command(name: str, argv: list[str]):
    """The namespace that build_parser() gives for [name, *argv], scanned
    from the command's options, or None where the scan cannot be sure of
    it: help, a missing, unknown, ambiguous, extra or malformed argument,
    two exclusive options, "--", or a value that starts with "-" and is not
    a negative number."""
    _, options, func = COMMANDS[name]
    table = dict(options)
    given = {}
    words = iter(argv)
    for arg in words:
        flag, eq, value = arg.partition("=")
        if not flag.startswith("--"):
            return None
        if flag not in table:
            # a unique prefix stands for its option; "--help" is the parser's own
            matches = [f for f in (*table, "--help") if f.startswith(flag)]
            if len(matches) != 1 or matches[0] not in table:
                return None
            flag = matches[0]
        spec = table[flag]
        if spec.get("action") == "store_true":
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("-") and not _NEGATIVE_NUMBER.match(value):
                return None
        elif value == "--":
            return None
        try:
            value = spec["type"](value) if "type" in spec else value
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    if sum(1 for flag in given if table[flag].get("exclusive")) > 1:
        return None
    if any(spec.get("required") and flag not in given for flag, spec in options):
        return None
    args = argparse.Namespace(command=name, func=func)
    for flag, spec in options:
        default = spec.get("default", False if spec.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_command(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
