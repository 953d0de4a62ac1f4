"""Command line front end for the predictor routes and the sweep harness.

Exit codes: 0 clean, 2 oracle-vs-predictor disagreement (or selftest
failure), 3 bad arguments, unsatisfiable request or unwritable report.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when a parser is built: load it here, not in a command's run
import locale  # noqa: F401
import os
import shutil
import sys
import tempfile
from contextlib import suppress
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


def _write_atomically(writers) -> None:
    """Write each {path: writer} path through a temporary file in its
    directory, with the path's mode, and rename every one over its path
    once all are written; on failure no path changes and no file is left.
    A symlinked path is written through, to the file it names."""
    temps = {}
    try:
        for path, write in writers.items():
            path = os.path.realpath(path)
            head, tail = os.path.split(path)
            fd, temps[path] = tempfile.mkstemp(prefix=f".{tail}.", suffix=".tmp", dir=head)
            with open(fd, "w") as fh:
                shutil.copymode(path, temps[path])
                write(fh)
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps.values():
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
    if args.out and args.frontier and os.path.realpath(args.out) == os.path.realpath(args.frontier):
        raise ValueError("--out and --frontier name the same file")

    def write_report(fh):
        fh.writelines(line + "\n" for line in report_lines(sweep, args.format, args.timing))

    def write_frontier(fh):
        json.dump(frontier_summary(sweep), fh, indent=2, sort_keys=True)
        fh.write("\n")

    # an unwritable path fails here, before any curve is evaluated; opening
    # to append truncates nothing, and the reports are renamed over these
    # paths only once they are written.  A file this open creates has the
    # umask's mode, which the report keeps; it is removed if the sweep fails.
    created = []
    try:
        for path in filter(None, (args.out, args.frontier)):
            new = not os.path.exists(path)
            open(path, "a").close()
            if new:
                created.append(os.path.realpath(path))
        sweep, summary = run_sweep(spec)
        if not args.out:
            write_report(sys.stdout)
        _write_atomically({p: w for p, w in ((args.out, write_report), (args.frontier, write_frontier)) if p})
    except BaseException:
        for path in created:
            with suppress(FileNotFoundError):
                os.remove(path)
        raise
    print(json.dumps(asdict(summary), sort_keys=True), file=sys.stderr)
    if summary.oracle_disagreements and not args.expect_frontier:
        return 2
    return 0


def _selftest_checks():
    from fractions import Fraction as F

    def check_moduli():
        frozen = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011, 8: 0b100011011}
        for a, poly in frozen.items():
            assert smallest_irreducible(a) == poly

    def check_zeta():
        assert l_polynomial(CurvePoly.make(1, {3: 1})) == [1, 0, 2]
        l_polynomial(CurvePoly.make(1, {7: 1, 1: 1}), full=True)

    def check_modsolve():
        assert density(odds_up_to(13)).value == F(1, 3)
        sols = minimal_irreducible_solutions(odds_up_to(29, exclude=(15,)), target=F(2, 7))
        assert len(sols) == 4

    def check_vss():
        cases = {
            (7, 3): (3, F(1)),
            (13, 11): (6, F(2)),
            (11, 5): (5, F(2)),
        }
        for (e1, e2), want in cases.items():
            assert predict_first_vertex(CurvePoly.make(1, {e1: 1, e2: 1})) == want

    def check_hasse():
        assert classify(CurvePoly.make(1, {29: 1, 23: 1})).vertex == (8, 2)
        assert classify(CurvePoly.make(1, {29: 1, 15: 1})).vertex == (4, 1)
        assert classify(CurvePoly.make(1, {25: 1, 13: 1, 23: 1})).vertex == (7, 2)

    def check_oracle_vs_vss():
        import itertools

        for g in (1, 2, 3, 4):
            deg = 2 * g + 1
            odds = list(range(1, deg, 2))
            for bits in itertools.product([0, 1], repeat=len(odds)):
                coeffs = {deg: 1}
                coeffs.update({e: b for e, b in zip(odds, bits) if b})
                f = CurvePoly.make(1, coeffs)
                v = predict_first_vertex(f)
                if v is not None:
                    assert v == first_vertex(newton_polygon_of_curve(f))

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


def _add_curve_args(p):
    p.add_argument("--q", type=_q_arg, required=True, help="field size, as 2^a")
    p.add_argument(
        "--coeffs",
        type=_coeffs_arg,
        required=True,
        help="sparse coefficients e:bits[,e:bits...]",
    )


def _add_set_args(p):
    p.add_argument("--set", type=_ints_arg, help="explicit exponent set, comma list")
    p.add_argument("--max", type=int, help="odd exponents up to this bound")
    p.add_argument("--exclude", type=_ints_arg, help="exponents to drop from --max")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="np2", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeta", help="L-polynomial coefficients")
    _add_curve_args(p)
    p.add_argument("--full", action="store_true", help="compute all coefficients and verify")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("np", help="Newton polygon vertices")
    _add_curve_args(p)
    p.set_defaults(func=cmd_np)

    p = sub.add_parser("density", help="2-density of an exponent set")
    _add_set_args(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("minimal", help="minimal irreducible solutions")
    _add_set_args(p)
    p.add_argument(
        "--target",
        type=_frac_arg,
        default=None,
        help="density to enumerate at (default: the density); it must not lie below the "
        "density, and only as far above it as no solution can spend more than the "
        "fewest exponents on a column",
    )
    p.set_defaults(func=cmd_minimal)

    p = sub.add_parser("vss", help="stable-image first-vertex prediction")
    _add_curve_args(p)
    p.set_defaults(func=cmd_vss)

    p = sub.add_parser("classify", help="coefficient case ladder")
    _add_curve_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="run predictors over a curve family")
    p.add_argument("--q", type=_q_arg, required=True)
    p.add_argument("--g", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=0)
    p.add_argument("--fix", type=_coeffs_arg, default=None, help="frozen coefficients e:bits[,...]")
    p.add_argument("--predictors", default=",".join(PREDICTORS))
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--frontier", default=None, help="write per-case agreement table here")
    p.add_argument("--timing", action="store_true", help="include wall time (breaks digest stability)")
    p.add_argument("--expect-frontier", action="store_true", help="disagreements do not fail the run")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", help="frozen-value and small-sweep checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
