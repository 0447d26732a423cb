"""Command-line surface.

Exit codes: 0 verified/success, 1 falsified assertion (witness printed),
2 usage error, 3 budget or table cap exceeded.  All file output is UTF-8
with LF line endings; identical invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import designs as designs_mod
from . import subfield as subfield_mod
from . import verify as verify_mod
from .codes import CodeSpec, bch_build, trace_dual
from .config import DEFAULT_BUDGET
from .cyclotomic import coset, coset_leaders
from .errors import BudgetExceeded, Falsified, InvalidParameters, ResourceCap, WorkbenchError
from .galois import field_new
from .weights import classify as classify_code
from .weights import dual_distribution, weight_distribution

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _add_common(parser, suppress: bool) -> None:
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--budget", type=int, default=d(DEFAULT_BUDGET),
                        help="enumeration budget (default 2^26)")
    parser.add_argument("--threads", type=int, default=d(1),
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--format", choices=("text", "json", "csv"), default=d("text"))
    parser.add_argument("--out", type=str, default=d(None), help="write output to file")
    parser.add_argument("--seed", type=int, default=d(0))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call; parsing
    leaves it unchanged and gives each call a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="codebench",
        description="Finite-field coding workbench: BCH codes, weight "
        "distributions, designs, subfield subcodes.",
    )
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", parents=[common], help="construct GF(p^m) and print its spec")
    p.add_argument("p", type=int)
    p.add_argument("m", type=int)

    p = sub.add_parser("coset", parents=[common], help="q-cyclotomic cosets modulo n")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--s", type=int, default=None, help="single coset of s")

    p = sub.add_parser("build", parents=[common], help="build the BCH code C_(q,n,delta,h)")
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("delta", type=int)
    p.add_argument("h", type=int)
    p.add_argument("--words", action="store_true",
                   help="dump all codewords, one per line (budget-guarded)")

    p = sub.add_parser("wdist", parents=[common], help="exact weight distribution")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="default q+1")
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--side", choices=("primal", "dual"), default="primal")

    p = sub.add_parser("classify", parents=[common], help="MDS/NMDS/AMDS classification")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--delta", type=int, default=3)

    p = sub.add_parser("design", parents=[common], help="support designs of the family codes")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--weight", type=int, required=True, help="block size k")
    p.add_argument("--source", choices=("code", "dual", "det"), default="code")
    p.add_argument("--t", type=int, default=3, help="design strength to verify")

    p = sub.add_parser("subfield", parents=[common], help="subfield subcodes and report tables")
    p.add_argument("--tables", action="store_true", help="published table rows")
    p.add_argument("--label", choices=("binary", "ternary", "quaternary"), default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--t", type=int, default=None, help="subfield degree")

    p = sub.add_parser("verify", parents=[common], help="run a theorem verification suite")
    p.add_argument("theorem", choices=sorted(verify_mod.SUITES))
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--family", choices=("q-minus-pi", "pi-minus-1"), default=None)
    return parser


def _emit(text: str, args) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise WorkbenchError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _spec_from(args) -> CodeSpec:
    n = args.n if args.n is not None else args.q + 1
    return CodeSpec(q=args.q, n=n, delta=args.delta, h=args.h)


def _cmd_field(args) -> int:
    f = field_new(args.p, args.m)
    if args.format == "json":
        _emit(f.to_json(), args)
    else:
        _emit(
            f"{f!r}: q={f.q}, modulus={list(f.modulus)} (low-to-high), "
            f"alpha = class of x",
            args,
        )
    return EXIT_OK


def _cmd_coset(args) -> int:
    if args.s is not None:
        cs = [coset(args.n, args.q, args.s)]
    else:
        cs = coset_leaders(args.n, args.q)
    if args.format == "json":
        _emit(json.dumps([c.to_json_dict() for c in cs], indent=2), args)
    elif args.format == "csv":
        lines = ["n,q,leader,size,members"]
        lines += [
            f"{c.n},{c.q},{c.leader},{c.size},{' '.join(map(str, c.members))}" for c in cs
        ]
        _emit("\n".join(lines), args)
    else:
        _emit("\n".join(f"C_{c.leader} = {set(c.members)} (size {c.size})" for c in cs), args)
    return EXIT_OK


def _cmd_build(args) -> int:
    code = bch_build(CodeSpec(q=args.q, n=args.n, delta=args.delta, h=args.h))
    if args.words:
        from .codes import dump_codewords

        _emit(dump_codewords(code, budget=args.budget), args)
    elif args.format == "json":
        _emit(code.to_json(), args)
    else:
        _emit(
            f"C_({args.q},{args.n},{args.delta},{args.h}): [{code.n},{code.k}] over "
            f"{code.field!r}, family {code.family}, g = {list(code.gen_poly.coeffs)}",
            args,
        )
    return EXIT_OK


def _cmd_wdist(args) -> int:
    code = bch_build(_spec_from(args))
    count = weight_distribution if args.side == "primal" else dual_distribution
    wd = count(code, budget=args.budget)
    if args.format == "json":
        _emit(wd.to_json(), args)
    elif args.format == "csv":
        _emit(wd.to_csv(), args)
    else:
        nz = ", ".join(f"A_{i}={c}" for i, c in wd.nonzero().items())
        _emit(f"[{wd.n},{wd.k}] over GF({wd.q}): {nz}", args)
    return EXIT_OK


def _cmd_classify(args) -> int:
    code = bch_build(_spec_from(args))
    cls = classify_code(code, budget=args.budget)
    if args.format == "json":
        _emit(cls.to_json(), args)
    else:
        _emit(
            f"[{code.n},{code.k}]: {cls.label} (d={cls.d}, d_dual={cls.d_dual}, "
            f"defect={cls.singleton_defect})",
            args,
        )
    return EXIT_OK


def _cmd_design(args) -> int:
    n = args.q + 1
    if args.source == "det":
        if args.weight != 4:
            raise WorkbenchError("the determinant construction yields weight-4 blocks")
        blocks = designs_mod.weight4_blocks_det(args.q, args.h, budget=args.budget)
    elif args.source == "dual":
        sup = designs_mod.supports_of_weight(
            trace_dual(args.q, args.h), args.weight, budget=args.budget
        )
        blocks = sup.blocks
    else:
        code = bch_build(CodeSpec(q=args.q, n=n, delta=3, h=args.h))
        sup = designs_mod.supports_of_weight(code, args.weight, budget=args.budget)
        blocks = sup.blocks
    design = designs_mod.design_from_blocks(blocks, n, args.t)
    if args.format == "json":
        _emit(design.to_json(), args)
    else:
        _emit(design.to_block_file(), args)
    return EXIT_OK


def _cmd_subfield(args) -> int:
    if not args.tables and args.q is None and (args.h is not None or args.t is not None):
        raise WorkbenchError("--q is required for a single subcode")
    if args.tables or args.q is None:
        rows = [row for row in subfield_mod.table_rows() if args.label in (None, row[0])]
        reports = subfield_mod.report_tables(rows, budget=args.budget)
        if args.format == "json":
            _emit(subfield_mod.reports_json(reports), args)
        elif args.format == "csv":
            _emit(subfield_mod.report_csv(reports), args)
        else:
            _emit(subfield_mod.report_text(reports), args)
        return EXIT_OK
    if args.t is None:
        raise WorkbenchError("--t is required for a single subcode")
    if args.h is None:
        raise WorkbenchError("--h is required for a single subcode")
    spec = CodeSpec(q=args.q, n=args.q + 1, delta=3, h=args.h)
    sub = subfield_mod.subfield_subcode_bch(spec, args.t)
    wd = weight_distribution(sub, budget=args.budget)
    if args.format == "json":
        payload = sub.to_json_dict()
        payload["d"] = wd.d()
        _emit(json.dumps(payload), args)
    else:
        _emit(f"subcode over GF({sub.q}): [{sub.n},{sub.k},{wd.d()}]", args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    result = verify_mod.run_suite(
        args.theorem,
        budget=args.budget,
        q=args.q,
        i=args.i,
        s=args.s,
        family=args.family,
        seed=args.seed,
    )
    if args.format == "json":
        _emit(result.to_json(), args)
    else:
        lines = [f"{args.theorem} {result.instance}"]
        for a in result.assertions:
            status = "PASS" if a.passed else "FAIL"
            detail = ""
            if not a.passed or a.expected is not None:
                detail = f" (expected {a.expected!r}, got {a.actual!r})"
            lines.append(f"  [{status}] {a.name}{detail}")
        lines.append("VERIFIED" if result.ok else "FALSIFIED")
        _emit("\n".join(lines), args)
    return EXIT_OK if result.ok else EXIT_FALSIFIED


_HANDLERS = {
    "field": _cmd_field,
    "coset": _cmd_coset,
    "build": _cmd_build,
    "wdist": _cmd_wdist,
    "classify": _cmd_classify,
    "design": _cmd_design,
    "subfield": _cmd_subfield,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.budget < 1:
            raise ValueError("budget must be >= 1")
        if args.threads < 1:
            raise ValueError("threads must be >= 1")
        if args.seed < 0:
            raise InvalidParameters("seed must be >= 0")
    except (ValueError, InvalidParameters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except ResourceCap as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Falsified as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
