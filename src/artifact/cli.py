"""Command line interface: branching tables, batch verification, and
inspection of single tableaux.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 budget
exceeded, 4 internal error (a library invariant failed; argv on stderr).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from .branching import _recording, _suc_chain, staircase_flags
from .crystal import (
    column_dominance_violation,
    tableau_eps,
    tableau_phi,
    wt_ghat,
    wt_k,
)
from .promotion import phi_factors, pr_images, psi_factors
from .shapes import format_partition, parse_partition
from .tableaux import Rows, columns_of, rows_of, validate_ssyt
from .verify import (
    BudgetExceeded,
    SuiteResult,
    VerificationReport,
    bijection_suite,
    check_budget,
    promotion_suite_exhaustive,
    promotion_suite_random,
    verify_shape,
    verify_sweep,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# The five counts of a report row: (table column, JSON key, ModelRow field).
ROW_COUNTS = (
    ("mult", "oracle", "oracle"),
    ("g_dominant", "g_dominant", "g_dom"),
    ("k_highest", "k_highest", "khw"),
    ("k_lowest", "k_lowest", "klw"),
    ("recording", "recording", "rec"),
)
TABLE_HEADER = "\t".join(["lambda", "mu", *(column for column, _, _ in ROW_COUNTS), "status"])


class UsageError(Exception):
    pass


def parse_tableau(text: str) -> Rows:
    """Parse "1,2;2,3;4" into rows; "" denotes the empty tableau."""
    text = text.strip()
    if not text:
        return []
    try:
        rows = [[int(tok) for tok in part.split(",")] for part in text.split(";")]
    except ValueError as exc:
        raise UsageError(f"bad tableau {text!r}") from exc
    if not validate_ssyt(rows):
        raise UsageError(f"not a semistandard tableau: {text!r}")
    return rows


def _tableau_arg(args) -> Rows:
    T = parse_tableau(args.tableau)
    if any(e > 2 * args.n for row in T for e in row):
        raise UsageError(f"entries exceed {2 * args.n}")
    return T


def format_tableau(T: Rows) -> str:
    return ";".join(",".join(str(e) for e in row) for row in T)


def _tableau_grid(T: Rows) -> str:
    if not T:
        return "(empty)"
    return "\n".join(" ".join(str(e) for e in row) for row in T)


def _mu_text(mu) -> str:
    return format_partition(mu) if all(isinstance(c, int) and c >= 0 for c in mu) else str(mu)


def _report_lines(report: VerificationReport) -> list[str]:
    lam_text = format_partition(report.lam)
    return [
        "\t".join([lam_text, _mu_text(row.mu), *(str(getattr(row, f)) for _, _, f in ROW_COUNTS)])
        + ("\tok" if row.ok else "\tMISMATCH")
        for row in report.rows
    ]


def _report_dict(report: VerificationReport) -> dict:
    return {
        "n": report.n,
        "lambda": list(report.lam),
        "rows": [
            dict(mu=list(row.mu), ok=row.ok, **{key: getattr(row, f) for _, key, f in ROW_COUNTS})
            for row in report.rows
        ],
        "sst_total": report.sst_total,
        "sp_dim_sum": report.sp_dim_sum,
        "dimension_ok": report.dim_ok,
        "passed": report.passed,
    }


def _require_budget(args) -> None:
    if args.budget is not None and args.budget < 1:
        raise UsageError("--budget must be positive")


def cmd_branch(args) -> int:
    _require_budget(args)
    try:
        lam = parse_partition(args.lam)
    except ValueError as exc:
        raise UsageError(exc) from exc
    if len(lam) > 2 * args.n:
        raise UsageError(f"lambda has more than {2 * args.n} rows")
    check_budget([lam], args.n, args.budget)
    report = verify_shape(lam, args.n)
    if args.json:
        print(json.dumps(_report_dict(report), sort_keys=True))
    else:
        print(TABLE_HEADER, *_report_lines(report), sep="\n")
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_verify(args) -> int:
    if args.max_size < 1:
        raise UsageError("--max-size must be positive")
    _require_budget(args)
    reports = verify_sweep(args.n, args.max_size, budget=args.budget)
    suite = SuiteResult()
    for report in reports:
        suite.merge(bijection_suite(report))
    if args.n == 2:
        promo = promotion_suite_exhaustive(2, min(args.max_size, 4))
    else:
        promo = promotion_suite_random(args.n, trials=25, seed=args.seed)
    ok = all(r.passed for r in reports) and suite.passed and promo.passed
    if args.json:
        payload = {
            "reports": [_report_dict(r) for r in reports],
            "bijection_checked": suite.checked,
            "bijection_failures": suite.failures,
            "promotion_checked": promo.checked,
            "promotion_failures": promo.failures,
            "passed": ok,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(TABLE_HEADER, *(line for r in reports for line in _report_lines(r)), sep="\n")
        bad_dim = [r for r in reports if not r.dim_ok]
        print(f"shapes checked\t{len(reports)}")
        print(f"dimension identity\t{'ok' if not bad_dim else 'MISMATCH'}")
        print(f"bijection suite\t{suite.checked} checks\t{len(suite.failures)} failures")
        print(f"promotion suite\t{promo.checked} checks\t{len(promo.failures)} failures")
        for failure in suite.failures + promo.failures:
            print(f"failure\t{failure}")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_show(args) -> int:
    T = _tableau_arg(args)
    n = args.n
    cols = columns_of(T)
    chain = _suc_chain(cols)
    P, Q = rows_of(chain[-1]), _recording(chain)
    k_highest, k_lowest = staircase_flags(chain[-1], n)
    steps = sorted(Q.items(), key=lambda kv: (kv[1], kv[0][1], kv[0][0]))
    violation = column_dominance_violation(cols, n)
    if args.json:
        payload = {
            "tableau": T,
            "P": P,
            "Q": [{"box": [x, y], "step": j} for (x, y), j in steps],
            "k_highest": k_highest,
            "k_lowest": k_lowest,
            "wt_ghat": list(wt_ghat(T, n)),
            "wt_k": list(wt_k(T, n)),
            "ghat_dominant": violation is None,
        }
        print(json.dumps(payload, sort_keys=True))
        return EXIT_PASS
    print("tableau:")
    print(_tableau_grid(T))
    print("P:")
    print(_tableau_grid(P))
    print("Q:")
    if not Q:
        print("(empty)")
    for (x, y), j in steps:
        print(f"step {j}: box ({x},{y})")
    print(f"k_highest: {k_highest}")
    print(f"k_lowest: {k_lowest}")
    print(f"wt_ghat: {wt_ghat(T, n)}")
    print(f"wt_k: {wt_k(T, n)}")
    word = " ".join(str(e) for col in reversed(cols) for e in col)
    print(f"inverse column word: {word}")
    if violation is None:
        print("ghat_dominant: True")
    else:
        print(f"ghat_dominant: False (first failing prefix index {violation})")
    print("string data:")
    for i in range(1, 2 * n):
        print(f"i={i}: eps={tableau_eps(T, i)} phi={tableau_phi(T, i)}")
    return EXIT_PASS


def cmd_bijection(args) -> int:
    n = args.n
    factors = {"phi": phi_factors(n), "psi": psi_factors(n)}
    trace: dict[str, list] = {}
    if args.tableau is not None:
        T = _tableau_arg(args)
        for name, windows in factors.items():
            images = pr_images(T, windows)[1:]
            trace[name] = [{"window": [a, b], "result": U} for (a, b), U in zip(windows, images)]
    if args.json:
        payload = {f"{name}_factors": [list(w) for w in ws] for name, ws in factors.items()}
        payload["n"] = n
        if trace:
            payload["trace"] = trace
        print(json.dumps(payload, sort_keys=True))
        return EXIT_PASS
    for name, windows in factors.items():
        seq = " ".join(f"pr[{a},{b}]" for a, b in reversed(windows))
        print(f"{name} (n={n}): {seq if seq else 'id'}  (rightmost factor applies first)")
    for name, steps in trace.items():
        print(f"{name} trace:")
        for step in steps:
            a, b = step["window"]
            print(f"  pr[{a},{b}] -> {format_tableau(step['result']) or '(empty)'}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Branching tables, batch verification, and tableau inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True)
    common.add_argument("--json", action="store_true")
    budgeted = argparse.ArgumentParser(add_help=False, parents=[common])
    budgeted.add_argument("--budget", type=int, default=None, help="cap on the tableau count")

    branch = sub.add_parser(
        "branch", parents=[budgeted], help="decompose one shape into symplectic classes"
    )
    branch.add_argument("--lambda", dest="lam", required=True, help='partition, e.g. "2,1"')
    branch.set_defaults(func=cmd_branch)

    ver = sub.add_parser("verify", parents=[budgeted], help="sweep all shapes up to a size bound")
    ver.add_argument("--max-size", type=int, required=True)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    show = sub.add_parser("show", parents=[common], help="inspect one tableau")
    show.add_argument("--tableau", required=True, help='rows, e.g. "1,2;2,3;4"')
    show.set_defaults(func=cmd_show)

    bij = sub.add_parser("bijection", parents=[common], help="print the phi/psi promotion factors")
    bij.add_argument("--tableau", default=None, help="optional tableau to trace")
    bij.set_defaults(func=cmd_bijection)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.n < 1:
            raise UsageError("n must be positive")
        if args.func in (cmd_verify, cmd_bijection) and args.n > 127:
            raise UsageError("n must be at most 127: promotion runs on the letters 1 to 254")
        return args.func(args)
    except (UsageError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        argv = sys.argv[1:] if argv is None else argv
        print(f"internal error: {exc}\nargv: {shlex.join(argv)}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
