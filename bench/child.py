"""One benchmark iteration, run in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED SIZE TRACE

Imports ``artifact`` from PYTHONPATH, runs WORKLOAD once at SIZE ("full"
or "smoke"), and prints one JSON object: the wall time of the workload
call, per-shape times, operation counts, output digests, peak RSS and
either the machine-speed factor seen by ``probe.Sampler`` during the call
or, with TRACE=1, the per-layer metrics of ``tracer.PER_LAYER``.  A fresh
interpreter per iteration keeps the ``functools.cache`` on
``characters.sp_character`` cold, as it is for a command-line user.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import artifact
from artifact import branching, characters, cli, crystal, promotion, shapes, tableaux, verify

import probe
import tracer as tracing

MODULES = {
    "tableaux": tableaux,
    "shapes": shapes,
    "crystal": crystal,
    "branching": branching,
    "promotion": promotion,
    "characters": characters,
    "verify": verify,
    "cli": cli,
}

# The cached function itself: tracing rebinds the module name to a wrapper.
SP_CHARACTER = characters.sp_character

# Workload parameters by size.  Smoke sizes exist only so the benchmark can
# test itself in seconds.
SWEEP = {"full": (3, 8), "smoke": (3, 3)}  # verify_sweep(n, max_size)
PROMO = {"full": (5, 1000), "smoke": (2, 10)}  # exhaustive(2, size), random(3, trials)
CLI_MAX_SIZE = {"full": 6, "smoke": 3}  # artifact verify --n 3 --max-size


def _sha256(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _reports_outcome(reports) -> dict:
    """Counts, failures and a digest of the five-model rows of a sweep."""
    rows = [
        [list(r.lam), list(row.mu), row.g_dom, row.khw, row.klw, row.rec, row.oracle]
        for r in reports
        for row in r.rows
    ]
    dims = [[list(r.lam), r.sst_total, r.sp_dim_sum] for r in reports]
    failed = sum(not row.ok for r in reports for row in r.rows)
    failed += sum(not r.dim_ok for r in reports)
    return {
        "passed": all(r.passed for r in reports),
        "shapes": len(reports),
        "tableaux": sum(r.sst_total for r in reports),
        "checks": len(rows) + len(reports),
        "failed": failed,
        "rows_sha256": _sha256([rows, dims]),
        "shape_s": [r.elapsed for r in reports],
        "highest": sum(row.khw for r in reports for row in r.rows),
    }


def run_sweep(seed: int, size: str, traced) -> tuple[float, dict]:
    # verify_sweep takes no random input; the seed has nothing to vary.
    n, max_size = SWEEP[size]
    start = time.perf_counter()
    reports = verify.verify_sweep(n, max_size)
    wall = time.perf_counter() - start
    out = _reports_outcome(reports)
    out["attempted"] = out["checks"]
    return wall, out


def run_promotion(seed: int, size: str, traced) -> tuple[float, dict]:
    max_size, trials = PROMO[size]
    # The suites have no per-shape result, so each shape-time sample here is
    # one tableau's relation checks, timed through the name the suites look
    # up, at two clock reads per tableau.
    per_tableau: list[float] = []
    relations = verify.promotion_relations
    clock = time.perf_counter

    def timed_relations(T, n):
        t0 = clock()
        result = relations(T, n)
        per_tableau.append(clock() - t0)
        return result

    verify.promotion_relations = timed_relations
    start = clock()
    exhaustive = verify.promotion_suite_exhaustive(2, max_size)
    randomised = verify.promotion_suite_random(3, trials, seed)
    wall = clock() - start
    verify.promotion_relations = relations
    checks = exhaustive.checked + randomised.checked
    return wall, {
        "passed": exhaustive.passed and randomised.passed,
        "shapes": len(shapes.enumerate_partitions(max_size, 4)),
        "tableaux": len(per_tableau),
        "checks": checks,
        "attempted": checks,
        "failed": len(exhaustive.failures) + len(randomised.failures),
        "shape_s": per_tableau,
        "highest": 0,
    }


def run_cli(seed: int, size: str, traced) -> tuple[float, dict]:
    argv = ["verify", "--n", "3", "--max-size", str(CLI_MAX_SIZE[size]), "--seed", str(seed), "--json"]
    # Keep the sweep's reports: VerificationReport.elapsed is not printed.
    captured = []
    sweep = cli.verify_sweep

    def capture_sweep(*args, **kwargs):
        captured.append(sweep(*args, **kwargs))
        return captured[-1]

    cli.verify_sweep = capture_sweep
    main = traced(tracing.CLI_MAIN, cli.main, "bench") if traced else cli.main
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    wall = time.perf_counter() - start
    cli.verify_sweep = sweep
    stdout = buf.getvalue()
    payload = json.loads(stdout)
    out = _reports_outcome(captured[0])
    del out["rows_sha256"]  # stdout_sha256 covers the rows
    suites = payload["bijection_checked"] + payload["promotion_checked"]
    failures = payload["bijection_failures"] + payload["promotion_failures"]
    out["passed"] = out["passed"] and code == 0 and payload["passed"] is True
    out["checks"] += suites
    out["attempted"] = out["checks"] + 1  # the command itself
    out["failed"] += len(failures) + (code != 0)
    out["exit_code"] = code
    out["stdout_sha256"] = _sha256(stdout)
    out["output_bytes"] = len(stdout.encode())
    return wall, out


WORKLOADS = {"sweep_r3": run_sweep, "promotion": run_promotion, "cli_verify": run_cli}


def per_layer(tracer: tracing.Tracer, wall: float, out: dict) -> dict:
    """Every PER_LAYER metric except trace_overhead_frac, which needs the
    untraced iterations too."""
    values = {}
    for label in list(tracing.LAYERS) + [tracing.CLI_MAIN]:
        calls, self_s, _, _ = tracer.totals(label)
        values[f"{label}.self_s"] = self_s
        values[f"{label}.calls"] = calls

    def ratio(a, b):
        return a / b if b else 0.0

    enum = tracer.totals("tableaux.enumerate_ssyt")
    enum_outside = tracer.totals("tableaux.enumerate_ssyt", set(MODULES) - {"tableaux"})
    values["tableaux.enumerate_ssyt.yields"] = enum[2]
    values["tableaux.enumerations_per_shape"] = ratio(enum_outside[0], out["shapes"])
    values["tableaux.validate_ssyt.calls_per_tableau"] = ratio(
        values["tableaux.validate_ssyt.calls"], out["tableaux"]
    )
    values["branching.p_aii_per_tableau"] = ratio(values["branching.p_aii.calls"], out["tableaux"])
    values["branching.suc_per_p_aii"] = ratio(values["branching.suc.calls"], values["branching.p_aii.calls"])
    values["branching.highest_frac"] = ratio(out["highest"], out["tableaux"])
    dominant = tracer.totals("crystal.is_ghat_dominant")
    values["crystal.dominant_frac"] = ratio(dominant[3], dominant[0])
    info = SP_CHARACTER.cache_info()
    values["characters.sp_character.misses"] = info.misses
    values["characters.sp_character.hit_frac"] = ratio(info.hits, info.hits + info.misses)
    values["characters.decompose.peel_steps"] = tracer.totals("characters.sp_character", ("characters",))[0]
    values["cli.output_bytes"] = out.get("output_bytes", 0)
    values["traced_wall_s"] = wall
    values["unattributed_s"] = wall - tracer.spanned_s
    return values


def main(argv: list[str]) -> int:
    workload, seed, size, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    run = WORKLOADS[workload]
    if trace:
        tracer = tracing.Tracer()
        tracer.install(MODULES)
        wall, out = run(seed, size, tracer.wrap)
        out["per_layer"] = per_layer(tracer, wall, out)
    else:
        # Untraced only: the probe's handler would land in layer self times.
        with probe.Sampler() as sampler:
            wall, out = run(seed, size, None)
        out["machine_factor"] = probe.factor(sampler.samples)
    out["wall_s"] = wall
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["artifact_file"] = artifact.__file__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
