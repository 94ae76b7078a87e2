"""Benchmark for the artifact checker, gated on correctness.

    python3 bench/run.py --workload sweep_r3 --seed 20260823 --seconds 40 --trace 0
    python3 bench/run.py --smoke

Run from any directory of a checkout; ``src/`` is imported from source.
Each iteration of a workload runs in a fresh interpreter (``child.py``),
so caches start cold as they do for a command-line user.  Iterations
repeat until ``--seconds`` is used up and the metrics are medians over
them.  Workload timings are in nominal seconds: divided by the
machine-speed factor that ``probe`` measured at the same time (the
measured median wall time and the factors are printed as comments).
With ``--trace 0`` the run prints the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
iterations and prints the per-layer metrics of ``tracer.PER_LAYER`` in
measured seconds, read from the traced iteration with the median wall
time, together with the tracing overhead.

Every iteration passes a correctness gate before any number is printed:
all ``passed`` flags true, no failed operation, and the counts and output
digests recorded in ``expected.json``, which are the same for every seed.
A run that fails the gate prints no result and exits 1; a checkout
without ``src/artifact`` exits 2.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

``--smoke`` runs every workload at a tiny size in both modes, checks that
each metric of ``BENCHMARK.json`` is emitted with its unit, and checks
that the gate trips on a wrong expected digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

WORKLOADS = ("sweep_r3", "promotion", "cli_verify")
DEFAULT_SEED = 20260823  # the seed of acceptance criterion 5
SETUP_SAMPLES = 25
CHILD_TIMEOUT_S = 150


class GateFailure(Exception):
    """An iteration's outputs are wrong, so the run may report no numbers."""


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_child(workload: str, seed: int, size: str, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CHILD), workload, str(seed), size, str(int(trace))],
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-5:])
        raise GateFailure(f"iteration exited with {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup() -> list[float]:
    """Interpreter start plus ``import artifact.cli``, timed from outside.

    The interpreter runs with ``-S``: the library needs nothing from
    site-packages, whose start-up hooks took 40-100 ms on a 2-vCPU Xeon and
    vary with whatever else is installed.  One untimed start first writes the
    bytecode cache, which users keep.
    """
    cmd = [sys.executable, "-S", "-c", "import artifact.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=_child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        if i:
            samples.append(time.perf_counter() - start)
    return samples


def check(out: dict, expected: dict) -> None:
    """Raise GateFailure unless the iteration's outputs are right."""
    problems = []
    if out["passed"] is not True:
        problems.append("a passed flag is false")
    if out["failed"]:
        problems.append(f"{out['failed']} of {out['attempted']} operations failed")
    if Path(out["artifact_file"]).resolve() != (SRC / "artifact" / "__init__.py").resolve():
        problems.append(f"artifact was imported from {out['artifact_file']}, not from src/")
    for key, want in expected.items():
        if out.get(key) != want:
            problems.append(f"{key} is {out.get(key)!r}, expected {want!r}")
    if problems:
        raise GateFailure("; ".join(problems))


def iterate(workload: str, seed: int, size: str, trace: bool, deadline: float, expected: dict):
    """Gated iterations until the deadline: (untraced outputs, traced outputs).

    With tracing, each round is one untraced and one traced iteration, so
    both see the same machine load.  A round starts only if one more round
    of the last round's length still ends by the deadline.
    """
    untraced, traced = [], []
    while True:
        start = time.monotonic()
        for traced_mode in (False, True) if trace else (False,):
            out = run_child(workload, seed, size, traced_mode)
            check(out, expected)
            (traced if traced_mode else untraced).append(out)
        now = time.monotonic()
        if now + (now - start) > deadline:
            return untraced, traced


def end_to_end(runs: list[dict], setup: list[float]) -> dict:
    """End-to-end metrics of a run's untraced iterations, in nominal time."""
    walls = [o["wall_s"] / o["machine_factor"] for o in runs]
    # Each shape's median over the run's iterations, which see the same
    # inputs in the same order.  Quantiles of the pooled samples would jump
    # across the gaps between neighbouring shapes' clusters of times.
    per_shape = zip(*([s / o["machine_factor"] for s in o["shape_s"]] for o in runs))
    shape_ms = [1000 * statistics.median(times) for times in per_shape]
    deciles = statistics.quantiles(shape_ms, n=10, method="inclusive")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "tableaux_per_s": (statistics.median(o["tableaux"] / w for o, w in zip(runs, walls)), "1/s"),
        "checks_per_s": (statistics.median(o["checks"] / w for o, w in zip(runs, walls)), "1/s"),
        "shape_ms_p50": (deciles[4], "ms"),
        "shape_ms_p80": (deciles[7], "ms"),
        # Start-up did not follow the kernel's fast and slow states (dividing
        # by the factor made its spread several times wider), so it stays in
        # measured seconds.
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(o["rss_mb"] for o in runs), "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics in measured seconds.  The overhead pairs each traced
    iteration with the untraced one of its round, which ran just before it
    and carries the probe's cost of about 1%."""
    chosen = sorted(traced, key=lambda o: o["wall_s"])[(len(traced) - 1) // 2]
    values = dict(chosen["per_layer"])
    named = sum(v for k, v in values.items() if k.endswith(".self_s"))
    if abs(named + values["unattributed_s"] - values["traced_wall_s"]) > 1e-6:
        raise GateFailure("traced self times and unattributed time do not add up to the wall")
    values["trace_overhead_frac"] = statistics.median(t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)) - 1
    units = {name: unit for name, unit, _, _ in tracer.PER_LAYER}
    if set(values) != set(units):
        raise RuntimeError(f"per-layer metrics differ from tracer.PER_LAYER: {set(values) ^ set(units)}")
    return {name: (values[name], units[name]) for name in units}


def load_expected() -> dict:
    return json.loads((BENCH / "expected.json").read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full", expected=None) -> dict:
    """Run one workload and return the result object, or raise GateFailure."""
    deadline = time.monotonic() + seconds
    if expected is None:
        expected = load_expected()[workload][size]
    setup = [] if trace else measure_setup()
    untraced, traced = iterate(workload, seed, size, trace, deadline, expected)
    runs = untraced + traced
    if trace:
        metrics, notes = per_layer(untraced, traced), []
    else:
        metrics = end_to_end(untraced, setup)
        factors = [o["machine_factor"] for o in untraced]
        notes = [
            f"machine factor {min(factors):.3g}..{max(factors):.3g}, median {statistics.median(factors):.3g}",
            f"measured median wall_s {statistics.median(o['wall_s'] for o in untraced):.6g} s",
        ]
    return {
        "correct": True,
        "attempted": sum(o["attempted"] for o in runs),
        "failed": sum(o["failed"] for o in runs),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "notes": notes,
        "iterations": (len(untraced), len(traced)),
        "shape_samples": len(untraced[0]["shape_s"]),
    }


def environment(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "artifact").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }


def report(workload: str, trace: bool, env: dict, result: dict) -> None:
    untraced, traced = result["iterations"]
    print(f"# {workload} trace={int(trace)} " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# iterations: {untraced} untraced, {traced} traced; shapes {result['shape_samples']}")
    for note in result["notes"]:
        print(f"# {note}")
    moves = {name: note for name, _, _, note in tracer.PER_LAYER}
    for name, metric in result["metrics"].items():
        note = f"  # moves {moves[name]}" if trace else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(f"error_rate = {result['failed'] / result['attempted']:g} ({result['failed']} of {result['attempted']} operations failed)")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))


def smoke() -> int:
    """The benchmark's own test: tiny sizes, metric names and units, gate."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, DEFAULT_SEED, 0, trace, size="smoke")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace={int(trace)}: metrics or units differ: {set(got.items()) ^ set(wanted[trace].items())}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{workload}: {name} is not a finite number")
    wrong = dict(load_expected()["cli_verify"]["smoke"], stdout_sha256="0" * 64)
    try:
        measure("cli_verify", DEFAULT_SEED, 0, False, size="smoke", expected=wrong)
        problems.append("the gate accepted a wrong stdout digest")
    except GateFailure:
        pass
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: FAIL" if problems else "smoke: ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = parser.parse_args(argv)
    if not (SRC / "artifact" / "__init__.py").is_file():
        print(f"error: {SRC / 'artifact'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    env = environment(args.seed)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except GateFailure as exc:
        print(f"correctness gate failed on {args.workload}: {exc}", file=sys.stderr)
        return 1
    report(args.workload, bool(args.trace), env, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
