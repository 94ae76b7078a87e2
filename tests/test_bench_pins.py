"""The library names that the benchmark's tracer wraps must exist.

bench/tracer.py rebinds each function named in its LAYERS table by a
timing wrapper and fails with AttributeError when one is missing.  This
test reads that table and checks every name against its artifact module,
so deleting or renaming a pinned name fails the test suite as well as the
benchmark.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_pinned_name_exists():
    # Executed from its source text, so no bytecode is written under bench/.
    tracer: dict = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer)
    pinned = [(home, name) for home, names, _ in tracer["LAYERS"].values() for name in names]
    pinned.append(tuple(tracer["CLI_MAIN"].split(".")))
    assert len(pinned) > 20
    missing = [
        f"{home}.{name}"
        for home, name in pinned
        if not callable(getattr(importlib.import_module(f"artifact.{home}"), name, None))
    ]
    assert not missing, missing
