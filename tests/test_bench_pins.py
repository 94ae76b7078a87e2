"""The library names that the benchmark's tracer wraps must exist, the
library imports only the standard library, and its start-up stays light.

bench/tracer.py rebinds each function named in its LAYERS table by a
timing wrapper and fails with AttributeError when one is missing.  This
test reads that table and checks every name against its artifact module,
so deleting or renaming a pinned name fails the test suite as well as the
benchmark.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from artifact import characters

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


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


def test_sp_character_keeps_its_cache_info():
    # bench/child.py reads the cache's hit and miss counts in traced runs.
    assert callable(characters.sp_character.cache_info)


def test_the_library_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "artifact").glob("*.py"))
    assert len(sources) > 5
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign += [
                f"{path.name}: {top}"
                for top in tops
                if top not in sys.stdlib_module_names and top != "artifact"
            ]
    assert not foreign, foreign


def test_the_command_line_starts_without_heavy_standard_modules():
    # The benchmark times `python -S -c "import artifact.cli"`: these three
    # took about 20 ms of its 70-110 ms on a 2-vCPU host, for no use.
    heavy = "{'dataclasses', 'typing', 'inspect'}"
    code = f"import artifact.cli, sys; print(*sorted({heavy} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, "-S", "-c", code]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_the_command_line_starts_with_the_promotion_tables_empty():
    # The benchmark's setup_s times `python -S -c "import artifact.cli"`: a
    # neighbour table, window map or relation table built at import would be
    # timed there.
    caches = "artifact.promotion._tables, artifact.promotion._window_maps"
    caches += ", artifact.promotion._relation_table"
    code = f"import artifact.cli; print(*(f.cache_info().currsize for f in ({caches})))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, "-S", "-c", code]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "0"]


def test_the_benchmark_passes_its_self_test():
    # bench/child.py times the promotion suites by rebinding
    # verify.promotion_relations, which the name pins above cannot run: the
    # self-test runs every workload at a tiny size, traced and untraced,
    # through its correctness gate.  No bytecode is written under bench/.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-B", str(ROOT / "bench" / "run.py"), "--smoke"]
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "smoke: ok"
