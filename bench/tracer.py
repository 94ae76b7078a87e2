"""Per-layer tracing for the benchmark, done entirely from outside ``src/``.

A traced iteration replaces, in every ``artifact`` module namespace that
binds it, each function named in ``LAYERS`` by a timing wrapper.  Callers
look those names up as module globals at call time, so imported names and
calls inside the defining module are both caught without editing the
library.  Each wrapper records calls, self time (its span minus the spans
of wrapped callees) and, for generators, yields; a generator's span covers
only the time inside ``next()``.

``PER_LAYER`` lists every per-layer metric the traced run reports, with
the end-to-end metric and workload it is expected to move.  It is the map
that later performance work cites by name.
"""

from __future__ import annotations

import inspect
import time

# label -> (defining module, function names, caller modules or None for all).
# characters.restricted_gl_character keeps its wt_ghat calls in its own self
# time because crystal.weights only wraps the names the verify module binds.
LAYERS = {
    "tableaux.enumerate_ssyt": ("tableaux", ("enumerate_ssyt",), None),
    "tableaux.validate_ssyt": ("tableaux", ("validate_ssyt",), None),
    "tableaux.column_star": ("tableaux", ("column_star",), None),
    "tableaux.enumerate_spt": ("tableaux", ("enumerate_spt",), None),
    "branching.suc": ("branching", ("suc",), None),
    "branching.p_aii": ("branching", ("p_aii",), None),
    "branching.staircase": ("branching", ("a_staircase", "b_staircase"), None),
    "crystal.is_ghat_dominant": ("crystal", ("is_ghat_dominant",), None),
    "crystal.weights": ("crystal", ("wt_ghat", "wt_k"), ("verify",)),
    "characters.restricted_gl_character": ("characters", ("restricted_gl_character",), None),
    "characters.sp_character": ("characters", ("sp_character",), None),
    "characters.decompose": ("characters", ("decompose",), None),
    "promotion.pr": ("promotion", ("pr",), None),
    "promotion.pr_inv": ("promotion", ("pr_inv",), None),
    "promotion.rows_from_cells": ("promotion", ("rows_from_cells",), None),
    "promotion.phi_psi": ("promotion", ("phi", "psi"), None),
    "verify.verify_shape": ("verify", ("verify_shape",), None),
    "verify.bijection_suite": ("verify", ("bijection_suite",), None),
    "verify.promotion_relations": ("verify", ("promotion_relations",), None),
    "cli.format": ("cli", ("_report_dict", "_report_lines"), None),
}

# Wrapped by the benchmark at its own call site, not inside a module.
CLI_MAIN = "cli.main"

_SWEEP = "sweep_r3"
_PROMO = "promotion"
_CLI = "cli_verify"

# (name, unit, better, what it should move: end-to-end metric on workload)
PER_LAYER = [
    ("tableaux.enumerate_ssyt.self_s", "s", "lower", f"wall_s on {_CLI}, not on {_SWEEP}"),
    ("tableaux.enumerate_ssyt.calls", "count", "lower", f"wall_s on {_CLI}"),
    ("tableaux.enumerate_ssyt.yields", "count", "lower", f"wall_s on {_CLI}, not on {_SWEEP}"),
    ("tableaux.enumerations_per_shape", "ratio", "lower", f"wall_s on {_CLI} (3 today), not on {_SWEEP}"),
    ("tableaux.validate_ssyt.self_s", "s", "lower", f"tableaux_per_s on {_SWEEP}, checks_per_s on {_PROMO}"),
    ("tableaux.validate_ssyt.calls", "count", "lower", f"tableaux_per_s on {_SWEEP}, checks_per_s on {_PROMO}"),
    ("tableaux.validate_ssyt.calls_per_tableau", "ratio", "lower", f"tableaux_per_s on {_SWEEP}, checks_per_s on {_PROMO}"),
    ("tableaux.column_star.self_s", "s", "lower", f"tableaux_per_s on {_SWEEP}"),
    ("tableaux.column_star.calls", "count", "lower", f"tableaux_per_s on {_SWEEP}"),
    ("tableaux.enumerate_spt.self_s", "s", "lower", f"tableaux_per_s on {_SWEEP}"),
    ("tableaux.enumerate_spt.calls", "count", "lower", f"tableaux_per_s on {_SWEEP}"),
    ("branching.suc.self_s", "s", "lower", f"tableaux_per_s on {_SWEEP} and {_CLI}; none on {_PROMO}"),
    ("branching.suc.calls", "count", "lower", f"tableaux_per_s on {_SWEEP} and {_CLI}; none on {_PROMO}"),
    ("branching.p_aii.self_s", "s", "lower", f"tableaux_per_s on {_SWEEP} and {_CLI}; none on {_PROMO}"),
    ("branching.p_aii.calls", "count", "lower", f"tableaux_per_s on {_CLI}; none on {_PROMO}"),
    ("branching.p_aii_per_tableau", "ratio", "lower", f"tableaux_per_s on {_CLI} (3 today); none on {_PROMO}"),
    ("branching.suc_per_p_aii", "ratio", "lower", f"tableaux_per_s on {_SWEEP} and {_CLI}"),
    ("branching.staircase.self_s", "s", "lower", f"tableaux_per_s on {_SWEEP} and {_CLI}"),
    ("branching.staircase.calls", "count", "lower", f"tableaux_per_s on {_SWEEP} and {_CLI}"),
    ("branching.highest_frac", "ratio", "higher", f"tableaux_per_s on {_SWEEP} (useful share of P computations)"),
    ("crystal.is_ghat_dominant.self_s", "s", "lower", f"tableaux_per_s on {_SWEEP}"),
    ("crystal.is_ghat_dominant.calls", "count", "lower", f"tableaux_per_s on {_SWEEP}"),
    ("crystal.dominant_frac", "ratio", "higher", f"tableaux_per_s on {_SWEEP} (useful share of dominance tests)"),
    ("crystal.weights.self_s", "s", "lower", f"tableaux_per_s on {_SWEEP}"),
    ("crystal.weights.calls", "count", "lower", f"tableaux_per_s on {_SWEEP}"),
    ("characters.restricted_gl_character.self_s", "s", "lower", f"tableaux_per_s on {_SWEEP}; none on {_PROMO}"),
    ("characters.restricted_gl_character.calls", "count", "lower", f"tableaux_per_s on {_SWEEP}; none on {_PROMO}"),
    ("characters.sp_character.self_s", "s", "lower", f"tableaux_per_s on {_SWEEP}; none on {_PROMO}"),
    ("characters.sp_character.calls", "count", "lower", f"tableaux_per_s on {_SWEEP}; none on {_PROMO}"),
    ("characters.sp_character.misses", "count", "lower", f"tableaux_per_s on {_SWEEP}; none on {_PROMO}"),
    ("characters.sp_character.hit_frac", "ratio", "higher", f"tableaux_per_s on {_SWEEP}; none on {_PROMO}"),
    ("characters.decompose.self_s", "s", "lower", f"tableaux_per_s on {_SWEEP}; none on {_PROMO}"),
    ("characters.decompose.calls", "count", "lower", f"tableaux_per_s on {_SWEEP}; none on {_PROMO}"),
    ("characters.decompose.peel_steps", "count", "lower", f"tableaux_per_s on {_SWEEP}; none on {_PROMO}"),
    ("promotion.pr.self_s", "s", "lower", f"checks_per_s on {_PROMO}; little on {_CLI}, none on {_SWEEP}"),
    ("promotion.pr.calls", "count", "lower", f"checks_per_s on {_PROMO}; none on {_SWEEP}"),
    ("promotion.pr_inv.self_s", "s", "lower", f"checks_per_s on {_PROMO}; none on {_SWEEP}"),
    ("promotion.pr_inv.calls", "count", "lower", f"checks_per_s on {_PROMO}; none on {_SWEEP}"),
    ("promotion.rows_from_cells.self_s", "s", "lower", f"checks_per_s on {_PROMO}; none on {_SWEEP}"),
    ("promotion.rows_from_cells.calls", "count", "lower", f"checks_per_s on {_PROMO}; none on {_SWEEP}"),
    ("promotion.phi_psi.self_s", "s", "lower", f"checks_per_s on {_CLI}; none on {_SWEEP}"),
    ("promotion.phi_psi.calls", "count", "lower", f"checks_per_s on {_CLI}; none on {_SWEEP}"),
    ("verify.verify_shape.self_s", "s", "lower", f"tableaux_per_s on {_SWEEP} and {_CLI}"),
    ("verify.verify_shape.calls", "count", "lower", f"shape_ms_p50 on {_SWEEP} and {_CLI}"),
    ("verify.bijection_suite.self_s", "s", "lower", f"wall_s on {_CLI}"),
    ("verify.bijection_suite.calls", "count", "lower", f"wall_s on {_CLI}"),
    ("verify.promotion_relations.self_s", "s", "lower", f"checks_per_s on {_PROMO}"),
    ("verify.promotion_relations.calls", "count", "lower", f"checks_per_s on {_PROMO}"),
    ("cli.format.self_s", "s", "lower", f"wall_s on {_CLI} only"),
    ("cli.format.calls", "count", "lower", f"wall_s on {_CLI} only"),
    ("cli.main.self_s", "s", "lower", f"wall_s on {_CLI} only (command time outside named calls)"),
    ("cli.main.calls", "count", "lower", f"wall_s on {_CLI} only"),
    ("cli.output_bytes", "count", "lower", f"wall_s on {_CLI} only"),
    ("traced_wall_s", "s", "lower", "wall_s on every workload (traced)"),
    ("unattributed_s", "s", "lower", "wall_s on every workload (time outside every named layer)"),
    ("trace_overhead_frac", "ratio", "lower", "none: cost of the wrappers themselves"),
]


class Tracer:
    """Timing wrappers around module globals, with one record per
    (label, caller module): [calls, self seconds, yields, True results]."""

    def __init__(self) -> None:
        self.records: dict[tuple[str, str], list] = {}
        # Stack of child-time accumulators; the bottom one collects the time
        # of top-level spans.
        self._stack = [0.0]

    def install(self, modules: dict) -> None:
        """Wrap every LAYERS function in each module of ``modules`` (a dict
        of short name -> module) that binds it."""
        for label, (home, names, callers) in LAYERS.items():
            for name in names:
                original = getattr(modules[home], name)
                for caller, module in modules.items():
                    if callers is not None and caller not in callers:
                        continue
                    if module.__dict__.get(name) is original:
                        setattr(module, name, self.wrap(label, original, caller))

    def wrap(self, label: str, fn, caller: str):
        rec = self.records.setdefault((label, caller), [0, 0.0, 0, 0])
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):

            def drive(gen):
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        rec[1] += elapsed - stack.pop()
                        stack[-1] += elapsed
                    rec[2] += 1
                    yield item

            def traced_gen(*args, **kwargs):
                rec[0] += 1
                return drive(fn(*args, **kwargs))

            return traced_gen

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                rec[1] += elapsed - stack.pop()
                stack[-1] += elapsed
                rec[0] += 1
            if result is True:
                rec[3] += 1
            return result

        return traced

    def totals(self, label: str, callers=None) -> list:
        """[calls, self seconds, yields, True results] summed over callers."""
        out = [0, 0.0, 0, 0]
        for (name, caller), rec in self.records.items():
            if name == label and (callers is None or caller in callers):
                out = [a + b for a, b in zip(out, rec)]
        return out

    @property
    def spanned_s(self) -> float:
        """Total time of top-level spans, which equals the sum of all self times."""
        return self._stack[0]
