"""Outside-in tracing of `ordfuse` layers.

`Tracer.install` replaces each traced function, by identity, in the namespace
of every loaded `ordfuse` module that binds it: the module that defines it
and every module that imported it by name. So a call reaches the wrapper
whichever module makes it, and nothing under `src/` changes. Untraced helpers
count towards the self time of the traced function that calls them.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# module -> functions traced in it
TRACED = {
    "sensing_model": ("draw_slots",),
    "llr_distributions": ("correction_term", "exceed_prob", "llr_pdf", "envelope_for"),
    "order_stats": ("ranked_pdf", "weighted_subset_coeffs"),
    "bs_thresholds": ("decide_batch", "map_block_batch"),
    "dp_policy": ("solve_backward", "solve_one_threshold", "run_policy_batch"),
    "fusion_sim": ("run_monte_carlo", "run_monte_carlo_fading", "make_detector"),
    "fading_link": (
        "gain_threshold", "participation_prob", "participation_pmf",
        "sample_participants", "effective_config",
    ),
    "cli": ("run_experiment",),
}

SOLVERS = ("dp_policy.solve_backward", "dp_policy.solve_one_threshold")
# correction-term points count towards points_per_slot only when the band
# detector calls the term directly, not through another traced function
BAND = "bs_thresholds.decide_batch"
BAND_TERM = "llr_distributions.correction_term"


def _slots(name: str, args) -> int:
    """Slots handled by one call of a batch function, else 0."""
    if name == "sensing_model.draw_slots":
        return int(args[2])
    if name in ("bs_thresholds.decide_batch", "bs_thresholds.map_block_batch",
                "dp_policy.run_policy_batch"):
        return int(np.shape(args[0])[0])
    return 0


def _points(args) -> int:
    """Size of the first array argument; 1 when every argument is a scalar."""
    for arg in args:
        if isinstance(arg, np.ndarray):
            return int(arg.size)
    return 1


class Tracer:
    """Per-function calls, points, slots, total and self time.

    `band_points` counts the points of correction-term calls made directly
    by the band detector. `solves` holds the diagnostics of every policy a
    solver returned. `missing` names traced functions that no longer exist.
    """

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.band_points = 0
        self.solves: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, time spent in traced children]

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ordfuse" or n.startswith("ordfuse."))]
        for module_name, functions in TRACED.items():
            home = sys.modules.get(f"ordfuse.{module_name}")
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(
            name, {"calls": 0, "points": 0, "slots": 0, "total_s": 0.0, "self_s": 0.0}
        )
        stack = self._stack
        band_term = name == BAND_TERM
        solves = self.solves if name in SOLVERS else None

        def traced(*args, **kwargs):
            from_band = band_term and bool(stack) and stack[-1][0] == BAND
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                points = _points(args)
                stats["calls"] += 1
                stats["points"] += points
                stats["slots"] += _slots(name, args)
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - frame[1]
                if from_band:
                    self.band_points += points
            if solves is not None:
                solves.append(dict(result.diagnostics))
            return result

        return traced

    def record(self) -> dict:
        return {
            "functions": self.stats,
            "band_points": self.band_points,
            "solves": self.solves,
            "missing": self.missing,
        }


def layer_metrics(record: dict) -> dict[str, float]:
    """The per-layer metrics of one traced worker, by name."""
    fns = record["functions"]

    def stat(name: str, key: str):
        return fns.get(name, {}).get(key, 0)

    def group(names, key: str):
        return sum(stat(n, key) for n in names)

    fading = [n for n in fns if n.startswith("fading_link.")]
    bs_slots = stat("bs_thresholds.decide_batch", "slots")
    solves = record["solves"]
    out = {}
    for name in ("sensing_model.draw_slots", "llr_distributions.correction_term",
                 "llr_distributions.exceed_prob", "llr_distributions.llr_pdf",
                 "llr_distributions.envelope_for", "order_stats.ranked_pdf",
                 "order_stats.weighted_subset_coeffs", "bs_thresholds.decide_batch",
                 "bs_thresholds.map_block_batch", "dp_policy.run_policy_batch",
                 "cli.run_experiment"):
        out[f"{name}.self_s"] = stat(name, "self_s")
    out["sensing_model.draw_slots.slots"] = stat("sensing_model.draw_slots", "slots")
    out["llr_distributions.correction_term.points"] = stat("llr_distributions.correction_term", "points")
    out["llr_distributions.exceed_prob.points"] = stat("llr_distributions.exceed_prob", "points")
    # points evaluated by the band detector itself per slot it decides; 0
    # where the workload runs no band detector
    out["llr_distributions.correction_term.points_per_slot"] = record["band_points"] / bs_slots if bs_slots else 0.0
    out["order_stats.ranked_pdf.points"] = stat("order_stats.ranked_pdf", "points")
    out["order_stats.weighted_subset_coeffs.calls"] = stat("order_stats.weighted_subset_coeffs", "calls")
    out["bs_thresholds.decide_batch.slots"] = bs_slots
    out["dp_policy.solve.self_s"] = group(SOLVERS, "self_s")
    out["dp_policy.solve.calls"] = group(SOLVERS, "calls")
    out["dp_policy.solve.nodes"] = max((s.get("nodes", 0) for s in solves), default=0)
    # on dp the identical-sensor solves, whose node count item 4b should not move
    out["dp_policy.solve.nodes_min"] = min((s.get("nodes", 0) for s in solves), default=0)
    out["dp_policy.solve.mass_error"] = max(
        (s.get("quadrature_mass_error", 0.0) for s in solves), default=0.0)
    out["dp_policy.run_policy_batch.slots"] = stat("dp_policy.run_policy_batch", "slots")
    out["fusion_sim.run_monte_carlo.self_s"] = group(
        ("fusion_sim.run_monte_carlo", "fusion_sim.run_monte_carlo_fading"), "self_s")
    out["fusion_sim.make_detector.calls"] = stat("fusion_sim.make_detector", "calls")
    out["fading_link.effective_config.calls"] = stat("fading_link.effective_config", "calls")
    out["fading_link.self_s"] = group(fading, "self_s")
    return out
