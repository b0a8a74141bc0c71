"""Workload definitions: the config files and `ordfuse` commands each one runs.

Every config resolves to the scenario its preset runs today, so that making
presets honour the loaded scenario (or deleting `bs-generalized`) cannot
change a workload's work. The workload seed is passed to every `ordfuse run`
command as `--seed`; the configs themselves do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

HELD_OUT_SEED = 90001  # not used while tuning; later claims must also hold on it

BAND_TRIALS = 200_000
DP_TRIALS = 20_000
SENSING_C_VALUES = 5  # default c_values of fig-sensing-vs-c
HET_SIGMA2_S = ", ".join(f"{1.0 + 0.2 * i:.1f}" for i in range(16))  # 1.0 .. 4.0


@dataclass(frozen=True)
class Command:
    """One `ordfuse` invocation.

    `argv` uses `{dir}` for the worker's output directory and `{seed}` for
    the workload seed. `slots` is the number of slots the command simulates
    (0 for `solve`); `outputs` are the files it must leave, relative to
    `{dir}`.
    """

    argv: tuple[str, ...]
    slots: int
    outputs: tuple[str, ...]

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict[str, str]  # file name -> INI text
    commands: tuple[Command, ...]
    # CSVs whose p_error and thr_primary must be equal: the sequential band
    # detector decides exactly as block MAP on the same slots (criterion 2)
    agree: tuple[str, ...] = ()
    # traced functions (`module.function`) the workload must call; a traced
    # run fails if one of them is never called
    layers: tuple[str, ...] = ()


def _run(config: str, preset: str, out: str, slots: int) -> Command:
    return Command(
        ("run", "--config", "{dir}/" + config, "--preset", preset,
         "--seed", "{seed}", "--out", "{dir}/" + out),
        slots,
        (f"{out}/{preset}.csv", f"{out}/{preset}.meta.json"),
    )


def _solve(config: str, out: str, *extra: str) -> Command:
    return Command(
        ("solve", "--config", "{dir}/" + config, "--out", "{dir}/" + out, *extra),
        0,
        (out,),
    )


# The correction term and the band detector do almost all the work; the
# solver does none.
BAND_MC = Workload(
    name="band-mc",
    configs={
        "bs.ini": f"[scenario]\nM = 10\nK = 8\n[experiment]\ndetector = bs\ntrials = {BAND_TRIALS}\n",
        "block-map.ini": f"[scenario]\nM = 10\nK = 8\n[experiment]\ndetector = block-map\ntrials = {BAND_TRIALS}\n",
    },
    commands=(
        _run("bs.ini", "custom", "bs", BAND_TRIALS),
        _run("block-map.ini", "custom", "block-map", BAND_TRIALS),
    ),
    agree=("bs/custom.csv", "block-map/custom.csv"),
    layers=("sensing_model.draw_slots", "llr_distributions.correction_term",
            "llr_distributions.exceed_prob", "llr_distributions.envelope_for",
            "bs_thresholds.decide_batch", "bs_thresholds.map_block_batch",
            "fusion_sim.run_monte_carlo", "cli.run_experiment"),
)

# Belief-grid solves do almost all the work; the band detector is idle.
# Identical sensors: backward induction over a dozen solves of different
# sizes, plus fading_link and the CLI presets. Non-identical sensors (M=16,
# sigma2_s 1.0 to 4.0): the subset recurrences and per-law tail
# probabilities dominate both the solve and the dp executor, the quadrature
# node count grows with M, and exceed_prob is reached through ranked_pdf
# rather than through the correction term. The halves share one workload
# because the non-identical half alone spreads too much from run to run in
# runs short enough for three workloads (see README.md).
DP = Workload(
    name="dp",
    configs={
        # fig-fading-probed with no [fading] section runs default_fading(M)
        "error-min.ini": f"[scenario]\nM = 10\nK = 8\n[cost]\nmode = error-min\n"
                         f"[experiment]\ntrials = {DP_TRIALS}\nm_values = 10\n",
        "throughput.ini": "[scenario]\nM = 10\nK = 8\n[cost]\nmode = weighted-throughput\nc = 0\n",
        # fig-sensing-vs-c runs default_scenario(M=8, K=8) whatever is loaded
        "sensing.ini": f"[scenario]\nM = 8\nK = 8\n[cost]\nmode = error-min\n"
                       f"[experiment]\ntrials = {DP_TRIALS}\n",
        "heterogeneous.ini": f"[scenario]\nM = 16\nK = 8\nsigma2_s = {HET_SIGMA2_S}\n"
                             f"[cost]\nmode = error-min\n"
                             f"[experiment]\ndetector = dp\ntrials = {DP_TRIALS}\n",
    },
    commands=(
        _solve("error-min.ini", "error-min.policy.json"),
        _solve("throughput.ini", "throughput.policy.json", "--one-threshold"),
        _run("sensing.ini", "fig-sensing-vs-c", "sensing", SENSING_C_VALUES * DP_TRIALS),
        # one fading run plus one perfect-link run for the single M
        _run("error-min.ini", "fig-fading-probed", "fading", 2 * DP_TRIALS),
        _solve("heterogeneous.ini", "heterogeneous.policy.json"),
        _run("heterogeneous.ini", "custom", "dp", DP_TRIALS),
    ),
    layers=("dp_policy.solve_backward", "dp_policy.solve_one_threshold",
            "dp_policy.run_policy_batch", "order_stats.ranked_pdf",
            "order_stats.weighted_subset_coeffs", "llr_distributions.exceed_prob",
            "fusion_sim.run_monte_carlo", "fusion_sim.run_monte_carlo_fading",
            "fading_link.effective_config", "cli.run_experiment"),
)

WORKLOADS = {w.name: w for w in (BAND_MC, DP)}
