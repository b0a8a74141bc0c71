"""Command-line harness: config ingestion, figure-style experiment presets,
deterministic seeding and CSV emission.

Config files are INI-style with [scenario], [cost], [fading] and [experiment]
sections; every unset field falls back to the baseline defaults and every
unknown key is rejected. Identical (config, seed) pairs produce byte-identical
CSV output.

Exit codes: 0 success, 2 configuration error, 3 runtime/solver error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .defaults import DEFAULT_SEED, DEFAULT_TRIALS, default_fading, default_scenario
from .dp_policy import (
    CostMode,
    CostModel,
    SolverError,
    accumulated_llr_equivalent,
    solve_backward,
    solve_one_threshold,
)
from .fading_link import FadingConfig
from .fusion_sim import (
    DETECTOR_KINDS,
    IDENTICAL_ONLY_KINDS,
    make_detector,
    run_monte_carlo,
    run_monte_carlo_fading,
    sweep,
)
from .order_stats import SensorEnsemble
from .sensing_model import MeasurementModel, ScenarioConfig


class ConfigError(ValueError):
    """Configuration file failed to parse or violated an invariant."""


PRESET_NAMES = (
    "fig-throughput-vs-M",
    "fig-perror-vs-M",
    "fig-probed-vs-M",
    "fig-throughput-compare",
    "fig-probed-vs-K",
    "fig-fading-probed",
    "fig-thresholds-vs-stage",
    "fig-sensing-vs-c",
    "custom",
)


@dataclass(frozen=True)
class ExperimentSpec:
    preset: str
    overrides: dict
    trials: int
    seed: int
    output_path: Path

    def __post_init__(self):
        if self.preset not in PRESET_NAMES:
            raise ConfigError(f"unknown preset '{self.preset}' (expected one of {PRESET_NAMES})")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")


class ConfigBundle(NamedTuple):
    scenario: ScenarioConfig
    cost: CostModel
    fading: FadingConfig | None
    experiment: ExperimentSpec


_SCENARIO_KEYS = {
    "M", "N", "K", "tau_s", "tau_N", "tau", "pi0", "sigma2", "sigma2_s",
    "measurement_model", "mu0", "mu1", "rng_seed",
}
_COST_KEYS = {
    "mode", "omega", "R_p", "R_s", "eta_p", "eta_s", "delta_p", "delta_s",
    "e_pt", "e_st", "P_col", "L_f", "L_b", "c",
}
_FADING_KEYS = {"W", "bits", "tau_b", "P_over_sigma", "Gamma", "gain_mean", "T_c"}
_EXPERIMENT_KEYS = {
    "preset", "trials", "seed", "output", "detector",
    "m_values", "k_values", "c_values", "omega_values",
}
_SECTIONS = {
    "scenario": _SCENARIO_KEYS,
    "cost": _COST_KEYS,
    "fading": _FADING_KEYS,
    "experiment": _EXPERIMENT_KEYS,
}


def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a number, got '{raw}'") from exc


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected an integer, got '{raw}'") from exc


def _parse_float_list(raw: str, where: str) -> tuple[float, ...]:
    return tuple(_parse_float(part.strip(), where) for part in raw.split(",") if part.strip())


def _scalar_or_list(raw: str, m: int, where: str) -> tuple[float, ...]:
    values = _parse_float_list(raw, where)
    if len(values) == 1:
        return values * m
    if len(values) != m:
        raise ConfigError(f"{where}: expected 1 or M={m} values, got {len(values)}")
    return values


def load_config(path) -> ConfigBundle:
    """Parse and validate a config file; unset fields take the baseline defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            # configparser lowercases keys unless told otherwise
            if key not in {k.lower() for k in _SECTIONS[section]}:
                raise ConfigError(f"[{section}] unknown key '{key}'")

    def raw(section: str, key: str) -> str | None:
        if parser.has_section(section) and parser.has_option(section, key.lower()):
            return parser[section][key.lower()]
        return None

    scenario = _load_scenario(raw)
    cost = _load_cost(raw)
    fading = _load_fading(raw, parser.has_section("fading"), scenario.M)
    experiment = _load_experiment(raw, parser)
    return ConfigBundle(scenario, cost, fading, experiment)


def _custom_detector_kind(spec: ExperimentSpec) -> str:
    """Detector the custom preset runs: the `detector` key, else bs."""
    return spec.overrides.get("detector", "bs")


def _check_runnable(bundle: ConfigBundle) -> None:
    """Reject a custom run whose detector cannot handle the configured sensors.

    Other presets and `solve` do not read the detector, so only the custom
    preset is checked.
    """
    if bundle.experiment.preset != "custom":
        return
    kind = _custom_detector_kind(bundle.experiment)
    if kind in IDENTICAL_ONLY_KINDS and not SensorEnsemble.from_config(bundle.scenario).is_identical:
        raise ConfigError(f"[experiment] detector '{kind}' requires identical sensors")


def _load_scenario(raw) -> ScenarioConfig:
    base = default_scenario()
    kwargs = {}
    for key, parse in (
        ("M", _parse_int), ("N", _parse_int), ("K", _parse_int),
        ("tau_s", _parse_float), ("tau_N", _parse_float), ("tau", _parse_float),
        ("pi0", _parse_float), ("sigma2", _parse_float), ("rng_seed", _parse_int),
    ):
        value = raw("scenario", key)
        if value is not None:
            kwargs[key] = parse(value, f"[scenario] {key}")
    m = kwargs.get("M", base.M)
    if "M" in kwargs:
        kwargs.setdefault("K", min(base.K, m))
    model_raw = raw("scenario", "measurement_model")
    if model_raw is not None:
        try:
            kwargs["measurement_model"] = MeasurementModel(model_raw.strip())
        except ValueError as exc:
            raise ConfigError(
                f"[scenario] measurement_model must be one of "
                f"{[m.value for m in MeasurementModel]}"
            ) from exc
    sig = raw("scenario", "sigma2_s")
    kwargs["sigma2_s"] = (
        _scalar_or_list(sig, m, "[scenario] sigma2_s") if sig is not None
        else (base.sigma2_s[0],) * m
    )
    for key in ("mu0", "mu1"):
        value = raw("scenario", key)
        if value is not None:
            kwargs[key] = _scalar_or_list(value, m, f"[scenario] {key}")
    if kwargs.get("measurement_model") is MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN:
        kwargs.setdefault("mu0", (-1.0,) * m)
        kwargs.setdefault("mu1", (1.0,) * m)
    try:
        return replace(base, M=m, **{k: v for k, v in kwargs.items() if k != "M"})
    except ValueError as exc:
        raise ConfigError(f"[scenario] {exc}") from exc


def _load_cost(raw) -> CostModel:
    mode_raw = raw("cost", "mode")
    if mode_raw is None:
        mode = CostMode.ERROR_MIN
    else:
        try:
            mode = CostMode(mode_raw.strip())
        except ValueError as exc:
            raise ConfigError(
                f"[cost] mode must be one of {[m.value for m in CostMode]}"
            ) from exc
    kwargs = {}
    for key in _COST_KEYS - {"mode"}:
        value = raw("cost", key)
        if value is not None:
            kwargs[key] = _parse_float(value, f"[cost] {key}")
    kwargs.setdefault("c", 0.0001)
    try:
        return CostModel(mode=mode, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[cost] {exc}") from exc


def _load_fading(raw, present: bool, m: int) -> FadingConfig | None:
    if not present:
        return None
    base = default_fading(m)
    kwargs = dict(
        W=base.W, bits=base.bits, tau_b=base.tau_b, T_c=base.T_c,
        P_over_sigma=base.P_over_sigma, Gamma=base.Gamma, gain_mean=base.gain_mean,
    )
    for key, parse in (("W", _parse_float), ("tau_b", _parse_float)):
        value = raw("fading", key)
        if value is not None:
            kwargs[key] = parse(value, f"[fading] {key}")
    for key in ("bits", "T_c"):
        value = raw("fading", key)
        if value is not None:
            kwargs[key] = _parse_int(value, f"[fading] {key}")
    for key in ("P_over_sigma", "Gamma", "gain_mean"):
        value = raw("fading", key)
        if value is not None:
            kwargs[key] = _scalar_or_list(value, m, f"[fading] {key}")
    try:
        return FadingConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[fading] {exc}") from exc


def _load_experiment(raw, parser) -> ExperimentSpec:
    overrides = dict(parser["experiment"]) if parser.has_section("experiment") else {}
    preset = raw("experiment", "preset") or "custom"
    trials_raw = raw("experiment", "trials")
    seed_raw = raw("experiment", "seed")
    detector = raw("experiment", "detector")
    if detector is not None and detector not in DETECTOR_KINDS:
        raise ConfigError(f"[experiment] detector must be one of {DETECTOR_KINDS}")
    return ExperimentSpec(
        preset=preset,
        overrides=overrides,
        trials=_parse_int(trials_raw, "[experiment] trials") if trials_raw else DEFAULT_TRIALS,
        seed=_parse_int(seed_raw, "[experiment] seed") if seed_raw else DEFAULT_SEED,
        output_path=Path(raw("experiment", "output") or "out"),
    )


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _scenario_dict(config: ScenarioConfig) -> dict:
    return {
        "M": config.M, "N": config.N, "K": config.K,
        "tau_s": config.tau_s, "tau_N": config.tau_N, "tau": config.tau,
        "pi0": config.pi0, "sigma2": config.sigma2, "sigma2_s": list(config.sigma2_s),
        "measurement_model": config.measurement_model.value,
        "mu0": list(config.mu0) if config.mu0 else None,
        "mu1": list(config.mu1) if config.mu1 else None,
        "rng_seed": config.rng_seed,
    }


def _cost_dict(cost: CostModel) -> dict:
    out = {"mode": cost.mode.value}
    for key in sorted(_COST_KEYS - {"mode"}):
        out[key] = getattr(cost, key)
    return out


def _fading_dict(fading: FadingConfig | None) -> dict | None:
    if fading is None:
        return None
    return {
        "W": fading.W, "bits": fading.bits, "tau_b": fading.tau_b,
        "P_over_sigma": list(fading.P_over_sigma), "Gamma": list(fading.Gamma),
        "gain_mean": list(fading.gain_mean), "T_c": fading.T_c,
        "gain_law": fading.gain_law,
    }


def _write_meta(path: Path, bundle: ConfigBundle, extra: dict) -> None:
    payload = {
        "ordfuse_version": __version__,
        "preset": bundle.experiment.preset,
        "trials": bundle.experiment.trials,
        "seed": bundle.experiment.seed,
        "scenario": _scenario_dict(bundle.scenario),
        "cost": _cost_dict(bundle.cost),
        "fading": _fading_dict(bundle.fading),
        "overrides": dict(bundle.experiment.overrides),
        **extra,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _values_from(spec: ExperimentSpec, key: str, fallback: list) -> list:
    raw = spec.overrides.get(key)
    if raw is None:
        return fallback
    return list(_parse_float_list(raw, f"[experiment] {key}"))


# ---------------------------------------------------------------------------
# Presets


def _preset_perror_vs_m(bundle: ConfigBundle, out_dir: Path) -> list[Path]:
    spec = bundle.experiment
    m_values = [int(v) for v in _values_from(spec, "m_values", [4, 6, 8, 10, 12, 16, 20])]
    cm = CostModel.error_min(c=bundle.cost.c)
    bs = sweep("M", m_values, bundle.scenario, "bs", spec.trials, spec.seed)
    dp = sweep("M", m_values, bundle.scenario, "dp", spec.trials, spec.seed, cost_model=cm)
    rows = []
    for (m, met_bs), (_, met_dp) in zip(bs, dp):
        se_bs = (met_bs.p_error * (1 - met_bs.p_error) / spec.trials) ** 0.5
        se_dp = (met_dp.p_error * (1 - met_dp.p_error) / spec.trials) ** 0.5
        rows.append([int(m), met_bs.p_error, met_dp.p_error, se_bs, se_dp, spec.trials, spec.seed])
    path = out_dir / "fig-perror-vs-M.csv"
    _write_csv(path, ["M", "p_error_bs", "p_error_dp", "stderr_bs", "stderr_dp", "trials", "seed"], rows)
    return [path]


def _preset_throughput_vs_m(bundle: ConfigBundle, out_dir: Path) -> list[Path]:
    spec = bundle.experiment
    m_values = [int(v) for v in _values_from(spec, "m_values", [4, 6, 8, 10, 12, 16, 20])]
    omegas = _values_from(spec, "omega_values", [0.5, 0.999])
    rows = []
    for omega in omegas:
        cm = CostModel.throughput(omega=omega, c=bundle.cost.c)
        for m, met in sweep("M", m_values, bundle.scenario, "dp", spec.trials, spec.seed, cost_model=cm):
            rows.append([
                int(m), omega,
                met.norm_throughput_primary, met.norm_throughput_secondary,
                spec.trials, spec.seed,
            ])
    path = out_dir / "fig-throughput-vs-M.csv"
    _write_csv(path, ["M", "omega", "thr_primary", "thr_secondary", "trials", "seed"], rows)
    return [path]


def _preset_probed_vs_m(bundle: ConfigBundle, out_dir: Path) -> list[Path]:
    spec = bundle.experiment
    m_values = [int(v) for v in _values_from(spec, "m_values", [4, 6, 8, 10, 12, 16, 20])]
    cm_err = CostModel.error_min(c=bundle.cost.c)
    cm_thr = CostModel.throughput(c=bundle.cost.c)
    bs = sweep("M", m_values, bundle.scenario, "bs", spec.trials, spec.seed)
    dp_e = sweep("M", m_values, bundle.scenario, "dp", spec.trials, spec.seed, cost_model=cm_err)
    dp_t = sweep("M", m_values, bundle.scenario, "dp", spec.trials, spec.seed, cost_model=cm_thr)
    rows = [
        [int(m), a.avg_stage, b.avg_stage, c.avg_stage, spec.trials, spec.seed]
        for (m, a), (_, b), (_, c) in zip(bs, dp_e, dp_t)
    ]
    path = out_dir / "fig-probed-vs-M.csv"
    _write_csv(
        path,
        ["M", "probed_bs", "probed_dp_error", "probed_dp_throughput", "trials", "seed"],
        rows,
    )
    return [path]


def _preset_throughput_compare(bundle: ConfigBundle, out_dir: Path) -> list[Path]:
    spec = bundle.experiment
    m_values = [int(v) for v in _values_from(spec, "m_values", [4, 6, 8, 10, 12, 16, 20])]
    omega = 0.5
    cm_err = CostModel.error_min(c=bundle.cost.c)
    cm_thr = CostModel.throughput(omega=omega, c=bundle.cost.c)
    bs = sweep("M", m_values, bundle.scenario, "bs", spec.trials, spec.seed, cost_model=cm_thr)
    dp_e = sweep("M", m_values, bundle.scenario, "dp", spec.trials, spec.seed, cost_model=cm_err)
    dp_t = sweep("M", m_values, bundle.scenario, "dp", spec.trials, spec.seed, cost_model=cm_thr)

    def ws(met):
        return omega * met.norm_throughput_primary + (1 - omega) * met.norm_throughput_secondary

    rows = [
        [int(m), ws(a), ws(b), ws(c), spec.trials, spec.seed]
        for (m, a), (_, b), (_, c) in zip(bs, dp_e, dp_t)
    ]
    path = out_dir / "fig-throughput-compare.csv"
    _write_csv(path, ["M", "ws_bs", "ws_dp_error", "ws_dp_throughput", "trials", "seed"], rows)
    return [path]


def _preset_probed_vs_k(bundle: ConfigBundle, out_dir: Path) -> list[Path]:
    spec = bundle.experiment
    k_values = [int(v) for v in _values_from(spec, "k_values", [2, 4, 6, 8, 10, 12])]
    base = default_scenario(M=100, K=bundle.scenario.K, rng_seed=bundle.scenario.rng_seed)
    low = replace(base, sigma2_s=(2.0,) * 100)
    high = replace(base, sigma2_s=(50.0,) * 100)
    shift = replace(
        base,
        measurement_model=MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN,
        mu0=(-1.0,) * 100,
        mu1=(1.0,) * 100,
    )
    res_low = sweep("K", k_values, low, "bs", spec.trials, spec.seed)
    res_high = sweep("K", k_values, high, "bs", spec.trials, spec.seed)
    res_shift = sweep("K", k_values, shift, "bs", spec.trials, spec.seed)
    rows = [
        [int(k), a.avg_stage, b.avg_stage, c.avg_stage, spec.trials, spec.seed]
        for (k, a), (_, b), (_, c) in zip(res_low, res_high, res_shift)
    ]
    path = out_dir / "fig-probed-vs-K.csv"
    _write_csv(
        path,
        ["K", "probed_low_snr", "probed_high_snr", "probed_shift_in_mean", "trials", "seed"],
        rows,
    )
    return [path]


def _preset_fading_probed(bundle: ConfigBundle, out_dir: Path) -> list[Path]:
    spec = bundle.experiment
    m_values = [int(v) for v in _values_from(spec, "m_values", [8, 10, 12, 16, 20])]
    cm = CostModel.error_min(c=bundle.cost.c)
    rows = []
    for m in m_values:
        cfg = default_scenario(M=m, rng_seed=bundle.scenario.rng_seed)
        fading = bundle.fading if bundle.fading is not None else default_fading(m)
        if fading.m != m:
            fading = default_fading(m)
        met_fade = run_monte_carlo_fading(cfg, fading, "dp", spec.trials, spec.seed, cost_model=cm)
        det = make_detector("dp", cfg, cm)
        met_perfect = run_monte_carlo(cfg, det, spec.trials, spec.seed, cost_model=cm)
        rows.append([
            m,
            cfg.tau_N + met_fade.avg_stage * cfg.tau,
            cfg.tau_N + met_perfect.avg_stage * cfg.tau,
            met_fade.avg_stage,
            met_perfect.avg_stage,
            spec.trials, spec.seed,
        ])
    path = out_dir / "fig-fading-probed.csv"
    _write_csv(
        path,
        ["M", "sensing_time_fading", "sensing_time_perfect",
         "probed_fading", "probed_perfect", "trials", "seed"],
        rows,
    )
    return [path]


def _preset_thresholds_vs_stage(bundle: ConfigBundle, out_dir: Path) -> list[Path]:
    spec = bundle.experiment
    c_values = _values_from(spec, "c_values", [0.0, 0.0001, 0.001])
    config = bundle.scenario
    ensemble = SensorEnsemble.from_config(config)
    rows = []
    for c in c_values:
        cm = CostModel.throughput(c=c)
        policy = solve_backward(config, cm, ensemble)
        for k in range(1, policy.k_max + 1):
            lo = float(policy.pi_low[k - 1])
            hi = float(policy.pi_high[k - 1])
            rows.append([
                c, k, lo, hi,
                accumulated_llr_equivalent(lo, config.pi0),
                accumulated_llr_equivalent(hi, config.pi0),
            ])
    path = out_dir / "fig-thresholds-vs-stage.csv"
    _write_csv(
        path,
        ["c", "stage", "pi_low", "pi_high", "llr_equiv_declare_busy", "llr_equiv_declare_free"],
        rows,
    )
    return [path]


def _preset_sensing_vs_c(bundle: ConfigBundle, out_dir: Path) -> list[Path]:
    spec = bundle.experiment
    c_values = _values_from(spec, "c_values", [0.0, 1e-5, 1e-4, 1e-3, 1e-2])
    config = default_scenario(M=8, K=8, rng_seed=bundle.scenario.rng_seed)
    cm = CostModel.error_min()
    rows = []
    for c, met in sweep("c", c_values, config, "dp", spec.trials, spec.seed, cost_model=cm):
        rows.append([
            c,
            config.tau_N + met.avg_stage * config.tau,
            met.p_error,
            spec.trials, spec.seed,
        ])
    path = out_dir / "fig-sensing-vs-c.csv"
    _write_csv(path, ["c", "avg_sensing_time", "p_error", "trials", "seed"], rows)
    return [path]


def _preset_custom(bundle: ConfigBundle, out_dir: Path) -> list[Path]:
    spec = bundle.experiment
    kind = _custom_detector_kind(spec)
    detector = make_detector(kind, bundle.scenario, bundle.cost)
    met = run_monte_carlo(bundle.scenario, detector, spec.trials, spec.seed, cost_model=bundle.cost)
    config = bundle.scenario
    rows = [[
        kind, spec.trials, spec.seed, met.p_error, met.avg_stage,
        config.tau_N + met.avg_stage * config.tau,
        met.norm_throughput_secondary, met.norm_throughput_primary,
    ]]
    path = out_dir / "custom.csv"
    _write_csv(
        path,
        ["detector", "trials", "seed", "p_error", "avg_stage", "avg_sensing_time",
         "thr_secondary", "thr_primary"],
        rows,
    )
    return [path]


_PRESET_RUNNERS = {
    "fig-throughput-vs-M": _preset_throughput_vs_m,
    "fig-perror-vs-M": _preset_perror_vs_m,
    "fig-probed-vs-M": _preset_probed_vs_m,
    "fig-throughput-compare": _preset_throughput_compare,
    "fig-probed-vs-K": _preset_probed_vs_k,
    "fig-fading-probed": _preset_fading_probed,
    "fig-thresholds-vs-stage": _preset_thresholds_vs_stage,
    "fig-sensing-vs-c": _preset_sensing_vs_c,
    "custom": _preset_custom,
}


def run_experiment(spec: ExperimentSpec, bundle: ConfigBundle) -> list[Path]:
    """Run one preset and emit its CSV plus a metadata sidecar."""
    out_dir = spec.output_path
    out_dir.mkdir(parents=True, exist_ok=True)
    written = _PRESET_RUNNERS[spec.preset](bundle, out_dir)
    meta_path = out_dir / f"{spec.preset}.meta.json"
    _write_meta(meta_path, bundle, {"csv_files": [p.name for p in written]})
    return written + [meta_path]


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ordfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment preset and emit CSV")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--preset", choices=PRESET_NAMES)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--trials", type=int)
    run_p.add_argument("--out")

    val_p = sub.add_parser("validate", help="parse and validate a config file")
    val_p.add_argument("--config", required=True)

    solve_p = sub.add_parser("solve", help="solve the policy for a config and save it")
    solve_p.add_argument("--config", required=True)
    solve_p.add_argument("--out", required=True)
    solve_p.add_argument("--one-threshold", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        bundle = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            _check_runnable(bundle)
            print("config OK")
            return 0
        if args.command == "solve":
            ensemble = SensorEnsemble.from_config(bundle.scenario)
            if args.one_threshold:
                policy = solve_one_threshold(bundle.scenario, bundle.cost, ensemble)
            else:
                policy = solve_backward(bundle.scenario, bundle.cost, ensemble)
            policy.save(args.out)
            print(f"policy written to {args.out}")
            diag = policy.diagnostics
            print(f"quadrature mass error {diag['quadrature_mass_error']:.4g}, {diag['nodes']} nodes")
            return 0
        spec = bundle.experiment
        updates = {}
        if args.preset:
            updates["preset"] = args.preset
        if args.seed is not None:
            updates["seed"] = args.seed
        if args.trials is not None:
            updates["trials"] = args.trials
        if args.out:
            updates["output_path"] = Path(args.out)
        if updates:
            spec = replace(spec, **updates)
            bundle = bundle._replace(experiment=spec)
        _check_runnable(bundle)
        written = run_experiment(spec, bundle)
        for path in written:
            print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ValueError, NotImplementedError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
