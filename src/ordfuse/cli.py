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
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

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
from .sensing_model import MeasurementModel, ScenarioConfig, record


class ConfigError(ValueError):
    """Configuration file failed to parse or violated an invariant."""


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


def _parse_dir(raw: str, where: str) -> Path:
    if not raw:
        raise ConfigError(f"{where}: expected a directory, got ''")
    return Path(raw)


def _parse_list(raw: str, where: str, parse) -> tuple:
    return tuple(parse(part.strip(), where) for part in raw.split(",") if part.strip())


def _list_of(parse, accepts, rule: str):
    """Parser for a non-empty comma-separated list whose every value `accepts`."""
    def parse_list(raw: str, where: str) -> tuple:
        values = _parse_list(raw, where, parse)
        if not values or not all(accepts(v) for v in values):
            raise ConfigError(f"{where}: expected a list of {rule}, got '{raw}'")
        return values
    return parse_list


def _per_sensor(m: int):
    """Parser for a per-sensor field: one value for all M sensors, or M values."""
    def parse(raw: str, where: str) -> tuple[float, ...]:
        values = _parse_list(raw, where, _parse_float)
        if len(values) == 1:
            return values * m
        if len(values) != m:
            raise ConfigError(f"{where}: expected 1 or M={m} values, got {len(values)}")
        return values
    return parse


def _parse_enum(enum_cls):
    def parse(raw: str, where: str):
        try:
            return enum_cls(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{where} must be one of {[m.value for m in enum_cls]}") from exc
    return parse


_PROBED_VS_K_M = 100  # sensors in every scenario of fig-probed-vs-K


@dataclass(frozen=True)
class ExperimentSpec:
    """One preset run; a sweep list left as None takes the preset's default."""

    preset: str = "custom"
    detector: str = "bs"  # what the custom preset runs
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    output: Path = Path("out")  # directory of the CSV and its sidecar
    m_values: tuple[int, ...] | None = None
    k_values: tuple[int, ...] | None = None
    c_values: tuple[float, ...] | None = None
    omega_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.preset not in PRESET_NAMES:
            raise ConfigError(f"unknown preset '{self.preset}' (expected one of {PRESET_NAMES})")
        if self.detector not in DETECTOR_KINDS:
            raise ConfigError(f"detector must be one of {DETECTOR_KINDS}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


class ConfigBundle(NamedTuple):
    scenario: ScenarioConfig
    cost: CostModel
    fading: FadingConfig | None
    experiment: ExperimentSpec


_SECTIONS = {
    "scenario": {f.name for f in fields(ScenarioConfig)},
    "cost": {f.name for f in fields(CostModel)},
    "fading": {f.name for f in fields(FadingConfig)},
    "experiment": {f.name for f in fields(ExperimentSpec)},
}


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
    fading = _load_fading(raw, parser.has_section("fading"))
    experiment = _load_experiment(raw)
    return ConfigBundle(scenario, cost, fading, experiment)


def _check_runnable(bundle: ConfigBundle) -> None:
    """Reject a run its preset cannot make: an M sweep over non-identical
    sensors, or a custom detector that cannot handle the configured sensors
    or cost. Other presets and `solve` do not read the detector.
    """
    preset = bundle.experiment.preset
    if _PRESETS[preset].axis == "M":
        try:  # the rule every M sweep applies
            bundle.scenario.with_sensors(bundle.scenario.M)
        except ValueError as exc:
            raise ConfigError(f"[scenario] preset '{preset}' sweeps M: {exc}") from exc
    if preset != "custom":
        return
    kind = bundle.experiment.detector
    if kind in IDENTICAL_ONLY_KINDS and not SensorEnsemble.from_config(bundle.scenario).is_identical:
        raise ConfigError(f"[experiment] detector '{kind}' requires identical sensors")
    if kind == "one-threshold":
        _require_pure_throughput(bundle.cost, "[experiment] detector 'one-threshold'")


def _require_pure_throughput(cost: CostModel, what: str) -> None:
    """The cost rule of the one-threshold solve, checked at config time."""
    if not cost.is_pure_throughput:
        raise ConfigError(
            f"{what} requires mode = weighted-throughput, c = 0 and zero auxiliary costs"
        )


def _parse_keys(raw, section: str, table: dict) -> dict:
    """The keys of `table` that the section sets, each through its parser."""
    out = {}
    for key, parse in table.items():
        value = raw(section, key)
        if value is not None:
            out[key] = parse(value, f"[{section}] {key}")
    return out


def _load_scenario(raw) -> ScenarioConfig:
    kwargs = _parse_keys(raw, "scenario", {
        "M": _parse_int, "N": _parse_int, "K": _parse_int,
        "tau_s": _parse_float, "tau_N": _parse_float, "tau": _parse_float,
        "pi0": _parse_float, "sigma2": _parse_float,
        "measurement_model": _parse_enum(MeasurementModel),
    })
    m = kwargs.get("M", default_scenario().M)
    per_sensor = _per_sensor(m)
    kwargs.update(_parse_keys(raw, "scenario", {
        "sigma2_s": per_sensor, "mu0": per_sensor, "mu1": per_sensor,
    }))
    if kwargs.get("measurement_model") is MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN:
        kwargs.setdefault("mu0", (-1.0,) * m)
        kwargs.setdefault("mu1", (1.0,) * m)
    try:
        return default_scenario(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[scenario] {exc}") from exc


def _load_cost(raw) -> CostModel:
    # every cost field but the mode is a number
    table = {f.name: _parse_float for f in fields(CostModel)} | {"mode": _parse_enum(CostMode)}
    parsed = _parse_keys(raw, "cost", table)
    try:
        return replace(CostModel.error_min(), **parsed)
    except ValueError as exc:
        raise ConfigError(f"[cost] {exc}") from exc


def _load_fading(raw, present: bool) -> FadingConfig | None:
    if not present:
        return None
    # every link field but the payload and the coherence period is a number
    table = {f.name: _parse_float for f in fields(FadingConfig)} | {"bits": _parse_int, "T_c": _parse_int}
    parsed = _parse_keys(raw, "fading", table)
    try:
        return replace(default_fading(), **parsed)
    except ValueError as exc:
        raise ConfigError(f"[fading] {exc}") from exc


def _load_experiment(raw) -> ExperimentSpec:
    parsed = _parse_keys(raw, "experiment", {
        "preset": lambda text, where: text,
        "detector": lambda text, where: text,
        "trials": _parse_int,
        "seed": _parse_int,
        "output": _parse_dir,
        "m_values": _list_of(_parse_int, lambda v: v >= 1, "integers >= 1"),
        "k_values": _list_of(_parse_int, lambda v: 1 <= v <= _PROBED_VS_K_M,
                             f"integers in 1..{_PROBED_VS_K_M}"),
        "c_values": _list_of(_parse_float, lambda v: 0.0 <= v < math.inf, "finite numbers >= 0"),
        "omega_values": _list_of(_parse_float, lambda v: 0.0 <= v <= 1.0, "numbers in [0, 1]"),
    })
    return ExperimentSpec(**parsed)


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


def _write_meta(path: Path, bundle: ConfigBundle, csv_path: Path) -> None:
    payload = {
        "ordfuse_version": __version__,
        "experiment": record(bundle.experiment),
        "scenario": record(bundle.scenario),
        "cost": record(bundle.cost),
        "fading": record(bundle.fading),
        "csv_files": [csv_path.name],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Presets: each states its sweep axis, that axis's default values and its
# columns once, and maps the bundle and the axis values to the (header, rows)
# of its CSV


def _preset_perror_vs_m(bundle: ConfigBundle, m_values):
    spec = bundle.experiment
    columns = [("bs", None), ("dp", CostModel.error_min(c=bundle.cost.c))]
    rows = [
        [m, bs.p_error, dp.p_error, bs.p_error_stderr, dp.p_error_stderr, spec.trials, spec.seed]
        for m, (bs, dp) in sweep("M", m_values, bundle.scenario, columns, spec.trials, spec.seed)
    ]
    return ["M", "p_error_bs", "p_error_dp", "stderr_bs", "stderr_dp", "trials", "seed"], rows


def _preset_throughput_vs_m(bundle: ConfigBundle, m_values):
    spec = bundle.experiment
    omegas = spec.omega_values or (0.5, 0.999)
    columns = [("dp", CostModel.throughput(omega=omega, c=bundle.cost.c)) for omega in omegas]
    results = sweep("M", m_values, bundle.scenario, columns, spec.trials, spec.seed)
    rows = [  # omega is the outer loop
        [m, omega, met[i].norm_throughput_primary, met[i].norm_throughput_secondary,
         spec.trials, spec.seed]
        for i, omega in enumerate(omegas)
        for m, met in results
    ]
    return ["M", "omega", "thr_primary", "thr_secondary", "trials", "seed"], rows


def _preset_probed_vs_m(bundle: ConfigBundle, m_values):
    spec = bundle.experiment
    c = bundle.cost.c
    columns = [("bs", None), ("dp", CostModel.error_min(c=c)), ("dp", CostModel.throughput(c=c))]
    rows = [
        [m, *(met.avg_stage for met in mets), spec.trials, spec.seed]
        for m, mets in sweep("M", m_values, bundle.scenario, columns, spec.trials, spec.seed)
    ]
    return ["M", "probed_bs", "probed_dp_error", "probed_dp_throughput", "trials", "seed"], rows


def _preset_throughput_compare(bundle: ConfigBundle, m_values):
    spec = bundle.experiment
    omega = 0.5
    cm_thr = CostModel.throughput(omega=omega, c=bundle.cost.c)
    columns = [("bs", cm_thr), ("dp", CostModel.error_min(c=bundle.cost.c)), ("dp", cm_thr)]
    rows = [
        [m, *(omega * met.norm_throughput_primary + (1 - omega) * met.norm_throughput_secondary
              for met in mets), spec.trials, spec.seed]
        for m, mets in sweep("M", m_values, bundle.scenario, columns, spec.trials, spec.seed)
    ]
    return ["M", "ws_bs", "ws_dp_error", "ws_dp_throughput", "trials", "seed"], rows


def _preset_probed_vs_k(bundle: ConfigBundle, k_values):
    spec = bundle.experiment
    m = _PROBED_VS_K_M
    base = default_scenario(M=m)  # the K axis sets K and refits the timing
    scenarios = (
        replace(base, sigma2_s=(2.0,) * m),
        replace(base, sigma2_s=(50.0,) * m),
        replace(base, measurement_model=MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN,
                mu0=(-1.0,) * m, mu1=(1.0,) * m),
    )
    probed = [
        [met.avg_stage for _, (met,) in sweep("K", k_values, cfg, [("bs", None)],
                                               spec.trials, spec.seed)]
        for cfg in scenarios
    ]
    rows = [[k, *stages, spec.trials, spec.seed] for k, *stages in zip(k_values, *probed)]
    return ["K", "probed_low_snr", "probed_high_snr", "probed_shift_in_mean", "trials", "seed"], rows


def _preset_fading_probed(bundle: ConfigBundle, m_values):
    spec = bundle.experiment
    cm = CostModel.error_min(c=bundle.cost.c)
    fading = bundle.fading or default_fading()
    rows = []
    for m, (perfect,) in sweep("M", m_values, bundle.scenario, [("dp", cm)], spec.trials, spec.seed):
        cfg = bundle.scenario.with_sensors(m)
        fade = run_monte_carlo_fading(cfg, fading, "dp", spec.trials, spec.seed, cost_model=cm)
        rows.append([
            m,
            cfg.sensing_time(fade.avg_stage),
            cfg.sensing_time(perfect.avg_stage),
            fade.avg_stage,
            perfect.avg_stage,
            spec.trials, spec.seed,
        ])
    header = ["M", "sensing_time_fading", "sensing_time_perfect",
              "probed_fading", "probed_perfect", "trials", "seed"]
    return header, rows


def _preset_thresholds_vs_stage(bundle: ConfigBundle, c_values):
    config = bundle.scenario
    log_prior = config.log_prior_ratio()
    rows = []
    for c in c_values:
        policy = solve_backward(config, CostModel.throughput(c=c))
        for k in range(1, config.K + 1):
            lo = float(policy.pi_low[k - 1])
            hi = float(policy.pi_high[k - 1])
            rows.append([
                c, k, lo, hi,
                accumulated_llr_equivalent(lo, log_prior),
                accumulated_llr_equivalent(hi, log_prior),
            ])
    return ["c", "stage", "pi_low", "pi_high", "llr_equiv_declare_busy", "llr_equiv_declare_free"], rows


def _preset_sensing_vs_c(bundle: ConfigBundle, c_values):
    spec = bundle.experiment
    config = bundle.scenario
    columns = [("dp", CostModel.error_min())]
    rows = [
        [c, config.sensing_time(met.avg_stage), met.p_error, spec.trials, spec.seed]
        for c, (met,) in sweep("c", c_values, config, columns, spec.trials, spec.seed)
    ]
    return ["c", "avg_sensing_time", "p_error", "trials", "seed"], rows


def _preset_custom(bundle: ConfigBundle, _values):
    spec = bundle.experiment
    config = bundle.scenario
    kind = spec.detector
    detector = make_detector(kind, config, bundle.cost)
    met = run_monte_carlo(config, detector, spec.trials, spec.seed, cost_model=bundle.cost)
    rows = [[
        kind, spec.trials, spec.seed, met.p_error, met.avg_stage,
        config.sensing_time(met.avg_stage),
        met.norm_throughput_secondary, met.norm_throughput_primary,
    ]]
    header = ["detector", "trials", "seed", "p_error", "avg_stage", "avg_sensing_time",
              "thr_secondary", "thr_primary"]
    return header, rows


class _Preset(NamedTuple):
    axis: str | None  # "M", "K", "c", or None for a single run
    defaults: tuple  # the axis values when the experiment lists none
    run: Callable  # (bundle, axis values) -> (header, rows)

    def values(self, spec: ExperimentSpec) -> tuple:
        listed = {"M": spec.m_values, "K": spec.k_values, "c": spec.c_values}.get(self.axis)
        return listed or self.defaults


_M_VALUES = (4, 6, 8, 10, 12, 16, 20)
_PRESETS = {
    "fig-throughput-vs-M": _Preset("M", _M_VALUES, _preset_throughput_vs_m),
    "fig-perror-vs-M": _Preset("M", _M_VALUES, _preset_perror_vs_m),
    "fig-probed-vs-M": _Preset("M", _M_VALUES, _preset_probed_vs_m),
    "fig-throughput-compare": _Preset("M", _M_VALUES, _preset_throughput_compare),
    "fig-probed-vs-K": _Preset("K", (2, 4, 6, 8, 10, 12), _preset_probed_vs_k),
    "fig-fading-probed": _Preset("M", (8, 10, 12, 16, 20), _preset_fading_probed),
    "fig-thresholds-vs-stage": _Preset("c", (0.0, 0.0001, 0.001), _preset_thresholds_vs_stage),
    "fig-sensing-vs-c": _Preset("c", (0.0, 1e-5, 1e-4, 1e-3, 1e-2), _preset_sensing_vs_c),
    "custom": _Preset(None, (), _preset_custom),
}
PRESET_NAMES = tuple(_PRESETS)


def run_experiment(bundle: ConfigBundle) -> list[Path]:
    """Run the bundle's preset and write `<preset>.csv` plus a metadata sidecar."""
    spec = bundle.experiment
    preset = _PRESETS[spec.preset]
    header, rows = preset.run(bundle, preset.values(spec))
    csv_path = spec.output / f"{spec.preset}.csv"
    _write_csv(csv_path, header, rows)
    meta_path = spec.output / f"{spec.preset}.meta.json"
    _write_meta(meta_path, bundle, csv_path)
    return [csv_path, meta_path]


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
            if args.one_threshold:
                _require_pure_throughput(bundle.cost, "solve --one-threshold")
                policy = solve_one_threshold(bundle.scenario, bundle.cost)
            else:
                policy = solve_backward(bundle.scenario, bundle.cost)
            policy.save(args.out)
            print(f"policy written to {args.out}")
            diag = policy.diagnostics
            print(
                f"quadrature mass error {diag['quadrature_mass_error']:.4g}, "
                f"{diag['nodes']} nodes, grid size {diag['grid_size']}"
            )
            return 0
        updates = {}
        if args.preset:
            updates["preset"] = args.preset
        if args.seed is not None:
            updates["seed"] = args.seed
        if args.trials is not None:
            updates["trials"] = args.trials
        if args.out:
            updates["output"] = Path(args.out)
        bundle = bundle._replace(experiment=replace(bundle.experiment, **updates))
        _check_runnable(bundle)
        written = run_experiment(bundle)
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
