import csv
import json
import math
from dataclasses import fields, replace

import pytest

from ordfuse.cli import ConfigError, ExperimentSpec, load_config, main, run_experiment
from ordfuse.defaults import default_fading
from ordfuse.dp_policy import CostMode, CostModel, PolicyTable, concavity_check, solve_backward
from ordfuse.fading_link import FadingConfig
from ordfuse.sensing_model import MeasurementModel, ScenarioConfig


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_empty_file_gives_default_bundle(self, tmp_path):
        bundle = load_config(_write(tmp_path, ""))
        assert bundle.scenario.M == 10
        assert bundle.scenario.K == 8
        assert bundle.scenario.N == 3
        assert bundle.scenario.pi0 == 0.5
        assert bundle.scenario.sigma2 == 1.0
        assert bundle.scenario.sigma2_s == (2.0,) * 10
        assert bundle.scenario.tau == 0.1
        assert bundle.scenario.tau_N == 0.2
        assert bundle.scenario.tau_s == 1.0
        assert bundle.cost.mode is CostMode.ERROR_MIN
        assert bundle.cost.c == 0.0001
        assert bundle.fading is None
        assert bundle.experiment.preset == "custom"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_malformed_ini_reports_parse_error(self, tmp_path):
        path = _write(tmp_path, "M = 10\n")  # key before any section header
        with pytest.raises(ConfigError, match="parse error"):
            load_config(path)

    def test_timing_invariant_named(self, tmp_path):
        path = _write(tmp_path, "[scenario]\nM = 20\nK = 12\n")
        with pytest.raises(ConfigError, match="tau_s - tau_N - K\\*tau"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = _write(tmp_path, "[scenario]\nbogus = 3\n")
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = _write(tmp_path, "[wat]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_bad_number_reported_with_field(self, tmp_path):
        path = _write(tmp_path, "[scenario]\npi0 = maybe\n")
        with pytest.raises(ConfigError, match="pi0"):
            load_config(path)

    def test_scalar_sigma_broadcasts(self, tmp_path):
        bundle = load_config(_write(tmp_path, "[scenario]\nM = 12\nsigma2_s = 3.5\n"))
        assert bundle.scenario.sigma2_s == (3.5,) * 12
        assert bundle.scenario.K == 8

    def test_sigma_list_length_checked(self, tmp_path):
        path = _write(tmp_path, "[scenario]\nM = 4\nsigma2_s = 1, 2, 3\n")
        with pytest.raises(ConfigError, match="sigma2_s"):
            load_config(path)

    def test_shift_in_mean_defaults(self, tmp_path):
        bundle = load_config(_write(tmp_path, "[scenario]\nmeasurement_model = shift-in-mean\n"))
        assert bundle.scenario.measurement_model is MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN
        assert bundle.scenario.mu0 == (-1.0,) * 10
        assert bundle.scenario.mu1 == (1.0,) * 10

    def test_fading_section_parsed(self, tmp_path):
        bundle = load_config(_write(tmp_path, "[fading]\nW = 40000\nbits = 20\n"))
        assert bundle.fading == replace(default_fading(), W=40000.0)

    @pytest.mark.parametrize("section,cls", [
        ("scenario", ScenarioConfig), ("cost", CostModel),
        ("fading", FadingConfig), ("experiment", ExperimentSpec),
    ])
    def test_section_keys_are_dataclass_fields(self, tmp_path, section, cls):
        # every field is a key the loader accepts; every other key it rejects,
        # among them the other sections' fields and the keys that were removed.
        # Keys are case-insensitive.
        names = {f.name.lower() for f in fields(cls)}
        others = {f.name.lower() for c in (ScenarioConfig, CostModel, FadingConfig, ExperimentSpec)
                  for f in fields(c)}
        others |= {"rng_seed", "overrides", "output_path", "symmetric", "m"}
        for key in sorted(names):
            try:
                load_config(_write(tmp_path, f"[{section}]\n{key} = x\n"))
            except ConfigError as exc:  # a bad value, never an unknown key
                assert "unknown key" not in str(exc), key
        for key in sorted(others - names):
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                load_config(_write(tmp_path, f"[{section}]\n{key} = 1\n"))

    def test_cost_section(self, tmp_path):
        text = "[cost]\nmode = weighted-throughput\nomega = 0.9\nc = 0.001\n"
        bundle = load_config(_write(tmp_path, text))
        assert bundle.cost.mode is CostMode.WEIGHTED_THROUGHPUT
        assert bundle.cost.omega == 0.9
        assert bundle.cost.c == 0.001

    def test_unknown_preset_rejected(self, tmp_path):
        path = _write(tmp_path, "[experiment]\npreset = fig-nope\n")
        with pytest.raises(ConfigError, match="preset"):
            load_config(path)

    def test_unknown_detector_rejected(self, tmp_path):
        path = _write(tmp_path, "[experiment]\ndetector = magic\n")
        with pytest.raises(ConfigError, match="detector"):
            load_config(path)


class TestRunExperiment:
    def test_custom_preset_writes_csv_and_meta(self, tmp_path):
        cfg = _write(
            tmp_path,
            f"[experiment]\npreset = custom\ntrials = 500\nseed = 4\n"
            f"output = {tmp_path / 'out'}\ndetector = bs\n",
        )
        bundle = load_config(cfg)
        written = run_experiment(bundle)
        csv_path = tmp_path / "out" / "custom.csv"
        meta_path = tmp_path / "out" / "custom.meta.json"
        assert csv_path in written and meta_path in written
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("detector,trials,seed,p_error")
        meta = json.loads(meta_path.read_text())
        assert meta["experiment"]["trials"] == 500
        assert meta["scenario"]["M"] == 10
        assert meta["cost"]["mode"] == "error-min"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write(
            tmp_path,
            f"[experiment]\npreset = custom\ntrials = 400\nseed = 11\n"
            f"output = {tmp_path / 'out'}\ndetector = block-map\n",
        )
        bundle = load_config(cfg)
        run_experiment(bundle)
        first = (tmp_path / "out" / "custom.csv").read_bytes()
        first_meta = (tmp_path / "out" / "custom.meta.json").read_bytes()
        run_experiment(bundle)
        assert (tmp_path / "out" / "custom.csv").read_bytes() == first
        assert (tmp_path / "out" / "custom.meta.json").read_bytes() == first_meta

    def test_thresholds_preset_rows(self, tmp_path):
        cfg = _write(
            tmp_path,
            f"[experiment]\npreset = fig-thresholds-vs-stage\ntrials = 1\nseed = 1\n"
            f"output = {tmp_path / 'out'}\n",
        )
        bundle = load_config(cfg)
        run_experiment(bundle)
        lines = (tmp_path / "out" / "fig-thresholds-vs-stage.csv").read_text().splitlines()
        assert lines[0] == "c,stage,pi_low,pi_high,llr_equiv_declare_busy,llr_equiv_declare_free"
        assert len(lines) == 1 + 3 * 8  # three costs, eight stages
        rows = [line.split(",") for line in lines[1:]]
        zero_cost_rows = [r for r in rows if float(r[0]) == 0.0 and int(r[1]) < 8]
        assert all(float(r[2]) == 0.0 for r in zero_cost_rows)

    @pytest.mark.parametrize("pi0, evidence", [(1.0, math.inf), (0.0, -math.inf)])
    def test_thresholds_preset_at_degenerate_prior(self, tmp_path, pi0, evidence):
        # from a certain prior no finite evidence sum reaches an interior belief
        cfg = _write(tmp_path, f"[scenario]\nM = 4\nK = 3\npi0 = {pi0}\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        argv = ["run", "--config", str(cfg), "--preset", "fig-thresholds-vs-stage",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        with open(tmp_path / "out" / "fig-thresholds-vs-stage.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 3  # three costs, three stages
        for row in rows:
            for pi, llr in ((row["pi_low"], row["llr_equiv_declare_busy"]),
                            (row["pi_high"], row["llr_equiv_declare_free"])):
                if 0.0 < float(pi) < 1.0:
                    assert float(llr) == evidence
                else:
                    assert math.isinf(float(llr))

    def test_sensing_vs_c_preset(self, tmp_path):
        cfg = _write(
            tmp_path,
            f"[experiment]\npreset = fig-sensing-vs-c\ntrials = 1500\nseed = 2\n"
            f"output = {tmp_path / 'out'}\nc_values = 0, 0.001\n",
        )
        bundle = load_config(cfg)
        run_experiment(bundle)
        lines = (tmp_path / "out" / "fig-sensing-vs-c.csv").read_text().splitlines()
        assert lines[0].startswith("c,avg_sensing_time,p_error")
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0)

    def test_sensing_vs_c_runs_loaded_scenario(self, tmp_path):
        cfg = _write(
            tmp_path,
            f"[scenario]\nM = 6\nK = 6\n[experiment]\npreset = fig-sensing-vs-c\ntrials = 500\n"
            f"seed = 2\noutput = {tmp_path / 'out'}\nc_values = 0\n",
        )
        run_experiment(load_config(cfg))
        with open(tmp_path / "out" / "fig-sensing-vs-c.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # at c = 0 the error-min policy probes all K = 6 reports
        assert float(rows[0]["c"]) == 0.0
        assert float(rows[0]["avg_sensing_time"]) == pytest.approx(0.8)

    def test_fading_probed_runs_loaded_scenario(self, tmp_path):
        def run(scenario: str, name: str) -> bytes:
            cfg = _write(
                tmp_path,
                f"{scenario}[experiment]\npreset = fig-fading-probed\ntrials = 300\nseed = 1\n"
                "m_values = 10\n",
                f"{name}.ini",
            )
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            return (tmp_path / name / "fig-fading-probed.csv").read_bytes()

        loaded = run("[scenario]\nN = 1\npi0 = 0.2\nsigma2_s = 5.0\n", "loaded")
        assert loaded != run("", "baseline")

    def test_sidecar_records_every_config_field(self, tmp_path):
        # every value differs from its default, so a key the loader drops shows
        scenario = {
            "M": 4, "N": 2, "K": 3, "tau_s": 2.0, "tau_N": 0.3, "tau": 0.2, "pi0": 0.4,
            "sigma2": 1.5, "sigma2_s": [3.0] * 4, "measurement_model": "shift-in-mean",
            "mu0": [-0.5] * 4, "mu1": [0.75] * 4,
        }
        cost = {
            "mode": "weighted-throughput", "omega": 0.3, "R_p": 2.0, "R_s": 1.5,
            "eta_p": 0.9, "eta_s": 0.8, "delta_p": 0.1, "delta_s": 0.2, "e_pt": 0.01,
            "e_st": 0.02, "P_col": 0.3, "L_f": 0.2, "L_b": 0.1, "c": 0.001,
        }
        fading = {
            "W": 40000.0, "bits": 16, "tau_b": 0.0004, "P_over_sigma": 4.0,
            "Gamma": 2.5, "gain_mean": 1.2, "T_c": 2,
        }
        experiment = {
            "preset": "fig-thresholds-vs-stage", "detector": "dp", "trials": 200, "seed": 3,
            "output": str(tmp_path / "out"), "m_values": [4, 6], "k_values": [2, 3],
            "c_values": [0.0], "omega_values": [0.25],
        }

        def section(name, values):
            lines = [f"[{name}]"]
            for key, value in values.items():
                text = ", ".join(map(str, value)) if isinstance(value, list) else value
                lines.append(f"{key} = {text}")
            return "\n".join(lines) + "\n"

        cfg = _write(tmp_path, "".join(section(name, values) for name, values in (
            ("scenario", scenario), ("cost", cost), ("fading", fading), ("experiment", experiment),
        )))
        assert main(["run", "--config", str(cfg)]) == 0
        meta = json.loads((tmp_path / "out" / "fig-thresholds-vs-stage.meta.json").read_text())
        assert set(meta) == {"ordfuse_version", "experiment", "scenario", "cost", "fading",
                             "csv_files"}
        for name, cls, expected in (
            ("scenario", ScenarioConfig, scenario),
            ("cost", CostModel, cost),
            ("fading", FadingConfig, fading),
            ("experiment", ExperimentSpec, experiment),
        ):
            assert set(meta[name]) == {f.name for f in fields(cls)}
            assert meta[name] == expected


class TestPresetSmoke:
    # each preset's exact header and the leading (axis) columns of its rows, in order
    @pytest.mark.parametrize(
        "preset,extra,header,keys",
        [
            ("fig-perror-vs-M", "m_values = 8, 10\n",
             "M,p_error_bs,p_error_dp,stderr_bs,stderr_dp,trials,seed", [["8"], ["10"]]),
            # omega is the outer loop and M the inner one
            ("fig-throughput-vs-M", "m_values = 8, 10\nomega_values = 0.5, 0.999\n",
             "M,omega,thr_primary,thr_secondary,trials,seed",
             [["8", "0.5"], ["10", "0.5"], ["8", "0.999"], ["10", "0.999"]]),
            ("fig-probed-vs-M", "m_values = 10, 8\n",
             "M,probed_bs,probed_dp_error,probed_dp_throughput,trials,seed", [["10"], ["8"]]),
            ("fig-throughput-compare", "m_values = 10\n",
             "M,ws_bs,ws_dp_error,ws_dp_throughput,trials,seed", [["10"]]),
            ("fig-probed-vs-K", "k_values = 4, 2\n",
             "K,probed_low_snr,probed_high_snr,probed_shift_in_mean,trials,seed", [["4"], ["2"]]),
            ("fig-fading-probed", "m_values = 8\n",
             "M,sensing_time_fading,sensing_time_perfect,probed_fading,probed_perfect,trials,seed",
             [["8"]]),
            ("fig-thresholds-vs-stage", "c_values = 0, 0.001\n",
             "c,stage,pi_low,pi_high,llr_equiv_declare_busy,llr_equiv_declare_free",
             [[c, str(k)] for c in ("0", "0.001") for k in range(1, 9)]),
            ("fig-sensing-vs-c", "c_values = 0.01, 0\n",
             "c,avg_sensing_time,p_error,trials,seed", [["0.01"], ["0"]]),
            ("custom", "",
             "detector,trials,seed,p_error,avg_stage,avg_sensing_time,thr_secondary,thr_primary",
             [["bs"]]),
        ],
    )
    def test_preset_csv_layout(self, tmp_path, check_digest, preset, extra, header, keys):
        cfg = _write(
            tmp_path,
            f"[experiment]\npreset = {preset}\ntrials = 300\nseed = 1\n"
            f"output = {tmp_path / 'out'}\n{extra}",
        )
        bundle = load_config(cfg)
        written = run_experiment(bundle)
        csv_path = tmp_path / "out" / f"{preset}.csv"
        assert csv_path in written
        lines = csv_path.read_text().splitlines()
        assert lines[0] == header
        rows = [line.split(",") for line in lines[1:]]
        assert [row[:len(keys[0])] for row in rows] == keys
        assert all(len(row) == len(header.split(",")) for row in rows)
        check_digest(f"csv/{preset}", csv_path.read_bytes())


class TestSlotDraws:
    @pytest.mark.parametrize(
        "preset,extra",
        [
            # three columns, one draw per M
            ("fig-probed-vs-M", "m_values = 8, 10\n"),
            # one column; each c value draws its own slots
            ("fig-sensing-vs-c", "c_values = 0, 0.01\n"),
        ],
    )
    def test_one_chunk_stream_per_axis_value(self, tmp_path, monkeypatch, preset, extra):
        import ordfuse.fusion_sim as fusion_sim

        drawn = []
        draw = fusion_sim.draw_slots

        def counting_draw(config, rng, n_slots):
            drawn.append((config.M, n_slots))
            return draw(config, rng, n_slots)

        monkeypatch.setattr(fusion_sim, "draw_slots", counting_draw)
        cfg = _write(
            tmp_path,
            f"[experiment]\npreset = {preset}\ntrials = 300\nseed = 1\n"
            f"output = {tmp_path / 'out'}\n{extra}",
        )
        run_experiment(load_config(cfg))
        expected = [(8, 300), (10, 300)] if preset == "fig-probed-vs-M" else [(10, 300)] * 2
        assert drawn == expected


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[scenario]\nM = 12\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[scenario]\npi0 = 2.0\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "pi0" in capsys.readouterr().err

    @pytest.mark.parametrize("detector", ["bs", "block-map"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_band_detector_needs_identical_sensors_exit_2(
        self, tmp_path, capsys, command, detector
    ):
        cfg = _write(
            tmp_path,
            f"[scenario]\nM = 4\nsigma2_s = 1, 2, 3, 4\n[experiment]\ndetector = {detector}\n",
        )
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--trials", "10", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "identical sensors" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_custom_default_detector_needs_identical_sensors_exit_2(
        self, tmp_path, capsys, command
    ):
        # with no detector key the custom preset runs bs
        cfg = _write(tmp_path, "[scenario]\nM = 4\nsigma2_s = 1, 2, 3, 4\n")
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--trials", "10", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "detector 'bs' requires identical sensors" in capsys.readouterr().err

    def test_preset_override_to_custom_checked(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "[scenario]\nM = 4\nsigma2_s = 1, 2, 3, 4\n[experiment]\npreset = fig-thresholds-vs-stage\n",
        )
        assert main(["validate", "--config", str(cfg)]) == 0
        argv = ["run", "--config", str(cfg), "--preset", "custom", "--trials", "10",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "requires identical sensors" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "preset",
        ["fig-perror-vs-M", "fig-throughput-vs-M", "fig-probed-vs-M", "fig-throughput-compare",
         "fig-fading-probed"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_m_sweep_needs_identical_sensors_exit_2(self, tmp_path, capsys, command, preset):
        cfg = _write(
            tmp_path,
            f"[scenario]\nM = 4\nsigma2_s = 1, 2, 3, 4\n[experiment]\npreset = {preset}\ntrials = 10\n",
        )
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert "identical sensors" in capsys.readouterr().err
        assert not out.exists()

    def test_probed_vs_k_ignores_loaded_k_and_timing(self, tmp_path):
        # fig-probed-vs-K runs M=100 scenarios of its own and sets K on each,
        # so a loaded K that the default timing cannot fit must not reach them
        experiment = "[experiment]\npreset = fig-probed-vs-K\nk_values = 4\ntrials = 300\nseed = 1\n"
        cfg = _write(tmp_path, "[scenario]\nM = 12\nK = 12\ntau = 0.05\n" + experiment)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "loaded")]) == 0
        baseline = _write(tmp_path, experiment, "baseline.ini")
        assert main(["run", "--config", str(baseline), "--out", str(tmp_path / "baseline")]) == 0
        csv_name = "fig-probed-vs-K.csv"
        assert (tmp_path / "loaded" / csv_name).read_bytes() == (tmp_path / "baseline" / csv_name).read_bytes()

    def test_non_identical_config_solves_and_runs_other_presets(self, tmp_path):
        cfg = _write(tmp_path, "[scenario]\nM = 4\nsigma2_s = 1, 2, 3, 4\n")
        out = tmp_path / "policy.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        argv = ["run", "--config", str(cfg), "--preset", "fig-thresholds-vs-stage",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert (tmp_path / "out" / "fig-thresholds-vs-stage.csv").exists()

    @pytest.mark.parametrize(
        "entry",
        ["c_values = 0.0, -1", "m_values = 4, 0", "seed = -3", "c_values = abc", "output ="],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_experiment_value_exit_2(self, tmp_path, capsys, command, entry):
        preset = "fig-sensing-vs-c" if entry.startswith("c_") else "fig-perror-vs-M"
        cfg = _write(tmp_path, f"[experiment]\npreset = {preset}\ntrials = 10\n{entry}\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert entry.split()[0] in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_override_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[experiment]\ntrials = 10\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--seed", "-3", "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_one_threshold_needs_pure_throughput_cost_exit_2(self, tmp_path, capsys, command):
        # the default cost is error-min with c = 0.0001, which the one-threshold solve rejects
        cfg = _write(tmp_path, "[experiment]\ndetector = one-threshold\ntrials = 10\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert "detector 'one-threshold' requires" in capsys.readouterr().err
        assert not out.exists()

    def test_one_threshold_with_pure_throughput_cost_validates(self, tmp_path):
        cfg = _write(
            tmp_path,
            "[cost]\nmode = weighted-throughput\nc = 0\n[experiment]\ndetector = one-threshold\n",
        )
        assert main(["validate", "--config", str(cfg)]) == 0

    def test_dp_on_non_identical_sensors_validates(self, tmp_path):
        cfg = _write(tmp_path, "[scenario]\nM = 4\nsigma2_s = 1, 2, 3, 4\n[experiment]\ndetector = dp\n")
        assert main(["validate", "--config", str(cfg)]) == 0

    def test_dp_on_non_identical_one_sample_sensors_runs(self, tmp_path):
        # at N = 1 every law's density is unbounded at its support start,
        # which the solve's quadrature must still integrate
        cfg = _write(
            tmp_path,
            "[scenario]\nM = 6\nK = 4\nN = 1\nsigma2_s = 1.0, 1.5, 2.0, 2.5, 3.0, 3.5\n"
            "[experiment]\ndetector = dp\ntrials = 2000\n",
        )
        assert main(["validate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--preset", "custom", "--out", str(out)]) == 0
        with open(out / "custom.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["detector"] == "dp"
        values = [float(v) for key, v in rows[0].items() if key != "detector"]
        assert all(math.isfinite(v) for v in values)

    def test_dp_on_far_apart_one_sample_sensors_runs(self, tmp_path):
        # the strong law's H0 mass above its +shift lies within a few units
        # of it, inside the first panel of a tail piece over 1,600 units wide
        cfg = _write(
            tmp_path,
            "[scenario]\nM = 2\nK = 2\nN = 1\nsigma2_s = 0.001, 10000\n"
            "[experiment]\ndetector = dp\ntrials = 300\n",
        )
        assert main(["validate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--preset", "custom", "--out", str(out)]) == 0
        with open(out / "custom.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert all(math.isfinite(float(v)) for key, v in rows[0].items() if key != "detector")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_removed_detector_kind_exit_2(self, tmp_path, capsys, command):
        # the generalized band detector made the same decisions as bs and is gone
        cfg = _write(tmp_path, "[experiment]\ndetector = bs-generalized\n")
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--trials", "10", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "detector must be one of" in capsys.readouterr().err

    def test_solve_writes_policy(self, tmp_path):
        cfg = _write(tmp_path, "[cost]\nmode = weighted-throughput\n")
        out = tmp_path / "policy.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        policy = PolicyTable.load(out)
        bundle = load_config(cfg)
        assert policy.scenario == bundle.scenario
        assert policy.kind == "two-threshold"
        # what the benchmark worker checks of every policy it writes: the
        # file loads and its values are concave
        assert concavity_check(policy)
        solved = solve_backward(bundle.scenario, bundle.cost)
        for name in ("grid", "values", "actions", "pi_low", "pi_high"):
            assert getattr(policy, name).tobytes() == getattr(solved, name).tobytes(), name

    def test_solve_prints_diagnostics(self, tmp_path, capsys):
        cfg = _write(tmp_path, "")
        out = tmp_path / "policy.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        diag = PolicyTable.load(out).diagnostics
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == (
            f"quadrature mass error {diag['quadrature_mass_error']:.4g}, "
            f"{diag['nodes']} nodes, grid size {diag['grid_size']}"
        )
        assert diag["nodes"] == 1600
        assert diag["grid_size"] == 1001

    def test_solve_one_threshold_flag(self, tmp_path):
        cfg = _write(tmp_path, "[cost]\nmode = weighted-throughput\nc = 0\n")
        out = tmp_path / "policy.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--one-threshold"]) == 0
        assert PolicyTable.load(out).kind == "one-threshold"

    def test_solve_incompatible_cost_exit_2(self, tmp_path, capsys):
        # the cost rule of the one-threshold solve is checked before solving
        cfg = _write(tmp_path, "[cost]\nmode = weighted-throughput\nc = 0.1\n")
        out = tmp_path / "policy.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--one-threshold"]) == 2
        assert "one-threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_run_with_overrides(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[experiment]\npreset = custom\ndetector = bs\n")
        out_dir = tmp_path / "results"
        code = main([
            "run", "--config", str(cfg), "--trials", "300", "--seed", "9",
            "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "custom.csv").exists()
        meta = json.loads((out_dir / "custom.meta.json").read_text())
        assert meta["experiment"]["trials"] == 300
        assert meta["experiment"]["seed"] == 9

    def test_sidecar_records_flags_over_config(self, tmp_path):
        cfg = _write(tmp_path, "[experiment]\nseed = 7\ntrials = 2000\n")
        out_dir = tmp_path / "results"
        argv = ["run", "--config", str(cfg), "--seed", "9", "--trials", "300", "--out", str(out_dir)]
        assert main(argv) == 0
        meta = json.loads((out_dir / "custom.meta.json").read_text())
        assert meta["experiment"]["seed"] == 9
        assert meta["experiment"]["trials"] == 300
        assert meta["experiment"]["output"] == str(out_dir)

        def leaves(node):
            if isinstance(node, dict):
                for value in node.values():
                    yield from leaves(value)
            elif isinstance(node, list):
                for value in node:
                    yield from leaves(value)
            else:
                yield node

        # the config's seed and trial count were overridden, so neither is recorded
        assert not {7, 2000, "7", "2000"} & set(leaves(meta))

    def test_fading_section_applies_at_every_m(self, tmp_path):
        # a 100 kbit report never fits the transmit window: no sensor ever
        # reports, whatever the sensor count
        cfg = _write(
            tmp_path,
            "[fading]\nbits = 100000\n[experiment]\npreset = fig-fading-probed\n"
            "trials = 200\nseed = 1\nm_values = 8, 10, 12\n",
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        with open(out_dir / "fig-fading-probed.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["M"] for row in rows] == ["8", "10", "12"]
        assert all(float(row["probed_fading"]) == 0.0 for row in rows)

    @pytest.mark.parametrize(
        "text",
        ["[scenario]\nrng_seed = 42\n", "[fading]\nP_over_sigma = " + ", ".join(["5.0"] * 10) + "\n"],
        ids=["rng_seed", "per-sensor-link"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_removed_knob_exit_2(self, tmp_path, capsys, command, text):
        cfg = _write(tmp_path, text + "[experiment]\ntrials = 10\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    # each value passed validation, or failed for another reason, before the
    # scenario and link dataclasses checked finiteness, timing and the SNR
    @pytest.mark.parametrize("text,rule", [
        pytest.param("[scenario]\nsigma2 = nan\n", "[scenario] every value must be finite",
                     id="sigma2-nan"),
        pytest.param("[scenario]\nsigma2_s = nan\n", "[scenario] every value must be finite",
                     id="sigma2_s-nan"),
        pytest.param("[scenario]\nmeasurement_model = shift-in-mean\nmu1 = nan\n",
                     "[scenario] every value must be finite", id="mu1-nan"),
        pytest.param("[scenario]\nsigma2 = inf\n", "[scenario] every value must be finite",
                     id="sigma2-inf"),
        pytest.param("[scenario]\nsigma2_s = inf\n", "[scenario] every value must be finite",
                     id="sigma2_s-inf-bs"),
        pytest.param("[scenario]\nsigma2_s = inf\n[experiment]\ndetector = dp\n",
                     "[scenario] every value must be finite", id="sigma2_s-inf-dp"),
        pytest.param("[scenario]\nsigma2_s = 1e-320\n", "1 + SNR > 1", id="sigma2_s-subnormal"),
        pytest.param("[scenario]\ntau = nan\n", "[scenario] every value must be finite",
                     id="tau-nan"),
        pytest.param("[scenario]\ntau_s = 0\ntau_N = 0\ntau = 0\n", "tau_s > 0", id="tau_s-zero"),
        pytest.param("[scenario]\ntau_N = -1\n", "tau_N >= 0", id="tau_N-negative"),
        pytest.param("[fading]\nW = nan\n", "[fading] every value must be finite", id="W-nan"),
        pytest.param("[fading]\nP_over_sigma = nan\n", "[fading] every value must be finite",
                     id="P_over_sigma-nan"),
        pytest.param("[fading]\ngain_mean = inf\n", "[fading] every value must be finite",
                     id="gain_mean-inf"),
    ])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_finite_or_impossible_value_exit_2(self, tmp_path, capsys, command, text, rule):
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--preset", "custom", "--trials", "200", "--out", str(out)]
        assert main(argv) == 2
        assert rule in capsys.readouterr().err
        assert not out.exists()
