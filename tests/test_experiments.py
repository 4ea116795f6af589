"""Config handling, scenario runs, sweeps, reports, CLI exit codes, replay."""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import on_cpus
from qfluid.cli import main as cli_main
from qfluid.errors import ConfigError, QFluidError
from qfluid import ensemble, experiments, oracle
from qfluid.experiments import (
    Criterion,
    ExperimentConfig,
    OUTPUT_ROOT_ENV,
    RunManifest,
    report,
    run,
    sweep,
)
from qfluid.twofluid import TwoFluidConfig


def fast_config(**extra):
    doc = {"scenario": "twofluid-verify"}
    doc.update(extra)
    return ExperimentConfig.from_dict(doc)


class TestConfig:
    def test_missing_scenario(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"dt": 1e-3})

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scenario": "warp-drive"})

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_diffusion_default_is_hbar_over_2m(self, tmp_path):
        assert TwoFluidConfig.make(delta_t=1e-4, N_micro=16, hbar=2.0, m=4.0).D == 0.25
        assert TwoFluidConfig.make(delta_t=1e-4, N_micro=16, D=0.75, hbar=2.0).D == 0.75
        # the D the scenario ran with, as convergence.csv echoes it
        for constants, D in (({"hbar": 2.0, "m": 4.0}, 0.25), ({"D": 0.75}, 0.75)):
            run(fast_config(constants=constants), tmp_path / str(D))
            header, row = (tmp_path / str(D) / "convergence.csv").read_text().splitlines()
            assert float(row.split(",")[header.split(",").index("D")]) == D

    def test_round_trip_dict(self):
        cfg = fast_config(delta_t=5e-5, output_dir="x")
        assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_unknown_key_named_in_error(self, tmp_path):
        with pytest.raises(ConfigError, match="delta_T"):
            run(fast_config(delta_T=1e-4), tmp_path)


class TestRun:
    def test_twofluid_verify_passes_and_writes(self, tmp_path):
        manifest = run(fast_config(), tmp_path)
        assert manifest.passed
        assert manifest.metrics["rel_err_vs_gradQ"] <= 1e-3
        assert (tmp_path / "run_manifest.json").exists()
        assert (tmp_path / "convergence.csv").exists()
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert {c["name"] for c in doc["criteria"]} == {
            "rel_err_vs_gradQ", "fit_coefficient_rel_dev",
        }
        assert all(c["pass"] for c in doc["criteria"])

    def test_oracle_ground_state(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"scenario": "oracle-evolve", "kind": "harmonic-ground",
             "dt": 1e-3, "steps": 500}
        )
        manifest = run(cfg, tmp_path)
        assert manifest.passed
        assert manifest.metrics["norm_drift"] <= 1e-9

    def test_tolerance_overrides(self, tmp_path):
        cfg = fast_config(tolerances={"rel_err": 1e-9})
        manifest = run(cfg, tmp_path)
        assert not manifest.passed

    def test_replay_is_byte_identical(self, tmp_path):
        cfg = fast_config()
        run(cfg, tmp_path / "one")
        run(cfg, tmp_path / "two")
        for name in ("convergence.csv", "quantum_potential.csv",
                     "averaged_acceleration_x.csv"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
        m1 = json.loads((tmp_path / "one" / "run_manifest.json").read_text())
        m2 = json.loads((tmp_path / "two" / "run_manifest.json").read_text())
        m1.pop("wall_time_s")
        m2.pop("wall_time_s")
        assert m1 == m2

    @pytest.mark.parametrize("cell_size", [15, 30])
    def test_cell_size_not_dividing_the_grid_rejected(self, tmp_path, cell_size):
        cfg = ExperimentConfig.from_dict({"scenario": "relaxation", "cell_size": cell_size})
        with pytest.raises(ConfigError, match="do not divide 128 grid points"):
            run(cfg, tmp_path)
        assert not (tmp_path / "run_manifest.json").exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_equivariance_sample_equals_a_replay(self, tmp_path, monkeypatch):
        # the sample trajectories are recorded by the forked checkpoint
        # transports, each over its own checkpoint's timeline; a serial replay
        # of the sample with full history over one timeline of the whole run
        # must write the same trajectories.csv
        calls = []
        transport = experiments.propagate_ensemble

        def recording(ens, timeline, steps, **kwargs):
            calls.append((ens, timeline))
            return transport(ens, timeline, steps, **kwargs)

        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(experiments, "propagate_ensemble", recording)
        steps = 20
        run(ExperimentConfig.from_dict({
            "scenario": "equivariance", "n_trajectories": 4 * ensemble._BLOCK,
            "steps": steps, "checkpoints": 10, "seed": 3}), tmp_path)
        assert len(calls) == 10 and len(forks) == 10
        start, first = calls[0]
        dt = 2.0 * first.half_dt
        whole = ensemble.WaveTimeline.from_oracle(
            first.at(0.0), oracle.Potential.harmonic(start.grid, 1.0), dt, steps)
        # each checkpoint's timeline starts from the whole run's field there
        for c, (_, timeline) in enumerate(calls):
            assert np.array_equal(timeline.at(0.0).values,
                                  whole.at(c * (steps // 10) * dt).values)
        sample = ensemble.TrajectoryEnsemble(grid=start.grid, positions=start.positions[:100])
        history = transport(sample, whole, steps).ensemble.history
        rows = [[tid, j * dt, history[j, tid]] for tid in range(100)
                for j in range(0, steps + 1, max(1, steps // 32))]
        want = experiments._write_table(tmp_path / "replay.csv", ["traj_id", "t", "x"], rows)
        assert (tmp_path / "trajectories.csv").read_bytes() == want.read_bytes()

    def test_equivariance_holds_one_checkpoint_of_fields(self, tmp_path, monkeypatch):
        stored = []
        init = ensemble.WaveTimeline.__init__

        def recording(timeline, half_dt, fields, *args):
            stored.append(len(fields))
            init(timeline, half_dt, fields, *args)

        monkeypatch.setattr(ensemble.WaveTimeline, "__init__", recording)
        run(ExperimentConfig.from_dict({
            "scenario": "equivariance", "n_trajectories": 1000, "steps": 40,
            "checkpoints": 4}), tmp_path)
        assert stored == [2 * 40 // 4 + 1] * 4

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        monkeypatch.chdir(tmp_path)
        cfg = ExperimentConfig.from_dict(
            {"scenario": "twofluid-verify", "output_dir": "sub/place"}
        )
        run(cfg)
        assert (tmp_path / "sub" / "place" / "run_manifest.json").exists()

    def test_manifest_outputs_do_not_depend_on_how_the_dir_is_given(self, tmp_path,
                                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        docs = []
        for outdir in (Path("rel"), tmp_path / "abs"):
            run(fast_config(), outdir)
            doc = json.loads((outdir / "run_manifest.json").read_text())
            del doc["wall_time_s"]
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["outputs"] == sorted(
            ["convergence.csv", "quantum_potential.csv", "averaged_acceleration_x.csv"])

    def test_relaxation_bands_take_distinct_seeds(self, tmp_path, monkeypatch):
        seeds = []
        bands = experiments._bootstrap_bands

        def recording(kept, band_seeds, *args):
            seeds.extend(band_seeds)
            return bands(kept, band_seeds, *args)

        monkeypatch.setattr(experiments, "_bootstrap_bands", recording)
        run(ExperimentConfig.from_dict({"scenario": "relaxation", "n_trajectories": 200,
                                        "steps": 12, "checkpoints": 3}), tmp_path)
        assert len(seeds) == 4
        assert len(set(seeds)) == len(seeds)


class TestSweep:
    def test_needs_three_values(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(fast_config(), "delta_t", [1e-4, 5e-5], tmp_path)

    def test_twofluid_delta_t_sweep_monotone(self, tmp_path):
        result = sweep(fast_config(), "delta_t", [2e-4, 1e-4, 5e-5], tmp_path)
        assert result.metrics[0] > result.metrics[1] > result.metrics[2]
        assert (tmp_path / "sweep.csv").exists()
        assert result.fitted_order == pytest.approx(1.0, abs=0.15)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_metric_rejected(self, tmp_path, monkeypatch, bad):
        metrics = iter([1e-3, bad, 1e-4])

        def fake_run(cfg, outdir):
            return RunManifest(cfg.scenario, cfg.to_dict(),
                               {"rel_err_vs_gradQ": next(metrics)}, [], [])

        monkeypatch.setattr(experiments, "run", fake_run)
        with pytest.raises(ConfigError, match="rel_err_vs_gradQ"):
            sweep(fast_config(), "delta_t", [2e-4, 1e-4, 5e-5], tmp_path)

    @pytest.mark.parametrize("bad", [0.0, -1e-4, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_value_rejected_before_any_run(self, tmp_path, bad):
        with pytest.raises(ConfigError, match="sweep values"):
            sweep(fast_config(), "delta_t", [bad, 1e-4, 5e-5], tmp_path)
        assert not (tmp_path / "value_0").exists()

    @pytest.mark.parametrize("parameter, values, named", [
        ("delta_t", [1e-4, 1e-4, 1e-4], "delta_t 0.0001 more"),
        ("delta_t", [2e-4, 1e-4, 5e-5, 1e-4], "delta_t 0.0001 more"),
        # an integer key is compared after the cast: 20 and 20.0 are one value
        ("n_micro", [20, 40, 20.0], "n_micro 20 more"),
    ])
    def test_repeated_value_rejected_before_any_run(self, tmp_path, parameter, values,
                                                    named):
        with pytest.raises(ConfigError, match=f"sweep values must be distinct, got {named}"):
            sweep(fast_config(), parameter, values, tmp_path)
        assert not list(tmp_path.glob("value_*"))

    @pytest.mark.parametrize("scenario", ["relaxation", "measurement", "conditional-pair"])
    def test_scenario_without_sweep_metric_rejected(self, tmp_path, scenario):
        cfg = ExperimentConfig.from_dict({"scenario": scenario})
        with pytest.raises(ConfigError, match=f"scenario '{scenario}' has no sweep metric"):
            sweep(cfg, "seed", [1, 2, 3], tmp_path)
        assert not (tmp_path / "value_0").exists()


class TestReport:
    def test_aggregates_and_flags_failures(self, tmp_path):
        run(fast_config(), tmp_path / "good")
        run(fast_config(tolerances={"rel_err": 1e-9}), tmp_path / "bad")
        summary = report(tmp_path)
        assert summary.total == 2
        assert summary.passed == 1
        assert len(summary.failures) == 1
        assert not summary.ok
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.txt").read_text().endswith("FAIL\n")

    def test_all_pass(self, tmp_path):
        run(fast_config(), tmp_path / "a")
        summary = report(tmp_path)
        assert summary.ok

    def test_empty_metrics_is_integrity_failure(self, tmp_path):
        run(fast_config(), tmp_path / "a")
        doc = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
        doc["metrics"] = {}
        (tmp_path / "a" / "run_manifest.json").write_text(json.dumps(doc))
        summary = report(tmp_path)
        assert summary.integrity_errors
        assert not summary.ok

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_metric_is_integrity_failure(self, tmp_path, bad):
        run(fast_config(), tmp_path / "a")
        path = tmp_path / "a" / "run_manifest.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["rel_err_vs_gradQ"] = bad
        path.write_text(json.dumps(doc))
        summary = report(tmp_path)
        assert len(summary.integrity_errors) == 1
        assert "non-finite" in summary.integrity_errors[0]
        assert "rel_err_vs_gradQ" in summary.integrity_errors[0]
        assert not summary.ok

    def test_no_manifests_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError):
            report(tmp_path)

    @pytest.mark.parametrize("shape, problem", [
        (lambda doc: [doc], "not a JSON object"),
        (lambda doc: dict(doc, metrics=list(doc["metrics"].values())),
         "metrics block is not a JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "scenario"},
         "failed run names no scenario"),
        (lambda doc: dict(doc, criteria=[{"name": c["name"]} for c in doc["criteria"]]),
         "criterion without a name or pass flag"),
    ], ids=["list", "metrics-list", "no-scenario", "no-pass"])
    def test_malformed_manifest_is_integrity_failure(self, tmp_path, shape, problem):
        # each shape used to abort the whole report with a traceback
        run(fast_config(), tmp_path / "good")
        run(fast_config(tolerances={"rel_err": 1e-9}), tmp_path / "odd")
        path = tmp_path / "odd" / "run_manifest.json"
        path.write_text(json.dumps(shape(json.loads(path.read_text()))))
        summary = report(tmp_path)
        assert (summary.total, summary.passed, summary.failures) == (2, 1, [])
        assert summary.integrity_errors == [f"{path}: {problem}"]

    def test_unparsable_manifest_is_integrity_failure(self, tmp_path):
        run(fast_config(), tmp_path / "good")
        (tmp_path / "cut").mkdir()
        (tmp_path / "cut" / "run_manifest.json").write_text('{"metrics": {')
        summary = report(tmp_path)
        assert summary.passed == 1
        assert summary.integrity_errors == [f"{tmp_path / 'cut' / 'run_manifest.json'}: "
                                            "not valid JSON"]


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_pass_exit_zero(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, {"scenario": "twofluid-verify",
                       "output_dir": str(tmp_path / "out")}
        )
        assert cli_main(["run", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS rel_err_vs_gradQ" in out

    def test_run_fail_exit_one(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {"scenario": "twofluid-verify", "output_dir": str(tmp_path / "out"),
             "tolerances": {"rel_err": 1e-9}},
        )
        assert cli_main(["run", cfg]) == 1

    def test_bad_config_exit_two(self, tmp_path):
        cfg = self.write_config(tmp_path, {"scenario": "nope"})
        assert cli_main(["run", cfg]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "absent.json")]) == 2

    def test_config_path_that_is_a_directory_exit_two(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_output_dir_that_is_a_file_exit_two(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = self.write_config(
            tmp_path, {"scenario": "twofluid-verify", "output_dir": str(taken)}
        )
        assert cli_main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_sweep_and_report_flow(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        cfg = self.write_config(
            tmp_path, {"scenario": "twofluid-verify", "output_dir": str(out_dir)}
        )
        code = cli_main(
            ["sweep", cfg, "--param", "delta_t", "--values", "2e-4,1e-4,5e-5"]
        )
        assert code == 0
        assert "fitted order" in capsys.readouterr().out
        assert cli_main(["report", str(out_dir)]) == 0

    def test_report_stdout_is_report_txt(self, tmp_path, capsys):
        run(fast_config(), tmp_path / "good")
        run(fast_config(tolerances={"rel_err": 1e-9}), tmp_path / "bad")
        run(fast_config(), tmp_path / "broken")
        path = tmp_path / "broken" / "run_manifest.json"
        doc = json.loads(path.read_text())
        doc["metrics"] = {}
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["report", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "\nFAIL " in out and "\nINTEGRITY " in out
        assert out == (tmp_path / "report.txt").read_text()

    def assert_config_error(self, tmp_path, capsys, doc):
        doc = dict(doc, output_dir=str(tmp_path / "out"))
        assert cli_main(["run", self.write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("doc", [
        {"scenario": "measurement", "duration_pair": 1e-9},
        {"scenario": "measurement", "brute_dt": 3},
    ], ids=["under-half-a-step", "not-a-divisor"])
    def test_brute_step_that_does_not_divide_the_pair_duration_exit_two(
            self, tmp_path, capsys, doc):
        # 1e-9 used to run no brute step and fail lobe_deviation_brute with
        # exit 1; 3 exited 2 naming neither key
        err = self.assert_config_error(tmp_path, capsys, doc)
        assert "'brute_dt'" in err and "duration_pair" in err
        assert not (tmp_path / "out").exists()
        # without the brute force neither key constrains the other
        closed = run(ExperimentConfig.from_dict(dict(doc, run_brute=False)),
                     tmp_path / "closed")
        assert "lobe_deviation_brute" not in closed.metrics

    def test_zero_checkpoints_exit_two(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, {
            "scenario": "equivariance", "n_trajectories": 100, "steps": 10,
            "checkpoints": 0})

    def test_non_numeric_value_exit_two(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, {
            "scenario": "twofluid-verify", "n_micro": "sixteen"})

    def test_more_checkpoints_than_steps_exit_two(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, {
            "scenario": "relaxation", "n_trajectories": 100, "steps": 10,
            "checkpoints": 20})

    @pytest.mark.parametrize("doc", [
        {"scenario": "equivariance", "n_trajectories": 200, "steps": 20,
         "checkpoints": 2, "dt": 0.5},
        {"scenario": "twofluid-verify", "steps": 5, "seed": 3, "dt": 0.1},
    ])
    def test_key_the_scenario_never_reads_exit_two(self, tmp_path, capsys, doc):
        self.assert_config_error(tmp_path, capsys, doc)

    def test_run_brute_must_be_a_boolean_exit_two(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, {
            "scenario": "measurement", "run_brute": "false"})

    @pytest.mark.parametrize("key", ["constants", "grid", "tolerances"])
    def test_non_object_sub_config_exit_two(self, tmp_path, capsys, key):
        self.assert_config_error(tmp_path, capsys, {
            "scenario": "oracle-evolve", key: 5})

    def test_bad_values_exit_two(self, tmp_path):
        cfg = self.write_config(
            tmp_path, {"scenario": "twofluid-verify",
                       "output_dir": str(tmp_path / "o")}
        )
        assert cli_main(["sweep", cfg, "--param", "delta_t",
                         "--values", "a,b,c"]) == 2

    @pytest.mark.parametrize("doc", [
        {"scenario": "oracle-evolve", "kind": "harmonic-ground", "dt": 1e-3, "steps": 2.7},
        {"scenario": "equivariance", "n_trajectories": 200.9, "steps": 20, "checkpoints": 2},
        {"scenario": "oracle-evolve", "kind": "harmonic-ground", "dt": 1e-3, "steps": True},
    ], ids=["fractional-steps", "fractional-trajectories", "boolean-steps"])
    def test_non_integral_count_exit_two(self, tmp_path, capsys, doc):
        key = "n_trajectories" if "n_trajectories" in doc else "steps"
        err = self.assert_config_error(tmp_path, capsys, doc)
        assert f"{key!r} must be an integer" in err
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    @pytest.mark.parametrize("doc, key, minimum", [
        ({"scenario": "conditional-pair", "n_samples": 0}, "n_samples", 1),
        ({"scenario": "conditional-pair", "steps": 0}, "steps", 1),
        ({"scenario": "equivariance", "n_trajectories": 0, "steps": 10,
          "checkpoints": 1}, "n_trajectories", 1),
        ({"scenario": "relaxation", "n_trajectories": -5, "steps": 10,
          "checkpoints": 1}, "n_trajectories", 1),
        ({"scenario": "measurement", "single_mode": -1}, "single_mode", 0),
    ], ids=["zero-samples", "zero-steps", "zero-trajectories-1d",
            "negative-trajectories-2d", "negative-mode-index"])
    def test_non_positive_count_exit_two(self, tmp_path, capsys, doc, key, minimum):
        # n_samples 0 used to pass an identity check over no samples, steps 0
        # to fail on a bare division by zero, no trajectories inside the
        # histogram, and single_mode -1 ran mode 1
        err = self.assert_config_error(tmp_path, capsys, doc)
        assert f"{key!r} must be at least {minimum}" in err
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    def test_sweep_non_integral_count_exit_two_before_any_run(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        cfg = self.write_config(tmp_path, {
            "scenario": "equivariance", "n_trajectories": 100, "checkpoints": 1,
            "output_dir": str(out_dir)})
        assert cli_main(["sweep", cfg, "--param", "steps",
                         "--values", "20,30.5,40"]) == 2
        assert "'steps' must be an integer" in capsys.readouterr().err
        assert not (out_dir / "sweep" / "value_0").exists()

    def test_sweep_repeated_value_exit_two_before_any_run(self, tmp_path, capsys):
        # three identical runs used to print a fitted order and exit 0
        out_dir = tmp_path / "runs"
        cfg = self.write_config(tmp_path, {"scenario": "twofluid-verify",
                                           "output_dir": str(out_dir)})
        assert cli_main(["sweep", cfg, "--param", "delta_t",
                         "--values", "1e-4,1e-4,1e-4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "delta_t 0.0001 more than once" in err, err
        assert not list(out_dir.rglob("value_*"))

    def test_non_finite_manifest_value_exit_two(self, tmp_path, capsys, monkeypatch):
        def scenario(cfg, outdir):
            nan = float("nan")
            return ({"rel_err_vs_gradQ": nan}, [Criterion("rel_err_vs_gradQ", nan, 1e-3)],
                    [], 0)

        monkeypatch.setitem(experiments.SCHEMAS, "twofluid-verify", dataclasses.replace(
            experiments.SCHEMAS["twofluid-verify"], run=scenario))
        cfg = self.write_config(tmp_path, {"scenario": "twofluid-verify",
                                           "output_dir": str(tmp_path / "out")})
        assert cli_main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run_manifest.json: non-finite value at ")
        for key in ("metrics.rel_err_vs_gradQ", "criteria[0].value"):
            assert key in err
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    def test_out_of_memory_exit_two(self, tmp_path, capsys, monkeypatch):
        # an ensemble the machine cannot hold, without allocating one
        def scenario(cfg, outdir):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setitem(experiments.SCHEMAS, "equivariance", dataclasses.replace(
            experiments.SCHEMAS["equivariance"], run=scenario))
        cfg = self.write_config(tmp_path, {"scenario": "equivariance",
                                           "n_trajectories": 10**12, "steps": 10,
                                           "checkpoints": 1,
                                           "output_dir": str(tmp_path / "out")})
        assert cli_main(["run", cfg]) == 2
        assert capsys.readouterr().err == "error: MemoryError: Unable to allocate 7.28 TiB\n"
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    @pytest.mark.parametrize("doc, key", [
        ({"scenario": "twofluid-verify", "delta_t": -1e-4}, "delta_t"),
        ({"scenario": "twofluid-verify", "width": "1.0"}, "width"),
        ({"scenario": "twofluid-verify", "width": float("inf")}, "width"),
        ({"scenario": "oracle-evolve", "dt": -1e-3}, "dt"),
        ({"scenario": "madelung-compare", "t_end": -1}, "t_end"),
        ({"scenario": "twofluid-verify", "tolerances": {"rel_error": 1e-30}}, "rel_error"),
        ({"scenario": "twofluid-verify", "tolerances": {"rel_err": "abc"}}, "rel_err"),
        ({"scenario": "twofluid-verify", "constants": {"mass": 2}}, "mass"),
        ({"scenario": "twofluid-verify", "grid": {"pointz": 64}}, "pointz"),
        ({"scenario": "relaxation", "mode_index": [2, 3, "x"]}, "mode_index"),
        ({"scenario": "equivariance", "n_trajectories": 100, "steps": 14,
          "checkpoints": 4}, "checkpoints"),
        ({"scenario": "oracle-evolve", "t_end": 1.0, "steps": 100}, "t_end"),
        ({"scenario": "madelung-compare", "t_end": 4e-5}, "t_end"),
    ], ids=["negative-delta_t", "string-width", "infinite-width", "negative-dt",
            "negative-t_end", "unknown-tolerance", "string-tolerance",
            "unknown-constant", "unknown-grid-key", "string-mode-index",
            "checkpoints-not-dividing-steps", "t_end-and-steps", "t_end-under-a-step"])
    def test_value_the_scenario_would_run_through_exit_two(self, tmp_path, capsys,
                                                           doc, key):
        # each of these used to run to a manifest; most passed their criteria
        err = self.assert_config_error(tmp_path, capsys, doc)
        assert key in err
        assert not (tmp_path / "out").exists()

    def test_number_too_large_for_a_float_exit_two(self, tmp_path, capsys):
        # used to exit with "error: OverflowError: int too large to convert
        # to float", naming no key
        for scenario in ("twofluid-verify", "oracle-evolve"):
            err = self.assert_config_error(tmp_path, capsys, {
                "scenario": scenario, "width": 10 ** 400})
            assert "config key 'width' must be a finite number" in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, key", [
        ({"scenario": "relaxation", "grid": {"points": [128, 4]}}, "grid.points"),
        ({"scenario": "oracle-evolve", "grid": {"points": 7}}, "grid.points"),
        ({"scenario": "measurement", "y_points": 4}, "y_points"),
        ({"scenario": "measurement", "brute_points": 6}, "brute_points"),
    ])
    def test_grid_under_eight_points_per_axis_exit_two(self, tmp_path, capsys, doc, key):
        # GridSpec's own message ("need at least 8 points per axis") named
        # no key
        err = self.assert_config_error(tmp_path, capsys, doc)
        assert f"config key {key!r} must be at least 8" in err
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def no_eigensolve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an eigensolve ran before the config was checked")
        monkeypatch.setattr(experiments, "stationary_states", fail)
        monkeypatch.setattr(oracle, "stationary_states", fail)

    @pytest.mark.parametrize("doc, key", [
        ({"scenario": "equivariance", "bins": 60}, "bins"),
        # 18 bins divide 18 points, but their H cells of 4 spacings do not
        ({"scenario": "equivariance", "bins": 18, "grid": {"points": 18}}, "bins"),
        ({"scenario": "relaxation", "cell_size": 2}, "cell_size"),
        ({"scenario": "relaxation", "cell_size": 6}, "cell_size"),
        ({"scenario": "relaxation", "cell_size": 200}, "cell_size"),
        # these used to run silently as cells of 16 and 32
        ({"scenario": "relaxation", "cell_size": 15}, "cell_size"),
        ({"scenario": "relaxation", "cell_size": 30}, "cell_size"),
    ], ids=["bins-not-dividing", "h-cells-not-dividing", "cell-under-four",
            "cell-not-dividing", "cell-over-the-grid", "cell-15", "cell-30"])
    def test_bins_the_statistics_reject_exit_two_before_any_run(
            self, tmp_path, capsys, no_eigensolve, doc, key):
        # each used to fail only at the first checkpoint, after the
        # eigensolves and the transport, and writing nothing; a cell wider
        # than the grid raised ZeroDivisionError
        err = self.assert_config_error(tmp_path, capsys, doc)
        assert f"config key {key!r} ({doc[key]}): " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"scenario": "relaxation", "mode_index": [2, 3, 2]},
         "config key 'mode_index' names index 2 more than once"),
        ({"scenario": "relaxation", "mode_index": [2, 128]},
         "config key 'mode_index' ([2, 128]) names a mode past the grid's 128 points"),
        ({"scenario": "relaxation", "mode_index": [2, 40], "grid": {"points": [64, 32]}},
         "config key 'mode_index' ([2, 40]) names a mode past the grid's 32 points"),
        ({"scenario": "measurement", "single_mode": 300},
         "config key 'single_mode' (300) names a mode past the grid's 256 points"),
    ], ids=["repeated-mode", "mode-past-the-grid", "mode-past-one-axis",
            "single-mode-past-the-grid"])
    def test_mode_the_eigensolver_cannot_give_exit_two_before_any_run(
            self, tmp_path, capsys, no_eigensolve, doc, message):
        # a repeated mode used to be weighted twice, each time with its own
        # random phase; a mode past the grid failed in the eigensolver with a
        # message about its count, naming no key
        err = self.assert_config_error(tmp_path, capsys, doc)
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_hamiltonian_exit_two(self, tmp_path, capsys):
        # used to exit with "ValueError: array must not contain infs or NaNs"
        err = self.assert_config_error(tmp_path, capsys, {
            "scenario": "equivariance", "constants": {"hbar": 1e154, "m": 1e-100}})
        assert "(hbar=1e+154, m=1e-100, grid spacing h=0.046875)" in err
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    def test_sweep_bins_the_statistics_reject_exit_two_before_any_run(
            self, tmp_path, capsys, no_eigensolve):
        out_dir = tmp_path / "runs"
        cfg = self.write_config(tmp_path, {
            "scenario": "equivariance", "n_trajectories": 100, "steps": 20,
            "checkpoints": 1, "output_dir": str(out_dir)})
        assert cli_main(["sweep", cfg, "--param", "bins", "--values", "32,60,64"]) == 2
        assert "config key 'bins' (60): 60 bins do not divide 512" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_sweep_fractional_bins_exit_two_before_any_run(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        cfg = self.write_config(tmp_path, {
            "scenario": "equivariance", "n_trajectories": 100, "steps": 20,
            "checkpoints": 1, "output_dir": str(out_dir)})
        assert cli_main(["sweep", cfg, "--param", "bins",
                         "--values", "20,30.5,40"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "'bins' must be an integer" in err
        assert not (out_dir / "sweep" / "value_0").exists()


def test_conditional_pair_reports_its_capping(tmp_path):
    # x1 = 4.0 lies in psi_a's far tail: the pair and the single particle a
    # both run into the velocity cap, and the pair gap fails
    manifest = run(ExperimentConfig.from_dict(
        {"scenario": "conditional-pair", "x1": 4.0, "n_samples": 50, "steps": 100}),
        tmp_path)
    assert not manifest.passed
    assert manifest.capping_events == 2
    assert json.loads((tmp_path / "run_manifest.json").read_text())["capping_events"] == 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_conditional_pair_is_bit_identical_to_serial(monkeypatch, tmp_path):
    # a worker runs the identity check and the single particles; the capped
    # single particle a checks the counts it sends back
    cfg = ExperimentConfig.from_dict(
        {"scenario": "conditional-pair", "x1": 4.0, "n_samples": 50, "steps": 100})
    runs = []
    for cpus, want_forks in ((1, 0), (2, 1)):
        forks = on_cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        run(cfg, out)
        assert len(forks) == want_forks
        doc = json.loads((out / "run_manifest.json").read_text())
        del doc["wall_time_s"], doc["outputs"]
        runs.append((doc, (out / "pair_history.csv").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0]["capping_events"] == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_product_pair_gap_is_measured_round_the_ring(tmp_path):
    # x1 = 8.0 starts on the seam of the 16-wide ring: a pair and a single
    # particle that end on either side of it are close, not a ring apart
    manifest = run(ExperimentConfig.from_dict(
        {"scenario": "conditional-pair", "x1": 8.0, "steps": 10}), tmp_path)
    assert manifest.metrics["product_pair_gap"] <= 16.0 / 2


def test_integral_float_count_is_accepted(tmp_path):
    cfg = ExperimentConfig.from_dict({"scenario": "oracle-evolve", "kind": "harmonic-ground",
                                      "dt": 1e-3, "steps": 20.0})
    assert run(cfg, tmp_path).passed


def test_manifest_writer_names_every_non_finite_key(tmp_path):
    doc = {"values": [1.0, float("inf")], "fitted_order": float("nan"), "n": 3}
    with pytest.raises(QFluidError, match=r"sweep_manifest.json: non-finite value at "
                                          r"values\[1\], fitted_order"):
        experiments._write_json(tmp_path / "sweep_manifest.json", doc)
    assert not (tmp_path / "sweep_manifest.json").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_relaxation_is_identical_on_one_and_two_cpus(monkeypatch, tmp_path):
    # on two CPUs a producer feeds the timeline and a worker takes half the
    # bootstrap bands
    cfg = ExperimentConfig.from_dict(
        {"scenario": "relaxation", "n_trajectories": 500, "steps": 20, "checkpoints": 2})
    runs = []
    for cpus, want_forks in ((1, 0), (2, 2)):
        forks = on_cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        manifest = run(cfg, out)
        assert len(forks) == want_forks
        doc = json.loads((out / "run_manifest.json").read_text())
        del doc["wall_time_s"], doc["outputs"]
        runs.append((doc, manifest.metrics, (out / "relaxation.csv").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][2].count(b"\n") == 4
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
