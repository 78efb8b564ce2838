import json
import logging
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from frameflow import ConfigError, DomainExitError, chart_by_name, perturbed_geodesic
from frameflow.cli import _write_csv, build_parser, main, parse_config, read_config_file
from frameflow.homogenize import log_engine_calls
from frameflow.perturbed_geodesic import simulate_rescaled_path


class TestParseConfig:
    def test_flag_defaults_match_documentation(self):
        cfg = parse_config(flags={"manifold": "euclidean:2", "epsilon": 0.05,
                                  "t_final": 1.0, "seed": 7}, env={})
        assert cfg.h0 == 0.1
        assert cfg.e0 == "e1"
        assert cfg.abar == "0"
        sim = cfg.sim_config()
        assert len(sim.resolved_output_times()) == 21
        np.testing.assert_array_equal(sim.e0, [1.0, 0.0])
        assert sim.abar is None
        assert sim.seed == 7

    def test_zero_epsilon_rejected_with_reason(self):
        with pytest.raises(ConfigError, match="epsilon must be positive"):
            parse_config(flags={"epsilon": 0.0}, env={})

    def test_file_then_flag_precedence(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("epsilon = 0.1\nseed = 3\n")
        cfg = parse_config(file=str(f), flags={"epsilon": 0.05}, env={})
        assert cfg.epsilon == 0.05   # flag wins
        assert cfg.seed == 3         # file survives

    def test_env_seed_lowest_priority(self, tmp_path):
        cfg = parse_config(flags={}, env={"FRAMEFLOW_SEED": "99"})
        assert cfg.seed == 99
        f = tmp_path / "run.cfg"
        f.write_text("seed=5\n")
        cfg = parse_config(file=str(f), flags={}, env={"FRAMEFLOW_SEED": "99"})
        assert cfg.seed == 5

    def test_unknown_file_key_named_in_error(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("epsilonn = 0.1\n")
        with pytest.raises(ConfigError, match="epsilonn"):
            parse_config(file=str(f), flags={}, env={})

    def test_config_file_comments_and_spacing(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# a comment\nmanifold = hyperbolic2  # trailing\n\nepsilon=0.02\n")
        values = read_config_file(f)
        assert values == {"manifold": "hyperbolic2", "epsilon": "0.02"}

    def test_missing_file_reported(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(file="/nonexistent/run.cfg", flags={}, env={})

    def test_e0_and_abar_materialization(self):
        cfg = parse_config(flags={"manifold": "euclidean:3", "e0": "e2",
                                  "abar": "canonical:1"}, env={})
        sim = cfg.sim_config()
        np.testing.assert_array_equal(sim.e0, [0.0, 1.0, 0.0])
        assert sim.abar is not None and sim.abar.shape == (3, 3)
        np.testing.assert_allclose(sim.abar, -sim.abar.T, atol=1e-15)

    def test_bad_e0_rejected(self):
        cfg = parse_config(flags={"manifold": "euclidean:2", "e0": "1,1"}, env={})
        with pytest.raises(ConfigError, match="unit vector"):
            cfg.sim_config()

    def test_decreasing_epsilon_list_enforced(self):
        with pytest.raises(ConfigError, match="decreasing"):
            parse_config(flags={"epsilon_list": "0.05,0.1"}, env={})

    def test_h0_ceiling(self):
        with pytest.raises(ConfigError, match="h0"):
            parse_config(flags={"h0": 0.5}, env={})


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_config_error_exits_2(self, capsys):
        rc = main(["simulate", "--epsilon", "0"])
        assert rc == 2
        assert "epsilon must be positive" in capsys.readouterr().err

    def test_numerical_abort_exits_3(self, tmp_path, capsys):
        rc = main(["homogenize", "--manifold", "strip-test", "--epsilon", "0.2",
                   "--t-final", "1", "--paths", "100", "--jobs", "1",
                   "--output-dir", str(tmp_path)])
        assert rc == 3


class TestVerifyAlgebra:
    def test_exit_zero_and_defect_lines(self, capsys):
        rc = main(["verify-algebra", "--dim", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gram defect" in out and "casimir defect" in out
        assert "PASS" in out


class TestHaarCommand:
    def test_csv_schema_and_exit(self, tmp_path, capsys):
        rc = main(["haar", "--dim", "2", "--samples", "5000", "--seed", "1",
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "haar.csv").read_text().splitlines()
        assert lines[0] == "i,j,estimate,stderr"
        assert len(lines) == 1 + 4  # 2x2 moment matrix
        assert lines[1].startswith("0,0,")  # zero-based integer indices


class TestErgodicCommand:
    def test_csv_schema_and_exit(self, tmp_path):
        rc = main(["ergodic", "--dim", "2", "--t-final", "200", "--reps", "8",
                   "--seed", "4", "--output-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "ergodic.csv").read_text().splitlines()
        assert lines[0] == "i,j,estimate,stderr"
        assert len(lines) == 1 + 4
        assert lines[1].startswith("0,0,")  # zero-based integer indices

    def test_prints_the_snapped_horizon(self, tmp_path, capsys):
        # 0.26 is averaged over rint(0.26 / h0) = 3 steps of 0.1.
        main(["ergodic", "--dim", "2", "--t-final", "0.26", "--reps", "4",
              "--seed", "4", "--output-dir", str(tmp_path)])
        assert capsys.readouterr().out.rstrip().endswith("at t=0.3")

    def test_haar_starts_leave_no_start_bias(self, tmp_path):
        # Reps started at g = I put the pooled (0, 0) moment 9.1 stderr
        # above 1/3 at this seed and horizon; Haar starts remove that bias.
        main(["ergodic", "--dim", "3", "--t-final", "100", "--reps", "3200",
              "--seed", "1", "--output-dir", str(tmp_path)])
        rows = [line.split(",") for line in
                (tmp_path / "ergodic.csv").read_text().splitlines()[1:]]
        z = [(float(est) - 1.0 / 3.0) / float(se) for i, j, est, se in rows if i == j]
        assert len(z) == 3 and max(map(abs, z)) < 4.0

    def test_csv_does_not_depend_on_the_batches(self, tmp_path, monkeypatch):
        argv = ["ergodic", "--dim", "3", "--t-final", "20", "--reps", "9", "--seed", "2",
                "--abar", "canonical:2"]
        assert main(argv + ["--output-dir", str(tmp_path / "one")]) == 0
        calls = []
        reader = perturbed_geodesic.direction_moments

        def counting(cfg, path_indices):
            calls.append(len(path_indices))
            return reader(cfg, path_indices)

        monkeypatch.setattr(perturbed_geodesic, "direction_moments", counting)
        monkeypatch.setattr(perturbed_geodesic, "BATCH_BYTES", 40_000)
        assert main(argv + ["--output-dir", str(tmp_path / "split")]) == 0
        assert len(calls) > 2 and sum(calls) == 9
        assert ((tmp_path / "split" / "ergodic.csv").read_bytes()
                == (tmp_path / "one" / "ergodic.csv").read_bytes())


class TestSimulateCommand:
    def test_writes_path_files_with_schema(self, tmp_path):
        rc = main(["simulate", "--manifold", "euclidean:2", "--epsilon", "0.05",
                   "--t-final", "1", "--seed", "7", "--paths", "2",
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        files = sorted(tmp_path.glob("path_*.csv"))
        assert [f.name for f in files] == ["path_0000.csv", "path_0001.csv"]
        lines = files[0].read_text().splitlines()
        assert lines[0] == "t,x1,x2"
        assert len(lines) == 1 + 21

    def test_frame_and_group_columns_optional(self, tmp_path):
        rc = main(["simulate", "--manifold", "euclidean:2", "--epsilon", "0.05",
                   "--t-final", "0.5", "--seed", "7", "--frames", "--group",
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        header = (tmp_path / "path_0000.csv").read_text().splitlines()[0]
        assert header == ("t,x1,x2,u11,u12,u21,u22,g11,g12,g21,g22")

    def test_path_file_is_written_a_block_of_rows_at_a_time(self, tmp_path):
        # 20,001 rows of 11 numbers (1.76 MB of records) peak at 0.36 MB of
        # tracemalloc; formatted whole before being written, they peaked at
        # 14.1 MB.
        table = np.random.default_rng(1).standard_normal((20001, 11))
        header = ["t"] + [f"c{i}" for i in range(10)]
        path = tmp_path / "path_0000.csv"
        tracemalloc.start()
        try:
            _write_csv(path, header, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 20001
        assert [lines[k] for k in (0, 512, 513, 20001)] == [",".join(header)] + [
            ",".join(map(repr, table[k].tolist())) for k in (511, 512, 20000)]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--manifold", "hyperbolic2", "--epsilon", "0.1",
                "--t-final", "0.5", "--seed", "13", "--frames"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output-dir", str(d1)]) == 0
        assert main(args + ["--output-dir", str(d2)]) == 0
        assert (d1 / "path_0000.csv").read_bytes() == (d2 / "path_0000.csv").read_bytes()

    def test_exponent_output_time_is_a_time_not_a_count(self, tmp_path):
        # "1e-3" has neither "," nor ".", and was parsed as a count (exit 2).
        args = ["simulate", "--t-final", "0.01", "--seed", "3", "--paths", "2"]
        for times in ("1e-3", "0.001"):
            assert main(args + ["--output-times", times, "--output-dir", str(tmp_path / times)]) == 0
        files = written_files(tmp_path / "1e-3")
        assert len(files) == 2 and files == written_files(tmp_path / "0.001")
        assert next(iter(files.values())).decode().splitlines()[1].startswith("0.001")


def _sim_config(argv):
    """The SimConfig that ``main(argv)`` runs."""
    args = build_parser().parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    return parse_config(flags=flags, env={}).sim_config(), args


def per_path_files(argv, paths):
    """Path files made one engine call per path, each value written as repr(float(v))."""
    sim, args = _sim_config(argv)
    n = chart_by_name(sim.chart).dim
    header = ["t"] + [f"x{i+1}" for i in range(n)]
    header += [f"u{i+1}{j+1}" for i in range(n) for j in range(n)] if args.with_frames else []
    header += [f"g{i+1}{j+1}" for i in range(n) for j in range(n)] if args.with_group else []
    files = {}
    for p in paths:
        rec = simulate_rescaled_path(sim, path_index=p, record_group=bool(args.with_group))
        lines = [",".join(header)]
        for k, t in enumerate(rec.times):
            row = [t, *rec.xs[k]]
            if args.with_frames:
                row += list(rec.us[k].reshape(-1))
            if args.with_group:
                row += list(rec.gs[k].reshape(-1))
            lines.append(",".join(repr(float(v)) for v in row))
        files[f"path_{p:04d}.csv"] = ("\n".join(lines) + "\n").encode()
    return files


def written_files(out_dir):
    return {f.name: f.read_bytes() for f in sorted(out_dir.glob("path_*.csv"))}


BATCHED_RUNS = {
    "hyperbolic2-frames-group": ["simulate", "--manifold", "hyperbolic2", "--epsilon", "0.1",
                                 "--t-final", "0.3", "--seed", "9", "--paths", "3", "--frames",
                                 "--group", "--output-times", "301"],
    "euclidean3": ["simulate", "--manifold", "euclidean:3", "--epsilon", "0.1",
                   "--t-final", "1", "--seed", "4", "--paths", "3"],
}


class TestBatchedSimulate:
    @pytest.mark.parametrize("run", sorted(BATCHED_RUNS))
    def test_files_equal_one_engine_call_per_path(self, run, tmp_path, engine_calls):
        argv = BATCHED_RUNS[run]
        assert main(argv + ["--output-dir", str(tmp_path)]) == 0
        assert engine_calls == [3]
        assert written_files(tmp_path) == per_path_files(argv, range(3))

    def test_small_budget_splits_the_run_and_keeps_the_bytes(self, tmp_path, monkeypatch,
                                                             engine_calls, capsys):
        argv = BATCHED_RUNS["hyperbolic2-frames-group"]
        assert main(argv + ["--output-dir", str(tmp_path / "one")]) == 0
        # A path holds 301 output rows of x, u and g (10 values), one noise
        # row of 128 steps of 2 normals, 2 rows of 129 for the chunk
        # directions, the matrix chain's 2 x 2 g and its 16 steps of 2
        # turns (complex) and their tangents, and the half-plane stage's
        # 2 x 2 F and 16 steps of 3 step-matrix entries, 8 bytes each, and
        # its Philox stream.
        two_paths = 2 * (8 * (301 * 10 + 128 * 2 + 2 * 129 + 4 + 16 * 2 * 3 + 4 + 16 * 3)
                         + perturbed_geodesic.STREAM_BYTES)
        monkeypatch.setattr(perturbed_geodesic, "BATCH_BYTES", two_paths)
        assert main(argv + ["-v", "--output-dir", str(tmp_path / "split")]) == 0
        assert engine_calls == [3, 2, 1]
        assert written_files(tmp_path / "split") == written_files(tmp_path / "one")
        err = capsys.readouterr().err.splitlines()
        [line] = [x for x in err if x.startswith("frameflow: simulate:")]
        assert "3 path(s) in 2 engine call(s)" in line and "path-steps/s" in line

    def test_abort_writes_the_earlier_paths_then_exits_3(self, tmp_path, capsys, engine_calls):
        # Seed 78: path 0 stays on the strip, path 1 leaves it at t = 0.072,
        # and path 2 leaves it earlier, at t = 0.064, in the same batch.
        argv = ["simulate", "--manifold", "strip-test", "--epsilon", "0.2", "--t-final", "0.3",
                "--seed", "78", "--paths", "4"]
        assert main(argv + ["--output-dir", str(tmp_path)]) == 3
        assert engine_calls == [4]
        assert written_files(tmp_path) == per_path_files(argv, [0])
        with pytest.raises(DomainExitError) as one_path:
            simulate_rescaled_path(_sim_config(argv)[0], path_index=1)
        assert one_path.value.t == pytest.approx(0.072)
        assert capsys.readouterr().err == f"numerical abort: {one_path.value}\n"


class TestHomogenizeCommand:
    def test_outputs_and_exit(self, tmp_path):
        rc = main(["homogenize", "--manifold", "euclidean:2", "--epsilon", "0.02",
                   "--t-final", "1", "--paths", "300", "--seed", "42",
                   "--jobs", "1", "--output-dir", str(tmp_path)])
        assert rc == 0
        for name in ("msd.csv", "ks.csv", "summary.json"):
            assert (tmp_path / name).exists()
        msd_lines = (tmp_path / "msd.csv").read_text().splitlines()
        assert msd_lines[0] == "t,msd,stderr,oracle_msd"
        assert len(msd_lines) == 1 + 21
        ks_lines = (tmp_path / "ks.csv").read_text().splitlines()
        assert ks_lines[0] == "t,statistic,p"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["pass"] is True
        assert summary["criteria"]["msd_slope"]["pass"] is True

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_marginal_ks_centred_on_finite_epsilon_mean(self, seed, tmp_path):
        # The mean along e0 is 4 eps / (n - 1) = 0.2 here, not 0; centred on
        # x0 the marginal KS failed these seeds.
        rc = main(["homogenize", "--manifold", "euclidean:2", "--epsilon", "0.05",
                   "--paths", "2000", "--jobs", "1", "--seed", str(seed),
                   "--output-dir", str(tmp_path)])
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["criteria"]["marginal_normal_ks"]["pass"] is True
        assert rc == 0
        # The criterion is the last ks.csv row, not a second test.
        crit = summary["criteria"]["marginal_normal_ks"]
        last = (tmp_path / "ks.csv").read_text().splitlines()[-1].split(",")
        # t is the step-grid time of T = 1: 4000 steps of h0 eps^2.
        t_grid = 4000 * (0.1 * 0.05**2)
        assert [float(v) for v in last] == [t_grid, crit["statistic"], crit["p_value"]]

    @pytest.mark.parametrize("times", ["2", "0.5"])
    def test_slope_needs_two_positive_output_times(self, times, tmp_path, capsys, engine_calls):
        # A fit through one point read slope 3.88 against 8 (msd/T was 7.76)
        # with R^2 = 1, and exited 1.
        rc = main(["homogenize", "--manifold", "euclidean:2", "--epsilon", "0.05",
                   "--paths", "2000", "--jobs", "1", "--seed", "1", "--output-times", times,
                   "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "two distinct positive output times" in capsys.readouterr().err
        assert engine_calls == [] and not (tmp_path / "summary.json").exists()

    def test_two_positive_output_times_run(self, tmp_path):
        rc = main(["homogenize", "--manifold", "euclidean:2", "--epsilon", "0.05",
                   "--paths", "2000", "--jobs", "1", "--seed", "1", "--output-times", "0.5,1",
                   "--output-dir", str(tmp_path)])
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert rc == 0 and summary["criteria"]["msd_slope"]["pass"] is True
        assert len((tmp_path / "msd.csv").read_text().splitlines()) == 1 + 2

    def test_config_file_driven_run(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        out_dir = tmp_path / "out"
        cfg_file.write_text(
            "manifold = euclidean:2\nepsilon = 0.05\nt_final = 1\n"
            f"paths = 150\nseed = 11\noutput_dir = {out_dir}\n"
        )
        rc = main(["homogenize", "--config", str(cfg_file), "--jobs", "1"])
        assert rc in (0, 1)  # statistics criteria may bind at this cheap scale
        assert (out_dir / "summary.json").exists()


class TestVerbosePhases:
    RUNS = {
        "simulate": (["simulate", "--manifold", "hyperbolic2", "--epsilon", "0.1",
                      "--t-final", "0.1", "--paths", "2"],
                     ["set-up", "simulate", "write"], ["2 path(s) in 1 engine call(s)"]),
        "homogenize": (["homogenize", "--manifold", "euclidean:2", "--epsilon", "0.1",
                        "--t-final", "0.5", "--paths", "150", "--jobs", "1"],
                       ["simulate", "KS reduction", "write"], ["150 path(s) in 1 engine call(s)"]),
        "homogenize-jobs": (["homogenize", "--manifold", "euclidean:2", "--epsilon", "0.1",
                             "--t-final", "0.5", "--paths", "150", "--jobs", "2"],
                            ["simulate", "KS reduction", "write"],
                            ["150 path(s) in 2 engine call(s)"]),
        "sweep": (["sweep", "--manifold", "hyperbolic2", "--epsilon-list", "0.2,0.1",
                   "--t-final", "0.2", "--paths", "150", "--jobs", "1"],
                  ["simulate", "KS reduction", "simulate", "KS reduction", "write"],
                  ["150 path(s) in 1 engine call(s)"] * 2),
    }

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_one_stderr_line_per_phase_only_under_v(self, command, tmp_path, capsys):
        argv, phases, counts = self.RUNS[command]
        assert main(argv + ["--output-dir", str(tmp_path / "quiet")]) in (0, 1)
        assert capsys.readouterr().err == ""
        assert main(argv + ["-v", "--output-dir", str(tmp_path / "verbose")]) in (0, 1)
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[1].strip() for line in lines] == phases
        assert all(line.startswith("frameflow: ") and line.endswith(" s") for line in lines)
        # Every simulate line gives its engine calls and throughput, in one form.
        simulated = [line for line in lines if line.startswith("frameflow: simulate: ")]
        assert [line.split(": ")[2].split(",")[0] for line in simulated] == counts
        assert all(re.search(r", \d+ path-steps/s, \d+\.\d{3} s$", line) for line in simulated)
        # and the engine's seconds in each stage.
        assert all(re.search(r", draw \d+\.\d{3} s, chain \d+\.\d{3} s, frame \d+\.\d{3} s, "
                             r"record \d+\.\d{3} s, ", line) for line in simulated)


    def test_throughput_is_per_engine_second_in_every_command(self, caplog):
        # 10 paths of 200 steps, 2 s in the engine's stages over two calls,
        # in a phase of 5 s: 1,000 path-steps/s whatever else the phase did.
        stage_s = [{"draw": 0.5, "chain": 0.25, "frame": 0.125, "record": 0.125}] * 2
        with caplog.at_level(logging.INFO, logger="frameflow"):
            total = log_engine_calls(stage_s, 10, 200, 5.0)
        assert total == {"draw": 1.0, "chain": 0.5, "frame": 0.25, "record": 0.25}
        assert caplog.messages == ["simulate: 10 path(s) in 2 engine call(s), draw 1.000 s, "
                                   "chain 0.500 s, frame 0.250 s, record 0.250 s, "
                                   "1000 path-steps/s, 5.000 s"]


class TestSweepCommand:
    def test_sweep_outputs(self, tmp_path):
        rc = main(["sweep", "--manifold", "euclidean:2",
                   "--epsilon-list", "0.1,0.05", "--t-final", "1",
                   "--paths", "150", "--seed", "12", "--jobs", "1",
                   "--output-dir", str(tmp_path)])
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "epsilon,msd_rel_err,ks_stat,ks_p"
        assert len(lines) == 3
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["criteria"]["final_msd_rel_err"]["pass"] in (True, False)
        assert rc in (0, 1)

    def test_sweep_requires_epsilon_list(self, capsys):
        rc = main(["sweep", "--manifold", "euclidean:2", "--paths", "150"])
        assert rc == 2
        assert "epsilon_list" in capsys.readouterr().err

    def test_sweep_reproducible(self, tmp_path):
        args = ["sweep", "--manifold", "euclidean:2", "--epsilon-list", "0.2,0.1",
                "--t-final", "1", "--paths", "120", "--seed", "5", "--jobs", "1"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        main(args + ["--output-dir", str(d1)])
        main(args + ["--output-dir", str(d2)])
        assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()


HOMOGENIZE_KEYS = {"command", "chart", "epsilon", "paths", "seed", "criteria", "pass"}
KS_KEYS = {"statistic", "p_value", "floor", "pass"}
ABORT_KEYS = {"count", "paths", "pass"}


class TestWrittenSchemas:
    @pytest.mark.parametrize("argv,keys,criteria", [
        (["homogenize", "--manifold", "euclidean:2", "--output-times", "3"], HOMOGENIZE_KEYS,
         {"msd_slope": {"value", "target", "rel_err", "tolerance", "pass"},
          "msd_linearity": {"r2", "threshold", "pass"},
          "marginal_normal_ks": KS_KEYS, "aborts": ABORT_KEYS}),
        (["homogenize", "--manifold", "hyperbolic2", "--output-times", "3"], HOMOGENIZE_KEYS,
         {"distance_oracle_ks": KS_KEYS, "aborts": ABORT_KEYS}),
        (["sweep", "--manifold", "euclidean:2", "--epsilon-list", "0.2,0.1"],
         {"command", "chart", "epsilon_list", "paths", "seed", "final_row", "criteria", "pass"},
         {"final_msd_rel_err": {"value", "tolerance", "pass"},
          "final_ks": {"p_value", "floor", "pass"}}),
    ], ids=["homogenize-euclidean2", "homogenize-hyperbolic2", "sweep"])
    def test_summary_keys(self, argv, keys, criteria, tmp_path):
        rc = main(argv + ["--paths", "100", "--t-final", "0.05", "--seed", "3", "--jobs", "1",
                          "--output-dir", str(tmp_path)])
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == keys
        assert {name: set(c) for name, c in summary["criteria"].items()} == criteria
        assert summary["command"] == argv[0] and summary["seed"] == 3
        assert summary["pass"] is all(c["pass"] for c in summary["criteria"].values())
        assert rc == (0 if summary["pass"] else 1)

    def test_help_lists_the_commands_in_order(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^    (\S+) +(.+)$", capsys.readouterr().out, flags=re.M)
        assert listed == [
            ("verify-algebra", "check the skew-basis identities and print defects"),
            ("haar", "estimate Haar second moments of the direction statistic"),
            ("ergodic", "time-average the direction moments along Haar-started group paths"),
            ("simulate", "integrate rescaled paths and write per-path CSVs"),
            ("homogenize", "ensemble statistics against the diffusive limit"),
            ("sweep", "repeat the ensemble across an epsilon list"),
        ]
