import argparse
import dataclasses
import json
import warnings

import pytest

from frameflow import (ConfigError, EnsembleSpec, SimConfig, epsilon_sweep, euclidean_chart,
                       hyperbolic2_chart, manifold, perturbed_geodesic, run_ensemble)
from frameflow.cli import CONFIG_KEYS, KS_CRITERION, RunConfig, build_parser, main
from frameflow.homogenize import reference_law


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--t-final", "inf"], "t_final must be finite"),
    (["ergodic", "--dim", "2", "--t-final", "inf"], "t_final must be finite"),
    (["haar", "--e0", "1,1"], "e0 must be a unit vector (|e0| = 1.41421)"),
    (["ergodic", "--e0", "1,1"], "e0 must be a unit vector (|e0| = 1.41421)"),
    # | |e0| - 1 | = 1.7e-9 is over the one unit-norm tolerance, 1e-9.
    (["haar", "--e0", "0.70710678,0.70710678"], "e0 must be a unit vector (|e0| = 1)"),
    (["haar", "--h0", "0.5"], "h0 must lie in (0, 0.1]"),
    # A flag goes through its key's parser, as a file value and FRAMEFLOW_SEED
    # do; argparse rejected these with its usage text and no reason.
    (["simulate", "--seed", "1.5"], "seed: expected an integer, got '1.5'"),
    (["simulate", "--epsilon", "abc"], "epsilon: expected a number, got 'abc'"),
])
def test_invalid_input_exits_2_with_reason(argv, message, tmp_path, capsys):
    # Checked by the library before any work starts: no traceback, exit 2.
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    # The horizon was read before its check: numpy warned from linspace.
    (["simulate", "--output-times", "3", "--t-final", "inf"], "t_final must be finite"),
    # 1e301 steps were cast to an int, with a warning and a step-grid error.
    (["ergodic", "--t-final", "1e300"],
     "t_final needs 1e+301 steps of h = 0.1; a step count must be below 2**63"),
    # The snapped horizon overflowed to infinity before the step-count check.
    (["ergodic", "--t-final", "1e308"],
     "t_final needs inf steps of h = 0.1; a step count must be below 2**63"),
    # h0 eps^2 underflowed to 0 and the step count divided by it.
    (["simulate", "--epsilon", "1e-170", "--t-final", "1"],
     "t_final cannot be reached in steps of h = 0; the step must be positive"),
    (["homogenize", "--epsilon", "1e-170", "--t-final", "1"],
     "t_final cannot be reached in steps of h = 0; the step must be positive"),
    # A subnormal h0 eps^2: the step count overflowed int(round(...)).
    (["simulate", "--epsilon", "1e-160", "--t-final", "1e300"],
     "t_final needs inf steps of h = 9.98013e-322; a step count must be below 2**63"),
    (["homogenize", "--epsilon", "1e-160", "--t-final", "1e300"],
     "t_final needs inf steps of h = 9.98013e-322; a step count must be below 2**63"),
])
def test_out_of_range_horizon_prints_one_line_and_exits_2(argv, message, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert caught == []
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("source,key,value,message", [
    ("file", "seed", "1.5", "seed: expected an integer, got '1.5'"),
    ("env", "seed", "1.5", "seed: expected an integer, got '1.5'"),
    ("file", "epsilon", "abc", "epsilon: expected a number, got 'abc'"),
])
def test_malformed_value_from_file_or_environment_exits_2(source, key, value, message,
                                                          tmp_path, monkeypatch, capsys):
    # The same parser and line as for the flag (test_invalid_input_exits_2_with_reason).
    monkeypatch.delenv("FRAMEFLOW_SEED", raising=False)
    argv = ["simulate", "--output-dir", str(tmp_path)]
    if source == "file":
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {value}\n")
        argv += ["--config", str(config)]
    else:
        monkeypatch.setenv("FRAMEFLOW_SEED", value)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("argv", [["verify-algebra", "--dim", "2000"],
                                  ["haar", "--dim", "2000"],
                                  ["simulate", "--manifold", "euclidean:2000"]])
def test_too_large_dimension_exits_2_before_allocating(argv, tmp_path, capsys):
    # Each of these ended in a numpy memory error traceback: the canonical
    # basis at n = 2000 is 58 TiB, the haar sample chunk 1.5 TiB.
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: dimension must be between 2 and 45, got 2000\n")


def test_horizon_below_half_a_step_runs_one_step(tmp_path, capsys):
    # 0.01 rounds to 0 steps of h0 = 0.1.  ergodic exited 2 naming
    # checkpoints, an argument the user never gave; it now averages over
    # one step, as simulate does for a horizon that short, and reaches its
    # verdict on the reps' spread.
    assert main(["ergodic", "--dim", "2", "--t-final", "0.01", "--reps", "4",
                 "--output-dir", str(tmp_path)]) in (0, 1)
    assert capsys.readouterr().out.rstrip().endswith("at t=0.1")
    sim = SimConfig(chart="euclidean:2", epsilon=1.0, t_final=0.01)
    assert perturbed_geodesic.output_steps(sim)[0] == 1


@pytest.fixture
def copies(monkeypatch):
    """Renamed copies of the built-in charts, registered for one test only.

    ``flat-copy`` and ``half-plane`` keep their models.  ``h2-copy`` and
    ``euclidean-curved``, the half-plane under a name that starts like the
    euclidean charts' names, have it cleared, as a chart with no model has
    no reference law.
    """
    for name, chart, model in (("h2-copy", hyperbolic2_chart(), None),
                               ("flat-copy", euclidean_chart(2), "euclidean"),
                               ("euclidean-curved", hyperbolic2_chart(), None),
                               ("half-plane", hyperbolic2_chart(), "hyperbolic")):
        monkeypatch.setitem(manifold._CUSTOM_CHARTS, name,
                            dataclasses.replace(chart, name=name, model=model))


@pytest.mark.parametrize("command", [["homogenize", "--epsilon", "0.2"],
                                     ["sweep", "--epsilon-list", "0.3,0.2"]])
def test_curved_chart_without_oracle_exits_2(command, copies, tmp_path, capsys):
    # A chart with no model has no reference law: the KS criterion would
    # have nothing to test against.
    argv = command + ["--manifold", "h2-copy", "--t-final", "0.2", "--paths", "100",
                      "--jobs", "1", "--output-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "'h2-copy'" in capsys.readouterr().err


def test_curved_chart_named_like_a_flat_one_exits_2(copies, tmp_path, capsys):
    argv = ["homogenize", "--manifold", "euclidean-curved", "--epsilon", "0.2", "--t-final", "0.2",
            "--paths", "100", "--jobs", "1", "--output-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "'euclidean-curved'" in capsys.readouterr().err


def test_reference_law_follows_the_chart_not_its_name(copies):
    # A chart under any name is tested against its model's law.
    for chart, law in (("flat-copy", "euclidean"), ("half-plane", "hyperbolic")):
        assert reference_law(manifold.chart_by_name(chart)) == law
        sim = SimConfig(chart=chart, epsilon=0.1, t_final=0.2, seed=1)
        stats = run_ensemble(EnsembleSpec(sim=sim, paths=100, jobs=1))
        assert stats.ks_p is not None and len(stats.ks_p) == len(stats.times)
        assert stats.ks_p[0] == 1.0  # identical point masses at t = 0
        assert (stats.oracle_scalar is None) == (law == "euclidean")


def test_homogenize_on_a_renamed_half_plane_runs_the_oracle_ks(copies, tmp_path):
    # A copy of hyperbolic2 under another name has its model, and with it
    # the half-plane's reference law; picked by name, it exited 2.
    argv = ["homogenize", "--manifold", "half-plane", "--epsilon", "0.2", "--t-final", "0.2",
            "--paths", "100", "--jobs", "1", "--output-dir", str(tmp_path)]
    assert main(argv) in (0, 1)
    criteria = json.loads((tmp_path / "summary.json").read_text())["criteria"]
    assert set(criteria) == {KS_CRITERION["hyperbolic"], "aborts"}


def test_library_sweep_without_oracle_raises_config_error(copies):
    sim = SimConfig(chart="h2-copy", epsilon=0.3, t_final=0.2)
    with pytest.raises(ConfigError, match="'h2-copy'"):
        epsilon_sweep(EnsembleSpec(sim=sim, paths=100, jobs=1), (0.3, 0.2))


def test_sweep_on_registered_flat_chart_runs_the_marginal_ks(copies, tmp_path):
    assert main(["sweep", "--manifold", "flat-copy", "--epsilon-list", "0.3,0.2",
                 "--t-final", "0.2", "--paths", "100", "--jobs", "1",
                 "--output-dir", str(tmp_path)]) in (0, 1)
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "epsilon,msd_rel_err,ks_stat,ks_p" and len(rows) == 3


def test_drift_too_large_for_the_step_exits_2(tmp_path, capsys):
    # 0.5 h |abar| = inf: the exponential's squaring count overflowed and
    # the command ended in an OverflowError traceback.
    argv = ["simulate", "--manifold", "euclidean:5", "--abar", "1e300,0,0,0,0,0,0,0,0,0",
            "--epsilon", "0.5", "--t-final", "0.05", "--output-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: abar is too large") and err.count("\n") == 1


def test_every_option_of_every_command_has_help():
    # --seed, --paths, --output-dir and -v printed none.
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        for action in sub._actions:
            assert action.help and action.help != argparse.SUPPRESS, (name, action.dest)


def test_every_config_key_is_a_field_and_a_flag():
    # A knob removed from one of the three places must go from all of them.
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    for command in ("verify-algebra", "haar", "ergodic", "simulate", "homogenize", "sweep"):
        dests = set(vars(build_parser().parse_args([command])))
        assert set(CONFIG_KEYS) <= fields & dests, command


@pytest.mark.parametrize("line", ["renorm_every = 1", "oracle = auto"])
def test_removed_config_keys_are_rejected(line, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    assert main(["simulate", "--config", str(config), "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    key = line.split("=")[0].strip()
    assert "unknown key" in err and repr(key) in err
