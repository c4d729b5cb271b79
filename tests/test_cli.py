import copy
import json
import logging
import os
import pickle
import signal
import subprocess
import sys
import traceback
import warnings
from collections import Counter
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from baradapt import analysis, cli, history, model, sim
from baradapt.adaptation import UpdateLaw
from baradapt.errors import BarrierBreach, ConfigError, InfeasibleEvaluation, NumericalDivergence
from baradapt.sim import canonical_config, run_scenario


def parse_summary(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


def short_config_file(tmp_path, **overrides):
    cfg = replace(cli.load_config("sec5a"), t_final=1.0, **overrides)
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cli.config_to_dict(cfg)))
    return path, canonical_config(cfg)


# ---------------------------------------------------------------------------
# parsing


@pytest.mark.parametrize("name", ["sanity", "sec5a", "sec5b", "sec5c"])
def test_config_round_trip(name):
    cfg = cli.load_config(name)
    again = cli.parse_config(json.dumps(cli.config_to_dict(cfg)))
    assert again == cfg


def test_bundled_names():
    """The configs/ directory of the installed package holds exactly the
    four scenarios, and each loads by its bare name."""
    base = resources.files("baradapt").joinpath("configs")
    names = sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))
    assert names == ["sanity", "sec5a", "sec5b", "sec5c"]
    for name in names:
        assert cli.load_config(name).name == name


def test_load_config_accepts_path_and_suffixed_name(tmp_path):
    cfg = cli.load_config("sec5b.json")
    assert cfg.name == "sec5b"
    path = tmp_path / "own.json"
    path.write_text(json.dumps(cli.config_to_dict(cfg)))
    assert cli.load_config(str(path)) == cfg
    with pytest.raises(ConfigError, match="neither a file nor a bundled"):
        cli.load_config("sec5z")


def test_load_config_skips_a_directory_of_the_same_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sanity").mkdir()
    assert cli.load_config("sanity") == cli.load_config("sanity.json")
    # the first run's output directory shadows the bundled name for the second
    for _ in range(2):
        assert cli.main(["run", "--config", "sanity", "--out", "sanity",
                         "--t-final", "0.05"]) == 0
    assert (tmp_path / "sanity" / "summary.txt").is_file()


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    with pytest.raises(ConfigError, match="latin1.json' could not be read"):
        cli.load_config(str(path))
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: config '") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_parse_rejects_malformed_text():
    with pytest.raises(ConfigError, match="invalid JSON"):
        cli.parse_config("{not json")
    with pytest.raises(ConfigError, match="JSON object"):
        cli.parse_config("[1, 2]")


def test_parse_rejects_unknown_and_missing_keys():
    base = cli.config_to_dict(cli.load_config("sanity"))
    bad = dict(base, gain=2.0)
    with pytest.raises(ConfigError, match="unknown key 'gain'"):
        cli.parse_config(json.dumps(bad))
    missing = {k: v for k, v in base.items() if k != "law"}
    with pytest.raises(ConfigError, match="missing required key 'law'"):
        cli.parse_config(json.dumps(missing))


def test_parse_rejects_bad_group_and_stack_keys():
    base = cli.config_to_dict(cli.load_config("sec5a"))
    bad = json.loads(json.dumps(base))
    bad["groups"][0]["weight"] = 1.0
    with pytest.raises(ConfigError, match=r"unknown key 'groups\[1\].weight'"):
        cli.parse_config(json.dumps(bad))
    bad = json.loads(json.dumps(base))
    del bad["groups"][0]["alpha"]
    with pytest.raises(ConfigError, match=r"missing required key 'groups\[1\].alpha'"):
        cli.parse_config(json.dumps(bad))
    bad = json.loads(json.dumps(base))
    bad["stack"]["depth"] = 3
    with pytest.raises(ConfigError, match="unknown key 'stack.depth'"):
        cli.parse_config(json.dumps(bad))


BAD_INPUTS = [
    ("dt", "0.001"),
    ("dt", True),
    ("t_final", None),
    ("sigma2", "x"),
    ("x0", [10, "a"]),
    ("x0", {"a": 1}),
    ("log_every", 2.5),
    ("learning_rate", True),
    ("name", 5),
    ("theta_true", "abc"),
    ("groups[1].alpha", "0.1"),
    ("groups[1].norm_log_ok", "no"),
    ("stack.size", 2.7),
]


@pytest.mark.parametrize("key,value", BAD_INPUTS,
                         ids=[f"{k}={json.dumps(v)}" for k, v in BAD_INPUTS])
def test_run_rejects_badly_typed_value_by_key(tmp_path, capsys, key, value):
    raw = cli.config_to_dict(replace(cli.load_config("sec5a"), t_final=0.01))
    owner, name = raw, key
    if key.startswith("groups[1]."):
        owner, name = raw["groups"][0], key.split(".", 1)[1]
    elif key.startswith("stack."):
        owner, name = raw["stack"], key.split(".", 1)[1]
    owner[name] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:")
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["log_every", "stack.size", "stack.record_every"])
def test_parse_reads_whole_number_counts_as_int(key):
    raw = cli.config_to_dict(cli.load_config("sec5a"))
    owner, name = (raw["stack"], key.split(".", 1)[1]) if key.startswith("stack.") else (raw, key)
    owner[name] = 7
    as_int = cli.parse_config(json.dumps(raw))
    owner[name] = 7.0
    text = json.dumps(raw)
    assert f'"{name}": 7.0' in text
    cfg = cli.parse_config(text)
    stored = getattr(cfg.stack, name) if owner is raw["stack"] else getattr(cfg, name)
    assert type(stored) is int and stored == 7
    assert cli.config_to_dict(cfg) == cli.config_to_dict(as_int)


def test_parse_applies_gain_promotion():
    cfg = cli.load_config("sec5a")
    assert len(cfg.control_gain) == 2
    assert len(cfg.groups[0].gamma_inv) == 8
    assert len(cfg.groups[0].lambda0) == 8


# ---------------------------------------------------------------------------
# run command


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", "sanity", "--out", str(out)])
    assert rc == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "summary.txt").exists()
    echoed = cli.parse_config((out / "effective_config.json").read_text())
    assert echoed == cli.load_config("sanity")
    summary = parse_summary((out / "summary.txt").read_text())
    assert summary["scenario"] == "sanity"
    assert float(summary["final_e_norm"]) < 1e-3
    assert float(summary["runtime_seconds"]) >= 0.0
    assert "envelope_violations" in summary
    assert "kkt_stationarity" in summary
    captured = capsys.readouterr()
    assert captured.out.startswith("run sanity:")


def test_run_override_is_echoed(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", "sanity", "--out", str(out),
                   "--t-final", "2.0", "--dt", "0.002"])
    assert rc == 0
    echoed = cli.parse_config((out / "effective_config.json").read_text())
    assert echoed.t_final == 2.0
    assert echoed.dt == 0.002
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert data[-1, 0] == pytest.approx(2.0)


def test_run_reports_breach_on_coarse_step(tmp_path, capsys):
    rc = cli.main(["run", "--config", "sec5a", "--out", str(tmp_path / "o"),
                   "--dt", "10"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("BarrierBreach at t=")


def test_run_reports_divergence_without_traceback(tmp_path, capsys):
    # an RK4 stage overflows to inf and the plant's regressor raises on it
    raw = cli.config_to_dict(replace(cli.load_config("sec5a"), law="gradient", dt=0.02,
                                     t_final=2.0, control_gain=200.0))
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("NumericalDivergence at t=")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_run_rejects_infeasible_start(tmp_path, capsys):
    raw = cli.config_to_dict(cli.load_config("sec5a"))
    raw["theta_hat0"] = [2.0, 8.0, 12.0, 15.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "lower bound 3" in err


def test_run_rejects_a_trajectory_of_another_dimension(tmp_path, monkeypatch, capsys):
    def three_d():
        return model.DesiredTrajectory(name="three_d", dim=3,
                                       eval=lambda t: (np.zeros(3), np.zeros(3)))

    monkeypatch.setitem(model.TRAJECTORIES, "three_d", three_d)
    raw = cli.config_to_dict(cli.load_config("sanity"))
    raw["trajectory"] = "three_d"
    path = tmp_path / "three_d.json"
    path.write_text(json.dumps(raw))
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: trajectory 'three_d' has dimension 3, plant needs 2\n")
    assert not (tmp_path / "o").exists()


def test_run_rejects_missing_config(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


def test_summary_reads_the_last_logged_row(tmp_path, monkeypatch):
    # the final state and lambda* are the log's last row, and the gains
    # and stack are the run's own context
    logs = []

    def kept(cfg):
        logs.append(run_scenario(cfg))
        return logs[-1]

    monkeypatch.setattr(cli, "run_scenario", kept)
    for law in ("barrier_constrained", "gradient"):
        cfg = canonical_config(replace(cli.load_config("sec5a"), law=law, t_final=0.3))
        path, out = tmp_path / f"{law}.json", tmp_path / law
        path.write_text(json.dumps(cli.config_to_dict(cfg)))
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        summary = parse_summary((out / "summary.txt").read_text())
        log = logs[-1]
        ctx = log.context
        assert ctx.cfg == cfg

        t, x, th = log.column("t")[-1], log.block("x")[-1], log.block("theta_hat")[-1]
        lam_star = log.multipliers()[-1]
        lambdas = [] if law == "gradient" else [lam_star]
        kkt = analysis.kkt_residuals(ctx, x - ctx.traj.eval(t)[0], x, th, lambdas)
        assert summary["kkt_stationarity"] == f"{kkt.stationarity:.10g}"
        assert summary["kkt_complementary_slackness"] == f"{kkt.complementary_slackness:.10g}"

        consts = analysis.uub_constants(ctx, float(summary["excitation_final"]), lam_star)
        assert summary["uub_beta2"] == f"{consts.beta2:.10g}"
        if law == "gradient":
            assert not lam_star.any() and summary["uub_beta2"] == "0"
        else:
            assert lam_star.all() and float(summary["uub_beta2"]) > 0.0


def test_run_compiles_and_prefills_no_more_than_needed(tmp_path, monkeypatch):
    # the summary reads the run's own context instead of compiling (and,
    # for an offline stack, prefilling) the scenario again
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sim, "_compile", counted("compile", sim._compile))
    fill = counted("fill", history.fill_with_exact_model_data)
    monkeypatch.setattr(history, "fill_with_exact_model_data", fill)
    monkeypatch.setattr(sim, "fill_with_exact_model_data", fill)
    rc = cli.main(["run", "--config", "sanity", "--out", str(tmp_path),
                   "--t-final", "0.2"])
    assert rc == 0
    assert calls["compile"] <= 4
    assert calls["fill"] == 1


# ---------------------------------------------------------------------------
# compare command


def test_compare_writes_table_and_runs_each_law(tmp_path, capsys):
    path, cfg = short_config_file(tmp_path)
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(path), "--out", str(out),
                   "--laws", "gradient,barrier_constrained"])
    assert rc == 0
    assert (out / "gradient.csv").exists()
    assert (out / "barrier_constrained.csv").exists()
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "law,steady_state_rms,min_margin,final_theta_err_norm"
    assert len(lines) == 3
    assert lines[1].startswith("gradient,")
    assert lines[2].startswith("barrier_constrained,")
    assert capsys.readouterr().out.count("compare ") == 2


def test_compare_repeat_law_is_deterministic(tmp_path):
    path, _ = short_config_file(tmp_path)
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(path), "--out", str(out),
                   "--laws", "gradient,gradient"])
    assert rc == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[1] == lines[2]


def test_compare_rejects_unknown_law(tmp_path, capsys):
    path, _ = short_config_file(tmp_path)
    rc = cli.main(["compare", "--config", str(path), "--out",
                   str(tmp_path / "cmp"), "--laws", "gradient,newton"])
    assert rc == 2
    assert "unknown law 'newton'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep command


def test_sweep_matches_direct_run(tmp_path):
    path, cfg = short_config_file(tmp_path)
    out = tmp_path / "swp"
    rc = cli.main(["sweep", "--config", str(path), "--out", str(out),
                   "--sweep-key", "control_gain", "--sweep-values", "10"])
    assert rc == 0
    assert (out / "control_gain_10" / "trajectory.csv").exists()
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "control_gain,steady_state_rms,final_theta_err_norm"
    value, rms, theta_err = (float(v) for v in lines[1].split(","))
    direct = run_scenario(canonical_config(replace(cfg, control_gain=10.0)))
    assert value == 10.0
    assert rms == analysis.steady_state_rms(direct)
    assert theta_err == float(direct.column("theta_err_norm")[-1])


def test_sweep_rejects_bad_key_and_values(tmp_path, capsys):
    path, _ = short_config_file(tmp_path)
    rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s"),
                   "--sweep-key", "dt", "--sweep-values", "1,2"])
    assert rc == 2
    assert "unknown sweep key 'dt'" in capsys.readouterr().err
    rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s"),
                   "--sweep-key", "alpha", "--sweep-values", "fast"])
    assert rc == 2
    rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s"),
                   "--sweep-key", "alpha", "--sweep-values", ","])
    assert rc == 2
    # a scenario without groups has no alpha to sweep, nor to check -1 against
    capsys.readouterr()
    rc = cli.main(["sweep", "--config", "sanity", "--out", str(tmp_path / "s"),
                   "--sweep-key", "alpha", "--sweep-values", "1,-1", "--t-final", "0.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: sweep key 'alpha' needs a scenario with constraint groups")
    assert not (tmp_path / "s").exists()
    # a key the law never reads would run identical lanes; the law is
    # named however the config spells it
    for law, key, term in [("gradient", "alpha", "multipliers"),
                           ("concurrent_learning", "alpha", "multipliers"),
                           ("Gradient", "k_cl_scale", "a memory term"),
                           ("barrier_sigma_mod", "k_cl_scale", "a memory term")]:
        path, _ = short_config_file(tmp_path, law=law)
        rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s"),
                       "--sweep-key", key, "--sweep-values", "0.05,0.2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"config error: sweep key '{key}' needs a law with {term}, "
                       f"and '{law.lower()}' has none\n")
        assert not (tmp_path / "s").exists()
    # a scenario whose stack never holds a sample forms no memory term, nor
    # does a run that ends before its flow reads the first online sample
    # (taken after step 49 of sec5a, read from step 51 on)
    for stack, horizon in [(sim.StackConfig(mode="none"), []), (sim.StackConfig(size=0), []),
                           (sim.StackConfig(), ["--t-final", "0.04"]),
                           (sim.StackConfig(), ["--t-final", "0.05"])]:
        path, _ = short_config_file(tmp_path, stack=stack)
        rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s"),
                       "--sweep-key", "k_cl_scale", "--sweep-values", "0.05,0.2", *horizon])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == ("config error: sweep key 'k_cl_scale' needs a scenario with "
                       "a history stack sampled before the run ends, and 'sec5a' has none\n")
        assert not (tmp_path / "s").exists()
    # one step more and the flow reads the sample; an offline stack is
    # filled before the run starts
    for stack, t_final in [(sim.StackConfig(), "0.051"),
                           (sim.StackConfig(mode="offline"), "0.01")]:
        path, _ = short_config_file(tmp_path, stack=stack)
        rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / f"s{t_final}"),
                       "--sweep-key", "k_cl_scale", "--sweep-values", "0.05,0.2",
                       "--t-final", t_final])
        assert rc == 0
    # the config and its --dt / --t-final are checked before any other
    # input, so an input wrong in two ways names the override
    capsys.readouterr()
    for argv, message in [
            (["sweep", "--config", "sanity", "--sweep-key", "alpha", "--dt", "0"],
             "dt must be positive and finite"),
            (["sweep", "--config", "sec5a", "--sweep-key", "bogus", "--dt", "0"],
             "dt must be positive and finite"),
            (["sweep", "--config", "sec5a", "--sweep-key", "k_cl_scale", "--dt", "-1"],
             "dt must be positive and finite"),
            (["sweep", "--config", "sec5a", "--sweep-key", "k_cl_scale", "--t-final", "inf"],
             "t_final must be finite"),
            (["compare", "--config", "sec5a", "--laws", ",", "--t-final", "nan"],
             "t_final must be finite")]:
        if argv[0] == "sweep":
            argv += ["--sweep-values", "0.05,0.2"]
        rc = cli.main([*argv, "--out", str(tmp_path / "v")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "v").exists()



def test_sweep_warns_when_no_lane_ran_a_law_that_reads_the_key(tmp_path, capsys):
    # sec5a's online law runs its sigma-mod variant until the stack is
    # exciting (0.11 s): a k_cl_scale sweep that ends before then changes
    # nothing, exits 0 and says so on stderr, once; one that runs past the
    # switch, and an alpha sweep, do not warn.  A repeated value is one
    # value run twice: its equal lanes are no warning
    for key, t_final, values, warned in [("k_cl_scale", "0.1", "0.05,0.2", True),
                                         ("k_cl_scale", "0.3", "0.05,0.2", False),
                                         ("alpha", "0.1", "0.05,0.2", False),
                                         ("control_gain", "0.1", "5,5", False)]:
        out = tmp_path / f"{key}_{t_final}"
        rc = cli.main(["sweep", "--config", "sec5a", "--out", str(out), "--sweep-key", key,
                       "--sweep-values", values, "--t-final", t_final])
        assert rc == 0
        assert capsys.readouterr().err == (
            f"warning: sweep key '{key}' changed no lane: every value gave the same "
            "trajectory\n" if warned else "")
        lanes = [(out / f"{key}_{v}" / "trajectory.csv").read_bytes()
                 for v in values.split(",")]
        assert (lanes[0] == lanes[1]) == (warned or values == "5,5")

BAD_LANES = [
    (["sweep", "--sweep-key", "bogus", "--sweep-values", "1"], "unknown sweep key 'bogus'"),
    (["sweep", "--sweep-key", "alpha", "--sweep-values", "0.1,-1"], "groups[1].alpha "),
    (["sweep", "--sweep-key", "control_gain", "--sweep-values", "5,nan"],
     "control_gain must be positive and finite"),
    (["sweep", "--sweep-key", "alpha", "--sweep-values", "nan"], "groups[1].alpha "),
    (["sweep", "--sweep-key", "alpha", "--sweep-values", "inf"], "groups[1].alpha "),
    (["compare", "--laws", "gradient,newton"], "unknown law 'newton'"),
    (["compare", "--laws", ","], "no laws given"),
    (["run", "--t-final", "0.0005"], "t_final must be at least dt"),
    (["sweep", "--sweep-key", "control_gain", "--sweep-values", "5,5.0000001"],
     "'5' and '5.0000001' both write 'control_gain_5"),
    (["compare", "--laws", "gradient,GRADIENT"],
     "'gradient' and 'GRADIENT' both write 'gradient.csv'"),
]


@pytest.mark.parametrize("argv,message", BAD_LANES,
                         ids=[" ".join(argv[1:]) for argv, _ in BAD_LANES])
def test_bad_lane_writes_nothing(tmp_path, capsys, argv, message):
    path, _ = short_config_file(tmp_path)
    out = tmp_path / "out"
    rc = cli.main([argv[0], "--config", str(path), "--out", str(out), *argv[1:]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: {message}")
    assert not out.exists()


# (command and its own arguments, the part of --out below a regular file)
OUT_NOT_A_DIRECTORY = [
    (["run"], None),
    (["compare", "--laws", "gradient"], None),
    (["sweep", "--sweep-key", "control_gain", "--sweep-values", "1"], "sub"),
]


@pytest.mark.parametrize("argv,below", OUT_NOT_A_DIRECTORY,
                         ids=[argv[0] for argv, _ in OUT_NOT_A_DIRECTORY])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, argv, below):
    # an --out that is a file, or a path through one, is bad input: exit
    # code 1 is kept for a breach or a divergence
    path, _ = short_config_file(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker / below if below else blocker
    before = sorted(tmp_path.rglob("*"))
    rc = cli.main([argv[0], "--config", str(path), "--out", str(out), *argv[1:]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: --out '{out}' is not a usable directory: ")
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == "kept\n"


def tree(root) -> dict:
    """Relative name -> bytes of each file under root, None for a directory,
    and the target of a symbolic link."""
    return {str(p.relative_to(root)): p.readlink() if p.is_symlink()
            else None if p.is_dir() else p.read_bytes() for p in sorted(root.rglob("*"))}


SWEEP_5_20 = ["sweep", "--sweep-key", "control_gain", "--sweep-values", "5,20"]
COMPARE_TWO = ["compare", "--laws", "gradient,concurrent_learning"]
# (command and its own arguments, the path under --out that is in the way
# or None for --out itself, and what stands there): a file where a
# directory goes, and a directory where a file goes.  run and compare write
# no directory below --out.
IN_THE_WAY = [
    (["run"], None, "file"),
    (["run"], "summary.txt", "dir"),
    (["run"], "summary.txt", "dangling link"),
    (COMPARE_TWO, None, "file"),
    (COMPARE_TWO, "concurrent_learning.csv", "dir"),
    (SWEEP_5_20, "control_gain_20", "file"),
    (SWEEP_5_20, "sweep.csv", "dir"),
    (SWEEP_5_20, "control_gain_20/trajectory.csv", "dir"),
]


@pytest.mark.parametrize("argv,below,kind", IN_THE_WAY,
                         ids=[f"{argv[0]}-{kind.replace(' ', '_')}-at-{below or '--out'}"
                              for argv, below, kind in IN_THE_WAY])
def test_path_in_the_way_exits_2_and_writes_nothing(tmp_path, capsys, argv, below, kind):
    # every path a command writes is checked before its first lane runs
    path, _ = short_config_file(tmp_path)
    out = tmp_path / "out"
    blocker = out / below if below else out
    blocker.parent.mkdir(parents=True, exist_ok=True)
    if kind == "file":
        blocker.write_text("kept\n")
    elif kind == "dangling link":  # writing through it would leave --out
        blocker.symlink_to(tmp_path / "nowhere" / "summary.txt")
    else:
        blocker.mkdir()
        (blocker / "kept.txt").write_text("kept\n")
    before = tree(tmp_path)
    rc = cli.main([argv[0], "--config", str(path), "--out", str(out), *argv[1:]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and f"'{blocker}'" in err
    assert "Traceback" not in err
    assert tree(tmp_path) == before


def test_existing_out_keeps_what_no_planned_path_names(tmp_path):
    # a second run into the same --out overwrites only the files it plans
    out = tmp_path / "out"
    argv = ["sweep", "--config", "sanity", "--out", str(out), "--t-final", "0.05",
            "--sweep-key", "control_gain", "--sweep-values", "5"]
    assert cli.main(argv) == 0
    first = tree(out)
    (out / "control_gain_5" / "notes.txt").write_text("kept\n")
    (out / "sweep.csv").write_text("stale\n")
    assert cli.main(argv) == 0
    assert tree(out) == {**first, "control_gain_5/notes.txt": b"kept\n"}


# ---------------------------------------------------------------------------
# the lane runner


@pytest.mark.parametrize("err", [BarrierBreach("stayed infeasible", time=1.5, dt=0.25),
                                 BarrierBreach("stayed infeasible", time=1.5),
                                 NumericalDivergence("non-finite state", time=0.04),
                                 InfeasibleEvaluation("outside", margin=-0.5)],
                         ids=lambda err: type(err).__name__)
def test_run_errors_survive_pickle_and_copy(err):
    # no lane's error crosses the CLI's pipe (a lane no worker sent runs
    # again in this process), but library callers may pickle or copy them,
    # and a failed lane's record may come to carry them across a pipe
    attrs = {name: getattr(err, name) for name in ("time", "dt", "margin") if hasattr(err, name)}
    for again in (pickle.loads(pickle.dumps(err)), copy.copy(err)):
        assert type(again) is type(err) and str(again) == str(err)
        assert {name: getattr(again, name) for name in attrs} == attrs


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs the lane runner sees, and count its forks; afterwards
    this process may have no child left, running or exited."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)

    def use(n: int) -> list:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks.clear()
        return forks

    yield use
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli(tmp_path, capsys, name, argv):
    out = tmp_path / name
    rc = cli.main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, tree(out)


def recording(path, run=run_scenario):
    """A stand-in for cli.run_scenario that appends "pid gain" to path,
    from whichever process runs the lane, before it runs the lane."""
    def recorded(cfg):
        with open(path, "a") as f:
            f.write(f"{os.getpid()} {cfg.control_gain[0]:g}\n")
        return run(cfg)
    return recorded


def pids_by_gain(path) -> dict:
    """control gain -> the pids that ran its lane, in order, from recording"""
    found = {}
    for line in path.read_text().splitlines():
        pid, gain = line.split()
        found.setdefault(gain, []).append(int(pid))
    return found


FOUR_LAWS = ["compare", "--config", "sec5a", "--t-final", "0.3",
             "--laws", "gradient,concurrent_learning,barrier_constrained,barrier_sigma_mod"]
THREE_GAINS = ["sweep", "--config", "sec5a", "--t-final", "0.3",
               "--sweep-key", "control_gain", "--sweep-values", "5,10,20"]


@pytest.mark.parametrize("n_cpus", [2, 3])
@pytest.mark.parametrize("argv", [FOUR_LAWS, THREE_GAINS], ids=["compare", "sweep"])
def test_forked_lanes_write_what_a_serial_run_writes(tmp_path, capsys, caplog, cpus,
                                                     argv, n_cpus):
    caplog.set_level(logging.INFO, logger="baradapt")
    logged = {}
    for side, n in (("serial", 1), ("forked", n_cpus)):
        forks = cpus(n)
        logged[side] = run_cli(tmp_path, capsys, side, argv)
        assert len(forks) == n - 1
        # the parent logs every lane, in lane order
        logged[side] += ([m.replace(str(tmp_path / side), "<out>") for m in caplog.messages],)
        caplog.clear()
    rc, out, _, _, messages = logged["serial"]
    assert rc == 0 and len(out.splitlines()) == len(messages) == len(argv[-1].split(","))
    assert logged["forked"] == logged["serial"]


def test_run_never_forks(tmp_path, capsys, cpus):
    forks = cpus(2)
    rc, out, _, _ = run_cli(tmp_path, capsys, "run", ["run", "--config", "sanity",
                                                      "--t-final", "0.05"])
    assert rc == 0 and out.startswith("run sanity:") and not forks


BREACH = ["sweep", "--config", "sec5a", "--sweep-key", "control_gain", "--dt", "0.02",
          "--t-final", "2"]


@pytest.mark.parametrize("values,written", [("5,200000", ["control_gain_5/trajectory.csv"]),
                                            ("200000,5", [])],
                         ids=["in-a-child", "in-the-parent"])
def test_breach_in_a_lane_ends_the_command_as_a_serial_run(tmp_path, monkeypatch, capsys,
                                                           cpus, values, written):
    argv = [*BREACH, "--sweep-values", values]
    ran = tmp_path / "ran.txt"
    monkeypatch.setattr(cli, "run_scenario", recording(ran))
    cpus(1)
    serial = run_cli(tmp_path, capsys, "serial", argv)
    ran.write_text("")
    forks = cpus(2)
    forked = run_cli(tmp_path, capsys, "forked", argv)
    assert len(forks) == 1
    # the breaching lane raised in this process; when it was the child's
    # lane, the child ran it first and sent nothing, and this process ran it
    pids = pids_by_gain(ran)["200000"]
    assert pids[-1] == os.getpid() and len(pids) == (2 if values.startswith("5,") else 1)
    rc, out, err, files = forked
    assert rc == 1 and out == ""
    assert err.startswith("BarrierBreach at t=") and len(err.splitlines()) == 1
    # the planned lane directories exist; only lanes before the breach wrote
    assert sorted(name for name, data in files.items() if data is not None) == written
    assert forked == serial


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot be sent")


def exits_at_once(lanes, fd):
    os._exit(3)


def expire(signum, frame):
    raise TimeoutError("the lane runner is still waiting for a worker")


SWEEP_5_10 = ["sweep", "--config", "sec5a", "--t-final", "0.05", "--sweep-key",
              "control_gain", "--sweep-values", "5,10"]


@pytest.mark.parametrize("how", ["exits", "unpicklable error"])
def test_a_lane_no_worker_sent_runs_in_this_process(tmp_path, monkeypatch, capsys, cpus, how):
    # a worker that dies, or whose lane raises, sends nothing for its lane
    # (lane 1 of two, the child's); this process runs that lane itself
    def run_or_fail(cfg):
        if how != "exits" and cfg.control_gain[0] == 10.0:
            raise Unpicklable()
        return run_scenario(cfg)

    ran = tmp_path / "ran.txt"
    monkeypatch.setattr(cli, "run_scenario", recording(ran, run_or_fail))
    if how == "exits":
        monkeypatch.setattr(cli, "_lane_worker", exits_at_once)
    before = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        if how == "exits":
            cpus(1)
            serial = run_cli(tmp_path, capsys, "serial", SWEEP_5_10)
            ran.write_text("")
            forks = cpus(2)
            assert run_cli(tmp_path, capsys, "forked", SWEEP_5_10) == serial
            assert serial[0] == 0 and len(forks) == 1
        else:
            forks = cpus(2)
            with pytest.raises(Unpicklable) as info:
                cli.main([*SWEEP_5_10, "--out", str(tmp_path / "o")])
            assert len(forks) == 1
            assert "in run_or_fail" in "".join(traceback.format_exception(info.value))
            assert (tmp_path / "o" / "control_gain_5" / "trajectory.csv").is_file()
            assert not (tmp_path / "o" / "control_gain_10" / "trajectory.csv").exists()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)
    assert pids_by_gain(ran)["10"][-1] == os.getpid()


def fail_deep_inside_the_lane():
    raise ValueError("lane 1 went wrong")


def run_or_fail_in_lane_1(cfg):
    if cfg.control_gain[0] == 20.0:
        fail_deep_inside_the_lane()
    return run_scenario(cfg)


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_an_unexpected_error_in_a_lane_keeps_its_traceback(tmp_path, monkeypatch, cpus,
                                                            n_cpus):
    # a forked lane's error is raised by running the lane again in this
    # process, so its traceback is a serial run's
    ran = tmp_path / "ran.txt"
    monkeypatch.setattr(cli, "run_scenario", recording(ran, run_or_fail_in_lane_1))
    forks = cpus(n_cpus)
    with pytest.raises(ValueError) as info:
        cli.main(["sweep", "--config", "sanity", "--out", str(tmp_path / "o"),
                  "--t-final", "0.05", "--sweep-key", "control_gain", "--sweep-values", "5,20"])
    assert len(forks) == n_cpus - 1
    assert pids_by_gain(ran)["20"][-1] == os.getpid()
    assert type(info.value) is ValueError and str(info.value) == "lane 1 went wrong"
    chain = "".join(traceback.format_exception(info.value))
    assert "in fail_deep_inside_the_lane" in chain


def test_forked_compare_runs_lanes_0_and_2_in_process(tmp_path, monkeypatch, cpus):
    # bench/run.py times the lanes this process runs by wrapping cli.run_scenario
    in_process = []

    def recorded(cfg):
        in_process.append(cfg.law)
        return run_scenario(cfg)

    monkeypatch.setattr(cli, "run_scenario", recorded)
    forks = cpus(2)
    laws = ["gradient", "concurrent_learning", "barrier_constrained", "barrier_sigma_mod"]
    assert cli.main(["compare", "--config", "sec5a", "--out", str(tmp_path),
                     "--t-final", "0.05", "--laws", ",".join(laws)]) == 0
    assert len(forks) == 1
    assert in_process == [laws[0], laws[2]]


def test_every_lane_comes_back_as_a_log_and_its_runtime(tmp_path, cpus):
    # lanes 1 and 3 run in the child and come back without their context;
    # sanity's zero_regressor plant keeps a closure, which cannot pickle
    sec5a = replace(cli.load_config("sec5a"), t_final=0.05)
    cfgs = [canonical_config(cfg) for cfg in (
        replace(sec5a, law="gradient"), replace(cli.load_config("sanity"), t_final=0.05),
        sec5a, replace(sec5a, law="barrier_sigma_mod"))]
    lanes = [(cfg, tmp_path / f"{i}.csv") for i, cfg in enumerate(cfgs)]
    forks = cpus(2)
    results = cli._run_lanes(lanes)
    assert len(forks) == 1 and len(results) == len(lanes)
    for i, (cfg, (log, runtime)) in enumerate(zip(cfgs, results)):
        assert type(log) is sim.TrajectoryLog and type(runtime) is float and runtime > 0.0
        if i % 2:
            assert log.context is None
        else:
            assert log.context.cfg == cfg
        here = run_scenario(cfg)
        assert log.columns == here.columns
        assert log.data.dtype == here.data.dtype and log.data.shape == here.data.shape
        assert log.data.tobytes() == here.data.tobytes()


# ---------------------------------------------------------------------------
# logging setup


def test_log_env_configures_level(monkeypatch):
    calls = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: calls.append(kw))
    monkeypatch.setenv("BARADAPT_LOG", "debug")
    cli._setup_logging()
    assert calls and calls[0]["level"] == logging.DEBUG


def test_log_env_ignored_when_unset_or_bad(monkeypatch):
    calls = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: calls.append(kw))
    monkeypatch.delenv("BARADAPT_LOG", raising=False)
    cli._setup_logging()
    monkeypatch.setenv("BARADAPT_LOG", "chatty")
    cli._setup_logging()
    assert calls == []


# ---------------------------------------------------------------------------
# the CLI as its own process


SRC = Path(__file__).resolve().parents[1] / "src"

# (arguments before --out, exit code, the start of the one stderr line)
PROCESS_RUNS = [
    (["run", "--config", "sanity", "--t-final", "0.05"], 0, None),
    (["run", "--config", "sec5b", "--dt", "10", "--t-final", "30"], 1, "BarrierBreach at t="),
    (["run", "--config", "sec5a", "--dt", "0"], 2, "config error: "),
    (["compare", "--config", "sec5a", "--dt", "0.1", "--t-final", "30",
      "--laws", ",".join(law.value for law in UpdateLaw)], 1, "NumericalDivergence at t="),
]


@pytest.mark.parametrize("argv,code,line", PROCESS_RUNS,
                         ids=[" ".join(argv[:3]) for argv, _, _ in PROCESS_RUNS])
def test_cli_process_exit_code_and_stderr(tmp_path, argv, code, line):
    # python -m baradapt.cli exits with main()'s code, and a forked compare
    # reports a lane's error once, as a serial run does, with no traceback
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("BARADAPT_LOG", None)
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "baradapt.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if line is None:
        assert proc.stderr == "" and proc.stdout.startswith(f"run {argv[2]}: ")
        assert (out / "summary.txt").is_file()
    else:
        [err] = proc.stderr.splitlines()
        assert err.startswith(line)
    if code == 2:
        assert not out.exists()
