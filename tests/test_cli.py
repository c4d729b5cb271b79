import json
import logging
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from baradapt import cli, history, sim
from baradapt.errors import ConfigError
from baradapt.sim import canonical_config, run_scenario, steady_state_rms


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
    assert cli.bundled_config_names() == ["sanity", "sec5a", "sec5b", "sec5c"]


def test_load_config_accepts_path_and_suffixed_name(tmp_path):
    cfg = cli.load_config("sec5b.json")
    assert cfg.name == "sec5b"
    path = tmp_path / "own.json"
    path.write_text(json.dumps(cli.config_to_dict(cfg)))
    assert cli.load_config(str(path)) == cfg
    with pytest.raises(ConfigError, match="neither a file nor a bundled"):
        cli.load_config("sec5z")


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


def test_run_rejects_missing_config(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


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
    assert rms == steady_state_rms(direct)
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
