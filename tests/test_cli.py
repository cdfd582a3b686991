"""CLI contract: exit codes, run-directory artifacts, report schemas, and
determinism of the train/eval pipeline."""

import csv
import json
import os

import numpy as np
import pytest

from kinoplan import evaluate
from kinoplan.cli import main
from kinoplan.config import ExperimentConfig
from kinoplan.env import PlanarEnv
from kinoplan.errors import ConfigError
from kinoplan.model import InternalModel
from kinoplan.policy import Actor
from kinoplan.training import Trainer
from smoke import smoke_config


def _write_config(tmp_path, seed=0, **overrides):
    cfg = smoke_config(seed, **overrides)
    path = tmp_path / "config.json"
    path.write_text(cfg.resolved_json())
    return path


TINY_TRAIN = {"iterations": 3, "num_envs": 2, "steps_per_iteration": 60,
              "checkpoint_every": 2, "save_resume_state": False}


def test_missing_required_field_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"run_tag": "x"}))
    code = main(["train", "--config", str(path)])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_field_exits_2_with_name(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "planner": {"wat": 3}}))
    code = main(["train", "--config", str(path)])
    assert code == 2
    assert "planner.wat" in capsys.readouterr().err


def test_planner_horizon_may_be_shorter_than_imagination_horizon(tmp_path, monkeypatch):
    """A 3-step planner over a 4-step imagined rollout plans (3, 4) action
    plans in an eval episode, and its config trains."""
    cfg = smoke_config(0, planner={"horizon": 3}, train=TINY_TRAIN)
    assert cfg.model.imagination_horizon == 4
    plan_shapes = []
    real_plan = evaluate.mppi_plan

    def recording_plan(*args, **kwargs):
        a0, plan, trace = real_plan(*args, **kwargs)
        plan_shapes.append((plan.mean.shape, plan.std.shape))
        return a0, plan, trace

    monkeypatch.setattr(evaluate, "mppi_plan", recording_plan)
    rng = np.random.default_rng(0)
    m = cfg.model
    model = InternalModel(m, cfg.env.body, rng)
    actor = Actor(cfg.env.obs_dim, m.d_h, m.imagination_horizon, m.action_dim, rng)
    evaluate.run_planner_episode(PlanarEnv(cfg.env, seed=0), model, actor, cfg,
                                 cfg.env.terrain_level, rng)
    assert plan_shapes and set(plan_shapes) == {((3, 4), (3, 4))}

    path = tmp_path / "config.json"
    path.write_text(cfg.resolved_json())
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 0


@pytest.mark.parametrize("section, values, field", [
    ("env", {"history_len": 4, "scan_rays": 73}, "env.history_len"),
    ("env", {"gravity_on": False}, "env.gravity_on"),
    ("model", {"gravity_on": False}, "model.gravity_on"),
    ("planner", {"bootstrap": False}, "planner.bootstrap"),
])
def test_layout_gravity_and_bootstrap_are_not_config_fields(section, values, field):
    """The observation layout is env.py's, gravity is env.body.gravity and
    the eval mode chooses the bootstrap, so no config field sets them."""
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"seed": 0, section: values})
    assert err.value.field == field


def _schema_1(cfg: ExperimentConfig) -> str:
    """`cfg` as config.json was written at config schema version 1."""
    data = cfg.to_dict()
    data["config_schema_version"] = 1
    layout = {"history_len": 5, "scan_rays": 64, "scan_max_range": 3.0,
              "gravity_on": True}
    data["env"].update(layout)
    data["model"].update(layout, proprio_dim=9, action_dim=4)
    data["planner"]["bootstrap"] = True
    return json.dumps(data)


def test_schema_1_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(_schema_1(smoke_config(0, train=TINY_TRAIN)))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert "config_schema_version" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name", ["checkpoint_every", "curriculum_window"])
def test_train_window_fields_must_be_positive(tmp_path, capsys, name):
    with pytest.raises(ConfigError) as err:
        smoke_config(0, train={name: 0})
    assert err.value.field == f"train.{name}"

    data = smoke_config(0).to_dict()
    data["train"][name] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert f"train.{name}" in capsys.readouterr().err


@pytest.mark.parametrize("section, name, value", [
    ("env", "dt", 0.0),
    ("env", "dt", -0.02),
    ("env", "max_steps", 0),
    ("env", "terrain_kind", "lava"),
    ("env", "terrain_level", 9),
    ("env", "terrain_level", -1),
    ("env", "action_low", [-30.0, 60.0, -5.0, -1.5]),
    ("env", "sigma_lin", 0.0),
    ("env", "sigma_ang", -0.5),
    ("model", "imagination_horizon", 0),
    ("model", "d_h", 0),
    ("model", "d_z", 0),
    ("model", "d_e", 0),
    ("model", "embed_hidden", 0),
    ("model", "head_hidden", 0),
    ("model", "decoder_hidden", 0),
    ("planner", "penalty_weight", -1.0),
    ("model", "beta_kl", -0.5),
    ("model", "beta_kl", float("nan")),
    ("train", "learning_rate", 0.0),
    ("train", "learning_rate", -1e-4),
    ("train", "learning_rate", float("nan")),
    ("train", "clip_ratio", 0.0),
    ("train", "clip_ratio", 1.0),
    ("train", "clip_ratio", float("nan")),
    ("train", "entropy_coef", -0.01),
    ("train", "entropy_coef", float("nan")),
    ("train", "model_updates_per_iteration", -1),
    ("train", "grad_clip_model", -1.0),
    ("train", "grad_clip_model", 0.0),
    ("train", "grad_clip_ac", -1.0),
    ("train", "grad_clip_ac", float("nan")),
    ("train", "steps_per_iteration", 121),
])
def test_malformed_config_exits_2_with_field(tmp_path, capsys, section, name, value):
    """Each malformed value is a ConfigError naming its field, raised when
    the config is read, before any run starts."""
    data = smoke_config(0).to_dict()
    data[section][name] = value
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(data)
    field = f"{section}.{name}"
    assert err.value.field == field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_zero_scan_every_is_a_config_error(tmp_path, capsys):
    """`env.scan_every` 0 with a model timestep that rounds to 0 env steps
    passes the two-rate check; validate refuses it before dividing by it."""
    data = smoke_config(0).to_dict()
    data["env"]["scan_every"] = 0
    data["model"]["dt_model"] = 0.001
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(data)
    assert err.value.field == "env.scan_every"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert "env.scan_every" in capsys.readouterr().err


def test_train_creates_run_directory(tmp_path):
    cfg_path = _write_config(tmp_path, train=TINY_TRAIN)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    files = os.listdir(out)
    assert "metrics.jsonl" in files
    assert "config.json" in files
    assert any(f.startswith("checkpoint_") for f in files)
    # resolved config reloads to an identical object
    reloaded = ExperimentConfig.load(out / "config.json")
    assert reloaded.resolved_json() == smoke_config(0, train=TINY_TRAIN).resolved_json()


RESUMABLE_TRAIN = {**TINY_TRAIN, "iterations": 4, "save_resume_state": True}


def test_train_resume_finishes_an_interrupted_run(tmp_path, monkeypatch):
    """A run stopped during iteration 3 and resumed with --resume ends with
    the files of an uninterrupted run, byte for byte."""
    cfg_path = _write_config(tmp_path, seed=6, train=RESUMABLE_TRAIN)
    whole = tmp_path / "whole"
    assert main(["train", "--config", str(cfg_path), "--out", str(whole)]) == 0

    cut = tmp_path / "cut"
    real_iteration = Trainer.run_iteration

    def stops_in_iteration_3(self):
        if self.iteration == 2:
            raise RuntimeError("stopped")
        return real_iteration(self)

    monkeypatch.setattr(Trainer, "run_iteration", stops_in_iteration_3)
    assert main(["train", "--config", str(cfg_path), "--out", str(cut)]) == 1
    monkeypatch.undo()
    assert len((cut / "metrics.jsonl").read_text().splitlines()) == 2

    assert main(["train", "--resume", str(cut)]) == 0
    for name in ("metrics.jsonl", "checkpoint_000004.kpt", "checkpoint_final.kpt",
                 "resume_state.kpt"):
        assert (cut / name).read_bytes() == (whole / name).read_bytes(), name


def test_train_resume_rejects_missing_foreign_or_mismatched_state(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, seed=6,
                             train={**RESUMABLE_TRAIN, "iterations": 1})
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    state = run / "resume_state.kpt"
    written = state.read_bytes()

    assert main(["train", "--resume", str(run), "--out", str(tmp_path / "x")]) == 2

    state.write_bytes((run / "checkpoint_final.kpt").read_bytes())    # foreign
    assert main(["train", "--resume", str(run)]) == 3
    assert "not a resume state" in capsys.readouterr().err

    state.write_bytes(written)                                         # mismatched
    (run / "config.json").write_text(
        smoke_config(7, train={**RESUMABLE_TRAIN, "iterations": 1}).resolved_json())
    assert main(["train", "--resume", str(run)]) == 3
    assert "another config" in capsys.readouterr().err

    (run / "config.json").write_text(                                  # old schema
        _schema_1(smoke_config(6, train={**RESUMABLE_TRAIN, "iterations": 1})))
    assert main(["train", "--resume", str(run)]) == 2
    assert "config_schema_version" in capsys.readouterr().err

    state.unlink()                                                     # missing
    assert main(["train", "--resume", str(run)]) == 3
    assert main(["train", "--resume", str(tmp_path / "no_such_run")]) == 3
    assert "no resume state" in capsys.readouterr().err


def test_same_seed_twice_identical_metrics(tmp_path):
    cfg_path = _write_config(tmp_path, seed=9, train=TINY_TRAIN)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append((out / "metrics.jsonl").read_bytes())
    assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("agent")
    cfg = smoke_config(5, train=TINY_TRAIN)
    (tmp / "config.json").write_text(cfg.resolved_json())
    out = tmp / "run"
    assert main(["train", "--config", str(tmp / "config.json"),
                 "--out", str(out)]) == 0
    return str(out / "checkpoint_final.kpt")


def test_eval_report_rows_and_schema(tmp_path, trained_checkpoint):
    out = tmp_path / "eval"
    code = main(["eval", "--checkpoint", trained_checkpoint,
                 "--mode", "policy_only,planner,planner_no_bootstrap",
                 "--terrains", "flat,gap", "--levels", "0,1", "--seeds", "0",
                 "--episodes", "1", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["rows"]) == 2 * 2 * 3  # terrains x levels x modes
    for row in report["rows"]:
        assert row["sample_count"] == 1
        assert "success_rate" in row and "mean_return" in row
        if row["mode"].startswith("planner"):
            assert "violation_count" in row
    with open(out / "report.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(report["rows"])
    traces = [json.loads(line) for line in
              (out / "planner_traces.jsonl").read_text().splitlines()]
    assert traces and all(t["schema_version"] == 1 for t in traces)


def test_eval_deterministic_given_seed(tmp_path, trained_checkpoint):
    reports = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        main(["eval", "--checkpoint", trained_checkpoint, "--mode", "planner",
              "--terrains", "flat", "--levels", "0", "--seeds", "3",
              "--episodes", "1", "--out", str(out)])
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("flag, value", [("--episodes", "0"), ("--seeds", ""),
                                         ("--mode", ""), ("--terrains", ""),
                                         ("--levels", "")])
def test_eval_rejects_empty_inputs(tmp_path, trained_checkpoint, capsys, flag, value):
    args = {"--mode": "policy_only", "--terrains": "flat", "--levels": "0",
            "--seeds": "0", "--episodes": "1", flag: value}
    out = tmp_path / "e"
    code = main(["eval", "--checkpoint", trained_checkpoint, "--out", str(out),
                 *[part for item in args.items() for part in item]])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_trace_columns(tmp_path, trained_checkpoint):
    out = tmp_path / "tr"
    code = main(["trace", "--checkpoint", trained_checkpoint, "--terrain", "flat",
                 "--level", "0", "--seed", "1", "--out", str(out)])
    assert code == 0
    files = [f for f in os.listdir(out) if f.endswith(".csv")]
    assert len(files) == 1
    with open(out / files[0]) as f:
        rows = list(csv.reader(f))
    horizon = smoke_config(5).planner.horizon
    assert len(rows[0]) == horizon + 2
    assert rows[0][0] == "t" and rows[0][-1] == "actual_pz"
    assert len(rows) > 1


def test_checkpoint_mismatch_exits_3(tmp_path, trained_checkpoint):
    bad = tmp_path / "bad.kpt"
    raw = open(trained_checkpoint, "rb").read()
    bad.write_bytes(raw.replace(b'"format_version": 1', b'"format_version": 4', 1))
    code = main(["eval", "--checkpoint", str(bad), "--mode", "policy_only",
                 "--terrains", "flat", "--levels", "0", "--seeds", "0",
                 "--episodes", "1", "--out", str(tmp_path / "e")])
    assert code == 3


def test_schema_1_checkpoint_exits_2(tmp_path, trained_checkpoint, capsys):
    header, _, body = open(trained_checkpoint, "rb").read().partition(b"\n")
    edited = json.loads(header)
    edited["meta"]["config"]["config_schema_version"] = 1
    old = tmp_path / "old.kpt"
    old.write_bytes(json.dumps(edited).encode() + b"\n" + body)
    code = main(["eval", "--checkpoint", str(old), "--mode", "policy_only",
                 "--terrains", "flat", "--levels", "0", "--seeds", "0",
                 "--episodes", "1", "--out", str(tmp_path / "e")])
    assert code == 2
    assert "config_schema_version" in capsys.readouterr().err


def test_malformed_checkpoint_header_exits_3(tmp_path, trained_checkpoint):
    header, _, body = open(trained_checkpoint, "rb").read().partition(b"\n")
    edited = json.loads(header)
    edited["meta"] = [edited["meta"]]
    bad = tmp_path / "bad.kpt"
    bad.write_bytes(json.dumps(edited).encode() + b"\n" + body)
    code = main(["eval", "--checkpoint", str(bad), "--mode", "policy_only",
                 "--terrains", "flat", "--levels", "0", "--seeds", "0",
                 "--episodes", "1", "--out", str(tmp_path / "e")])
    assert code == 3


def test_not_a_checkpoint_exits_3(tmp_path):
    bogus = tmp_path / "x.kpt"
    bogus.write_bytes(b"not a checkpoint\n")
    code = main(["eval", "--checkpoint", str(bogus), "--mode", "policy_only",
                 "--terrains", "flat", "--levels", "0", "--seeds", "0",
                 "--episodes", "1", "--out", str(tmp_path / "e")])
    assert code == 3


def test_out_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("KINOPLAN_OUT_ROOT", str(tmp_path / "root"))
    cfg_path = _write_config(tmp_path, seed=1,
                             train={**TINY_TRAIN, "iterations": 1})
    assert main(["train", "--config", str(cfg_path)]) == 0
    runs = os.listdir(tmp_path / "root")
    assert len(runs) == 1 and runs[0].startswith("smoke_s1")


def test_train_out_dir_from_flag_then_config(tmp_path, monkeypatch):
    monkeypatch.setenv("KINOPLAN_OUT_ROOT", str(tmp_path / "root"))
    cfg_path = _write_config(tmp_path, seed=1, out_dir=str(tmp_path / "from_config"),
                             train={**TINY_TRAIN, "iterations": 1})
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert "metrics.jsonl" in os.listdir(tmp_path / "from_config")
    assert main(["train", "--config", str(cfg_path), "--out",
                 str(tmp_path / "from_flag")]) == 0
    assert "metrics.jsonl" in os.listdir(tmp_path / "from_flag")
    assert not (tmp_path / "root").exists()
