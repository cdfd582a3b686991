"""The dtype rule: the networks are float32 (parameters, gradients, Adam
moments, activations); the kinodynamic state, its integrators and the
planner's plans are float64; float64 (pre-float32) agent files are refused."""

import numpy as np
import pytest

from kinoplan.autodiff import Tensor
from kinoplan.cli import main
from kinoplan.env import HISTORY_SIZE, OBS_DIM
from kinoplan.errors import ArtifactMismatchError
from kinoplan.evaluate import load_agent
from kinoplan.model import InternalModel, ModelConfig
from kinoplan.nn import NET_DTYPE, load_checkpoint, save_checkpoint
from kinoplan.planner import ModelPlannerAdapter, PlannerConfig, ConstraintSet, mppi_plan
from kinoplan.policy import Actor
from kinoplan.state import BodyParams, ModelState, X_DIM, advance_state
from kinoplan.training import Trainer
from smoke import smoke_config

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def test_network_dtype_is_float32():
    assert np.dtype(NET_DTYPE) == F32


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A smoke trainer after its first iteration with a model update."""
    tr = Trainer(smoke_config(0), str(tmp_path_factory.mktemp("run")))
    while not tr.run_iteration()["model_updates"]:
        assert tr.iteration < 5
    return tr


def test_networks_gradients_and_adam_moments_are_float32(trained):
    tr = trained
    for opt in (tr.opt_model, tr.opt_ac):
        assert opt.params
        for name, p in opt.params.items():
            assert p.data.dtype == F32, name
            assert p.grad is not None and p.grad.dtype == F32, name
            assert opt.m[name].dtype == F32 and opt.v[name].dtype == F32, name
    assert set(tr.opt_model.params) == set(tr.model.named_parameters())


def test_state_and_records_stay_float64(trained):
    tr = trained
    assert tr.collector.x.dtype == F64
    assert tr.collector.h.dtype == F32 and tr.collector.rollout_cur.dtype == F32
    replay = tr.replay.state_arrays()
    for field in ("x", "floor_now", "reward", "value_target", "terminal_x"):
        assert replay[field].dtype == F64, field


def test_integrators_return_float64(rng):
    body = BodyParams()
    model = InternalModel(ModelConfig(d_h=8, d_z=2, d_e=8, embed_hidden=8, head_hidden=8,
                                      decoder_hidden=8, imagination_horizon=2), body, rng)
    x = rng.normal(size=(3, X_DIM))
    wrench = rng.normal(size=(3, 4))
    assert advance_state(x, wrench, 0.1, body).dtype == F64
    got = model.integrate(x, Tensor(wrench.astype(np.float32)))
    assert got.data.dtype == F64
    want = advance_state(x, wrench.astype(np.float32).astype(np.float64), 0.1, body)
    assert np.array_equal(got.data, want)
    _, h, _ = model.step(x, np.zeros((3, 8)), np.zeros((3, 2)), np.zeros((3, 4)))
    x_next, _, _ = model.step(x, h, np.zeros((3, 2)), np.zeros((3, 4)))
    assert h.dtype == F32 and x_next.dtype == F64


def test_planner_call_returns_a_float64_plan(rng):
    cfg = ModelConfig(d_h=16, d_z=4, d_e=12, embed_hidden=12, head_hidden=12,
                      decoder_hidden=16, imagination_horizon=3)
    model = InternalModel(cfg, BodyParams(), rng)
    actor = Actor(OBS_DIM, cfg.d_h, 3, cfg.action_dim, rng, hidden=(16,))
    adapter = ModelPlannerAdapter(model, actor)
    obs = np.zeros(OBS_DIM)
    obs[HISTORY_SIZE:] = 1.5
    adapter.begin_tick(obs)
    x0 = np.zeros(X_DIM)
    x0[1] = 0.5
    y0 = ModelState(x0, np.zeros(cfg.d_h), np.zeros(cfg.d_z))
    pcfg = PlannerConfig(horizon=3, iterations=2, samples=16, policy_samples=4, elites=4)
    a0, plan, trace = mppi_plan(None, y0, adapter, pcfg, ConstraintSet(),
                                np.random.default_rng(0))
    assert a0.dtype == F64 and plan.mean.dtype == F64 and plan.std.dtype == F64
    assert trace.one_step_predicted_x.dtype == F64
    assert adapter.tick_state.x.dtype == F64 and adapter.tick_state.h.dtype == F32


def _widened(arrays: dict) -> dict:
    """The arrays as a float64 build wrote them: every float as float64."""
    return {k: v.astype(np.float64) if v.dtype == F32 else v for k, v in arrays.items()}


def test_float64_agent_checkpoint_is_refused(tmp_path, trained, capsys):
    path = tmp_path / "agent.kpt"
    trained.save_checkpoint(str(path))
    assert load_agent(str(path))[1].proprio_enc.weight.data.dtype == F32
    arrays, meta = load_checkpoint(str(path))
    save_checkpoint(str(path), _widened(arrays), meta)
    with pytest.raises(ArtifactMismatchError, match="float64"):
        load_agent(str(path))
    assert main(["eval", "--checkpoint", str(path), "--episodes", "1",
                 "--out", str(tmp_path / "eval")]) == 3
    assert "artifact mismatch" in capsys.readouterr().err


def test_float64_resume_file_is_refused(tmp_path):
    cfg = smoke_config(4, train={"iterations": 3, "num_envs": 2,
                                 "steps_per_iteration": 50})
    tr = Trainer(cfg, str(tmp_path / "a"))
    tr.run_iteration()
    path = tmp_path / "state.kpt"
    tr.save_resume_state(str(path))
    arrays, meta = load_checkpoint(str(path))
    save_checkpoint(str(path), _widened(arrays), meta)
    with pytest.raises(ArtifactMismatchError, match="float64"):
        Trainer(cfg, str(tmp_path / "b")).load_resume_state(str(path))
