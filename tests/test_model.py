"""Internal model: embedding, posterior/prior branches, imagination loop,
and the combined training loss."""

import contextlib
import hashlib
import itertools
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kinoplan import autodiff as ad
from kinoplan.autodiff import Tensor
from kinoplan.env import (ACTION_DIM, HISTORY_SIZE, OBS_DIM, PRIV_EXTRA_DIM,
                          SCAN_MAX_RANGE, SCAN_RAYS)
from kinoplan.errors import DataError, DimensionError, TrainingError
from kinoplan.model import InternalModel, ModelConfig
from kinoplan.nn import Adam
from kinoplan.policy import Actor, Critic
from kinoplan.state import (BodyParams, ModelState, X_DIM, advance_state,
                            x_features)
from kinoplan.terrain import build_terrain
from kinoplan.training import Trainer

from oracles import (composite_integrate, looped_model_loss, max_relative_error,
                     numeric_gradient)
from smoke import smoke_config

CFG = ModelConfig(d_h=24, d_z=6, d_e=16, embed_hidden=16, head_hidden=16,
                  decoder_hidden=24, imagination_horizon=4)
BODY = BodyParams()


@pytest.fixture
def model(rng):
    return InternalModel(CFG, BODY, rng)


def _obs(rng, n=1):
    obs = rng.normal(size=(n, OBS_DIM)) * 0.3
    obs[:, HISTORY_SIZE:] = rng.uniform(0.1, 3.0, size=(n, SCAN_RAYS))
    return obs


def _y0(rng):
    x = np.zeros(X_DIM)
    x[1] = BODY.leg_length
    return ModelState(x, np.zeros(CFG.d_h), np.zeros(CFG.d_z))


# -- embedding -------------------------------------------------------------------

def test_embed_deterministic(model, rng):
    obs = _obs(rng)
    e1 = model.embed(obs).data
    e2 = model.embed(obs).data
    assert e1.tobytes() == e2.tobytes()
    assert e1.shape == (1, CFG.d_e)


def test_embed_clamps_beyond_max_range(model, rng):
    obs = _obs(rng)
    far = obs.copy()
    far[:, HISTORY_SIZE + 10] = 50.0
    obs[:, HISTORY_SIZE + 10] = SCAN_MAX_RANGE
    assert model.embed(obs).data.tobytes() == model.embed(far).data.tobytes()


def test_embed_wrong_length_raises(model):
    with pytest.raises(DimensionError):
        model.embed(np.zeros((1, OBS_DIM + 1)))


def test_embed_gradient_wrt_scan(model, rng):
    model.cast(np.float64)                            # the precision of the check
    obs = _obs(rng)
    scan = Tensor(obs[:, HISTORY_SIZE:] / SCAN_MAX_RANGE, requires_grad=True)
    proprio = Tensor(obs[:, :HISTORY_SIZE])

    def forward():
        pf = model.proprio_enc(proprio)
        sf = model.scan_conv2(model.scan_conv1(
            ad.reshape(scan, (1, 1, SCAN_RAYS))))
        sf = model.scan_proj(ad.reshape(sf, (1, -1)))
        return ad.sum_(ad.square(model.embed_out(ad.concat([pf, sf], axis=-1))))

    scan.grad = None
    forward().backward()
    num = numeric_gradient(lambda: float(forward().data), scan.data)
    assert max_relative_error(scan.grad, num) < 1e-4


# -- posterior / prior -------------------------------------------------------------

def test_posterior_zero_noise_gives_mean(model, rng):
    e = model.embed(_obs(rng))
    h = rng.normal(size=(1, CFG.d_h)) * 0.1
    x_prev = np.zeros((1, X_DIM))
    z, dist, x = model.posterior_update(e, h, x_prev, noise=np.zeros((1, CFG.d_z)))
    assert np.array_equal(z.data, dist.mean.data)


def test_posterior_deterministic_given_noise(model, rng):
    e = model.embed(_obs(rng))
    h = rng.normal(size=(1, CFG.d_h)) * 0.1
    x_prev = np.zeros((1, X_DIM))
    noise = rng.normal(size=(1, CFG.d_z))
    z1, _, x1 = model.posterior_update(e, h, x_prev, noise=noise)
    z2, _, x2 = model.posterior_update(e, h, x_prev, noise=noise)
    assert z1.data.tobytes() == z2.data.tobytes()
    assert x1.data.tobytes() == x2.data.tobytes()


def test_posterior_mean_gradient(model, rng):
    model.cast(np.float64)                            # the precision of the check
    obs = _obs(rng)
    h = Tensor(rng.normal(size=(1, CFG.d_h)) * 0.1, requires_grad=True)
    x_prev = np.zeros((1, X_DIM))

    def forward():
        e = model.embed(obs)
        dist = model.post_z(ad.concat([e, h], axis=-1))
        return ad.sum_(ad.square(dist.mean))

    h.grad = None
    forward().backward()
    num = numeric_gradient(lambda: float(forward().data), h.data)
    assert max_relative_error(h.grad, num) < 1e-4


def _zero_wrench(model):
    for p in model.wrench.named_parameters().values():
        p.data = np.zeros_like(p.data)


def test_prior_zero_wrench_gravity_off_equilibrium(rng):
    model = InternalModel(CFG, replace(BODY, gravity=0.0), rng)
    _zero_wrench(model)
    x_prev = np.zeros((1, X_DIM))
    h = rng.normal(size=(1, CFG.d_h)) * 0.1
    _, _, x = model.prior_update(x_prev, h)
    assert np.array_equal(x.data, x_prev)


def test_prior_zero_wrench_contact_support(model, rng):
    _zero_wrench(model)
    floor = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    x_prev = np.zeros((1, X_DIM))
    x_prev[0, 1] = BODY.leg_length  # standing, foot on floor
    h = rng.normal(size=(1, CFG.d_h)) * 0.1
    _, _, x = model.prior_update(x_prev, h, floor_fn=floor)
    assert x.data[0, 4] == 0.0                                # v_z unchanged
    assert x.data[0, 1] == pytest.approx(BODY.leg_length)     # planted


def test_prior_unit_wrench_semi_implicit(rng):
    model = InternalModel(replace(CFG, dt_model=0.1), replace(BODY, gravity=0.0), rng)
    _zero_wrench(model)
    model.wrench.layers[-1].bias.data[:] = [1.0, 0.0, 0.0, 0.0]
    x_prev = np.zeros((1, X_DIM))
    h = rng.normal(size=(1, CFG.d_h)) * 0.1
    _, _, x = model.prior_update(x_prev, h)
    assert x.data[0, 3] == pytest.approx(0.1)    # v_x = f/m * dt
    assert x.data[0, 0] == pytest.approx(0.01)   # p_x = dt * v_new


def test_prior_integrator_matches_shared_integrator(model, rng):
    """The model's differentiable step is the simulator's integrator
    (without friction), bit for bit, on and off the tape, in free flight and
    in contact on every terrain, so learned-wrench predictions can be exact
    where physics allows."""
    for _ in range(20):
        x_prev = rng.normal(size=(3, X_DIM))
        x_prev[:, 1] += 10.0  # airborne
        wrench = rng.normal(size=(3, 4)) * 5
        for w in (Tensor(wrench), Tensor(wrench, requires_grad=True)):
            got = model.integrate(x_prev, w).data
            _same_bits(got, advance_state(x_prev, wrench, CFG.dt_model, BODY, floor_at=None))
    for kind in ("flat", "slope", "stairs", "gap"):
        terrain = build_terrain(kind, 4)
        for _ in range(20):
            x_prev = rng.normal(size=(6, X_DIM)) * 0.5
            x_prev[:, 0] = rng.uniform(-1.0, 7.0, size=6)
            x_prev[:, 6] = rng.uniform(BODY.offset_min, BODY.offset_max, size=6)
            # four feet on the floor, two just above it
            lift = np.array([0.0, 0.0, 0.0, 0.0, 0.05, 0.3])
            x_prev[:, 1] = (terrain.floor_height(x_prev[:, 0]) + BODY.leg_length
                            + x_prev[:, 6] + lift)
            wrench = rng.normal(size=(6, 4)) * [5.0, 15.0, 5.0, 1.0]
            want = advance_state(x_prev, wrench, CFG.dt_model, BODY,
                                 floor_at=terrain.floor_height)
            for w in (Tensor(wrench), Tensor(wrench, requires_grad=True)):
                _same_bits(model.integrate(x_prev, w, terrain.floor_height).data, want)


def _served(*floors):
    """A floor lookup that answers with `floors` in turn, as model_loss
    serves a batch's floors at p_x and then at p_x'."""
    answers = iter(floors)
    return lambda px: next(answers)


def _same_bits(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_integrate_matches_composite_bit_for_bit(rng):
    """integrate gives the value and the wrench gradient of the same step
    built from elementary ops, with the same bits: on every terrain,
    with feet planted, just above the floor and airborne, the offset clip
    saturated at both ends, in free flight, and with the floor given as a
    lookup or served from the arrays of a training batch. A body whose
    inertia and mass are not 1 keeps every quotient's rounding visible."""
    body = BodyParams(mass=1.3, inertia=0.07)
    model = InternalModel(CFG, body, rng)
    n = 12
    lift = np.array([0.0, 0.0, 0.0, 0.0, -0.004, 0.004, 0.02, 0.3, 0.0, 0.0, 0.0, 0.0])
    for kind in ("flat", "slope", "stairs", "gap"):
        terrain = build_terrain(kind, 4)
        for _ in range(6):
            x_prev = rng.normal(size=(n, X_DIM)) * 0.5
            x_prev[:, 0] = rng.uniform(-1.0, 7.0, size=n)
            x_prev[:, 6] = rng.uniform(body.offset_min, body.offset_max, size=n)
            x_prev[:, 1] = (terrain.floor_height(x_prev[:, 0]) + body.leg_length
                            + x_prev[:, 6] + lift)
            x_prev[:4, 4] = [-0.5, 0.0, -0.0, 0.5]         # planted unless lifting off
            wrench = (rng.normal(size=(n, 4)) * [5.0, 15.0, 5.0, 1.0]).astype(np.float32)
            wrench[8:, 3] = [40.0, -40.0, 40.0, -40.0]      # the offset clip at both ends
            wrench[:2, 1] = [0.0, -0.0]
            g = rng.normal(size=(n, X_DIM))
            g[0] = 0.0
            g[1] = -0.0
            served = (terrain.floor_height(x_prev[:, 0]),
                      terrain.floor_height(x_prev[:, 0] + 0.1 * x_prev[:, 3]))
            floors = {"free flight": lambda: None,
                      "floor lookup": lambda: terrain.floor_height,
                      "floor arrays": lambda: _served(*served)}
            # a float64 wrench shows the float64 gradient before its cast
            for (name, floor), dtype in itertools.product(floors.items(),
                                                         (np.float32, np.float64)):
                results = []
                for step in (model.integrate, lambda *a, **k: composite_integrate(
                        body, CFG.dt_model, *a, **k)):
                    w = Tensor(wrench.astype(dtype), requires_grad=True)
                    y = step(x_prev, w, floor())
                    y.backward(g)
                    results.append((y.data, w.grad))
                for got, ref in zip(*results):
                    _same_bits(got, ref)
                assert results[0][1].dtype == dtype, (kind, name)
                with ad.no_grad():
                    off = model.integrate(x_prev, Tensor(wrench, requires_grad=True), floor())
                assert off._parents == () and off.data.tobytes() == results[0][0].tobytes()


def test_prior_wrench_gradient(model, rng):
    x_prev = rng.normal(size=(2, X_DIM))
    x_prev[:, 1] += 5.0
    w = Tensor(rng.normal(size=(2, 4)), requires_grad=True)

    def forward():
        return ad.sum_(ad.square(model.integrate(x_prev, w)))

    w.grad = None
    forward().backward()
    num = numeric_gradient(lambda: float(forward().data), w.data)
    assert max_relative_error(w.grad, num) < 1e-4


# -- imagination --------------------------------------------------------------------

def _rollout(model, y0, e, horizon, rng):
    return model.rollout_batch(y0.x[None], y0.h[None], y0.z[None], e, horizon, rng=rng)


def _count_branches(model, monkeypatch):
    calls = {"posterior": 0, "prior": 0}

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for name, method in (("posterior", "posterior_update"), ("prior", "prior_update")):
        monkeypatch.setattr(model, method, spy(name, getattr(model, method)))
    return calls


def test_imagine_single_step_uses_posterior(model, rng, monkeypatch):
    calls = _count_branches(model, monkeypatch)
    states, _, (x1, _, _) = _rollout(model, _y0(rng), model.embed(_obs(rng)).data, 1, rng)
    assert states[0].shape == (1, X_DIM)
    assert calls == {"posterior": 1, "prior": 0}
    assert np.array_equal(states[0, 0], x1[0])


@pytest.mark.parametrize("horizon", [1, 4, 8])
def test_imagine_branch_discipline(model, rng, monkeypatch, horizon):
    calls = _count_branches(model, monkeypatch)
    _rollout(model, _y0(rng), model.embed(_obs(rng)).data, horizon, rng)
    assert calls["posterior"] == 1
    assert calls["prior"] == horizon - 1


def test_imagine_deterministic_with_zero_noise(model, rng):
    e = model.embed(_obs(rng)).data
    s1, a1, _ = _rollout(model, _y0(rng), e, 4, None)
    s2, a2, _ = _rollout(model, _y0(rng), e, 4, None)
    assert s1.tobytes() == s2.tobytes()
    assert a1.tobytes() == a2.tobytes()


def test_imagine_horizon_below_one_raises(model, rng):
    with pytest.raises(ValueError):
        _rollout(model, _y0(rng), model.embed(_obs(rng)).data, 0, rng)


def test_imagine_first_state_monte_carlo_mean(model, rng):
    """With a small policy spread, the sample mean of the first predicted
    state approaches the zero-noise rollout within Monte-Carlo error."""
    # shrink the internal policy's randomness so the map is near-linear
    model.policy_head.log_std_layer.weight.data[:] = 0.0
    model.policy_head.log_std_layer.bias.data[:] = -3.0
    e = model.embed(_obs(rng)).data
    y0 = _y0(rng)
    ref, _, _ = _rollout(model, y0, e, 1, None)
    samples = np.zeros((1000, X_DIM))
    for i in range(1000):
        states, _, _ = _rollout(model, y0, e, 1, rng)
        samples[i] = states[0, 0]
    mean = samples.mean(axis=0)
    sem = samples.std(axis=0) / np.sqrt(len(samples)) + 1e-12
    assert np.all(np.abs(mean - ref[0, 0]) <= 3.0 * sem + 1e-9)


# -- loss ---------------------------------------------------------------------------


def _batch(model, rng, B=3, L=4):
    obs = _obs(rng, B * L).reshape(B, L, OBS_DIM)
    return {
        "obs": obs,
        "action": rng.uniform(-1, 1, size=(B, L, CFG.action_dim)),
        "reward": rng.normal(size=(B, L)),
        "value_target": rng.normal(size=(B, L)),
        "x": rng.normal(size=(B, L, X_DIM)) * 0.2,
        "x_next": rng.normal(size=(B, L, X_DIM)) * 0.2,
        "x_prev": rng.normal(size=(B, X_DIM)) * 0.2,
        "floor_now": np.zeros((B, L)) - 10.0,
        "floor_next": np.zeros((B, L)) - 10.0,
    }


def test_model_loss_missing_field_raises(model, rng):
    batch = _batch(model, rng)
    del batch["reward"]
    with pytest.raises(DataError, match="reward"):
        model.model_loss(batch, rng)


def test_model_loss_nonfinite_term_named(model, rng):
    batch = _batch(model, rng)
    batch["reward"][0, 0] = np.nan
    with pytest.raises(TrainingError, match="reward_nll"):
        model.model_loss(batch, rng)


def test_model_loss_kl_zero_when_posterior_equals_prior(model, rng):
    """Forcing both latent heads to the same constant output zeroes the KL
    term, and the total equals the sum of the remaining terms."""
    for head in (model.post_z, model.prior_z):
        for p in head.named_parameters().values():
            p.data = np.zeros_like(p.data)
    batch = _batch(model, rng)
    loss, br = model.model_loss(batch, np.random.default_rng(0))
    assert br["latent_kl"] == pytest.approx(0.0, abs=1e-12)
    rest = sum(v for k, v in br.items() if k not in ("latent_kl", "total"))
    assert br["total"] == pytest.approx(rest, rel=1e-12)


def test_model_loss_com_zero_under_injected_perfect_heads(model, rng):
    """With the x targets generated from the model's own heads (single-step
    sequence, same latent draws), the kinodynamic term vanishes exactly."""
    batch = _batch(model, rng, B=3, L=1)
    B = 3
    seed = 77
    with ad.no_grad():
        h0 = np.zeros((B, CFG.d_h), np.float32)
        e = model.embed(batch["obs"][:, 0])
        # the posterior estimate does not depend on the x target itself
        x_hat = model.posterior_x(e, Tensor(h0), batch["x_prev"]).data
        batch["x"][:, 0] = x_hat
        post = model.post_z(ad.concat([e, Tensor(h0)], axis=-1))
        z = post.sample(noise=np.random.default_rng(seed)
                        .standard_normal((B, CFG.d_z)))
        gin = np.concatenate([x_features(batch["x"][:, 0]), z.data,
                              batch["action"][:, 0]], axis=-1, dtype=np.float32)
        h1 = model.gru(Tensor(gin), Tensor(h0))
        x_next = model.integrate(batch["x"][:, 0], model.wrench(h1),
                                 _served(batch["floor_now"][:, 0], batch["floor_next"][:, 0]))
        batch["x_next"][:, 0] = x_next.data
    _, br = model.model_loss(batch, np.random.default_rng(seed))
    assert br["com"] == pytest.approx(0.0, abs=1e-18)


def test_model_loss_and_gradients_pinned_at_full_size():
    """One default-config model update (B=16, L=16, half the records on
    the floor): the loss breakdown and every parameter gradient, pinned bit
    for bit by a SHA-256 in parameter-name order."""
    rng = np.random.default_rng(2024)
    model = InternalModel(ModelConfig(), BODY, rng)
    B, L = 16, 16
    x = rng.normal(size=(B, L, X_DIM)) * 0.2
    x[..., 6] = rng.uniform(BODY.offset_min, BODY.offset_max, size=(B, L))
    # on the floor (0) in even rows, in the air in odd ones
    x[..., 1] = BODY.leg_length + x[..., 6] + np.where(np.arange(B) % 2, 0.3, 0.0)[:, None]
    batch = {"obs": _obs(rng, B * L).reshape(B, L, OBS_DIM),
             "action": rng.uniform(-1, 1, size=(B, L, ModelConfig().action_dim)),
             "reward": rng.normal(size=(B, L)), "value_target": rng.normal(size=(B, L)),
             "x": x, "x_next": x + rng.normal(size=(B, L, X_DIM)) * 0.05,
             "x_prev": x[:, 0] - rng.normal(size=(B, X_DIM)) * 0.05,
             "floor_now": np.zeros((B, L)), "floor_next": np.zeros((B, L))}
    loss, br = model.model_loss(batch, np.random.default_rng(3))
    loss.backward()
    digest = hashlib.sha256(json.dumps(br, sort_keys=True).encode())
    for name, p in sorted(model.named_parameters().items()):
        assert p.grad is not None and p.grad.dtype == np.float32, name
        digest.update(name.encode())
        digest.update(p.grad.tobytes())
    assert digest.hexdigest() == "a47a12f3bb46906312bf0b9f71405db95531d88a2abb50dbadef1f64aadd3e03"


def test_batched_model_loss_matches_looped_oracle(tmp_path):
    """On a replay batch of a smoke run on stairs, the batched loss gives the
    loop's terms to float32 rounding and its gradients to 1e-5 of each
    parameter's largest entry, and draws the same latent noise."""
    cfg = smoke_config(2, env={"terrain_kind": "stairs", "terrain_level": 2,
                               "terrain_jitter": True})
    tr = Trainer(cfg, str(tmp_path / "run"))
    assert tr.run_iteration()["model_updates"] > 0
    batch = tr.replay.sample_sequences(cfg.train.model_batch, cfg.train.model_seq_len,
                                       np.random.default_rng(0))
    results = []
    for loss_fn in (tr.model.model_loss, lambda b, r: looped_model_loss(tr.model, b, r)):
        draws = np.random.default_rng(11)
        tr.opt_model.zero_grad()
        loss, breakdown = loss_fn(batch, draws)
        loss.backward()
        grads = {k: p.grad.copy() for k, p in tr.model.named_parameters().items()}
        results.append((breakdown, grads, draws.bit_generator.state))
    (got, got_grads, got_state), (want, want_grads, want_state) = results
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-6, abs=0.0), key
    for name, g in want_grads.items():
        scale = float(np.max(np.abs(g)))
        assert np.max(np.abs(got_grads[name] - g)) <= 1e-5 * scale, name
    assert got_state == want_state


def test_model_loss_graph_stays_batched_at_full_size(rng):
    """One default-size model update (B=16, L=16) stays a graph of a few
    hundred tensors: the loop over time steps holds only the recurrence.
    A loss unrolled per step in full builds 2880."""
    model = InternalModel(ModelConfig(), BODY, rng)
    loss, _ = model.model_loss(_batch(model, rng, B=16, L=16), rng)
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    assert len(seen) <= 600


def test_model_loss_deterministic_given_rng(model, rng):
    batch = _batch(model, rng)
    _, b1 = model.model_loss(batch, np.random.default_rng(5))
    _, b2 = model.model_loss(batch, np.random.default_rng(5))
    assert b1 == b2


def test_model_loss_breakdown_has_all_terms(model, rng):
    _, br = model.model_loss(_batch(model, rng), rng)
    for term in ("reward_nll", "value_nll", "latent_kl", "action_cloning",
                 "com", "reconstruction", "total"):
        assert term in br and np.isfinite(br[term])


# -- heads ---------------------------------------------------------------------------

def test_reward_value_heads_deterministic_and_clamped(model, rng):
    x = rng.normal(size=(2, X_DIM))
    h = rng.normal(size=(2, CFG.d_h)) * 0.3
    z = rng.normal(size=(2, CFG.d_z))
    a = rng.uniform(-1, 1, size=(2, CFG.action_dim))
    r1 = model.predict_reward(x, h, z, a)
    r2 = model.predict_reward(x, h, z, a)
    assert r1.mean.data.tobytes() == r2.mean.data.tobytes()
    assert np.all(r1.log_std.data >= -5.0) and np.all(r1.log_std.data <= 2.0)
    v = model.predict_value(x, h, z)
    assert v.mean.data.shape == (2, 1)


# -- entry-point casts ---------------------------------------------------------------

STAIRS_FLOOR = build_terrain("stairs", 2).floor_height


def _feats(v):
    """x's features in the dtype of the other inputs, as a layer takes them."""
    return x_features(v.x).astype(v.h.dtype)


def _gin(v):
    return np.concatenate([_feats(v), v.z, v.a], axis=-1)


# name: (an entry point, the raw layer call it guards); each takes
# (model, actor, critic, inputs) and returns arrays
ENTRY_POINTS = {
    "step prior": (lambda m, ac, cr, v: m.step(v.x, v.h, v.z, v.a, floor_fn=STAIRS_FLOOR),
                   lambda m, ac, cr, v: m.gru(Tensor(_gin(v)), Tensor(v.h))),
    "step posterior": (lambda m, ac, cr, v: m.step(v.x, v.h, v.z, v.a, e=v.e),
                       lambda m, ac, cr, v: m.post_z(np.concatenate([v.e, v.h], axis=-1))),
    "tick": (lambda m, ac, cr, v: m.tick(v.obs, v.x, v.h, v.z, floor_fn=STAIRS_FLOOR),
             lambda m, ac, cr, v: m.proprio_enc(v.obs[:, :HISTORY_SIZE])),
    "predict_reward": (
        lambda m, ac, cr, v: (lambda d: (d.mean.data, d.log_std.data))(
            m.predict_reward(v.x, v.h, v.z, v.a)),
        lambda m, ac, cr, v: m.reward_head(np.concatenate(
            [_feats(v), v.h, v.z, v.a], axis=-1))),
    "predict_value": (
        lambda m, ac, cr, v: (lambda d: (d.mean.data, d.log_std.data))(
            m.predict_value(v.x, v.h, v.z)),
        lambda m, ac, cr, v: m.value_head(np.concatenate([_feats(v), v.h, v.z], axis=-1))),
    "Actor.forward": (
        lambda m, ac, cr, v: (lambda d: (d.mean.data, d.log_std.data))(
            ac(v.obs, v.h, v.rollout)),
        lambda m, ac, cr, v: ac.trunk(np.concatenate([v.obs, v.h, v.rollout], axis=-1))),
    "Critic.forward": (
        lambda m, ac, cr, v: (cr(v.priv, v.h, v.rollout).data,),
        lambda m, ac, cr, v: cr.trunk(np.concatenate([v.priv, v.h, v.rollout], axis=-1))),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_cast_float64_inputs_once(name, model, rng):
    """The layers do not cast, so float64 reaches the networks only through
    their entry points. There, float64 inputs (env observations, planner
    action batches, h and z as an episode's zeros start them) give the bits
    of float32-cast ones; handed straight to a layer, they are refused."""
    n, horizon = 5, CFG.imagination_horizon
    actor = Actor(OBS_DIM, CFG.d_h, horizon, ACTION_DIM, rng, hidden=(16,))
    critic = Critic(OBS_DIM + PRIV_EXTRA_DIM, CFG.d_h, horizon, rng, hidden=(16,))
    x = rng.normal(size=(n, X_DIM)) * 0.2
    x[:, 0] = rng.uniform(0.0, 6.0, size=n)
    x[:, 1] = STAIRS_FLOOR(x[:, 0]) + BODY.leg_length + x[:, 6]      # feet on the floor
    wide = SimpleNamespace(
        x=x, h=rng.normal(size=(n, CFG.d_h)) * 0.3, z=rng.normal(size=(n, CFG.d_z)),
        a=rng.uniform(-1, 1, size=(n, ACTION_DIM)), e=rng.normal(size=(n, CFG.d_e)),
        obs=_obs(rng, n), rollout=rng.normal(size=(n, horizon * X_DIM)),
        priv=rng.normal(size=(n, OBS_DIM + PRIV_EXTRA_DIM)))
    # the state x stays float64: it is the integrators' input, not a network's
    narrow = SimpleNamespace(**{k: v if k == "x" else v.astype(np.float32)
                                for k, v in vars(wide).items()})
    call, layer = ENTRY_POINTS[name]
    got, want = call(model, actor, critic, wide), call(model, actor, critic, narrow)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _same_bits(g, w)
    for off_tape in (contextlib.nullcontext(), ad.no_grad()):
        with off_tape, pytest.raises(DimensionError, match="dtype|widened"):
            layer(model, actor, critic, wide)
        layer(model, actor, critic, narrow)


def test_reward_head_constant_target_regression(model, rng):
    """NLL training on constant reward 1 pulls the head mean to 1 +/- 0.05."""
    opt = Adam(model.reward_head.named_parameters(), lr=1e-2)
    x = rng.normal(size=(16, X_DIM)) * 0.2
    h = rng.normal(size=(16, CFG.d_h)) * 0.2
    z = rng.normal(size=(16, CFG.d_z)) * 0.2
    a = rng.uniform(-1, 1, size=(16, CFG.action_dim))
    target = np.ones((16, 1), np.float32)
    for _ in range(800):
        dist = model.predict_reward(x, h, z, a)
        loss = -ad.mean(dist.log_prob(target))
        opt.zero_grad()
        loss.backward()
        opt.step()
    final = model.predict_reward(x, h, z, a).mean.data
    assert np.all(np.abs(final - 1.0) < 0.05)


def test_decoder_dimension_and_gradient(model, rng):
    model.cast(np.float64)                            # the precision of the check
    x = rng.normal(size=(2, X_DIM))
    h = Tensor(rng.normal(size=(2, CFG.d_h)) * 0.2, requires_grad=True)
    z = rng.normal(size=(2, CFG.d_z))
    dist = model.decoder(model._y_input(x, h.data, z))
    assert dist.mean.data.shape == (2, OBS_DIM)

    target = rng.normal(size=(2, OBS_DIM))

    def forward():
        d = model.decoder(ad.concat(
            [Tensor(np.zeros((2, 5))), h, Tensor(z)], axis=-1))
        return -ad.mean(d.log_prob(target))

    h.grad = None
    forward().backward()
    num = numeric_gradient(lambda: float(forward().data), h.data)
    assert max_relative_error(h.grad, num) < 1e-4


def test_reconstruction_nll_decreases_with_training(model, rng):
    """Decoder NLL on a fixed dataset strictly decreases across epochs
    (smoothed)."""
    params = {}
    for mod in ("decoder", "post_z", "proprio_enc", "scan_conv1", "scan_conv2",
                "scan_proj", "embed_out"):
        for k, v in getattr(model, mod).named_parameters().items():
            params[f"{mod}.{k}"] = v
    opt = Adam(params, lr=1e-3)
    batch = _batch(model, rng, B=6, L=3)
    epoch_means = []
    for epoch in range(4):
        losses = []
        for _ in range(25):
            _, br = model.model_loss(batch, np.random.default_rng(epoch))
            loss, _ = model.model_loss(batch, np.random.default_rng(epoch))
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(br["reconstruction"])
        epoch_means.append(np.mean(losses))
    assert all(b < a for a, b in zip(epoch_means, epoch_means[1:]))
