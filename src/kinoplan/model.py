"""The learned internal model: recurrent memory, stochastic latent, explicit
kinodynamic state, and the heads that make it a dynamics/return oracle.

Components: observation preprocessing (proprio MLP + scan conv stack) into an
embedding e; a GRU core updating memory h from (state features, latent,
action); an encoder pair estimating (z, x) from (e, h); a dynamics pair
predicting (z, x) from h alone, with x advanced by a learned wrench through
the fixed semi-implicit integrator; a decoder reconstructing the observation
vector; reward/value heads; and an internal policy used to drive imagined
rollouts.

All inference runs through two methods. `step` advances a batch of model
states by one action: the GRU, then the encoder branch when an embedding is
given, otherwise the dynamics prior. `tick` is one model-rate refresh: embed
the observation, roll H steps with the internal policy (the first through
the encoder) and return the post-encoder state with the imagined rollout
relative to it. Training collection, policy evaluation and the planner
adapter all call these two. `model_loss` is the training-time path: per
time step it runs only the recurrence (the posterior latent, its draw and
the GRU), and the embedding, prior, heads and integrator once over all L·B
rows. The floor lookup is an explicit `floor_fn` argument, never model
state. The public methods cast their network inputs to the model's dtype
once; the layers below them do not cast.

The model takes the env's observation and action layout from `env`'s
constants (HISTORY_SIZE proprio columns, then SCAN_RAYS readings scaled by
SCAN_MAX_RANGE; ACTION_DIM) and its gravity from the `BodyParams` it is
built with, the env's own `EnvConfig.body`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .env import ACTION_DIM, HISTORY_SIZE, OBS_DIM, SCAN_MAX_RANGE, SCAN_RAYS
from .errors import DataError, DimensionError, TrainingError
from .nn import (NET_DTYPE, Conv1d, Dense, DiagonalGaussian, GaussianHead, GruCell, MLP,
                 Module)
from .state import (BodyParams, IDX_PITCH, IDX_PX, IDX_PZ, IDX_VZ, X_DIM, X_FEAT_DIM,
                    advance_state, relative_rollout, x_features)


@dataclass(frozen=True)
class ModelConfig:
    d_h: int = 128
    d_z: int = 16
    d_e: int = 64
    dt_model: float = 0.1
    imagination_horizon: int = 8
    beta_kl: float = 1.0
    embed_hidden: int = 48
    head_hidden: int = 64
    decoder_hidden: int = 128

    @property
    def action_dim(self) -> int:
        return ACTION_DIM


LOSS_TERMS = ("reward_nll", "value_nll", "latent_kl", "action_cloning", "com", "reconstruction")

_BATCH_FIELDS = ("obs", "action", "reward", "value_target", "x", "x_next",
                 "x_prev", "floor_now", "floor_next")


class InternalModel(Module):
    def __init__(self, cfg: ModelConfig, body: BodyParams,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.cfg = cfg
        self.body = body

        # observation preprocessing
        self.proprio_enc = Dense(HISTORY_SIZE, cfg.embed_hidden, "elu", rng)
        self.scan_conv1 = Conv1d(1, 8, 5, 2, rng)
        self.scan_conv2 = Conv1d(8, 16, 5, 2, rng)
        scan_flat = 16 * self.scan_conv2.out_length(self.scan_conv1.out_length(SCAN_RAYS))
        self.scan_proj = Dense(scan_flat, cfg.embed_hidden, "elu", rng)
        self.embed_out = Dense(2 * cfg.embed_hidden, cfg.d_e, "elu", rng)

        # recurrent core and state heads
        gin = X_FEAT_DIM + cfg.d_z + ACTION_DIM
        self.gru = GruCell(gin, cfg.d_h, rng)
        self.post_z = GaussianHead(cfg.d_e + cfg.d_h, cfg.d_z, [cfg.head_hidden], rng)
        self.post_x = MLP([cfg.d_e + cfg.d_h, cfg.head_hidden, X_DIM], rng)
        self.prior_z = GaussianHead(cfg.d_h, cfg.d_z, [cfg.head_hidden], rng)
        self.wrench = MLP([cfg.d_h, cfg.head_hidden, ACTION_DIM], rng)

        # distribution heads over the model state
        ydim = X_FEAT_DIM + cfg.d_h + cfg.d_z
        self.decoder = GaussianHead(ydim, OBS_DIM, [cfg.decoder_hidden], rng)
        self.reward_head = GaussianHead(ydim + ACTION_DIM, 1, [cfg.head_hidden], rng)
        self.value_head = GaussianHead(ydim, 1, [cfg.head_hidden], rng)
        self.policy_head = GaussianHead(ydim, ACTION_DIM, [cfg.head_hidden], rng)
        self.cast(NET_DTYPE)

    @property
    def dtype(self) -> np.dtype:
        """The networks' dtype: NET_DTYPE, or what `cast` gave them."""
        return self.gru.w_x.data.dtype

    # -- observation handling ---------------------------------------------------

    def obs_target(self, obs_flat: np.ndarray) -> np.ndarray:
        """Normalized observation vector (scan scaled into [0, 1]) used as the
        embedding input and the reconstruction target."""
        out = np.array(obs_flat, dtype=self.dtype)
        if out.shape[-1] != OBS_DIM:
            raise DimensionError(
                f"observation length {out.shape[-1]} != expected {OBS_DIM}")
        out[..., HISTORY_SIZE:] = np.clip(out[..., HISTORY_SIZE:], 0.0, SCAN_MAX_RANGE) \
            / SCAN_MAX_RANGE
        return out

    def embed(self, obs_flat) -> Tensor:
        """Deterministic observation embedding from a (B, obs_dim) batch."""
        target = self.obs_target(np.atleast_2d(obs_flat))
        proprio = Tensor(target[:, :HISTORY_SIZE])
        scan = Tensor(target[:, HISTORY_SIZE:].reshape(target.shape[0], 1, SCAN_RAYS))
        pfeat = self.proprio_enc(proprio)
        sfeat = self.scan_conv2(self.scan_conv1(scan))
        sfeat = self.scan_proj(ad.reshape(sfeat, (target.shape[0], -1)))
        return self.embed_out(ad.concat([pfeat, sfeat], axis=-1))

    # -- state heads -------------------------------------------------------------

    def _assemble_x(self, raw: Tensor, x_prev: np.ndarray) -> Tensor:
        """Positions are predicted as odometric deltas from the previous state;
        the remaining entries are direct head outputs."""
        x_prev = np.atleast_2d(x_prev)
        px = raw[:, IDX_PX:IDX_PX + 1] + x_prev[:, IDX_PX:IDX_PX + 1]
        pz = raw[:, IDX_PZ:IDX_PZ + 1] + x_prev[:, IDX_PZ:IDX_PZ + 1]
        return ad.concat([px, pz, raw[:, IDX_PITCH:]], axis=-1)

    def posterior_x(self, e: Tensor, h: Tensor, x_prev: np.ndarray) -> Tensor:
        e, h = ad.astype(e, self.dtype), ad.astype(h, self.dtype)
        raw = ad.astype(self.post_x(ad.concat([e, h], axis=-1)), np.float64)
        return self._assemble_x(raw, x_prev)

    def posterior_update(self, e, h_next, x_prev, rng=None, noise=None):
        """Encoder branch: sample z from the posterior, estimate x from (e, h)."""
        e, h_next = ad.astype(e, self.dtype), ad.astype(h_next, self.dtype)
        dist = self.post_z(ad.concat([e, h_next], axis=-1))
        # zero noise: mean + 0.0 has the bits of mean + std * 0 (std is finite)
        z = dist.mean + 0.0 if rng is None and noise is None else dist.sample(rng, noise)
        x = self.posterior_x(e, h_next, x_prev)
        return z, dist, x

    def prior_update(self, x_prev, h_next, rng=None, floor_fn=None):
        """Dynamics branch: sample z from the prior (its mean with rng None);
        advance x by the learned wrench through the semi-implicit integrator
        with contact mode. The floor heights come from the terrain lookup
        `floor_fn`; without it, the body is in free flight."""
        h_next = ad.astype(h_next, self.dtype)
        dist = self.prior_z(h_next)
        z = dist.mean + 0.0 if rng is None else dist.sample(rng)
        x = self.integrate(x_prev, self.wrench(h_next), floor_fn)
        return z, dist, x

    def integrate(self, x_prev: np.ndarray, wrench: Tensor, floor_at=None) -> Tensor:
        """`advance_state` without friction at the model's dt, under a
        predicted wrench in float64: one tape node. `floor_at` is
        advance_state's floor lookup, asked at p_x and then at p_x' (None:
        free flight)."""
        wrench = ad.astype(wrench, np.float64)
        x_prev = np.atleast_2d(np.asarray(x_prev, dtype=np.float64))
        body, dt = self.body, self.cfg.dt_model
        if not ad.on_tape(wrench):
            return Tensor(advance_state(x_prev, wrench.data, dt, body, floor_at))
        floors = []

        def floor_seen(px):
            floors.append(floor_at(px))
            return floors[-1]

        out = advance_state(x_prev, wrench.data, dt, body,
                            None if floor_at is None else floor_seen)

        def backward(grad):
            # the products and sums, in order, of advance_state's chain of ops,
            # its masks rebuilt from its inputs, output and first floor answer
            g_px, g_pz, g_th, g_vx, g_vz, g_om, g_d = grad.T
            _, pz, _, _, _, _, d = x_prev.T
            _, fz, _, drate = wrench.data.T
            contact = False
            if floors:
                contact = pz - (body.leg_length + d) <= floors[0] + body.contact_tol
                planted = contact & (out[:, IDX_VZ] <= 0.0)
                g_d = g_d + np.where(planted, g_pz, 0.0)
                g_pz = np.where(planted, 0.0, g_pz)
            g_vz = g_vz + g_pz * dt
            d_free = d + dt * drate
            inside = (d_free >= body.offset_min) & (d_free <= body.offset_max)
            lift = fz / body.mass - body.gravity
            g_w = np.zeros_like(wrench.data)
            g_w[:, 0] += (g_vx + g_px * dt) / body.mass * dt
            g_w[:, 1] += (np.where(contact, 0.0, g_vz) * dt / body.mass
                          + np.where(contact, g_vz, 0.0) * dt * (lift > 0.0) / body.mass)
            g_w[:, 2] += (g_om + g_th * dt) / body.inertia * dt
            g_w[:, 3] += g_d * inside * dt
            return (g_w,)

        return ad.node(out, (wrench,), backward)

    # -- distribution heads -------------------------------------------------------

    def _gru_input(self, x, z, a) -> Tensor:
        """The GRU's input [state features, latent, action] in the model's
        dtype, off the tape: the latent enters as a constant."""
        return Tensor(np.concatenate([x_features(x), z, a], axis=-1, dtype=self.dtype))

    def _y_input(self, x, h, z) -> Tensor:
        dtype = self.dtype
        feats = Tensor(x_features(np.atleast_2d(x)).astype(dtype))
        return ad.concat([feats, ad.astype(h, dtype), ad.astype(z, dtype)], axis=-1)

    def predict_reward(self, x, h, z, action) -> DiagonalGaussian:
        a = ad.astype(action, self.dtype)
        return self.reward_head(ad.concat([self._y_input(x, h, z), a], axis=-1))

    def predict_value(self, x, h, z) -> DiagonalGaussian:
        return self.value_head(self._y_input(x, h, z))

    def internal_policy(self, x, h, z) -> DiagonalGaussian:
        return self.policy_head(self._y_input(x, h, z))

    # -- inference ---------------------------------------------------------------

    def step(self, x, h, z, a, rng=None, e=None, floor_fn=None):
        """One model step of a batch (inference only): the GRU advances the
        memory from (state features, latent, action), then the encoder branch
        estimates (z, x) from the embedding `e` if given, otherwise the
        dynamics prior predicts them. rng None draws zero latent noise.

        Returns the next (x, h, z) as arrays.
        """
        with no_grad():
            h_next = self.gru(self._gru_input(x, z, a), ad.astype(h, self.dtype)).data
            if e is not None:
                z_next, _, x_next = self.posterior_update(e, h_next, x, rng=rng)
            else:
                z_next, _, x_next = self.prior_update(x, h_next, rng=rng,
                                                      floor_fn=floor_fn)
        return x_next.data, h_next, z_next.data

    def rollout_batch(self, x, h, z, e, horizon: int, rng=None, floor_fn=None):
        """Roll a batch `horizon` steps driven by the internal policy,
        the first step through the encoder branch (embedding `e`), later ones
        through the dynamics prior. rng None makes every draw deterministic
        (policy means, zero latent noise); actions are clipped to [-1, 1].

        Returns (states (B, H, 7), actions (B, H, m), (x1, h1, z1)) where
        (x1, h1, z1) is the batch state after the first step.
        """
        if horizon < 1:
            raise ValueError(f"imagination horizon must be >= 1, got {horizon}")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        h = np.atleast_2d(np.asarray(h, dtype=self.dtype))
        z = np.atleast_2d(np.asarray(z, dtype=self.dtype))
        states = np.zeros((x.shape[0], horizon, X_DIM))
        actions = np.zeros((x.shape[0], horizon, ACTION_DIM))
        with no_grad():
            for k in range(horizon):
                dist = self.internal_policy(x, h, z)
                a_t = dist.sample(rng=rng) if rng is not None else dist.mean
                a = np.minimum(np.maximum(a_t.data, -1.0), 1.0)
                x, h, z = self.step(x, h, z, a, rng=rng, e=e if k == 0 else None,
                                    floor_fn=floor_fn)
                states[:, k] = x
                actions[:, k] = a
                if k == 0:
                    first = (x, h, z)
        return states, actions, first

    def tick(self, obs, x, h, z, rng=None, floor_fn=None):
        """One model-rate refresh of a batch from its (B, obs_dim)
        observations: embed, roll `imagination_horizon` steps from
        (x, h, z), and return (x1, h1, z1, rollout_flat) with the
        post-encoder state and the imagined states relative to x1, flattened
        to (B, H * 7)."""
        with no_grad():
            e = self.embed(obs).data
        states, _, (x1, h1, z1) = self.rollout_batch(
            x, h, z, e, self.cfg.imagination_horizon, rng=rng, floor_fn=floor_fn)
        return x1, h1, z1, relative_rollout(states, x1).reshape(x1.shape[0], -1)

    # -- training loss ----------------------------------------------------------------

    def model_loss(self, batch: dict, rng: np.random.Generator):
        """Combined supervised loss over length-L sequences, each term the sum
        over time of its batch mean. Returns (scalar Tensor, per-term float
        dict). Only `post_z` on (e_t, h_t), the latent draw and the GRU step
        run per step. Once over the L·B time-major rows run the embedding
        (before the loop), the prior and KL on the pre-step memories, the
        heads on y = [x features, h, z] and `posterior_x`, and the wrench and
        integrator on the post-step memories (after it)."""
        for name in _BATCH_FIELDS:
            if name not in batch:
                raise DataError(f"batch missing field '{name}'")
        bsz, L = np.shape(batch["reward"])

        def rows(name, dtype):
            """A (B, L, ...) field as (L·B, ...) time-major rows, (L·B, 1) for (B, L)."""
            return np.asarray(batch[name], dtype=dtype).swapaxes(0, 1).reshape(L * bsz, -1)

        dtype = self.dtype
        obs, action = rows("obs", dtype), rows("action", dtype)
        x, x_next = rows("x", np.float64), rows("x_next", np.float64)
        x_prev = np.concatenate([batch["x_prev"], x[:-bsz]], dtype=np.float64)

        e = self.embed(obs)
        h = Tensor(np.zeros((bsz, self.cfg.d_h), dtype=dtype))
        hs, zs, posts = [h], [], []
        for t in range(L):
            now = slice(t * bsz, (t + 1) * bsz)
            posts.append(self.post_z(ad.concat([e[now], h], axis=-1)))
            zs.append(posts[-1].sample(noise=rng.standard_normal((bsz, self.cfg.d_z))))
            h = self.gru(self._gru_input(x[now], zs[-1].data, action[now]), h)
            hs.append(h)

        h_pre, h_post = ad.concat(hs[:-1], axis=0), ad.concat(hs[1:], axis=0)
        post = DiagonalGaussian(ad.concat([p.mean for p in posts], axis=0),
                                ad.concat([p.log_std for p in posts], axis=0))
        y = self._y_input(x, h_pre, ad.concat(zs, axis=0))
        # the prior state prediction conditions on the post-action memory
        floors = (rows(name, np.float64)[:, 0] for name in ("floor_now", "floor_next"))
        x_hat_next = self.integrate(x, self.wrench(h_post), lambda px: next(floors))
        per_row = {
            "reward_nll": -self.reward_head(ad.concat([y, Tensor(action)], axis=-1))
            .log_prob(rows("reward", dtype)),
            "value_nll": -self.value_head(y).log_prob(rows("value_target", dtype)),
            "latent_kl": post.kl(self.prior_z(h_pre)),
            "action_cloning": -self.policy_head(y).log_prob(action),
            "com": ad.sum_(ad.square(self.posterior_x(e, h_pre, x_prev) - x), axis=-1)
            + ad.sum_(ad.square(x_hat_next - x_next), axis=-1),
            "reconstruction": -self.decoder(y).log_prob(self.obs_target(obs)),
        }

        breakdown = {}
        loss = None
        for key in LOSS_TERMS:
            # the sum over time of batch means: all L·B rows summed in float64, over B
            term = ad.sum_(ad.astype(per_row[key], np.float64)) * (1.0 / bsz)
            value = float(term.data)
            if not np.isfinite(value):
                raise TrainingError(f"non-finite model loss term '{key}'")
            breakdown[key] = value
            weighted = term * self.cfg.beta_kl if key == "latent_kl" else term
            loss = weighted if loss is None else loss + weighted
        breakdown["total"] = float(loss.data)
        return loss, breakdown
