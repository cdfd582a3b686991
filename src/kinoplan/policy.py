"""Expert actor and privileged critic.

Both consume the observation plus stop-gradient copies of the recurrent
memory h and the flattened imagined rollout; the critic additionally sees
privileged simulator information. Actions live in the normalized box
[-1, 1]^m; the environment maps them onto physical wrench bounds. Each
forward casts its inputs to NET_DTYPE once, as it concatenates them.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError
from .nn import LOG_STD_MAX, LOG_STD_MIN, MLP, NET_DTYPE, DiagonalGaussian, Module
from .state import X_DIM


class Actor(Module):
    def __init__(self, obs_dim: int, d_h: int, horizon: int, action_dim: int,
                 rng: np.random.Generator, hidden: tuple[int, ...] = (256, 256),
                 init_log_std: float = math.log(0.5)):
        self.obs_dim = obs_dim
        self.d_h = d_h
        self.rollout_dim = horizon * X_DIM
        self.action_dim = action_dim
        in_dim = obs_dim + d_h + self.rollout_dim
        self.trunk = MLP([in_dim, *hidden, action_dim], rng)
        self.log_std = Tensor(np.full(action_dim, init_log_std), requires_grad=True)
        self.cast(NET_DTYPE)

    def forward(self, obs, h, rollout_flat) -> DiagonalGaussian:
        obs, h, rollout_flat = np.atleast_2d(obs, h, rollout_flat)
        if obs.shape[-1] != self.obs_dim or h.shape[-1] != self.d_h \
                or rollout_flat.shape[-1] != self.rollout_dim:
            raise DimensionError(
                f"actor inputs ({obs.shape[-1]}, {h.shape[-1]}, {rollout_flat.shape[-1]}) "
                f"!= expected ({self.obs_dim}, {self.d_h}, {self.rollout_dim})")
        mean = self.trunk(Tensor(np.concatenate([obs, h, rollout_flat], axis=-1,
                                                dtype=NET_DTYPE)))
        log_std = Tensor(np.ones((obs.shape[0], 1), dtype=NET_DTYPE)) * ad.clip(
            self.log_std, LOG_STD_MIN, LOG_STD_MAX)
        return DiagonalGaussian(mean, log_std)


class Critic(Module):
    def __init__(self, priv_dim: int, d_h: int, horizon: int,
                 rng: np.random.Generator, hidden: tuple[int, ...] = (256, 256)):
        self.priv_dim = priv_dim
        self.d_h = d_h
        self.rollout_dim = horizon * X_DIM
        self.trunk = MLP([priv_dim + d_h + self.rollout_dim, *hidden, 1], rng)
        self.cast(NET_DTYPE)

    def forward(self, priv, h, rollout_flat):
        priv, h, rollout_flat = np.atleast_2d(priv, h, rollout_flat)
        if priv.shape[-1] != self.priv_dim:
            raise DimensionError(
                f"critic privileged input {priv.shape[-1]} != expected {self.priv_dim}")
        out = self.trunk(Tensor(np.concatenate([priv, h, rollout_flat], axis=-1,
                                               dtype=NET_DTYPE)))
        return out[:, 0]
