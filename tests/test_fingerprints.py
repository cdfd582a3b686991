"""Smoke-size fingerprints: the parameters after three training iterations
and one planner and one policy episode of the trained agent, pinned bit for
bit on two seeds.

A refactor keeps these values. A deliberate behaviour change (a simulator
fix, a PPO step-size rule, a network dtype) updates them in its own change,
with an entry in CHANGES.md that says why they moved.
"""

import numpy as np
import pytest

from kinoplan.env import PlanarEnv
from kinoplan.evaluate import run_planner_episode, run_policy_episode
from kinoplan.nn import param_checksum
from kinoplan.training import Trainer
from smoke import smoke_config

# seed: (model, actor, critic checksum prefixes), (planner return, steps),
# (policy return, steps)
FINGERPRINTS = {
    0: (("8f54df15a5e0", "541f03bfcb13", "2fdce900d940"),
        (23.8004193712829, 20), (279.067342275041, 223)),
    7: (("115e36447365", "8900cad82ebd", "0bb62a2aaca2"),
        (26.187178882450453, 19), (15.333445404948765, 13)),
}


@pytest.mark.parametrize("seed", sorted(FINGERPRINTS))
def test_smoke_fingerprints(tmp_path, seed):
    checksums, planner, policy = FINGERPRINTS[seed]
    cfg = smoke_config(seed)
    tr = Trainer(cfg, str(tmp_path / "run"))
    for _ in range(3):
        tr.run_iteration()
    assert tuple(param_checksum(m)[:12] for m in (tr.model, tr.actor, tr.critic)) \
        == checksums

    level = cfg.env.terrain_level
    for run, expected in ((run_planner_episode, planner), (run_policy_episode, policy)):
        out = run(PlanarEnv(cfg.env, seed=seed), tr.model, tr.actor, cfg, level,
                  np.random.default_rng(seed))
        assert (out.episode_return, out.steps) == expected, run.__name__
