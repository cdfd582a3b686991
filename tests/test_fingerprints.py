"""Smoke-size fingerprints: the parameters after three training iterations
and one planner and one policy episode of the trained agent, pinned bit for
bit on two seeds of flat ground and one of jittered stairs.

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
    0: (("2d9a73240268", "86d388ef7273", "e26ff3fe792b"),
        (-0.1270201865795264, 42), (272.64239318737856, 216)),
    7: (("c039331cd51f", "96a3cae5c8f0", "d0c5846163cc"),
        (22.656105328639928, 18), (15.33055990820513, 13)),
}

# Stairs at level 2 with jitter, where the model trains from the first
# iteration on and the floor lookup leaves flat ground.
STAIRS = {"terrain_kind": "stairs", "terrain_level": 2, "terrain_jitter": True}
STAIRS_FINGERPRINTS = {
    2: (("f407a881b618", "d60e849a4309", "42c64896bb69"),
        (58.28573765499259, 76), (50.349505281191504, 81)),
}


def _check_fingerprint(tmp_path, seed, expected, cfg, model_updates=False):
    checksums, planner, policy = expected
    tr = Trainer(cfg, str(tmp_path / "run"))
    for _ in range(3):
        row = tr.run_iteration()
        if model_updates:
            assert row["model_updates"] > 0
    assert tuple(param_checksum(m)[:12] for m in (tr.model, tr.actor, tr.critic)) \
        == checksums

    level = cfg.env.terrain_level
    for run, expected in ((run_planner_episode, planner), (run_policy_episode, policy)):
        out = run(PlanarEnv(cfg.env, seed=seed), tr.model, tr.actor, cfg, level,
                  np.random.default_rng(seed))
        assert (out.episode_return, out.steps) == expected, run.__name__


@pytest.mark.parametrize("seed", sorted(FINGERPRINTS))
def test_smoke_fingerprints(tmp_path, seed):
    _check_fingerprint(tmp_path, seed, FINGERPRINTS[seed], smoke_config(seed))


@pytest.mark.parametrize("seed", sorted(STAIRS_FINGERPRINTS))
def test_stairs_fingerprints(tmp_path, seed):
    _check_fingerprint(tmp_path, seed, STAIRS_FINGERPRINTS[seed],
                       smoke_config(seed, env=STAIRS), model_updates=True)
