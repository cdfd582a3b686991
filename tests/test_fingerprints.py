"""Smoke-size fingerprints: the parameters after three training iterations
and one planner and one policy episode of the trained agent, pinned bit for
bit on three seeds of flat ground and one of jittered stairs.

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
    0: (("237b5e540afb", "ce98a7504610", "798219ed3aeb"),
        (-29.445859542573025, 51), (19.88109640464228, 32)),
    7: (("c039331cd51f", "e9d1535d3438", "fc81a7d57202"),
        (24.06049377843319, 17), (8.371484889842181, 12)),
}

# A flat seed whose first three iterations each update the model (seed 7's
# episodes are too short to fill a model sequence that early).
MODEL_UPDATE_FINGERPRINTS = {
    2: (("e4de8dfde051", "1397bd9248ac", "842c1211f3c1"),
        (74.68956276593154, 56), (90.25535222208696, 91)),
}

# Stairs at level 2 with jitter, where the model trains from the first
# iteration on and the floor lookup leaves flat ground.
STAIRS = {"terrain_kind": "stairs", "terrain_level": 2, "terrain_jitter": True}
STAIRS_FINGERPRINTS = {
    2: (("31bc17749926", "c47999ba3a7f", "4015b98a74f6"),
        (52.39442724412397, 73), (82.14650461940252, 94)),
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


@pytest.mark.parametrize("seed", sorted(MODEL_UPDATE_FINGERPRINTS))
def test_smoke_fingerprints_with_model_updates(tmp_path, seed):
    _check_fingerprint(tmp_path, seed, MODEL_UPDATE_FINGERPRINTS[seed], smoke_config(seed),
                       model_updates=True)


@pytest.mark.parametrize("seed", sorted(STAIRS_FINGERPRINTS))
def test_stairs_fingerprints(tmp_path, seed):
    _check_fingerprint(tmp_path, seed, STAIRS_FINGERPRINTS[seed],
                       smoke_config(seed, env=STAIRS), model_updates=True)
