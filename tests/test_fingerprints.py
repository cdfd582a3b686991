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
    0: (("23916e92bb53", "5c0979e8fdd7", "fac29a803def"),
        (-6.297797564997136, 45), (64.90735202809, 82)),
    7: (("c039331cd51f", "a36cd1fdc40a", "9508dbaa5f39"),
        (26.15056072942234, 19), (11.460420640491233, 14)),
}

# A flat seed whose first three iterations each update the model (seed 7's
# episodes are too short to fill a model sequence that early).
MODEL_UPDATE_FINGERPRINTS = {
    2: (("698d34dc675a", "adbdc0dad1fc", "22753d2b6015"),
        (107.4642837928888, 96), (132.14073669463656, 99)),
}

# Stairs at level 2 with jitter, where the model trains from the first
# iteration on and the floor lookup leaves flat ground.
STAIRS = {"terrain_kind": "stairs", "terrain_level": 2, "terrain_jitter": True}
STAIRS_FINGERPRINTS = {
    2: (("a45aea618be9", "489b996e1378", "4715303b68bc"),
        (81.34212544635798, 104), (30.191468154094654, 81)),
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
