"""The tiny flat-terrain experiment config the tests run."""

from kinoplan.config import ExperimentConfig


def smoke_config(seed: int = 0, **overrides) -> ExperimentConfig:
    """Tiny flat-terrain setup; each override dict is merged into its section."""
    base = dict(
        seed=seed,
        run_tag="smoke",
        env={"terrain_kind": "flat", "terrain_level": 0, "max_steps": 300,
             "terrain_jitter": False},
        model={"d_h": 48, "d_z": 8, "d_e": 32, "embed_hidden": 32,
               "head_hidden": 32, "decoder_hidden": 48, "imagination_horizon": 4},
        planner={"horizon": 4, "iterations": 2, "samples": 48,
                 "policy_samples": 8, "elites": 8},
        train={"iterations": 20, "steps_per_iteration": 120, "num_envs": 2,
               "model_updates_per_iteration": 2, "model_batch": 8,
               "model_seq_len": 8, "checkpoint_every": 10},
    )
    for key, value in overrides.items():
        if isinstance(value, dict) and key in base and isinstance(base[key], dict):
            base[key] = {**base[key], **value}
        else:
            base[key] = value
    return ExperimentConfig.from_dict(base)
