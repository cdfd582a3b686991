"""Kinodynamic state layout, body parameters, and the planar integrator.

The explicit physical state is a 7-vector shared by the simulator, the
learned model, and the planner's constraint checks:

    [p_x, p_z, pitch, v_x, v_z, pitch_rate, height_offset]

`height_offset` is the crouch/extend proxy for joint state: the support leg
length is ``leg_length + height_offset``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

X_FIELDS = ("p_x", "p_z", "pitch", "v_x", "v_z", "pitch_rate", "height_offset")
X_DIM = 7

IDX_PX, IDX_PZ, IDX_PITCH, IDX_VX, IDX_VZ, IDX_OMEGA, IDX_OFFSET = range(7)

# Translation-invariant slice used as network input: [pitch, v_x, v_z, omega, d]
FEATURE_IDX = (IDX_PITCH, IDX_VX, IDX_VZ, IDX_OMEGA, IDX_OFFSET)
X_FEAT_DIM = len(FEATURE_IDX)


@dataclass
class ModelState:
    """The model-state triple: explicit physical state, recurrent memory,
    stochastic latent."""

    x: np.ndarray  # (7,)
    h: np.ndarray  # (d_h,)
    z: np.ndarray  # (d_z,)


@dataclass(frozen=True)
class BodyParams:
    """Planar rigid body with a height-adjustable point-foot support leg."""

    mass: float = 1.0
    inertia: float = 0.1
    leg_length: float = 0.5
    body_half_height: float = 0.1
    offset_min: float = -0.3
    offset_max: float = 0.15
    gravity: float = 9.81
    contact_tol: float = 0.01
    air_force_scale: float = 0.1  # body forces are weak without ground contact


def x_features(x: np.ndarray) -> np.ndarray:
    """Network-input slice of the state: positions dropped."""
    return np.asarray(x)[..., list(FEATURE_IDX)]


def foot_height(x: np.ndarray, body: BodyParams) -> np.ndarray:
    return np.asarray(x)[..., IDX_PZ] - (body.leg_length + np.asarray(x)[..., IDX_OFFSET])


def relative_rollout(states: np.ndarray, x_ref: np.ndarray) -> np.ndarray:
    """Make predicted-state positions relative to a reference state.

    states: (..., H, 7); x_ref: (..., 7). Velocity/attitude entries pass
    through; p_x and p_z become offsets from the reference.
    """
    states = np.asarray(states, dtype=np.float64).copy()
    ref = np.asarray(x_ref, dtype=np.float64)
    states[..., :, IDX_PX] -= ref[..., None, IDX_PX]
    states[..., :, IDX_PZ] -= ref[..., None, IDX_PZ]
    return states


def advance_state(x: np.ndarray, wrench: np.ndarray, dt: float, body: BodyParams,
                  floor_at=None, gravity_on: bool = True) -> np.ndarray:
    """Semi-implicit Euler step of x: (..., 7) under wrench: (..., 4) =
    [f_x, f_z, torque, height_rate].

    Contact is decided per element from the current state: the foot at or
    below the local floor plus tolerance. In contact the support force
    cancels gravity, downward velocity is absorbed, and unless taking off the
    body height is kinematic (foot planted on the floor at the new position).
    floor_at maps horizontal positions to floor heights; None means free
    flight everywhere.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(wrench, dtype=np.float64)
    g = body.gravity if gravity_on else 0.0

    d2 = np.clip(x[..., IDX_OFFSET] + dt * w[..., 3], body.offset_min, body.offset_max)
    om2 = x[..., IDX_OMEGA] + dt * w[..., 2] / body.inertia
    th2 = x[..., IDX_PITCH] + dt * om2
    vx2 = x[..., IDX_VX] + dt * w[..., 0] / body.mass
    px2 = x[..., IDX_PX] + dt * vx2
    vz2 = x[..., IDX_VZ] + dt * (w[..., 1] / body.mass - g)
    pz2 = x[..., IDX_PZ] + dt * vz2

    if floor_at is not None:
        floor_now = np.asarray(floor_at(x[..., IDX_PX]), dtype=np.float64)
        contact = foot_height(x, body) <= floor_now + body.contact_tol
        lift = np.maximum(w[..., 1] / body.mass - g, 0.0)
        vz_c = np.maximum(x[..., IDX_VZ], 0.0) + dt * lift
        pz_planted = np.asarray(floor_at(px2), dtype=np.float64) + body.leg_length + d2
        pz_c = np.where(vz_c > 0.0, x[..., IDX_PZ] + dt * vz_c, pz_planted)
        vz2 = np.where(contact, vz_c, vz2)
        pz2 = np.where(contact, pz_c, pz2)

    return np.stack([px2, pz2, th2, vx2, vz2, om2, d2], axis=-1)
