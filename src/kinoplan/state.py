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

    def copy(self) -> "ModelState":
        return ModelState(self.x.copy(), self.h.copy(), self.z.copy())


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


def advance_free(x: np.ndarray, wrench: np.ndarray, dt: float, body: BodyParams,
                 gravity_on: bool = True) -> np.ndarray:
    """Semi-implicit Euler step with no ground interaction.

    x: (..., 7); wrench: (..., 4) = [f_x, f_z, torque, height_rate].
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(wrench, dtype=np.float64)
    out = np.empty_like(x)
    g = body.gravity if gravity_on else 0.0

    d2 = np.clip(x[..., IDX_OFFSET] + dt * w[..., 3], body.offset_min, body.offset_max)
    om2 = x[..., IDX_OMEGA] + dt * w[..., 2] / body.inertia
    th2 = x[..., IDX_PITCH] + dt * om2
    vx2 = x[..., IDX_VX] + dt * w[..., 0] / body.mass
    px2 = x[..., IDX_PX] + dt * vx2
    vz2 = x[..., IDX_VZ] + dt * (w[..., 1] / body.mass - g)
    pz2 = x[..., IDX_PZ] + dt * vz2

    out[..., IDX_PX] = px2
    out[..., IDX_PZ] = pz2
    out[..., IDX_PITCH] = th2
    out[..., IDX_VX] = vx2
    out[..., IDX_VZ] = vz2
    out[..., IDX_OMEGA] = om2
    out[..., IDX_OFFSET] = d2
    return out


def advance_contact(x: np.ndarray, wrench: np.ndarray, dt: float, body: BodyParams,
                    floor_at, gravity_on: bool = True) -> np.ndarray:
    """Semi-implicit Euler step in contact mode: the support force cancels
    gravity, downward velocity is absorbed, and while not taking off the body
    height is kinematic (foot planted on the floor at the new position).

    floor_at: callable mapping horizontal positions to floor heights.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(wrench, dtype=np.float64)
    out = np.empty_like(x)
    g = body.gravity if gravity_on else 0.0

    d2 = np.clip(x[..., IDX_OFFSET] + dt * w[..., 3], body.offset_min, body.offset_max)
    om2 = x[..., IDX_OMEGA] + dt * w[..., 2] / body.inertia
    th2 = x[..., IDX_PITCH] + dt * om2
    vx2 = x[..., IDX_VX] + dt * w[..., 0] / body.mass
    px2 = x[..., IDX_PX] + dt * vx2

    lift = np.maximum(w[..., 1] / body.mass - g, 0.0)
    vz2 = np.maximum(x[..., IDX_VZ], 0.0) + dt * lift
    pz_air = x[..., IDX_PZ] + dt * vz2
    pz_planted = np.asarray(floor_at(px2), dtype=np.float64) + body.leg_length + d2
    pz2 = np.where(vz2 > 0.0, pz_air, pz_planted)

    out[..., IDX_PX] = px2
    out[..., IDX_PZ] = pz2
    out[..., IDX_PITCH] = th2
    out[..., IDX_VX] = vx2
    out[..., IDX_VZ] = vz2
    out[..., IDX_OMEGA] = om2
    out[..., IDX_OFFSET] = d2
    return out


def advance_state(x: np.ndarray, wrench: np.ndarray, dt: float, body: BodyParams,
                  floor_at=None, gravity_on: bool = True) -> np.ndarray:
    """Full step: contact is decided per element from the current state
    (foot at or below the local floor plus tolerance); None floor_at means
    free flight everywhere."""
    x = np.asarray(x, dtype=np.float64)
    free = advance_free(x, wrench, dt, body, gravity_on)
    if floor_at is None:
        return free
    floor_now = np.asarray(floor_at(x[..., IDX_PX]), dtype=np.float64)
    contact = foot_height(x, body) <= floor_now + body.contact_tol
    if not np.any(contact):
        return free
    planted = advance_contact(x, wrench, dt, body, floor_at, gravity_on)
    return np.where(contact[..., None], planted, free)
