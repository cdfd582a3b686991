"""Kinodynamic state layout, body parameters, and the planar integrator.

The explicit physical state is a 7-vector shared by the simulator, the
learned model, and the planner's constraint checks:

    [p_x, p_z, pitch, v_x, v_z, pitch_rate, height_offset]

`height_offset` is the crouch/extend proxy for joint state: the support leg
length is ``leg_length + height_offset``.

`advance_state` is the one integrator: `env.step_state` advances every env
of a batch (or the one env of a `PlanarEnv`) through one call of it, and
`InternalModel.integrate` is one call of it without friction, with a
hand-written gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def select(cond, a, b):
    """np.where with one condition per state: `cond` has the states' leading
    shape, and `a` and `b` may add trailing axes. A single state's scalar
    condition makes a plain choice, at a fraction of np.where's cost on
    numpy scalars."""
    if isinstance(cond, (bool, np.bool_)):
        return a if cond else b
    extra = max(getattr(a, "ndim", 0), getattr(b, "ndim", 0)) - cond.ndim
    if extra > 0:
        cond = cond.reshape(cond.shape + (1,) * extra)
    return np.where(cond, a, b)


def advance_state(x: np.ndarray, wrench: np.ndarray, dt: float, body: BodyParams,
                  floor_at=None, friction=0.0) -> np.ndarray:
    """Semi-implicit Euler step of x: (..., 7) under wrench: (..., 4) =
    [f_x, f_z, torque, height_rate], either of x's leading shape or one
    wrench for all.

    Contact is decided per element from the current state: the foot at or
    below the local floor plus tolerance. In contact, Coulomb drag with the
    coefficient `friction` (0 = none; a scalar, or one per state of a (B, 7)
    batch) slows v_x by at most friction * gravity * dt before p_x advances,
    the support force cancels gravity, downward velocity is absorbed, and
    unless taking off the body height is kinematic (foot planted on the
    floor at the new position). floor_at maps horizontal positions to floor
    heights and is asked once at p_x, then once at p_x'; None means free
    flight everywhere.
    """
    # Unpacking the columns with .T, and choosing through select(), keeps a
    # single state's values numpy scalars rather than 0-d arrays, whose ufunc
    # calls cost several times more in the simulator's step of one env.
    px, pz, th, vx, vz, om, d = np.asarray(x, dtype=np.float64).T
    fx, fz, tau, drate = np.asarray(wrench, dtype=np.float64).T
    g = body.gravity

    d2 = np.minimum(np.maximum(d + dt * drate, body.offset_min), body.offset_max)
    om2 = om + dt * tau / body.inertia
    th2 = th + dt * om2
    vx2 = vx + dt * fx / body.mass
    vz2 = vz + dt * (fz / body.mass - g)

    if floor_at is None:
        px2 = px + dt * vx2
        pz2 = pz + dt * vz2
    else:
        contact = pz - (body.leg_length + d) <= floor_at(px) + body.contact_tol
        if np.any(friction > 0.0):          # Coulomb drag; none without friction
            dv = np.minimum(friction * g * dt, np.abs(vx2))
            vx2 = select(contact & (friction > 0.0), vx2 - np.copysign(dv, vx2), vx2)
        px2 = px + dt * vx2
        vz_c = np.maximum(vz, 0.0) + dt * np.maximum(fz / body.mass - g, 0.0)
        vz2 = select(contact, vz_c, vz2)
        planted = contact & (vz2 <= 0.0)
        pz2 = select(planted, floor_at(px2) + body.leg_length + d2, pz + dt * vz2)

    return np.array([px2, pz2, th2, vx2, vz2, om2, d2]).T
