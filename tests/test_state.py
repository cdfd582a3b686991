"""Kinodynamic state layout and the semi-implicit planar integrator."""

from dataclasses import replace

import numpy as np
import pytest

from kinoplan.state import (BodyParams, advance_state, relative_rollout, x_features,
                            IDX_PX, IDX_PZ, IDX_VX, IDX_VZ, X_DIM)

from oracles import foot_height

BODY = BodyParams()


def test_features_drop_positions():
    x = np.arange(7.0)
    feats = x_features(x)
    assert feats.shape == (5,)
    assert np.array_equal(feats, [2.0, 3.0, 4.0, 5.0, 6.0])


def test_relative_rollout_offsets_positions():
    states = np.tile(np.arange(7.0), (3, 1))
    ref = np.zeros(7)
    ref[IDX_PX], ref[IDX_PZ] = 10.0, 0.5
    rel = relative_rollout(states, ref)
    assert np.allclose(rel[:, IDX_PX], -10.0)
    assert np.allclose(rel[:, IDX_PZ], 0.5)
    assert np.allclose(rel[:, 2:], states[:, 2:])


def test_free_flight_zero_wrench_gravity_off_is_identity():
    x = np.zeros(X_DIM)
    x2 = advance_state(x, np.zeros(4), 0.1, replace(BODY, gravity=0.0), floor_at=None)
    assert np.array_equal(x2, x)


def test_contact_support_cancels_gravity():
    x = np.zeros(X_DIM)
    x[IDX_PZ] = BODY.leg_length  # foot exactly on the floor
    floor = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    x2 = advance_state(x, np.zeros(4), 0.1, BODY, floor_at=floor)
    assert x2[IDX_VZ] == 0.0
    assert x2[IDX_PZ] == pytest.approx(BODY.leg_length)


def test_semi_implicit_single_step():
    x = np.zeros(X_DIM)
    wrench = np.array([1.0, 0.0, 0.0, 0.0])
    x2 = advance_state(x, wrench, 0.1, replace(BODY, gravity=0.0), floor_at=None)
    assert x2[IDX_VX] == pytest.approx(0.1)
    assert x2[IDX_PX] == pytest.approx(0.01)


def test_free_fall_gravity():
    x = np.zeros(X_DIM)
    x[IDX_PZ] = 5.0
    x2 = advance_state(x, np.zeros(4), 0.02, BODY, floor_at=None)
    assert x2[IDX_VZ] == pytest.approx(-BODY.gravity * 0.02)


def test_contact_jump_when_force_exceeds_weight():
    x = np.zeros(X_DIM)
    x[IDX_PZ] = BODY.leg_length
    floor = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    wrench = np.array([0.0, 2.0 * BODY.mass * BODY.gravity, 0.0, 0.0])
    x2 = advance_state(x, wrench, 0.1, BODY, floor_at=floor)
    assert x2[IDX_VZ] == pytest.approx(0.1 * BODY.gravity)
    assert x2[IDX_PZ] > BODY.leg_length  # leaving the ground


def test_batched_mixed_contact():
    xs = np.zeros((2, X_DIM))
    xs[0, IDX_PZ] = BODY.leg_length        # in contact
    xs[1, IDX_PZ] = BODY.leg_length + 1.0  # airborne
    floor = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    out = advance_state(xs, np.zeros((2, 4)), 0.02, BODY, floor_at=floor)
    assert out[0, IDX_VZ] == 0.0
    assert out[1, IDX_VZ] == pytest.approx(-BODY.gravity * 0.02)
    assert foot_height(out[0], BODY) == pytest.approx(0.0)
