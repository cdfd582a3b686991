"""Terrain profiles, difficulty scaling, and the ray-cast depth scan."""

import numpy as np
import pytest

from kinoplan.errors import ConfigError
from kinoplan.state import BodyParams
from kinoplan.terrain import (MAX_LEVEL, TERRAIN_KINDS, build_terrain,
                              crawl_clearance, gap_width, raycast,
                              render_depth_scan, slope_angle_deg, step_rise)

# the level-defining scalar of each kind, oriented so harder is larger
DIFFICULTY = {
    "flat": lambda level: 0.0,
    "slope": slope_angle_deg,
    "stairs": step_rise,
    "gap": gap_width,
    "crawl": lambda level: -crawl_clearance(level),   # lower clearance is harder
}


@pytest.mark.parametrize("kind", TERRAIN_KINDS)
def test_difficulty_parameter_monotone(kind):
    params = [DIFFICULTY[kind](lvl) for lvl in range(MAX_LEVEL + 1)]
    assert all(b >= a for a, b in zip(params, params[1:]))


def test_unknown_kind_and_level_raise():
    with pytest.raises(ConfigError):
        build_terrain("lava", 0)
    with pytest.raises(ConfigError):
        build_terrain("flat", 9)


def test_crawl_clearance_respects_min_crouch():
    body = BodyParams()
    min_crouch_top = body.leg_length + body.offset_min + body.body_half_height
    for lvl in range(MAX_LEVEL + 1):
        terrain = build_terrain("crawl", lvl)
        s = np.linspace(-2, 10, 400)
        gapv = terrain.ceiling_height(s) - terrain.floor_height(s)
        assert np.all(gapv >= min_crouch_top)


def test_crawl_clearance_range():
    assert crawl_clearance(0) == pytest.approx(0.6)
    assert crawl_clearance(MAX_LEVEL) == pytest.approx(0.36)


def test_gap_and_stairs_have_discontinuities():
    assert build_terrain("gap", 3).discontinuities.size == 4
    assert build_terrain("stairs", 3).discontinuities.size == 10
    assert build_terrain("flat", 0).discontinuities.size == 0


def test_gap_floor_depth():
    t = build_terrain("gap", 8)
    centers = [2.5, 5.5]
    assert t.floor_height(centers[0]) == pytest.approx(-1.0)
    assert t.floor_height(0.0) == pytest.approx(0.0, abs=1e-6)


def test_terrain_jitter_is_seeded():
    r = np.random.default_rng(3)
    t1 = build_terrain("gap", 4, np.random.default_rng(3), jitter=True)
    t2 = build_terrain("gap", 4, np.random.default_rng(3), jitter=True)
    t3 = build_terrain("gap", 4, np.random.default_rng(4), jitter=True)
    assert np.array_equal(t1.floor_x, t2.floor_x)
    assert not np.array_equal(t1.floor_x, t3.floor_x)


def test_raycast_flat_floor_analytic():
    terrain = build_terrain("flat", 0)
    segs = terrain.segments()
    origin = np.array([0.0, 1.0])
    # straight down, 45 degrees down-forward, horizontal (no hit)
    angles = np.array([-np.pi / 2, -np.pi / 4, 0.0])
    d = raycast(origin, angles, segs, max_range=10.0)
    assert d[0] == pytest.approx(1.0, abs=1e-9)
    assert d[1] == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert d[2] == pytest.approx(10.0)


def test_raycast_clamps_beyond_max_range():
    terrain = build_terrain("flat", 0)
    d = raycast(np.array([0.0, 5.0]), np.array([-np.pi / 2]), terrain.segments(), 3.0)
    assert d[0] == 3.0


def test_scan_ignores_terrain_behind():
    t1 = build_terrain("flat", 0)
    behind = build_terrain("flat", 0)
    behind.floor_x = np.array([-3.0, -2.0, -2.0 + 1e-9, -1.5, -1.5 + 1e-9, 12.0])
    behind.floor_z = np.array([0.0, 0.0, 2.0, 2.0, 0.0, 0.0])
    ahead = build_terrain("flat", 0)
    ahead.floor_x = np.array([-3.0, 1.5, 1.5 + 1e-9, 2.0, 2.0 + 1e-9, 12.0])
    ahead.floor_z = np.array([0.0, 0.0, 2.0, 2.0, 0.0, 0.0])
    x = np.zeros(7)
    x[1] = 0.5
    s1 = render_depth_scan(x, t1, 32, 3.0)
    s_behind = render_depth_scan(x, behind, 32, 3.0)
    s_ahead = render_depth_scan(x, ahead, 32, 3.0)
    # a wall behind changes nothing (up to representation roundoff);
    # the same wall ahead plainly does
    assert np.max(np.abs(s1 - s_behind)) < 1e-9
    assert np.max(np.abs(s1 - s_ahead)) > 0.1


def test_scan_values_positive_and_clamped():
    for kind in TERRAIN_KINDS:
        t = build_terrain(kind, 5)
        x = np.array([1.0, t.floor_height(1.0) + 0.5, 0.1, 0, 0, 0, 0])
        scan = render_depth_scan(x, t, 64, 3.0)
        assert np.all(scan > 0.0) and np.all(scan <= 3.0)


def test_crawl_scan_sees_ceiling_wall():
    t = build_terrain("crawl", 8)
    x = np.array([2.0, 0.5, 0.0, 0, 0, 0, 0])
    scan_with = render_depth_scan(x, t, 64, 3.0)
    flat = build_terrain("flat", 0)
    scan_without = render_depth_scan(x, flat, 64, 3.0)
    assert np.any(scan_with < scan_without)  # slab face intercepts forward rays
