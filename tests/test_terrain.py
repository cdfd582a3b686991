"""Terrain profiles, difficulty scaling, and the ray-cast depth scan."""

import numpy as np
import pytest

from kinoplan.env import EnvConfig, PlanarEnv
from kinoplan.errors import ConfigError
from kinoplan.state import BodyParams
from kinoplan.terrain import (MAX_LEVEL, SKY, TERRAIN_KINDS, X_MAX, X_MIN, build_terrain,
                              crawl_clearance, gap_width, interp_rows, raycast,
                              render_depth_scan, slope_angle_deg, step_rise)

# the level-defining scalar of each kind, oriented so harder is larger
DIFFICULTY = {
    "flat": lambda level: 0.0,
    "slope": slope_angle_deg,
    "stairs": step_rise,
    "gap": gap_width,
    "crawl": lambda level: -crawl_clearance(level, BodyParams()),   # lower is harder
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
        ceiling = np.interp(s, terrain.ceiling_x, terrain.ceiling_z, left=SKY, right=SKY)
        gapv = ceiling - terrain.floor_height(s)
        assert np.all(gapv >= min_crouch_top)


def test_crawl_clearance_range():
    assert crawl_clearance(0, BodyParams()) == pytest.approx(0.6)
    assert crawl_clearance(MAX_LEVEL, BodyParams()) == pytest.approx(0.36)


def test_crawl_clearance_follows_the_env_body():
    """An env's crawl slab sits at its own body's standing top, lowered with
    the level, and every level stays passable in that body's deepest crouch:
    here 0.6 * (0.8 + 0.2) >= 0.8 - 0.45 + 0.2."""
    body = BodyParams(leg_length=0.8, body_half_height=0.2, offset_min=-0.45,
                      offset_max=0.25)
    min_crouch_top = body.leg_length + body.offset_min + body.body_half_height
    env = PlanarEnv(EnvConfig(terrain_kind="crawl", body=body), seed=0)
    for lvl in range(MAX_LEVEL + 1):
        env.reset(level=lvl)
        terrain = env.terrain
        assert np.all(terrain.ceiling_z == (1.0 - 0.4 * lvl / MAX_LEVEL))   # top 0.8 + 0.2
        assert crawl_clearance(lvl, body) == terrain.ceiling_z[0]
        s = np.linspace(-2, 10, 400)
        ceiling = np.interp(s, terrain.ceiling_x, terrain.ceiling_z, left=SKY, right=SKY)
        assert np.all(ceiling - terrain.floor_height(s) >= min_crouch_top)


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
    s1 = render_depth_scan(x, t1.segments(), 32, 3.0)
    s_behind = render_depth_scan(x, behind.segments(), 32, 3.0)
    s_ahead = render_depth_scan(x, ahead.segments(), 32, 3.0)
    # a wall behind changes nothing (up to representation roundoff);
    # the same wall ahead plainly does
    assert np.max(np.abs(s1 - s_behind)) < 1e-9
    assert np.max(np.abs(s1 - s_ahead)) > 0.1


def test_scan_values_positive_and_clamped():
    for kind in TERRAIN_KINDS:
        t = build_terrain(kind, 5)
        x = np.array([1.0, t.floor_height(1.0) + 0.5, 0.1, 0, 0, 0, 0])
        scan = render_depth_scan(x, t.segments(), 64, 3.0)
        assert np.all(scan > 0.0) and np.all(scan <= 3.0)


def test_crawl_scan_sees_ceiling_wall():
    t = build_terrain("crawl", 8)
    x = np.array([2.0, 0.5, 0.0, 0, 0, 0, 0])
    scan_with = render_depth_scan(x, t.segments(), 64, 3.0)
    flat = build_terrain("flat", 0)
    scan_without = render_depth_scan(x, flat.segments(), 64, 3.0)
    assert np.any(scan_with < scan_without)  # slab face intercepts forward rays


def test_interp_rows_is_np_interp_bit_for_bit():
    """The batched lookup over padded polylines equals np.interp per row at
    breakpoints, between them, on 1e-9 risers, outside the polyline and on
    NaN, with default and given end values."""
    rng = np.random.default_rng(0)
    profiles = [build_terrain(kind, 6, rng, jitter=True) for kind in TERRAIN_KINDS]
    width = max(len(t.floor_x) for t in profiles)
    xp = np.stack([np.pad(t.floor_x, (0, width - len(t.floor_x)), mode="edge")
                   for t in profiles])
    fp = np.stack([np.pad(t.floor_z, (0, width - len(t.floor_z)), mode="edge")
                   for t in profiles])
    specials = [X_MIN - 1.0, X_MAX + 1.0, np.nan, -np.inf, np.inf]
    queries = np.stack([np.concatenate([x, x + 5e-10, x - 1e-12,   # 5e-10: on a riser
                                        rng.uniform(X_MIN - 2.0, X_MAX + 2.0, 200),
                                        specials]) for x in xp])
    for left, right in ((None, None), (-7.0, 9.0)):
        got = interp_rows(queries, xp, fp, left, right)
        for i, t in enumerate(profiles):
            want = np.interp(queries[i], t.floor_x, t.floor_z, left, right)
            assert got[i].tobytes() == want.tobytes()
        one = interp_rows(queries[:, 7], xp, fp, left, right)   # one query per row
        assert one.tobytes() == got[:, 7].tobytes()
