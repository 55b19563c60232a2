"""NADCON .los/.las tests (reference roles: frmts/raw/
loslasdataset.cpp raster view — pinned against the reference's own
wyhpgn.los via the test_loslas_1 expectations — and the PROJ-style
datum-shift bridge into the NTv2 machinery)."""

import numpy as np
import pytest

from gdal_ray.proj import nadcon

LOS = "/root/reference/autotest/gdrivers/data/loslas/wyhpgn.los"


class TestRasterView:
    def test_wyhpgn_reference_pins(self):
        """autotest gdrivers/loslas.py::test_loslas_1 geotransform and
        statistics, exactly."""
        arr, gt = nadcon.read_loslas_array(open(LOS, "rb").read())
        assert gt == (-111.625, 0.25, 0.0, 45.625, 0.0, -0.25)
        assert arr.min() == pytest.approx(-0.027868999168276787)
        assert arr.max() == pytest.approx(0.033906999975442886)
        assert arr.mean() == pytest.approx(0.009716129862575248)
        assert arr.std() == pytest.approx(0.008260044951413324)

    def test_load_raster_dispatch(self):
        from gdal_ray.drivers import load_raster

        d = load_raster(LOS)
        assert d["crs"] == "EPSG:4326"
        assert d["bands"][0].shape == (21, 33)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            nadcon.read_loslas_array(b"\0" * 400)


class TestDatumShiftBridge:
    """Synthetic .los/.las pair → NTv2Grid: values, signs and
    roundtrip (no reference PAIR ships in autotest — sign convention
    documented in the module docstring)."""

    @staticmethod
    def _pair():
        rng = np.random.default_rng(11)
        nrows, ncols = 5, 45   # record length must hold the header
        las = rng.uniform(-1.0, 1.0, (nrows, ncols)).astype(np.float32)
        los = rng.uniform(-1.0, 1.0, (nrows, ncols)).astype(np.float32)
        lon0, dlon, lat0, dlat = -110.0, 0.25, 40.0, 0.5
        los_b = nadcon.write_loslas(los, lon0, dlon, lat0, dlat)
        las_b = nadcon.write_loslas(las, lon0, dlon, lat0, dlat)
        return los, las, los_b, las_b, (lon0, dlon, lat0, dlat)

    def test_grid_values_at_nodes(self):
        los, las, los_b, las_b, (lon0, dlon, lat0, dlat) = self._pair()
        g = nadcon.loslas_to_ntv2(los_b, las_b)
        for r in (0, 2, 4):
            for c in (0, 17, 44):
                lon = lon0 + c * dlon
                lat = lat0 + r * dlat
                dlat_s, dlonw_s, inside = g.shift(
                    np.array([lon]), np.array([lat]))
                assert inside[0]
                assert dlat_s[0] == pytest.approx(float(las[r, c]),
                                                  abs=1e-5)
                # west-positive = negated east-positive .los value
                assert dlonw_s[0] == pytest.approx(-float(los[r, c]),
                                                   abs=1e-5)

    def test_apply_roundtrip(self):
        _, _, los_b, las_b, _ = self._pair()
        g = nadcon.loslas_to_ntv2(los_b, las_b)
        lon = np.linspace(-109.8, -99.2, 40)
        lat = np.linspace(40.1, 41.9, 40)
        lon2, lat2, inside = g.apply(lon, lat)
        assert inside.all()
        lon3, lat3, _ = g.apply_inverse(lon2, lat2)
        np.testing.assert_allclose(lon3, lon, atol=1e-9)
        np.testing.assert_allclose(lat3, lat, atol=1e-9)

    def test_registry_precedence(self):
        """A registered NADCON grid takes the same precedence over
        Helmert as an NTv2 grid (GRID_SHIFTS contract)."""
        from gdal_ray.proj import datum

        _, _, los_b, las_b, _ = self._pair()
        g = nadcon.loslas_to_ntv2(los_b, las_b)
        datum.register_grid("NADCON_TEST", g)
        try:
            assert "NADCON_TEST" in datum.GRID_SHIFTS
        finally:
            datum.unregister_grid("NADCON_TEST")

    def test_pair_mismatch_rejected(self):
        los, las, los_b, _, (lon0, dlon, lat0, dlat) = self._pair()
        other = nadcon.write_loslas(las[:-1], lon0, dlon, lat0, dlat)
        with pytest.raises(ValueError, match="mismatch"):
            nadcon.loslas_to_ntv2(los_b, other)
