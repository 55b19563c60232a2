"""USGS LULC CTG driver — reference-autotest pins, and a synthetic
grid-cell byte stream opened through the driver registry."""

import numpy as np
import pytest

from conftest import ref_path
from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.ctg import read_ctg

D = "autotest/gdrivers/data/"


class TestCTG:
    def test_reference_pin(self):
        # gdrivers/ctg.py test_ctg_1: band 1 checksum 21
        d = read_ctg(ref_path(D + "ctg/fake_grid_cell"))
        assert len(d["bands"]) == 6
        assert d["bands"][0].dtype == np.int32
        assert checksum_array(d["bands"][0]) == 21

    def test_georeference(self):
        d = read_ctg(ref_path(D + "ctg/fake_grid_cell"))
        # the header's NW cell centre shifted half a cell to the
        # corner, as the reference expects (gdrivers/ctg.py test_ctg_1)
        assert d["geotransform"] == (421000.0, 200.0, 0.0,
                                     5094400.0, 0.0, -200.0)
        assert d["crs"] == "EPSG:32614"
        assert d["metadata"]["TITLE"] == "FAKE CITY"

    def test_overflow_values_become_zero(self):
        # theme values >= 2e9 read as 0 (the reference's cap)
        d = read_ctg(ref_path(D + "ctg/fake_grid_cell"))
        assert all(b.max() < 2000000000 for b in d["bands"])


def _record(*fields: tuple[int, str]) -> str:
    """One 80-character record with each text at its column."""
    r = [" "] * 80
    for col, text in fields:
        r[col:col + len(text)] = text
    return "".join(r)


def _grid_cell(values: np.ndarray, nw_e=1000, nw_n=5000, cell=200,
               zone=14, title="SYNTHETIC CITY") -> bytes:
    """A CTG stream: 5 header records, then one record per cell in
    ``values`` (6 × rows × cols) at its cell-centre coordinates."""
    _, rows, cols = values.shape
    recs = [
        _record((0, f"{rows:10d}"), (20, f"{cols:10d}"),
                (35, f"{cell:5d}"), (50, f"{zone:5d}")),
        _record(), _record(),
        _record((40, f"{nw_e:10d}"), (50, f"{nw_n:10d}")),
        _record((0, title)),
    ]
    for cy in range(rows):
        for cx in range(cols):
            x = nw_e + cx * cell + cell // 2
            y = nw_n - cy * cell - cell // 2
            recs.append(_record(
                (0, f"{zone:3d}"), (3, f"{x:8d}"), (11, f"{y:8d}"),
                *((20 + 10 * i, f"{values[i, cy, cx]:10d}")
                  for i in range(6))))
    return "".join(recs).encode("latin-1")


class TestSyntheticCTG:
    VALUES = np.arange(6 * 2 * 3, dtype=np.int64).reshape(6, 2, 3) + 1

    def test_opens_through_the_registry(self, tmp_path):
        from gdal_ray.drivers import identify, load_raster

        values = self.VALUES.copy()
        values[2, 1, 0] = 2000000000  # at the cap: reads as 0
        p = tmp_path / "grid_cell"
        p.write_bytes(_grid_cell(values))
        assert identify(str(p), "raster").name == "CTG"
        d = load_raster(str(p))
        want = np.where(values >= 2000000000, 0, values).astype(np.int32)
        assert len(d["bands"]) == 6
        for got, exp in zip(d["bands"], want):
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, exp)
        assert d["geotransform"] == (900.0, 200.0, 0.0, 5100.0, 0.0, -200.0)
        assert d["crs"] == "EPSG:32614"
        assert d["metadata"] == {"TITLE": "SYNTHETIC CITY"}
        assert d["nodata"] == 0.0

    def test_bad_streams_raise_value_error(self):
        from gdal_ray.raster.ctg import decode_ctg

        good = _grid_cell(self.VALUES)
        with pytest.raises(ValueError, match="truncated"):
            decode_ctg(good[:399])
        with pytest.raises(ValueError, match="UTM zone"):
            decode_ctg(_grid_cell(self.VALUES, zone=0))
        outside = bytearray(good)  # the last cell's easting one column out
        outside[-80 + 3:-80 + 11] = b"%8d" % (1000 + 3 * 200 + 100)
        with pytest.raises(ValueError, match="outside"):
            decode_ctg(bytes(outside))
