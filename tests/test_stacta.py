"""STACTA reader — autotest parity (gdrivers/stacta.py
test_stacta_basic): test.json level 2 = 2048x1024x3, gt
(-180, 0.17578125, ...), bands equal to the direct two-tile mosaic;
pyramid levels; and a synthetic two-tile item opened through the
driver registry."""

import json

import numpy as np
import pytest
from conftest import ref_path

from gdal_ray.raster import gtiff
from gdal_ray.raster.stacta import read_stacta

S = "autotest/gdrivers/data/stacta"


class TestSTACTA:
    def test_basic(self):
        d = read_stacta(ref_path(f"{S}/test.json"))
        assert len(d["bands"]) == 3
        assert d["bands"][0].shape == (1024, 2048)
        assert d["crs"] == "EPSG:4326"
        assert d["nodata"] == 0.0
        assert d["levels"] == 3
        assert d["geotransform"] == pytest.approx(
            (-180.0, 0.17578125, 0.0, 90.0, 0.0, -0.17578125),
            rel=1e-8)

    def test_equals_direct_mosaic(self):
        d = read_stacta(ref_path(f"{S}/test.json"))
        t0 = gtiff.decode_geotiff(
            open(ref_path(f"{S}/WorldCRS84Quad/2/0/0.tif"), "rb").read())
        t1 = gtiff.decode_geotiff(
            open(ref_path(f"{S}/WorldCRS84Quad/2/0/1.tif"), "rb").read())
        for b in range(3):
            ref = np.hstack([t0["bands"][b], t1["bands"][b]])
            assert (d["bands"][b] == ref).all()

    def test_pyramid_levels(self):
        assert read_stacta(ref_path(f"{S}/test.json"),
                           level=1)["bands"][0].shape == (512, 1024)
        assert read_stacta(ref_path(f"{S}/test.json"),
                           level=0)["bands"][0].shape == (256, 512)


def test_item_opens_through_the_registry(tmp_path):
    from gdal_ray.drivers import identify, load_raster

    # one 2 x 4 level of two 2 x 2 GeoTIFF tiles; scaleDenominator
    # 279541132.0143589 gives 0.703125 degree pixels
    item = {
        "stac_extensions": [
            "https://stac-extensions.github.io/tiled-assets/v1.0.0/"
            "schema.json"],
        "properties": {
            "tiles:tile_matrix_links": {"WorldCRS84Quad": {}},
            "tiles:tile_matrix_sets": {"WorldCRS84Quad": {"tileMatrix": [{
                "identifier": "0", "scaleDenominator": 279541132.0143589,
                "topLeftCorner": [-180, 90], "tileWidth": 2,
                "tileHeight": 2, "matrixWidth": 2, "matrixHeight": 1}]}},
        },
        "asset_templates": {"bands": {
            "href": "./{TileMatrixSet}/{TileMatrix}/{TileRow}/{TileCol}.tif"}},
    }
    tiles = [np.arange(4, dtype=np.uint8).reshape(2, 2) + 10 * c
             for c in range(2)]
    row = tmp_path / "WorldCRS84Quad" / "0" / "0"
    row.mkdir(parents=True)
    for c, tile in enumerate(tiles):
        gtiff.write_geotiff(str(row / f"{c}.tif"), [tile])
    p = str(tmp_path / "item.json")
    with open(p, "w") as f:
        json.dump(item, f)
    assert identify(p, "raster").name == "STACTA"
    d = load_raster(p)
    np.testing.assert_array_equal(d["bands"][0], np.hstack(tiles))
    assert d["geotransform"] == pytest.approx(
        (-180.0, 0.703125, 0.0, 90.0, 0.0, -0.703125))
    assert d["crs"] == "EPSG:4326"
