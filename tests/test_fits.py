"""FITS driver tests, pinned to the reference's autotest
(autotest/gdrivers/fits.py) over its own fixtures."""

import ast
import re

import numpy as np
import pyarrow as pa
import pytest

from conftest import ref_path
from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.fits import (fits_subdatasets, read_fits,
                                  read_fits_table, read_fits_vector,
                                  write_fits)

DATA = "autotest/gdrivers/data/fits"
AUTOTEST = "autotest/gdrivers/fits.py"

MERC_WKT = (
    'PROJCS["Mercator_Earth",GEOGCS["GCS_Earth",DATUM["D_Earth",'
    'SPHEROID["Earth",6378206.4,294.978698213898]],'
    'PRIMEM["Reference_Meridian",0],UNIT["degree",0.0174532925199433,'
    'AUTHORITY["EPSG","9122"]]],PROJECTION["Mercator_1SP"],'
    'PARAMETER["central_meridian",0],PARAMETER["scale_factor",1],'
    'PARAMETER["false_easting",0],PARAMETER["false_northing",0],'
    'UNIT["metre",1,AUTHORITY["EPSG","9001"]],'
    'AXIS["Easting",EAST],AXIS["Northing",NORTH]]')


def test_read_georef_merc():
    """test_fits_read_georef_merc: exact WKT + geotransform pins."""
    g = read_fits(ref_path(f"{DATA}/byte_merc.fits"))
    assert g["crs"] == MERC_WKT
    assert g["geotransform"] == pytest.approx(
        (-13095897.481058259, 72.23522015778646, 0.0,
         3991653.2130816197, 0.0, -72.23522015778646), abs=1e-3)
    assert g["nodata"] == -9999.0
    # engine regression pin (bottom-up flip applied; no autotest
    # checksum exists for this fixture)
    assert checksum_array(g["bands"][0]) == 4855


def test_read_offset_scale_no_georef():
    g = read_fits(ref_path(f"{DATA}/offset_scale_no_georef.fits"))
    assert g["offset"] == -0.0039525691699605
    assert g["scale"] == 1.00395256917
    assert g["geotransform"] is None


def test_read_empty_primary_hdu():
    with pytest.raises(ValueError):
        read_fits(ref_path(f"{DATA}/empty_primary_hdu.fits"))


def test_read_image_in_second_hdu():
    """Empty primary acts as global metadata, HDU keys override."""
    g = read_fits(ref_path(f"{DATA}/image_in_second_hdu.fits"))
    assert g["bands"][0].shape == (2, 1)
    assert g["metadata"] == {
        "BAR": "BAZ     ", "FOO": "BAR_override", "FOO2": "BAR2    "}


def test_read_image_in_first_and_second_hdu():
    """Image primary: keys stay its own; subdataset naming."""
    p = ref_path(f"{DATA}/image_in_first_and_second_hdu.fits")
    g = read_fits(p)
    assert g["bands"] == []
    assert g["metadata"] == {"EXTNAME": "FIRST_IMAGE"}
    subs = g["subdatasets"]
    assert len(subs) == 2
    assert subs[0][0] == f'FITS:"{p}":1'
    assert subs[0][1] == "HDU 1 (1x2, 1 band), FIRST_IMAGE"
    assert subs[1][1] == "HDU 2 (1x3, 1 band)"

    g1 = read_fits(subs[0][0])
    assert g1["bands"][0].shape == (2, 1)
    assert g1["metadata"] == {"EXTNAME": "FIRST_IMAGE"}
    g2 = read_fits(subs[1][0])
    assert g2["bands"][0].shape == (3, 1)
    assert g2["metadata"] == {}
    for bad in (0, 3):
        with pytest.raises((ValueError, IndexError)):
            read_fits(f'FITS:"{p}":{bad}')


def test_read_image_second_fourth_table_third():
    g = read_fits(
        ref_path(f"{DATA}/image_in_second_and_fourth_hdu_table_in_third.fits"))
    assert g["metadata"] == {"FOO": "BAR     "}
    subs = g["subdatasets"]
    assert len(subs) == 2
    g1 = read_fits(subs[0][0])
    assert g1["metadata"] == {"EXTNAME": "FIRST_IMAGE", "FOO": "BAR     "}
    assert g1["bands"][0].shape == (2, 1)
    g2 = read_fits(subs[1][0])
    assert g2["metadata"] == {"EXTNAME": "SECOND_IMAGE", "FOO": "BAR     "}
    assert g2["bands"][0].shape == (3, 1)


def test_subdatasets_helper():
    p = ref_path(f"{DATA}/byte_merc.fits")
    assert fits_subdatasets(p) == [(f'FITS:"{p}":1', "HDU 1 (20x20, 1 band)")]


# ---------------------------------------------------------------------------
# BINTABLE vector layer: every field of every checked feature, pinned
# by extracting the expected lists from the reference autotest itself
# ---------------------------------------------------------------------------


def _expected(name):
    src = open(ref_path(AUTOTEST)).read()
    m = re.search(rf"{name} = (\[.*?\n    \])", src, re.S)
    return ast.literal_eval(m.group(1))


def test_binary_table_schema_and_values():
    t, layer = read_fits_table(ref_path(f"{DATA}/binary_table.fits"))
    assert layer == "MyTable"
    assert t.num_rows == 3
    assert t.num_columns == 78
    # field names in declaration order (bit expansion included)
    src = open(ref_path(AUTOTEST)).read()
    m = re.search(r"    expected = (\[.*?\n    \])", src, re.S)
    exp_schema = ast.literal_eval(
        re.sub(r'"ogr\.[A-Za-z0-9]+"', '"x"', m.group(1)))
    assert t.column_names == [e[0] for e in exp_schema]
    for ridx, listname in ((0, "expected_f1"), (1, "expected_f2")):
        exp = _expected(listname)
        got = [t[c][ridx].as_py() for c in t.column_names]
        for i, (g, e) in enumerate(zip(got, exp)):
            if isinstance(e, float) and isinstance(g, (int, float)):
                assert abs(g - e) <= abs(e) * 1e-12, \
                    (ridx, t.column_names[i], g, e)
            else:
                assert g == e, (ridx, t.column_names[i], g, e)
    # third feature: column "B" hits TNULL18=3 -> NULL
    assert t["B"][2].as_py() is None


def test_fits_vector_dataset(ray_session):
    ds = read_fits_vector(ref_path(f"{DATA}/binary_table.fits"))
    t = pa.concat_tables(
        [b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
         for b in ds.iter_batches(batch_format="pyarrow")])
    assert t.num_rows == 3
    assert t["K"].to_pylist()[:2] == [-9223372036854775808,
                                      9223372036854775807]


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", ["uint8", "int16", "uint16", "int32",
                                   "float32", "float64"])
def test_write_roundtrip(tmp_path, dtype):
    rng = np.random.default_rng(7)
    if dtype.startswith("f"):
        arr = rng.random((13, 17)).astype(dtype)
    else:
        info = np.iinfo(dtype)
        arr = rng.integers(info.min, info.max, (13, 17),
                           dtype=dtype, endpoint=True)
    path = str(tmp_path / "rt.fits")
    write_fits(path, arr, metadata={"FOO": "BAR"},
               offset=None if dtype == "uint16" else 2.5,
               scale=1.25, nodata=-42)
    g = read_fits(path)
    got = g["bands"][0]
    if dtype == "uint16":
        # stored as BITPIX 16 + BZERO 32768 (the FITS unsigned rule)
        assert g["offset"] == 32768.0
        assert np.array_equal(
            got.astype(np.int64) + 32768, arr.astype(np.int64))
    else:
        assert g["offset"] == 2.5
        assert np.array_equal(got, arr)
    assert g["scale"] == 1.25
    assert g["nodata"] == -42
    assert g["metadata"]["FOO"] == "BAR     "


def test_write_multiband(tmp_path):
    arr = np.arange(2 * 4 * 5, dtype=np.int32).reshape(2, 4, 5)
    path = str(tmp_path / "mb.fits")
    write_fits(path, [arr[0], arr[1]])
    g = read_fits(path)
    assert len(g["bands"]) == 2
    assert np.array_equal(g["bands"][1], arr[1])
