"""VICAR driver tests — ALL the reference autotest pixel pins
(gdrivers/vicar.py): 13 dtype/endian/VAX fixtures, 4 BASIC/BASIC2
compressed fixtures, the HRSC truncated-label metadata + Sinusoidal
Mars SRS + geotransform + scale/offset/nodata, the binary-prefix
table, and write roundtrips (uncompressed all types + BASIC/BASIC2).
Reference role: frmts/pds/vicardataset.cpp, vicarkeywordhandler.cpp."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.insar import complex_checksum_view
from gdal_ray.raster.vicar import read_vicar, write_vicar

D = "/root/reference/autotest/gdrivers/data/vicar/"


def _cks(b):
    return checksum_array(
        complex_checksum_view(b) if b.dtype.kind == "c" else b)


@pytest.mark.parametrize("name,dt,cks", [
    ("vicar_byte", "uint8", 129),
    ("vicar_int16", "int16", 129),
    ("vicar_bigendian_int16", "int16", 129),
    ("vicar_int32", "int32", 129),
    ("vicar_float32_bsq", "float32", 123),
    ("vicar_float32_bil", "float32", 123),
    ("vicar_float32_bip", "float32", 123),
    ("vicar_bigendian_float32", "float32", 129),
    ("vicar_float64", "float64", 129),
    ("vicar_cfloat32", "complex64", 148),
    ("vicar_vax_float32", "float32", 129),
    ("vicar_vax_float64", "float64", 129),
    ("vicar_vax_cfloat32", "complex64", 226),
])
def test_read_datatypes(name, dt, cks):
    r = read_vicar(D + name + ".vic")
    b = r["bands"][0]
    assert str(b.dtype) == dt
    assert _cks(b) == cks


@pytest.mark.parametrize("name,dt,cks", [
    ("vicar_byte_basic", "uint8", 4672),
    ("vicar_byte_basic2", "uint8", 4672),
    ("vicar_int16_basic2", "int16", 4672),
    ("vicar_all_ones_basic2", "uint8", 34464),
])
def test_read_compressed(name, dt, cks):
    r = read_vicar(D + name + ".vic")
    b = r["bands"][0]
    assert str(b.dtype) == dt
    assert _cks(b) == cks
    assert r["compress"] in ("BASIC", "BASIC2")


def test_hrsc_truncated_label():
    r = read_vicar(D + "test_vicar_truncated.bin")
    gt = r["geotransform"]
    exp_gt = (-53985.0, 25.0, 0.0, -200805.0, 0.0, -25.0)
    for a, b in zip(gt, exp_gt):
        assert a == pytest.approx(b, abs=1e-8)
    assert r["nodata"] == 0
    assert r["scale"] == pytest.approx(2.34, abs=1e-5)
    assert r["offset"] == pytest.approx(4.56, abs=1e-5)
    assert r["crs"].startswith('PROJCS["SINUSOIDAL MARS"')
    assert 'SPHEROID["MARS",3396000,0]' in r["crs"]
    assert 'PARAMETER["longitude_of_center",137]' in r["crs"]

    expected_md = {
        "DLRTO8.REFLECTANCE_OFFSET": "4.56",
        "PRODUCT_TYPE": "IMAGE",
        "M94_ORBIT.STOP_TIME": "stop_time",
        "FILE.EVENT_TYPE": "EVENT_TYPE",
        "M94_CAMERAS.MACROPIXEL_SIZE": "1",
        "M94_INSTRUMENT.DETECTOR_ID": "MEX_HRSC_NADIR",
        "HRORTHO.SPICE_FILE_NAME": "SPICE_FILE_NAME",
        "DLRTO8.RADIANCE_SCALING_FACTOR": "1.23",
        "DLRTO8.RADIANCE_OFFSET": "1.23",
        "HRORTHO.GEOMETRIC_CALIB_FILE_NAME": "calib_file_name",
        "HRORTHO.EXTORI_FILE_NAME": "extori'_file_name",
        "M94_INSTRUMENT.MISSION_PHASE_NAME": "MISSION_PHASE_NAME",
        "HRCONVER.MISSING_FRAMES": "0",
        "SPACECRAFT_NAME": "MARS EXPRESS",
        "HRFOOT.BEST_GROUND_SAMPLING_DISTANCE": "1.23",
        "M94_ORBIT.START_TIME": "start_time",
        "HRORTHO.DTM_NAME": "dtm_name",
        "DLRTO8.REFLECTANCE_SCALING_FACTOR": "2.34",
        "HRCONVER.OVERFLOW_FRAMES": "0",
        "HRCONVER.ERROR_FRAMES": "1",
    }
    assert r["metadata"] == expected_md

    lbl = r["label"]
    assert lbl["LBLSIZE"] == 9680
    assert lbl["FORMAT"] == "BYTE"
    assert lbl["PROPERTY"]["M94_ORBIT"][
        "ASCENDING_NODE_LONGITUDE"] == 118.46
    assert lbl["PROPERTY"]["M94_ORBIT"][
        "SPACECRAFT_ORIENTATION"] == [0.0, -1.0, 0.0]
    assert lbl["TASK"]["HRCONVER"]["SPICE_FILE_NAME"] == ["foo"]
    assert lbl["TASK"]["HRORTHO"][
        "EXTORI_FILE_NAME"] == "extori'_file_name"


def test_binary_prefix_table():
    r = read_vicar(D + "vicar_binary_prefix.vic")
    assert r["prefix_table"] == [{
        "unsigned_char": 255,
        "unsigned_short": 65535,
        "unsigned_int": 4294967295,
        "short": -32768,
        "int": -2147483648,
        "float": 1.25,
        "double": 3.25,
    }]
    assert read_vicar(D + "vicar_byte.vic")["prefix_table"] is None


@pytest.mark.parametrize("dt", [
    "uint8", "int16", "int32", "float32", "float64", "complex64"])
def test_write_roundtrip_all_types(dt, tmp_path):
    rng = np.random.default_rng(7)
    if dt == "complex64":
        a = (rng.normal(size=(13, 17))
             + 1j * rng.normal(size=(13, 17))).astype(dt)
    elif dt.startswith("float"):
        a = rng.normal(size=(13, 17)).astype(dt)
    else:
        info = np.iinfo(dt)
        a = rng.integers(info.min, info.max, size=(13, 17)).astype(dt)
    p = str(tmp_path / "t.vic")
    write_vicar(p, [a])
    b = read_vicar(p)["bands"][0]
    assert np.array_equal(a, b)


@pytest.mark.parametrize("comp", ["BASIC", "BASIC2"])
def test_write_compressed(comp, tmp_path):
    # the reference write test pins checksum 4672 after roundtrip
    src = read_vicar(D + "vicar_byte_basic.vic")["bands"][0]
    p = str(tmp_path / "t.vic")
    write_vicar(p, [src], compress=comp)
    r = read_vicar(p)
    assert checksum_array(r["bands"][0]) == 4672
    assert r["compress"] == comp
    assert r["label"]["EOCI1"] > 0

    s2 = read_vicar(D + "vicar_int16_basic2.vic")["bands"][0]
    write_vicar(p, [s2], compress=comp)
    assert np.array_equal(read_vicar(p)["bands"][0], s2)


def test_write_multiband_label_and_map(tmp_path):
    src = read_vicar(D + "vicar_byte_basic.vic")["bands"][0]
    p = str(tmp_path / "t.vic")
    write_vicar(
        p, [src, src + 1, src * 2], label_extra={"BLTYPE": "foo"},
        map_props={"MAP_PROJECTION_TYPE": "SINUSOIDAL",
                   "TARGET_NAME": "MARS", "A_AXIS_RADIUS": 3396.0,
                   "C_AXIS_RADIUS": 3396.0, "CENTER_LONGITUDE": 137.0,
                   "MAP_SCALE": 0.025,
                   "LINE_PROJECTION_OFFSET": 8031.5,
                   "SAMPLE_PROJECTION_OFFSET": 2160.0})
    r = read_vicar(p)
    assert len(r["bands"]) == 3
    assert np.array_equal(r["bands"][2], src * 2)
    assert r["label"]["BLTYPE"] == "foo"
    assert r["crs"].startswith('PROJCS["SINUSOIDAL MARS"')
    assert r["geotransform"][1] == 25.0
    # LBLSIZE is a multiple of RECSIZE (reference contract)
    assert r["label"]["LBLSIZE"] % r["label"]["RECSIZE"] == 0


def test_quote_escape_and_arrays():
    # the '' escape and single-element arrays stay arrays
    from gdal_ray.raster.vicar import _LabelParser

    lbl, flat = _LabelParser(
        "A='x''y'  B=(1,2.5,'z')  C=(3)  D=12  E=1.5e2").parse()
    assert lbl["A"] == "x'y"
    assert lbl["B"] == [1, 2.5, "z"]
    assert lbl["C"] == [3]
    assert lbl["D"] == 12
    assert lbl["E"] == 150.0


def test_load_raster_dispatch():
    from gdal_ray.drivers import load_raster

    assert checksum_array(
        load_raster(D + "vicar_byte.vic")["bands"][0]) == 129
