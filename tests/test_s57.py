"""S-57 ENC reader (iso8211.py + s57.py) vs the reference autotest
1B5X02NE.000 / bug1526 / bug2147 / fake_s57 literal expectations."""
import re

from conftest import ref_path
from gdal_ray import s57
from gdal_ray.geom import wkt as gwkt

DATA = "autotest/ogr/data/s57"
CELL = f"{DATA}/1B5X02NE.000"

_NUM = r"-?\d+\.?\d*"


def assert_wkt(got: str, want: str, tol=1e-8):
    gs = re.sub(_NUM, "#", got.replace(", ", ","))
    ws = re.sub(_NUM, "#", want.replace(", ", ","))
    assert gs == ws, f"{got[:100]} != {want[:100]}"
    gn = [float(x) for x in re.findall(_NUM, got)]
    wn = [float(x) for x in re.findall(_NUM, want)]
    assert len(gn) == len(wn)
    assert all(abs(a - b) <= tol for a, b in zip(gn, wn))


def test_layer_list_and_counts():
    """ogr_s57_check_layers: the exact 13-layer inventory."""
    layers = s57.list_layers(ref_path(CELL))
    expected = {"DSID": 1, "COALNE": 1, "DEPARE": 4, "DEPCNT": 4,
                "LNDARE": 1, "LNDELV": 2, "SBDARE": 2, "SLCONS": 1,
                "SLOTOP": 1, "SOUNDG": 2, "M_COVR": 1, "M_NSYS": 1,
                "M_QUAL": 1}
    assert set(layers) == set(expected)
    for name, n in expected.items():
        if name == "DSID":
            continue
        assert len(s57.read_s57_local(ref_path(CELL), name)) == n, name


def test_coalne():
    t = s57.read_s57_local(ref_path(CELL), "COALNE")
    assert t["RCID"][0].as_py() == 1
    assert t["LNAM"][0].as_py() == "FFFF7F4F0FB002D3"
    assert t["OBJL"][0].as_py() == 30
    assert t["AGEN"][0].as_py() == 65535
    assert_wkt(
        gwkt.to_wkt(t["geometry"][0].as_py()),
        "LINESTRING (60.97683400 -32.49442600,60.97718200 -32.49453800,"
        "60.97742400 -32.49477400,60.97774800 -32.49504000,60.97791600 "
        "-32.49547200,60.97793000 -32.49581800,60.97794400 -32.49617800,"
        "60.97804400 -32.49647600,60.97800200 -32.49703800,60.97800200 "
        "-32.49726600,60.97805800 -32.49749400,60.97812800 -32.49773200,"
        "60.97827000 -32.49794800,60.97910200 -32.49848600,60.97942600 "
        "-32.49866600)")


def test_m_qual():
    t = s57.read_s57_local(ref_path(CELL), "M_QUAL")
    assert t["RCID"][0].as_py() == 15
    assert t["OBJL"][0].as_py() == 308
    assert t["AGEN"][0].as_py() == 65535
    assert_wkt(
        gwkt.to_wkt(t["geometry"][0].as_py()),
        "POLYGON ((60.97683400 -32.49534000,60.97683400 -32.49762000,"
        "60.97683400 -32.49866600,60.97869000 -32.49866600,60.97942600 "
        "-32.49866600,60.98215200 -32.49866600,60.98316600 -32.49866600,"
        "60.98316600 -32.49755800,60.98316600 -32.49477000,60.98316600 "
        "-32.49350000,60.98146800 -32.49350000,60.98029800 -32.49350000,"
        "60.97947400 -32.49350000,60.97901600 -32.49350000,60.97683400 "
        "-32.49350000,60.97683400 -32.49442600,60.97683400 -32.49469800,"
        "60.97683400 -32.49534000))")


def test_soundg():
    t = s57.read_s57_local(ref_path(CELL), "SOUNDG")
    assert t["RCID"][0].as_py() == 20
    assert t["OBJL"][0].as_py() == 129
    assert t["AGEN"][0].as_py() == 65535
    assert t["QUASOU"][0].as_py() == ["1"]
    assert_wkt(
        gwkt.to_wkt(t["geometry"][0].as_py()),
        "MULTIPOINT Z ((60.98164400 -32.49449000 3.400),(60.98134400 "
        "-32.49642400 1.400),(60.97814200 -32.49487400 -3.200),"
        "(60.98071200 -32.49519600 1.200))")


def test_double_byte_attrs():
    """bug1526: latin1 INFORM + lexical-level-2 UCS-2 NINFOM."""
    t = s57.read_s57_local(ref_path(f"{DATA}/bug1526.000"), "FOGSIG")
    assert t["INFORM"][0].as_py() == \
        ("During South winds nautophone is not always heard in S "
         "direction from lighthouse")
    assert len(t["NINFOM"][0].as_py()) >= 1


def test_multilinestring():
    """bug2147: disconnected edges → 8-part MULTILINESTRING."""
    t = s57.read_s57_local(ref_path(f"{DATA}/bug2147_3R7D0889.000"), "ROADWY")
    w = gwkt.to_wkt(t["geometry"][0].as_py())
    assert w.startswith("MULTILINESTRING ((22.5659615 44.5541942, "
                        "22.5652045 44.5531651")
    assert w.count("), (") + 1 == 8


def test_fake_minimal():
    """fake_s57.000: DSID-only cell (ogr_s57_10)."""
    t = s57.read_s57_local(ref_path(f"{DATA}/fake_s57.000"), "DSID")
    assert t["DSID_EXPP"][0].as_py() == 2


def test_ray_dataset(ray_session):
    ds = s57.read_s57(ref_path(CELL), "DEPARE")
    assert ds.count() == 4


def test_update_dsid():
    """ENC .001 update application — gdal #2498 fixture: the update's
    DSID patches UPDN/UADT/ISDT on the base cell."""
    from gdal_ray.s57 import S57Cell

    c = S57Cell(ref_path(f"{DATA}/fake_s57_update_dsid.000"))
    assert c.dsid["DSID_EDTN"] == "0"
    assert c.dsid["DSID_UPDN"] == "1"
    assert c.dsid["DSID_UADT"] == "20190211"
    assert c.dsid["DSID_ISDT"] == "20190212"


class TestFFPTRelationships:
    """Round-5 boundary close: LNAM_REFS/FFPT_RIND feature links
    (s57reader.cpp GenerateFFPTAttributes byte permutation)."""

    def test_lnam_refs_resolve(self):
        from gdal_ray.s57 import read_s57_local

        cell = ref_path(f"{DATA}/bug2147_3R7D0889.000")
        t = read_s57_local(cell, "boywtw")
        assert "LNAM_REFS" in t.schema.names
        assert "FFPT_RIND" in t.schema.names
        refs = t.column("LNAM_REFS").to_pylist()
        rinds = t.column("FFPT_RIND").to_pylist()
        assert refs[0] is None  # first buoy carries no links
        linked = [(a, b) for a, b in zip(refs, rinds) if a]
        assert len(linked) == 3
        assert all(r == [2] for _a, r in [(a, b) for a, b in linked])
        # every referenced LNAM resolves to a real FOID in the cell
        from gdal_ray import iso8211

        all_lnams = set()
        for rec in iso8211.read_ddf(cell).records:
            foid = rec.first("FOID")
            if foid and foid.get("AGEN") is not None:
                all_lnams.add("%04X%08X%04X" % (
                    foid["AGEN"], foid["FIDN"], foid["FIDS"]))
        for lst, _r in linked:
            assert all(ref in all_lnams for ref in lst)

    def test_layers_without_links_unchanged(self):
        from gdal_ray.s57 import read_s57_local

        t = read_s57_local(ref_path(CELL), "COALNE")
        assert "LNAM_REFS" not in t.schema.names
