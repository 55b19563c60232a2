"""ODS reader (gdal_ray/ods.py) vs the reference autotest pins
(autotest/ogr/ogr_ods.py ogr_ods_check + edge fixtures), and one
workbook opened through the driver registry."""
import datetime
import zipfile

import pyarrow as pa
from conftest import ref_path

from gdal_ray import ods

DATA = "autotest/ogr/data/ods"


def test_check_pins():
    names = ods.list_sheets(ref_path(f"{DATA}/test.ods"))
    assert len(names) == 8
    assert names[0] == "Feuille1"
    t = ods.read_ods(ref_path(f"{DATA}/test.ods"), "Feuille1")
    assert len(t) == 26
    t = ods.read_ods(ref_path(f"{DATA}/test.ods"), "Feuille7")
    assert [f.type for f in t.schema] == [
        pa.string(), pa.int32(), pa.float64(), pa.float64(),
        pa.date32(), pa.timestamp("ms"), pa.float64(), pa.time32("s"),
        pa.float64(), pa.int32(), pa.float64(), pa.timestamp("ms")]
    row = [v[0] for v in t.slice(0, 1).to_pydict().values()]
    assert row[0] == "val"
    assert row[1] == 23
    assert row[2] == 3.45
    assert row[3] == 0.52
    assert row[4] == datetime.date(2012, 1, 22)
    assert row[5] == datetime.datetime(2012, 1, 22, 18, 49)
    assert t.column(2)[1].as_py() is None  # unset field on row 2


def test_kspread():
    t = ods.read_ods(ref_path(f"{DATA}/test_kspread.ods"))
    assert len(t) == 26
    assert t["Field1"][0].as_py() == "Hello world"


def test_repeated_cols_at_end_of_row():
    t = ods.read_ods(ref_path(f"{DATA}/testrepeatedcolatendofrow.ods"))
    assert t["vbz"].to_pylist() == [1001, 1002]
    assert t["b"].to_pylist() == [0, 0]


def test_multiple_text_p():
    t = ods.read_ods(ref_path(f"{DATA}/multiple_text_p_elements.ods"))
    assert t["value"][1].as_py() == "First line\nSecond line"


def test_ragged_header():
    t = ods.read_ods(
        ref_path(f"{DATA}/first_line_3_cols_second_line_2_cols.ods"))
    assert t.schema.names == ["primo", "secondo", "terzo"]


_ODS_CONTENT = (
    '<?xml version="1.0" encoding="UTF-8"?>'
    '<office:document-content '
    'xmlns:office="urn:oasis:names:tc:opendocument:xmlns:office:1.0" '
    'xmlns:table="urn:oasis:names:tc:opendocument:xmlns:table:1.0" '
    'xmlns:text="urn:oasis:names:tc:opendocument:xmlns:text:1.0">'
    "<office:body><office:spreadsheet>"
    '<table:table table:name="Empty"/>'
    '<table:table table:name="Data"><table:table-row>'
    '<table:table-cell office:value-type="string"><text:p>name</text:p>'
    "</table:table-cell>"
    '<table:table-cell office:value-type="string"><text:p>n</text:p>'
    "</table:table-cell></table:table-row><table:table-row>"
    '<table:table-cell office:value-type="string"><text:p>a</text:p>'
    "</table:table-cell>"
    '<table:table-cell office:value-type="float" office:value="7"/>'
    "</table:table-row></table:table>"
    "</office:spreadsheet></office:body></office:document-content>")


def test_workbook_opens_through_the_registry(tmp_path, ray_session):
    from gdal_ray.drivers import identify, resolve_vector_source

    p = str(tmp_path / "x.ods")
    with zipfile.ZipFile(p, "w") as z:
        z.writestr("content.xml", _ODS_CONTENT)
    assert identify(p, "vector").name == "ODS"
    for sheet in (None, "Data"):  # the first sheet with rows, or named
        rows = resolve_vector_source(p, sheet)().take_all()
        assert rows == [{"name": "a", "n": 7}]
