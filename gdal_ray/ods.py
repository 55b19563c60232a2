"""ODS (OpenDocument spreadsheet) reader — the OGR ODS role.

From-scratch parse of the published OASIS OpenDocument spreadsheet
content model (reference role: ogr/ogrsf_frmts/ods/ogrodsdatasource.cpp
— same DetectHeaderLine / type-promotion semantics as the XLSX
driver, shared here via gdal_ray.xlsx helpers).

Cells carry their type inline (office:value-type + office:value /
date-value / time-value PTxxHxxMxxS durations), with
number-columns-repeated / number-rows-repeated run-length expansion;
multiple text:p children concatenate with newlines.  Empty trailing
repeats are trimmed (testrepeatedcolatendofrow rule).

Scale: one read task per sheet (zip member random access).
"""
from __future__ import annotations

import datetime
import re
import zipfile
import xml.etree.ElementTree as ET

import pyarrow as pa

from gdal_ray.xlsx import _promote

_T = "{urn:oasis:names:tc:opendocument:xmlns:table:1.0}"
_O = "{urn:oasis:names:tc:opendocument:xmlns:office:1.0}"
_TX = "{urn:oasis:names:tc:opendocument:xmlns:text:1.0}"


class _Sheet:
    def __init__(self, name):
        self.name = name
        self.rows: list[list[tuple[str, str]]] = []


def load_sheets(path: str) -> list[_Sheet]:
    z = zipfile.ZipFile(path)
    root = ET.fromstring(z.read("content.xml"))
    sheets = []
    for tbl in root.iter(f"{_T}table"):
        sheet = _Sheet(tbl.get(f"{_T}name"))
        for row in tbl.iter(f"{_T}table-row"):
            rrep = int(row.get(f"{_T}number-rows-repeated", "1"))
            cells: list[tuple[str, str]] = []
            for c in row:
                if c.tag not in (f"{_T}table-cell",
                                 f"{_T}covered-table-cell"):
                    continue
                crep = int(c.get(f"{_T}number-columns-repeated", "1"))
                vt = c.get(f"{_O}value-type", "")
                val = ""
                kind = ""
                if vt in ("float", "percentage", "currency"):
                    val = c.get(f"{_O}value", "")
                    kind = "float"
                elif vt == "boolean":
                    val = "1" if c.get(f"{_O}boolean-value") == "true" \
                        else "0"
                    kind = "bool"
                elif vt == "date":
                    val = c.get(f"{_O}date-value", "")
                    kind = "datetime" if "T" in val else "date"
                elif vt == "time":
                    val = c.get(f"{_O}time-value", "")
                    kind = "time"
                elif vt == "string":
                    paras = [("".join(t.itertext()))
                             for t in c if t.tag == f"{_TX}p"]
                    val = "\n".join(paras)
                    kind = "string"
                if crep > 100 and not val:
                    crep = 1  # huge trailing empty repeats: trim
                cells.extend([(val, kind)] * crep)
            # trim trailing empties
            while cells and cells[-1] == ("", ""):
                cells.pop()
            if rrep > 100 and not cells:
                rrep = 1
            for _ in range(rrep):
                sheet.rows.append(list(cells))
        while sheet.rows and not sheet.rows[-1]:
            sheet.rows.pop()
        sheets.append(sheet)
    return sheets


def _parse_time(v: str) -> datetime.time | None:
    m = re.match(r"PT(?:(\d+)H)?(?:(\d+)M)?(?:([\d.]+)S)?", v or "")
    if not m:
        return None
    h = int(m.group(1) or 0)
    mi = int(m.group(2) or 0)
    s = int(float(m.group(3) or 0))
    return datetime.time(h % 24, mi, s)


def _parse_dt(v: str):
    try:
        if "T" in v:
            return datetime.datetime.fromisoformat(v)
        return datetime.date.fromisoformat(v)
    except ValueError:
        return None


def read_ods(path: str, sheet: str | None = None,
             headers: str = "AUTO") -> pa.Table:
    sheets = [s for s in load_sheets(path) if s.rows]
    if sheet is None:
        sh = sheets[0]
    else:
        match = [s for s in sheets if s.name == sheet]
        if not match:
            raise ValueError(f"no sheet {sheet!r} in {path}")
        sh = match[0]
    rows = sh.rows
    if not rows:
        return pa.table({})
    first = rows[0]
    header = False
    if headers == "FORCE":
        header = True
    elif headers != "DISABLE" and len(rows) >= 2:
        all_text = all(k == "string" for _v, k in first) and first
        second = rows[1]
        n_text = sum(1 for _v, k in second if k == "string")
        n_nonempty = sum(1 for _v, k in second if k != "")
        if all_text and len(first) >= len(second) and \
                n_text != len(first) and n_nonempty != 0:
            header = True
    if header:
        names = [v.strip() or f"Field{i + 1}"
                 for i, (v, _k) in enumerate(first)]
        body = rows[1:]
    else:
        width = max(len(r) for r in rows)
        names = [f"Field{i + 1}" for i in range(width)]
        body = rows
    width = len(names)

    col_kinds = [""] * width
    for r in body:
        for i in range(min(width, len(r))):
            v, k = r[i]
            if k == "float":
                try:
                    iv = int(v)
                    k = "int" if -2**31 < iv < 2**31 else "int64"
                except ValueError:
                    k = "float"
            elif k == "bool":
                k = "int"
            col_kinds[i] = _promote(col_kinds[i], k)

    cols: dict[str, list] = {n: [] for n in names}
    for r in body:
        for i, n in enumerate(names):
            v, k = r[i] if i < len(r) else ("", "")
            kind = col_kinds[i]
            if v == "" and k != "string":
                cols[n].append(None)
                continue
            try:
                if kind in ("int", "int64"):
                    cols[n].append(int(float(v)))
                elif kind == "float":
                    cols[n].append(float(v))
                elif kind == "date":
                    d = _parse_dt(v)
                    cols[n].append(d if isinstance(d, datetime.date)
                                   and not isinstance(d,
                                                      datetime.datetime)
                                   else (d.date() if d else None))
                elif kind in ("datetime", "datetime_ms"):
                    d = _parse_dt(v)
                    if isinstance(d, datetime.date) and \
                            not isinstance(d, datetime.datetime):
                        d = datetime.datetime(d.year, d.month, d.day)
                    cols[n].append(d)
                elif kind == "time":
                    cols[n].append(_parse_time(v))
                else:
                    cols[n].append(str(v))
            except (ValueError, AttributeError):
                cols[n].append(str(v) if kind == "string" else None)

    _ARROW = {"int": pa.int32(), "int64": pa.int64(),
              "float": pa.float64(), "date": pa.date32(),
              "datetime": pa.timestamp("ms"),
              "datetime_ms": pa.timestamp("ms"),
              "time": pa.time32("s"), "string": pa.string(),
              "": pa.string()}
    return pa.table({n: pa.array(cols[n], _ARROW[col_kinds[i]])
                     for i, n in enumerate(names)})


def read_ods_dataset(path: str, sheet: str | None = None):
    """ODS sheet → Ray Dataset (one read task; spreadsheets are small
    by format)."""
    import ray.data as rd

    return rd.from_arrow(read_ods(path, sheet))


def list_sheets(path: str) -> list[str]:
    return [s.name for s in load_sheets(path) if s.rows]
