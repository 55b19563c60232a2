"""MiraMon structured vector reader — .pnt / .arc / .pol layers.

Reference role: ogr/ogrsf_frmts/miramon (ogrmiramonlayer.cpp,
mm_wrlayr.c:200 MMReadHeader, mm_wrlayr.c:2808 MMReadAHArcSection,
mm_wrlayr.c:3263 MMReadPHPolygonSection, mm_rdlayr.c:428
MMGetMultiPolygonCoordinates / 166 MM_AdoptHeight) with the extended
DBF of frmts/miramon_common/mm_gdal_functions.c.  Re-derived from the
published MiraMon structured-binary layout:

  common header (48 bytes, V1.1): 3-byte type tag (PNT/ARC/POL/NOD),
  " 1.1" version chars, 1 flag byte (0x10 = 3D Z section present,
  0x20 = explicit polygons), 4xf64 layer bbox, u32 element count +
  u32 reserved.  V2.0 (" 2.0") widens counts/offsets to u64 and the
  header to 56 bytes.

  .pnt: count x (x, y) f64 pairs immediately after the header.
  .arc: per-arc headers (56 bytes: bbox, u32 nVertices, u32 vertex
        offset, u32 first/last node ids, f64 length) then f64 xy
        vertex runs at each stated offset.
  .pol: a PS section (8 bytes per arc of the companion .arc — the
        polygon ids on either side), per-polygon headers (64 bytes:
        bbox, u32 nArcs / nExternalRings / nRings, u32 PAL offset,
        f64 perimeter / area), then each polygon's PAL list —
        5-byte entries of VFG flag byte (0x01 exterior ring, 0x02
        ring ends here, 0x04 traverse arc reversed) + u32 arc index.
        Element 0 is the universal (outside) polygon and is not a
        feature.  The companion arc file comes from the P.rel
        metadata key [OVERVIEW:ASPECTES_TECNICS] ArcSource, default
        same basename + ".arc".

  Z section (flag 0x10), after the 2-D payload: 32-byte ZH, then a
  24-byte ZD per element (f64 min/max z, i32 zCount, u32 zOffset)
  and the f64 height runs.  zCount < 0 means |zCount| constant
  heights for the whole element, > 0 means zCount heights per
  vertex; the Height open option picks First (default) / Lowest /
  Highest exactly like MM_AdoptHeight.

  Attributes live in a dBASE sidecar (<base>T.dbf for points, A for
  arcs, P for polygons) — either classic dBASE III or MiraMon's
  extended DBF (version byte 0x90: u32 C-field widths at descriptor
  bytes 21-24 and full >11-char field names stored between the
  0x0D terminator and the first record, pointed to by bytes 25-32).
  Charset from the LDID byte 29: 0x14 = cp850 OEM, 0x58 = cp1252,
  0xFF = utf-8.  Records map to graphic elements by ID_GRAFIC; an
  element with several records becomes OGR-style multi-record lists
  rendered "(n:v1,...,vn)" (MultiRecordIndex 0/1/Last/JSON select a
  single record or a JSON-ish "[v1,...]" rendering instead).

Pinned against autotest ogr/ogr_miramon_vector.py
(check_simple_point / check_simple_arc / check_simple_polygon /
check_multi_polygon, the 3d point/arc/pol checks and the
multiregister matrix)."""

from __future__ import annotations

import os
import struct

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as gwkb

NODATA_Z = -1.0e300

_CHARSETS = {0x14: "cp850", 0x58: "cp1252", 0xFF: "utf-8"}


# ---------------------------------------------------------------------------
# common binary header


def _read_header(data: bytes, path: str) -> dict:
    if len(data) < 48:
        raise ValueError(f"MiraMon: {path}: truncated header")
    tag = data[:3].decode("latin-1")
    vers = data[3:5]
    sub = data[6:7]
    flag = data[7]
    bbox = struct.unpack_from("<4d", data, 8)
    if vers == b" 1":
        count = struct.unpack_from("<I", data, 40)[0]
        hsize = 48
        wide = False
    elif vers == b" 2":
        count = struct.unpack_from("<Q", data, 40)[0]
        hsize = 56
        wide = True
    else:
        raise ValueError(
            f"MiraMon: {path}: unsupported version {vers + b'.' + sub!r}")
    return {"tag": tag, "flag": flag, "bbox": bbox, "count": count,
            "hsize": hsize, "wide": wide, "is3d": bool(flag & 0x10)}


def _z_section(data: bytes, start: int, count: int, wide: bool) -> list:
    """ZH + per-element ZD records → [(minz, maxz, zcount, zoffset)]."""
    pos = start + 32  # ZH
    zd_size = 32 if wide else 24
    out = []
    for _ in range(count):
        if pos + zd_size > len(data):
            raise ValueError("MiraMon: truncated Z section")
        mn, mx = struct.unpack_from("<2d", data, pos)
        if wide:
            zc = struct.unpack_from("<i", data, pos + 16)[0]
            zo = struct.unpack_from("<Q", data, pos + 24)[0]
        else:
            zc, zo = struct.unpack_from("<iI", data, pos + 16)
        out.append((mn, mx, zc, zo))
        pos += zd_size
    return out


def _element_z(data: bytes, zd, n_vrt: int, height: str) -> np.ndarray:
    """One element's per-vertex z values under the Height rule
    (mm_rdlayr.c:166 MM_AdoptHeight: First adopts the first
    non-nodata height, Lowest/Highest fold min/max)."""
    mn, mx, zc, zo = zd
    z = np.full(n_vrt, NODATA_Z)
    if zc == -(2 ** 31) or zc == 0:
        return z
    if zc > 0:  # zc heights per vertex, vertex-major blocks
        total = zc * n_vrt
        vals = np.frombuffer(data, "<f8", total, zo).reshape(zc, n_vrt)
        valid = vals != NODATA_Z
        if height == "Highest":
            z = np.where(valid.any(0),
                         np.where(valid, vals, -np.inf).max(0), NODATA_Z)
        elif height == "Lowest":
            z = np.where(valid.any(0),
                         np.where(valid, vals, np.inf).min(0), NODATA_Z)
        else:  # First
            idx = np.argmax(valid, axis=0)
            z = np.where(valid.any(0), vals[idx, np.arange(n_vrt)],
                         NODATA_Z)
    else:  # |zc| constant heights for the whole element
        vals = np.frombuffer(data, "<f8", -zc, zo)
        valid = vals[vals != NODATA_Z]
        if len(valid):
            if height == "Highest":
                z[:] = valid.max()
            elif height == "Lowest":
                z[:] = valid.min()
            else:
                z[:] = valid[0]
    return z


# ---------------------------------------------------------------------------
# arc file


def _read_arcs(data: bytes, path: str, height: str) -> list[dict]:
    """.arc bytes → [{coords (n,2), z or None, node_ini, node_fi,
    length}] (mm_wrlayr.c:2808 MMReadAHArcSection layout)."""
    hdr = _read_header(data, path)
    if hdr["tag"] != "ARC":
        raise ValueError(f"MiraMon: {path}: not an ARC file")
    wide = hdr["wide"]
    ah = 72 if wide else 56
    arcs = []
    pos = hdr["hsize"]
    coord_end = hdr["hsize"]
    for _ in range(hdr["count"]):
        if pos + ah > len(data):
            raise ValueError(f"MiraMon: {path}: truncated arc headers")
        if wide:
            nv, off, ni, nf = struct.unpack_from("<4Q", data, pos + 32)
            ln = struct.unpack_from("<d", data, pos + 64)[0]
        else:
            nv, off, ni, nf = struct.unpack_from("<4I", data, pos + 32)
            ln = struct.unpack_from("<d", data, pos + 40)[0]
        if off + nv * 16 > len(data):
            raise ValueError(f"MiraMon: {path}: arc vertices out of file")
        coords = np.frombuffer(data, "<f8", nv * 2, off).reshape(-1, 2)
        arcs.append({"coords": coords, "z": None, "node_ini": ni,
                     "node_fi": nf, "length": ln})
        coord_end = max(coord_end, off + nv * 16)
        pos += ah
    if hdr["is3d"] and hdr["count"]:
        zds = _z_section(data, coord_end, hdr["count"], wide)
        for arc, zd in zip(arcs, zds):
            arc["z"] = _element_z(data, zd, len(arc["coords"]), height)
    return arcs


# ---------------------------------------------------------------------------
# extended / classic dBASE sidecar


def _parse_mm_dbf(raw: bytes) -> tuple[list[dict], list[list]]:
    """dBASE (classic 0x03 or MiraMon extended 0x90) → (field descs,
    row value lists).  Values: C→str, N→int/float, L→bool, D→
    'YYYY/MM/DD' str; blanks → None."""
    ver = raw[0]
    nrec, hsize, rsize = struct.unpack_from("<IHH", raw, 4)
    enc = _CHARSETS.get(raw[29], "cp1252")
    fields = []
    pos = 32
    while pos + 32 <= len(raw) and raw[pos] != 0x0D:
        fd = raw[pos:pos + 32]
        name = fd[:11].split(b"\0")[0].decode(enc, "replace").strip()
        ftype = chr(fd[11])
        width = fd[16]
        dec = fd[17]
        if ver == 0x90 and width == 0:
            # extended DBF: u32 width at bytes 21-24; full field
            # name (for >11-char names) at [25:29] offset, [29:33]
            # length, stored before the first record
            width = struct.unpack_from("<I", fd, 21)[0]
        if ver == 0x90:
            noff = struct.unpack_from("<I", fd, 25)[0]
            nlen = fd[29]
            if noff and nlen:
                name = raw[noff:noff + nlen].split(b"\0")[0].decode(
                    enc, "replace").strip() or name
        fields.append({"name": name, "type": ftype, "width": width,
                       "dec": dec})
        pos += 32
    rows = []
    for i in range(nrec):
        base = hsize + i * rsize
        rec = raw[base:base + rsize]
        if len(rec) < rsize or rec[:1] == b"*":
            continue
        vals = []
        fpos = 1
        for f in fields:
            cell = rec[fpos:fpos + f["width"]]
            fpos += f["width"]
            text = cell.decode(enc, "replace").strip()
            t = f["type"]
            if t in "NF":
                if not text:
                    vals.append(None)
                elif f["dec"] or t == "F":
                    try:
                        vals.append(float(text))
                    except ValueError:
                        vals.append(None)
                else:
                    try:
                        vals.append(int(text))
                    except ValueError:
                        vals.append(None)
            elif t == "L":
                vals.append(None if not text or text in "?"
                            else text in "TtYy")
            elif t == "D":
                vals.append(f"{text[:4]}/{text[4:6]}/{text[6:8]}"
                            if len(text) == 8 else None)
            else:
                vals.append(text)
        rows.append(vals)
    return fields, rows


def _sidecar_dbf(path: str, kind: str) -> tuple[list[dict], list[list]]:
    base = os.path.splitext(path)[0]
    suffix = {"PNT": "T", "ARC": "A", "POL": "P"}[kind]
    for cand in (base + suffix + ".dbf", base + suffix + ".DBF"):
        if os.path.exists(cand):
            return _parse_mm_dbf(open(cand, "rb").read())
    return [], []


# ---------------------------------------------------------------------------
# attribute assembly (multi-record aware)


def _fmt_num(v, dec: int) -> str:
    if isinstance(v, float):
        return f"{v:.{dec}f}" if dec else repr(v)
    return str(v)


def _attr_columns(fields, rows, element_ids, multi_record_index):
    """Group dbf rows by ID_GRAFIC (first field) and emit one arrow
    column per dbf field, OGR multi-record semantics."""
    by_id: dict = {}
    for r in rows:
        by_id.setdefault(r[0] if r else None, []).append(r)
    groups = [by_id.get(eid, []) for eid in element_ids]
    multi = any(len(g) > 1 for g in groups)
    cols, names = [], []
    for fi, f in enumerate(fields):
        vals = [[g[fi] for g in grp] for grp in groups]
        name = f["name"]
        names.append(name)
        if not multi or f["type"] == "D":
            # scalar column (dates stay scalar even under
            # multi-records, like OGR's OFTDate handling)
            plain = [v[0] if v else None for v in vals]
            if f["type"] == "N" and not f["dec"]:
                cols.append(pa.array(plain, pa.int64()))
            elif f["type"] in "NF":
                cols.append(pa.array(
                    [float(v) if v is not None else None for v in plain],
                    pa.float64()))
            elif f["type"] == "L":
                cols.append(pa.array(plain, pa.bool_()))
            else:
                cols.append(pa.array(plain, pa.string()))
            continue
        mri = multi_record_index
        out = []
        for v in vals:
            if not v:
                out.append(None)
            elif mri == "JSON":
                out.append("[" + ",".join(
                    "" if x is None else
                    _fmt_num(x, f["dec"]) if isinstance(x, (int, float))
                    else str(x) for x in v) + "]")
            elif mri == "Last":
                x = v[-1]
                out.append(None if x is None else _fmt_num(x, f["dec"])
                           if isinstance(x, (int, float)) else str(x))
            elif mri is not None:
                i = int(mri)
                x = v[i] if i < len(v) else None
                out.append(None if x is None else _fmt_num(x, f["dec"])
                           if isinstance(x, (int, float)) else str(x))
            elif len(v) == 1:
                x = v[0]
                out.append(None if x is None else _fmt_num(x, f["dec"])
                           if isinstance(x, (int, float)) else str(x))
            else:
                out.append(f"({len(v)}:" + ",".join(
                    "" if x is None else
                    _fmt_num(x, f["dec"]) if isinstance(x, (int, float))
                    else str(x) for x in v) + ")")
        cols.append(pa.array(out, pa.string()))
    return names, cols


# ---------------------------------------------------------------------------
# WKB assembly


def _mk_point(xy, z) -> bytes:
    if z is not None:
        return gwkb.point_wkb_d([xy[0], xy[1], z], "xyz")
    return gwkb.point_wkb_d(list(xy), "xy")


def _mk_linestring(coords, z) -> bytes:
    if z is not None:
        return gwkb.linestring_wkb_d(
            np.column_stack([coords, z]), "xyz")
    return gwkb.linestring_wkb_d(coords, "xy")


def _mk_polygon(rings, is3d: bool) -> bytes:
    return gwkb.polygon_wkb_d(rings, "xyz" if is3d else "xy")


# ---------------------------------------------------------------------------
# .rel metadata (classic INI)


def _rel_value(rel_path: str, section: str, key: str) -> str | None:
    try:
        raw = open(rel_path, "rb").read().decode("latin-1")
    except OSError:
        return None
    cur = None
    for line in raw.splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            cur = line[1:-1]
        elif cur == section and "=" in line:
            k, v = line.split("=", 1)
            if k.strip().lower() == key.lower():
                return v.strip()
    return None


# ---------------------------------------------------------------------------
# readers


def read_miramon_local(path: str, height: str = "First",
                       multi_record_index: str | None = None) -> pa.Table:
    """One MiraMon layer (.pnt / .arc / .pol) → Arrow table with a
    WKB ``geometry`` column plus the sidecar dBASE attributes."""
    data = open(path, "rb").read()
    hdr = _read_header(data, path)
    tag = hdr["tag"]

    if tag == "PNT":
        n = hdr["count"]
        coords = np.frombuffer(
            data, "<f8", n * 2, hdr["hsize"]).reshape(-1, 2)
        zs = [None] * n
        if hdr["is3d"] and n:
            zds = _z_section(data, hdr["hsize"] + n * 16, n, hdr["wide"])
            for i, zd in enumerate(zds):
                mn, mx, zc, zo = zd
                if zc == -(2 ** 31) or zc == 0:
                    continue
                # points read Highest/Lowest straight off the ZD
                # bbox, First from the file (mm_rdlayr.c:720)
                if height == "Highest":
                    zs[i] = mx
                elif height == "Lowest":
                    zs[i] = mn
                else:
                    zs[i] = struct.unpack_from("<d", data, zo)[0]
        geoms = [_mk_point(coords[i], zs[i]) for i in range(n)]
        element_ids = list(range(n))
    elif tag == "ARC":
        arcs = _read_arcs(data, path, height)
        geoms = [_mk_linestring(a["coords"], a["z"]) for a in arcs]
        element_ids = list(range(len(arcs)))
    elif tag == "POL":
        geoms, element_ids = _read_polygons(data, path, hdr, height)
    else:
        raise ValueError(f"MiraMon: {path}: unsupported layer {tag}")

    fields, rows = _sidecar_dbf(path, tag)
    extra = {"NODE_INI", "NODE_FI"} if tag == "ARC" else set()
    names, cols = _attr_columns(fields, rows, element_ids,
                                multi_record_index)
    del extra
    arrays = cols + [pa.array(geoms, pa.binary())]
    return pa.table(arrays, names=names + ["geometry"])


def _read_polygons(data: bytes, path: str, hdr: dict, height: str):
    wide = hdr["wide"]
    # companion arc file: P.rel ArcSource, default <base>.arc
    base = os.path.splitext(path)[0]
    rel = base + "P.rel"
    src = _rel_value(rel, "OVERVIEW:ASPECTES_TECNICS", "ArcSource")
    if src:
        arc_path = os.path.join(os.path.dirname(path) or ".", src)
        if not os.path.splitext(arc_path)[1]:
            arc_path += ".arc"
    else:
        arc_path = base + ".arc"
    if not os.path.exists(arc_path):
        raise ValueError(f"MiraMon: {path}: missing arc file {arc_path}")
    arc_data = open(arc_path, "rb").read()
    arcs = _read_arcs(arc_data, arc_path, height)
    is3d = any(a["z"] is not None for a in arcs)

    # PS section (one record per arc), then the polygon headers
    ps = (16 if wide else 8) * len(arcs)
    ph = 80 if wide else 64
    pos = hdr["hsize"] + ps
    geoms, element_ids = [], []
    for i in range(hdr["count"]):
        if pos + ph > len(data):
            raise ValueError(f"MiraMon: {path}: truncated polygon headers")
        if wide:
            n_arcs, n_ext, n_rings, off = struct.unpack_from(
                "<4Q", data, pos + 32)
        else:
            n_arcs, n_ext, n_rings, off = struct.unpack_from(
                "<4I", data, pos + 32)
        pos += ph
        if i == 0:
            continue  # universal polygon — not a feature
        rings = []
        cur = None
        pal = off
        for _ in range(n_arcs):
            if wide:
                vfg = data[pal]
                ai = struct.unpack_from("<Q", data, pal + 1)[0]
                pal += 9
            else:
                vfg = data[pal]
                ai = struct.unpack_from("<I", data, pal + 1)[0]
                pal += 5
            if ai >= len(arcs):
                raise ValueError(f"MiraMon: {path}: arc index {ai} "
                                 "out of range")
            a = arcs[ai]
            pts = a["coords"]
            z = a["z"]
            full = np.column_stack([pts, z]) if z is not None else pts
            if vfg & 0x04:
                full = full[::-1]
            if cur is None:
                cur = [full, vfg & 0x01]
            else:
                cur[0] = np.vstack([cur[0], full[1:]])
            if vfg & 0x02:  # ring complete
                rings.append((cur[0], cur[1]))
                cur = None
        # group rings into parts: each exterior ring opens a part
        parts = []
        for ring, ext in rings:
            if ext or not parts:
                parts.append([ring])
            else:
                parts[-1].append(ring)
        if not parts:
            geoms.append(None)
        elif len(parts) == 1:
            geoms.append(_mk_polygon(parts[0], is3d))
        else:
            geoms.append(gwkb.collection_wkb(
                gwkb.MULTIPOLYGON, [_mk_polygon(p, is3d) for p in parts],
                "xyz" if is3d else "xy"))
        element_ids.append(i)
    return geoms, element_ids


def read_miramon(path: str, height: str = "First",
                 multi_record_index: str | None = None):
    """MiraMon layer → Ray Dataset (single read task; MiraMon layers
    are single-file and small — shard across layers, not within)."""
    import ray.data as rd

    return rd.from_arrow(
        read_miramon_local(path, height, multi_record_index))
