"""VRT — GDAL's XML virtual raster format (read + build).

Reference role: frmts/vrt (VRTDataset/VRTRasterBand/SimpleSource) and
apps/gdalbuildvrt_lib.cpp; format per the public VRT tutorial
(gdal.org/drivers/raster/vrt.html). From-scratch ``xml.etree``
implementation — no reference code.

Scope (documented): axis-aligned geotransforms; SimpleSource /
ComplexSource with SrcRect→DstRect nearest resampling (the
gdalbuildvrt default); later sources paint over earlier, source
nodata doesn't paint (mosaic rule, raster/mosaic.py). Kernel
descriptions (KernelFilteredSource), LUTs and overviews are out of
scope.

Ray shape: ONE read task per (source, band) — the driver parses only
the XML; pixel decode happens in tasks. Composition is a
``groupby(band, dst_block)`` over per-source window contributions —
no whole-mosaic materialization, arbitrarily many sources stream
through the object store.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa

from gdal_ray.raster import model
from gdal_ray.raster.mosaic import mosaic_arrays

_GDAL_DT = {
    "uint8": "Byte", "uint16": "UInt16", "int16": "Int16",
    "uint32": "UInt32", "int32": "Int32", "float32": "Float32",
    "float64": "Float64",
}
_NP_DT = {v: k for k, v in _GDAL_DT.items()}


# ---------------------------------------------------------------------------
# build (gdalbuildvrt role)


def build_vrt(tif_paths: list[str], vrt_path: str) -> dict:
    """Union-extent VRT over GeoTIFF sources sharing CRS and pixel
    size (gdalbuildvrt's default same-resolution contract; it errors
    otherwise too, gdalbuildvrt_lib.cpp resolution analysis). Headers
    only — no pixel decode. Returns the parsed layout."""
    from gdal_ray.raster.gtiff import probe_geotiff
    from gdal_ray.vsi import vsi_read_bytes as vsi_read

    infos = []
    for p in tif_paths:
        infos.append((p, probe_geotiff(vsi_read(p))))
    gt0 = infos[0][1]["geotransform"]
    crs = infos[0][1]["crs"]
    px, py = gt0[1], gt0[5]
    for p, inf in infos:
        g = inf["geotransform"]
        if (g[1], g[5]) != (px, py) or inf["crs"] != crs:
            raise ValueError(f"{p}: resolution/CRS differs (pass warped inputs)")
        if g[2] or g[4]:
            raise ValueError(f"{p}: rotated geotransform unsupported")
    minx = min(i["geotransform"][0] for _, i in infos)
    maxy = max(i["geotransform"][3] for _, i in infos)
    maxx = max(
        i["geotransform"][0] + i["width"] * px for _, i in infos
    )
    miny = min(
        i["geotransform"][3] + i["height"] * py for _, i in infos
    )
    w = int(round((maxx - minx) / px))
    h = int(round((miny - maxy) / py))
    nbands = max(i["bands"] for _, i in infos)

    root = ET.Element(
        "VRTDataset", rasterXSize=str(w), rasterYSize=str(h)
    )
    ET.SubElement(root, "SRS").text = crs
    ET.SubElement(root, "GeoTransform").text = ", ".join(
        repr(v) for v in (minx, px, 0.0, maxy, 0.0, py)
    )
    vrt_dir = os.path.dirname(os.path.abspath(vrt_path)) or "."
    for b in range(1, nbands + 1):
        band_el = ET.SubElement(
            root, "VRTRasterBand",
            dataType=_GDAL_DT[infos[0][1]["dtype"]], band=str(b),
        )
        nd = infos[0][1]["nodata"]
        if nd is not None:
            ET.SubElement(band_el, "NoDataValue").text = repr(nd)
        for p, inf in infos:
            if b > inf["bands"]:
                continue
            src = ET.SubElement(band_el, "SimpleSource")
            rel = os.path.relpath(os.path.abspath(p), vrt_dir) \
                if not p.startswith("/vsi") else p
            fn = ET.SubElement(
                src, "SourceFilename",
                relativeToVRT="0" if p.startswith("/vsi") else "1",
            )
            fn.text = rel if not p.startswith("/vsi") else p
            ET.SubElement(src, "SourceBand").text = str(b)
            g = inf["geotransform"]
            xoff = int(round((g[0] - minx) / px))
            yoff = int(round((g[3] - maxy) / py))
            ET.SubElement(
                src, "SrcRect", xOff="0", yOff="0",
                xSize=str(inf["width"]), ySize=str(inf["height"]),
            )
            ET.SubElement(
                src, "DstRect", xOff=str(xoff), yOff=str(yoff),
                xSize=str(inf["width"]), ySize=str(inf["height"]),
            )
    xml = ET.tostring(root, encoding="unicode")
    from gdal_ray.vsi import vsi_write_bytes as vsi_write

    vsi_write(vrt_path, xml.encode())
    return parse_vrt(xml.encode(), vrt_dir)


# ---------------------------------------------------------------------------
# parse


def _rect(el) -> tuple[int, int, int, int]:
    return (int(float(el.get("xOff"))), int(float(el.get("yOff"))),
            int(float(el.get("xSize"))), int(float(el.get("ySize"))))


def parse_vrt(xml: bytes | str, base_dir: str = ".") -> dict:
    """VRT XML → layout dict {width, height, crs, geotransform,
    bands: [{band, dtype, nodata, sources: [...]}]} with each source's
    EFFECTIVE geotransform precomputed from the VRT grid + DstRect +
    SrcRect (so scaled sources resample by nearest, the SimpleSource
    default)."""
    root = ET.fromstring(xml if isinstance(xml, str) else xml.decode())
    w = int(root.get("rasterXSize"))
    h = int(root.get("rasterYSize"))
    srs = root.findtext("SRS") or ""
    gt_text = root.findtext("GeoTransform")
    gt = tuple(float(v) for v in gt_text.split(",")) if gt_text else (
        0.0, 1.0, 0.0, 0.0, 0.0, -1.0)
    if gt[2] or gt[4]:
        raise ValueError("rotated VRT geotransform unsupported")
    bands = []
    for band_el in root.findall("VRTRasterBand"):
        nd_text = band_el.findtext("NoDataValue")
        sources = []
        for tag in ("SimpleSource", "ComplexSource"):
            for src in band_el.findall(tag):
                fn_el = src.find("SourceFilename")
                fn = (fn_el.text or "").strip()
                if fn_el.get("relativeToVRT", "0") == "1":
                    fn = os.path.join(base_dir, fn)
                sb = int(src.findtext("SourceBand") or "1")
                sr = src.find("SrcRect")
                dr = src.find("DstRect")
                src_rect = _rect(sr) if sr is not None else None
                dst_rect = _rect(dr) if dr is not None else None
                nd_src = src.findtext("NODATA")
                sources.append({
                    "filename": fn, "band": sb,
                    "src_rect": src_rect, "dst_rect": dst_rect,
                    "nodata": float(nd_src) if nd_src else None,
                    # ComplexSource linear rescale (frmts/vrt
                    # ScaleOffset/ScaleRatio); SimpleSource: identity
                    "scale_ratio": float(src.findtext("ScaleRatio")
                                         or 1.0),
                    "scale_offset": float(src.findtext("ScaleOffset")
                                          or 0.0),
                })
        bands.append({
            "band": int(band_el.get("band", len(bands) + 1)),
            "dtype": _NP_DT.get(band_el.get("dataType", "Float64"),
                                "float64"),
            "nodata": float(nd_text) if nd_text else None,
            "sources": sources,
        })
    return {"width": w, "height": h, "crs": srs, "geotransform": gt,
            "bands": bands}


def _effective_gt(vrt_gt, src_rect, dst_rect, src_w, src_h):
    """Geotransform that places the source's SrcRect window onto the
    VRT grid per DstRect (nearest scaling when sizes differ)."""
    sx, sy, sw, sh = src_rect if src_rect else (0, 0, src_w, src_h)
    dx, dy, dw, dh = dst_rect if dst_rect else (0, 0, sw, sh)
    stepx = vrt_gt[1] * dw / sw
    stepy = vrt_gt[5] * dh / sh
    ox = vrt_gt[0] + dx * vrt_gt[1] - sx * stepx
    oy = vrt_gt[3] + dy * vrt_gt[5] - sy * stepy
    return (ox, stepx, 0.0, oy, 0.0, stepy)


# ---------------------------------------------------------------------------
# distributed read


def read_vrt(path: str, tile_size: int = 256):
    """VRT → Dataset of composed tile-table rows on the VRT grid.

    Driver work = XML parse only. One task per source decodes its
    file and emits one window row per overlapped destination block;
    ``groupby(band, dst block)`` composites last-wins with nodata
    skip (mosaic rule)."""
    import ray.data as rd

    from gdal_ray.stages.partition import map_keys
    from gdal_ray.vsi import vsi_read_bytes as vsi_read

    layout = parse_vrt(vsi_read(path),
                       os.path.dirname(os.path.abspath(path)) or ".")
    gt = layout["geotransform"]
    crs = layout["crs"]
    ts = tile_size
    items = []
    for bi, band in enumerate(layout["bands"]):
        for si, src in enumerate(band["sources"]):
            items.append({
                "band": band["band"], "source_idx": si,
                "filename": src["filename"], "src_band": src["band"],
                "src_rect": list(src["src_rect"]) if src["src_rect"]
                else None,
                "dst_rect": list(src["dst_rect"]) if src["dst_rect"]
                else None,
                "nodata": src["nodata"] if src["nodata"] is not None
                else band["nodata"],
                "scale_ratio": src["scale_ratio"],
                "scale_offset": src["scale_offset"],
            })
    W, H = layout["width"], layout["height"]

    def contribute(batch: pa.Table) -> pa.Table:
        from gdal_ray.raster.gtiff import decode_geotiff

        rows = []
        for it in batch.to_pylist():
            g = decode_geotiff(vsi_read(it["filename"]))
            arr = g["bands"][it["src_band"] - 1]
            sh, sw = arr.shape
            sx, sy, swr, shr = it["src_rect"] or (0, 0, sw, sh)
            win = np.ascontiguousarray(arr[sy : sy + shr, sx : sx + swr])
            sr, so = it["scale_ratio"], it["scale_offset"]
            if sr != 1.0 or so != 0.0:
                # ComplexSource rescale; NODATA masks SOURCE values,
                # so nodata pixels keep their sentinel (mosaic skips)
                w64 = win.astype(np.float64) * sr + so
                if it["nodata"] is not None:
                    w64[win == it["nodata"]] = it["nodata"]
                win = w64
            eff = _effective_gt(gt, (sx, sy, swr, shr),
                                tuple(it["dst_rect"])
                                if it["dst_rect"] else None, sw, sh)
            # the emitted array is the CROPPED window: shift the
            # origin so window pixel (0,0) maps to the DstRect corner
            eff = (eff[0] + sx * eff[1], eff[1], 0.0,
                   eff[3] + sy * eff[5], 0.0, eff[5])
            dx, dy, dw, dh = it["dst_rect"] or (0, 0, swr, shr)
            bx0, bx1 = max(0, dx // ts), min((W - 1) // ts,
                                             (dx + dw - 1) // ts)
            by0, by1 = max(0, dy // ts), min((H - 1) // ts,
                                             (dy + dh - 1) // ts)
            for by in range(by0, by1 + 1):
                for bx in range(bx0, bx1 + 1):
                    # crop the window to this block's world extent
                    # (+1 px margin) so each contribution row carries
                    # ~block-sized bytes, not the whole source window
                    wx0 = max(0, int((gt[0] + bx * ts * gt[1] - eff[0])
                                     / eff[1]) - 1)
                    wy0 = max(0, int((gt[3] + by * ts * gt[5] - eff[3])
                                     / eff[5]) - 1)
                    bw_px = min(ts, W - bx * ts)
                    bh_px = min(ts, H - by * ts)
                    wx1 = min(swr, int((gt[0] + (bx * ts + bw_px)
                                        * gt[1] - eff[0]) / eff[1]) + 2)
                    wy1 = min(shr, int((gt[3] + (by * ts + bh_px)
                                        * gt[5] - eff[3]) / eff[5]) + 2)
                    if wx1 <= wx0 or wy1 <= wy0:
                        continue
                    sub = np.ascontiguousarray(win[wy0:wy1, wx0:wx1])
                    sub_gt = (eff[0] + wx0 * eff[1], eff[1], 0.0,
                              eff[3] + wy0 * eff[5], 0.0, eff[5])
                    rows.append({
                        "band": it["band"], "dst_bx": bx, "dst_by": by,
                        "source_idx": it["source_idx"],
                        "x0": 0, "y0": 0,
                        "width": wx1 - wx0, "height": wy1 - wy0,
                        "dtype": str(sub.dtype), "data": sub.tobytes(),
                        "geotransform": list(sub_gt), "crs": crs,
                        "nodata": it["nodata"],
                    })
        return pa.Table.from_pylist(rows)

    contrib = rd.from_items(items).map_batches(
        contribute, batch_format="pyarrow"
    )

    def compose(group: pa.Table) -> pa.Table:
        rows = sorted(group.to_pylist(), key=lambda r: r["source_idx"])
        r0 = rows[0]
        bx, by, band = r0["dst_bx"], r0["dst_by"], r0["band"]
        block_gt = (gt[0] + bx * ts * gt[1], gt[1], 0.0,
                    gt[3] + by * ts * gt[5], 0.0, gt[5])
        bw = min(ts, W - bx * ts)
        bh = min(ts, H - by * ts)
        srcs = [(model.tile_array(r), tuple(r["geotransform"]))
                for r in rows]
        nodata = r0["nodata"]
        out = mosaic_arrays(srcs, block_gt, (bh, bw), nodata,
                            init=nodata if nodata is not None else 0.0)
        return pa.Table.from_pylist([{
            "band": band, "block_x": int(bx), "block_y": int(by),
            "x0": int(bx) * ts, "y0": int(by) * ts,
            "width": bw, "height": bh, "crs": crs,
            "geotransform": list(gt), "dtype": "float64",
            "data": out.tobytes(),
        }])

    return map_keys(contrib, ["band", "dst_bx", "dst_by"], compose)


def read_vrt_array(path: str) -> dict:
    """Single-process composed read → decode_geotiff-shaped dict
    ({"bands", "crs", "geotransform", "nodata"}) so CLI translate/
    warp/cog accept .vrt sources directly. Small rasters / CLI only —
    the distributed path is read_vrt."""
    from gdal_ray.raster.gtiff import decode_geotiff
    from gdal_ray.vsi import vsi_read_bytes as vsi_read

    layout = parse_vrt(vsi_read(path),
                       os.path.dirname(os.path.abspath(path)) or ".")
    gt = layout["geotransform"]
    W, H = layout["width"], layout["height"]
    bands = []
    nodata = None
    for band in layout["bands"]:
        nodata = band["nodata"] if band["nodata"] is not None else nodata
        srcs = []
        for s in band["sources"]:
            g = decode_geotiff(vsi_read(s["filename"]))
            arr = g["bands"][s["band"] - 1]
            sh, sw = arr.shape
            sx, sy, swr, shr = s["src_rect"] or (0, 0, sw, sh)
            eff = _effective_gt(gt, (sx, sy, swr, shr),
                                s["dst_rect"], sw, sh)
            win = np.ascontiguousarray(arr[sy:sy + shr, sx:sx + swr])
            sr, so = s["scale_ratio"], s["scale_offset"]
            if sr != 1.0 or so != 0.0:
                nd_s = s["nodata"] if s["nodata"] is not None \
                    else band["nodata"]
                w64 = win.astype(np.float64) * sr + so
                if nd_s is not None:
                    w64[win == nd_s] = nd_s
                win = w64
            win_gt = (eff[0] + sx * eff[1], eff[1], 0.0,
                      eff[3] + sy * eff[5], 0.0, eff[5])
            srcs.append((win, win_gt))
        nd = band["nodata"]
        out = mosaic_arrays(srcs, gt, (H, W), nd,
                            init=nd if nd is not None else 0.0)
        bands.append(out)
    return {"bands": bands, "crs": layout["crs"], "geotransform": gt,
            "nodata": nodata}
