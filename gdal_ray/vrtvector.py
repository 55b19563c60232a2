"""OGR VRT virtual vector driver — reference role
ogr/ogrsf_frmts/vrt (ogrvrtdatasource.cpp InstantiateLayer,
ogrvrtlayer.cpp FullInitialize), re-derived from the published OGR
VRT XML schema (data/ogrvrt.xsd):

  <OGRVRTDataSource>
    <OGRVRTLayer name="...">
      <SrcDataSource relativeToVRT="1">path-or-inline-VRT</SrcDataSource>
      <SrcLayer>name</SrcLayer> | <SrcSQL>SELECT ...</SrcSQL>
      <GeometryField encoding="Direct|WKT|WKB|PointFromColumns"
                     field=... x=... y=... z=.../>
      <LayerSRS>EPSG:...</LayerSRS>
      <FID [name="out"]>src_column</FID>
      <Field name="out" [src="in"] [type=...]/>
    </OGRVRTLayer>
    <OGRVRTWarpedLayer> <OGRVRTLayer.../> <TargetSRS/> [<SrcSRS/>]
    </OGRVRTWarpedLayer>
    <OGRVRTUnionLayer name="..."> <OGRVRTLayer.../>+ </OGRVRTUnionLayer>
  </OGRVRTDataSource>

Ray-first execution: the underlying source, a nested .vrt included,
opens through ``drivers.resolve_vector_source`` (the one driver
registry the pipeline CLI uses too) into a streaming Dataset; every
VRT transformation — geometry-field synthesis (WKT parse, WKB passthrough,
PointFromColumns via the vectorized point encoder), field
subset/rename, FID renames, warps through the cached per-worker
Transformer — is a ``map_batches`` stage over Arrow batches, so a
VRT layer composes with the rest of the engine untouched.  SrcSQL
compiles through the in-repo OGR SQL dialect (ogrsql.execute).

Parity pinned against the reference's own vrt fixtures
(autotest/ogr/data/vrt/*.vrt over poly.shp / flat.dbf) in
tests/test_vrtvector.py."""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa


def _read_source(src_path: str, src_layer: str | None,
                 vrt_dir: str, relative: bool, inline: str | None):
    from gdal_ray.drivers import resolve_vector_source

    if inline is not None:
        # inline CDATA VRT datasource: parse the nested document
        root = ET.fromstring(inline)
        return _dataset_for_layer(root, src_layer, vrt_dir)
    path = src_path
    if relative:
        path = os.path.join(vrt_dir, src_path)
    elif not os.path.exists(path):
        # relativeToVRT=0 resolves against the process cwd in the
        # reference; fall back to the VRT's directory and its
        # ancestors when the cwd probe misses (keeps fixture
        # documents usable anywhere)
        base = vrt_dir
        for _ in range(4):
            cand = os.path.join(base, src_path)
            if os.path.exists(cand):
                path = cand
                break
            base = os.path.dirname(base.rstrip("/")) or "/"
    return resolve_vector_source(path, layer=src_layer)()


def _apply_geometry_field(ds, gf: ET.Element | None,
                          geom_col: str = "geometry"):
    if gf is None:
        return ds
    enc = (gf.get("encoding") or "Direct").lower()
    if enc == "direct":
        field = gf.get("field")
        if field and field != geom_col:
            def rename(t: pa.Table) -> pa.Table:
                i = t.schema.get_field_index(field)
                return t.set_column(i, geom_col, t.column(field))

            return ds.map_batches(rename, batch_format="pyarrow")
        return ds
    if enc == "wkt":
        field = gf.get("field")

        def from_wkt_col(t: pa.Table) -> pa.Table:
            from gdal_ray.geom.wkt import from_wkt

            vals = [from_wkt(v) if v else None
                    for v in t.column(field).to_pylist()]
            t = t.drop_columns([field])
            return t.append_column(geom_col, pa.array(vals, pa.binary()))

        return ds.map_batches(from_wkt_col, batch_format="pyarrow")
    if enc == "wkb":
        field = gf.get("field")

        def from_wkb_col(t: pa.Table) -> pa.Table:
            vals = []
            for v in t.column(field).to_pylist():
                if v is None:
                    vals.append(None)
                elif isinstance(v, bytes):
                    vals.append(v)
                else:  # hex text column
                    vals.append(bytes.fromhex(v))
            t = t.drop_columns([field])
            return t.append_column(geom_col, pa.array(vals, pa.binary()))

        return ds.map_batches(from_wkb_col, batch_format="pyarrow")
    if enc == "pointfromcolumns":
        xcol, ycol = gf.get("x"), gf.get("y")
        zcol = gf.get("z")

        def points(t: pa.Table) -> pa.Table:
            from gdal_ray.geom.wkb import encode_points, point_wkb_d

            x = np.asarray(t.column(xcol).to_numpy(zero_copy_only=False),
                           np.float64)
            y = np.asarray(t.column(ycol).to_numpy(zero_copy_only=False),
                           np.float64)
            if zcol and zcol in t.schema.names:
                z = np.asarray(
                    t.column(zcol).to_numpy(zero_copy_only=False),
                    np.float64)
                vals = [point_wkb_d(np.array([[xi, yi, zi]]), "xyz")
                        for xi, yi, zi in zip(x, y, z)]
                arr = pa.array(vals, pa.binary())
            else:
                arr = encode_points(x, y)
            return t.append_column(geom_col, arr)

        return ds.map_batches(points, batch_format="pyarrow")
    raise ValueError(f"OGR VRT: unsupported GeometryField encoding {enc}")


def _apply_fields(ds, layer_el: ET.Element, geom_col: str = "geometry"):
    fields = layer_el.findall("Field")
    fid = layer_el.find("FID")
    renames: list[tuple[str, str]] = []
    keep: list[str] | None = None
    if fields:
        keep = []
        for f in fields:
            name = f.get("name")
            src = f.get("src") or name
            keep.append(name)
            if src != name:
                renames.append((src, name))
    if fid is not None and fid.text and fid.text.strip():
        src = fid.text.strip()
        out = fid.get("name") or src
        if out != src:
            renames.append((src, out))
        if keep is not None:
            keep.insert(0, out)
    if keep is None and not renames:
        return ds
    keep_cols = keep

    def project(t: pa.Table) -> pa.Table:
        for src, dst in renames:
            if src in t.schema.names:
                i = t.schema.get_field_index(src)
                t = t.set_column(i, dst, t.column(src))
        if keep_cols is not None:
            cols = [c for c in keep_cols if c in t.schema.names]
            if geom_col in t.schema.names:
                cols.append(geom_col)
            t = t.select(cols)
        return t

    return ds.map_batches(project, batch_format="pyarrow")


def _warp(ds, target_srs: str, src_srs: str | None,
          geom_col: str = "geometry"):
    def reproject(t: pa.Table) -> pa.Table:
        from gdal_ray.geom.ops import transform_wkb
        from gdal_ray.proj.transformer import Transformer

        tr = Transformer.from_crs(src_srs or "EPSG:4326", target_srs)
        vals = [transform_wkb(v, tr) if v else None
                for v in t.column(geom_col).to_pylist()]
        i = t.schema.get_field_index(geom_col)
        return t.set_column(i, geom_col, pa.array(vals, pa.binary()))

    return ds.map_batches(reproject, batch_format="pyarrow")


def _build_layer(el: ET.Element, vrt_dir: str):
    tag = el.tag
    if tag == "OGRVRTWarpedLayer":
        child = next(c for c in el
                     if c.tag in ("OGRVRTLayer", "OGRVRTWarpedLayer",
                                  "OGRVRTUnionLayer"))
        ds = _build_layer(child, vrt_dir)
        target = el.findtext("TargetSRS")
        src = el.findtext("SrcSRS")
        return _warp(ds, target.strip(), src.strip() if src else None)
    if tag == "OGRVRTUnionLayer":
        subs = [c for c in el
                if c.tag in ("OGRVRTLayer", "OGRVRTWarpedLayer",
                             "OGRVRTUnionLayer")]
        parts = [_build_layer(c, vrt_dir) for c in subs]
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        return out
    # plain OGRVRTLayer
    sd = el.find("SrcDataSource")
    if sd is None:
        raise ValueError(
            f"OGR VRT: layer {el.get('name')!r} has no SrcDataSource")
    src_text = (sd.text or "").strip()
    inline = src_text if src_text.startswith("<OGRVRTDataSource") else None
    relative = (sd.get("relativeToVRT") or "0").lower() in ("1", "true")
    src_layer = el.findtext("SrcLayer")
    src_sql = el.findtext("SrcSQL")
    if src_layer:
        src_layer = src_layer.strip()
    name = el.get("name")
    if src_sql:
        # SrcSQL runs through the in-repo OGR SQL dialect over the
        # source's layers (ogrvrtlayer.cpp ExecuteSQL role)
        from gdal_ray import ogrsql

        sql = src_sql.strip()
        # table name referenced in FROM
        import re

        m = re.search(r"\bFROM\s+\"?([A-Za-z_][\w.]*)\"?", sql,
                      re.IGNORECASE)
        tbl = m.group(1) if m else (src_layer or name)
        base = _read_source(src_text, tbl, vrt_dir, relative, inline)
        ds = ogrsql.execute(sql, {tbl: base})
    else:
        ds = _read_source(src_text, src_layer or name, vrt_dir,
                          relative, inline)
    ds = _apply_geometry_field(ds, el.find("GeometryField"))
    ds = _apply_fields(ds, el)
    return ds


def _dataset_for_layer(root: ET.Element, layer: str | None,
                       vrt_dir: str):
    layers = [el for el in root
              if el.tag in ("OGRVRTLayer", "OGRVRTWarpedLayer",
                            "OGRVRTUnionLayer")]
    if not layers:
        raise ValueError("OGR VRT: no layers")
    if layer is None:
        return _build_layer(layers[0], vrt_dir)
    for el in layers:
        if el.get("name") == layer or (
                el.tag == "OGRVRTWarpedLayer"
                and el.find("OGRVRTLayer") is not None
                and el.find("OGRVRTLayer").get("name") == layer):
            return _build_layer(el, vrt_dir)
    raise ValueError(f"OGR VRT: no layer named {layer!r}")


def vrt_layers(path_or_xml: str) -> list[str]:
    """Layer names declared in a VRT document."""
    xml = path_or_xml
    if not path_or_xml.lstrip().startswith("<"):
        from gdal_ray.vsi import vsi_read_bytes

        xml = vsi_read_bytes(path_or_xml).decode("utf-8")
    root = ET.fromstring(xml)
    out = []
    for el in root:
        if el.tag in ("OGRVRTLayer", "OGRVRTUnionLayer"):
            out.append(el.get("name"))
        elif el.tag == "OGRVRTWarpedLayer":
            sub = el.find("OGRVRTLayer")
            out.append(sub.get("name") if sub is not None else None)
    return out


def read_vrt_vector(path: str, layer: str | None = None):
    """OGR VRT document → Ray Dataset (streaming; the underlying
    driver's sharding is preserved and every VRT transform is a
    map_batches stage)."""
    from gdal_ray.vsi import vsi_read_bytes

    xml = vsi_read_bytes(path).decode("utf-8")
    root = ET.fromstring(xml)
    if root.tag != "OGRVRTDataSource":
        raise ValueError("not an OGR VRT document")
    return _dataset_for_layer(root, layer, os.path.dirname(path) or ".")
