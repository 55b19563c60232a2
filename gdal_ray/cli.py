"""`gdal pipeline`-style CLI (apps/gdal.cpp:82 unified entry point;
pipeline parse apps/gdalalg_abstract_pipeline.h:379: steps split on
``!``).

Usage:
  python -m gdal_ray.cli vector pipeline \
      "read /path/in.parquet ! filter --where 'l_quantity > 45' \
       ! select --cols l_orderkey,l_quantity ! limit --n 10 \
       ! write /tmp/out"

Steps (the §2.12 Step protocol: each builder returns a
Dataset→Dataset transform):
  read PATH [--cols a,b] [--layer L]   write PATH
    (the driver is the first row of gdal_ray.drivers.DRIVERS that
     claims the path; parquet when none does)
  filter --where 'col OP value'   select --cols a,b
  limit --n N                     sort --by col [--desc]
  reproject --src CRS --dst CRS [--x lon --y lat]
  make-point [--x lon --y lat]    geoparse
  tile-encode [--zooms 7,9,12]    cell-encode
  pip-join (admin boundaries fixture)
  count (terminal: print row count)

``python -m gdal_ray.cli formats`` lists the driver registry, one
row a line: name, roles, suffixes, prefixes.

The driver contract owns ray.init; standalone runs guard with
``if not ray.is_initialized()``.
"""

from __future__ import annotations

import os
import re
import shlex
import sys

import pyarrow.compute as pc

from gdal_ray.drivers import (identify, load_raster, resolve_vector_source,
                              write_vector)

_OPS = {
    ">": pc.greater,
    ">=": pc.greater_equal,
    "<": pc.less,
    "<=": pc.less_equal,
    "=": pc.equal,
    "==": pc.equal,
    "!=": pc.not_equal,
    "<>": pc.not_equal,
}


def _parse_args(tokens: list[str]) -> dict:
    out = {}
    i = 0
    while i < len(tokens):
        if tokens[i].startswith("--"):
            key = tokens[i][2:]
            if i + 1 < len(tokens) and not tokens[i + 1].startswith("--"):
                out[key] = tokens[i + 1]
                i += 2
            else:
                out[key] = True
                i += 1
        else:
            out.setdefault("_args", []).append(tokens[i])
            i += 1
    return out


def _where_predicate(expr: str):
    parts = shlex.split(expr)
    if len(parts) != 3 or parts[1] not in _OPS:
        raise ValueError(f"unsupported WHERE expression: {expr!r} "
                         "(expected: col OP value)")
    col, op, raw = parts
    try:
        val: object = int(raw)
    except ValueError:
        try:
            val = float(raw)
        except ValueError:
            val = raw.strip("'\"")
    fn = _OPS[op]
    return lambda t: fn(t[col], val)


def parse_gdalg(path: str) -> tuple[str, str]:
    """.gdalg.json → (kind, pipeline spec with rebased paths).
    kind is "vector" or "raster"."""
    import json
    import os

    from gdal_ray.vsi import vsi_read_bytes

    raw = vsi_read_bytes(path).decode("utf-8")
    # the reference's own fixtures carry trailing commas — tolerate
    raw = re.sub(r",\s*}", "}", raw)
    doc = json.loads(raw)
    if doc.get("type") != "gdal_streamed_alg":
        raise ValueError("gdalg: not a gdal_streamed_alg document")
    cmd = doc.get("command_line", "")
    m = re.match(r"gdal\s+(vector|raster)\s+pipeline\s*!?\s*(.*)",
                 cmd, re.DOTALL)
    if not m:
        raise ValueError(f"gdalg: unsupported command line {cmd!r}")
    kind, spec = m.group(1), m.group(2)
    base = os.path.dirname(os.path.abspath(path))
    # rebase relative paths in read/write steps
    steps = [s.strip() for s in spec.split("!")]
    out_steps = []
    for s in steps:
        toks = shlex.split(s)
        if toks and toks[0] in ("read", "write") and len(toks) > 1 \
                and not os.path.isabs(toks[1]) \
                and "://" not in toks[1]:
            toks[1] = os.path.normpath(os.path.join(base, toks[1]))
            s = " ".join(shlex.quote(t) for t in toks)
        out_steps.append(s)
    return kind, " ! ".join(out_steps)


def run_gdalg_source(path: str):
    """A .gdalg.json vector pipeline → its result Dataset."""
    kind, spec = parse_gdalg(path)
    if kind != "vector":
        raise ValueError("gdalg: raster pipelines open via "
                         "load_raster/gdalg_raster")
    source, transforms, _terminal = build_pipeline(spec)
    ds = source()
    for t in transforms:
        ds = t(ds)
    return ds


def gdalg_raster(path: str) -> dict:
    """A .gdalg.json raster pipeline → the raster dict of its read
    step (transform steps beyond read are not yet mapped)."""
    kind, spec = parse_gdalg(path)
    if kind != "raster":
        raise ValueError("gdalg: not a raster pipeline")
    steps = [shlex.split(s.strip()) for s in spec.split("!")
             if s.strip()]
    if not steps or steps[0][0] != "read":
        raise ValueError("gdalg: raster pipeline must start with read")
    out = load_raster(steps[0][1])
    if len(steps) > 1:
        raise NotImplementedError(
            "gdalg: raster transform steps not supported yet")
    return out


def build_pipeline(spec: str):
    """Parse a `!`-separated step spec → (source_fn, [transforms],
    terminal)."""
    import ray.data as rd

    steps = [shlex.split(s.strip()) for s in spec.split("!") if s.strip()]
    if not steps or steps[0][0] != "read":
        raise ValueError("pipeline must start with: read PATH")
    transforms = []
    terminal = ("collect", None)
    src_args = _parse_args(steps[0][1:])
    src_path = src_args["_args"][0]
    cols = src_args.get("cols")
    col_list = cols.split(",") if cols else None
    source = resolve_vector_source(src_path, src_args.get("layer"),
                                   col_list)
    for step in steps[1:]:
        name = step[0]
        args = _parse_args(step[1:])
        if name == "write":
            terminal = ("write", args["_args"][0])
        elif name == "count":
            terminal = ("count", None)
        elif name == "filter":
            pred = _where_predicate(args["where"])
            transforms.append(
                lambda ds, p=pred: ds.map_batches(
                    lambda t: t.filter(p(t)), batch_format="pyarrow"
                )
            )
        elif name == "select":
            cols_ = args["cols"].split(",")
            transforms.append(lambda ds, c=cols_: ds.select_columns(c))
        elif name == "limit":
            transforms.append(lambda ds, n=int(args["n"]): ds.limit(n))
        elif name == "sort":
            transforms.append(
                lambda ds, k=args["by"], d=bool(args.get("desc")): ds.sort(
                    k, descending=d
                )
            )
        elif name == "reproject":
            from gdal_ray.stages.vector import reproject

            transforms.append(
                lambda ds, a=args: reproject(
                    ds, a["src"], a["dst"], a.get("x", "lon"), a.get("y", "lat")
                )
            )
        elif name == "make-point":
            from gdal_ray.stages.vector import make_point

            transforms.append(
                lambda ds, a=args: make_point(
                    ds, a.get("x", "lon"), a.get("y", "lat")
                )
            )
        elif name == "geoparse":
            from gdal_ray.geoparse import extract_coords

            transforms.append(
                lambda ds: ds.map_batches(extract_coords, batch_format="pyarrow")
            )
        elif name == "tile-encode":
            from gdal_ray.pipelines.flagship import encode_tiles

            zooms = tuple(
                int(z) for z in args.get("zooms", "7,9,12").split(",")
            )
            transforms.append(
                lambda ds, z=zooms: ds.map_batches(
                    lambda t: encode_tiles(t, z), batch_format="pyarrow"
                )
            )
        elif name == "cell-encode":
            from gdal_ray.pipelines.flagship import encode_cells

            transforms.append(
                lambda ds: ds.map_batches(encode_cells, batch_format="pyarrow")
            )
        elif name == "pip-join":
            from gdal_ray import fixtures
            from gdal_ray.stages.join import pip_join

            transforms.append(
                lambda ds: pip_join(ds, fixtures.gen_boundaries())
            )
        elif name == "linearize":
            from gdal_ray.stages.vector import linearize

            transforms.append(
                lambda ds, a=args: linearize(
                    ds, a.get("geom", "geometry"),
                    float(a.get("max-angle", 4.0)),
                )
            )
        elif name == "near-dups":
            # MinHash-LSH near-duplicate pairs (web-scale route)
            from gdal_ray.stages.dedup import near_duplicates

            transforms.append(
                lambda ds, a=args: near_duplicates(
                    ds, text_col=a.get("text", "text"),
                    id_col=a.get("id", "doc_id"),
                    threshold=float(a.get("threshold", 0.8)),
                )
            )
        elif name == "jaccard-ngram":
            # exact inverted-index n-gram Jaccard pairs (audit route)
            from gdal_ray.stages.dedup import jaccard_ngram_pairs

            transforms.append(
                lambda ds, a=args: jaccard_ngram_pairs(
                    ds, text_col=a.get("text", "text"),
                    id_col=a.get("id", "doc_id"),
                    k=int(a.get("k", 4)),
                    threshold=float(a.get("threshold", 0.5)),
                )
            )
        elif name == "sql":
            # full OGR SQL dialect statement over the piped dataset
            # (`gdal vector sql` surface; table name: input)
            from gdal_ray import ogrsql

            stmt = args["statement"]
            transforms.append(
                lambda ds, s=stmt: ogrsql.execute(s, {"input": ds})
            )
        else:
            raise ValueError(f"unknown pipeline step: {name!r}")
    return source, transforms, terminal


def run_pipeline(spec: str):
    """Execute a pipeline spec; returns (result, terminal_kind)."""
    source, transforms, terminal = build_pipeline(spec)
    ds = source()
    for t in transforms:
        ds = t(ds)
    kind, arg = terminal
    if kind == "write":
        write_vector(ds, arg)
        return arg, kind
    if kind == "count":
        return ds.count(), kind
    return ds, kind


def info_vector(path: str) -> str:
    """ogrinfo -so role: driver, feature count, extent, fields."""
    import numpy as np

    from gdal_ray.geom import wkb as W

    source, _, _ = build_pipeline(f"read {path}")
    full = source()
    n_total = full.count()  # distributed count — not the sample size
    t = full.limit(100000).take_batch(100000, batch_format="pyarrow")
    lines = [f"INFO: Open of `{path}'",
             f"      using driver `{identify(path, 'vector').name}' "
             "successful.",
             f"Feature Count: {n_total}"]
    if n_total > t.num_rows:
        lines.append(f"(extent/fields computed from first {t.num_rows} "
                     "features)")
    geom_col = "geometry" if "geometry" in t.column_names else None
    if geom_col:
        bounds = [
            W.bounds(g) for g in t[geom_col].to_pylist() if g is not None
        ]
        if bounds:
            b = np.array(bounds)
            lines.append(
                "Extent: (%.6f, %.6f) - (%.6f, %.6f)"
                % (b[:, 0].min(), b[:, 1].min(), b[:, 2].max(), b[:, 3].max())
            )
    crs = (t.schema.metadata or {}).get(b"crs")
    if crs:
        lines.append(f"SRS: {crs.decode()}")
    for f in t.schema:
        if f.name != geom_col:
            lines.append(f"{f.name}: {f.type}")
    return "\n".join(lines)


def info_raster(path: str) -> str:
    """gdalinfo role: driver, size, bands, dtype, CRS, transform — of
    whichever raster driver in gdal_ray.drivers claims the path."""
    g = load_raster(path)
    bands = g["bands"]
    h, w = bands[0].shape
    gt = g["geotransform"]
    lines = [
        f"Driver: {identify(path, 'raster').name}",
        f"Size is {w}, {h}",
        f"Bands: {len(bands)} ({bands[0].dtype})",
        f"Origin = ({gt[0]}, {gt[3]})",
        f"Pixel Size = ({gt[1]}, {gt[5]})",
    ]
    if g.get("crs"):
        lines.append(f"SRS: {g['crs']}")
    if g.get("nodata") is not None:
        lines.append(f"NoData Value={g['nodata']}")
    for i, b in enumerate(bands, 1):
        lines.append(
            f"Band {i}: Min={b.min():.3f} Max={b.max():.3f} Mean={b.mean():.3f}"
        )
    return "\n".join(lines)


def _raster_tool(cmd: str, args: list[str]) -> int:
    """gdal_translate / gdalwarp / COG-convert over GeoTIFF files
    (apps/gdal_translate_lib.cpp, apps/gdalwarp_lib.cpp roles)."""
    import argparse

    from gdal_ray.raster.gtiff import write_cog, write_geotiff

    p = argparse.ArgumentParser(prog=f"gdal_ray raster {cmd}")
    p.add_argument("src")
    p.add_argument("dst")
    if cmd == "translate":
        p.add_argument("--bands", help="1-based band list, e.g. 3,2,1")
        p.add_argument("--srcwin", nargs=4, type=int,
                       metavar=("XOFF", "YOFF", "XSIZE", "YSIZE"))
        p.add_argument("--projwin", nargs=4, type=float,
                       metavar=("ULX", "ULY", "LRX", "LRY"))
        p.add_argument("--outsize", nargs=2, metavar=("W", "H"))
        p.add_argument("--scale", nargs=4, type=float,
                       metavar=("SMIN", "SMAX", "DMIN", "DMAX"))
        p.add_argument("--ot")
        p.add_argument("--resample", default="nearest")
    elif cmd == "warp":
        p.add_argument("--t_srs", required=True, help="e.g. EPSG:3857")
        p.add_argument("--size", nargs=2, type=int, metavar=("W", "H"))
        p.add_argument("--resample", default="nearest")
        p.add_argument("--nodata", type=float, default=0.0)
    a = p.parse_args(args)

    g = load_raster(a.src)
    if cmd == "cog":
        write_cog(a.dst, g["bands"], g.get("crs", ""), g["geotransform"],
                  g.get("nodata"))
        return 0
    if cmd == "translate":
        from gdal_ray.raster.translate import translate

        out, gt = translate(
            g["bands"], g["geotransform"],
            band_list=[int(x) for x in a.bands.split(",")] if a.bands else None,
            srcwin=tuple(a.srcwin) if a.srcwin else None,
            projwin=tuple(a.projwin) if a.projwin else None,
            outsize=tuple(a.outsize) if a.outsize else None,
            resample=a.resample,
            scale=tuple(a.scale) if a.scale else None,
            ot=a.ot,
        )
        write_geotiff(a.dst, out, g.get("crs", ""), gt, g.get("nodata"))
        return 0
    # warp
    from gdal_ray.raster.warp import suggested_warp_output, warp_array

    src_crs = g.get("crs", "") or "EPSG:4326"
    band0 = g["bands"][0]
    (dh, dw), dst_gt = suggested_warp_output(
        band0.shape, g["geotransform"], src_crs, a.t_srs
    )
    if a.size:
        import numpy as np

        w, h = a.size
        sx = dst_gt[1] * dw / w
        sy = dst_gt[5] * dh / h
        dst_gt = (dst_gt[0], sx, 0.0, dst_gt[3], 0.0, sy)
        dh, dw = h, w
    out = [
        warp_array(b, g["geotransform"], src_crs, (dh, dw), dst_gt,
                   a.t_srs, method=a.resample, nodata=a.nodata).astype(
            b.dtype if a.resample == "nearest" else b.dtype)
        for b in g["bands"]
    ]
    write_geotiff(a.dst, out, a.t_srs, dst_gt, g.get("nodata"))
    return 0


def _dem_tool(args: list[str]) -> int:
    """gdaldem role (apps/gdaldem_lib.cpp): slope / aspect /
    hillshade / TPI / TRI / roughness / color-relief over GeoTIFF or
    VRT input, kernels from raster/focal.py + raster/kernels.py."""
    import argparse

    import numpy as np

    from gdal_ray.raster import focal
    from gdal_ray.raster.gtiff import write_geotiff

    p = argparse.ArgumentParser(prog="gdal_ray raster dem")
    p.add_argument("mode", choices=[
        "slope", "aspect", "hillshade", "tpi", "tri", "roughness",
        "color-relief"])
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--zfactor", type=float, default=1.0)
    p.add_argument("--azimuth", type=float, default=315.0)
    p.add_argument("--altitude", type=float, default=45.0)
    p.add_argument("--percent", action="store_true",
                   help="slope in percent instead of degrees")
    p.add_argument("--color-text",
                   help="gdaldem color file: 'value r g b' per line")
    p.add_argument("--exact-color", action="store_true")
    a = p.parse_args(args)

    g = load_raster(a.src)
    arr = g["bands"][0].astype(np.float64)
    gt = g["geotransform"]
    ewres, nsres = abs(gt[1]), abs(gt[5])

    if a.mode == "slope":
        out = [focal.slope(arr, ewres, nsres, a.zfactor,
                           "percent" if a.percent else "degree")]
    elif a.mode == "aspect":
        out = [focal.aspect(arr, ewres, nsres)]
    elif a.mode == "hillshade":
        out = [focal.hillshade(arr, ewres, nsres, a.azimuth,
                               a.altitude, a.zfactor).astype(np.uint8)]
    elif a.mode == "tpi":
        out = [focal.tpi(arr)]
    elif a.mode == "tri":
        out = [focal.tri(arr)]
    elif a.mode == "roughness":
        out = [focal.roughness(arr)]
    else:  # color-relief
        from gdal_ray.raster.kernels import color_map

        if not a.color_text:
            print("color-relief requires --color-text", file=sys.stderr)
            return 2
        ramp = []
        with open(a.color_text) as f:
            for line in f:
                parts = line.replace(",", " ").split()
                if not parts or parts[0].startswith("#") \
                        or parts[0] == "nv":
                    continue
                ramp.append((float(parts[0]),
                             tuple(int(v) for v in parts[1:4])))
        ramp.sort(key=lambda e: e[0])
        rgb = color_map(arr, ramp, interpolate=not a.exact_color)
        out = [rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]]
    write_geotiff(a.dst, out, g.get("crs", ""), gt, None)
    return 0


def _contour_tool(args: list[str]) -> int:
    """gdal_contour role (apps/gdal_contour_bin.cpp): iso-lines at
    fixed levels or a regular interval → GeoJSON LineStrings with an
    ``elev`` property (the reference's default attribute)."""
    import argparse
    import json

    import numpy as np

    from gdal_ray.raster.proximity import contour_segments, stitch_segments

    p = argparse.ArgumentParser(prog="gdal_ray raster contour")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--levels", help="comma list, e.g. 10,20,30")
    p.add_argument("--interval", type=float)
    a = p.parse_args(args)

    g = load_raster(a.src)
    arr = g["bands"][0].astype(np.float64)
    gt = g["geotransform"]
    if a.levels:
        levels = [float(v) for v in a.levels.split(",")]
    elif a.interval:
        lo = np.ceil(arr.min() / a.interval) * a.interval
        levels = list(np.arange(lo, arr.max(), a.interval))
    else:
        print("contour requires --levels or --interval", file=sys.stderr)
        return 2
    features = []
    for lev in levels:
        for line in stitch_segments(contour_segments(arr, lev)):
            # pixel-center coords → world (gt is axis-aligned)
            wx = gt[0] + line[:, 0] * gt[1]
            wy = gt[3] + line[:, 1] * gt[5]
            features.append({
                "type": "Feature",
                "properties": {"elev": float(lev)},
                "geometry": {
                    "type": "LineString",
                    "coordinates": [[float(x), float(y)]
                                    for x, y in zip(wx, wy)],
                },
            })
    with open(a.dst, "w") as f:
        json.dump({"type": "FeatureCollection", "features": features}, f)
    print(f"wrote {len(features)} contour lines to {a.dst}")
    return 0


def _tile_tool(args: list[str]) -> int:
    """gdal2tiles / `gdal raster tile` role: XYZ pyramid from a
    GeoTIFF — z/x/y.png tree (default) or one .pmtiles archive."""
    import argparse

    import numpy as np

    from gdal_ray.pipelines import tilepyramid as tp

    p = argparse.ArgumentParser(prog="gdal_ray raster tile")
    p.add_argument("src")
    p.add_argument("dst", help="output directory, or a .pmtiles path")
    p.add_argument("--zmin", type=int, required=True)
    p.add_argument("--zmax", type=int, required=True)
    p.add_argument("--vmin", type=float)
    p.add_argument("--vmax", type=float)
    a = p.parse_args(args)

    g = load_raster(a.src)
    band = g["bands"][0].astype(np.float32)
    vmin = a.vmin if a.vmin is not None else float(np.nanmin(band))
    vmax = a.vmax if a.vmax is not None else float(np.nanmax(band))
    tiles = tp.raster_tile_pyramid(
        band, g["geotransform"], g.get("crs", "") or "EPSG:3857",
        zmin=a.zmin, zmax=a.zmax)
    if a.dst.lower().endswith(".pmtiles"):
        stats = tp.write_pmtiles_pyramid(tiles, a.dst, vmin, vmax)
        print(f"wrote {stats['addressed']} tiles to {a.dst}")
    else:
        manifest = tp.write_png_tiles(tiles, a.dst, vmin, vmax)
        n = manifest.count()
        print(f"wrote {n} tiles under {a.dst}")
    return 0


def _rasterize_tool(args: list[str]) -> int:
    """gdal_rasterize role: vector features burned onto a new grid —
    ``raster rasterize SRC DST --size W H --extent minx miny maxx maxy
    [--attr FIELD | --burn V] [--add]``. SRC is any vector driver the
    pipeline reads (geometry column = WKB)."""
    import argparse

    import numpy as np

    from gdal_ray.raster.gtiff import write_geotiff
    from gdal_ray.raster.rasterize import rasterize_array

    p = argparse.ArgumentParser(prog="gdal_ray raster rasterize")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--size", nargs=2, type=int, required=True,
                   metavar=("W", "H"))
    p.add_argument("--extent", nargs=4, type=float, required=True,
                   metavar=("MINX", "MINY", "MAXX", "MAXY"))
    p.add_argument("--attr", help="burn this field's value per feature")
    p.add_argument("--burn", type=float, default=1.0)
    p.add_argument("--add", action="store_true")
    p.add_argument("--layer")
    a = p.parse_args(args)
    w, h = a.size
    minx, miny, maxx, maxy = a.extent
    gt = (minx, (maxx - minx) / w, 0.0, maxy, 0.0, -(maxy - miny) / h)
    extra = f" --layer {a.layer}" if a.layer else ""
    source, _, _ = build_pipeline(f"read {a.src}{extra}")
    rows = source().take_all()
    shapes = []
    for r in rows:
        g = r.get("geometry")
        if g is None:
            continue
        val = float(r[a.attr]) if a.attr else a.burn
        shapes.append((g, val))
    out = rasterize_array(shapes, w, h, gt,
                          merge_alg="add" if a.add else "replace")
    write_geotiff(a.dst, [out.astype(np.float32)], "", gt)
    print(f"burned {len(shapes)} features onto {w}x{h} grid")
    return 0


def _proximity_tool(args: list[str]) -> int:
    """gdal_proximity role: distance (in pixels or georeferenced
    units) to the nearest target pixel, exact EDT."""
    import argparse

    import numpy as np

    from gdal_ray.raster.gtiff import write_geotiff
    from gdal_ray.raster.proximity import proximity_array

    p = argparse.ArgumentParser(prog="gdal_ray raster proximity")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--values", help="comma target values (default: !=0)")
    p.add_argument("--maxdist", type=float)
    p.add_argument("--georef", action="store_true",
                   help="distances in CRS units (default: pixels)")
    a = p.parse_args(args)
    g = load_raster(a.src)
    targets = ([float(v) for v in a.values.split(",")]
               if a.values else None)
    out = proximity_array(g["bands"][0], target_values=targets,
                          max_distance=a.maxdist)
    if a.georef:
        out = out * abs(g["geotransform"][1])
    write_geotiff(a.dst, [out.astype(np.float32)], g.get("crs", ""),
                  g["geotransform"])
    return 0


def _calc_tool(args: list[str]) -> int:
    """gdal_calc.py role: band algebra over lettered inputs —
    ``raster calc "A*2 + B" out.tif -A a.tif -B b.tif [--ot t]``.
    Expression safety via the AST-validated kernel
    (raster/kernels.py::calc_expr)."""
    import numpy as np

    from gdal_ray.raster.gtiff import write_geotiff
    from gdal_ray.raster.kernels import calc_expr

    if len(args) < 4:
        print("usage: raster calc EXPR DST -A a.tif [-B b.tif ...] "
              "[--band N] [--ot dtype]", file=sys.stderr)
        return 2
    expr, dst = args[0], args[1]
    inputs: dict[str, str] = {}
    band = 1
    ot = None
    i = 2
    while i < len(args):
        tok = args[i]
        if tok == "--band":
            band = int(args[i + 1])
            i += 2
        elif tok == "--ot":
            ot = args[i + 1]
            i += 2
        elif tok.startswith("-") and len(tok) == 2 and tok[1].isalpha():
            inputs[tok[1]] = args[i + 1]
            i += 2
        else:
            print(f"unexpected argument {tok!r}", file=sys.stderr)
            return 2
    if not inputs:
        print("raster calc needs at least one -A input", file=sys.stderr)
        return 2
    arrays = {}
    ref = None
    for name, path in inputs.items():
        g = load_raster(path)
        arrays[name] = g["bands"][band - 1].astype(np.float64)
        ref = ref or g
    out = calc_expr(expr, arrays)
    if ot:
        out = out.astype(ot)
    write_geotiff(dst, [out], ref.get("crs", ""), ref["geotransform"],
                  ref.get("nodata"))
    return 0


def _polygonize_tool(args: list[str]) -> int:
    """gdal_polygonize role: connected same-value regions → GeoJSON
    polygons with a DN property (the reference default field)."""
    import argparse
    import json

    from gdal_ray.geom import wkt as WT
    from gdal_ray.raster.polygonize import polygonize_array

    p = argparse.ArgumentParser(prog="gdal_ray raster polygonize")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--connectivity", type=int, default=4,
                   choices=(4, 8))
    p.add_argument("--nodata", type=float,
                   help="exclude this value (gdal_polygonize -nomask "
                        "off behavior)")
    a = p.parse_args(args)
    g = load_raster(a.src)
    nod = a.nodata if a.nodata is not None else g.get("nodata")
    t = polygonize_array(g["bands"][0], g["geotransform"],
                         a.connectivity, exclude=nod)
    features = []
    for r in t.to_pylist():
        wkt = WT.to_wkt(r["geometry"])
        features.append({
            "type": "Feature",
            "properties": {"DN": r["value"],
                           "pixel_count": r["pixel_count"]},
            "geometry": _wkt_to_geojson_polygon(wkt),
        })
    with open(a.dst, "w") as f:
        json.dump({"type": "FeatureCollection", "features": features}, f)
    print(f"wrote {len(features)} polygons to {a.dst}")
    return 0


def formats() -> str:
    """One line per ``DRIVERS`` row, in lookup order: name, roles,
    suffixes and prefixes, tab-separated ("-" where a row has none)."""
    from gdal_ray.drivers import DRIVERS

    return "\n".join(
        "\t".join([
            d.name,
            ",".join(r for r in ("raster", "vector", "write") if getattr(d, r)),
            " ".join(d.suffixes) or "-",
            " ".join(d.prefixes) or "-",
        ])
        for d in DRIVERS
    )


def _wkt_to_geojson_polygon(wkt: str) -> dict:
    from gdal_ray.geom import wkb as W
    from gdal_ray.geom import wkt as WT

    rings = W.polygon_rings(WT.from_wkt(wkt))
    return {"type": "Polygon",
            "coordinates": [[[float(x), float(y)] for x, y in r]
                            for r in rings]}


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if argv == ["formats"]:
        print(formats())
        return 0
    if (
        len(argv) >= 3
        and argv[0] == "raster"
        and argv[1] in ("translate", "warp", "cog")
    ):
        return _raster_tool(argv[1], argv[2:])
    if len(argv) >= 4 and argv[0] == "raster" and argv[1] == "dem":
        return _dem_tool(argv[2:])
    if len(argv) >= 4 and argv[0] == "raster" and argv[1] == "contour":
        return _contour_tool(argv[2:])
    if len(argv) >= 4 and argv[0] == "raster" and argv[1] == "polygonize":
        return _polygonize_tool(argv[2:])
    if len(argv) >= 4 and argv[0] == "raster" and argv[1] == "calc":
        return _calc_tool(argv[2:])
    if len(argv) >= 4 and argv[0] == "raster" and argv[1] == "tile":
        import ray

        if not ray.is_initialized():
            ray.init(address="local", include_dashboard=False,
                     ignore_reinit_error=True, logging_level="ERROR")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        rc = _tile_tool(argv[2:])
        ray.shutdown()
        return rc
    if len(argv) >= 4 and argv[0] == "raster" and argv[1] == "rasterize":
        import ray

        if not ray.is_initialized():
            ray.init(address="local", include_dashboard=False,
                     ignore_reinit_error=True, logging_level="ERROR")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        rc = _rasterize_tool(argv[2:])
        ray.shutdown()
        return rc
    if len(argv) >= 4 and argv[0] == "raster" and argv[1] == "proximity":
        return _proximity_tool(argv[2:])
    if len(argv) >= 4 and argv[0] == "vector" and argv[1] == "convert":
        # ogr2ogr role: format conversion = read SRC ! write DST,
        # any registered driver pair; extra tokens (e.g. --layer L)
        # pass through to the read step
        import ray

        if not ray.is_initialized():
            ray.init(address="local", include_dashboard=False,
                     ignore_reinit_error=True, logging_level="ERROR")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        extra = " ".join(argv[4:])
        run_pipeline(f"read {argv[2]} {extra} ! write {argv[3]}")
        print(f"converted {argv[2]} -> {argv[3]}")
        ray.shutdown()
        return 0
    if len(argv) >= 4 and argv[0] == "raster" and argv[1] == "buildvrt":
        from gdal_ray.raster.vrt import build_vrt

        build_vrt(argv[3:], argv[2])
        return 0
    if len(argv) == 3 and argv[1] == "info":
        import ray

        if argv[0] == "raster":
            print(info_raster(argv[2]))
            return 0
        if argv[0] == "vector":
            if not ray.is_initialized():
                ray.init(
                    address="local",
                    include_dashboard=False,
                    ignore_reinit_error=True,
                    logging_level="ERROR",
                )
            from ray.data import DataContext

            DataContext.get_current().enable_progress_bars = False
            print(info_vector(argv[2]))
            ray.shutdown()
            return 0
    if len(argv) < 3 or argv[0] != "vector" or argv[1] != "pipeline":
        print(
            "usage: python -m gdal_ray.cli vector pipeline \"read ... ! ... \"\n"
            "       python -m gdal_ray.cli formats\n"
            "       python -m gdal_ray.cli vector info PATH\n"
            "       python -m gdal_ray.cli vector convert SRC DST [--layer L]\n"
            "       python -m gdal_ray.cli raster info PATH\n"
            "       python -m gdal_ray.cli raster translate|warp|cog SRC DST ...\n"
            "       python -m gdal_ray.cli raster buildvrt OUT.vrt SRC...\n"
            "       python -m gdal_ray.cli raster dem MODE SRC DST ...\n"
            "       python -m gdal_ray.cli raster contour|polygonize SRC DST ...\n"
            "       python -m gdal_ray.cli raster calc EXPR DST -A a.tif ...\n"
            "       python -m gdal_ray.cli raster rasterize|proximity SRC DST ...\n"
            "       python -m gdal_ray.cli raster tile SRC DST --zmin Z --zmax Z",
            file=sys.stderr,
        )
        return 2
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        res, kind = run_pipeline(argv[2])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        ray.shutdown()
        return 2
    if kind == "count":
        print(res)
    elif kind == "write":
        print(f"wrote {res}")
    else:
        print(res.count())
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
