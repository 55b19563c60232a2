"""One driver registry: which reader or writer opens a path.

The GDALDriverManager role (gcore/gdaldrivermanager.cpp): drivers sit
in one ordered table, each row's identify sees the path and a bounded
head of the file, and the first row that claims the path opens it.
``load_raster``, ``resolve_vector_source`` and ``write_vector`` (the
pipeline ``write`` step) are lookups over ``DRIVERS`` restricted to
rows with a raster, vector or write opener.

A row claims a path when the lower-cased path ends with one of its
``suffixes`` or starts with one of its ``prefixes``, and then its
``identify(path, head)``, if it has one, returns true. A suffix ending
in "/" also matches a directory path given with trailing slashes; a
prefix matches as written, and a lower-case prefix in any case. Rows
whose prefix the path carries are tried before all others, so
``gtfs:x.shp`` reaches GTFS. A row with neither suffixes nor prefixes
leaves the choice to identify alone; the last row (Parquet) has none
of the three and claims every path, except that it writes only a path
no vector reader claims by suffix.
``head`` is the first 4 KB of the file, read at most once per lookup
and only when a row with identify is reached; it is empty for a
directory or a path that does not open.

Openers are lazy ``"module:function"`` names, so importing this module
imports no driver. A raster opener takes the path, or the file's bytes
when its name starts with ``decode_``; a vector opener takes the path,
less the prefix that matched (GTFS's ``gtfs:``), and the keywords
named in ``args``; a writer takes (dataset, path).
"""

from __future__ import annotations

import contextlib
import functools
import os
import pkgutil
import re
from typing import Callable, NamedTuple

_HEAD = 4096


class Driver(NamedTuple):
    name: str
    suffixes: tuple[str, ...] = ()
    identify: Callable[[str, bytes], bool] | None = None
    raster: str | None = None
    vector: str | None = None
    write: str | None = None
    args: tuple[str, ...] = ()  # vector keywords: layer, columns, sheet
    layer: str | None = None  # default layer
    prefixes: tuple[str, ...] = ()


def _magic(*heads: bytes):
    return lambda p, h: h.startswith(heads)


def _dir_has(name: str):
    return lambda p, h: os.path.exists(os.path.join(p, name))


def _sidecar(ext: str):
    return lambda p, h: os.path.exists(p + ext)


_R = "gdal_ray.raster."
_SLC = (".slc", ".unw", ".cor", ".amp", ".flg")
_TIFF = (b"II*\0", b"MM\0*", b"II+\0", b"MM\0+")  # TIFF, BigTIFF

DRIVERS: tuple[Driver, ...] = (
    # raster drivers, in first-match order; VRT, GDALG and GPKG
    # also open vector layers
    Driver("VRT", (".vrt",), raster=_R + "vrt:read_vrt_array",
           vector="gdal_ray.vrtvector:read_vrt_vector", args=("layer",)),
    Driver("GSAG", (".grd",), _magic(b"DSAA"), _R + "surfer:read_surfer"),
    Driver("GSBG", (".grd",), _magic(b"DSBB"), _R + "surfer:read_surfer"),
    Driver("GS7BG", (".grd",), _magic(b"DSRB"), _R + "surfer:read_surfer"),
    Driver("NWT_GRD", (".grd",), _magic(b"HGPC"),
           _R + "nwtgrd:read_nwt_grd"),
    Driver("RRASTER", (".grd",), lambda p, h: h[:16].lstrip()[:1] == b"[",
           _R + "rraster:read_rraster"),
    Driver("AAIGrid", (".grd", ".asc"), raster=_R + "aaigrid:read_aaigrid"),
    Driver("SAGA", (".sdat", ".sgrd", ".sg-grd-z"),
           raster=_R + "saga:read_saga"),
    Driver("XYZ", (".xyz",), raster=_R + "aaigrid:decode_xyz"),
    Driver("CPG", ("sirc.img",), raster=_R + "rawzoo:read_cpg_sirc"),
    Driver("HFA", (".img", ".dat", ".aux", ".rrd"),
           _magic(b"EHFA_HEADER_TAG"), _R + "hfa:read_hfa"),
    Driver("ENVI", (".img", ".dat"), raster=_R + "envi:read_envi"),
    Driver("EHdr", (".bil", ".bip", ".flt"), raster=_R + "envi:read_ehdr"),
    Driver("DTED", (".dt0", ".dt1", ".dt2"), raster=_R + "dted:read_dted"),
    Driver("GRIB", (".grb", ".grb2", ".grib", ".grib2", ".bin"),
           lambda p, h: b"GRIB" in h, _R + "grib:read_grib_raster"),
    Driver("NITF", (".ntf", ".nsf", ".nitf"), raster=_R + "nitf:read_nitf"),
    Driver("GTX", (".gtx",), raster=_R + "gtx:read_gtx"),
    Driver("JPEG2000", (".jp2", ".j2k", ".jpc", ".jpx"),
           raster=_R + "jp2:decode_jp2"),
    Driver("TGA", (".tga",), raster=_R + "tga:read_tga"),
    Driver("SRTMHGT", (".hgt", ".hgts"), raster=_R + "srtmhgt:read_srtmhgt"),
    Driver("FITS", (".fits", ".fit"), raster=_R + "fits:read_fits",
           prefixes=('FITS:"',)),
    Driver("Leveller", (".ter",), _magic(b"trrn"),
           _R + "leveller:read_leveller"),
    Driver("Terragen", (".ter",), raster=_R + "terragen:read_terragen"),
    Driver("ISIS3", (".lbl", ".cub"), lambda p, h: b"IsisCube" in h[:2048],
           _R + "isis:read_isis3"),
    Driver("ISIS2", (".cub",), raster=_R + "isis:read_isis2"),
    Driver("PDS", (".lbl",), raster=_R + "pds:read_pds"),
    Driver("RMF", (".rsw", ".mtw"), raster=_R + "rmf:read_rmf"),
    # NSIDC sea-ice tiles are named nt_YYYYMMDD_*.bin
    # (nsidcbindataset.cpp identity rule)
    Driver("NSIDCbin", (".bin",),
           lambda p, h: os.path.basename(p.lower()).startswith("nt_"),
           _R + "rawzoo:read_nsidcbin"),
    Driver("NGSGEOID", (".bin",), raster=_R + "ngsgeoid:read_ngsgeoid"),
    Driver("CPG", ("sirc.hdr",), raster=_R + "rawzoo:read_cpg_sirc"),
    Driver("SNODAS", (".hdr",),
           lambda p, h: b"Data file pathname" in h[:2048],
           _R + "rawzoo:read_snodas"),
    Driver("MFF", (".hdr",), raster=_R + "mff:read_mff"),
    Driver("GSC", (".gsc",), raster=_R + "rawzoo:read_gsc"),
    Driver("DOQ2", (".doq",), _magic(b"BEGIN_USGS_DOQ_HEADER"),
           _R + "rawzoo:read_doq2"),
    Driver("DOQ1", (".doq",), raster=_R + "rawzoo:read_doq1"),
    Driver("NOAA_B", (".b",), raster=_R + "rawzoo:read_noaa_b"),
    Driver("BT", (".bt",), raster=_R + "rawzoo:read_bt"),
    Driver("KRO", (".kro",), raster=_R + "rawzoo:read_kro"),
    Driver("ACE2", (".ace2",), raster=_R + "rawzoo:read_ace2"),
    Driver("NDF", tuple(f".h{c}" for c in "0123456789d"),
           raster=_R + "rawzoo:read_ndf"),
    Driver("AIG", (), _dir_has("hdr.adf"), _R + "aig:read_aig"),
    Driver("AIG", ("hdr.adf", "w001001.adf", "prj.adf"),
           raster=_R + "aig:read_aig"),
    Driver("MFF2", (), _dir_has("attrib"), _R + "rawzoo:read_mff2"),
    Driver("PNM", (".pgm", ".ppm", ".pbm", ".pnm"),
           raster=_R + "pnm:read_pnm"),
    Driver("BMP", (".bmp",), raster=_R + "bmp:read_bmp"),
    Driver("GIF", (".gif",), raster=_R + "gif:read_gif"),
    Driver("LOSLAS", (".los", ".las"),
           raster="gdal_ray.proj.nadcon:read_loslas"),
    Driver("LAN", (".lan", ".gis"), raster=_R + "lan:read_lan"),
    Driver("BYN", (".byn",), raster=_R + "byn:read_byn"),
    Driver("ROI_PAC", (".dem",), _sidecar(".rsc"), _R + "insar:read_roipac"),
    Driver("USGSDEM", (".dem",), raster=_R + "usgsdem:read_usgsdem"),
    Driver("ISCE", _SLC, _sidecar(".xml"), _R + "insar:read_isce"),
    Driver("ROI_PAC", _SLC, raster=_R + "insar:read_roipac"),
    Driver("RST", (".rst", ".rdc"), raster=_R + "idrisi:read_rst"),
    Driver("Terragen", (".terrain",), raster=_R + "terragen:read_terragen"),
    Driver("JDEM", (".mem",), raster=_R + "jdem:read_jdem"),
    Driver("GXF", (".gxf",), raster=_R + "gxf:read_gxf"),
    Driver("NWT_GRC", (".grc",), raster=_R + "nwtgrd:read_nwt_grc"),
    Driver("VICAR", (".vic", ".vicar"), raster=_R + "vicar:read_vicar"),
    Driver("BSB", (".kap", ".nos", ".no1"), raster=_R + "bsb:read_bsb"),
    Driver("ZMap", (".zmap", ".zycor"), raster=_R + "zmap:read_zmap"),
    Driver("HF2", (".hf2", ".hfz", ".hf2.gz"), raster=_R + "hf2:read_hf2"),
    Driver("CALS", (".cal", ".ct1"), raster=_R + "cals:read_cals"),
    Driver("SAFE", (".safe/",), raster=_R + "safe:read_safe"),
    Driver("ESRIC", (".tpkx", "conf.xml", "root.json"),
           raster=_R + "esric:read_esric"),
    Driver("DDS", (".dds",), raster=_R + "dds:read_dds"),
    Driver("DIMAP", (".dim", ".xml"),
           lambda p, h: bool(re.search(r"(\.dim|(dim|vol)_[^/]*\.xml)$",
                                       p.lower())),
           _R + "dimap:read_dimap"),
    Driver("PRF", (".prf", ".x-dem"), raster=_R + "prf:read_prf"),
    Driver("ADRG", (".gen", ".thf"), raster=_R + "adrg:read_adrg_or_srp",
           prefixes=("ADRG:",)),
    Driver("ISG", (".isg",), raster=_R + "aaigrid:read_isg"),
    Driver("TIL", (".til",), raster=_R + "til:read_til"),
    Driver("SRP", raster=_R + "srp:read_srp", prefixes=("SRP:",)),
    Driver("PCIDSK", (".pix",), raster=_R + "pcidsk:read_pcidsk"),
    Driver("MRF", (".mrf",), raster=_R + "mrf:read_mrf"),
    Driver("GDALG", (".gdalg.json",), raster="gdal_ray.cli:gdalg_raster",
           vector="gdal_ray.cli:run_gdalg_source"),
    Driver("PCRaster", (".map",), lambda p, h: b"RUU CROSS" in h[:27],
           _R + "rawzoo:read_pcraster"),
    Driver("ERS", (".ers",), raster=_R + "ers:read_ers"),
    Driver("ILWIS", (".mpr",), raster=_R + "ilwis:read_ilwis"),
    Driver("CTG", (), lambda p, h: "grid_cell" in os.path.basename(
        p.lower()), _R + "ctg:read_ctg"),
    Driver("SIGDEM", (".sdem",), raster=_R + "sigdem:read_sigdem"),
    Driver("netCDF", (".nc", ".cdf"), raster=_R + "netcdf:read_netcdf_array"),
    Driver("MBTiles", (".mbtiles", ".mbtiles.sql"),
           raster="gdal_ray.mbtiles:read_mbtiles_array"),
    Driver("GPKG", (".gpkg",),
           raster="gdal_ray.gpkg_raster:read_gpkg_raster_array",
           vector="gdal_ray.gpkg:read_gpkg", write="gdal_ray.gpkg:write_gpkg",
           args=("layer",)),
    Driver("Zarr", (".zarr/",), raster=_R + "zarr:read_zarr_array"),
    Driver("GTiff", (), lambda p, h: p.lower().endswith((".tif", ".tiff"))
           or h[:4] in _TIFF, _R + "gtiff:decode_geotiff"),
    # vector drivers and sinks, in first-match order
    Driver("JSONFG", (".geojson", ".json"),
           lambda p, h: any(m in h for m in (b"json-fg", b'"place"',
                                              b'"coordRefSys"')),
           vector="gdal_ray.jsonfg:read_jsonfg", args=("layer", "columns")),
    Driver("JSONFG", (".jsonfg",), write="gdal_ray.jsonfg:write_jsonfg"),
    Driver("GeoJSON", (".geojson", ".json"),
           vector="gdal_ray.formats:read_geojson", args=("columns",)),
    Driver("GeoJSON", (".geojson", ".json"),
           write="gdal_ray.formats:write_geojson"),
    Driver("GeoJSONSeq", (".geojsonl", ".ndjson", ".geojsons"),
           vector="gdal_ray.formats:read_geojson_seq", args=("columns",)),
    Driver("GeoJSONSeq", (".geojsonl", ".ndjson", ".geojsons"),
           write="gdal_ray.formats:write_geojson_seq"),
    Driver("CSV", (".csv",), vector="gdal_ray.formats:read_csv_geom"),
    Driver("CSV", (".csv", "_csv"), write="gdal_ray.formats:write_csv_geom"),
    Driver("DXF", (".dxf",), vector="gdal_ray.dxf:read_dxf"),
    Driver("ESRI Shapefile", (".shp", ".dbf"),
           vector="gdal_ray.shapefile:read_shapefile"),
    Driver("ESRI Shapefile", (".shp",),
           write="gdal_ray.shapefile:write_shapefile_dataset"),
    Driver("FlatGeobuf", (".fgb",),
           vector="gdal_ray.flatgeobuf:read_flatgeobuf",
           write="gdal_ray.flatgeobuf:write_flatgeobuf_dataset"),
    Driver("Arrow", (".arrow", ".arrows", ".feather"),
           vector="gdal_ray.arrowipc:read_arrow_ipc",
           write="gdal_ray.arrowipc:write_arrow_ipc"),
    Driver("SQLite", (".sqlite", ".db"),
           vector="gdal_ray.spatialite:read_sqlite",
           write="gdal_ray.spatialite:write_sqlite", args=("layer",)),
    Driver("OpenFileGDB", (".gdb/",), vector="gdal_ray.filegdb:read_filegdb",
           write="gdal_ray.filegdb:write_filegdb", args=("layer",)),
    Driver("MapInfo File", (".tab",), vector="gdal_ray.tab:read_tab"),
    Driver("DGN", (".dgn",), vector="gdal_ray.dgn:read_dgn"),
    Driver("XLSX", (".xlsx",), vector="gdal_ray.xlsx:read_xlsx_dataset",
           args=("sheet",)),
    Driver("XLS", (".xls",), vector="gdal_ray.xlsbiff:read_xls_dataset",
           args=("sheet",)),
    Driver("S57", (".000",), vector="gdal_ray.s57:read_s57", args=("layer",),
           layer="DSID"),
    Driver("GTFS", (".zip",), lambda p, h: "gtfs" in p.lower(),
           vector="gdal_ray.gtfs:read_gtfs", args=("layer",), layer="stops",
           prefixes=("gtfs:",)),
    Driver("GML", (".gml",), vector="gdal_ray.gml:read_gml",
           write="gdal_ray.gml:write_gml", args=("layer",)),
    Driver("MapInfo File", (".mif",), vector="gdal_ray.mif:read_mif_dataset",
           write="gdal_ray.mif:write_mif_dataset"),
    Driver("AVCE00", (".e00",), vector="gdal_ray.avc:read_avc",
           args=("layer",), layer="ARC"),
    Driver("TopoJSON", (".topojson",),
           vector="gdal_ray.topojson:read_topojson_dataset", args=("layer",)),
    Driver("OGR_GMT", (".gmt",), vector="gdal_ray.gmtvector:read_gmt_dataset",
           write="gdal_ray.gmtvector:write_gmt_dataset"),
    Driver("MiraMonVector", (".pnt", ".pol", ".arc"),
           lambda p, h: not (p.lower().endswith(".arc") and os.path.isdir(p)),
           vector="gdal_ray.miramon:read_miramon"),
    Driver("KML", (".kml",), vector="gdal_ray.kmlgpx:read_kml",
           write="gdal_ray.kmlgpx:write_kml"),
    Driver("GPX", (".gpx",), vector="gdal_ray.kmlgpx:read_gpx",
           args=("layer",), layer="waypoints"),
    Driver("OSM", (".pbf", ".osm"), vector="gdal_ray.osmpbf:read_osm_dataset",
           args=("layer",), layer="points"),
    Driver("WARC", (".warc", ".warc.gz", ".warc.d/"),
           vector="gdal_ray.warc:read_warc"),
    # a resumable sink: a directory of part-*.warc.gz shards
    Driver("WARC", (".warc.d/", ".warc.gz/", ".warc/"),
           write="gdal_ray.warc:write_warc"),
    Driver("Parquet", vector="ray.data:read_parquet",
           write="ray.data:Dataset.write_parquet", args=("columns",)),
)


def _head(path: str) -> bytes:
    from gdal_ray.vsi import vsi_open

    try:
        with vsi_open(path, "rb") as f:
            return f.read(_HEAD)
    except (OSError, KeyError):  # a directory, a missing file or member
        return b""


def _prefixed(d: Driver, path: str, low: str) -> bool:
    return any(path.startswith(p) or low.startswith(p) for p in d.prefixes)


def _matched(d: Driver, path: str, low: str) -> bool:
    if not (d.suffixes or d.prefixes):
        return True
    bare = low.rstrip("/")
    return any(bare.endswith(s[:-1]) if s.endswith("/") else low.endswith(s)
               for s in d.suffixes) or _prefixed(d, path, low)


def identify(path: str, role: str) -> Driver:
    """The first row with a ``role`` ("raster", "vector" or "write")
    opener that claims ``path``, rows whose prefix the path carries
    first. When none does, raises FileNotFoundError for a missing
    path, else ValueError."""
    low = path.lower()
    head = None
    for d in sorted(DRIVERS, key=lambda d: not _prefixed(d, path, low)):
        if getattr(d, role) is None or not _matched(d, path, low):
            continue
        if d.identify is not None:
            if head is None:
                head = _head(path)
            if not d.identify(path, head):
                continue
        return d
    from gdal_ray.vsi import vsi_exists

    if not vsi_exists(path):
        raise FileNotFoundError(path)
    raise ValueError(f"no {role} driver recognises {path}")


@contextlib.contextmanager
def _naming(d: Driver, path: str):
    try:
        yield
    except Exception as e:
        e.add_note(f"driver {d.name} opened {path}")
        raise


def load_raster(path: str) -> dict:
    """Path → raster dict {"bands", "crs", "geotransform", "nodata",
    ...} from the first raster driver that claims it (the CLI
    loader)."""
    d = identify(path, "raster")
    with _naming(d, path):
        fn = pkgutil.resolve_name(d.raster)
        if d.raster.partition(":")[2].startswith("decode_"):
            from gdal_ray.vsi import vsi_read_bytes

            return fn(vsi_read_bytes(path))
        return fn(path)


def resolve_vector_source(src_path: str, layer: str | None = None,
                          col_list: list[str] | None = None):
    """Vector path → zero-arg callable producing a Ray Dataset, shared
    by the CLI pipeline and the OGR VRT driver (vrtvector.py)."""
    d = identify(src_path, "vector")
    for p in d.prefixes:
        if src_path.lower().startswith(p):
            src_path = src_path[len(p):]
    kw = {"layer": (layer or d.layer) if d.layer else layer,
          "columns": col_list, "sheet": layer}
    read = functools.partial(pkgutil.resolve_name(d.vector), src_path,
                             **{k: kw[k] for k in d.args})
    if col_list is None or "columns" in d.args:
        return read
    return lambda: read().select_columns(col_list)


def write_vector(ds, path: str) -> None:
    """Dataset → ``path`` through the first sink that claims it.
    Parquet takes only a path no vector reader claims: a format this
    engine reads but cannot write raises ValueError."""
    d = identify(path, "write")
    if not (d.suffixes or d.prefixes) and (
            identify(path, "vector").suffixes):
        raise ValueError(f"no write driver recognises {path}")
    with _naming(d, path):
        pkgutil.resolve_name(d.write)(ds, path)
