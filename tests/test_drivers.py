"""The driver registry (gdal_ray/drivers.py): which reader or writer a
path reaches, and with which arguments.

``EXPECTED`` was recorded from the three extension if-chains the
registry replaced (``raster/aaigrid.py::load_raster``,
``cli.py::resolve_vector_source`` and the ``write`` step of
``cli.py::run_pipeline``), with every reader and writer they call
monkeypatched to record ``(function, args, kwargs)``; that run used
this module's ``_observe`` with the chains' entry points. Each case is
a synthetic file or directory under ``tmp_path`` with a crafted head
and any sidecar it needs. ``CHANGED`` lists the only rows that are
meant to differ: a path no raster driver claims used to be handed to
``decode_geotiff`` and now raises ``ValueError``.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

_RASTER = """
gdal_ray.raster.vrt:read_vrt_array gdal_ray.raster.surfer:read_surfer
gdal_ray.raster.nwtgrd:read_nwt_grd gdal_ray.raster.rraster:read_rraster
gdal_ray.raster.aaigrid:read_aaigrid gdal_ray.raster.saga:read_saga
gdal_ray.raster.aaigrid:decode_xyz gdal_ray.raster.rawzoo:read_cpg_sirc
gdal_ray.raster.hfa:read_hfa gdal_ray.raster.envi:read_envi
gdal_ray.raster.envi:read_ehdr gdal_ray.raster.dted:read_dted
gdal_ray.raster.grib:read_grib_raster gdal_ray.raster.nitf:read_nitf
gdal_ray.raster.gtx:read_gtx gdal_ray.raster.jp2:decode_jp2
gdal_ray.raster.tga:read_tga gdal_ray.raster.srtmhgt:read_srtmhgt
gdal_ray.raster.fits:read_fits gdal_ray.raster.leveller:read_leveller
gdal_ray.raster.terragen:read_terragen gdal_ray.raster.isis:read_isis3
gdal_ray.raster.isis:read_isis2 gdal_ray.raster.pds:read_pds
gdal_ray.raster.rmf:read_rmf gdal_ray.raster.rawzoo:read_nsidcbin
gdal_ray.raster.ngsgeoid:read_ngsgeoid gdal_ray.raster.rawzoo:read_snodas
gdal_ray.raster.mff:read_mff gdal_ray.raster.rawzoo:read_gsc
gdal_ray.raster.rawzoo:read_doq1 gdal_ray.raster.rawzoo:read_doq2
gdal_ray.raster.rawzoo:read_noaa_b gdal_ray.raster.rawzoo:read_bt
gdal_ray.raster.rawzoo:read_kro gdal_ray.raster.rawzoo:read_ace2
gdal_ray.raster.rawzoo:read_ndf gdal_ray.raster.aig:read_aig
gdal_ray.raster.rawzoo:read_mff2 gdal_ray.raster.pnm:read_pnm
gdal_ray.raster.bmp:read_bmp gdal_ray.raster.gif:read_gif
gdal_ray.proj.nadcon:read_loslas gdal_ray.raster.lan:read_lan
gdal_ray.raster.byn:read_byn gdal_ray.raster.insar:read_roipac
gdal_ray.raster.usgsdem:read_usgsdem gdal_ray.raster.insar:read_isce
gdal_ray.raster.idrisi:read_rst gdal_ray.raster.jdem:read_jdem
gdal_ray.raster.gxf:read_gxf gdal_ray.raster.nwtgrd:read_nwt_grc
gdal_ray.raster.vicar:read_vicar gdal_ray.raster.bsb:read_bsb
gdal_ray.raster.zmap:read_zmap gdal_ray.raster.hf2:read_hf2
gdal_ray.raster.cals:read_cals gdal_ray.raster.safe:read_safe
gdal_ray.raster.esric:read_esric gdal_ray.raster.dds:read_dds
gdal_ray.raster.dimap:read_dimap gdal_ray.raster.prf:read_prf
gdal_ray.raster.adrg:read_adrg gdal_ray.raster.srp:read_srp
gdal_ray.raster.aaigrid:read_isg gdal_ray.raster.til:read_til
gdal_ray.raster.pcidsk:read_pcidsk gdal_ray.raster.mrf:read_mrf
gdal_ray.cli:gdalg_raster gdal_ray.raster.rawzoo:read_pcraster
gdal_ray.raster.ers:read_ers gdal_ray.raster.ilwis:read_ilwis
gdal_ray.raster.ctg:read_ctg gdal_ray.raster.sigdem:read_sigdem
gdal_ray.raster.netcdf:read_netcdf_array gdal_ray.mbtiles:read_mbtiles_array
gdal_ray.gpkg_raster:read_gpkg_raster_array
gdal_ray.raster.zarr:read_zarr_array gdal_ray.raster.gtiff:decode_geotiff
""".split()

_VECTOR = """
gdal_ray.cli:run_gdalg_source gdal_ray.vrtvector:read_vrt_vector
gdal_ray.jsonfg:read_jsonfg gdal_ray.formats:read_geojson
gdal_ray.formats:read_geojson_seq gdal_ray.formats:read_csv_geom
gdal_ray.dxf:read_dxf gdal_ray.shapefile:read_shapefile
gdal_ray.flatgeobuf:read_flatgeobuf gdal_ray.arrowipc:read_arrow_ipc
gdal_ray.gpkg:read_gpkg gdal_ray.spatialite:read_sqlite
gdal_ray.filegdb:read_filegdb gdal_ray.tab:read_tab gdal_ray.dgn:read_dgn
gdal_ray.xlsx:read_xlsx_dataset gdal_ray.xlsbiff:read_xls_dataset
gdal_ray.s57:read_s57 gdal_ray.gtfs:read_gtfs gdal_ray.gml:read_gml
gdal_ray.mif:read_mif_dataset gdal_ray.avc:read_avc
gdal_ray.topojson:read_topojson_dataset gdal_ray.gmtvector:read_gmt
ray.data:from_arrow gdal_ray.miramon:read_miramon gdal_ray.kmlgpx:read_kml
gdal_ray.kmlgpx:read_gpx gdal_ray.osmpbf:osm_layers gdal_ray.warc:read_warc
ray.data:read_parquet
""".split()

_WRITE = """
gdal_ray.formats:write_geojson_seq gdal_ray.jsonfg:write_jsonfg
gdal_ray.formats:write_geojson gdal_ray.formats:write_csv_geom
gdal_ray.gpkg:write_gpkg gdal_ray.spatialite:write_sqlite
gdal_ray.filegdb:write_filegdb gdal_ray.kmlgpx:write_kml
gdal_ray.gml:write_gml gdal_ray.mif:write_mif gdal_ray.gmtvector:write_gmt
gdal_ray.flatgeobuf:write_flatgeobuf gdal_ray.shapefile:write_shapefile
gdal_ray.arrowipc:write_arrow_ipc gdal_ray.warc:write_warc
ray.data:Dataset.write_parquet
""".split()

_Z = b"\0" * 8  # a head no driver recognises
_FG = b'{"type": "FeatureCollection", "conformsTo": ["ogc-json-fg-1-0.1"]}'

# (path, {file: bytes}) — "{t}" is tmp_path; a trailing "/" in a file
# key makes a directory
RASTER_CASES = [
    ("{t}/a.vrt", {"a.vrt": b"<VRTDataset/>"}),
    ("{t}/s.grd", {"s.grd": b"DSAA\n1 1"}),
    ("{t}/sb.grd", {"sb.grd": b"DSBB" + _Z}),
    ("{t}/sr.grd", {"sr.grd": b"DSRB" + _Z}),
    ("{t}/n.grd", {"n.grd": b"HGPC1" + _Z}),
    ("{t}/r.grd", {"r.grd": b"  [general]\n"}),
    ("{t}/r16.grd", {"r16.grd": b" " * 16 + b"[general]\n"}),
    ("{t}/a.grd", {"a.grd": b"ncols 1\nnrows 1\n"}),
    ("{t}/a.asc", {"a.asc": b"ncols 1\n"}),
    ("{t}/A.ASC", {"A.ASC": b"ncols 1\n"}),
    ("{t}/x.sdat", {"x.sdat": _Z}),
    ("{t}/x.sgrd", {"x.sgrd": _Z}),
    ("{t}/x.sg-grd-z", {"x.sg-grd-z": _Z}),
    ("{t}/x.xyz", {"x.xyz": b"0 0 1\n"}),
    ("{t}/c_sirc.img", {"c_sirc.img": _Z}),
    ("{t}/h.img", {"h.img": b"EHFA_HEADER_TAG" + _Z}),
    ("{t}/H.IMG", {"H.IMG": b"EHFA_HEADER_TAG" + _Z}),
    ("{t}/h.dat", {"h.dat": b"EHFA_HEADER_TAG" + _Z}),
    ("{t}/h.aux", {"h.aux": b"EHFA_HEADER_TAG" + _Z}),
    ("{t}/h.rrd", {"h.rrd": b"EHFA_HEADER_TAG" + _Z}),
    ("{t}/n.aux", {"n.aux": _Z}),
    ("{t}/n.rrd", {"n.rrd": _Z}),
    ("{t}/e.img", {"e.img": _Z}),
    ("{t}/e.dat", {"e.dat": _Z}),
    ("{t}/x.bil", {"x.bil": _Z}),
    ("{t}/x.bip", {"x.bip": _Z}),
    ("{t}/x.flt", {"x.flt": _Z}),
    ("{t}/x.dt0", {"x.dt0": _Z}),
    ("{t}/x.dt1", {"x.dt1": _Z}),
    ("{t}/x.dt2", {"x.dt2": _Z}),
    ("{t}/g.grb", {"g.grb": b"GRIB" + _Z}),
    ("{t}/g.grb2", {"g.grb2": b"GRIB" + _Z}),
    ("{t}/g.grib", {"g.grib": b"GRIB" + _Z}),
    ("{t}/g.grib2", {"g.grib2": b"GRIB" + _Z}),
    ("{t}/g.bin", {"g.bin": b"GRIB" + _Z}),
    ("{t}/g4000.bin", {"g4000.bin": b" " * 4000 + b"GRIB"}),
    ("{t}/g5000.bin", {"g5000.bin": b" " * 5000 + b"GRIB"}),
    ("{t}/n.grb", {"n.grb": _Z}),
    ("{t}/x.ntf", {"x.ntf": _Z}),
    ("{t}/x.nsf", {"x.nsf": _Z}),
    ("{t}/x.nitf", {"x.nitf": _Z}),
    ("{t}/x.gtx", {"x.gtx": _Z}),
    ("{t}/x.jp2", {"x.jp2": _Z}),
    ("{t}/x.j2k", {"x.j2k": _Z}),
    ("{t}/x.jpc", {"x.jpc": _Z}),
    ("{t}/x.jpx", {"x.jpx": _Z}),
    ("{t}/x.tga", {"x.tga": _Z}),
    ("{t}/x.hgt", {"x.hgt": _Z}),
    ("{t}/x.hgts", {"x.hgts": _Z}),
    ("{t}/x.fits", {"x.fits": _Z}),
    ("{t}/x.fit", {"x.fit": _Z}),
    ('FITS:"{t}/x.fits":2', {"x.fits": _Z}),
    ("{t}/l.ter", {"l.ter": b"trrn" + _Z}),
    ("{t}/t.ter", {"t.ter": b"TERRAGENTERRAIN "}),
    ("{t}/i.lbl", {"i.lbl": b"Object = IsisCube\n"}),
    ("{t}/i.cub", {"i.cub": b"Object = IsisCube\n"}),
    ("{t}/i2.cub", {"i2.cub": b"CCSD3ZF0000100000001NJPL3IF0PDS200000001"}),
    ("{t}/p.lbl", {"p.lbl": b"PDS_VERSION_ID = PDS3\n"}),
    ("{t}/late.lbl", {"late.lbl": b" " * 2048 + b"IsisCube"}),
    ("{t}/x.rsw", {"x.rsw": _Z}),
    ("{t}/x.mtw", {"x.mtw": _Z}),
    ("{t}/nt_20000101_f13.bin", {"nt_20000101_f13.bin": _Z}),
    ("{t}/geoid.bin", {"geoid.bin": _Z}),
    ("{t}/c_sirc.hdr", {"c_sirc.hdr": _Z}),
    ("{t}/s.hdr", {"s.hdr": b"Format version: x\nData file pathname: s\n"}),
    ("{t}/m.hdr", {"m.hdr": b"IMAGE_FILE_FORMAT = MFF\n"}),
    ("{t}/late.hdr", {"late.hdr": b" " * 2048 + b"Data file pathname"}),
    ("{t}/x.gsc", {"x.gsc": _Z}),
    ("{t}/d2.doq", {"d2.doq": b"BEGIN_USGS_DOQ_HEADER\n"}),
    ("{t}/d1.doq", {"d1.doq": _Z}),
    ("{t}/late.doq", {"late.doq": b" BEGIN_USGS_DOQ_HEADER"}),
    ("{t}/x.b", {"x.b": _Z}),
    ("{t}/x.bt", {"x.bt": _Z}),
    ("{t}/x.kro", {"x.kro": _Z}),
    ("{t}/x.ace2", {"x.ace2": _Z}),
    ("{t}/x.h0", {"x.h0": _Z}),
    ("{t}/x.h7", {"x.h7": _Z}),
    ("{t}/x.hd", {"x.hd": _Z}),
    ("{t}/cover", {"cover/hdr.adf": _Z}),
    ("{t}/cover2/hdr.adf", {"cover2/hdr.adf": _Z}),
    ("{t}/cover2/w001001.adf", {"cover2/w001001.adf": _Z}),
    ("{t}/cover2/prj.adf", {"cover2/prj.adf": _Z}),
    ("{t}/mff2", {"mff2/attrib": _Z}),
    ("{t}/plain_dir", {"plain_dir/": None}),
    ("{t}/x.pgm", {"x.pgm": _Z}),
    ("{t}/x.ppm", {"x.ppm": _Z}),
    ("{t}/x.pbm", {"x.pbm": _Z}),
    ("{t}/x.pnm", {"x.pnm": _Z}),
    ("{t}/x.bmp", {"x.bmp": _Z}),
    ("{t}/x.gif", {"x.gif": _Z}),
    ("{t}/x.los", {"x.los": _Z}),
    ("{t}/x.las", {"x.las": _Z}),
    ("{t}/x.lan", {"x.lan": _Z}),
    ("{t}/x.gis", {"x.gis": _Z}),
    ("{t}/x.byn", {"x.byn": _Z}),
    ("{t}/r.dem", {"r.dem": _Z, "r.dem.rsc": b"WIDTH 1\n"}),
    ("{t}/u.dem", {"u.dem": _Z}),
    ("{t}/i.slc", {"i.slc": _Z, "i.slc.xml": b"<imageFile/>"}),
    ("{t}/r.slc", {"r.slc": _Z}),
    ("{t}/r.unw", {"r.unw": _Z}),
    ("{t}/r.cor", {"r.cor": _Z}),
    ("{t}/r.amp", {"r.amp": _Z}),
    ("{t}/r.flg", {"r.flg": _Z}),
    ("{t}/i.unw", {"i.unw": _Z, "i.unw.xml": b"<imageFile/>"}),
    ("{t}/x.rst", {"x.rst": _Z}),
    ("{t}/x.rdc", {"x.rdc": _Z}),
    ("{t}/x.terrain", {"x.terrain": _Z}),
    ("{t}/x.mem", {"x.mem": _Z}),
    ("{t}/x.gxf", {"x.gxf": _Z}),
    ("{t}/x.grc", {"x.grc": _Z}),
    ("{t}/x.vic", {"x.vic": _Z}),
    ("{t}/x.vicar", {"x.vicar": _Z}),
    ("{t}/x.kap", {"x.kap": _Z}),
    ("{t}/x.nos", {"x.nos": _Z}),
    ("{t}/x.no1", {"x.no1": _Z}),
    ("{t}/x.zmap", {"x.zmap": _Z}),
    ("{t}/x.zycor", {"x.zycor": _Z}),
    ("{t}/x.hf2", {"x.hf2": _Z}),
    ("{t}/x.hfz", {"x.hfz": _Z}),
    ("{t}/x.hf2.gz", {"x.hf2.gz": _Z}),
    ("{t}/x.cal", {"x.cal": _Z}),
    ("{t}/x.ct1", {"x.ct1": _Z}),
    ("{t}/S1.SAFE", {"S1.SAFE/manifest.safe": _Z}),
    ("{t}/S1.SAFE/", {"S1.SAFE/manifest.safe": _Z}),
    ("{t}/S1.SAFE/manifest.safe", {"S1.SAFE/manifest.safe": _Z}),
    ("{t}/x.tpkx", {"x.tpkx": _Z}),
    ("{t}/cache/conf.xml", {"cache/conf.xml": _Z}),
    ("{t}/cache/root.json", {"cache/root.json": _Z}),
    ("{t}/x.dds", {"x.dds": _Z}),
    ("{t}/x.dim", {"x.dim": _Z}),
    ("{t}/dim_spot.xml", {"dim_spot.xml": _Z}),
    ("{t}/VOL_pleiades.XML", {"VOL_pleiades.XML": _Z}),
    ("{t}/dim_d/x.xml", {"dim_d/x.xml": _Z}),
    ("{t}/x.prf", {"x.prf": _Z}),
    ("{t}/x.x-dem", {"x.x-dem": _Z}),
    ("{t}/ABCDEF01.GEN", {"ABCDEF01.GEN": _Z}),
    ("{t}/x.thf", {"x.thf": _Z}),
    ("ADRG:{t}/ABCDEF01.GEN,1", {"ABCDEF01.GEN": _Z}),
    ("{t}/x.isg", {"x.isg": _Z}),
    ("{t}/x.til", {"x.til": _Z}),
    ("SRP:{t}/FKUSRP01.GEN,1", {"FKUSRP01.GEN": _Z}),
    ("{t}/x.pix", {"x.pix": _Z}),
    ("{t}/x.mrf", {"x.mrf": _Z}),
    ("{t}/x.gdalg.json", {"x.gdalg.json": b"{}"}),
    ("{t}/p.map", {"p.map": b"RUU CROSS SYSTEM MAP FORMAT" + _Z}),
    ("{t}/n.map", {"n.map": _Z}),
    ("{t}/late.map", {"late.map": b" " * 20 + b"RUU CROSS"}),
    ("{t}/x.ers", {"x.ers": _Z}),
    ("{t}/x.mpr", {"x.mpr": _Z}),
    ("{t}/grid_cell.gz", {"grid_cell.gz": _Z}),
    ("{t}/my_grid_cell.tif", {"my_grid_cell.tif": _Z}),
    ("{t}/x.sdem", {"x.sdem": _Z}),
    ("{t}/x.nc", {"x.nc": _Z}),
    ("{t}/x.cdf", {"x.cdf": _Z}),
    ("{t}/x.mbtiles", {"x.mbtiles": _Z}),
    ("{t}/x.mbtiles.sql", {"x.mbtiles.sql": _Z}),
    ("{t}/x.gpkg", {"x.gpkg": _Z}),
    ("{t}/x.zarr", {"x.zarr/.zgroup": b"{}"}),
    ("{t}/y.zarr/", {"y.zarr/.zgroup": b"{}"}),
    ("{t}/x.tif", {"x.tif": b"II*\0" + _Z}),
    ("{t}/X.TIFF", {"X.TIFF": b"MM\0*" + _Z}),
    ("{t}/ii.raw", {"ii.raw": b"II*\0" + _Z}),
    ("{t}/mm.raw", {"mm.raw": b"MM\0*" + _Z}),
    ("{t}/bii.raw", {"bii.raw": b"II+\0" + _Z}),
    ("{t}/bmm.raw", {"bmm.raw": b"MM\0+" + _Z}),
    ("/vsimem/drv_s.grd", {"/vsimem/drv_s.grd": b"DSAA" + _Z}),
    ("/vsimem/drv_t", {"/vsimem/drv_t": b"II*\0" + _Z}),
    # nobody claims these
    ("{t}/x.foo", {"x.foo": _Z}),
    ("{t}/bad.tif.bak", {"bad.tif.bak": b"P5\n"}),
    ("{t}/missing.xyzw", {}),
]

# (path, files, layer, columns)
VECTOR_CASES = [
    ("{t}/x.gdalg.json", {"x.gdalg.json": b"{}"}, None, None),
    ("{t}/x.vrt", {"x.vrt": b"<OGRVRTDataSource/>"}, None, None),
    ("{t}/x.vrt", {"x.vrt": b"<OGRVRTDataSource/>"}, "L", ["a"]),
    ("{t}/fg.json", {"fg.json": _FG}, None, None),
    ("{t}/fg.geojson", {"fg.geojson": b'{"place": null}'}, "L", ["a"]),
    ("{t}/crs.json", {"crs.json": b'{"coordRefSys": "x"}'}, None, None),
    ("{t}/late.json", {"late.json": b" " * 5000 + _FG}, None, None),
    ("{t}/g.geojson", {"g.geojson": b'{"type": "x"}'}, None, ["a", "b"]),
    ("{t}/g.json", {"g.json": b'{"type": "x"}'}, "L", None),
    ("{t}/dir.json", {"dir.json/": None}, None, None),
    ("{t}/missing.geojson", {}, None, None),
    ("{t}/x.geojsonl", {"x.geojsonl": _Z}, None, ["a"]),
    ("{t}/x.ndjson", {"x.ndjson": _Z}, None, None),
    ("{t}/x.geojsons", {"x.geojsons": _Z}, None, None),
    ("{t}/x.csv", {"x.csv": _Z}, "L", ["a"]),
    ("{t}/x.dxf", {"x.dxf": _Z}, None, None),
    ("{t}/x.shp", {"x.shp": _Z}, None, None),
    ("{t}/X.DBF", {"X.DBF": _Z}, None, None),
    ("{t}/x.fgb", {"x.fgb": _Z}, None, None),
    ("{t}/x.arrow", {"x.arrow": _Z}, None, None),
    ("{t}/x.arrows", {"x.arrows": _Z}, None, None),
    ("{t}/x.feather", {"x.feather": _Z}, None, None),
    ("{t}/x.gpkg", {"x.gpkg": _Z}, None, None),
    ("{t}/x.gpkg", {"x.gpkg": _Z}, "roads", ["a"]),
    ("{t}/x.sqlite", {"x.sqlite": _Z}, "L", None),
    ("{t}/x.db", {"x.db": _Z}, None, None),
    ("{t}/x.gdb", {"x.gdb/": None}, "L", None),
    ("{t}/y.gdb/", {"y.gdb/": None}, None, None),
    ("{t}/x.tab", {"x.tab": _Z}, None, None),
    ("{t}/x.dgn", {"x.dgn": _Z}, None, None),
    ("{t}/x.xlsx", {"x.xlsx": _Z}, "Sheet2", None),
    ("{t}/x.xlsx", {"x.xlsx": _Z}, None, None),
    ("{t}/x.xls", {"x.xls": _Z}, "Sheet2", None),
    ("{t}/x.000", {"x.000": _Z}, None, None),
    ("{t}/x.000", {"x.000": _Z}, "SOUNDG", None),
    ("gtfs:{t}/feed.zip", {"feed.zip": _Z}, None, None),
    ("GTFS:{t}/feed.zip", {"feed.zip": _Z}, "routes", None),
    ("{t}/my_gtfs.zip", {"my_gtfs.zip": _Z}, None, None),
    ("{t}/other.zip", {"other.zip": _Z}, None, None),
    ("gtfs:{t}/x.shp", {"x.shp": _Z}, None, None),
    ("{t}/x.gml", {"x.gml": _Z}, "L", None),
    ("{t}/x.mif", {"x.mif": _Z}, None, None),
    ("{t}/x.e00", {"x.e00": _Z}, None, None),
    ("{t}/x.e00", {"x.e00": _Z}, "PAL", None),
    ("{t}/x.topojson", {"x.topojson": _Z}, "L", None),
    ("{t}/x.gmt", {"x.gmt": _Z}, None, None),
    ("{t}/x.pnt", {"x.pnt": _Z}, None, None),
    ("{t}/x.pol", {"x.pol": _Z}, None, None),
    ("{t}/x.arc", {"x.arc": _Z}, None, None),
    ("{t}/d.arc", {"d.arc/": None}, None, None),
    ("{t}/x.kml", {"x.kml": _Z}, None, None),
    ("{t}/x.gpx", {"x.gpx": _Z}, None, None),
    ("{t}/x.gpx", {"x.gpx": _Z}, "tracks", None),
    ("{t}/x.pbf", {"x.pbf": _Z}, None, None),
    ("{t}/x.osm", {"x.osm": _Z}, "lines", None),
    ("{t}/x.warc", {"x.warc": _Z}, None, None),
    ("{t}/x.warc.gz", {"x.warc.gz": _Z}, None, None),
    ("{t}/x.warc.d", {"x.warc.d/": None}, None, None),
    ("{t}/y.warc.d/", {"y.warc.d/": None}, None, None),
    ("{t}/z.warc/", {"z.warc/": None}, None, None),
    ("{t}/x.parquet", {"x.parquet": _Z}, None, ["a"]),
    ("{t}/pq", {"pq/": None}, "L", None),
]

WRITE_CASES = """
x.geojsonl x.ndjson x.jsonfg x.geojson X.GEOJSON x.csv out_csv x.gpkg
x.sqlite x.db x.gdb y.gdb/ x.kml x.gml x.mif x.gmt x.fgb x.shp x.arrow
x.feather x.warc.d y.warc.d/ x.warc.gz x.warc z.warc/ x.parquet x.json
x.geojsons x.dbf x.arrows out
""".split()


def _entries():
    """(load_raster, resolve_vector_source, run_pipeline) under test."""
    from gdal_ray import cli, drivers

    return drivers.load_raster, drivers.resolve_vector_source, \
        cli.run_pipeline


class _Result:
    """What a recorded reader returns; indexing it is recorded too."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def __getitem__(self, key):
        self.log.append((self.name + "[]", (key,), {}))
        return self


def _norm(v, t):
    if isinstance(v, str):
        return v.replace(t, "{t}")
    if isinstance(v, (bytes, bytearray)):
        return f"<{len(v)} bytes>"
    if isinstance(v, _Result):
        return f"<{v.name}>"
    if isinstance(v, pa.Table):
        return "<table>"
    if isinstance(v, (list, tuple)):
        return [_norm(x, t) for x in v]
    if v is None or isinstance(v, (int, float)):
        return v
    return "<ds>"


def _patch_all(mp, names, log, t, raises):
    for spec in names:
        mod_name, attr = spec.split(":")
        owner = importlib.import_module(mod_name)
        *path, fn = attr.split(".")
        for p in path:
            owner = getattr(owner, p)
        name = f"{mod_name}.{attr}"

        def rec(*a, _name=name, **k):
            log.append((_name, _norm(list(a), t),
                        {kk: _norm(vv, t) for kk, vv in sorted(k.items())}))
            if _name in raises:
                raise raises[_name]("recorded failure")
            return _Result(_name, log)

        mp.setattr(owner, fn, rec)


def _make(tmp, files):
    from gdal_ray.vsi import MEM_FS

    for rel, data in files.items():
        if rel.startswith("/vsimem/"):
            MEM_FS[rel[len("/vsimem/"):]] = data
            continue
        p = os.path.join(tmp, rel)
        if rel.endswith("/"):
            os.makedirs(p, exist_ok=True)
            continue
        os.makedirs(os.path.dirname(p), exist_ok=True)
        with open(p, "wb") as f:
            f.write(data)


def _outcome(log, fn):
    try:
        fn()
    except Exception as e:  # noqa: BLE001 - the class is the outcome
        return [("raise", type(e).__name__)] + log
    return log


def _observe(kind, path, files, tmp, layer=None, cols=None, raises=()):
    """Calls the entry point for `kind` with every reader/writer
    recorded → [(function, args, kwargs), ...] or a leading
    ("raise", ExceptionClass)."""
    load_raster, resolve, run_pipeline = _entries()
    t = str(tmp)
    p = path.replace("{t}", t)
    _make(t, files)
    log: list = []
    raises = {n: ValueError for n in raises}
    with pytest.MonkeyPatch.context() as mp:
        if kind == "raster":
            _patch_all(mp, _RASTER, log, t, raises)
            return _outcome(log, lambda: load_raster(p))
        if kind == "vector":
            _patch_all(mp, _VECTOR, log, t, raises)
            return _outcome(log, lambda: resolve(p, layer, cols)())
        import ray.data

        class FakeDS(ray.data.Dataset):
            _current_executor = None

            def take_all(self):
                return [{"a": 1}]

            def iter_batches(self, **kw):
                return iter([pa.table({"a": [1]})])

        ds = object.__new__(FakeDS)
        _patch_all(mp, _WRITE, log, t, raises)
        mp.setattr("gdal_ray.cli.build_pipeline",
                   lambda spec: (lambda: ds, [], ("write", p)))
        return _outcome(log, lambda: run_pipeline("unused"))


def _cases():
    for path, files in RASTER_CASES:
        yield f"raster {path}", ("raster", path, files)
    yield "raster {t}/ABCDEF01.GEN adrg fails", (
        "raster", "{t}/ABCDEF01.GEN", {"ABCDEF01.GEN": _Z}, None, None,
        ("gdal_ray.raster.adrg.read_adrg",))
    for path, files, layer, cols in VECTOR_CASES:
        yield f"vector {path} layer={layer} cols={cols}", (
            "vector", path, files, layer, cols)
    for path in WRITE_CASES:
        yield f"write {path}", ("write", "{t}/" + path, {})


def _as_tuples(v):
    if isinstance(v, list):
        return tuple(_as_tuples(x) for x in v)
    if isinstance(v, dict):
        return tuple((k, _as_tuples(x)) for k, x in v.items())
    return v


def _run(case, tmp):
    kind, path, files, *rest = case
    layer, cols, raises = rest + [None, None, ()][len(rest):]
    return _as_tuples(_observe(kind, path, files, tmp, layer, cols,
                               raises))


def generate(tmp_root: str) -> dict:
    """Records every case (used once against the three chains to
    produce ``EXPECTED``)."""
    out = {}
    for i, (cid, case) in enumerate(_cases()):
        tmp = os.path.join(tmp_root, str(i))
        os.makedirs(tmp)
        out[cid] = _run(case, tmp)
    return out


CHANGED = {
    cid: (("raise", "ValueError"),)
    for cid in ("raster {t}/n.grb", "raster {t}/plain_dir",
                "raster {t}/dim_d/x.xml", "raster {t}/n.map",
                "raster {t}/late.map", "raster {t}/x.foo",
                "raster {t}/bad.tif.bak")
}


@pytest.mark.parametrize("cid,case", list(_cases()),
                         ids=[cid for cid, _ in _cases()])
def test_same_reader_and_arguments_as_the_chains(cid, case, tmp_path):
    assert _run(case, tmp_path) == CHANGED.get(cid, EXPECTED[cid])


def test_only_unclaimed_raster_paths_changed():
    for cid in CHANGED:
        (first, *_), = [EXPECTED[cid]]
        # the chain handed the path to the GeoTIFF fallback, which
        # either decoded its bytes or failed to read a directory
        assert first[0] in ("gdal_ray.raster.gtiff.decode_geotiff",
                            "raise"), cid
        if first[0] == "raise":
            assert first[1] == "IsADirectoryError"


# sniffed rows: path → the driver its head (or sidecar) selects
SNIFFED = {
    "s.grd": "GSAG", "sb.grd": "GSBG", "sr.grd": "GS7BG",
    "n.grd": "NWT_GRD", "r.grd": "RRASTER", "r16.grd": "AAIGrid",
    "a.grd": "AAIGrid", "h.img": "HFA", "h.aux": "HFA", "e.img": "ENVI",
    "g.grb": "GRIB", "g.bin": "GRIB", "g4000.bin": "GRIB",
    "g5000.bin": "NGSGEOID", "nt_20000101_f13.bin": "NSIDCbin",
    "l.ter": "Leveller", "t.ter": "Terragen", "i.lbl": "ISIS3",
    "i.cub": "ISIS3", "i2.cub": "ISIS2", "p.lbl": "PDS",
    "s.hdr": "SNODAS", "m.hdr": "MFF", "d2.doq": "DOQ2", "d1.doq": "DOQ1",
    "r.dem": "ROI_PAC", "u.dem": "USGSDEM", "i.slc": "ISCE",
    "r.slc": "ROI_PAC", "p.map": "PCRaster", "cover": "AIG",
    "mff2": "MFF2", "grid_cell.gz": "CTG", "dim_spot.xml": "DIMAP",
    "ii.raw": "GTiff", "bmm.raw": "GTiff", "x.tif": "GTiff",
}
SNIFFED_VECTOR = {
    "fg.json": "JSONFG", "fg.geojson": "JSONFG", "crs.json": "JSONFG",
    "late.json": "GeoJSON", "g.json": "GeoJSON", "dir.json": "GeoJSON",
    "my_gtfs.zip": "GTFS", "other.zip": "Parquet", "x.arc": "MiraMonVector",
    "d.arc": "Parquet",
}


def test_identify_reads_one_bounded_head(tmp_path, monkeypatch):
    from gdal_ray import drivers, vsi

    def whole_file(path):
        raise AssertionError(f"whole-file read of {path}")

    reads = []
    real_open = vsi.vsi_open

    class Bounded:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def read(self, n=-1):
            reads.append(n)
            return self.f.read(n)

    monkeypatch.setattr(vsi, "vsi_read_bytes", whole_file)
    monkeypatch.setattr(vsi, "vsi_open",
                        lambda p, mode="rb": Bounded(real_open(p, mode)))
    seen = set()
    for kind, cases, want in (
            ("raster", RASTER_CASES, SNIFFED),
            ("vector", [c[:2] for c in VECTOR_CASES], SNIFFED_VECTOR)):
        for path, files in cases:
            name = os.path.basename(path.replace("{t}/", ""))
            if name not in want:
                continue
            _make(str(tmp_path), files)
            reads.clear()
            d = drivers.identify(path.replace("{t}", str(tmp_path)), kind)
            assert d.name == want[name], path
            assert len(reads) <= 1 and all(0 < n <= 4096 for n in reads)
            seen.add(name)
    assert seen == set(SNIFFED) | set(SNIFFED_VECTOR)


def test_unclaimed_path_names_it(tmp_path):
    from gdal_ray.drivers import load_raster

    p = tmp_path / "x.foo"
    p.write_bytes(b"not a raster")
    with pytest.raises(ValueError, match="no raster driver recognises "
                       + str(p)):
        load_raster(str(p))
    with pytest.raises(FileNotFoundError):
        load_raster(str(tmp_path / "absent.foo"))


def test_reader_error_names_driver_and_path(tmp_path):
    from gdal_ray.drivers import load_raster

    p = tmp_path / "bad.tif"
    p.write_bytes(b"BM not a tiff")
    with pytest.raises(ValueError, match="not a TIFF") as e:
        load_raster(str(p))
    assert e.value.__notes__ == [f"driver GTiff opened {p}"]


def test_import_opens_no_driver():
    code = ("import gdal_ray.drivers, sys; "
            "assert not any(m.startswith('gdal_ray.raster.') "
            "for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True,
                   cwd=os.path.dirname(os.path.dirname(__file__)))


def test_info_raster_names_driver(tmp_path):
    from gdal_ray.cli import info_raster
    from gdal_ray.raster.gtiff import write_geotiff

    p = str(tmp_path / "g.tif")
    write_geotiff(p, [np.arange(12, dtype=np.uint8).reshape(3, 4)],
                  "EPSG:4326", (0.0, 1.0, 0.0, 3.0, 0.0, -1.0))
    out = info_raster(p).splitlines()
    assert out[:2] == ["Driver: GTiff", "Size is 4, 3"]


def test_info_vector_names_driver(tmp_path, ray_session):
    from gdal_ray.cli import info_vector

    p = tmp_path / "pts.geojson"
    p.write_text('{"type": "FeatureCollection", "features": [{"type": '
                 '"Feature", "properties": {"n": 1}, "geometry": {"type": '
                 '"Point", "coordinates": [2.0, 3.0]}}]}')
    out = info_vector(str(p)).splitlines()
    assert out[1] == "      using driver `GeoJSON' successful."
    assert "Feature Count: 1" in out


# recorded from the three if-chains (see the module docstring)
EXPECTED = {'raster {t}/a.vrt': (('gdal_ray.raster.vrt.read_vrt_array',
                       ['{t}/a.vrt'],
                       {}),),
 'raster {t}/s.grd': (('gdal_ray.raster.surfer.read_surfer',
                       ['{t}/s.grd'],
                       {}),),
 'raster {t}/sb.grd': (('gdal_ray.raster.surfer.read_surfer',
                        ['{t}/sb.grd'],
                        {}),),
 'raster {t}/sr.grd': (('gdal_ray.raster.surfer.read_surfer',
                        ['{t}/sr.grd'],
                        {}),),
 'raster {t}/n.grd': (('gdal_ray.raster.nwtgrd.read_nwt_grd',
                       ['{t}/n.grd'],
                       {}),),
 'raster {t}/r.grd': (('gdal_ray.raster.rraster.read_rraster',
                       ['{t}/r.grd'],
                       {}),),
 'raster {t}/r16.grd': (('gdal_ray.raster.aaigrid.read_aaigrid',
                         ['{t}/r16.grd'],
                         {}),),
 'raster {t}/a.grd': (('gdal_ray.raster.aaigrid.read_aaigrid',
                       ['{t}/a.grd'],
                       {}),),
 'raster {t}/a.asc': (('gdal_ray.raster.aaigrid.read_aaigrid',
                       ['{t}/a.asc'],
                       {}),),
 'raster {t}/A.ASC': (('gdal_ray.raster.aaigrid.read_aaigrid',
                       ['{t}/A.ASC'],
                       {}),),
 'raster {t}/x.sdat': (('gdal_ray.raster.saga.read_saga',
                        ['{t}/x.sdat'],
                        {}),),
 'raster {t}/x.sgrd': (('gdal_ray.raster.saga.read_saga',
                        ['{t}/x.sgrd'],
                        {}),),
 'raster {t}/x.sg-grd-z': (('gdal_ray.raster.saga.read_saga',
                            ['{t}/x.sg-grd-z'],
                            {}),),
 'raster {t}/x.xyz': (('gdal_ray.raster.aaigrid.decode_xyz',
                       ['<6 bytes>'],
                       {}),),
 'raster {t}/c_sirc.img': (('gdal_ray.raster.rawzoo.read_cpg_sirc',
                            ['{t}/c_sirc.img'],
                            {}),),
 'raster {t}/h.img': (('gdal_ray.raster.hfa.read_hfa', ['{t}/h.img'], {}),),
 'raster {t}/H.IMG': (('gdal_ray.raster.hfa.read_hfa', ['{t}/H.IMG'], {}),),
 'raster {t}/h.dat': (('gdal_ray.raster.hfa.read_hfa', ['{t}/h.dat'], {}),),
 'raster {t}/h.aux': (('gdal_ray.raster.hfa.read_hfa', ['{t}/h.aux'], {}),),
 'raster {t}/h.rrd': (('gdal_ray.raster.hfa.read_hfa', ['{t}/h.rrd'], {}),),
 'raster {t}/n.aux': (('raise', 'ValueError'),),
 'raster {t}/n.rrd': (('raise', 'ValueError'),),
 'raster {t}/e.img': (('gdal_ray.raster.envi.read_envi',
                       ['{t}/e.img'],
                       {}),),
 'raster {t}/e.dat': (('gdal_ray.raster.envi.read_envi',
                       ['{t}/e.dat'],
                       {}),),
 'raster {t}/x.bil': (('gdal_ray.raster.envi.read_ehdr',
                       ['{t}/x.bil'],
                       {}),),
 'raster {t}/x.bip': (('gdal_ray.raster.envi.read_ehdr',
                       ['{t}/x.bip'],
                       {}),),
 'raster {t}/x.flt': (('gdal_ray.raster.envi.read_ehdr',
                       ['{t}/x.flt'],
                       {}),),
 'raster {t}/x.dt0': (('gdal_ray.raster.dted.read_dted',
                       ['{t}/x.dt0'],
                       {}),),
 'raster {t}/x.dt1': (('gdal_ray.raster.dted.read_dted',
                       ['{t}/x.dt1'],
                       {}),),
 'raster {t}/x.dt2': (('gdal_ray.raster.dted.read_dted',
                       ['{t}/x.dt2'],
                       {}),),
 'raster {t}/g.grb': (('gdal_ray.raster.grib.read_grib_raster',
                       ['{t}/g.grb'],
                       {}),),
 'raster {t}/g.grb2': (('gdal_ray.raster.grib.read_grib_raster',
                        ['{t}/g.grb2'],
                        {}),),
 'raster {t}/g.grib': (('gdal_ray.raster.grib.read_grib_raster',
                        ['{t}/g.grib'],
                        {}),),
 'raster {t}/g.grib2': (('gdal_ray.raster.grib.read_grib_raster',
                         ['{t}/g.grib2'],
                         {}),),
 'raster {t}/g.bin': (('gdal_ray.raster.grib.read_grib_raster',
                       ['{t}/g.bin'],
                       {}),),
 'raster {t}/g4000.bin': (('gdal_ray.raster.grib.read_grib_raster',
                           ['{t}/g4000.bin'],
                           {}),),
 'raster {t}/g5000.bin': (('gdal_ray.raster.ngsgeoid.read_ngsgeoid',
                           ['{t}/g5000.bin'],
                           {}),),
 'raster {t}/n.grb': (('gdal_ray.raster.gtiff.decode_geotiff',
                       ['<8 bytes>'],
                       {}),),
 'raster {t}/x.ntf': (('gdal_ray.raster.nitf.read_nitf',
                       ['{t}/x.ntf'],
                       {}),),
 'raster {t}/x.nsf': (('gdal_ray.raster.nitf.read_nitf',
                       ['{t}/x.nsf'],
                       {}),),
 'raster {t}/x.nitf': (('gdal_ray.raster.nitf.read_nitf',
                        ['{t}/x.nitf'],
                        {}),),
 'raster {t}/x.gtx': (('gdal_ray.raster.gtx.read_gtx', ['{t}/x.gtx'], {}),),
 'raster {t}/x.jp2': (('gdal_ray.raster.jp2.decode_jp2',
                       ['<8 bytes>'],
                       {}),),
 'raster {t}/x.j2k': (('gdal_ray.raster.jp2.decode_jp2',
                       ['<8 bytes>'],
                       {}),),
 'raster {t}/x.jpc': (('gdal_ray.raster.jp2.decode_jp2',
                       ['<8 bytes>'],
                       {}),),
 'raster {t}/x.jpx': (('gdal_ray.raster.jp2.decode_jp2',
                       ['<8 bytes>'],
                       {}),),
 'raster {t}/x.tga': (('gdal_ray.raster.tga.read_tga', ['{t}/x.tga'], {}),),
 'raster {t}/x.hgt': (('gdal_ray.raster.srtmhgt.read_srtmhgt',
                       ['{t}/x.hgt'],
                       {}),),
 'raster {t}/x.hgts': (('gdal_ray.raster.srtmhgt.read_srtmhgt',
                        ['{t}/x.hgts'],
                        {}),),
 'raster {t}/x.fits': (('gdal_ray.raster.fits.read_fits',
                        ['{t}/x.fits'],
                        {}),),
 'raster {t}/x.fit': (('gdal_ray.raster.fits.read_fits',
                       ['{t}/x.fit'],
                       {}),),
 'raster FITS:"{t}/x.fits":2': (('gdal_ray.raster.fits.read_fits',
                                 ['FITS:"{t}/x.fits":2'],
                                 {}),),
 'raster {t}/l.ter': (('gdal_ray.raster.leveller.read_leveller',
                       ['{t}/l.ter'],
                       {}),),
 'raster {t}/t.ter': (('gdal_ray.raster.terragen.read_terragen',
                       ['{t}/t.ter'],
                       {}),),
 'raster {t}/i.lbl': (('gdal_ray.raster.isis.read_isis3',
                       ['{t}/i.lbl'],
                       {}),),
 'raster {t}/i.cub': (('gdal_ray.raster.isis.read_isis3',
                       ['{t}/i.cub'],
                       {}),),
 'raster {t}/i2.cub': (('gdal_ray.raster.isis.read_isis2',
                        ['{t}/i2.cub'],
                        {}),),
 'raster {t}/p.lbl': (('gdal_ray.raster.pds.read_pds', ['{t}/p.lbl'], {}),),
 'raster {t}/late.lbl': (('gdal_ray.raster.pds.read_pds',
                          ['{t}/late.lbl'],
                          {}),),
 'raster {t}/x.rsw': (('gdal_ray.raster.rmf.read_rmf', ['{t}/x.rsw'], {}),),
 'raster {t}/x.mtw': (('gdal_ray.raster.rmf.read_rmf', ['{t}/x.mtw'], {}),),
 'raster {t}/nt_20000101_f13.bin': (('gdal_ray.raster.rawzoo.read_nsidcbin',
                                     ['{t}/nt_20000101_f13.bin'],
                                     {}),),
 'raster {t}/geoid.bin': (('gdal_ray.raster.ngsgeoid.read_ngsgeoid',
                           ['{t}/geoid.bin'],
                           {}),),
 'raster {t}/c_sirc.hdr': (('gdal_ray.raster.rawzoo.read_cpg_sirc',
                            ['{t}/c_sirc.hdr'],
                            {}),),
 'raster {t}/s.hdr': (('gdal_ray.raster.rawzoo.read_snodas',
                       ['{t}/s.hdr'],
                       {}),),
 'raster {t}/m.hdr': (('gdal_ray.raster.mff.read_mff', ['{t}/m.hdr'], {}),),
 'raster {t}/late.hdr': (('gdal_ray.raster.mff.read_mff',
                          ['{t}/late.hdr'],
                          {}),),
 'raster {t}/x.gsc': (('gdal_ray.raster.rawzoo.read_gsc',
                       ['{t}/x.gsc'],
                       {}),),
 'raster {t}/d2.doq': (('gdal_ray.raster.rawzoo.read_doq2',
                        ['{t}/d2.doq'],
                        {}),),
 'raster {t}/d1.doq': (('gdal_ray.raster.rawzoo.read_doq1',
                        ['{t}/d1.doq'],
                        {}),),
 'raster {t}/late.doq': (('gdal_ray.raster.rawzoo.read_doq1',
                          ['{t}/late.doq'],
                          {}),),
 'raster {t}/x.b': (('gdal_ray.raster.rawzoo.read_noaa_b',
                     ['{t}/x.b'],
                     {}),),
 'raster {t}/x.bt': (('gdal_ray.raster.rawzoo.read_bt', ['{t}/x.bt'], {}),),
 'raster {t}/x.kro': (('gdal_ray.raster.rawzoo.read_kro',
                       ['{t}/x.kro'],
                       {}),),
 'raster {t}/x.ace2': (('gdal_ray.raster.rawzoo.read_ace2',
                        ['{t}/x.ace2'],
                        {}),),
 'raster {t}/x.h0': (('gdal_ray.raster.rawzoo.read_ndf',
                      ['{t}/x.h0'],
                      {}),),
 'raster {t}/x.h7': (('gdal_ray.raster.rawzoo.read_ndf',
                      ['{t}/x.h7'],
                      {}),),
 'raster {t}/x.hd': (('gdal_ray.raster.rawzoo.read_ndf',
                      ['{t}/x.hd'],
                      {}),),
 'raster {t}/cover': (('gdal_ray.raster.aig.read_aig', ['{t}/cover'], {}),),
 'raster {t}/cover2/hdr.adf': (('gdal_ray.raster.aig.read_aig',
                                ['{t}/cover2/hdr.adf'],
                                {}),),
 'raster {t}/cover2/w001001.adf': (('gdal_ray.raster.aig.read_aig',
                                    ['{t}/cover2/w001001.adf'],
                                    {}),),
 'raster {t}/cover2/prj.adf': (('gdal_ray.raster.aig.read_aig',
                                ['{t}/cover2/prj.adf'],
                                {}),),
 'raster {t}/mff2': (('gdal_ray.raster.rawzoo.read_mff2',
                      ['{t}/mff2'],
                      {}),),
 'raster {t}/plain_dir': (('raise', 'IsADirectoryError'),),
 'raster {t}/x.pgm': (('gdal_ray.raster.pnm.read_pnm', ['{t}/x.pgm'], {}),),
 'raster {t}/x.ppm': (('gdal_ray.raster.pnm.read_pnm', ['{t}/x.ppm'], {}),),
 'raster {t}/x.pbm': (('gdal_ray.raster.pnm.read_pnm', ['{t}/x.pbm'], {}),),
 'raster {t}/x.pnm': (('gdal_ray.raster.pnm.read_pnm', ['{t}/x.pnm'], {}),),
 'raster {t}/x.bmp': (('gdal_ray.raster.bmp.read_bmp', ['{t}/x.bmp'], {}),),
 'raster {t}/x.gif': (('gdal_ray.raster.gif.read_gif', ['{t}/x.gif'], {}),),
 'raster {t}/x.los': (('gdal_ray.proj.nadcon.read_loslas',
                       ['{t}/x.los'],
                       {}),),
 'raster {t}/x.las': (('gdal_ray.proj.nadcon.read_loslas',
                       ['{t}/x.las'],
                       {}),),
 'raster {t}/x.lan': (('gdal_ray.raster.lan.read_lan', ['{t}/x.lan'], {}),),
 'raster {t}/x.gis': (('gdal_ray.raster.lan.read_lan', ['{t}/x.gis'], {}),),
 'raster {t}/x.byn': (('gdal_ray.raster.byn.read_byn', ['{t}/x.byn'], {}),),
 'raster {t}/r.dem': (('gdal_ray.raster.insar.read_roipac',
                       ['{t}/r.dem'],
                       {}),),
 'raster {t}/u.dem': (('gdal_ray.raster.usgsdem.read_usgsdem',
                       ['{t}/u.dem'],
                       {}),),
 'raster {t}/i.slc': (('gdal_ray.raster.insar.read_isce',
                       ['{t}/i.slc'],
                       {}),),
 'raster {t}/r.slc': (('gdal_ray.raster.insar.read_roipac',
                       ['{t}/r.slc'],
                       {}),),
 'raster {t}/r.unw': (('gdal_ray.raster.insar.read_roipac',
                       ['{t}/r.unw'],
                       {}),),
 'raster {t}/r.cor': (('gdal_ray.raster.insar.read_roipac',
                       ['{t}/r.cor'],
                       {}),),
 'raster {t}/r.amp': (('gdal_ray.raster.insar.read_roipac',
                       ['{t}/r.amp'],
                       {}),),
 'raster {t}/r.flg': (('gdal_ray.raster.insar.read_roipac',
                       ['{t}/r.flg'],
                       {}),),
 'raster {t}/i.unw': (('gdal_ray.raster.insar.read_isce',
                       ['{t}/i.unw'],
                       {}),),
 'raster {t}/x.rst': (('gdal_ray.raster.idrisi.read_rst',
                       ['{t}/x.rst'],
                       {}),),
 'raster {t}/x.rdc': (('gdal_ray.raster.idrisi.read_rst',
                       ['{t}/x.rdc'],
                       {}),),
 'raster {t}/x.terrain': (('gdal_ray.raster.terragen.read_terragen',
                           ['{t}/x.terrain'],
                           {}),),
 'raster {t}/x.mem': (('gdal_ray.raster.jdem.read_jdem',
                       ['{t}/x.mem'],
                       {}),),
 'raster {t}/x.gxf': (('gdal_ray.raster.gxf.read_gxf', ['{t}/x.gxf'], {}),),
 'raster {t}/x.grc': (('gdal_ray.raster.nwtgrd.read_nwt_grc',
                       ['{t}/x.grc'],
                       {}),),
 'raster {t}/x.vic': (('gdal_ray.raster.vicar.read_vicar',
                       ['{t}/x.vic'],
                       {}),),
 'raster {t}/x.vicar': (('gdal_ray.raster.vicar.read_vicar',
                         ['{t}/x.vicar'],
                         {}),),
 'raster {t}/x.kap': (('gdal_ray.raster.bsb.read_bsb', ['{t}/x.kap'], {}),),
 'raster {t}/x.nos': (('gdal_ray.raster.bsb.read_bsb', ['{t}/x.nos'], {}),),
 'raster {t}/x.no1': (('gdal_ray.raster.bsb.read_bsb', ['{t}/x.no1'], {}),),
 'raster {t}/x.zmap': (('gdal_ray.raster.zmap.read_zmap',
                        ['{t}/x.zmap'],
                        {}),),
 'raster {t}/x.zycor': (('gdal_ray.raster.zmap.read_zmap',
                         ['{t}/x.zycor'],
                         {}),),
 'raster {t}/x.hf2': (('gdal_ray.raster.hf2.read_hf2', ['{t}/x.hf2'], {}),),
 'raster {t}/x.hfz': (('gdal_ray.raster.hf2.read_hf2', ['{t}/x.hfz'], {}),),
 'raster {t}/x.hf2.gz': (('gdal_ray.raster.hf2.read_hf2',
                          ['{t}/x.hf2.gz'],
                          {}),),
 'raster {t}/x.cal': (('gdal_ray.raster.cals.read_cals',
                       ['{t}/x.cal'],
                       {}),),
 'raster {t}/x.ct1': (('gdal_ray.raster.cals.read_cals',
                       ['{t}/x.ct1'],
                       {}),),
 'raster {t}/S1.SAFE': (('gdal_ray.raster.safe.read_safe',
                         ['{t}/S1.SAFE'],
                         {}),),
 'raster {t}/S1.SAFE/': (('gdal_ray.raster.safe.read_safe',
                          ['{t}/S1.SAFE/'],
                          {}),),
 'raster {t}/S1.SAFE/manifest.safe': (('gdal_ray.raster.safe.read_safe',
                                       ['{t}/S1.SAFE/manifest.safe'],
                                       {}),),
 'raster {t}/x.tpkx': (('gdal_ray.raster.esric.read_esric',
                        ['{t}/x.tpkx'],
                        {}),),
 'raster {t}/cache/conf.xml': (('gdal_ray.raster.esric.read_esric',
                                ['{t}/cache/conf.xml'],
                                {}),),
 'raster {t}/cache/root.json': (('gdal_ray.raster.esric.read_esric',
                                 ['{t}/cache/root.json'],
                                 {}),),
 'raster {t}/x.dds': (('gdal_ray.raster.dds.read_dds', ['{t}/x.dds'], {}),),
 'raster {t}/x.dim': (('gdal_ray.raster.dimap.read_dimap',
                       ['{t}/x.dim'],
                       {}),),
 'raster {t}/dim_spot.xml': (('gdal_ray.raster.dimap.read_dimap',
                              ['{t}/dim_spot.xml'],
                              {}),),
 'raster {t}/VOL_pleiades.XML': (('gdal_ray.raster.dimap.read_dimap',
                                  ['{t}/VOL_pleiades.XML'],
                                  {}),),
 'raster {t}/dim_d/x.xml': (('gdal_ray.raster.gtiff.decode_geotiff',
                             ['<8 bytes>'],
                             {}),),
 'raster {t}/x.prf': (('gdal_ray.raster.prf.read_prf', ['{t}/x.prf'], {}),),
 'raster {t}/x.x-dem': (('gdal_ray.raster.prf.read_prf',
                         ['{t}/x.x-dem'],
                         {}),),
 'raster {t}/ABCDEF01.GEN': (('gdal_ray.raster.adrg.read_adrg',
                              ['{t}/ABCDEF01.GEN'],
                              {}),),
 'raster {t}/x.thf': (('gdal_ray.raster.adrg.read_adrg',
                       ['{t}/x.thf'],
                       {}),),
 'raster ADRG:{t}/ABCDEF01.GEN,1': (('gdal_ray.raster.adrg.read_adrg',
                                     ['ADRG:{t}/ABCDEF01.GEN,1'],
                                     {}),),
 'raster {t}/x.isg': (('gdal_ray.raster.aaigrid.read_isg',
                       ['{t}/x.isg'],
                       {}),),
 'raster {t}/x.til': (('gdal_ray.raster.til.read_til', ['{t}/x.til'], {}),),
 'raster SRP:{t}/FKUSRP01.GEN,1': (('gdal_ray.raster.srp.read_srp',
                                    ['SRP:{t}/FKUSRP01.GEN,1'],
                                    {}),),
 'raster {t}/x.pix': (('gdal_ray.raster.pcidsk.read_pcidsk',
                       ['{t}/x.pix'],
                       {}),),
 'raster {t}/x.mrf': (('gdal_ray.raster.mrf.read_mrf', ['{t}/x.mrf'], {}),),
 'raster {t}/x.gdalg.json': (('gdal_ray.cli.gdalg_raster',
                              ['{t}/x.gdalg.json'],
                              {}),),
 'raster {t}/p.map': (('gdal_ray.raster.rawzoo.read_pcraster',
                       ['{t}/p.map'],
                       {}),),
 'raster {t}/n.map': (('gdal_ray.raster.gtiff.decode_geotiff',
                       ['<8 bytes>'],
                       {}),),
 'raster {t}/late.map': (('gdal_ray.raster.gtiff.decode_geotiff',
                          ['<29 bytes>'],
                          {}),),
 'raster {t}/x.ers': (('gdal_ray.raster.ers.read_ers', ['{t}/x.ers'], {}),),
 'raster {t}/x.mpr': (('gdal_ray.raster.ilwis.read_ilwis',
                       ['{t}/x.mpr'],
                       {}),),
 'raster {t}/grid_cell.gz': (('gdal_ray.raster.ctg.read_ctg',
                              ['{t}/grid_cell.gz'],
                              {}),),
 'raster {t}/my_grid_cell.tif': (('gdal_ray.raster.ctg.read_ctg',
                                  ['{t}/my_grid_cell.tif'],
                                  {}),),
 'raster {t}/x.sdem': (('gdal_ray.raster.sigdem.read_sigdem',
                        ['{t}/x.sdem'],
                        {}),),
 'raster {t}/x.nc': (('gdal_ray.raster.netcdf.read_netcdf_array',
                      ['{t}/x.nc'],
                      {}),),
 'raster {t}/x.cdf': (('gdal_ray.raster.netcdf.read_netcdf_array',
                       ['{t}/x.cdf'],
                       {}),),
 'raster {t}/x.mbtiles': (('gdal_ray.mbtiles.read_mbtiles_array',
                           ['{t}/x.mbtiles'],
                           {}),),
 'raster {t}/x.mbtiles.sql': (('gdal_ray.mbtiles.read_mbtiles_array',
                               ['{t}/x.mbtiles.sql'],
                               {}),),
 'raster {t}/x.gpkg': (('gdal_ray.gpkg_raster.read_gpkg_raster_array',
                        ['{t}/x.gpkg'],
                        {}),),
 'raster {t}/x.zarr': (('gdal_ray.raster.zarr.read_zarr_array',
                        ['{t}/x.zarr'],
                        {}),),
 'raster {t}/y.zarr/': (('gdal_ray.raster.zarr.read_zarr_array',
                         ['{t}/y.zarr/'],
                         {}),),
 'raster {t}/x.tif': (('gdal_ray.raster.gtiff.decode_geotiff',
                       ['<12 bytes>'],
                       {}),),
 'raster {t}/X.TIFF': (('gdal_ray.raster.gtiff.decode_geotiff',
                        ['<12 bytes>'],
                        {}),),
 'raster {t}/ii.raw': (('gdal_ray.raster.gtiff.decode_geotiff',
                        ['<12 bytes>'],
                        {}),),
 'raster {t}/mm.raw': (('gdal_ray.raster.gtiff.decode_geotiff',
                        ['<12 bytes>'],
                        {}),),
 'raster {t}/bii.raw': (('gdal_ray.raster.gtiff.decode_geotiff',
                         ['<12 bytes>'],
                         {}),),
 'raster {t}/bmm.raw': (('gdal_ray.raster.gtiff.decode_geotiff',
                         ['<12 bytes>'],
                         {}),),
 'raster /vsimem/drv_s.grd': (('gdal_ray.raster.surfer.read_surfer',
                               ['/vsimem/drv_s.grd'],
                               {}),),
 'raster /vsimem/drv_t': (('gdal_ray.raster.gtiff.decode_geotiff',
                           ['<12 bytes>'],
                           {}),),
 'raster {t}/x.foo': (('gdal_ray.raster.gtiff.decode_geotiff',
                       ['<8 bytes>'],
                       {}),),
 'raster {t}/bad.tif.bak': (('gdal_ray.raster.gtiff.decode_geotiff',
                             ['<3 bytes>'],
                             {}),),
 'raster {t}/missing.xyzw': (('raise', 'FileNotFoundError'),),
 'raster {t}/ABCDEF01.GEN adrg fails': (('gdal_ray.raster.adrg.read_adrg',
                                         ['{t}/ABCDEF01.GEN'],
                                         {}),
                                        ('gdal_ray.raster.srp.read_srp',
                                         ['{t}/ABCDEF01.GEN'],
                                         {})),
 'vector {t}/x.gdalg.json layer=None cols=None': (('gdal_ray.cli.run_gdalg_source',
                                                   ['{t}/x.gdalg.json'],
                                                   {}),),
 'vector {t}/x.vrt layer=None cols=None': (('gdal_ray.vrtvector.read_vrt_vector',
                                            ['{t}/x.vrt'],
                                            {'layer': None}),),
 "vector {t}/x.vrt layer=L cols=['a']": (('gdal_ray.vrtvector.read_vrt_vector',
                                          ['{t}/x.vrt'],
                                          {'layer': 'L'}),),
 'vector {t}/fg.json layer=None cols=None': (('gdal_ray.jsonfg.read_jsonfg',
                                              ['{t}/fg.json'],
                                              {'columns': None,
                                               'layer': None}),),
 "vector {t}/fg.geojson layer=L cols=['a']": (('gdal_ray.jsonfg.read_jsonfg',
                                               ['{t}/fg.geojson'],
                                               {'columns': ['a'],
                                                'layer': 'L'}),),
 'vector {t}/crs.json layer=None cols=None': (('gdal_ray.jsonfg.read_jsonfg',
                                               ['{t}/crs.json'],
                                               {'columns': None,
                                                'layer': None}),),
 'vector {t}/late.json layer=None cols=None': (('gdal_ray.formats.read_geojson',
                                                ['{t}/late.json'],
                                                {'columns': None}),),
 "vector {t}/g.geojson layer=None cols=['a', 'b']": (('gdal_ray.formats.read_geojson',
                                                      ['{t}/g.geojson'],
                                                      {'columns': ['a',
                                                                   'b']}),),
 'vector {t}/g.json layer=L cols=None': (('gdal_ray.formats.read_geojson',
                                          ['{t}/g.json'],
                                          {'columns': None}),),
 'vector {t}/dir.json layer=None cols=None': (('gdal_ray.formats.read_geojson',
                                               ['{t}/dir.json'],
                                               {'columns': None}),),
 'vector {t}/missing.geojson layer=None cols=None': (('gdal_ray.formats.read_geojson',
                                                      ['{t}/missing.geojson'],
                                                      {'columns': None}),),
 "vector {t}/x.geojsonl layer=None cols=['a']": (('gdal_ray.formats.read_geojson_seq',
                                                  ['{t}/x.geojsonl'],
                                                  {'columns': ['a']}),),
 'vector {t}/x.ndjson layer=None cols=None': (('gdal_ray.formats.read_geojson_seq',
                                               ['{t}/x.ndjson'],
                                               {'columns': None}),),
 'vector {t}/x.geojsons layer=None cols=None': (('gdal_ray.formats.read_geojson_seq',
                                                 ['{t}/x.geojsons'],
                                                 {'columns': None}),),
 "vector {t}/x.csv layer=L cols=['a']": (('gdal_ray.formats.read_csv_geom',
                                          ['{t}/x.csv'],
                                          {}),),
 'vector {t}/x.dxf layer=None cols=None': (('gdal_ray.dxf.read_dxf',
                                            ['{t}/x.dxf'],
                                            {}),),
 'vector {t}/x.shp layer=None cols=None': (('gdal_ray.shapefile.read_shapefile',
                                            ['{t}/x.shp'],
                                            {}),),
 'vector {t}/X.DBF layer=None cols=None': (('gdal_ray.shapefile.read_shapefile',
                                            ['{t}/X.DBF'],
                                            {}),),
 'vector {t}/x.fgb layer=None cols=None': (('gdal_ray.flatgeobuf.read_flatgeobuf',
                                            ['{t}/x.fgb'],
                                            {}),),
 'vector {t}/x.arrow layer=None cols=None': (('gdal_ray.arrowipc.read_arrow_ipc',
                                              ['{t}/x.arrow'],
                                              {}),),
 'vector {t}/x.arrows layer=None cols=None': (('gdal_ray.arrowipc.read_arrow_ipc',
                                               ['{t}/x.arrows'],
                                               {}),),
 'vector {t}/x.feather layer=None cols=None': (('gdal_ray.arrowipc.read_arrow_ipc',
                                                ['{t}/x.feather'],
                                                {}),),
 'vector {t}/x.gpkg layer=None cols=None': (('gdal_ray.gpkg.read_gpkg',
                                             ['{t}/x.gpkg'],
                                             {'layer': None}),),
 "vector {t}/x.gpkg layer=roads cols=['a']": (('gdal_ray.gpkg.read_gpkg',
                                               ['{t}/x.gpkg'],
                                               {'layer': 'roads'}),),
 'vector {t}/x.sqlite layer=L cols=None': (('gdal_ray.spatialite.read_sqlite',
                                            ['{t}/x.sqlite'],
                                            {'layer': 'L'}),),
 'vector {t}/x.db layer=None cols=None': (('gdal_ray.spatialite.read_sqlite',
                                           ['{t}/x.db'],
                                           {'layer': None}),),
 'vector {t}/x.gdb layer=L cols=None': (('gdal_ray.filegdb.read_filegdb',
                                         ['{t}/x.gdb'],
                                         {'layer': 'L'}),),
 'vector {t}/y.gdb/ layer=None cols=None': (('gdal_ray.filegdb.read_filegdb',
                                             ['{t}/y.gdb/'],
                                             {'layer': None}),),
 'vector {t}/x.tab layer=None cols=None': (('gdal_ray.tab.read_tab',
                                            ['{t}/x.tab'],
                                            {}),),
 'vector {t}/x.dgn layer=None cols=None': (('gdal_ray.dgn.read_dgn',
                                            ['{t}/x.dgn'],
                                            {}),),
 'vector {t}/x.xlsx layer=Sheet2 cols=None': (('gdal_ray.xlsx.read_xlsx_dataset',
                                               ['{t}/x.xlsx'],
                                               {'sheet': 'Sheet2'}),),
 'vector {t}/x.xlsx layer=None cols=None': (('gdal_ray.xlsx.read_xlsx_dataset',
                                             ['{t}/x.xlsx'],
                                             {'sheet': None}),),
 'vector {t}/x.xls layer=Sheet2 cols=None': (('gdal_ray.xlsbiff.read_xls_dataset',
                                              ['{t}/x.xls'],
                                              {'sheet': 'Sheet2'}),),
 'vector {t}/x.000 layer=None cols=None': (('gdal_ray.s57.read_s57',
                                            ['{t}/x.000'],
                                            {'layer': 'DSID'}),),
 'vector {t}/x.000 layer=SOUNDG cols=None': (('gdal_ray.s57.read_s57',
                                              ['{t}/x.000'],
                                              {'layer': 'SOUNDG'}),),
 'vector gtfs:{t}/feed.zip layer=None cols=None': (('gdal_ray.gtfs.read_gtfs',
                                                    ['{t}/feed.zip'],
                                                    {'layer': 'stops'}),),
 'vector GTFS:{t}/feed.zip layer=routes cols=None': (('gdal_ray.gtfs.read_gtfs',
                                                      ['{t}/feed.zip'],
                                                      {'layer': 'routes'}),),
 'vector {t}/my_gtfs.zip layer=None cols=None': (('gdal_ray.gtfs.read_gtfs',
                                                  ['{t}/my_gtfs.zip'],
                                                  {'layer': 'stops'}),),
 'vector {t}/other.zip layer=None cols=None': (('ray.data.read_parquet',
                                                ['{t}/other.zip'],
                                                {'columns': None}),),
 'vector gtfs:{t}/x.shp layer=None cols=None': (('gdal_ray.shapefile.read_shapefile',
                                                 ['gtfs:{t}/x.shp'],
                                                 {}),),
 'vector {t}/x.gml layer=L cols=None': (('gdal_ray.gml.read_gml',
                                         ['{t}/x.gml'],
                                         {'layer': 'L'}),),
 'vector {t}/x.mif layer=None cols=None': (('gdal_ray.mif.read_mif_dataset',
                                            ['{t}/x.mif'],
                                            {}),),
 'vector {t}/x.e00 layer=None cols=None': (('gdal_ray.avc.read_avc',
                                            ['{t}/x.e00'],
                                            {'layer': 'ARC'}),),
 'vector {t}/x.e00 layer=PAL cols=None': (('gdal_ray.avc.read_avc',
                                           ['{t}/x.e00'],
                                           {'layer': 'PAL'}),),
 'vector {t}/x.topojson layer=L cols=None': (('gdal_ray.topojson.read_topojson_dataset',
                                              ['{t}/x.topojson'],
                                              {'layer': 'L'}),),
 'vector {t}/x.gmt layer=None cols=None': (('gdal_ray.gmtvector.read_gmt',
                                            ['{t}/x.gmt'],
                                            {}),
                                           ('ray.data.from_arrow',
                                            ['<gdal_ray.gmtvector.read_gmt>'],
                                            {})),
 'vector {t}/x.pnt layer=None cols=None': (('gdal_ray.miramon.read_miramon',
                                            ['{t}/x.pnt'],
                                            {}),),
 'vector {t}/x.pol layer=None cols=None': (('gdal_ray.miramon.read_miramon',
                                            ['{t}/x.pol'],
                                            {}),),
 'vector {t}/x.arc layer=None cols=None': (('gdal_ray.miramon.read_miramon',
                                            ['{t}/x.arc'],
                                            {}),),
 'vector {t}/d.arc layer=None cols=None': (('ray.data.read_parquet',
                                            ['{t}/d.arc'],
                                            {'columns': None}),),
 'vector {t}/x.kml layer=None cols=None': (('gdal_ray.kmlgpx.read_kml',
                                            ['{t}/x.kml'],
                                            {}),),
 'vector {t}/x.gpx layer=None cols=None': (('gdal_ray.kmlgpx.read_gpx',
                                            ['{t}/x.gpx'],
                                            {'layer': 'waypoints'}),),
 'vector {t}/x.gpx layer=tracks cols=None': (('gdal_ray.kmlgpx.read_gpx',
                                              ['{t}/x.gpx'],
                                              {'layer': 'tracks'}),),
 'vector {t}/x.pbf layer=None cols=None': (('gdal_ray.osmpbf.osm_layers',
                                            ['{t}/x.pbf'],
                                            {}),
                                           ('gdal_ray.osmpbf.osm_layers[]',
                                            ('points',),
                                            {}),
                                           ('ray.data.from_arrow',
                                            ['<gdal_ray.osmpbf.osm_layers>'],
                                            {})),
 'vector {t}/x.osm layer=lines cols=None': (('gdal_ray.osmpbf.osm_layers',
                                             ['{t}/x.osm'],
                                             {}),
                                            ('gdal_ray.osmpbf.osm_layers[]',
                                             ('lines',),
                                             {}),
                                            ('ray.data.from_arrow',
                                             ['<gdal_ray.osmpbf.osm_layers>'],
                                             {})),
 'vector {t}/x.warc layer=None cols=None': (('gdal_ray.warc.read_warc',
                                             ['{t}/x.warc'],
                                             {}),),
 'vector {t}/x.warc.gz layer=None cols=None': (('gdal_ray.warc.read_warc',
                                                ['{t}/x.warc.gz'],
                                                {}),),
 'vector {t}/x.warc.d layer=None cols=None': (('gdal_ray.warc.read_warc',
                                               ['{t}/x.warc.d'],
                                               {}),),
 'vector {t}/y.warc.d/ layer=None cols=None': (('gdal_ray.warc.read_warc',
                                                ['{t}/y.warc.d/'],
                                                {}),),
 'vector {t}/z.warc/ layer=None cols=None': (('ray.data.read_parquet',
                                              ['{t}/z.warc/'],
                                              {'columns': None}),),
 "vector {t}/x.parquet layer=None cols=['a']": (('ray.data.read_parquet',
                                                 ['{t}/x.parquet'],
                                                 {'columns': ['a']}),),
 'vector {t}/pq layer=L cols=None': (('ray.data.read_parquet',
                                      ['{t}/pq'],
                                      {'columns': None}),),
 'write x.geojsonl': (('gdal_ray.formats.write_geojson_seq',
                       ['<ds>', '{t}/x.geojsonl'],
                       {}),),
 'write x.ndjson': (('gdal_ray.formats.write_geojson_seq',
                     ['<ds>', '{t}/x.ndjson'],
                     {}),),
 'write x.jsonfg': (('gdal_ray.jsonfg.write_jsonfg',
                     ['<ds>', '{t}/x.jsonfg'],
                     {}),),
 'write x.geojson': (('gdal_ray.formats.write_geojson',
                      ['<ds>', '{t}/x.geojson'],
                      {}),),
 'write X.GEOJSON': (('gdal_ray.formats.write_geojson',
                      ['<ds>', '{t}/X.GEOJSON'],
                      {}),),
 'write x.csv': (('gdal_ray.formats.write_csv_geom',
                  ['<ds>', '{t}/x.csv'],
                  {}),),
 'write out_csv': (('gdal_ray.formats.write_csv_geom',
                    ['<ds>', '{t}/out_csv'],
                    {}),),
 'write x.gpkg': (('gdal_ray.gpkg.write_gpkg',
                   ['<ds>', '{t}/x.gpkg'],
                   {}),),
 'write x.sqlite': (('gdal_ray.spatialite.write_sqlite',
                     ['<ds>', '{t}/x.sqlite'],
                     {}),),
 'write x.db': (('gdal_ray.spatialite.write_sqlite',
                 ['<ds>', '{t}/x.db'],
                 {}),),
 'write x.gdb': (('gdal_ray.filegdb.write_filegdb',
                  ['<ds>', '{t}/x.gdb'],
                  {}),),
 'write y.gdb/': (('gdal_ray.filegdb.write_filegdb',
                   ['<ds>', '{t}/y.gdb/'],
                   {}),),
 'write x.kml': (('gdal_ray.kmlgpx.write_kml', ['<ds>', '{t}/x.kml'], {}),),
 'write x.gml': (('gdal_ray.gml.write_gml', ['<ds>', '{t}/x.gml'], {}),),
 'write x.mif': (('gdal_ray.mif.write_mif', ['{t}/x.mif', '<table>'], {}),),
 'write x.gmt': (('gdal_ray.gmtvector.write_gmt',
                  ['{t}/x.gmt', '<table>'],
                  {}),),
 'write x.fgb': (('gdal_ray.flatgeobuf.write_flatgeobuf',
                  ['<table>', '{t}/x.fgb'],
                  {}),),
 'write x.shp': (('gdal_ray.shapefile.write_shapefile',
                  ['<table>', '{t}/x.shp'],
                  {}),),
 'write x.arrow': (('gdal_ray.arrowipc.write_arrow_ipc',
                    ['<ds>', '{t}/x.arrow'],
                    {}),),
 'write x.feather': (('gdal_ray.arrowipc.write_arrow_ipc',
                      ['<ds>', '{t}/x.feather'],
                      {}),),
 'write x.warc.d': (('gdal_ray.warc.write_warc',
                     ['<ds>', '{t}/x.warc.d'],
                     {}),),
 'write y.warc.d/': (('gdal_ray.warc.write_warc',
                      ['<ds>', '{t}/y.warc.d/'],
                      {}),),
 'write x.warc.gz': (('gdal_ray.warc.write_warc',
                      ['<ds>', '{t}/x.warc.gz'],
                      {}),),
 'write x.warc': (('gdal_ray.warc.write_warc',
                   ['<ds>', '{t}/x.warc'],
                   {}),),
 'write z.warc/': (('gdal_ray.warc.write_warc',
                    ['<ds>', '{t}/z.warc/'],
                    {}),),
 'write x.parquet': (('ray.data.Dataset.write_parquet',
                      ['<ds>', '{t}/x.parquet'],
                      {}),),
 'write x.json': (('ray.data.Dataset.write_parquet',
                   ['<ds>', '{t}/x.json'],
                   {}),),
 'write x.geojsons': (('ray.data.Dataset.write_parquet',
                       ['<ds>', '{t}/x.geojsons'],
                       {}),),
 'write x.dbf': (('ray.data.Dataset.write_parquet',
                  ['<ds>', '{t}/x.dbf'],
                  {}),),
 'write x.arrows': (('ray.data.Dataset.write_parquet',
                     ['<ds>', '{t}/x.arrows'],
                     {}),),
 'write out': (('ray.data.Dataset.write_parquet',
                ['<ds>', '{t}/out'],
                {}),)}
