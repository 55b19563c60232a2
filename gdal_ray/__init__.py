"""gdal_ray — a Ray-Data-native spatial data-processing engine.

A from-scratch engine reproducing the query and data-processing
capabilities of GDAL 3.13 (reference: jjimenezshaw/gdal), re-expressed
as idiomatic Ray Data pipelines: ``ray.data.Dataset`` of Arrow blocks,
``map_batches`` task stages (stateful ones worker-cached),
``groupby``/``sort`` shuffles.

Subpackages
-----------
- ``gdal_ray.tiles``      — GlobalMercator / GlobalGeodetic tile math
  (parity target: gdal2tiles.py:315-630).
- ``gdal_ray.proj``       — CRS transforms (EPSG:4326↔3857, UTM) in
  pure numpy (OGRProjCT semantics, ogr/ogrct.cpp).
- ``gdal_ray.cells``      — hierarchical spatial cell indexes (S2,
  hex) used as partition keys for spatial shuffles.
- ``gdal_ray.geom``       — vectorized geometry kernels over WKB
  (OGRGeometry / GEOS-op semantics, ogr/ogrgeometry.cpp).
- ``gdal_ray.stages``     — Ray Data operator stages (the §2 operator
  inventory of SURVEY.md).
- ``gdal_ray.raster``     — tile-table raster model + kernels
  (rasterize, sample, checksum, overviews).
- ``gdal_ray.pipelines``  — composed pipelines (flagship: geoparse →
  cell encode → PIP join → tile assign).
- ``gdal_ray.state``      — lineage / manifest checkpoint store for
  resumable runs.

Design invariants (SURVEY.md §7.0): one logical table = one Dataset;
blocks are Arrow; geometry is WKB ``binary`` + ``ogc.wkb`` metadata;
every shuffle has a named key; no GDAL binary anywhere.
"""

__version__ = "0.1.0"
