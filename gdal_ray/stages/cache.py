"""The one per-worker cache of stateful-stage state (the role of GDAL's
process-global block cache, gcore/gdalrasterblock.cpp:228-238).

A stateful stage is a class whose ``__init__`` builds state from its
arguments (a polygon index, a kNN grid, a decoded raster) and whose
``__call__`` maps one batch. It runs as plain Ray TASKS:
``map_batches(worker_cached(Cls, **ctor))``. The callable builds
``Cls(**ctor)`` once per worker process and reuses it for every later
task on that worker. Ray reuses warm worker processes across tasks and
pipelines, so the state builds once per worker and the imports are
already paid: no actor-pool startup (a fresh Python process per actor,
≈1.5-2 s here) and no autoscaling pool that never ramps up inside a
short job. A kernel that holds several stages (the fused flagship
kernel) calls ``cached_instance`` for each.

Key: the class plus every constructor argument — a ``ray.ObjectRef``
by ``hex()``, a hashable primitive (or a tuple of them) by value, any
other object by identity. The entry holds a strong reference to each
identity-keyed argument, so no other object can take its ``id()``
while the entry lives.

Eviction: at most ``LIVE_PER_CLASS`` instances of one class live in a
worker; a new key replaces the oldest entry, dropped before the new
instance is built. Memory stays bounded even when every task receives
a fresh inline object (each such task then builds its own state).
Classes must be importable by name: a class defined inside a function
is a new class per call, and its constructor may close over values the
key cannot see.
"""

from __future__ import annotations

import ray

# one broadcast set per stage class and worker at a time
LIVE_PER_CLASS = 1

# class -> [(key, identity-keyed args, instance), ...], newest first
_CACHE: dict[type, list] = {}


def _key_of(v, held: list):
    if isinstance(v, ray.ObjectRef):
        return ("ref", v.hex())
    if isinstance(v, (str, bytes, int, float, type(None))):
        return (type(v), v)
    if isinstance(v, tuple):
        return (tuple, tuple(_key_of(x, held) for x in v))
    held.append(v)
    return ("id", id(v))


def _check_cacheable(cls) -> None:
    if "<locals>" in cls.__qualname__:
        raise TypeError(
            f"{cls.__qualname__} is defined inside a function; a cached "
            "stage class must be defined at module level"
        )


def cached_instance(cls, **kwargs):
    """``cls(**kwargs)``, built at most once per worker process and key
    while the entry lives (module docstring)."""
    _check_cacheable(cls)
    held: list = []
    key = tuple(sorted((k, _key_of(v, held)) for k, v in kwargs.items()))
    entries = _CACHE.setdefault(cls, [])
    for k, _held, inst in entries:
        if k == key:
            return inst
    del entries[LIVE_PER_CLASS - 1:]
    inst = cls(**kwargs)
    entries.insert(0, (key, held, inst))
    return inst


def worker_cached(cls, **ctor_kwargs):
    """Return a plain callable for ``map_batches`` that runs each batch
    through ``cached_instance(cls, **ctor_kwargs)``."""
    _check_cacheable(cls)

    def stage(batch):
        return cached_instance(cls, **ctor_kwargs)(batch)

    stage.__name__ = stage.__qualname__ = f"cached_{cls.__name__}"
    return stage


def resolve_broadcast(value):
    """A stage's broadcast argument as a value: an ObjectRef is fetched,
    a str is read as a parquet path, anything else (a ``pa.Table``, a
    list of shapes, an array) passes through unchanged."""
    if isinstance(value, ray.ObjectRef):
        value = ray.get(value)
    if isinstance(value, str):
        import pyarrow.parquet as pq

        value = pq.read_table(value)
    return value
