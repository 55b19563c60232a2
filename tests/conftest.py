"""Shared pytest fixtures. Ray is initialised ONCE per session."""

from __future__ import annotations

from pathlib import Path

import pytest

# the GDAL autotest checkout, kept beside this repository's checkout
REFERENCE = Path(__file__).resolve().parents[2] / "reference"


def ref_path(rel: str) -> str:
    """``rel`` inside the GDAL autotest checkout; skips the calling
    test when that checkout is absent."""
    if not REFERENCE.is_dir():
        pytest.skip("GDAL autotest checkout absent")
    return str(REFERENCE / rel)


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_small() -> str:
    return "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def sf_mid() -> str:
    return "/root/testdata/sf0.01"
