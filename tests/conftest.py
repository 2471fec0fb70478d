"""Child interpreters started by the tests import this checkout's sources,
as the test process does through pytest's `pythonpath` setting."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def value_caches() -> list:
    """Every value cache of the package: the `precision.memo` tables."""
    from thetaval import exact, precision, qseries

    return [
        precision._pi_units,
        precision._gamma_unit,
        precision._gamma_agm,
        qseries._nome_base,
        qseries._theta_exact,
        exact._eval_raw,
    ]


@pytest.fixture
def cold_caches() -> list:
    """Every value cache emptied, as in a fresh process; the tables, as a list."""
    tables = value_caches()
    for table in tables:
        table.cache_clear()
    return tables
