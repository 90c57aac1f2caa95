"""Golden-file lock on the Table 6/7 virtual times.

The virtual clock keeps integer ticks, so a cell's total no longer
depends on the order or grouping of its charges.  Each golden cell
therefore pins three things, all compared exactly:

* ``virtual_ms`` — the measured window's virtual time (``==`` on the
  float, no tolerance);
* ``counts`` — how many times each event was charged over the whole
  cell run (setup included);
* ``charges_sha256`` — a digest of that run's charge stream in order,
  adjacent same-event charges merged (:mod:`tests.charge_stream`), so
  a refactor that reorders the mechanism's events moves it while one
  that merges per-page charges into a bulk charge does not.

If a deliberate cost-model or mechanism change moves these numbers,
regenerate the file and say so in the commit message::

    PYTHONPATH=src python -m tests.bench.test_virtual_time_goldens
"""

import json
import pathlib

import pytest

from repro.bench import experiments
from repro.bench.experiments import run_cow_cell, run_zero_fill_cell
from repro.bench.tables import REGION_SIZES_KB, TOUCH_COUNTS, cell_valid
from tests.charge_stream import ChargeStream

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parents[1]
               / "goldens" / "virtual_time_tables.json")

TABLE_RUNNERS = {
    "table6": run_zero_fill_cell,
    "table7": run_cow_cell,
}


def record_cell(prefix: str, system: str, region_kb: int,
                pages: int) -> dict:
    """Run one cell with a :class:`ChargeStream` on its clock; return
    its virtual time, event counts and charge-stream digest."""
    factory = experiments.NUCLEUS_FACTORIES[system]
    stream = ChargeStream()

    def listened():
        nucleus = factory()
        nucleus.clock.add_listener(stream)
        return nucleus

    experiments.NUCLEUS_FACTORIES[system] = listened
    try:
        virtual_ms = TABLE_RUNNERS[prefix](system, region_kb, pages)
    finally:
        experiments.NUCLEUS_FACTORIES[system] = factory
    return {"virtual_ms": virtual_ms, **stream.record()}


def _grid():
    """The (region_kb, pages) cells of one Table 6/7 grid."""
    return [(kb, pages) for kb in REGION_SIZES_KB for pages in TOUCH_COUNTS
            if cell_valid(kb, pages)]


def record_all() -> dict:
    return {f"{prefix}_{system}": {
                f"{kb},{pages}": record_cell(prefix, system, kb, pages)
                for kb, pages in _grid()}
            for prefix in TABLE_RUNNERS for system in ("chorus", "mach")}


def _cells():
    goldens = json.loads(GOLDEN_PATH.read_text())
    for table, cells in sorted(goldens.items()):
        prefix, system = table.split("_")
        for key, expected in sorted(cells.items()):
            region_kb, pages = (int(part) for part in key.split(","))
            yield pytest.param(prefix, system, region_kb, pages, expected,
                               id=f"{table}-{key}")


@pytest.mark.parametrize(
    ("prefix", "system", "region_kb", "pages", "expected"), list(_cells()))
def test_cell_bit_identical(prefix, system, region_kb, pages, expected):
    measured = record_cell(prefix, system, region_kb, pages)
    # Exact equality on purpose: see the module docstring.
    assert measured["virtual_ms"] == expected["virtual_ms"]
    assert measured["counts"] == expected["counts"]
    assert measured["charges_sha256"] == expected["charges_sha256"]


def test_goldens_cover_the_full_grids():
    """The golden file must not silently go stale against the grid
    definition (new sizes/touch counts need a regeneration)."""
    goldens = json.loads(GOLDEN_PATH.read_text())
    live = {f"{kb},{pages}" for kb, pages in _grid()}
    assert set(goldens) == {f"{prefix}_{system}" for prefix in TABLE_RUNNERS
                            for system in ("chorus", "mach")}
    assert all(set(cells) == live for cells in goldens.values())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(record_all(), indent=2, sort_keys=True) + "\n")
