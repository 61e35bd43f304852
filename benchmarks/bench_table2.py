"""Benchmark T2: regenerate Table 2 (PG-MCML library area/delay).

Areas are reproduced exactly from the layout model; delays are
re-characterised at transistor level for all 12 combinational cells in
one lockstep batch (the ordering check below takes a subset).
"""

import pytest
from conftest import run_once

from repro.experiments import table2


def test_table2_datasheet_and_spice_subset(benchmark):
    result = run_once(benchmark, table2.main)
    assert result.mean_ratio == pytest.approx(1.6, abs=0.05)
    buf = result.row_for("BUF")
    # Our generic 90 nm process is faster than the authors' PDK, but the
    # characterised delay must be the right order of magnitude.
    assert 0.3 < buf.spice_delay_ps / buf.paper_delay_ps < 3.0
    benchmark.extra_info["mean_area_ratio"] = result.mean_ratio
    benchmark.extra_info["buf_delay_ps"] = buf.spice_delay_ps


def test_table2_spice_ordering(benchmark):
    """Characterised delays must order like the paper's column."""
    cells = ("BUF", "AND2", "AND3", "MUX2", "XOR2")
    result = run_once(benchmark, table2.run, cells)
    measured = {r.cell: r.spice_delay_ps for r in result.rows
                if r.spice_delay_ps is not None}
    assert measured["BUF"] < measured["AND2"]
    assert measured["AND2"] < measured["AND3"]
    benchmark.extra_info["delays_ps"] = {
        k: round(v, 2) for k, v in measured.items()}
