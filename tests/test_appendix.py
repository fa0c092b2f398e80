import hashlib

import pytest

from galilei import appendix
from galilei.appendix import CELLS, reproduce_appendix
from galilei.cli import main

# sha256 of `galilei appendix --table all` stdout; the digest recorded in
# perfbench/ref/appendix.json (independent of PYTHONHASHSEED)
APPENDIX_ALL_SHA256 = "6558dc3d8a73836ea791cddd41c093120609702e4cac3a2c42dee8e3b26fd1b7"


@pytest.fixture(scope="module")
def reproduction():
    return reproduce_appendix()


def test_cell_inventory():
    assert len(CELLS) == 67
    tables = {c.table for c in CELLS}
    assert tables == {2, 3, 4}


def test_reproduction_summary(reproduction):
    reports, summary = reproduction
    assert summary["cells"] == 67
    assert summary["all_ok"]
    # the bulk of the printed cells match verbatim under the documented
    # readings; a fixed short list needs condition-forced amendments
    assert summary["span_matches"] >= 56
    assert len(summary["amended_cells"]) <= 11


def test_every_amendment_is_applied(reproduction):
    # an entry of AMENDED_CELLS that no failing cell reaches is dead data
    _, summary = reproduction
    assert len(summary["amended_cells"]) == len(appendix.AMENDED_CELLS)


def test_headline_cells_match_verbatim(reproduction):
    reports, _ = reproduction
    by_cell = {r["cell"]: r for r in reports}
    for key in (
        "T4[D(1,1,0) x D(1,1,0)]",
        "T4[D(0,1,0) x D(0,1,0)]",
        "T2[D(3,1,1) x D(3,1,1)]",
        "T2[D(2,2,1) x D(2,2,1)]",
    ):
        assert by_cell[key]["span_match"], key
        assert by_cell[key]["membership"], key


def test_fixed_one_unfreeze_convention(reproduction):
    reports, _ = reproduction
    by_cell = {r["cell"]: r for r in reports}
    cell = by_cell["T2[D(3,1,1) x D(3,1,1)]"]
    # four letters plus the unfrozen literal 1 span the computed space
    assert cell["fixture_dim_frozen"] == 4
    assert cell["fixture_dim_unfrozen"] == 5
    assert cell["computed_dim"] == 5


def test_one_solve_per_distinct_pair(monkeypatch):
    calls = []
    solve = appendix.solve_beta4_space

    def counting(left, right):
        calls.append((left, right))
        return solve(left, right)

    monkeypatch.setattr(appendix, "solve_beta4_space", counting)
    reproduce_appendix()
    assert len(calls) == len(set(calls)) == 69
    # a second call solves again: nothing is kept between calls
    reproduce_appendix()
    assert len(calls) == 2 * 69


def test_appendix_table_all_golden(capsys):
    rc = main(["appendix", "--table", "all"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == APPENDIX_ALL_SHA256
