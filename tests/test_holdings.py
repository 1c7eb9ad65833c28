"""tools/holdings.py at small cutoffs: what the master-equation route keeps."""

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "holdings.py"
_SPEC = importlib.util.spec_from_file_location("holdings", _PATH)
holdings = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(holdings)


def test_prints_one_row_per_cutoff(capsys):
    assert holdings.main(["2", "3", "4"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split("\t") == ["fock_dim"] + [f"{name}_MiB"
                                                 for name in holdings.COLUMNS]
    assert [row.split("\t")[0] for row in rows] == ["2", "3", "4"]
    for row in rows:
        assert all(float(value) > 0 for value in row.split("\t")[1:])


# A dense terms x positions coefficient table held 0.16 MiB at fock_dim 4
# and 0.75 MiB at 8, of a cached table of 0.22 and 1.01 MiB; one entry per
# nonzero keeps the whole table under these bounds.
@pytest.mark.parametrize("fock_dim, mib", [(4, 0.12), (8, 0.5)])
def test_table_stays_sparse(fock_dim, mib):
    row = holdings.holdings(fock_dim)
    assert row["table"] <= mib * 2**20
    assert row["table"] + row["record"] < row["dense"]


def test_views_count_once_with_the_array_they_view():
    @dataclass
    class Record:
        head: np.ndarray
        rest: tuple
        name: str

    base = np.zeros(100)
    other = np.ones(3)
    record = Record(base[:10], (base[10:].reshape(9, 10), None, other), "x")
    assert holdings.retained_bytes(record) == base.nbytes + other.nbytes
