"""Print what the master-equation route holds at each Fock cutoff.

For each fock_dim the tool empties the caches of ``hilbert``, builds the
cutoff's table (``_generator_table``) and then the record of the
reference parameter set (``_generator_parts``; kappa 31.79, g3 7.2, g4
17.2 GHz, drive kappa/100), and prints, in MiB:

- ``table`` and ``record``: the bytes each keeps. Every array reached
  from its fields is followed along ``.base`` to the array that owns the
  memory, and each owner counts once; the record's own table is left
  out of the record's count.
- ``table_peak`` and ``record_peak``: the tracemalloc peak of each build,
  with the cutoff's operators built beforehand.
- ``dense``: one dense generator L(omega), 16 (3 fock_dim)^4 bytes.

It measures the ``spincavity`` under ``src/`` of its own checkout. Run
from anywhere:

    python tools/holdings.py [FOCK_DIM ...]     (default 4 6 8 12 19)
"""

from __future__ import annotations

import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spincavity import SystemParams, hilbert  # noqa: E402

REFERENCE = dict(kappa=31.79, g3=7.2, g4=17.2, gamma_d3=3.1, gamma_d4=1.4,
                 omega_c=0.0, omega_x=12.0, delta_h=12.0)
DEFAULT_FOCK_DIMS = (4, 6, 8, 12, 19)
COLUMNS = ("table", "table_peak", "record", "record_peak", "dense")
MIB = 2**20


def retained_bytes(record) -> int:
    """Bytes of the distinct arrays that own the memory of ``record``'s array
    fields (an array, or a tuple of arrays and None); other fields are skipped."""
    owners = {}
    for field in fields(record):
        value = getattr(record, field.name)
        for array in value if isinstance(value, tuple) else (value,):
            if not isinstance(array, np.ndarray):
                continue
            while isinstance(array.base, np.ndarray):
                array = array.base
            owners[id(array)] = array.nbytes
    return sum(owners.values())


def _traced(build, argument):
    """(build(argument), the tracemalloc peak of that call in bytes)."""
    tracemalloc.start()
    try:
        result = build(argument)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def holdings(fock_dim: int) -> dict:
    """The bytes of each of ``COLUMNS`` at this cutoff, built from empty caches."""
    params = SystemParams(**REFERENCE, fock_dim=fock_dim)
    hilbert._operators(fock_dim)
    hilbert._generator_table.cache_clear()
    hilbert._generator_parts.cache_clear()
    table, table_peak = _traced(hilbert._generator_table, fock_dim)
    record, record_peak = _traced(hilbert._generator_parts, params)
    return dict(table=retained_bytes(table), table_peak=table_peak,
                record=retained_bytes(record), record_peak=record_peak,
                dense=16 * params.dim**4)


def main(argv: list[str]) -> int:
    fock_dims = [int(arg) for arg in argv] or DEFAULT_FOCK_DIMS
    print("fock_dim\t" + "\t".join(f"{name}_MiB" for name in COLUMNS))
    for fock_dim in fock_dims:
        row = holdings(fock_dim)
        print(f"{fock_dim}\t" + "\t".join(f"{row[name] / MIB:.3f}" for name in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
