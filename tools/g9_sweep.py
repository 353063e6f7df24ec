"""Compare the numpy writer of paths.csv with "%.9g" on every float32 it takes.

    PYTHONPATH=src python3 tools/g9_sweep.py

`simulate` writes its float32 states through levyreduce.cli's
_write_float32_rows.  A row of +0 and of values in [1e-9, 1e9) is
formatted by _g9_text; any other row goes through the template
"%.9g" % float(v).  This script formats +0 and each of the 501 545 673
float32 bit patterns in [1e-9, 1e9) both ways, in rows of 1024 cells,
and prints the number of cells whose text differs, which must be 0.
It runs one worker per CPU it may use, each on SLAB patterns at a time; it takes
a few minutes on two CPUs and under 100 MB per worker.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

from levyreduce.cli import _g9_tables, _g9_text

COLUMNS = 1024  # cells per row
SLAB = 1 << 20  # bit patterns per task of a worker


def _template_text(values: np.ndarray) -> bytes:
    template = ",".join(["%.9g"] * values.shape[1]) + "\n"
    return "".join(template % tuple(row) for row in values.tolist()).encode()


def _compare(bits: np.ndarray) -> tuple[int, list[str]]:
    """(cells that differ, the first few of them) of a 2-D bit array."""
    want, got = _template_text(bits.view(np.float32)), _g9_text(bits)
    if want == got:
        return 0, []
    bad = [
        f"{w.decode()} != {g.decode()}"
        for wrow, grow in zip(want.split(b"\n"), got.split(b"\n"))
        for w, g in zip(wrow.split(b","), grow.split(b","))
        if w != g
    ]
    return max(len(bad), 1), bad[:5]


def _slab(bounds: tuple[int, int]) -> tuple[int, int, list[str]]:
    """(cells, cells that differ, examples) of the bit patterns [lo, hi)."""
    lo, hi = bounds
    bits = np.arange(lo, hi, dtype=np.uint32)
    full = (hi - lo) // COLUMNS * COLUMNS
    parts = [bits[:full].reshape(-1, COLUMNS), bits[full:].reshape(1, -1)]
    differ, examples = 0, []
    for part in parts:
        if part.size:
            n, ex = _compare(part)
            differ, examples = differ + n, examples + ex
    return hi - lo, differ, examples


def main() -> int:
    t = _g9_tables()
    lo, hi = int(t.lo), int(t.lo) + int(t.span)
    print(f"float32 bit patterns {lo:#010x}..{hi - 1:#010x}: {hi - lo} values and +0")
    start = time.perf_counter()
    cells, differ, examples = 1, *_compare(np.zeros((1, 1), np.uint32))
    slabs = [(a, min(a + SLAB, hi)) for a in range(lo, hi, SLAB)]
    with multiprocessing.Pool(len(os.sched_getaffinity(0))) as pool:
        for n, bad, ex in pool.imap_unordered(_slab, slabs):
            cells, differ, examples = cells + n, differ + bad, examples + ex
    print(f"{cells} cells compared in {time.perf_counter() - start:.0f} s; "
          f"{differ} differ from %.9g")
    for line in examples[:10]:
        print("  " + line)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
