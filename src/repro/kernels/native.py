"""Native FOP kernel: one C call runs FOP's whole search over a localRegion.

FOP enumerates the insertion points of every candidate bottom row of a
localRegion, evaluates each (SACS shifting, displacement-curve
construction, fwdtraverse/bwdtraverse curve minimization and site
snapping) and keeps the best.
:meth:`NativeFOP.search_region` runs that whole triple loop, reduction
included, inside ``fop_native.c`` (one ``ctypes`` call per region) and
returns the same :class:`~repro.kernels.base.RegionSearch` as the Python
reference :func:`repro.mgl.fop.search_points`, bit for bit.  Python packs
the region's cells and rows into two flat arrays; the kernel sorts the
cells by x itself (the SACS pre-sort) and derives the processing ranks,
subcell positions and per-cell segment bounds.  The C code transcribes
the Python reference operation by operation (see the comment at its
top); ``tests/test_native.py`` holds the two equal on real, synthetic
and hand-built regions and on whole legalizations.

The kernel writes each point's work counts into columns that become the
search's :class:`~repro.perf.counters.PointColumns` as they are, and it
returns the winner's shift outcome: its left and right thresholds in the
reference's dict order and its ``x_t`` interval, from which
:meth:`NativeFOP.search_region` builds the
:class:`~repro.mgl.shifting.ShiftOutcome` that FOP commits.  Like the
FPGA's FOP PEs, the search hands the host only the winner.

The shared library is compiled on first use with ``$CC`` (default
``cc``), ``-O2 -ffp-contract=off`` and no fast-math (contraction into
fused multiply-adds or reassociation would change results), and cached
in ``_native_build/`` next to this file under a name keyed by the
source, compiler and flags, so a checkout compiles once.  Nothing is
loaded from anywhere else: without a working compiler, or when that
directory cannot be written, :meth:`NativeFOP.load` warns once and
returns ``None``, and SACS regions are searched by the Python reference.

``python -m repro.kernels.native`` builds the library and reports where
it was loaded from (exit status 1 when it cannot be built).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import subprocess
import sys
import threading
import warnings
from array import array
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.kernels.base import RegionSearch
from repro.legality.metrics import SITES_PER_ROW
from repro.mgl.insertion import InsertionPoint
from repro.mgl.shifting import ShiftOutcome
from repro.perf.counters import PointColumns, PointRun

SOURCE = Path(__file__).with_name("fop_native.c")
CFLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

#: CPython's float ``sum()`` is compensated (Neumaier) from 3.12 on; the
#: reference snapping sum (``evaluate_piecewise``) goes through it.
_NEUMAIER_SUM = sys.version_info >= (3, 12)

#: ``fop_search_region`` return codes (see fop_native.c).
_NO_MEMORY, _BAD_REGION = -1, -2

#: Per-point output columns of ``point_ints``.
_POINT_COLUMNS = 5


class _Search(ctypes.Structure):
    """Mirror of ``fop_search`` in fop_native.c (the field order matters)."""

    _fields_ = [
        ("n_cells", ctypes.c_int),
        *[(name, ctypes.c_void_p) for name in ("x", "width", "gp_x")],
        *[(name, ctypes.c_void_p) for name in ("cell_row_start", "cell_rows")],
        ("row_base", ctypes.c_int),
        ("n_rows", ctypes.c_int),
        *[(name, ctypes.c_void_p) for name in ("row_start", "row_cells", "row_seg_lo", "row_seg_hi")],
        ("target_gp_x", ctypes.c_double),
        ("target_gp_y", ctypes.c_double),
        ("target_width", ctypes.c_double),
        ("sites_per_row", ctypes.c_double),
        ("height", ctypes.c_int),
        ("neumaier_sum", ctypes.c_int),
        ("n_bottoms", ctypes.c_int),
        ("bottoms", ctypes.c_void_p),
        ("capacity", ctypes.c_int),
        ("point_ints", ctypes.c_void_p),
        ("point_scores", ctypes.c_void_p),
        ("n_points", ctypes.c_int),
        ("n_feasible", ctypes.c_int),
        ("winner", ctypes.c_int),
        ("winner_bottom", ctypes.c_int),
        ("winner_split", ctypes.c_void_p),
        ("winner_cells", ctypes.c_void_p),
        ("winner_values", ctypes.c_void_p),
        ("winner_n_left", ctypes.c_int),
        ("winner_n_right", ctypes.c_int),
        ("winner_xt_lo", ctypes.c_double),
        ("winner_xt_hi", ctypes.c_double),
    ]


def _pack(typecode, fields):
    """Concatenate named lists into one C array; returns the array and
    each field's address in it."""
    flat: List[Any] = []
    offsets: Dict[str, int] = {}
    for name, values in fields:
        offsets[name] = len(flat)
        flat += values
    packed = array(typecode, flat)
    address = packed.buffer_info()[0]
    return packed, {name: address + packed.itemsize * at for name, at in offsets.items()}


class NativeFOP:
    """Builds, loads and calls the native kernel.

    ``cache_dir`` overrides where the library is cached (default:
    ``_native_build/`` next to this file); ``$CC`` picks the compiler.
    """

    def __init__(self, cache_dir: Optional[Path] = None) -> None:
        self.compiler = shlex.split(os.environ.get("CC", "cc"))
        self.cache_dir = (
            Path(cache_dir) if cache_dir is not None else Path(__file__).with_name("_native_build")
        )
        #: Where the library was loaded from, or why it is unavailable.
        self.path: Optional[Path] = None
        self.error: Optional[str] = None
        self._lib: Optional[ctypes.CDLL] = None
        self._tried = False
        self._lock = threading.Lock()

    def __reduce__(self):
        # The library handle and the lock do not survive pickling; the
        # copy loads the cached library again on first use.
        return (NativeFOP, (self.cache_dir,))

    # ------------------------------------------------------------------
    def library_name(self) -> str:
        """Cache file name, keyed by source, compiler, flags and platform."""
        key = hashlib.sha256(SOURCE.read_bytes())
        key.update(repr((self.compiler, CFLAGS, sys.platform, platform.machine())).encode())
        return f"fop_native-{key.hexdigest()[:16]}.so"

    def load(self) -> Optional[ctypes.CDLL]:
        """The loaded library, built on first use; ``None`` when unavailable."""
        with self._lock:
            if not self._tried:
                self._lib = self._load_or_build()
                self._tried = True
            return self._lib

    def _load_or_build(self) -> Optional[ctypes.CDLL]:
        path = self.cache_dir / self.library_name()
        try:
            if not path.exists():
                self._build(path)
            lib = ctypes.CDLL(str(path))
        except (OSError, subprocess.SubprocessError) as exc:
            self.error = f"{self.cache_dir}: {exc}"
            warnings.warn(
                f"native FOP kernel unavailable, using the reference SACS shifter: {self.error}",
                RuntimeWarning,
                stacklevel=4,
            )
            return None
        lib.fop_search_region.argtypes = [ctypes.POINTER(_Search)]
        lib.fop_search_region.restype = ctypes.c_int
        self.path = path
        return lib

    def _build(self, path: Path) -> None:
        """Compile into a private temporary name, then rename into place, so
        concurrent builders never load a half-written library."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}")
        cmd = [*self.compiler, *CFLAGS, "-o", str(tmp), str(SOURCE), "-lm"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                raise OSError(
                    f"{shlex.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
                )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def describe(self) -> str:
        """One status line: where the kernel was loaded from, or why not."""
        if self.load() is None:
            return f"native FOP kernel: unavailable ({self.error})"
        return f"native FOP kernel: {self.path}"

    # ------------------------------------------------------------------
    def search_region(self, region, target, bottom_rows) -> Optional[RegionSearch]:
        """Enumerate, score and reduce the insertion points of ``bottom_rows``.

        Returns the :class:`~repro.kernels.base.RegionSearch` that
        :func:`repro.mgl.fop.search_points` returns on the reference
        backend, winner outcome included, or ``None`` when the library
        is unavailable.
        """
        lib = self.load()
        if lib is None:
            return None
        cells = region.local_cells
        row_indices = region.row_cells
        base = min(row_indices, default=0)
        n_rows = max(row_indices) - base + 1 if row_indices else 0
        row_start, row_cells = [0], []
        row_seg_lo, row_seg_hi = [0.0] * n_rows, [0.0] * n_rows
        for dense in range(n_rows):
            row_cells.extend(row_indices.get(base + dense, ()))
            row_start.append(len(row_cells))
            segment = region.segments.get(base + dense)
            if segment is not None:
                row_seg_lo[dense], row_seg_hi[dense] = segment.x_lo, segment.x_hi
        x, width, gp_x, cell_row_start, cell_rows = [], [], [], [0], []
        multirow = tall = 0
        for lc in cells:
            cell = lc.cell
            x.append(lc.x)
            width.append(cell.width)
            gp_x.append(cell.gp_x)
            cell_rows += lc.rows
            cell_row_start.append(len(cell_rows))
            if cell.height > 1:
                multirow += 1
                if cell.height > 3:
                    tall += 1
        # The packed arrays must outlive the call: keep them bound.
        doubles, pointers = _pack("d", (
            ("x", x),
            ("width", width),
            ("gp_x", gp_x),
            ("row_seg_lo", row_seg_lo),
            ("row_seg_hi", row_seg_hi),
        ))
        ints, int_pointers = _pack("i", (
            ("cell_row_start", cell_row_start),
            ("cell_rows", cell_rows),
            ("row_start", row_start),
            ("row_cells", row_cells),
            ("bottoms", bottom_rows),
        ))
        pointers.update(int_pointers)
        n_local = len(cells)
        height = target.height
        # At most one point per swept cell, plus the all-right one, per row.
        capacity = len(bottom_rows) * (len(cells) + 1)
        # point_ints: the per-point columns, the winner's split, then its
        # outcome cells; point_scores: sites, costs, then the thresholds.
        split_at = _POINT_COLUMNS * capacity
        cells_at = split_at + height
        point_ints = array("i", bytes(4 * (cells_at + 2 * n_local)))
        point_scores = array("d", bytes(8 * (2 * capacity + 2 * n_local)))
        ints_at, scores_at = point_ints.buffer_info()[0], point_scores.buffer_info()[0]
        search = _Search(
            n_cells=n_local,
            row_base=base,
            n_rows=n_rows,
            target_gp_x=target.gp_x,
            target_gp_y=target.gp_y,
            target_width=target.width,
            sites_per_row=SITES_PER_ROW,
            height=height,
            neumaier_sum=int(_NEUMAIER_SUM),
            n_bottoms=len(bottom_rows),
            capacity=capacity,
            point_ints=ints_at,
            point_scores=scores_at,
            winner_split=ints_at + point_ints.itemsize * split_at,
            winner_cells=ints_at + point_ints.itemsize * cells_at,
            winner_values=scores_at + point_scores.itemsize * 2 * capacity,
            **pointers,
        )
        rc = lib.fop_search_region(ctypes.byref(search))
        if rc == _NO_MEMORY:
            raise MemoryError("native FOP kernel could not allocate its scratch memory")
        if rc == _BAD_REGION:
            raise ValueError("the localRegion's rows, cells and candidate rows are inconsistent")

        n = search.n_points
        points = PointColumns(
            *(point_ints[k * capacity : k * capacity + n] for k in range(_POINT_COLUMNS))
        )
        # The kernel's SACS counters are region constants: one visit per
        # cell and phase, and the once-per-region sort on the first point.
        points.add_run(PointRun(
            n, n_local, len(cell_rows), 2, 2 * n_local, 2 * multirow, 2 * tall, n_local
        ))
        sites = point_scores[:n].tolist()
        costs = point_scores[capacity : capacity + n].tolist()
        winner = None
        if search.winner >= 0:
            bottom = search.winner_bottom
            rows = tuple(range(bottom, bottom + height))
            split = point_ints[split_at:cells_at].tolist()
            insertion = InsertionPoint(bottom, rows, tuple(zip(rows, split)))
            values_at = 2 * capacity
            n_left, n_right = search.winner_n_left, search.winner_n_right
            outcome = ShiftOutcome(
                left_thresholds=dict(zip(
                    point_ints[cells_at : cells_at + n_left].tolist(),
                    point_scores[values_at : values_at + n_left].tolist(),
                )),
                right_thresholds=dict(zip(
                    point_ints[cells_at + n_local : cells_at + n_local + n_right].tolist(),
                    point_scores[values_at + n_local : values_at + n_local + n_right].tolist(),
                )),
                xt_lo=search.winner_xt_lo,
                xt_hi=search.winner_xt_hi,
                feasible=True,
                passes=2,
                cell_visits=2 * n_local,
                multirow_accesses=2 * multirow,
                tall_accesses=2 * tall,
            )
            winner = (insertion, sites[search.winner], costs[search.winner], outcome)
        return RegionSearch(points, sites, costs, search.n_feasible, winner)


if __name__ == "__main__":
    kernel = NativeFOP()
    print(kernel.describe())
    sys.exit(0 if kernel.load() is not None else 1)
