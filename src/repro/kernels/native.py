"""Fused native FOP kernel: one C call scores a whole localRegion.

FOP evaluates every insertion point of a localRegion: SACS shifting,
displacement-curve construction, curve minimization and site snapping.
:class:`NativeFOP` runs that whole loop inside ``fop_native.c`` (one
``ctypes`` call per region) and returns the same ``(insertion, best_x,
cost, outcome, work)`` entries as :func:`repro.mgl.fop.evaluate_point_list`,
bit for bit.  The C code transcribes the Python reference operation by
operation (see the comment at its top); ``tests/test_native.py`` holds
the two equal on real and synthetic regions and on whole legalizations.

Shift outcomes are not materialized: entries carry ``None`` and FOP
re-derives the winning point's outcome, as it does for the multiprocess
backend's worker chunks.

The shared library is compiled on first use with ``$CC`` (default
``cc``), ``-O2 -ffp-contract=off`` and no fast-math (contraction into
fused multiply-adds or reassociation would change results), and cached
in ``_native_build/`` next to this file under a name keyed by the
source, compiler and flags, so a checkout compiles once.  Nothing is
loaded from anywhere else: without a working compiler, or when that
directory cannot be written, :meth:`NativeFOP.load` warns once and
returns ``None``, and SACS scoring runs the Python reference shifter.

``python -m repro.kernels.native`` builds the library and reports where
it was loaded from (exit status 1 when it cannot be built).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shlex
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.perf.counters import InsertionPointWork

SOURCE = Path(__file__).with_name("fop_native.c")
CFLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

#: ``fop_region.status`` of a scored point (see fop_native.c).
_SCORED = 2
#: CPython's float ``sum()`` is compensated (Neumaier) from 3.12 on; the
#: reference snapping sum (``evaluate_piecewise``) goes through it.
_NEUMAIER_SUM = sys.version_info >= (3, 12)

_CELL_DOUBLES = ("x", "right", "gp_x", "seg_lo", "seg_hi")
_CELL_INTS = (
    "order_desc", "order_asc", "rank_desc", "rank_asc",
    "cell_row_start", "cell_rows", "cell_pos",
)
_ROW_ARRAYS = ("row_start", "row_cells", "row_seg_lo", "row_seg_hi")
_OUTPUTS = (
    ("status", np.int32), ("best_x", np.float64), ("cost", np.float64),
    ("n_left", np.int32), ("n_right", np.int32),
    ("n_breakpoints", np.int32), ("n_merged", np.int32),
)


class _Region(ctypes.Structure):
    """Mirror of ``fop_region`` in fop_native.c (the field order matters)."""

    _fields_ = [
        ("n_cells", ctypes.c_int),
        *[(name, ctypes.c_void_p) for name in _CELL_DOUBLES + _CELL_INTS],
        ("n_rows", ctypes.c_int),
        *[(name, ctypes.c_void_p) for name in _ROW_ARRAYS],
        ("target_gp_x", ctypes.c_double),
        ("target_gp_y", ctypes.c_double),
        ("target_width", ctypes.c_double),
        ("vertical_cost_factor", ctypes.c_double),
        ("height", ctypes.c_int),
        ("fwd_bwd", ctypes.c_int),
        ("neumaier_sum", ctypes.c_int),
        ("n_points", ctypes.c_int),
        *[(name, ctypes.c_void_p) for name in ("bottom", "bottom_dense", "split")],
        *[(name, ctypes.c_void_p) for name, _ in _OUTPUTS],
    ]



class _RegionArrays:
    """The per-region half of ``fop_region``, built once per SACS context.

    The fields are packed into one float64 and one int32 array.  Only
    offsets are kept (no raw addresses), so a context that travels to a
    worker process by pickle stays valid there.
    """

    def __init__(self, region, context) -> None:
        cells = region.local_cells
        segments = region.segments
        rows = sorted(context.row_indices)
        base = self.row_base = rows[0] if rows else 0
        self.n_rows = rows[-1] - base + 1 if rows else 0
        row_start, row_cells = [0], []
        row_seg_lo = [0.0] * self.n_rows
        row_seg_hi = [0.0] * self.n_rows
        for dense in range(self.n_rows):
            row_cells.extend(context.row_indices.get(base + dense, ()))
            row_start.append(len(row_cells))
            segment = segments.get(base + dense)
            if segment is not None:
                row_seg_lo[dense], row_seg_hi[dense] = segment.x_lo, segment.x_hi
        cell_row_start, cell_rows, cell_pos = [0], [], []
        seg_lo, seg_hi = [], []
        position = context.position_in_row
        for lc in cells:
            dense_rows = [row - base for row in lc.rows]
            cell_rows.extend(dense_rows)
            cell_pos.extend(position[(lc.local_index, row)] for row in lc.rows)
            cell_row_start.append(len(cell_rows))
            # Tightest segment bounds over the cell's rows, folded exactly
            # as repro.mgl.shifting._segment_bounds_for_cell folds them.
            seg_lo.append(max(row_seg_lo[r] for r in dense_rows))
            seg_hi.append(min(row_seg_hi[r] for r in dense_rows))
        rank_desc = [0] * len(cells)
        rank_asc = [0] * len(cells)
        for rank, idx in enumerate(context.order_desc):
            rank_desc[idx] = rank
        for rank, idx in enumerate(context.order_asc):
            rank_asc[idx] = rank
        self.n_cells = len(cells)
        self.doubles, self.double_offsets = _pack(np.float64, (
            ("x", [lc.x for lc in cells]),
            ("right", [lc.right for lc in cells]),
            ("gp_x", [lc.gp_x for lc in cells]),
            ("seg_lo", seg_lo),
            ("seg_hi", seg_hi),
            ("row_seg_lo", row_seg_lo),
            ("row_seg_hi", row_seg_hi),
        ))
        self.ints, self.int_offsets = _pack(np.int32, (
            ("order_desc", context.order_desc),
            ("order_asc", context.order_asc),
            ("rank_desc", rank_desc),
            ("rank_asc", rank_asc),
            ("cell_row_start", cell_row_start),
            ("cell_rows", cell_rows),
            ("cell_pos", cell_pos),
            ("row_start", row_start),
            ("row_cells", row_cells),
        ))
        self.row_len = np.diff(np.array(row_start, dtype=np.int32))

    def pointers(self) -> Dict[str, int]:
        """Field name -> address, for this process's copy of the arrays."""
        doubles, ints = self.doubles.ctypes.data, self.ints.ctypes.data
        fields = {name: doubles + 8 * at for name, at in self.double_offsets.items()}
        fields.update((name, ints + 4 * at) for name, at in self.int_offsets.items())
        return fields


def _pack(dtype, fields):
    """Concatenate named lists into one array; returns (array, name -> offset)."""
    flat: List[Any] = []
    offsets: Dict[str, int] = {}
    for name, values in fields:
        offsets[name] = len(flat)
        flat.extend(values)
    return np.array(flat, dtype=dtype), offsets


class NativeFOP:
    """Builds, loads and calls the fused kernel.

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
        lib.fop_score_region.argtypes = [ctypes.POINTER(_Region)]
        lib.fop_score_region.restype = ctypes.c_int
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
    def score_points(self, region, target, points, context, config) -> Optional[List[tuple]]:
        """Score ``points`` of ``region`` in one call.

        ``context`` is the region's SACS context (its once-per-region
        sort report is consumed here, as the first shift call would).
        Returns ``evaluate_point_list``-shaped entries, or ``None`` when
        the library is unavailable.
        """
        lib = self.load()
        if lib is None:
            return None
        arrays = getattr(context, "native_arrays", None)
        if arrays is None:
            arrays = context.native_arrays = _RegionArrays(region, context)
        height = target.height
        n = len(points)
        # Validate everything the kernel indexes with before handing it
        # raw pointers.
        if any(len(p.split) != height for p in points):
            raise ValueError("insertion point does not span the target's rows")
        bottom = np.fromiter((p.bottom_row for p in points), np.int32, n)
        split = np.fromiter((k for p in points for _, k in p.split), np.int32, n * height)
        bottom_dense = bottom - np.int32(arrays.row_base)
        if n and (int(bottom_dense.min()) < 0 or int(bottom_dense.max()) + height > arrays.n_rows):
            raise ValueError("insertion point rows lie outside the region")
        spanned = bottom_dense[:, None] + np.arange(height, dtype=np.int32)
        if ((split < 0) | (split > arrays.row_len[spanned].ravel())).any():
            raise ValueError("insertion point split index outside its row")

        outputs = {name: np.empty(n, dtype) for name, dtype in _OUTPUTS}
        struct = _Region(
            n_cells=arrays.n_cells,
            n_rows=arrays.n_rows,
            target_gp_x=target.gp_x,
            target_gp_y=target.gp_y,
            target_width=target.width,
            vertical_cost_factor=config.vertical_cost_factor,
            height=height,
            fwd_bwd=int(config.use_fwd_bwd_pipeline),
            neumaier_sum=int(_NEUMAIER_SUM),
            n_points=n,
            bottom=bottom.ctypes.data,
            bottom_dense=bottom_dense.ctypes.data,
            split=split.ctypes.data,
            **arrays.pointers(),
            **{name: a.ctypes.data for name, a in outputs.items()},
        )
        if lib.fop_score_region(ctypes.byref(struct)) != 0:
            raise MemoryError("native FOP kernel could not allocate its scratch memory")

        sort_size = 0
        if not context.consumed_sort_report:
            sort_size = context.sort_size
            context.consumed_sort_report = True
        n_local = len(region.local_cells)
        n_sub = region.total_subcells()
        visits = 2 * context.sort_size
        multirow = 2 * context.multirow_cells
        tall = 2 * context.tall_cells
        entries = []
        for i, (point, status, best_x, cost, n_left, n_right, n_bp, n_merged) in enumerate(
            zip(points, *(outputs[name].tolist() for name, _ in _OUTPUTS))
        ):
            scored = status == _SCORED
            work = InsertionPointWork(
                n_local, n_sub, 2, visits, n_left, n_right, n_bp, n_merged,
                sort_size if i == 0 else 0, multirow, tall, scored,
            )
            if scored:
                entries.append((point, best_x, cost, None, work))
            else:
                entries.append((point, None, math.inf, None, work))
        return entries


if __name__ == "__main__":
    kernel = NativeFOP()
    print(kernel.describe())
    sys.exit(0 if kernel.load() is not None else 1)
