"""Kernel table: isolated timings of each mimetic3d operator.

Every operator, `star_matrix` forward and inverse, and `inner3` are timed on
pinned and periodic `Grid3.cube` grids at N = 32 and N = 64 with a
non-unit diagonal star.  This is the only place the periodic (`np.roll`)
path is measured.  Each entry is the median of repeated calls, with the
computed bytes the call moves beside it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from layers import computed_bytes

SIZES = (32, 64)
BOUNDARIES = ("pinned", "periodic")
# Long enough per entry to take a median over several calls at N = 64.
SECONDS_PER_ENTRY = 0.08


def _cases(m, grid, star, rng):
    def vector(kind):
        return m.VectorField3(*(rng.standard_normal(s) for s in grid.vector_shapes(kind)))

    node = rng.standard_normal(grid.scalar_shape("node"))
    dual_node = rng.standard_normal(grid.scalar_shape("dual-node"))
    edge, face = vector("edge"), vector("face")
    dual_edge, dual_face = vector("dual-edge"), vector("dual-face")
    return {
        "grad3": (m.grad3, (node, grid)),
        "curl3": (m.curl3, (edge, grid)),
        "div3": (m.div3, (face, grid)),
        "grad3_star": (m.grad3_star, (dual_node, grid)),
        "curl3_star": (m.curl3_star, (dual_edge, grid)),
        "div3_star": (m.div3_star, (dual_face, grid)),
        "star_matrix_fwd": (m.star_matrix, (edge, star, "a", False)),
        "star_matrix_inv": (m.star_matrix, (dual_face, star, "a", True)),
        "inner3": (m.inner3, ("edge", edge, edge, star, grid)),
    }


def kernel_names():
    """Metric names of the table, in emission order."""
    ops = ("grad3", "curl3", "div3", "grad3_star", "curl3_star", "div3_star",
           "star_matrix_fwd", "star_matrix_inv", "inner3")
    names = []
    for boundary in BOUNDARIES:
        for n in SIZES:
            for op in ops:
                names += [f"kernel.{op}.{boundary}.{n}.us", f"kernel.{op}.{boundary}.{n}.bytes"]
    return names


def kernel_table(seed: int, seconds_per_entry: float) -> dict:
    """{metric name: (value, unit)} for every entry of the table."""
    from stagwave import mimetic3d as m

    rng = np.random.default_rng(seed)
    out = {}
    for boundary in BOUNDARIES:
        for n in SIZES:
            grid = m.Grid3.cube(n, 1.0, boundary=boundary)
            star = m.Star3.from_diagonals(grid, 1.5, 2.0, (2.0, 3.0, 4.0), (1.5, 2.5, 3.5))
            for op, (fn, args) in _cases(m, grid, star, rng).items():
                result = fn(*args)  # warm-up, and the shape for the byte count
                samples = []
                deadline = perf_counter() + seconds_per_entry
                while not samples or perf_counter() < deadline:
                    t0 = perf_counter()
                    fn(*args)
                    samples.append(perf_counter() - t0)
                moved = computed_bytes(op, args, result)
                out[f"kernel.{op}.{boundary}.{n}.us"] = (statistics.median(samples) * 1e6, "us")
                out[f"kernel.{op}.{boundary}.{n}.bytes"] = (float(moved), "B-computed")
    return out
