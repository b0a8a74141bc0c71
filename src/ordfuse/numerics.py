"""Shared numerical helpers: composite quadrature and 1-D refinement."""

from __future__ import annotations

import numpy as np

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def panels_from_edges(edges: np.ndarray, order: int = 16):
    """Composite Gauss-Legendre nodes/weights over consecutive edge intervals."""
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with at least two entries")
    x, w = np.polynomial.legendre.leggauss(order)
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)
    nodes = (lo + half * (x[None, :] + 1.0)).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Abscissa of a local minimum of f on [lo, hi] (unimodal on the bracket)."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def refine_extrema(f, grid: np.ndarray, values: np.ndarray, tol: float = 1e-10):
    """(min, max) of f over [grid[0], grid[-1]] via local refinement around best cells.

    `values` holds f on `grid`. Refines one bracket around the grid argmin and
    argmax each; endpoints are kept as candidates.
    """
    i_min = int(np.argmin(values))
    i_max = int(np.argmax(values))
    out = []
    for idx, sign in ((i_min, 1.0), (i_max, -1.0)):
        lo = grid[max(idx - 1, 0)]
        hi = grid[min(idx + 1, len(grid) - 1)]
        best = values[idx]
        if hi > lo:
            x = golden_section_min(lambda t: sign * f(t), lo, hi, tol=tol)
            cand = f(x)
            if sign * cand < sign * best:
                best = cand
        out.append(best)
    return float(out[0]), float(out[1])
