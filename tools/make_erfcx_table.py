"""Write `src/ordfuse/erfcx_table.py`, the coefficient table of the scaled
complementary error function erfcx(v) = exp(v^2) erfc(v) on v >= 0.

    python3 tools/make_erfcx_table.py

Needs `mpmath`, which the package itself does not. The map y = SCALE/(SCALE + v)
sends v in [0, inf] to y in [0, 1], which is cut into PIECES equal pieces.
On piece i, y = (i + t)/PIECES with t in [0, 1], and erfcx is the
polynomial sum_k c[k][i] t^k of degree DEGREE that interpolates it at the
Chebyshev points of [0, 1], solved in 40-digit arithmetic and rounded to
doubles. Evaluated in doubles, the table is within 5 ulps of erfcx on
[0, 27.3], the range where exp(-v^2) does not underflow.

The module stores c as ROWS, DEGREE + 1 rows of PIECES little-endian
doubles in hex, row k holding the coefficients of t^k: the interpreter
reads that in a sixth of the time it takes to compile the same numbers as
float literals, which every process pays where no bytecode is cached.
"""

from __future__ import annotations

import struct
from pathlib import Path

import mpmath as mp

SCALE = 2.0
PIECES = 128
DEGREE = 5
OUT = Path(__file__).resolve().parent.parent / "src" / "ordfuse" / "erfcx_table.py"


def erfcx(v):
    return mp.mpf(0) if v == mp.inf else mp.erfc(v) * mp.exp(v * v)


def piece_coefficients(i: int) -> list[float]:
    nodes = [(1 - mp.cos(mp.pi * (2 * j + 1) / (2 * (DEGREE + 1)))) / 2 for j in range(DEGREE + 1)]
    values = []
    for t in nodes:
        y = (i + t) / PIECES
        values.append(erfcx(SCALE * (1 - y) / y))
    vandermonde = mp.matrix([[t**k for k in range(DEGREE + 1)] for t in nodes])
    coeffs = mp.lu_solve(vandermonde, mp.matrix(values))
    return [float(coeffs[k]) for k in range(DEGREE + 1)]


def main() -> None:
    mp.mp.dps = 40
    pieces = [piece_coefficients(i) for i in range(PIECES)]
    rows = [[piece[k] for piece in pieces] for k in range(DEGREE + 1)]
    hexed = struct.pack(f"<{(DEGREE + 1) * PIECES}d", *(c for row in rows for c in row)).hex()
    lines = [
        '"""Piecewise polynomial coefficients of erfcx(v) = exp(v^2) erfc(v), v >= 0.',
        "",
        "Written by tools/make_erfcx_table.py, which documents the layout; do not edit.",
        '"""',
        "",
        f"SCALE = {SCALE!r}",
        f"PIECES = {PIECES}",
        "ROWS = bytes.fromhex(",
        *(f'    "{hexed[i:i + 96]}"' for i in range(0, len(hexed), 96)),
        ")",
    ]
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
