"""Closed-form moments of the uniform probability measure on a box.

For the box with per-coordinate half-widths c_i the normalized moment of
the monomial z^alpha factorizes into 1-D integrals

    (1 / 2c) * integral_{-c}^{c} t^a dt  =  c^a / (a + 1)   (a even)
                                         =  0               (a odd),

so every moment is computed exactly, never by quadrature, and odd
exponents give a bitwise zero.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .polynomials import Exponent


def box_moments(monomials: Sequence[Exponent], halfwidths: Sequence[float]) -> np.ndarray:
    """Moments of the monomials under the uniform probability measure on the
    box, one per monomial: the product of the per-axis factors, left to
    right from 1.0.

    The factors are Python floats: numpy's array ``**`` can differ from
    ``float ** int`` in the last bit.
    """
    widths = [float(c) for c in halfwidths]
    if not all(c > 0 for c in widths):
        raise ValueError("half-widths must be positive")
    if any(len(alpha) != len(widths) for alpha in monomials):
        raise ValueError(f"exponents of length other than {len(widths)} half-widths")
    exps = np.array(monomials, dtype=np.int64).reshape(len(monomials), len(widths))
    out = np.ones(len(exps))
    for c, column in zip(widths, exps.T):
        powers = range(column.max(initial=0) + 1)
        out = out * np.array([0.0 if a % 2 else c**a / (a + 1) for a in powers])[column]
    return out
