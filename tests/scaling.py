"""Inputs for the scale properties. A statistic that a constant factor does
not change gives the same bits on ``x`` and on ``x * 2**k`` whenever every
value of both is 0 or normal, since such a scaling is exact."""

import numpy as np
from hypothesis import strategies as st


@st.composite
def exponents(draw):
    """``(e, k)`` with k in [-1000, 1000] and both e and e + k in
    [-1000, 1020], so that a value near 2**e and its multiple by 2**k are
    normal, and a sum of a few thousand such values can pass the largest
    float."""
    k = draw(st.integers(-1000, 1000))
    e = draw(st.integers(max(-1000, -1000 - k), min(1020, 1020 - k)))
    return e, k


def is_normal(x):
    """Every value is 0 or a finite, normal float."""
    magnitude = np.abs(x)
    return bool(((magnitude == 0.0) | (magnitude >= np.finfo(float).tiny)).all()
                and np.isfinite(x).all())


def same_bits(a, b):
    """``a`` and ``b`` are float arrays of one shape holding the same bits."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()
