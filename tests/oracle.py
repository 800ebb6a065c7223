"""Brute-force reference for the uniform SLDG update, shared by the tests."""
import numpy as np

from sldg_vlasov.sldg1d import PERIODIC, check_bc


def projection_oracle(values, displacement: float, width: float, basis, bc: str = PERIODIC):
    """Reference for the uniform SLDG update: sldg1d.apply_update (periodic)
    and vsweep.sweep_pencil on a uniform pencil (absorbing).

    Translates the piecewise polynomial by `displacement` and projects it
    onto each destination cell by direct 50-point Gauss quadrature over
    every overlap subinterval.  Cell i spans [i*width, (i+1)*width).
    """
    check_bc(bc)
    values = np.asarray(values, dtype=float)
    n, o = values.shape
    gq, gw = np.polynomial.legendre.leggauss(50)
    length = n * width
    if bc == PERIODIC:
        n_images = int(abs(displacement) / length) + 2
        images = range(-n_images, n_images + 1)
    else:
        images = (0,)

    out = np.zeros_like(values)
    for i in range(n):
        foot_lo = i * width - displacement
        rhs = np.zeros(o)
        for c in range(n):
            for k in images:
                src_lo = c * width + k * length
                vl = max(foot_lo, src_lo)
                vr = min(foot_lo + width, src_lo + width)
                if vr <= vl:
                    continue
                pts = 0.5 * (vl + vr) + 0.5 * (vr - vl) * gq
                wts = 0.5 * (vr - vl) * gw
                src_vals = basis.eval_all(2.0 * (pts - src_lo) / width - 1.0) @ values[c]
                dest = basis.eval_all(2.0 * (pts + displacement - i * width) / width - 1.0)
                rhs += (2.0 / width) * ((wts * src_vals) @ dest)
        out[i] = basis.mass_inv @ rhs
    return out


def peak_indices_loop(values) -> list:
    """Reference for driver._peak_indices: a scan over the series.

    Strict three-point local maxima; a plateau counts once, at its first
    index, when the values on both sides of it are lower.
    """
    peaks = []
    n = len(values)
    i = 1
    while i < n - 1:
        if values[i] > values[i - 1]:
            j = i
            while j < n - 1 and values[j + 1] == values[i]:
                j += 1
            if j < n - 1 and values[j + 1] < values[i]:
                peaks.append(i)
            i = j + 1
        else:
            i += 1
    return peaks
