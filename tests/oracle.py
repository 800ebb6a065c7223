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
