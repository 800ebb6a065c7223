"""Brute-force references shared by the tests."""
import itertools

import numpy as np

from sldg_vlasov.pencil import PencilSet
from sldg_vlasov.sldg1d import PERIODIC, apply_update, check_bc
from sldg_vlasov.vsweep import sweep_pencil


def cartesian_pencils(mesh, direction: int) -> PencilSet:
    """Reference for pencil.extract_pencils: one pencil per rectangle of the
    Cartesian product of every transverse cell edge, with no merging.

    A pencil of coarse cells is cut wherever any cell of the mesh has a
    transverse edge, so its cells lie in several pencils, each entry
    weighted by its rectangle's share of the cell's transverse area.
    Rectangles are in lexicographic order, first transverse axis fastest;
    a 1V mesh has one empty rectangle.
    """
    tol = 1e-9 * mesh.base_width
    t_dims = [t for t in range(mesh.dim) if t != direction]
    hi = mesh.lo + mesh.width
    intervals = []
    for t in t_dims:
        # Edges closer than tol are one edge: coordinates that are not
        # binary fractions of the cell width carry round-off.
        edges = np.sort(np.concatenate([mesh.lo[:, t], hi[:, t]]))
        edges = edges[np.append(True, np.diff(edges) > tol)]
        intervals.append(list(zip(edges[:-1], edges[1:])))
    rects = [rect[::-1] for rect in itertools.product(*intervals[::-1])]
    members = []
    for rect in rects:
        covers = np.ones(mesh.n_cells, dtype=bool)
        for t, (a, b) in zip(t_dims, rect):
            covers &= (mesh.lo[:, t] <= a + tol) & (hi[:, t] >= b - tol)
        ids = np.nonzero(covers)[0]
        members.append(ids[np.argsort(mesh.lo[ids, direction])])
    t_lowers = np.array([[a for a, _ in rect] for rect in rects]).reshape(len(rects), -1)
    t_widths = np.array([[b - a for a, b in rect] for rect in rects]).reshape(len(rects), -1)
    lengths = [len(ids) for ids in members]
    cell_ids = np.concatenate(members)
    pencil_of = np.repeat(np.arange(len(rects)), lengths)
    return PencilSet(
        direction=direction,
        n_pencils=len(rects),
        offsets=np.concatenate([[0], np.cumsum(lengths)]),
        cell_ids=cell_ids,
        lowers=mesh.lo[cell_ids, direction],
        widths=mesh.width[cell_ids, direction],
        levels=mesh.levels[cell_ids],
        weights=np.prod(t_widths[pencil_of] / mesh.width[cell_ids][:, t_dims], axis=1),
        t_lowers=t_lowers,
        t_widths=t_widths,
    )


def weighted_accumulation_sweep(f, mesh, basis, pencils: PencilSet, speeds, dt, bc):
    """Reference for vsweep.advect_velocity: one pencil at a time, no batching.

    `f` is shaped (n_dofs, n_cols) in cell-local DOF order (cell*(p+1)^dim
    + local id, local id = sum of node_a (p+1)^a).  Every cell of a pencil
    is evaluated with its tensor basis at the GLL nodes of the pencil's
    transverse rectangle, every line is swept by `sweep_pencil`, and each
    cell's line results are L2-projected back onto its transverse basis by
    Gauss quadrature over the rectangle and summed over its pencils.
    Returns the swept field in cell-local order.
    """
    o, dim, d = basis.n_nodes, mesh.dim, pencils.direction
    t_dims = [t for t in range(dim) if t != d]
    gq, gw = np.polynomial.legendre.leggauss(o + 1)
    mass = (basis.eval_all(gq).T * gw) @ basis.eval_all(gq)  # exact on [-1, 1]
    # DOF ids shaped (sweep node, transverse nodes), first transverse axis slowest.
    grids = np.meshgrid(*([np.arange(o)] * dim), indexing="ij")
    dof = sum(g * o**a for a, g in zip([d] + t_dims, grids)).reshape(o, -1)
    values = f.reshape(mesh.n_cells, o**dim, -1)
    out = np.zeros_like(values)
    for q in range(pencils.n_pencils):
        ids = pencils.cell_ids[pencils.pencil_slice(q)]
        evaluate, project = [], []
        for c in ids:
            ev, pr = np.ones((1, 1)), np.ones((1, 1))
            for a, t in enumerate(t_dims):
                lo, w = pencils.t_lowers[q, a], pencils.t_widths[q, a]
                cell = lambda x: 2.0 * (x - mesh.lo[c, t]) / mesh.width[c, t] - 1.0  # noqa: E731
                ev = np.kron(ev, basis.eval_all(cell(lo + 0.5 * w * (basis.nodes + 1.0))))
                y = lo + 0.5 * w * (gq + 1.0)
                overlap = 0.5 * w * (basis.eval_all(cell(y)).T * gw) @ basis.eval_all(gq)
                pr = np.kron(pr, np.linalg.solve(0.5 * mesh.width[c, t] * mass, overlap))
            evaluate.append(ev)
            project.append(pr)
        # Lines shaped (columns, line, cells, sweep node).
        lines = np.stack([ev @ values[c][dof] for c, ev in zip(ids, evaluate)])
        lines = lines.transpose(3, 2, 0, 1).copy()
        for j, speed in enumerate(speeds):
            lines[j] = sweep_pencil(lines[j], pencils.widths[pencils.pencil_slice(q)], speed,
                                    dt, bc, basis)
        for i, (c, pr) in enumerate(zip(ids, project)):
            out[c][dof] += pr @ lines[:, :, i].transpose(2, 1, 0)
    return out.reshape(f.shape)


def apply_update_two_products(values, shift):
    """Reference for sldg1d.apply_update: both projections of every cell are
    taken before `values` is overwritten, then shifted into place, so cell i
    takes `same` from cell i - n_shift and `neighbor` from cell i - n_shift - 1.
    Updates `values`, shaped (..., n_cells, p+1, n_lines), in place.
    """
    same, neighbor = shift.same @ values, shift.neighbor @ values
    n = values.shape[-3]
    dest, same, neighbor = (np.moveaxis(a, -3, 0) for a in (values, same, neighbor))
    s = shift.n_shift % n
    dest[s:] = same[: n - s]
    dest[:s] = same[n - s :]
    s = (shift.n_shift + 1) % n
    dest[s:] += neighbor[: n - s]
    dest[:s] += neighbor[n - s :]
    return values


def apply_update_cells(values, shift):
    """sldg1d.apply_update on a copy of values shaped (..., n_cells, p+1)."""
    return apply_update(np.array(values, dtype=float)[..., None], shift)[..., 0]


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
