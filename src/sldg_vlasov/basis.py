"""Nodal DG reference-element toolkit: GLL rules, Lagrange bases, mass matrices.

Everything lives on the reference interval [-1, 1], and both quadrature
rules come from numpy's Legendre module.  The Gauss-Lobatto-Legendre (GLL)
points double as interpolation nodes and quadrature rule; a (p+1)-point
Gauss-Legendre rule handles the integrands the GLL rule cannot integrate
exactly (products of two degree-p polynomials).
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre

MAX_DEGREE = 8


def gll_rule(p: int):
    """Gauss-Lobatto-Legendre nodes and weights for degree p (p+1 points).

    The nodes are -1, 1 and the roots of P_p'; the weights are
    2 / (p (p+1) P_p(x_j)^2).  The rule integrates polynomials of degree
    up to 2p - 1 exactly on [-1, 1].
    """
    if not isinstance(p, (int, np.integer)) or not 1 <= p <= MAX_DEGREE:
        raise ValueError(f"degree must be an integer in [1, {MAX_DEGREE}], got {p!r}")
    p_p = legendre.Legendre.basis(p)
    nodes = np.concatenate(([-1.0], p_p.deriv().roots(), [1.0]))
    # Symmetrize so the rule is exactly even about the origin.
    nodes = 0.5 * (nodes - nodes[::-1])
    nodes[0], nodes[-1] = -1.0, 1.0
    weights = 2.0 / (p * (p + 1) * p_p(nodes) ** 2)
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights


class DGBasis:
    """Degree-p nodal basis on GLL points with mass matrix and Gauss rule.

    Attributes:
        degree: polynomial degree p.
        nodes, weights: the p+1 GLL points and quadrature weights.
        mass, mass_inv: exact mass matrix of the Lagrange basis and its inverse.
        gauss_nodes, gauss_weights: (p+1)-point Gauss rule, exact up to
            degree 2p+1, so for the degree-2p products in mass and overlap
            integrals.
        diff: differentiation matrix, diff[i, j] = l_j'(nodes[i]).
    """

    def __init__(self, degree: int):
        self.degree = int(degree)
        self.nodes, self.weights = gll_rule(degree)
        self.gauss_nodes, self.gauss_weights = legendre.leggauss(self.degree + 1)

        o = self.degree + 1
        self._others = np.array(
            [[m for m in range(o) if m != j] for j in range(o)], dtype=np.intp
        )
        denoms = np.array(
            [np.prod(self.nodes[j] - self.nodes[self._others[j]]) for j in range(o)]
        )
        self._inv_denoms = 1.0 / denoms

        mass = self._quadrature_mass()
        self.mass = 0.5 * (mass + mass.T)
        self.mass_inv = np.linalg.inv(self.mass)
        self.diff = self._diff_matrix()

    @property
    def n_nodes(self) -> int:
        return self.degree + 1

    def eval_all(self, x) -> np.ndarray:
        """Evaluate every Lagrange basis polynomial at x.

        Returns an array of shape x.shape + (p+1,); the basis is total, so
        x may lie anywhere on the real line (translated-foot evaluation
        needs points outside [-1, 1]).
        """
        x = np.asarray(x, dtype=float)
        diffs = x[..., None] - self.nodes
        return diffs[..., self._others].prod(axis=-1) * self._inv_denoms

    def _quadrature_mass(self) -> np.ndarray:
        v = self.eval_all(self.gauss_nodes)
        return v.T @ (self.gauss_weights[:, None] * v)

    def _diff_matrix(self) -> np.ndarray:
        # Barycentric form: D[i, j] = (w_j / w_i) / (x_i - x_j) for i != j.
        o = self.n_nodes
        bw = self._inv_denoms
        d = np.zeros((o, o))
        for i in range(o):
            for j in range(o):
                if i != j:
                    d[i, j] = (bw[j] / bw[i]) / (self.nodes[i] - self.nodes[j])
        np.fill_diagonal(d, -d.sum(axis=1))
        return d
