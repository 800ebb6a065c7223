"""Nodal DG reference-element toolkit: GLL rules, Lagrange bases, mass matrices.

Everything lives on the reference interval [-1, 1].  The Gauss-Lobatto-
Legendre (GLL) points double as interpolation nodes and quadrature rule;
auxiliary Gauss-Legendre rules handle integrands the GLL rule cannot
integrate exactly (products of two degree-p polynomials).
"""
from __future__ import annotations

import numpy as np

MAX_DEGREE = 8
MAX_GAUSS_POINTS = 20

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


def _legendre(p: int, x: np.ndarray):
    """Legendre polynomial P_p and its first two derivatives, vectorized in x.

    Uses the three-term recurrence k P_k = (2k-1) x P_{k-1} - (k-1) P_{k-2}
    together with the recurrences obtained by differentiating it.
    """
    x = np.asarray(x, dtype=float)
    val = np.ones_like(x)
    d1 = np.zeros_like(x)
    d2 = np.zeros_like(x)
    val_m1 = np.zeros_like(x)
    d1_m1 = np.zeros_like(x)
    d2_m1 = np.zeros_like(x)
    for k in range(1, p + 1):
        a = (2.0 * k - 1.0) / k
        b = (k - 1.0) / k
        val_m2, d1_m2, d2_m2 = val_m1, d1_m1, d2_m1
        val_m1, d1_m1, d2_m1 = val, d1, d2
        val = a * x * val_m1 - b * val_m2
        d1 = a * (val_m1 + x * d1_m1) - b * d1_m2
        d2 = a * (2.0 * d1_m1 + x * d2_m1) - b * d2_m2
    return val, d1, d2


def gll_rule(p: int):
    """Gauss-Lobatto-Legendre nodes and weights for degree p (p+1 points).

    The nodes are the roots of (1 - x^2) P_p'(x), computed by Newton
    iteration from Chebyshev-Lobatto starting guesses; the weights are
    2 / (p (p+1) P_p(x_j)^2).  The rule integrates polynomials of degree
    up to 2p - 1 exactly on [-1, 1].
    """
    if not isinstance(p, (int, np.integer)) or not 1 <= p <= MAX_DEGREE:
        raise ValueError(f"degree must be an integer in [1, {MAX_DEGREE}], got {p!r}")
    if p == 1:
        return np.array([-1.0, 1.0]), np.array([1.0, 1.0])

    # Interior roots of P_p', seeded with Chebyshev-Lobatto points.
    x = np.cos(np.pi * np.arange(1, p) / p)
    for _ in range(_NEWTON_MAX_ITER):
        _, d1, d2 = _legendre(p, x)
        y = (1.0 - x * x) * d1
        yprime = -2.0 * x * d1 + (1.0 - x * x) * d2
        dx = -y / yprime
        x = x + dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break

    nodes = np.concatenate(([-1.0], np.sort(x), [1.0]))
    # Symmetrize so the rule is exactly even about the origin.
    nodes = 0.5 * (nodes - nodes[::-1])
    nodes[0], nodes[-1] = -1.0, 1.0
    val, _, _ = _legendre(p, nodes)
    weights = 2.0 / (p * (p + 1) * val * val)
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights


def gauss_rule(n: int):
    """Gauss-Legendre rule with n points on [-1, 1], exact for degree 2n - 1."""
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_GAUSS_POINTS:
        raise ValueError(f"point count must be an integer in [1, {MAX_GAUSS_POINTS}], got {n!r}")
    return np.polynomial.legendre.leggauss(int(n))


class DGBasis:
    """Degree-p nodal basis on GLL points with mass matrix and Gauss rule.

    Attributes:
        degree: polynomial degree p.
        nodes, weights: the p+1 GLL points and quadrature weights.
        mass, mass_inv: exact mass matrix of the Lagrange basis and its inverse.
        gauss_nodes, gauss_weights: 2p+2-point Gauss rule (exact for the
            degree-2p products appearing in overlap integrals).
        diff: differentiation matrix, diff[i, j] = l_j'(nodes[i]).
    """

    def __init__(self, degree: int):
        self.degree = int(degree)
        self.nodes, self.weights = gll_rule(degree)
        self.gauss_nodes, self.gauss_weights = gauss_rule(2 * self.degree + 2)

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
