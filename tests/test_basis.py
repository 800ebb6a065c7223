import numpy as np
import pytest

from sldg_vlasov.basis import MAX_DEGREE, DGBasis, gll_rule


def test_gll_p1_analytic():
    nodes, weights = gll_rule(1)
    assert np.array_equal(nodes, [-1.0, 1.0])
    assert np.array_equal(weights, [1.0, 1.0])


def test_gll_p2_analytic():
    nodes, weights = gll_rule(2)
    np.testing.assert_allclose(nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)


def test_gll_p3_analytic():
    nodes, weights = gll_rule(3)
    r = 1 / np.sqrt(5)
    np.testing.assert_allclose(nodes, [-1.0, -r, r, 1.0], atol=1e-15)
    np.testing.assert_allclose(weights, [1 / 6, 5 / 6, 5 / 6, 1 / 6], atol=1e-15)


def test_gll_p4_analytic():
    nodes, weights = gll_rule(4)
    r = np.sqrt(3 / 7)
    np.testing.assert_allclose(nodes, [-1.0, -r, 0.0, r, 1.0], atol=1e-15)
    np.testing.assert_allclose(weights, [1 / 10, 49 / 90, 32 / 45, 49 / 90, 1 / 10],
                               atol=1e-15)


@pytest.mark.parametrize("p", range(1, 9))
def test_gll_structure(p):
    nodes, weights = gll_rule(p)
    assert nodes[0] == -1.0 and nodes[-1] == 1.0
    assert (np.diff(nodes) > 0).all()
    assert (weights > 0).all()
    assert abs(weights.sum() - 2.0) < 1e-14


@pytest.mark.parametrize("p", range(1, 9))
def test_gll_exactness_degree(p):
    # Exact for monomials up to degree 2p-1; x^9 at p=5 vanishes by symmetry.
    nodes, weights = gll_rule(p)
    for d in range(2 * p):
        exact = 0.0 if d % 2 else 2.0 / (d + 1)
        assert abs(weights @ nodes**d - exact) < 1e-13


def test_gll_p5_odd_monomial():
    nodes, weights = gll_rule(5)
    assert abs(weights @ nodes**9) <= 1e-14


def test_gll_degree_validation():
    for bad in (0, 9, -1, 2.5):
        with pytest.raises(ValueError):
            gll_rule(bad)


@pytest.mark.parametrize("p", range(1, MAX_DEGREE + 1))
def test_gauss_integrates_lagrange_products(p):
    # p+1 points (exact to degree 2p+1) against an oversampled 50-point rule.
    basis = DGBasis(p)
    assert basis.gauss_nodes.shape == basis.gauss_weights.shape == (p + 1,)
    gq50, gw50 = np.polynomial.legendre.leggauss(50)
    ref = basis.eval_all(gq50)
    coarse = basis.eval_all(basis.gauss_nodes)
    for i in range(p + 1):
        for j in range(p + 1):
            exact = gw50 @ (ref[:, i] * ref[:, j])
            got = basis.gauss_weights @ (coarse[:, i] * coarse[:, j])
            assert abs(got - exact) <= 1e-14


def test_lagrange_interpolation_property():
    basis = DGBasis(3)
    vals = basis.eval_all(basis.nodes)
    np.testing.assert_allclose(vals, np.eye(4), atol=1e-13)


def test_lagrange_partition_of_unity():
    basis = DGBasis(4)
    assert abs(basis.eval_all(0.37).sum() - 1.0) <= 1e-14


def test_lagrange_linear_hat():
    basis = DGBasis(1)
    assert abs(basis.eval_all(0.5)[..., 0] - 0.25) < 1e-15


def test_mass_matrix_p1_exact():
    basis = DGBasis(1)
    np.testing.assert_allclose(
        basis.mass, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-15
    )


@pytest.mark.parametrize("p", range(2, 6))
def test_mass_row_sums_equal_weights(p):
    basis = DGBasis(p)
    np.testing.assert_allclose(basis.mass.sum(axis=1), basis.weights, atol=1e-14)


@pytest.mark.parametrize("p", range(1, 9))
def test_mass_inverse_and_spd(p):
    basis = DGBasis(p)
    o = p + 1
    assert np.abs(basis.mass @ basis.mass_inv - np.eye(o)).max() < 1e-13
    np.testing.assert_allclose(basis.mass, basis.mass.T, atol=0)
    assert (np.linalg.eigvalsh(basis.mass) > 0).all()


def test_lumped_mass_for_p1_gll_quadrature():
    # Assembling the p=1 mass with the 2-point GLL rule itself lumps it to
    # diag(weights); the exact mass matrix is denser, so the solver applies
    # the true inverse for every degree.
    basis = DGBasis(1)
    v = basis.eval_all(basis.nodes)
    lumped = v.T @ (basis.weights[:, None] * v)
    np.testing.assert_allclose(lumped, np.diag(basis.weights), atol=1e-15)


@pytest.mark.parametrize("p", range(1, 7))
def test_lagrange_reproduces_polynomials(p):
    rng = np.random.default_rng(7)
    basis = DGBasis(p)
    coeff = rng.standard_normal(p + 1)
    poly = np.polynomial.Polynomial(coeff)
    xs = rng.uniform(-2.0, 2.0, size=100)
    interp = basis.eval_all(xs) @ poly(basis.nodes)
    scale = np.abs(poly(xs)).max()
    assert np.abs(interp - poly(xs)).max() <= 1e-12 * max(scale, 1.0)


def test_diff_matrix_differentiates_polynomials():
    basis = DGBasis(4)
    coeff = np.array([0.3, -1.2, 0.5, 2.0, -0.7])
    poly = np.polynomial.Polynomial(coeff)
    got = basis.diff @ poly(basis.nodes)
    np.testing.assert_allclose(got, poly.deriv()(basis.nodes), atol=1e-12)
