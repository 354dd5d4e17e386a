"""The package's public names."""

import chebgreen

PUBLIC = {
    "ChebGrid", "CoeffVector", "GramMatrix", "GreenMatrix", "METHODS", "NodeVector",
    "OperatorMatrix", "PrimitivePair", "QuadratureWeights", "__version__",
    "apply_green_matrix_free", "barycentric_weights_cgl", "barycentric_weights_general",
    "cc_weights", "cgl_points", "cheb_grid", "coeffs_to_nodes", "consistent_gram_matrix",
    "consistent_inner_product", "dct1", "dct1_naive", "diff2_bc_matrix", "diff2_matrix",
    "diff_matrix", "eval_chebyshev_at_cgl", "extend", "extension_matrix",
    "green_bc_matrix", "green_function_eval", "green_matrix", "green_matrix_dense_oracle",
    "integrate_coeffs", "lagrange_integrals", "lagrange_monomial_coeffs",
    "node_poly_primitive", "node_to_coeffs", "projection_matrix", "reduce_fine_to_coarse",
    "reinterp_matrix", "solve_bvp", "solve_stripped", "strip", "verify_d2_symmetry",
    "verify_left_inverse", "verify_right_inverse",
}


def test_public_names_are_pinned_and_resolve():
    assert len(chebgreen.__all__) == len(set(chebgreen.__all__))
    assert set(chebgreen.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(chebgreen, name) is not None, name
    assert chebgreen.__version__ == "0.1.0"


def test_each_public_name_comes_from_one_module():
    modules = (chebgreen.core, chebgreen.calculus, chebgreen.green,
               chebgreen.operators, chebgreen.oracle, chebgreen.quadrature)
    for name in PUBLIC - {"__version__"}:
        (home,) = [m for m in modules if name in m.__all__]
        assert getattr(chebgreen, name) is getattr(home, name)
