import numpy as np
import pytest

from tnbs import basis_rows, eval_basis, make_basis, out_of_domain_count

CONFIGS = [(1, 4), (2, 6), (3, 7)]


def cox_de_boor(knots, j, degree, x):
    """Independent scalar recursion used as the evaluation oracle."""
    if degree == 0:
        return 1.0 if knots[j] <= x < knots[j + 1] else 0.0
    left = 0.0
    den = knots[j + degree] - knots[j]
    if den != 0.0:
        left = (x - knots[j]) / den * cox_de_boor(knots, j, degree - 1, x)
    right = 0.0
    den = knots[j + degree + 1] - knots[j + 1]
    if den != 0.0:
        right = (knots[j + degree + 1] - x) / den * cox_de_boor(knots, j + 1, degree - 1, x)
    return left + right


class TestMakeBasis:
    def test_cubic_seven_knot_param(self):
        cfg = make_basis(3, 7)
        assert np.array_equal(cfg.knots, [-3, -2, -1, 0, 1, 2, 3, 4])
        assert cfg.basis_count == 4
        assert cfg.knots[cfg.degree] == 0.0
        assert cfg.knots[cfg.knot_param - cfg.degree] == 1.0

    def test_quadratic_six(self):
        assert make_basis(2, 6).basis_count == 4

    def test_smallest_config(self):
        cfg = make_basis(0, 2)
        assert np.array_equal(cfg.knots, [0.0, 0.5, 1.0])
        assert cfg.basis_count == 2

    def test_uniform_spacing(self):
        for rho, m in CONFIGS:
            diffs = np.diff(make_basis(rho, m).knots)
            assert np.allclose(diffs, diffs[0])

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError):
            make_basis(3, 6)
        with pytest.raises(ValueError):
            make_basis(-1, 4)

    def test_fractional_parameters_rejected(self):
        with pytest.raises(ValueError, match="2.9"):
            make_basis(2.9, 6)
        with pytest.raises(ValueError, match="6.5"):
            make_basis(2, 6.5)
        assert make_basis(2.0, 6.0).basis_count == 4


class TestEvalBasis:
    def test_degree_zero_indicator(self):
        assert np.array_equal(eval_basis(make_basis(0, 2), 0.25), [1.0, 0.0])

    def test_linear_hats_at_midpoint(self):
        assert np.allclose(eval_basis(make_basis(1, 4), 0.25), [0.5, 0.5, 0.0])

    def test_cubic_against_recursion_oracle(self):
        cfg = make_basis(3, 7)
        b = eval_basis(cfg, 0.3)
        ref = [cox_de_boor(cfg.knots, j, 3, 0.3) for j in range(4)]
        assert np.allclose(b, ref, atol=1e-12)
        assert abs(b.sum() - 1.0) < 1e-12
        assert (b >= 0).all()

    def test_value_at_one_is_left_limit(self):
        for rho, m in [(1, 4), (2, 6), (3, 7)]:
            cfg = make_basis(rho, m)
            b1 = eval_basis(cfg, 1.0)
            assert abs(b1.sum() - 1.0) < 1e-12
            assert np.allclose(b1, eval_basis(cfg, 1.0 - 1e-12), atol=1e-9)

    def test_clipping(self):
        cfg = make_basis(2, 6)
        assert np.array_equal(eval_basis(cfg, -0.5), eval_basis(cfg, 0.0))
        assert np.array_equal(eval_basis(cfg, 1.5), eval_basis(cfg, 1.0))

    def test_non_finite_rejected(self):
        cfg = make_basis(2, 6)
        with pytest.raises(ValueError):
            eval_basis(cfg, float("nan"))
        with pytest.raises(ValueError):
            eval_basis(cfg, float("inf"))


class TestBasisRows:
    def test_empty(self):
        assert basis_rows(make_basis(2, 6), np.array([])).shape == (0, 4)

    def test_single_matches_eval(self):
        cfg = make_basis(3, 7)
        assert np.array_equal(basis_rows(cfg, np.array([0.4]))[0], eval_basis(cfg, 0.4))

    def test_hundred_random_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        rows = basis_rows(make_basis(3, 7), rng.random(100))
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("rho,m", CONFIGS)
def test_partition_of_unity(rho, m):
    cfg = make_basis(rho, m)
    rng = np.random.default_rng(42)
    xs = np.concatenate([rng.random(1000), [0.0, 1.0]])
    rows = basis_rows(cfg, xs)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("rho,m", CONFIGS)
def test_non_negativity(rho, m):
    rng = np.random.default_rng(43)
    rows = basis_rows(make_basis(rho, m), rng.random(500))
    assert (rows >= 0).all()


@pytest.mark.parametrize("rho,m", CONFIGS)
def test_local_support(rho, m):
    cfg = make_basis(rho, m)
    rng = np.random.default_rng(44)
    for x in rng.random(200):
        b = eval_basis(cfg, x)
        for j in range(cfg.basis_count):
            if b[j] != 0.0:
                assert cfg.knots[j] <= x <= cfg.knots[j + rho + 1]


@pytest.mark.parametrize("rho,m", [(1, 4), (2, 6), (3, 7)])
def test_continuity_at_knots(rho, m):
    cfg = make_basis(rho, m)
    h = 1e-8
    interior = [t for t in cfg.knots if 0.0 < t < 1.0]
    for t in interior:
        diff = np.abs(eval_basis(cfg, t + h) - eval_basis(cfg, t))
        assert diff.max() <= 1e-6


def test_out_of_domain_count():
    assert out_of_domain_count(np.array([-0.1, 0.0, 0.5, 1.0, 1.2])) == 2
    assert out_of_domain_count(np.array([0.2, 0.8])) == 0
