import numpy as np
import pytest

from tnbs import basis_rows, eval_basis, make_basis, out_of_domain_count
from tnbs.bspline import BasisConfig

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


def guarded_basis_rows(cfg, xs):
    """Vectorized Cox-de Boor with zero-span guards and an explicit end fix-up.

    The evaluator before the knot tables; ``basis_rows`` must equal it bitwise.
    """
    t, m, rho = cfg.knots, cfg.knot_param, cfg.degree
    x = np.clip(np.asarray(xs, dtype=float), 0.0, 1.0)
    b = ((t[:-1] <= x[:, None]) & (x[:, None] < t[1:])).astype(float)
    at_end = x == 1.0
    if np.any(at_end):
        b[at_end] = 0.0
        b[at_end, m - rho - 1] = 1.0
    for q in range(1, rho + 1):
        span = t[q:] - t[:-q]
        with np.errstate(divide="ignore", invalid="ignore"):
            left = np.where(span[: m - q] > 0, (x[:, None] - t[: m - q]) / span[: m - q], 0.0)
            right = np.where(span[1 : m + 1 - q] > 0,
                             (t[q + 1 :] - x[:, None]) / span[1 : m + 1 - q], 0.0)
        b = left * b[:, :-1] + right * b[:, 1:]
    return b


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

    @pytest.mark.parametrize("xs, message", [
        (np.zeros((2, 1)), "one-dimensional array of evaluation points"),
        (np.array([0.5, np.nan]), "evaluation points must be finite"),
        (np.array([np.inf]), "evaluation points must be finite"),
    ], ids=["column", "nan", "inf"])
    def test_bad_points_rejected(self, xs, message):
        with pytest.raises(ValueError, match=message):
            basis_rows(make_basis(2, 6), xs)


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


@pytest.mark.parametrize("rho,m", [(0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (3, 7), (3, 12)])
def test_rows_bitwise_equal_guarded_oracle(rho, m):
    cfg = make_basis(rho, m)
    rng = np.random.default_rng(45)
    xs = np.concatenate([
        rng.random(2000), cfg.knots, [0.0, 1.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)],
        [-0.25, -1e9, 1.25, 1e9],  # clipped
    ])
    rows = basis_rows(cfg, xs)
    ref = guarded_basis_rows(cfg, xs)
    assert rows.shape == ref.shape
    assert rows.tobytes() == ref.tobytes()
    assert all(eval_basis(cfg, x).tobytes() == r.tobytes() for x, r in zip(xs, ref))


class TestBasisConfigKnots:
    def test_repeated_knot_rejected(self):
        knots = np.array([-1.0, 0.0, 0.5, 0.5, 1.0, 2.0])
        with pytest.raises(ValueError, match="knot 3"):
            BasisConfig(degree=1, knot_param=5, knots=knots)

    def test_decreasing_knot_rejected(self):
        with pytest.raises(ValueError, match="knot 2"):
            BasisConfig(degree=0, knot_param=3, knots=np.array([0.0, 0.6, 0.4, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_knot_rejected(self, bad):
        knots = np.array([0.0, 0.5, 1.0])
        knots[1] = bad
        with pytest.raises(ValueError, match="knot 1"):
            BasisConfig(degree=0, knot_param=2, knots=knots)

    def test_wrong_knot_count_rejected(self):
        with pytest.raises(ValueError, match="need 4 knots"):
            BasisConfig(degree=0, knot_param=3, knots=np.array([0.0, 0.5, 1.0]))

    def test_natural_domain_must_be_unit_interval(self):
        with pytest.raises(ValueError, match=r"knots 0 and 2"):
            BasisConfig(degree=0, knot_param=2, knots=np.array([0.0, 2.0, 4.0]))
        with pytest.raises(ValueError, match=r"knots 1 and 3"):
            BasisConfig(degree=1, knot_param=4, knots=np.array([-1.0, 0.1, 0.5, 1.0, 2.0]))

    def test_degree_must_fit_knot_param(self):
        with pytest.raises(ValueError, match="degree 2"):
            BasisConfig(degree=2, knot_param=4, knots=np.linspace(-1.0, 2.0, 5))
        with pytest.raises(ValueError, match="degree -1"):
            BasisConfig(degree=-1, knot_param=2, knots=np.array([0.0, 0.5, 1.0]))

    def test_hand_built_equals_make_basis(self):
        cfg = make_basis(2, 6)
        hand = BasisConfig(degree=2, knot_param=6, knots=list(cfg.knots))
        xs = np.linspace(-0.1, 1.1, 61)
        assert np.array_equal(basis_rows(hand, xs), basis_rows(cfg, xs))
