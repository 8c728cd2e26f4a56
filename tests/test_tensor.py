import re

import numpy as np
import pytest

from tnbs import (
    TensorTrain,
    inner,
    orthogonalize_to_site,
    shift_core,
    tt_svd,
    tt_to_full,
    vectorize,
)
from tnbs.tensor import _flip, _fold_left, _qr_shift, _walk


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def random_tt(rng, dims, ranks):
    full = (1,) + tuple(ranks) + (1,)
    cores = [rng.standard_normal((full[p], dims[p], full[p + 1])) for p in range(len(dims))]
    return TensorTrain(tuple(cores))


class TestVectorize:
    def test_two_by_two(self):
        a = np.empty((2, 2))
        a[0, 0], a[1, 0], a[0, 1], a[1, 1] = 1.0, 2.0, 3.0, 4.0
        assert vectorize(a).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_vector_is_identity(self):
        v = np.array([3.0, 1.0, 2.0])
        assert np.array_equal(vectorize(v), v)

    def test_index_formula_roundtrip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3, 2))
        v = vectorize(a)
        k1, k2, _ = a.shape
        for i in range(2):
            for j in range(3):
                for l in range(2):
                    assert v[i + j * k1 + l * k1 * k2] == a[i, j, l]


class TestInner:
    def test_zero(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 2))
        assert inner(a, np.zeros((3, 2))) == 0.0

    def test_identity_with_itself(self):
        assert inner(np.eye(2), np.eye(2)) == 2.0

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3, 3))
        b = rng.standard_normal((3, 3, 3))
        ref = sum(
            a[i, j, l] * b[i, j, l]
            for i in range(3)
            for j in range(3)
            for l in range(3)
        )
        assert abs(inner(a, b) - ref) < 1e-12

    def test_frobenius(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 2))
        assert abs(inner(a, a) - np.linalg.norm(a) ** 2) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner(np.zeros((2, 2)), np.zeros((2, 3)))


class TestTrainInvariants:
    def test_first_rank_must_be_one(self):
        with pytest.raises(ValueError):
            TensorTrain((np.zeros((2, 3, 1)),))

    def test_adjacent_rank_mismatch(self):
        with pytest.raises(ValueError):
            TensorTrain((np.zeros((1, 3, 2)), np.zeros((3, 3, 1))))

    @pytest.mark.parametrize("cores, site, message", [
        ((), None, "at least one core"),
        ((np.zeros((1, 3)),), None, r"core 0 must be third-order, got shape \(1, 3\)"),
        ((np.zeros((1, 3, 2)),), None, "last rank must be 1, got 2"),
        ((np.zeros((1, 3, 1)),), 1, "canonical site 1 out of range"),
        ((np.zeros((1, 3, 1)),), -1, "canonical site -1 out of range"),
    ], ids=["no-cores", "second-order", "last-rank", "site-past-end", "negative-site"])
    def test_malformed_train_rejected(self, cores, site, message):
        with pytest.raises(ValueError, match=message):
            TensorTrain(cores, canonical_site=site)

    def test_ranks_and_shape(self):
        tt = random_tt(np.random.default_rng(5), (3, 4, 2), (2, 3))
        assert tt.ranks == (1, 2, 3, 1)
        assert tt.shape == (3, 4, 2)
        assert tt.n_parameters == 1 * 3 * 2 + 2 * 4 * 3 + 3 * 2 * 1


class TestToFull:
    def test_single_core(self):
        core = np.arange(4.0).reshape(1, 4, 1)
        assert np.array_equal(tt_to_full(TensorTrain((core,))), np.arange(4.0))

    def test_rank_one_ones(self):
        cores = tuple(np.ones((1, 3, 1)) for _ in range(3))
        assert np.array_equal(tt_to_full(TensorTrain(cores)), np.ones((3, 3, 3)))

    def test_element_cap(self):
        tt = random_tt(np.random.default_rng(6), (10, 10, 10), (2, 2))
        with pytest.raises(ValueError):
            tt_to_full(tt, max_elements=100)


class TestTtSvd:
    def test_rank_one_tensor(self):
        rng = np.random.default_rng(7)
        b1, b2, b3 = rng.random(4), rng.random(5), rng.random(3)
        t = np.einsum("i,j,k->ijk", b1, b2, b3)
        tt = tt_svd(t)
        assert tt.ranks == (1, 1, 1, 1)
        assert rel_err(tt_to_full(tt), t) < 1e-12

    def test_truncation_respects_caps(self):
        rng = np.random.default_rng(8)
        t = np.where(rng.random((4,) * 8) < 0.5, -4.0, 5.0)
        tt = tt_svd(t, max_ranks=5)
        assert all(r <= 5 for r in tt.ranks[1:-1])
        assert tt.ranks[0] == tt.ranks[-1] == 1

    def test_full_rank_roundtrip(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((5, 5, 5))
        tt = tt_svd(t, max_ranks=(5, 5))
        assert rel_err(tt_to_full(tt), t) < 1e-12
        assert tt.canonical_site == 2

    def test_exactness_various_shapes(self):
        rng = np.random.default_rng(10)
        for shape in [(7, 3, 5), (2, 2, 2, 2, 2), (10, 10, 10), (6,), (3, 8)]:
            t = rng.standard_normal(shape)
            assert rel_err(tt_to_full(tt_svd(t)), t) < 1e-12

    def test_monotone_truncation(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((4, 4, 4, 4))
        errs = [rel_err(tt_to_full(tt_svd(t, max_ranks=r)), t) for r in (1, 2, 3, 4)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        # the middle bond needs rank 16 for exactness
        assert rel_err(tt_to_full(tt_svd(t, max_ranks=16)), t) < 1e-12

    def test_bad_rank_vector_length(self):
        with pytest.raises(ValueError):
            tt_svd(np.zeros((3, 3, 3)), max_ranks=(2,))
        # An order-one train has no interior rank to cap.
        with pytest.raises(ValueError, match="the 0 interior ranks, got 1"):
            tt_svd(np.array([1.0, 2.0]), max_ranks=(3,))

    @pytest.mark.parametrize("max_ranks", [1.7, (2, 2.5), np.nan, "2", 3.5, "x"])
    def test_fractional_or_non_numeric_rank_rejected(self, max_ranks):
        with pytest.raises(ValueError, match="rank must be an integer"):
            tt_svd(np.ones((3, 3, 3)), max_ranks=max_ranks)
        # Order one too, although the train has no interior rank to cap.
        with pytest.raises(ValueError, match="rank must be an integer"):
            tt_svd(np.array([1.0, 2.0]), max_ranks=max_ranks)

    def test_zero_dimensional_array_cap_broadcasts(self):
        t = np.random.default_rng(8).standard_normal((3, 3, 3, 3))
        assert tt_svd(t, max_ranks=np.array(2)).ranks == (1, 2, 2, 2, 1)

    def test_zero_dimensional_rejected(self):
        with pytest.raises(ValueError, match="at least one mode"):
            tt_svd(np.array(1.0))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0,)])
    def test_empty_mode_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"tensor of shape {shape} has an empty mode")):
            tt_svd(np.zeros(shape))

    def test_d1(self):
        tt = tt_svd(np.array([1.0, 2.0]))
        assert tt.canonical_site == 0
        assert np.array_equal(tt_to_full(tt), [1.0, 2.0])


def left_unfold(core):
    r1, k, r2 = core.shape
    return core.reshape(r1 * k, r2, order="F")


def right_unfold(core):
    r1, k, r2 = core.shape
    return core.reshape(r1, k * r2, order="F")


class TestOrthogonalize:
    def test_orthogonality_identities(self):
        rng = np.random.default_rng(12)
        tt = random_tt(rng, (3, 3, 3), (2, 2))
        ref = tt_to_full(tt)
        out = orthogonalize_to_site(tt, 1)
        assert out.canonical_site == 1
        g0 = left_unfold(out.cores[0])
        assert np.allclose(g0.T @ g0, np.eye(g0.shape[1]), atol=1e-12)
        g2 = right_unfold(out.cores[2])
        assert np.allclose(g2 @ g2.T, np.eye(g2.shape[0]), atol=1e-12)
        assert rel_err(tt_to_full(out), ref) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        tt = orthogonalize_to_site(random_tt(rng, (3, 4, 3), (2, 3)), 1)
        again = orthogonalize_to_site(tt, 1)
        for a, b in zip(tt.cores, again.cores):
            assert np.allclose(a, b, atol=1e-12)

    def test_norm_in_canonical_core(self):
        rng = np.random.default_rng(14)
        tt = random_tt(rng, (4, 3, 4, 3), (2, 3, 2))
        full_norm = np.linalg.norm(tt_to_full(tt))
        for s in range(4):
            out = orthogonalize_to_site(tt, s)
            assert abs(np.linalg.norm(out.cores[s]) - full_norm) < 1e-12 * full_norm

    def test_over_ranked_train_gets_exact_isometries(self):
        # Ranks 5 exceed k = 3 at both bonds, so each QR step shrinks its bond
        # to the unfolding's width and leaves an exact isometry.
        rng = np.random.default_rng(22)
        tt = random_tt(rng, (3, 3, 3), (5, 5))
        ref = tt_to_full(tt)
        for site in range(3):
            out = orthogonalize_to_site(tt, site)
            for p, core in enumerate(out.cores):
                if p < site:
                    g = left_unfold(core)
                    assert np.allclose(g.T @ g, np.eye(g.shape[1]), rtol=0, atol=1e-12)
                elif p > site:
                    g = right_unfold(core)
                    assert np.allclose(g @ g.T, np.eye(g.shape[0]), rtol=0, atol=1e-12)
            assert rel_err(tt_to_full(out), ref) < 1e-12
        assert orthogonalize_to_site(tt, 1).ranks == (1, 3, 3, 1)

    def test_site_out_of_range(self):
        tt = random_tt(np.random.default_rng(15), (3, 3), (2,))
        with pytest.raises(ValueError):
            orthogonalize_to_site(tt, 2)


class TestShiftCore:
    def test_right_shift_preserves_tensor(self):
        rng = np.random.default_rng(16)
        tt = orthogonalize_to_site(random_tt(rng, (4, 3), (2,)), 0)
        ref = tt_to_full(tt)
        out = shift_core(tt, 0, "right")
        assert out.canonical_site == 1
        assert rel_err(tt_to_full(out), ref) < 1e-12

    def test_right_then_left_returns_site(self):
        rng = np.random.default_rng(17)
        tt = orthogonalize_to_site(random_tt(rng, (3, 3, 3), (2, 2)), 1)
        ref = tt_to_full(tt)
        out = shift_core(shift_core(tt, 1, "right"), 2, "left")
        assert out.canonical_site == 1
        assert rel_err(tt_to_full(out), ref) < 1e-12

    def test_left_orthogonal_after_right_shift(self):
        rng = np.random.default_rng(18)
        tt = orthogonalize_to_site(random_tt(rng, (3, 4, 3), (2, 2)), 1)
        out = shift_core(tt, 1, "right")
        g = left_unfold(out.cores[1])
        assert np.allclose(g.T @ g, np.eye(g.shape[1]), atol=1e-12)

    def test_canonical_site_mismatch(self):
        tt = orthogonalize_to_site(random_tt(np.random.default_rng(19), (3, 3), (2,)), 0)
        with pytest.raises(ValueError):
            shift_core(tt, 1, "left")

    def test_shift_off_the_end(self):
        tt = orthogonalize_to_site(random_tt(np.random.default_rng(20), (3, 3), (2,)), 1)
        with pytest.raises(ValueError):
            shift_core(tt, 1, "right")
        with pytest.raises(ValueError):
            shift_core(orthogonalize_to_site(tt, 0), 0, "left")

    def test_bad_direction(self):
        tt = orthogonalize_to_site(random_tt(np.random.default_rng(21), (3, 3), (2,)), 0)
        with pytest.raises(ValueError):
            shift_core(tt, 0, "up")


@pytest.mark.parametrize("n", [0, 1, 7])
@pytest.mark.parametrize("shape", [(1, 4, 3), (3, 4, 1), (2, 5, 3)],
                         ids=["first", "last", "interior"])
class TestFolds:
    """The matmul folds against the two-step einsum contraction they replaced."""

    def operands(self, n, shape):
        rng = np.random.default_rng(n + 10 * shape[0])
        core = rng.standard_normal(shape)
        bmat = rng.random((n, shape[1]))
        return rng, core, bmat

    def test_fold_left_matches_einsum(self, n, shape):
        rng, core, bmat = self.operands(n, shape)
        v = rng.standard_normal((n, shape[0]))
        expected = np.einsum("na,nac->nc", v, np.einsum("ni,aic->nac", bmat, core))
        got = _fold_left(v, core, bmat)
        assert got.shape == (n, shape[2])
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_fold_right_matches_einsum(self, n, shape):
        rng, core, bmat = self.operands(n, shape)
        v = rng.standard_normal((n, shape[2]))
        expected = np.einsum("nac,nc->na", np.einsum("ni,aic->nac", bmat, core), v)
        got = _fold_left(v, _flip(core), bmat)
        assert got.shape == (n, shape[0])
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


class TestWalk:
    """The chain walk that the sweep and the solver's public views share."""

    def chain(self):
        rng = np.random.default_rng(4)
        cores = list(random_tt(rng, (3, 4, 5, 3), (2, 3, 2)).cores)
        bmats = [rng.random((6, c.shape[1])) for c in cores]
        return cores, (lambda v, core, p: _fold_left(v, core, bmats[p])), np.ones((6, 1))

    @pytest.mark.parametrize("site", [0, 1, 3])
    def test_products_are_the_explicit_folds(self, site):
        cores, carry, start = self.chain()
        left, right, _ = _walk(carry, start, cores, site)
        v = start
        for p in range(site + 1):
            assert np.array_equal(left[p], v), p
            v = carry(v, cores[p], p)
        v = start
        for p in range(len(cores) - 1, site - 1, -1):
            assert np.array_equal(right[p], v), p
            v = carry(v, _flip(cores[p]), p)
        assert all(x is None for x in left[site + 1:] + right[:site])

    @pytest.mark.parametrize("site, step", [(0, 1), (2, 1), (3, -1), (1, -1)])
    def test_refold_after_a_shift_is_a_fresh_walk(self, site, step):
        # The sweep keeps one walk: after a QR shift in place, refolding the
        # moved side must give what a walk started at the new site gives.
        cores, carry, start = self.chain()
        left, right, refold = _walk(carry, start, cores, site)
        _qr_shift(cores, site, step)
        refold(site, step)
        fresh_left, fresh_right, _ = _walk(carry, start, cores, site + step)
        assert np.array_equal(left[site + step], fresh_left[site + step])
        assert np.array_equal(right[site + step], fresh_right[site + step])


def mode_product(a, c, axis):
    """In-place mode product by explicit loops: contract c's columns with axis."""
    out_shape = list(a.shape)
    out_shape[axis] = c.shape[0]
    out = np.zeros(out_shape)
    for idx in np.ndindex(*out_shape):
        src = list(idx)
        total = 0.0
        for s in range(a.shape[axis]):
            src[axis] = s
            total += c[idx[axis], s] * a[tuple(src)]
        out[idx] = total
    return out


def kron_by_loops(x, y):
    out = np.zeros((x.shape[0] * y.shape[0], x.shape[1] * y.shape[1]))
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            out[i * y.shape[0]:(i + 1) * y.shape[0], j * y.shape[1]:(j + 1) * y.shape[1]] = (
                x[i, j] * y
            )
    return out


def test_vectorized_mode_product_identity():
    # vec of the three-fold mode product equals the reversed Kronecker stack
    # acting on vec of the original tensor.
    rng = np.random.default_rng(22)
    a = rng.standard_normal((2, 3, 2))
    c1 = rng.standard_normal((4, 2))
    c2 = rng.standard_normal((2, 3))
    c3 = rng.standard_normal((5, 2))
    lhs = vectorize(mode_product(mode_product(mode_product(a, c1, 0), c2, 1), c3, 2))
    big = kron_by_loops(kron_by_loops(c3, c2), c1)
    rhs = big @ vectorize(a)
    assert np.allclose(lhs, rhs, atol=1e-12)
