import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import ks_2samp, special_ortho_group

from frameflow import (
    ConfigError,
    canonical_basis,
    casimir_sum,
    gram_defect,
    group_exp,
    haar_sample,
    orthogonality_defect,
    project_rotation,
    rotation_defect,
    skewness_defect,
)
from frameflow import lie_algebra, perturbed_geodesic


def brute_force_casimir(n):
    """Independent construction: sum the squares of (E_ij - E_ji)/sqrt(2)."""
    total = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            a = np.zeros((n, n))
            a[i, j] = 1.0 / np.sqrt(2.0)
            a[j, i] = -1.0 / np.sqrt(2.0)
            total += a @ a
    return total


def random_skew(n, rng):
    z = rng.standard_normal((n, n))
    return (z - z.T) / 2.0


class TestCanonicalBasis:
    def test_n2_single_element(self):
        basis = canonical_basis(2)
        assert len(basis) == 1
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(basis[0], expected, atol=1e-15)

    def test_n3_gram_is_identity(self):
        basis = canonical_basis(3)
        assert len(basis) == 3
        gram = np.einsum("iab,jab->ij", basis, basis)
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_n1_rejected(self):
        with pytest.raises(ConfigError):
            canonical_basis(1)

    def test_dimension_bound_is_the_largest_basis_in_one_batch(self):
        # The dense basis holds n^3 (n - 1) / 2 doubles; n = 45 is the last
        # n whose basis fits in the engine's per-call budget.
        budget = perturbed_geodesic.BATCH_BYTES
        assert 4 * 45**3 * 44 <= budget < 4 * 46**3 * 45
        assert lie_algebra.check_dim(45) == 45 == lie_algebra.MAX_DIM
        for n in (1, 46):
            with pytest.raises(ConfigError, match=f"dimension must be between 2 and 45, got {n}"):
                lie_algebra.check_dim(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_element_count_and_skewness(self, n):
        basis = canonical_basis(n)
        assert len(basis) == n * (n - 1) // 2
        assert skewness_defect(basis) == 0.0

    def test_lexicographic_order(self):
        basis = canonical_basis(3)
        # order (0,1), (0,2), (1,2)
        assert basis[0][0, 1] > 0 and basis[0][0, 2] == 0
        assert basis[1][0, 2] > 0
        assert basis[2][1, 2] > 0


class TestCasimirSum:
    @pytest.mark.parametrize("n,diag", [(2, -0.5), (3, -1.0), (5, -2.0)])
    def test_known_values(self, n, diag):
        total = casimir_sum(canonical_basis(n))
        np.testing.assert_allclose(total, diag * np.eye(n), atol=1e-12)
        np.testing.assert_allclose(total, brute_force_casimir(n), atol=1e-14)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_scaling_identity(self, n):
        total = casimir_sum(canonical_basis(n))
        defect = np.max(np.abs(total + ((n - 1) / 2.0) * np.eye(n)))
        assert defect < 1e-12

    def test_gram_defect_sees_a_non_orthonormal_set(self):
        basis = canonical_basis(3)
        assert gram_defect(basis) < 1e-15
        assert gram_defect(2.0 * basis) == pytest.approx(3.0)
        assert gram_defect(basis[[0, 0, 1]]) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_gram_defect_is_the_einsum_form(self, n):
        # The Gram matrix as one product of the flattened stack gives the
        # defect of tr(A_i A_j^T) summed entry by entry: on the canonical
        # basis, on an orthonormal mix of it, and on that mix moved off
        # orthonormality by 1e-3.
        basis = canonical_basis(n)
        size = len(basis)
        mix = special_ortho_group.rvs(size, random_state=n) if size > 1 else np.eye(1)
        mixed = np.einsum("ij,jab->iab", mix, basis)
        for mats in (basis, mixed, mixed * (1.0 + 1e-3 * np.arange(size))[:, None, None]):
            gram = np.einsum("iab,jab->ij", mats, mats)
            expected = np.max(np.abs(gram - np.eye(size)))
            assert abs(gram_defect(mats) - expected) <= 1e-15


class TestGroupExp:
    def test_zero_gives_identity(self):
        np.testing.assert_array_equal(group_exp(np.zeros((3, 3))), np.eye(3))

    def test_quarter_turn_closed_form(self):
        a1 = canonical_basis(2)[0]
        out = group_exp(np.sqrt(2.0) * (np.pi / 2.0) * a1)
        np.testing.assert_allclose(out, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_scipy_expm(self, n):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = random_skew(n, rng) * rng.uniform(0.1, 5.0)
            np.testing.assert_allclose(group_exp(a), expm(a), atol=1e-12)

    def test_orthogonality_of_random_exponentials(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for n in (2, 3, 4, 5):
            mats = np.array([random_skew(n, rng) for _ in range(250)])
            worst = max(worst, rotation_defect(group_exp(mats)))
        assert worst < 1e-10

    def test_batched_equals_loop(self):
        rng = np.random.default_rng(7)
        mats = np.array([random_skew(3, rng) for _ in range(10)])
        batched = group_exp(mats)
        for k in range(10):
            np.testing.assert_allclose(batched[k], group_exp(mats[k]), atol=1e-14)


class TestHaarSample:
    def test_samples_are_rotations(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5):
            g = haar_sample(n, rng, size=200)
            assert rotation_defect(g) < 1e-12

    def test_first_moment_vanishes(self):
        rng = np.random.default_rng(3)
        n, m = 3, 100_000
        g = haar_sample(n, rng, size=m)
        mean = g[:, 0, 0].mean()
        # Var <g e1, e1> = 1/n, so 4 standard errors:
        assert abs(mean) < 4.0 / np.sqrt(m)

    def test_second_moment_is_one_over_n(self):
        rng = np.random.default_rng(4)
        for n in (2, 4):
            m = 100_000
            w = haar_sample(n, rng, size=m)[:, :, 0]
            sq = w[:, 0] ** 2
            se = sq.std(ddof=1) / np.sqrt(m)
            assert abs(sq.mean() - 1.0 / n) < 4 * se

    def test_off_diagonal_moments_vanish(self):
        rng = np.random.default_rng(6)
        n, m = 3, 100_000
        w = haar_sample(n, rng, size=m)[:, :, 0]
        prod = w[:, 0] * w[:, 1]
        se = prod.std(ddof=1) / np.sqrt(m)
        assert abs(prod.mean()) < 4 * se

    def test_rotation_invariance_of_moments(self):
        # Moments computed with e0 replaced by O e0 agree within joint CI.
        rng = np.random.default_rng(8)
        n, m = 3, 60_000
        e0 = np.zeros(n)
        e0[0] = 1.0
        o = group_exp(random_skew(n, rng))
        g = haar_sample(n, rng, size=m)
        a = (g @ e0)[:, 0] ** 2
        b = (g @ (o @ e0))[:, 0] ** 2
        se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(m)
        assert abs(a.mean() - b.mean()) < 4 * se

    def test_against_scipy_special_ortho_group(self):
        rng = np.random.default_rng(9)
        n, m = 4, 20_000
        mine = haar_sample(n, rng, size=m)[:, 0, 0]
        ref = special_ortho_group.rvs(n, size=m, random_state=np.random.default_rng(10))[:, 0, 0]
        stat, p = ks_2samp(mine, ref)
        assert p > 0.01


def test_project_rotation_restores_orthogonality():
    rng = np.random.default_rng(12)
    g = haar_sample(3, rng, size=50)
    noisy = g + 1e-6 * rng.standard_normal(g.shape)
    fixed = project_rotation(noisy)
    assert rotation_defect(fixed) < 1e-12
    assert np.max(np.abs(fixed - g)) < 1e-5
    single = project_rotation(noisy[0])
    np.testing.assert_allclose(single, fixed[0], atol=1e-14)


def test_orthogonality_defect_reports_magnitude():
    g = np.eye(3)
    g[0, 0] = 1.0 + 1e-6
    assert orthogonality_defect(g) == pytest.approx(2e-6, rel=1e-3)


def _hamilton(a, b):
    """Hamilton product of quaternions (w, x, y, z) stored along axis 0."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.array([a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                     a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                     a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0])


def _rotation_matrix(q):
    """R(q) (3, 3, ...) of unit quaternions q (4, ...): v -> q v conj(q)."""
    w, x, y, z = q
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def _unit_quaternion(u):
    """exp(u) = (cos |u|, sin(|u|) u / |u|) for imaginary quaternions u (3, ...)."""
    norm = np.linalg.norm(u, axis=0)
    return np.concatenate([np.cos(norm)[None], np.sin(norm) / norm * u])


def test_pair_product_is_the_hamilton_product():
    rng = np.random.default_rng(170301)
    p, q = rng.standard_normal((2, 4, 50))
    want = _hamilton(p, q)
    got = lie_algebra._multiply(lie_algebra._as_pair(p), lie_algebra._as_pair(q))
    np.testing.assert_allclose(lie_algebra._as_vector(got), want, rtol=0, atol=1e-15)
    # As the chain calls it: the product written over its right factor.
    e = lie_algebra._as_pair(q)
    lie_algebra._pair_product(lie_algebra._as_pair(p), e, e, np.empty((2, 2, 50), dtype=complex))
    np.testing.assert_allclose(lie_algebra._as_vector(e), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("e0", [[1.0, 0.0, 0.0], [1.0, 2.0, -2.0], [0.0, 0.6, 0.8],
                                [-0.3, 0.1, 0.5]], ids=["e1", "tilt", "no-e1", "random"])
def test_closed_form_direction_is_the_rotation_of_e0(e0):
    rng = np.random.default_rng(170302)
    q = rng.standard_normal((4, 200))
    q /= np.linalg.norm(q, axis=0)
    e0 = np.array(e0) / np.linalg.norm(e0)
    got = np.array(lie_algebra._rotate(lie_algebra._as_pair(q), e0))
    np.testing.assert_allclose(got, np.einsum("ijp,j->ip", _rotation_matrix(q), e0),
                               rtol=0, atol=1e-15)


def test_so4_exponential_is_a_pair_of_unit_quaternions():
    # exp(X) v = e^a v e^b, with 2a and -2b the two rotation vectors of X.
    rng = np.random.default_rng(170303)
    mats = canonical_basis(4)
    xs = np.einsum("pk,kij->pij", rng.standard_normal((200, 6)), mats)
    vectors = np.array([lie_algebra._pair_vectors(x) for x in xs])     # (200, 2, 3)
    left = _unit_quaternion(0.5 * vectors[:, 0].T)
    right = _unit_quaternion(-0.5 * vectors[:, 1].T)
    v = rng.standard_normal((4, 200))
    got = _hamilton(_hamilton(left, v), right)
    want = np.einsum("pij,jp->ip", np.array([expm(x) for x in xs]), v)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
