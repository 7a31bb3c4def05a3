"""The gated LAPACK Cholesky factor against its pivot floor and exact
singularity, and the canonical minimum eigenpair against the eigensolver it
runs on: its value and quantized point do not change when ``eigh`` sees R in
another index order."""

import copy

import numpy as np
import pytest
from hypothesis import given

import sigforge.linalg
from sigforge import (
    CorrelationMatrix,
    EigenFailure,
    SignatureSet,
    SingularMatrix,
    cholesky,
    correlation_matrix,
    hadamard_set,
    min_eigenpair,
    quadratic_metric,
    quantize_sign,
    save_set,
)
from sigforge.cli import main
from sigforge.harness import _factor_columns
from sigforge.sphere import _positive_definite, analyse_step
from support import (
    PROPERTY_SETTINGS,
    first_minimum,
    random_matrix,
    random_set,
    random_sets,
    repeated_row_sets,
    underloaded_sets,
)

RECON_TOL = 1e-8


class TestCholesky:
    def test_identity_scaled(self):
        m = correlation_matrix(hadamard_set(8))  # 8I
        factor = cholesky(m)
        assert factor.jitter == 0.0
        expected = np.sqrt(8.0) * np.eye(8)
        assert np.allclose(factor.entries, expected)

    def test_hand_two_by_two(self):
        # R = [[2, 0], [0, 2]] with one +- pair: columns orthogonal.
        m = correlation_matrix(SignatureSet.from_rows([[1, 1], [1, -1]]))
        factor = cholesky(m)
        assert np.allclose(factor.entries, np.sqrt(2.0) * np.eye(2))

    def test_reconstruction_random_family(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            m = random_matrix(rng, int(rng.integers(2, 13)))
            factor = cholesky(m)
            rebuilt = factor.entries.T @ factor.entries - factor.jitter * np.eye(m.dim)
            err = np.abs(rebuilt - m.entries).max()
            assert err <= RECON_TOL * max(1.0, np.abs(m.entries).max())

    def test_singular_input_gets_jitter(self):
        # Duplicated signature: rank-1 R, first pass must fail, jitter pass
        # must succeed and record the shift.
        m = correlation_matrix(SignatureSet.from_rows([[1, 1], [1, 1]]))
        factor = cholesky(m)
        assert factor.jitter == pytest.approx(1e-9 * 2)
        rebuilt = factor.entries.T @ factor.entries
        assert np.allclose(rebuilt, m.entries + factor.jitter * np.eye(2), atol=1e-12)

    def test_floor_rejects_a_pivot_lapack_accepts(self):
        # LAPACK factors this (second pivot about 1e-12 > 0), but that pivot
        # is below the floor 1e-9, so the factor of the jittered input is used.
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        factor = cholesky(a)
        assert factor.jitter == 1e-9
        rebuilt = factor.entries.T @ factor.entries
        assert np.abs(rebuilt - (a + 1e-9 * np.eye(2))).max() <= 1e-12

    def test_jitter_exactly_when_singular(self):
        # On +-1 sets the pivot floor decides singularity exactly: jitter is
        # applied iff exact elimination finds R not positive definite.
        rng = np.random.default_rng(27)
        for length in range(1, 17):
            for k in range(1, 2 * length + 2):
                rows = rng.choice([-1, 1], size=(k, length)).tolist()
                sets = [rows]
                if k > 1:
                    sets.append(rows[:-1] + [[-chip for chip in rows[0]]])
                for chosen in sets:
                    step = analyse_step(SignatureSet.from_rows(chosen))
                    singular = not _positive_definite(step.matrix.entries.tolist())
                    jitter_applied, _ = _factor_columns(step)
                    assert jitter_applied == singular, (length, k)

    def test_indefinite_matrix_rejected(self):
        # Symmetric, constant diagonal, integer: passes type validation but
        # is not PSD (eigenvalues 4 and -2), so no R of any set equals it.
        bad = CorrelationMatrix(entries=np.array([[1, 3], [3, 1]], dtype=np.int64))
        with pytest.raises(SingularMatrix):
            cholesky(bad)


class TestMinEigenpair:
    def test_scaled_identity(self):
        m = correlation_matrix(hadamard_set(16))
        pair = min_eigenpair(m)
        assert pair.value == pytest.approx(16.0, rel=1e-12)
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, rel=1e-12)

    def test_rank_one_matrix(self):
        m = correlation_matrix(SignatureSet.from_rows([[1, 1]]))
        pair = min_eigenpair(m)
        assert pair.value == pytest.approx(0.0, abs=1e-12)

    def test_generic_candidate_reaches_the_optimum(self):
        # R = s s^T: the eigenspace of 0 is s's complement, with projector
        # I - s s^T / 4. Each projector column quantizes to a point of
        # metric 4; the generic candidate P u quantizes to one of metric 0.
        m = correlation_matrix(SignatureSet.from_rows([[1, 1, -1, -1]]))
        pair = min_eigenpair(m)
        assert pair.value == 0.0
        assert quadratic_metric(m, quantize_sign(pair.vector)) == 0

    def test_against_numpy_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            m = random_matrix(rng, int(rng.integers(2, 13)))
            pair = min_eigenpair(m)
            reference = np.linalg.eigvalsh(m.entries.astype(float))[0]
            assert pair.value == pytest.approx(reference, rel=1e-9, abs=1e-9)

    def test_residual_within_contract(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            m = random_matrix(rng, int(rng.integers(2, 13)))
            pair = min_eigenpair(m)
            residual = np.linalg.norm(m.entries @ pair.vector - pair.value * pair.vector)
            assert residual <= 1e-8 * np.abs(m.entries).max() * m.dim

    def test_rayleigh_floor_under_cube_minimum(self):
        # lambda_min * L never exceeds any antipodal metric.
        rng = np.random.default_rng(24)
        for _ in range(20):
            length = int(rng.integers(2, 9))
            m = random_matrix(rng, length)
            assert min_eigenpair(m).value * length <= first_minimum(m)[1] + 1e-6

    def test_eigen_failure_carries_residual(self):
        err = EigenFailure("nope", residual=0.25)
        assert err.residual == 0.25

    def test_vector_read_only(self):
        pair = min_eigenpair(correlation_matrix(hadamard_set(4)))
        with pytest.raises(ValueError):
            pair.vector[0] = 5.0

    def test_float_scoring_picks_the_int64_choice(self):
        # Below sum |R_ij| = 2^53 the candidates are scored by a float64
        # product; the same matrix claiming a sum of 2^53 takes the int64
        # one. Repeated rows and Hadamard sets give wide eigenspaces, so
        # many candidates tie and the first-on-ties rule is exercised.
        rng = np.random.default_rng(515)
        matrices = [correlation_matrix(hadamard_set(n)) for n in (4, 8, 16, 32)]
        for _ in range(150):
            length = int(rng.integers(1, 25))
            rows = rng.choice([-1, 1], size=(int(rng.integers(1, 2 * length + 2)), length))
            rows[: len(rows) // 2] = rows[0]
            matrices.append(correlation_matrix(SignatureSet.from_rows(rows.tolist())))
        for matrix in matrices:
            assert matrix.abs_sum < 1 << 53
            wide = copy.copy(matrix)
            object.__setattr__(wide, "abs_sum", 1 << 53)
            float_pair, int_pair = min_eigenpair(matrix), min_eigenpair(wide)
            assert float_pair.value == int_pair.value
            assert np.array_equal(float_pair.vector, int_pair.vector)


def permuted_eigh(order):
    """``eigh`` run on R with rows and columns taken in ``order``, its
    eigenvectors mapped back to R's indices: the same spectrum, another
    basis in every degenerate eigenspace, other rounding."""
    real_eigh = sigforge.linalg.eigh

    def run(a):
        values, vectors = real_eigh(a[np.ix_(order, order)])
        return values, vectors[np.argsort(order)]

    return run


def assert_kernel_independent(signature_set):
    m = correlation_matrix(signature_set)
    pair = min_eigenpair(m)
    orders = [np.arange(m.dim)[::-1], np.random.default_rng(m.dim).permutation(m.dim)]
    for order in orders:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sigforge.linalg, "eigh", permuted_eigh(order))
            other = min_eigenpair(m)
        assert other.value == pair.value
        assert quantize_sign(other.vector) == quantize_sign(pair.vector)


@pytest.fixture(scope="module")
def reference_chain_sets(reference_chain):
    final = reference_chain.final_set
    return [SignatureSet(final.signatures[:k]) for k in range(16, 32)]


class TestBitIdentity:
    """The eigenvalue and the quantized point are bit-identical whatever
    index order, and so whatever eigenbasis, the eigensolver works in."""

    @PROPERTY_SETTINGS
    @given(random_sets(1, 24))
    def test_random_sets(self, signature_set):
        assert_kernel_independent(signature_set)

    @PROPERTY_SETTINGS
    @given(repeated_row_sets(1, 24))
    def test_repeated_rows(self, signature_set):
        assert_kernel_independent(signature_set)

    @PROPERTY_SETTINGS
    @given(underloaded_sets(2, 24))
    def test_fewer_signatures_than_chips(self, signature_set):
        assert_kernel_independent(signature_set)

    @PROPERTY_SETTINGS
    @given(random_sets(1, 24, lambda length: 1))
    def test_single_signature(self, signature_set):
        assert_kernel_independent(signature_set)

    @pytest.mark.parametrize("step", range(16))
    def test_reference_chain_steps(self, reference_chain_sets, step):
        # lambda_min = 16 with multiplicity 16 - step: degenerate on all but the last.
        assert_kernel_independent(reference_chain_sets[step])


def failing_eigh(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class TestEigenFailurePaths:
    """Both raise paths of min_eigenpair run, the solver or threshold
    patched per test, and the CLI exits 3 on either."""

    @pytest.fixture
    def l12_matrix(self):
        return random_matrix(np.random.default_rng(26), 12)

    def test_residual_tolerance(self, l12_matrix, monkeypatch):
        monkeypatch.setattr(sigforge.linalg, "RESIDUAL_TOL", 0.0)
        with pytest.raises(EigenFailure, match="exceeds tolerance") as info:
            min_eigenpair(l12_matrix)
        assert info.value.residual > 0

    @pytest.fixture
    def l12_file(self, tmp_path):
        path = tmp_path / "l12.txt"
        save_set(random_set(np.random.default_rng(26), 18, 12), path)
        return str(path)

    def test_cli_extend_exits_3(self, l12_file, monkeypatch, capsys):
        monkeypatch.setattr(sigforge.linalg, "RESIDUAL_TOL", 0.0)
        assert main(["extend", l12_file]) == 3
        assert "exceeds tolerance" in capsys.readouterr().err

    def test_solver_failure_exits_3(self, l12_matrix, l12_file, monkeypatch, capsys):
        monkeypatch.setattr(sigforge.linalg, "eigh", failing_eigh)
        with pytest.raises(EigenFailure, match="did not converge"):
            min_eigenpair(l12_matrix)
        assert main(["extend", l12_file]) == 3
        assert "did not converge" in capsys.readouterr().err


class TestQuantizeSign:
    def test_zero_maps_to_plus_one(self):
        sig = quantize_sign(np.array([0.0, -0.0, -3.0, 2.0]))
        assert tuple(sig) == (1, 1, -1, 1)
        # Rounding noise around a zero component counts as zero.
        assert tuple(quantize_sign([1.0, -1e-17, -1.0])) == (1, 1, -1)

    def test_length_preserved(self):
        assert len(quantize_sign(np.ones(7))) == 7

    def test_quantized_eigenvector_is_valid_radius_point(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            m = random_matrix(rng, int(rng.integers(2, 10)))
            sig = quantize_sign(min_eigenpair(m).vector)
            assert quadratic_metric(m, sig) >= 0
