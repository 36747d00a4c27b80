import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmultimeter import DimensionError, PAULI, ValidationError
from qmultimeter.operators import (
    check_density_operator,
    eigenvalue_below,
    embed_factors,
    embed_program_isometry,
    frobenius_distance,
    haar_unitary,
    is_hermitian,
    is_isometry,
    is_positive,
    is_projection,
    is_unitary,
    operator_predicates,
    partial_trace,
    projector,
    random_density_operator,
    random_state_vector,
    tensor,
    tensor_many,
)


class TestTensor:
    def test_identity_times_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_x_times_identity_block_structure(self):
        out = tensor(PAULI[1], np.eye(2))
        expected = np.block(
            [[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
        )
        assert np.allclose(out, expected)

    def test_dimension_cap(self):
        big = np.eye(70)
        with pytest.raises(DimensionError):
            tensor(big, big)

    def test_pauli_coupling_assembly_is_unitary(self):
        # blockwise sum of conjugated Pauli words against the slot selectors
        basis = np.eye(4)
        g = sum(
            tensor(0.5 * PAULI[j] @ PAULI[k] @ PAULI[j], np.outer(basis[j], basis[k]))
            for j in range(4)
            for k in range(4)
        )
        assert np.linalg.norm(g.conj().T @ g - np.eye(8)) <= 1e-12
        assert np.linalg.norm(g @ g.conj().T - np.eye(8)) <= 1e-12

    def test_associativity_up_to_bookkeeping(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))
        assert np.allclose(tensor_many([a, b, c]), tensor(a, tensor(b, c)))


class TestPartialTrace:
    def test_traces_out_probe_factor(self, rng):
        for _ in range(10):
            rho = random_density_operator(3, rng)
            xi = random_density_operator(2, rng)
            assert np.linalg.norm(partial_trace(tensor(rho, xi), 3, 2, "K") - rho) <= 1e-12
            assert np.linalg.norm(partial_trace(tensor(rho, xi), 3, 2, "H") - xi) <= 1e-12

    def test_maximally_entangled_marginal(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        out = partial_trace(projector(bell), 2, 2, "K")
        assert np.allclose(out, np.eye(2) / 2)

    def test_trace_preserved(self, rng):
        t = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert abs(np.trace(partial_trace(t, 2, 3, "K")) - np.trace(t)) <= 1e-12
        assert abs(np.trace(partial_trace(t, 2, 3, "H")) - np.trace(t)) <= 1e-12

    def test_shape_error(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(5), 2, 2, "K")


class TestEmbedProgramIsometry:
    def test_basis_probe_selects_first_slot(self):
        w = embed_program_isometry(np.array([1, 0]), 2)
        expected = np.array([[1, 0], [0, 0], [0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(w, expected)

    def test_isometry_identity(self, rng):
        for dim_h, dim_k in [(2, 2), (3, 4)]:
            phi = random_state_vector(dim_k, rng)
            w = embed_program_isometry(phi, dim_h)
            assert np.linalg.norm(w.conj().T @ w - np.eye(dim_h)) <= 1e-12

    def test_range_projection_is_tensor_with_probe_projector(self, rng):
        # independent construction of the expected projection
        phi = random_state_vector(3, rng)
        w = embed_program_isometry(phi, 2)
        expected = np.kron(np.eye(2), np.outer(phi, phi.conj()))
        assert np.linalg.norm(w @ w.conj().T - expected) <= 1e-12

    def test_heisenberg_compression(self, rng):
        phi = random_state_vector(3, rng)
        w = embed_program_isometry(phi, 2)
        assert np.allclose(w.conj().T @ tensor(np.eye(2), np.eye(3)) @ w, np.eye(2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(w.conj().T @ tensor(b, np.eye(3)) @ w, b)


class TestPredicates:
    def test_identity_flags(self):
        flags = operator_predicates(np.eye(3))
        assert all(flags.values())

    def test_sigma_x_flags(self):
        flags = operator_predicates(PAULI[1])
        assert flags["is_hermitian"] and flags["is_unitary"] and flags["is_isometry"]
        assert not flags["is_positive"] and not flags["is_projection"]

    def test_positive_non_projection(self):
        # eigenvalues (1 +- 1/sqrt(3))/2 lie strictly inside (0, 1)
        a = (np.eye(2) + PAULI[3] / np.sqrt(3)) / 2
        flags = operator_predicates(a)
        assert flags["is_hermitian"] and flags["is_positive"]
        assert not flags["is_projection"] and not flags["is_unitary"]

    def test_non_square_input(self):
        rect = np.zeros((3, 2))
        rect[0, 0] = rect[1, 1] = 1.0
        flags = operator_predicates(rect)
        assert flags["is_isometry"]
        assert not any(
            flags[k] for k in ("is_hermitian", "is_positive", "is_projection", "is_unitary")
        )

    def test_agreement_with_eigendecomposition_oracle(self, rng):
        # oracle verdicts straight from the spectrum
        for _ in range(100):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (g + g.conj().T) / 2
            if rng.random() < 0.3:
                # exact projection from a random eigenbasis
                u = haar_unitary(4, rng)
                k = int(rng.integers(0, 5))
                h = u[:, :k] @ u[:, :k].conj().T
            eigs = np.linalg.eigvalsh(h)
            assert is_hermitian(h)
            assert is_positive(h) == bool(eigs.min() >= -1e-9)
            oracle_proj = bool(np.max(np.abs(eigs * (eigs - 1))) <= 1e-9)
            assert is_projection(h) == oracle_proj

    def test_unitary_and_isometry_oracles(self, rng):
        u = haar_unitary(4, rng)
        assert is_unitary(u) and is_isometry(u)
        assert not is_unitary(u * 1.01)
        w = np.linalg.qr(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))[0]
        assert is_isometry(w) and not is_unitary(w)


def _with_spectrum(eigs, rng) -> np.ndarray:
    u = haar_unitary(len(eigs), rng)
    return (u * np.asarray(eigs)) @ u.conj().T


class TestPositivityCertificate:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        bound=st.floats(1e-10, 1e-3),
        shift=st.floats(-3.0, 3.0),
    )
    def test_decision_matches_spectrum(self, n, seed, bound, shift):
        # lowest eigenvalue near -bound, the rest spread over [low, 1]
        rng = np.random.default_rng(seed)
        low = -bound + shift * bound
        h = _with_spectrum([low, *rng.uniform(low, 1.0, size=n - 1)], rng)
        h = (h + h.conj().T) / 2
        exact = float(np.linalg.eigvalsh(h).min())
        if abs(exact + bound) <= 1e-12:
            return
        found = eigenvalue_below(h, bound)
        if exact >= -bound:
            assert found is None
        else:
            assert found == exact

    def test_rank_deficient_at_zero_bound_uses_spectrum(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert eigenvalue_below(np.diag([1.0, 0.0]).astype(complex), 0.0) is None
        assert calls == [(2, 2)]
        assert eigenvalue_below(np.eye(2, dtype=complex), 0.0) is None
        assert calls == [(2, 2)]

    def test_density_operator_bound(self, rng):
        tol = 1e-6
        rho = _with_spectrum([1 + 2 * tol, -2 * tol], rng)
        low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
        with pytest.raises(ValidationError, match="negative eigenvalue") as err:
            check_density_operator(rho, tol)
        assert str(low) in str(err.value)
        check_density_operator(_with_spectrum([1 + tol / 2, -tol / 2], rng), tol)
        check_density_operator(np.diag([1.0, 0.0]), tol=0.0)

    def test_is_positive_at_zero_tolerance(self):
        assert is_positive(np.diag([1.0, 0.0]), tol=0.0)
        assert not is_positive(np.diag([1.0, -1e-12]), tol=0.0)

    def test_is_unitary_matches_two_sided_oracle(self, rng):
        tol = 1e-9
        for _ in range(300):
            d = int(rng.integers(1, 7))
            eps = 10.0 ** rng.uniform(-12, -7)
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a = haar_unitary(d, rng) + eps * g
            bound = tol * max(1.0, np.sqrt(d))
            left = np.linalg.norm(a.conj().T @ a - np.eye(d))
            right = np.linalg.norm(a @ a.conj().T - np.eye(d))
            if min(abs(left - bound), abs(right - bound)) <= 1e-14:
                continue
            assert is_unitary(a, tol) == bool(left <= bound and right <= bound)


class TestFrobeniusDistance:
    def test_zero_on_equal(self, rng):
        a = rng.normal(size=(3, 3))
        assert frobenius_distance(a, a) == 0.0

    def test_identity_to_zero(self):
        for d in (2, 3, 5):
            assert abs(frobenius_distance(np.eye(d), np.zeros((d, d))) - np.sqrt(d)) <= 1e-12

    def test_sigma_x_to_sigma_y(self):
        # ||sx - sy||_F^2 = tr(2 I) = 4, computed from the anticommutator expansion
        assert abs(frobenius_distance(PAULI[1], PAULI[2]) - 2.0) <= 1e-12

    def test_symmetry_and_shape_error(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        assert frobenius_distance(a, b) == frobenius_distance(b, a)
        with pytest.raises(DimensionError):
            frobenius_distance(a, np.eye(3))


class TestRandomGenerators:
    def test_haar_unitary_deterministic_per_seed(self):
        u1 = haar_unitary(3, np.random.default_rng(5))
        u2 = haar_unitary(3, np.random.default_rng(5))
        assert np.array_equal(u1, u2)
        assert is_unitary(u1)

    def test_stacked_draws(self, rng):
        # every matrix of a stack is unitary, and the per-column phase fix
        # leaves the entries unbiased, as Haar measure requires (without it
        # the mean of u[0, 0] is about -0.34 at dim 3)
        u = haar_unitary(3, rng, batch=(4000,))
        assert u.shape == (4000, 3, 3)
        assert all(is_unitary(x) for x in u[:50])
        assert abs(u[:, 0, 0].mean()) <= 5 / np.sqrt(3 * 4000)
        psi = random_state_vector(3, rng, batch=(10, 2))
        assert psi.shape == (10, 2, 3)
        assert np.abs(np.linalg.norm(psi, axis=-1) - 1).max() <= 1e-12

    def test_random_density_operator_valid(self, rng):
        rho = random_density_operator(4, rng, rank=2)
        eigs = np.linalg.eigvalsh(rho)
        assert eigs.min() >= -1e-12
        assert abs(np.trace(rho).real - 1) <= 1e-12
        assert sum(eigs > 1e-12) == 2


class TestEmbedFactors:
    def test_single_factor_against_explicit_kron(self, rng):
        op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out = embed_factors(op, [2, 3, 2], [1])
        expected = np.kron(np.eye(2), np.kron(op, np.eye(2)))
        assert np.allclose(out, expected)

    def test_two_factors_skipping_middle(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out = embed_factors(np.kron(a, b), [2, 3, 4], [0, 2])
        expected = tensor_many([a, np.eye(3), b])
        assert np.allclose(out, expected)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            embed_factors(np.eye(3), [2, 2], [0])


class TestStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValidationError):
            embed_program_isometry(np.array([1.0, 1.0]), 2)

    def test_projector(self, rng):
        phi = random_state_vector(3, rng)
        p = projector(phi)
        assert is_projection(p)
        assert abs(np.trace(p) - 1) <= 1e-12
