import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmultimeter import DimensionError, PAULI, ValidationError, spin_observable
from qmultimeter.operators import (
    _GRAM_SCHMIDT_MIN_STACK,
    _NORMALISATION_TOL,
    _complex_normals,
    _orthonormal_columns,
    check_density_operator,
    check_state_vector,
    dagger,
    eigenvalue_below,
    embed_factors,
    embed_program_isometry,
    haar_isometry,
    haar_unitary,
    projector,
    random_state_vector,
    tensor,
    tensor_many,
)
from textbook import (
    is_hermitian,
    is_isometry,
    is_projection,
    partial_trace,
    random_density_operator,
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
            rho = random_density_operator(3, rng, 3)
            xi = random_density_operator(2, rng, 2)
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
        with pytest.raises(ValueError):
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


PREDICATES = (is_hermitian, is_projection, is_isometry)


def _no_eigenvalue_below(a, bound=1e-9) -> bool:
    """Positivity of a Hermitian matrix from the stacked certificate."""
    return eigenvalue_below(np.asarray(a, dtype=complex)[None], [bound]) is None


class TestPredicates:
    def test_identity_flags(self):
        assert all(pred(np.eye(3)) for pred in PREDICATES)
        assert _no_eigenvalue_below(np.eye(3))

    def test_sigma_x_flags(self):
        sx = PAULI[1]
        assert is_hermitian(sx) and is_isometry(sx)
        assert not _no_eigenvalue_below(sx) and not is_projection(sx)

    def test_positive_non_projection(self):
        # eigenvalues (1 +- 1/sqrt(3))/2 lie strictly inside (0, 1)
        a = (np.eye(2) + PAULI[3] / np.sqrt(3)) / 2
        assert is_hermitian(a) and _no_eigenvalue_below(a)
        assert not is_projection(a) and not is_isometry(a)

    def test_non_square_input(self):
        rect = np.zeros((3, 2))
        rect[0, 0] = rect[1, 1] = 1.0
        assert is_isometry(rect)
        assert not any(pred(rect) for pred in (is_hermitian, is_projection))

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
            assert _no_eigenvalue_below(h) == bool(eigs.min() >= -1e-9)
            oracle_proj = bool(np.max(np.abs(eigs * (eigs - 1))) <= 1e-9)
            assert is_projection(h) == oracle_proj

    def test_unitary_and_isometry_oracles(self, rng):
        u = haar_unitary(4, rng)
        assert is_isometry(u)
        assert not is_isometry(u * 1.01)
        w = np.linalg.qr(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))[0]
        assert is_isometry(w) and not is_isometry(w.T)


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
        found = eigenvalue_below(h[None], [bound])
        if exact >= -bound:
            assert found is None
        else:
            assert found == (0, exact)

    def test_rank_deficient_at_zero_bound_uses_spectrum(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert eigenvalue_below(np.diag([1.0, 0.0]).astype(complex)[None], [0.0]) is None
        assert calls == [(1, 2, 2)]
        assert eigenvalue_below(np.eye(2, dtype=complex)[None], [0.0]) is None
        assert calls == [(1, 2, 2)]

    def test_density_operator_bound(self, rng):
        tol = _NORMALISATION_TOL
        rho = _with_spectrum([1 + 2 * tol, -2 * tol], rng)
        low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
        with pytest.raises(ValidationError, match="negative eigenvalue") as err:
            check_density_operator(rho)
        assert str(low) in str(err.value)
        check_density_operator(_with_spectrum([1 + tol / 2, -tol / 2], rng))
        check_density_operator(np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("scale, accepted", [(1 + 5e-7, True), (1 - 5e-7, True),
                                                 (1 + 2e-6, False), (1 - 2e-6, False)])
    def test_one_normalisation_tolerance(self, scale, accepted):
        # a state vector's norm, a density operator's trace and a spin axis's
        # norm may each miss 1 by the one constant, and no more
        assert _NORMALISATION_TOL == 1e-6
        for check, value in ((check_state_vector, [scale, 0.0]),
                             (check_density_operator, np.diag([scale, 0.0])),
                             (spin_observable, (0.0, 0.0, scale))):
            if accepted:
                check(value)
            else:
                with pytest.raises(ValidationError, match="is not 1"):
                    check(value)

    def test_is_positive_at_zero_tolerance(self):
        assert _no_eigenvalue_below(np.diag([1.0, 0.0]), 0.0)
        assert eigenvalue_below(np.diag([1.0, -1e-12]).astype(complex)[None], [0.0]) == (0, -1e-12)

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
            # a square isometry is unitary: one Gram product decides both sides
            assert is_isometry(a, tol) == bool(left <= bound and right <= bound)


def phase_fixed_qr(z):
    """LAPACK's ``Q`` of each matrix of ``z``, each column divided by the phase of ``R``'s diagonal."""
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases)).conj()[..., None, :]


def gram_schmidt_once(z):
    """Classical Gram-Schmidt without reorthogonalisation, matrix by matrix."""
    q = np.array(z, dtype=complex)
    for j in range(q.shape[-1]):
        earlier = q[..., :j]
        q[..., j] -= (earlier @ (dagger(earlier) @ q[..., j, None]))[..., 0]
        q[..., j] /= np.linalg.norm(q[..., j], axis=-1, keepdims=True)
    return q


class TestRandomGenerators:
    def test_haar_unitary_deterministic_per_seed(self):
        u1 = haar_unitary(3, np.random.default_rng(5))
        u2 = haar_unitary(3, np.random.default_rng(5))
        assert np.array_equal(u1, u2)
        assert is_isometry(u1)

    def test_stacked_draws(self, rng):
        # every matrix of a stack is unitary, and the per-column phase fix
        # leaves the entries unbiased, as Haar measure requires (without it
        # the mean of u[0, 0] is about -0.34 at dim 3)
        u = haar_unitary(3, rng, batch=(4000,))
        assert u.shape == (4000, 3, 3)
        assert all(is_isometry(x) for x in u[:50])
        assert abs(u[:, 0, 0].mean()) <= 5 / np.sqrt(3 * 4000)
        psi = random_state_vector(3, rng, batch=(10, 2))
        assert psi.shape == (10, 2, 3)
        assert np.abs(np.linalg.norm(psi, axis=-1) - 1).max() <= 1e-12

    @pytest.mark.parametrize("batch", [(), (5,), (2, 3), (64,)])
    def test_haar_unitary_is_the_square_isometry(self, batch):
        # bit for bit: the same draws, the same orthonormalisation
        u = haar_unitary(4, np.random.default_rng(9), batch=batch)
        q = haar_isometry(4, 4, np.random.default_rng(9), batch=batch)
        assert u.shape == (*batch, 4, 4)
        assert np.array_equal(u, q)

    def test_haar_isometry_columns(self, rng):
        # orthonormal columns, and entries left unbiased by the phase fix
        q = haar_isometry(6, 4, rng, batch=(4000,))
        assert q.shape == (4000, 6, 4)
        gram = q.conj().swapaxes(-1, -2) @ q
        assert np.abs(gram - np.eye(4)).max() <= 1e-12
        assert abs(q[:, 0, 0].mean()) <= 5 / np.sqrt(6 * 4000)
        assert is_isometry(haar_isometry(5, 2, rng))
        with pytest.raises(DimensionError, match="at most 3 columns"):
            haar_isometry(3, 4, rng)

    @pytest.mark.parametrize(
        "shape, gram_schmidt",
        [((256, 4, 4), True), ((256, 8, 4), True), ((202, 9, 6), True), ((64, 4, 4), True),
         ((63, 4, 4), False), ((10, 3, 3), False), ((64, 64), False), ((2, 3, 4, 4), False)],
        ids=lambda x: "x".join(map(str, x)) if isinstance(x, tuple) else None,
    )
    def test_orthonormalisation_matches_phase_fixed_qr(self, monkeypatch, shape, gram_schmidt):
        # both sides of the rule give LAPACK's Q with R's diagonal made
        # positive: the one factorisation that makes a Gaussian stack Haar
        *batch, rows, cols = shape
        assert (np.prod(batch) >= _GRAM_SCHMIDT_MIN_STACK * cols) == gram_schmidt
        rng = np.random.default_rng(sum(shape))
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        expected = phase_fixed_qr(z)
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(a.shape) or qr(a))
        q = _orthonormal_columns(z)
        assert calls == ([] if gram_schmidt else [shape])
        assert q.shape == shape
        assert np.abs(q - expected).max() <= 1e-13

    def test_nearly_dependent_columns_stay_orthonormal(self):
        # a column pair at condition number about 1e8 loses orthogonality to
        # about 1e-8 in one Gram-Schmidt pass; the second pass restores it
        rng = np.random.default_rng(28)
        shape = (256, 6, 4)
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        z[..., 2] = z[..., 1] + 1e-8 * z[..., 2]
        assert np.linalg.cond(z).min() >= 1e7
        eye = np.eye(4)
        once = gram_schmidt_once(z)
        assert np.abs(dagger(once) @ once - eye).max() > 1e-12
        q = _orthonormal_columns(z)
        assert np.abs(dagger(q) @ q - eye).max() <= 1e-12
        # and Q is still the factor of z = QR with R upper triangular, diagonal positive
        r = dagger(q) @ z
        assert np.abs(np.tril(r, -1)).max() <= 1e-12 * np.abs(z).max()
        diagonal = np.diagonal(r, axis1=-2, axis2=-1)
        assert np.all(diagonal.real > 0) and np.abs(diagonal.imag).max() <= 1e-12

    @pytest.mark.parametrize(
        "shape",
        [(256, 4, 4), (256, 6, 4), (256, 8, 4), (202, 9, 6), (256, 2, 2), (202, 2, 3), (7,), ()],
        ids=lambda x: "x".join(map(str, x)) or "scalar",
    )
    def test_complex_normals_are_the_sum_of_two_normal_draws(self, shape):
        # the search's chunk shapes (Haar draws, then probes), a vector and a
        # scalar: the same values from the same stream, left in the same state
        old, new = np.random.default_rng(31), np.random.default_rng(31)
        expected = old.normal(size=shape) + 1j * old.normal(size=shape)
        z = _complex_normals(new, shape)
        assert z.shape == shape and z.dtype == complex
        assert np.array_equal(z, expected)
        assert new.bit_generator.state == old.bit_generator.state

    def test_random_density_operator_valid(self, rng):
        # the oracle's full-rank and rank-2 draws
        for rho, rank in ((random_density_operator(4, rng, 4), 4),
                          (random_density_operator(4, rng, 2), 2)):
            eigs = np.linalg.eigvalsh(rho)
            assert eigs.min() >= -1e-12
            assert abs(np.trace(rho).real - 1) <= 1e-12
            assert sum(eigs > 1e-12) == rank


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

    def test_unit_factors_change_nothing(self, rng):
        # dropped before reshaping: the same bits, and no limit on their count
        # (two axes for each of 41 factors would pass numpy's 64-axis limit)
        op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        want = embed_factors(op, [2, 3, 2], [1])
        assert np.array_equal(embed_factors(op, [1, 2, 1, 3, 1, 2, 1], [3]), want)
        assert np.array_equal(embed_factors(np.eye(1), [2, 1, 3, 2], [1]), np.eye(12))
        assert np.array_equal(embed_factors(np.eye(2), [2] + [1] * 40, [0]), np.eye(2))
        assert np.array_equal(embed_factors(np.eye(1), [1, 1], [0, 1]), np.eye(1))

    @pytest.mark.parametrize(
        "dim, dims, positions",
        [(4, [2, 2], [0, 0]), (2, [2, 2], [2]), (2, [2, 2], [-1]), (1, [2, 1], [1, 1])],
        ids=["repeated", "past-end", "negative", "repeated-unit"],
    )
    def test_positions_must_name_distinct_factors(self, dim, dims, positions):
        # refused before numpy sees them, e.g. as "axes don't match array"
        with pytest.raises(DimensionError, match="distinct indices"):
            embed_factors(np.eye(dim), dims, positions)

    def test_cap_checked_before_allocating(self):
        # the identity on the other factors alone would take 64 MiB
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match="dimension cap"):
                embed_factors(np.eye(4), [4, 2048], [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValidationError):
            embed_program_isometry(np.array([1.0, 1.0]), 2)

    def test_projector(self, rng):
        phi = random_state_vector(3, rng)
        p = projector(phi)
        assert is_projection(p)
        assert abs(np.trace(p) - 1) <= 1e-12
