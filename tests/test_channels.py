import numpy as np
import pytest

from qmultimeter import DimensionError, PAULI, ValidationError
from qmultimeter.channels import (
    apply,
    channel_distance,
    choi_matrix,
    complete_contraction,
    identity_channel,
    is_extreme_channel,
    is_unitary_channel,
    make_channel,
    minimal_kraus,
    multiplicativity_residual,
    unitary_channel,
)
from qmultimeter.operators import (
    DEFAULT_TOL,
    haar_unitary,
    random_state_vector,
    tensor,
)
from textbook import (
    partial_trace,
    random_channel,
    random_density_operator,
    stinespring_commutant_residual,
    stinespring_dilation,
)


class TestApply:
    def test_identity_channel(self, rng):
        c = identity_channel(3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(apply(c, x), x)
        assert np.allclose(apply(c, x, "heisenberg"), x)

    def test_bit_flip(self):
        c = unitary_channel(PAULI[1])
        out = apply(c, np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(out, np.diag([0, 1]))

    def test_schrodinger_heisenberg_duality(self, rng):
        for seed in range(50):
            c = random_channel(3, 2, seed)
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = random_density_operator(3, rng, 3)
            lhs = np.trace(b @ apply(c, rho, "schrodinger"))
            rhs = np.trace(apply(c, b, "heisenberg") @ rho)
            assert abs(lhs - rhs) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply(identity_channel(2), np.eye(3))

    def test_bad_picture(self):
        with pytest.raises(ValueError):
            apply(identity_channel(2), np.eye(2), picture="interaction")


class TestIdentityChannel:
    @pytest.mark.parametrize("dim", [-1, 0, 4097])
    def test_dimension_outside_range_raises_before_allocating(self, monkeypatch, dim):
        def no_allocation(*args, **kwargs):
            raise AssertionError("identity allocated")

        monkeypatch.setattr(np, "eye", no_allocation)
        with pytest.raises(DimensionError, match="4096"):
            identity_channel(dim)


class TestMakeChannel:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_kraus_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            make_channel([np.full((2, 2), np.nan)])
        with pytest.raises(ValidationError, match="non-finite"):
            make_channel([np.eye(2), np.diag([0.0, np.inf])])
        with pytest.raises(ValidationError, match="non-finite"):
            make_channel([np.eye(2), np.diag([np.nan, 0.0])], tol=np.inf)

    def test_trace_preservation_residual_is_stored(self, rng):
        c = random_channel(3, 2, seed=4)
        total = sum(k.conj().T @ k for k in c.kraus)
        assert c.tp_residual == pytest.approx(np.linalg.norm(total - np.eye(3)), abs=1e-15)
        u = haar_unitary(3, rng)
        assert is_unitary_channel(make_channel([u]))
        assert not is_unitary_channel(c)
        assert not is_unitary_channel(make_channel([u / np.sqrt(2), u / np.sqrt(2)]))


class TestUnitaryChannel:
    def test_identity(self):
        assert channel_distance(unitary_channel(np.eye(2)), identity_channel(2)) <= 1e-14

    def test_inverse_composition(self, rng):
        u = haar_unitary(3, rng)
        # u first, then its inverse: the Kraus products of the concatenation
        back_and_forth = make_channel(
            [s @ f for s in unitary_channel(u.conj().T).kraus for f in unitary_channel(u).kraus]
        )
        for _ in range(5):
            rho = random_density_operator(3, rng, 3)
            assert np.linalg.norm(apply(back_and_forth, rho) - rho) <= 1e-12

    def test_heisenberg_action_multiplicative(self, rng):
        u = haar_unitary(2, rng)
        c = unitary_channel(u)
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        d = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = apply(c, b @ d, "heisenberg")
        rhs = apply(c, b, "heisenberg") @ apply(c, d, "heisenberg")
        assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            unitary_channel(np.diag([1.0, 0.5]))


class TestCompleteContraction:
    def test_maps_every_state_to_target(self, rng):
        phi = random_state_vector(2, rng)
        c = complete_contraction(phi)
        target = np.outer(phi, phi.conj())
        for _ in range(10):
            rho = random_density_operator(2, rng, 2)
            assert np.linalg.norm(apply(c, rho) - target) <= 1e-12

    def test_dual_is_unital(self, rng):
        phi = random_state_vector(3, rng)
        c = complete_contraction(phi)
        assert np.allclose(apply(c, np.eye(3), "heisenberg"), np.eye(3))

    def test_not_multiplicative_but_extreme(self, rng):
        phi = random_state_vector(2, rng)
        c = complete_contraction(phi)
        assert multiplicativity_residual(c) > DEFAULT_TOL
        assert is_extreme_channel(c)


class TestMultiplicativity:
    def test_unitary_channels(self, rng):
        for _ in range(5):
            assert multiplicativity_residual(unitary_channel(haar_unitary(3, rng))) <= DEFAULT_TOL

    def test_cross_check_against_direct_product_test(self, rng):
        # brute-force oracle: multiplicativity on random operator pairs
        for seed in range(20):
            c = random_channel(2, 2, seed) if seed % 2 else unitary_channel(
                haar_unitary(2, np.random.default_rng(seed))
            )
            worst = 0.0
            for _ in range(10):
                b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                d = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                gap = apply(c, b @ d, "heisenberg") - apply(c, b, "heisenberg") @ apply(
                    c, d, "heisenberg"
                )
                worst = max(worst, np.linalg.norm(gap))
            assert (multiplicativity_residual(c) <= DEFAULT_TOL) == (worst <= 1e-9)

    def test_residual_scale(self, rng):
        phi = random_state_vector(2, rng)
        assert multiplicativity_residual(complete_contraction(phi)) > 0.1
        assert multiplicativity_residual(unitary_channel(haar_unitary(2, rng))) <= 1e-12


class TestExtremality:
    def test_unitary_extreme(self, rng):
        assert is_extreme_channel(unitary_channel(haar_unitary(4, rng)))

    def test_even_unitary_mixture_not_extreme(self):
        mixture = make_channel([np.eye(2) / np.sqrt(2), PAULI[3] / np.sqrt(2)])
        assert not is_extreme_channel(mixture)

    def test_gauge_redundant_kraus_handled(self, rng):
        # same unitary channel written with two redundant Kraus operators
        u = haar_unitary(2, rng)
        padded = make_channel([u / np.sqrt(2), u / np.sqrt(2)])
        assert is_extreme_channel(padded)
        assert len(minimal_kraus(padded)) == 1


class TestChoi:
    def test_distance_invariant_under_kraus_gauge(self, rng):
        c = random_channel(2, 3, 5)
        v = haar_unitary(3, rng)
        regauged = make_channel(
            [sum(v[i, j] * c.kraus[j] for j in range(3)) for i in range(3)]
        )
        assert channel_distance(c, regauged) <= 1e-12

    def test_distinct_unitaries_distinguished(self):
        assert channel_distance(unitary_channel(np.eye(2)), unitary_channel(PAULI[1])) > 0.5

    def test_global_phase_cancels(self, rng):
        u = haar_unitary(3, rng)
        for _ in range(5):
            theta = rng.uniform(0, 2 * np.pi)
            assert channel_distance(unitary_channel(u), unitary_channel(np.exp(1j * theta) * u)) <= 1e-12

    def test_choi_positive_and_normalized(self):
        for seed in range(10):
            c = random_channel(3, 2, seed)
            choi = choi_matrix(c)
            assert np.linalg.eigvalsh(choi).min() >= -1e-10
            assert abs(np.trace(choi).real - 3) <= 1e-10

    def test_distance_zero_iff_maps_agree_on_basis(self, rng):
        a = random_channel(2, 2, 1)
        b = random_channel(2, 2, 2)
        units = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        for i, u in enumerate(units):
            u[i // 2, i % 2] = 1.0
        gap = max(np.linalg.norm(apply(a, u) - apply(b, u)) for u in units)
        assert (channel_distance(a, b) <= 1e-10) == (gap <= 1e-10)
        rebuilt = make_channel(minimal_kraus(a))
        gap = max(np.linalg.norm(apply(a, u) - apply(rebuilt, u)) for u in units)
        assert channel_distance(a, rebuilt) <= 1e-10 and gap <= 1e-10

    def test_trace_preservation_enforced(self):
        with pytest.raises(ValidationError, match="trace-preserving"):
            make_channel([np.eye(2) / 2])


class TestStinespring:
    def test_dilation_reproduces_channel(self, rng):
        for seed in range(5):
            c = random_channel(2, 3, seed)
            w = stinespring_dilation(c)
            assert np.linalg.norm(w.conj().T @ w - np.eye(2)) <= 1e-12
            rho = random_density_operator(2, rng, 2)
            lifted = w @ rho @ w.conj().T
            assert np.linalg.norm(
                partial_trace(lifted, 2, len(c.kraus), "K") - apply(c, rho)
            ) <= 1e-12

    def test_heisenberg_form(self, rng):
        c = random_channel(2, 2, 9)
        w = stinespring_dilation(c)
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = w.conj().T @ tensor(b, np.eye(len(c.kraus))) @ w
        assert np.linalg.norm(lhs - apply(c, b, "heisenberg")) <= 1e-12

    def test_commutant_residual_detects_unitarity(self, rng):
        assert stinespring_commutant_residual(unitary_channel(haar_unitary(3, rng))) <= 1e-12
        assert stinespring_commutant_residual(random_channel(2, 3, 4)) > 1e-3
