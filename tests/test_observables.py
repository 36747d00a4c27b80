import numpy as np
import pytest

from qmultimeter import DimensionError, PAULI, ValidationError
from qmultimeter.observables import (
    is_extreme,
    is_sharp,
    make_kernel,
    make_observable,
    mix,
    naimark_check,
    naimark_dilation,
    observable_distance,
    post_process,
    product_residual,
    random_observable,
    random_sharp_observable,
    relabel,
    sharpness_residual,
    spin_observable,
)
from qmultimeter.operators import haar_unitary, is_projection, projector


def sic_observable():
    """Tetrahedral four-outcome qubit observable."""
    effects = [
        0.25
        * (
            np.eye(2)
            + sum(PAULI[j] @ PAULI[i] @ PAULI[j] for i in (1, 2, 3)) / np.sqrt(3)
        )
        for j in range(4)
    ]
    return make_observable(2, (0, 1, 2, 3), effects)


class TestMakeObservable:
    def test_spin_z_effects(self):
        obs = make_observable(2, ("+", "-"), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert obs.outcomes == ("+", "-")
        assert np.allclose(obs.effect("+"), np.diag([1, 0]))

    def test_normalization_error(self):
        with pytest.raises(ValidationError, match="identity"):
            make_observable(2, (1, 2), [np.eye(2), np.eye(2)])

    def test_positivity_error(self):
        p = np.diag([1.5, 0.0])
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            make_observable(2, (1, 2), [p, np.eye(2) - p])

    def test_positivity_bound_is_relative(self, rng):
        # b = tol * max(1, ||E||_F); an eigenvalue of -2b is rejected with the
        # spectrum's value in the message, one of -b/2 is accepted
        tol = 1e-6
        u = haar_unitary(2, rng)
        for low, accepted in ((-2 * tol, False), (-tol / 2, True)):
            e = (u * [1.0, low]) @ u.conj().T
            effects = [e, np.eye(2) - e]
            if accepted:
                make_observable(2, (1, 2), effects, tol=tol)
                continue
            exact = float(np.linalg.eigvalsh((e + e.conj().T) / 2).min())
            with pytest.raises(ValidationError, match="negative eigenvalue") as err:
                make_observable(2, (1, 2), effects, tol=tol)
            assert str(exact) in str(err.value)

    def test_zero_tolerance_accepts_rank_deficient_projectors(self):
        obs = make_observable(2, (1, 2), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], tol=0.0)
        assert is_sharp(obs)

    def test_non_finite_entries_rejected(self):
        e = np.diag([np.nan, 0.5])
        with pytest.raises(ValidationError, match="non-finite"):
            make_observable(2, (1, 2), [e, np.eye(2) - e])
        with pytest.raises(ValidationError, match="non-finite"):
            make_observable(1, (1,), [[[np.inf]]])
        with pytest.raises(ValidationError, match="non-finite"):
            make_kernel([[np.nan, 1.0], [0.0, 1.0]])

    def test_sic_is_valid(self):
        obs = sic_observable()
        total = sum(obs.effects)
        assert np.linalg.norm(total - np.eye(2)) <= 1e-12

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            make_observable(2, (1, 1), [np.eye(2) / 2, np.eye(2) / 2])

    def test_effect_shape_error(self):
        with pytest.raises(DimensionError):
            make_observable(2, (1,), [np.eye(3)])


class TestSharpness:
    def test_spin_observables_sharp(self, spin_trio):
        assert all(is_sharp(s) for s in spin_trio)

    def test_sic_not_sharp(self):
        # rank-1 effects with trace 1/2 square to half themselves
        obs = sic_observable()
        assert not is_sharp(obs)
        assert sharpness_residual(obs) > 0.1

    def test_single_outcome_sharp(self):
        assert is_sharp(make_observable(3, ("all",), [np.eye(3)]))

    def test_projection_test_matches_product_criterion(self):
        # the two sharpness characterizations never disagree
        for seed in range(100):
            d = 2 + seed % 3
            sharp = random_sharp_observable(d, 2 + seed % (d - 1) if d > 2 else 2, seed)
            fuzzy = random_observable(d, 3, seed)
            for obs in (sharp, fuzzy):
                assert is_sharp(obs, 1e-9) == (product_residual(obs) <= 1e-9)


class TestExtremality:
    def test_sharp_observables_extreme(self):
        for seed in range(20):
            d = 2 + seed % 4
            n = 2 + seed % d if d > 2 else 2
            n = min(n, d)
            assert is_extreme(random_sharp_observable(d, n, seed))

    def test_trivial_mixture_not_extreme(self):
        half = make_observable(2, (1, 2), [np.eye(2) / 2, np.eye(2) / 2])
        assert not is_extreme(half)

    def test_sic_extreme_with_rank_oracle(self):
        # oracle: the four tetrahedral rank-1 effects are linearly independent
        # in Hermitian space, checked by stacking real coordinate vectors
        obs = sic_observable()
        coords = np.stack(
            [np.concatenate([e.real.ravel(), e.imag.ravel()]) for e in obs.effects]
        )
        assert np.linalg.matrix_rank(coords) == 4
        assert is_extreme(obs)

    def test_mixture_of_distinct_never_extreme(self):
        for seed in range(10):
            e = random_observable(2, 3, seed)
            f = random_observable(2, 3, seed + 1000)
            lam = 0.2 + 0.6 * (seed / 10)
            assert not is_extreme(mix(lam, e, f))

    def test_zero_effect_padding_ignored(self, spin_trio):
        padded = make_observable(
            2, (1, 2, 3), list(spin_trio[2].effects) + [np.zeros((2, 2))]
        )
        assert is_extreme(padded)


class TestMix:
    def test_endpoint(self, spin_trio):
        s1, _, s3 = spin_trio
        assert observable_distance(mix(1.0, s1, s3), s1) <= 1e-15

    def test_equal_mixture_effects(self, spin_trio):
        s1, _, s3 = spin_trio
        mixed = mix(0.5, s1, s3)
        expected_plus = (2 * np.eye(2) + PAULI[1] + PAULI[3]) / 4
        assert np.linalg.norm(mixed.effect(1) - expected_plus) <= 1e-15

    def test_equal_mixture_not_sharp(self, spin_trio):
        s1, _, s3 = spin_trio
        mixed = mix(0.5, s1, s3)
        eigs = np.linalg.eigvalsh(mixed.effect(1))
        expected = np.array([(1 - 1 / np.sqrt(2)) / 2, (1 + 1 / np.sqrt(2)) / 2])
        assert np.allclose(np.sort(eigs), expected)
        assert not is_sharp(mixed)

    def test_label_mismatch(self, spin_trio):
        s1 = spin_trio[0]
        other = relabel(s1, ("a", "b"))
        with pytest.raises(ValidationError, match="labels"):
            mix(0.5, s1, other)

    def test_weight_range(self, spin_trio):
        with pytest.raises(ValidationError):
            mix(1.5, spin_trio[0], spin_trio[1])


class TestPostProcess:
    def test_identity_kernel(self, spin_trio):
        s3 = spin_trio[2]
        out = post_process(s3, make_kernel(np.eye(2)), labels=s3.outcomes)
        assert observable_distance(out, s3) <= 1e-15

    def test_all_ones_column(self, spin_trio):
        out = post_process(spin_trio[0], make_kernel([[1.0], [1.0]]))
        assert len(out) == 1
        assert np.allclose(out.effects[0], np.eye(2))

    def test_row_count_mismatch(self, spin_trio):
        with pytest.raises(DimensionError):
            post_process(spin_trio[0], make_kernel(np.eye(3)))

    def test_composition_is_kernel_product(self, rng):
        obs = random_observable(3, 4, 7)
        for _ in range(5):
            k1 = make_kernel(rng.dirichlet(np.ones(3), size=4))
            k2 = make_kernel(rng.dirichlet(np.ones(5), size=3))
            two_step = post_process(post_process(obs, k1), k2)
            combined = post_process(obs, make_kernel(k1.weights @ k2.weights))
            assert observable_distance(two_step, combined) <= 1e-12

    def test_kernel_validation(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            make_kernel([[0.5, 0.4], [1.0, 0.0]])
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            make_kernel([[1.5, -0.5], [1.0, 0.0]])


class TestSpinObservable:
    def test_z_axis(self):
        s3 = spin_observable((0, 0, 1))
        assert np.allclose(s3.effect(1), np.diag([1, 0]))
        assert np.allclose(s3.effect(2), np.diag([0, 1]))

    def test_effects_are_rank_one_projections(self, rng):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        obs = spin_observable(v)
        for eff in obs.effects:
            assert is_projection(eff)
            assert abs(np.trace(eff).real - 1) <= 1e-12

    def test_antipodal_axis_swaps_outcomes(self, rng):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        a, b = spin_observable(v), spin_observable(-v)
        assert np.linalg.norm(a.effect(1) - b.effect(2)) <= 1e-12
        assert np.linalg.norm(a.effect(2) - b.effect(1)) <= 1e-12

    def test_non_unit_axis(self):
        with pytest.raises(ValidationError):
            spin_observable((1, 1, 0))


class TestNaimark:
    def test_trivial_dilation(self, spin_trio):
        s3 = spin_trio[2]
        result = naimark_check(s3, s3, np.eye(2))
        assert result["holds"]
        assert result["commutant_residual"] <= 1e-12

    def test_canonical_dilation_reconstructs(self):
        for seed in range(5):
            obs = random_observable(2, 3, seed)
            a, w = naimark_dilation(obs)
            result = naimark_check(obs, a, w)
            assert result["holds"]
            # fuzzy observable: the dilation cannot commute with the range projection
            assert result["commutant_residual"] > 1e-3

    def test_sharp_observable_commutant_vanishes(self):
        for seed in range(5):
            obs = random_sharp_observable(4, 3, seed)
            a, w = naimark_dilation(obs)
            result = naimark_check(obs, a, w)
            assert result["holds"]
            assert result["commutant_residual"] <= 1e-10

    def test_non_isometry_rejected(self, spin_trio):
        with pytest.raises(ValidationError, match="isometry"):
            naimark_check(spin_trio[2], spin_trio[2], 2 * np.eye(2))


class TestRandomObservables:
    def test_sharp_generator(self):
        obs = random_sharp_observable(4, 4, 3)
        assert is_sharp(obs)
        again = random_sharp_observable(4, 4, 3)
        assert observable_distance(obs, again) == 0.0

    def test_too_many_outcomes(self):
        with pytest.raises(ValidationError, match="at most"):
            random_sharp_observable(2, 3, 0)

    def test_generated_observables_normalized(self):
        for seed in range(20):
            for obs in (random_sharp_observable(3, 2, seed), random_observable(3, 4, seed)):
                total = sum(obs.effects)
                assert np.linalg.norm(total - np.eye(3)) <= 1e-12
                for eff in obs.effects:
                    assert np.linalg.eigvalsh(eff).min() >= -1e-12


class TestObservableDistance:
    def test_alignment_by_label(self, spin_trio):
        s3 = spin_trio[2]
        swapped = make_observable(2, (2, 1), [s3.effect(2), s3.effect(1)])
        assert observable_distance(s3, swapped) <= 1e-15

    def test_label_set_mismatch(self, spin_trio):
        with pytest.raises(ValidationError):
            observable_distance(spin_trio[0], relabel(spin_trio[0], ("a", "b")))

    def test_dim_mismatch(self, spin_trio):
        qutrit = make_observable(3, (1, 2), [np.eye(3) / 2, np.eye(3) / 2])
        with pytest.raises(DimensionError):
            observable_distance(spin_trio[0], qutrit)
