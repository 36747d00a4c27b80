import tracemalloc
import warnings

import numpy as np
import pytest

from qmultimeter import DimensionError, PAULI, ValidationError, observables
from qmultimeter.observables import (
    Observable,
    is_extreme,
    is_sharp,
    make_kernel,
    make_observable,
    observable_distance,
    post_process,
    sharpness_residual,
    spin_observable,
)
from qmultimeter.operators import frobenius_norm, haar_unitary, projector
from textbook import (
    is_projection,
    mix,
    naimark_check,
    naimark_dilation,
    product_residual,
    random_observable,
    random_sharp_observable,
)


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
        with pytest.raises(KeyError, match="no outcome '0'"):
            obs.effect("0")

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

    @pytest.mark.parametrize("norm", [1 + 1e-7, 1 - 1e-7])
    def test_spin_axis_within_tolerance_is_normalised(self, norm):
        # an axis the norm check accepts gives a sharp observable, never a
        # refused effect (1 + 1e-7) or an unsharp one (1 - 1e-7)
        for axis in [(norm, 0.0, 0.0), norm * np.array([0.6, 0.0, 0.8])]:
            spin = spin_observable(axis)
            assert is_sharp(spin)
            assert sharpness_residual(spin) <= 1e-15

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
        other = make_observable(2, ("a", "b"), s1.effects)
        with pytest.raises(ValueError, match="labels"):
            mix(0.5, s1, other)

    def test_weight_range(self, spin_trio):
        with pytest.raises(ValueError):
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

    @pytest.mark.parametrize("weights", [np.zeros((0, 2)), np.zeros((2, 0)), [[]], [1.0, 0.0]],
                             ids=["no-rows", "no-columns", "empty-row", "vector"])
    def test_kernel_weights_must_be_a_nonempty_matrix(self, weights):
        with pytest.raises(DimensionError, match="nonempty matrix"):
            make_kernel(weights)


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
        with pytest.raises(ValueError, match="isometry"):
            naimark_check(spin_trio[2], spin_trio[2], 2 * np.eye(2))


class TestRandomObservables:
    def test_sharp_generator(self):
        obs = random_sharp_observable(4, 4, 3)
        assert is_sharp(obs)
        again = random_sharp_observable(4, 4, 3)
        assert observable_distance(obs, again) == 0.0

    def test_too_many_outcomes(self):
        with pytest.raises(ValueError, match="at most"):
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
            observable_distance(spin_trio[0], make_observable(2, ("a", "b"), spin_trio[0].effects))

    def test_dim_mismatch(self, spin_trio):
        qutrit = make_observable(3, (1, 2), [np.eye(3) / 2, np.eye(3) / 2])
        with pytest.raises(DimensionError):
            observable_distance(spin_trio[0], qutrit)


def per_effect_observable(dim, labels, effects, tol):
    """Effects validated one at a time, as make_observable once did: the reference for its stacked checks."""
    labels = tuple(labels)
    mats = []
    for label, e in zip(labels, effects):
        e = np.array(e, dtype=complex)
        if e.shape != (dim, dim):
            raise DimensionError(f"effect {label!r} has shape {e.shape}, expected {(dim, dim)}")
        norm = float(np.linalg.norm(e))
        if not np.isfinite(norm):
            raise ValidationError(f"effect {label!r} has non-finite entries")
        bound = tol * max(1.0, norm)
        adj = e.conj().T
        if float(np.linalg.norm(e - adj)) > bound:
            raise ValidationError(f"effect {label!r} is not Hermitian")
        h = (e + adj) / 2
        try:
            np.linalg.cholesky(h + bound * np.eye(dim))
        except np.linalg.LinAlgError:
            low = float(np.linalg.eigvalsh(h).min())
            if low < -bound:
                raise ValidationError(f"effect {label!r} has negative eigenvalue {low}")
        mats.append(e)
    residual = float(np.linalg.norm(sum(mats) - np.eye(dim)))
    if residual > tol * max(1.0, float(np.sqrt(dim))):
        raise ValidationError(f"effects do not sum to the identity (residual {residual:.3e})")
    return mats


def build_outcome(build, dim, labels, effects, tol):
    """The effects built, or the class and message of the error raised; a RuntimeWarning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            built = build(dim, labels, effects, tol)
        except (DimensionError, ValidationError) as exc:
            return type(exc), str(exc)
    return list(built.effects) if isinstance(built, Observable) else built


#: Defects given to an effect; "within" and "beyond" sit at its bound times 1 -+ 1e-3.
DEFECTS = (
    "negative-within", "negative-beyond", "skew-within", "skew-beyond", "nan", "inf", "shape",
)


#: The stages of make_observable, by words of their error messages.
STAGES = ("has shape", "non-finite", "not Hermitian", "negative eigenvalue", "identity")


def defective_effects(rng, dim, n, tol):
    """``n`` effects summing to the identity in Hermitian part, about half of the first ``n - 1`` defective.

    The first ``n - 1`` spectra lie in ``[0, 1/(2n)]``, so those effects
    have norm below 1 and the bound ``tol * max(1, ||E||_F)`` is ``tol``.
    The last effect is the identity minus the Hermitian parts of the
    others, positive; in a quarter of the stacks it also shifts the sum
    off the identity by the normalization threshold times 1 -+ 1e-3.
    """
    kinds = [DEFECTS[rng.integers(len(DEFECTS))] if rng.random() < 0.5 else None
             for _ in range(n - 1)]
    effects = []
    for kind in kinds:
        spectrum = rng.uniform(0.0, 0.5 / n, size=dim)
        if kind == "negative-within":
            spectrum[0] = -tol * (1 - 1e-3)
        elif kind == "negative-beyond":
            spectrum[0] = -tol * (1 + 1e-3)
        u = haar_unitary(dim, rng)
        e = (u * spectrum) @ u.conj().T
        effects.append((e + e.conj().T) / 2)
    effects.append(np.eye(dim) - sum(effects))
    if rng.random() < 0.25:
        # the sum misses the identity by its threshold times 1 -+ 1e-3
        scale = 1 + float(rng.choice([-1e-3, 1e-3]))
        effects[-1] = effects[-1] + tol * max(1.0, np.sqrt(dim)) * scale / np.sqrt(dim) * np.eye(dim)
    for i, kind in enumerate(kinds):
        if kind in ("skew-within", "skew-beyond"):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            skew = (g - g.conj().T) / np.linalg.norm(g - g.conj().T)
            scale = 1 - 1e-3 if kind == "skew-within" else 1 + 1e-3
            # ||E - E*||_F = 2 eps = tol * scale
            effects[i] = effects[i] + tol * scale / 2 * skew
        elif kind in ("nan", "inf"):
            effects[i] = effects[i].copy()
            effects[i][rng.integers(dim), rng.integers(dim)] = np.nan if kind == "nan" else np.inf
        elif kind == "shape":
            effects[i] = np.eye(dim + 1) if rng.random() < 0.5 else np.zeros(dim)
    return effects, kinds


def compare_with_per_effect_checks(rng, rounds):
    """Check make_observable against :func:`per_effect_observable` on random stacks; the stages seen.

    Every stage should reject some stack and some should be accepted.
    """
    seen = set()
    for _ in range(rounds):
        dim, n = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        tol = float(rng.choice([1e-9, 1e-7, 1e-5]))
        effects, kinds = defective_effects(rng, dim, n, tol)
        labels = [f"x{i}" for i in range(n)] if rng.random() < 0.5 else range(10, 10 + n)
        if "shape" not in kinds and rng.random() < 0.5:
            effects = np.array(effects)
        expected = build_outcome(per_effect_observable, dim, labels, effects, tol)
        found = build_outcome(make_observable, dim, labels, effects, tol)
        if isinstance(expected, tuple):
            assert found == expected, (kinds, expected)
            seen.update(stage for stage in STAGES if stage in expected[1])
        else:
            assert isinstance(found, list) and len(found) == len(expected), (kinds, found)
            assert all(np.array_equal(a, b) for a, b in zip(found, expected))
            seen.add("accepted")
    return seen


class TestStackedValidation:
    """make_observable decides and reports exactly as a check per effect in label order."""

    def test_matches_per_effect_checks(self, rng):
        assert compare_with_per_effect_checks(rng, 600) == {"accepted", *STAGES}

    @pytest.mark.parametrize("chunk", [1, 20, 50])
    def test_chunked_checks_match_per_effect_checks(self, monkeypatch, rng, chunk):
        # chunks of one effect, or of several and a part of one: the first
        # failing effect, its stage and its message do not move
        monkeypatch.setattr(observables, "_CHECK_CHUNK_ELEMENTS", chunk)
        assert compare_with_per_effect_checks(rng, 300) == {"accepted", *STAGES}

    def test_validation_peak_does_not_grow_with_the_stack(self):
        # 64 x 64 effects: 16 make one chunk, so 64 and 256 of them take 4
        # and 16 chunks; beside the stack, a list of effects is copied into,
        # only arrays of a chunk's size are held
        chunk_bytes = observables._CHECK_CHUNK_ELEMENTS * 16
        d = 64
        above = {}
        for n in (64, 256):
            stack = np.zeros((n, d, d), dtype=complex)
            stack[np.arange(d) % n, np.arange(d), np.arange(d)] = 1.0
            for kind, effects in (("stack", stack), ("list", list(stack))):
                tracemalloc.start()
                try:
                    make_observable(d, range(n), effects)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                # a caller's stack is copied once, after the checks
                above[kind, n] = peak - stack.nbytes
                assert above[kind, n] <= 4 * chunk_bytes, (kind, n)
        for kind in ("stack", "list"):
            assert above[kind, 256] <= above[kind, 64] + chunk_bytes / 8, kind

    def test_completeness_sum_is_chunk_free(self, monkeypatch, rng):
        # the running sum carries across chunks, bit for bit the sum in one cumsum
        effects = rng.normal(size=(40, 3, 3)) + 1j * rng.normal(size=(40, 3, 3))
        residuals = []
        monkeypatch.setattr(
            observables, "frobenius_norm",
            lambda a: residuals.append(frobenius_norm(a)) or residuals[-1],
        )
        for chunk in (2**16, 9, 1, 30):
            monkeypatch.setattr(observables, "_CHECK_CHUNK_ELEMENTS", chunk)
            observables._check_complete(effects, np.inf)
        assert residuals[0] == frobenius_norm(np.cumsum(effects, axis=0)[-1] - np.eye(3))
        assert len(set(residuals)) == 1

    def test_non_finite_effect_after_non_positive_one(self):
        # the earlier non-positive effect is reported, and the NaN meets no arithmetic
        p = np.diag([1.5, -0.5])
        nan = np.diag([np.nan, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=r"^effect 'a' has negative eigenvalue -0\.5$"):
                make_observable(2, "abc", [p, nan, np.eye(2) - p])
            with pytest.raises(ValidationError, match=r"^effect 'b' has non-finite entries$"):
                make_observable(2, "abc", [np.eye(2) / 2, nan, np.eye(2) / 2])
            with pytest.raises(ValidationError, match=r"^effect 'b' has non-finite entries$"):
                make_observable(2, "abc", np.array([np.eye(2) / 2, np.diag([np.inf, 0.5]), np.eye(2) / 2]))

    def test_effects_are_read_only_views_of_one_copy(self):
        effects = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        obs = make_observable(2, (1, 2), effects)
        effects[0, 0, 0] = 5.0
        assert obs.effect(1)[0, 0] == 1.0
        assert all(not e.flags.writeable for e in obs.effects)
        assert obs.effects[0].base is obs.effects[1].base

    def test_validation_holds_two_stack_sized_temporaries(self):
        # 2000 effects of 4 x 4: the checks hold at most two arrays of the
        # stack's size at once (three would reach 3.2 stack sizes); a list
        # is first copied into the stack, which counts once more
        n, d = 2000, 4
        stack = np.zeros((n, d, d), dtype=complex)
        stack[0] = np.diag([1.0, 0, 0, 0])
        stack[1] = np.diag([0, 1.0, 1.0, 1.0])
        for effects, limit in ((stack, 3), (list(stack), 4)):
            tracemalloc.start()
            try:
                make_observable(d, range(n), effects)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit * stack.nbytes
