import copy
import dataclasses
import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import qmultimeter
from qmultimeter import DIMENSION_CAP, DimensionError, PAULI, ValidationError
from qmultimeter.channels import (
    apply,
    channel_distance,
    choi_matrix,
    complete_contraction,
    identity_channel,
    is_unitary_channel,
    make_channel,
    unitary_channel,
)
from qmultimeter.multimeter import (
    INDUCTION_TOL,
    PROBE_CUTOFF,
    _basis_effects,
    _dilation_couplings,
    _program_blocks,
    builtin_multimeter,
    concatenate_with_measurement,
    dimension_bounds,
    induced_channel,
    induced_observable,
    make_model,
    make_multimeter,
    minimal_dilation_multimeter,
    push_button_multimeter,
    shared_pointer_multimeter,
)
from qmultimeter.observables import (
    Observable,
    _basis_supports,
    is_sharp,
    make_kernel,
    make_observable,
    observable_distance,
    post_process,
    spin_observable,
)
from qmultimeter.verify import check_sharp_program_orthogonality
from qmultimeter.operators import (
    check_density_operator,
    embed_factors,
    embed_program_isometry,
    frobenius_norm,
    haar_unitary,
    projector,
    random_state_vector,
    tensor,
    tensor_many,
)

import textbook
from textbook import (
    is_isometry,
    is_projection,
    naimark_check,
    partial_trace,
    random_channel,
    random_density_operator,
    random_observable,
    random_sharp_observable,
)


def padded_sharp(dim, outcomes):
    """Sharp observable with two basis-projector effects and ``outcomes - 2`` zero ones."""
    first = np.diag(np.eye(dim)[0])
    effects = [first, np.eye(dim) - first] + [np.zeros((dim, dim))] * (outcomes - 2)
    return make_observable(dim, range(outcomes), effects)


def traced_peak(call):
    """Peak ``tracemalloc`` bytes of ``call()`` and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def computational_pointer(dim):
    basis = np.eye(dim, dtype=complex)
    return make_observable(
        dim, tuple(range(1, dim + 1)), [projector(basis[i]) for i in range(dim)]
    )


def dense_bundle(devices):
    """Coupling, pointer effects and labels of a push-button bundle, summed term by term."""
    devices = list(devices)
    n = len(devices)
    selector = np.eye(n, dtype=complex)
    if all(isinstance(c, qmultimeter.Channel) for c in devices):
        g = sum(tensor(c.kraus[0], projector(selector[i])) for i, c in enumerate(devices))
        return g, [projector(selector[i]) for i in range(n)], tuple(range(1, n + 1))
    meters = [m for m, _ in devices]
    dims = [meters[0].dim_h] + [m.dim_k for m in meters] + [n]
    g = sum(
        embed_factors(tensor(m.coupling, projector(selector[i])), dims, [0, 1 + i, n + 1])
        for i, m in enumerate(meters)
    )
    combos = list(itertools.product(*[m.pointer.outcomes for m in meters]))
    effects = [
        tensor_many([m.pointer.effect(x) for m, x in zip(meters, combo)] + [np.eye(n)])
        for combo in combos
    ]
    return g, effects, tuple(",".join(str(x) for x in combo) for combo in combos)


def dense_checks(monkeypatch, size):
    """Record which dense checks run on matrices, or stacks of them, with at least ``size`` columns.

    With ``size`` the bundle's apparatus dimension, the parts' own matrices
    are smaller.  The filter reads the matrix size, the last axis, since a
    stacked check takes the number of matrices as its first.
    """
    seen = []

    def spy(name, check):
        def recorded(a, *args, **kwargs):
            if np.shape(a)[-1] >= size:
                seen.append(name)
            return check(a, *args, **kwargs)

        return recorded

    monkeypatch.setattr(np.linalg, "cholesky", spy("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
    # a sharpness check is the stack's projection defects, the only call that asks for E^2 - E
    defect_norms = qmultimeter.observables._defect_norms

    def projection_defects(a, idempotence=False):
        if idempotence and np.shape(a)[-1] >= size:
            seen.append("projection_defects")
        return defect_norms(a, idempotence)

    monkeypatch.setattr(qmultimeter.observables, "_defect_norms", projection_defects)
    # in a build, the dense trace-preservation residual is the only norm channels.py takes
    monkeypatch.setattr(qmultimeter.channels, "frobenius_norm", spy("gram", frobenius_norm))
    return seen


def counted(calls, name, check):
    """``check`` recording ``name`` in ``calls`` at each call."""

    def recorded(*args, **kwargs):
        calls.append(name)
        return check(*args, **kwargs)

    return recorded


def qubit_part(a, scale=0.0, pointer=None, tol=1e-9):
    """Minimal dilation of ``a``, coupling scaled by ``1 + scale``, optionally another pointer."""
    md, probe = minimal_dilation_multimeter(a)
    interaction = make_channel([(1 + scale) * md.coupling], tol)
    return make_multimeter(md.dim_h, md.dim_k, pointer or md.pointer, interaction, tol), probe


def fuzzy_pointer(delta):
    """Two-outcome qubit pointer with projection defect ``sqrt(2) delta (1 - delta)``."""
    return make_observable(2, (1, 2), [np.diag([1 - delta, delta]), np.diag([delta, 1 - delta])])


def merge_kernels():
    return {
        1: make_kernel([[1, 0], [1, 0], [0, 1], [0, 1]]),
        2: make_kernel([[1, 0], [0, 1], [1, 0], [0, 1]]),
        3: make_kernel([[1, 0], [0, 1], [0, 1], [1, 0]]),
    }


class TestModelValidation:
    def test_pointer_dimension_checked(self):
        with pytest.raises(DimensionError):
            make_multimeter(2, 3, computational_pointer(2), identity_channel(6))

    def test_interaction_dimension_checked(self):
        with pytest.raises(DimensionError):
            make_multimeter(2, 2, computational_pointer(2), identity_channel(2))

    def test_probe_dimension_checked(self):
        meter, _ = builtin_multimeter("pauli")
        with pytest.raises(DimensionError):
            make_model(meter, np.array([1.0, 0.0]))

    def test_kernel_rows_checked(self):
        meter, probes = builtin_multimeter("pauli")
        with pytest.raises(DimensionError):
            make_model(meter, probes[0], kernel=make_kernel(np.eye(2)))

    def test_apparatus_lower_bound_enforced(self, spin_trio):
        # no two-slot apparatus can claim a sharp three-outcome measurement
        three = random_sharp_observable(3, 3, 0)
        meter, _ = builtin_multimeter("swap", dim=3)
        probe = np.eye(3, dtype=complex)[0]
        model = make_model(meter, probe, claimed=random_sharp_observable(3, 2, 1))
        assert model.meter.dim_k == 3
        small = make_multimeter(
            3, 2, computational_pointer(2), identity_channel(6)
        )
        with pytest.raises(ValidationError, match="dim K"):
            make_model(small, np.eye(2, dtype=complex)[0], claimed=three)

    def test_normal_flag_uses_the_meter_tolerance(self):
        # ||V*V - I||_F = (2 eps + eps^2) sqrt(d), about 1e-8 sqrt(d): accepted
        # as a channel at 1e-7, unitary at the meter's 1e-7 but not at 1e-9
        swap, _ = builtin_multimeter("swap", dim=2)
        v = (1 + 5e-9) * swap.coupling
        interaction = make_channel([v], tol=1e-7)
        assert 1e-9 * 2 < interaction.tp_residual < 1e-7 * 2
        pointer = computational_pointer(2)
        assert not make_multimeter(2, 2, pointer, interaction, tol=1e-9).normal
        assert make_multimeter(2, 2, pointer, interaction, tol=1e-7).normal

    def test_zero_effects_do_not_count_towards_bound(self):
        padded = make_observable(
            2, (1, 2, 3), [np.diag([1.0, 0]), np.diag([0, 1.0]), np.zeros((2, 2))]
        )
        meter = make_multimeter(2, 2, computational_pointer(2), identity_channel(4))
        make_model(meter, np.eye(2, dtype=complex)[0], claimed=padded)


class TestInducedObservable:
    def test_pauli_coupling_is_the_kronecker_sum(self):
        basis = np.eye(4, dtype=complex)
        kronecker = sum(
            tensor(0.5 * PAULI[j] @ PAULI[k] @ PAULI[j], np.outer(basis[j], basis[k].conj()))
            for j in range(4)
            for k in range(4)
        )
        meter, _ = builtin_multimeter("pauli")
        assert np.array_equal(meter.coupling, kronecker)

    def test_pauli_formula(self):
        meter, probes = builtin_multimeter("pauli")
        for i, phi in enumerate(probes, start=1):
            obs = induced_observable(make_model(meter, phi))
            for j in range(4):
                expected = (np.eye(2) + PAULI[j] @ PAULI[i] @ PAULI[j]) / 4
                assert np.linalg.norm(obs.effect(j) - expected) <= 1e-12

    def test_probe_within_state_tolerance_induces_valid_devices(self):
        # the state checks accept norms and traces within 1e-6 of one
        meter, probes = builtin_multimeter("pauli")
        scaled = make_model(meter, probes[0] * (1 + 5e-7))
        exact = make_model(meter, probes[0])
        assert np.linalg.norm(scaled.probe) == pytest.approx(1.0, abs=1e-15)
        assert observable_distance(induced_observable(scaled), induced_observable(exact)) <= 1e-12
        assert channel_distance(induced_channel(scaled), induced_channel(exact)) <= 1e-12
        heavy = make_model(meter, projector(probes[0]) * (1 + 5e-7))
        assert np.trace(heavy.probe).real == pytest.approx(1.0, abs=1e-15)
        # a density probe with a negative eigenvalue inside the same tolerance
        xi = np.diag([1 + 5e-7, 0, 0, -5e-7]).astype(complex)
        noisy = make_model(meter, xi)
        pure = make_model(meter, np.eye(4, dtype=complex)[0])
        assert observable_distance(induced_observable(noisy), induced_observable(pure)) <= 1e-12
        assert channel_distance(induced_channel(noisy), induced_channel(pure)) <= 1e-12

    def test_identity_interaction_factorizes(self, rng):
        # without coupling the outcome distribution comes from the probe alone
        pointer = computational_pointer(3)
        meter = make_multimeter(2, 3, pointer, identity_channel(6))
        xi = random_density_operator(3, rng, 3)
        obs = induced_observable(make_model(meter, xi))
        for k, eff in zip(pointer.outcomes, pointer.effects):
            prob = np.trace(eff @ xi).real
            assert np.linalg.norm(obs.effect(k) - prob * np.eye(2)) <= 1e-12

    def test_probability_reproducibility(self, rng):
        # defining condition, right side evaluated directly on the dilated space
        meters = [
            builtin_multimeter("pauli"),
            builtin_multimeter("swap", dim=2),
            minimal_dilation_multimeter(spin_observable((0, 0, 1))),
        ]
        for meter, probe_or_probes in [
            (meters[0][0], meters[0][1][0]),
            (meters[1][0], meters[1][1][1]),
            (meters[2][0], meters[2][1]),
        ]:
            probe = probe_or_probes if probe_or_probes.ndim == 1 else probe_or_probes[0]
            model = make_model(meter, probe)
            obs = induced_observable(model)
            xi = projector(probe)
            for _ in range(20):
                rho = random_density_operator(meter.dim_h, rng, meter.dim_h)
                coupled = apply(meter.interaction, tensor(rho, xi))
                for x in obs.outcomes:
                    lhs = np.trace(obs.effect(x) @ rho).real
                    rhs = np.trace(
                        tensor(np.eye(meter.dim_h), meter.pointer.effect(x)) @ coupled
                    ).real
                    assert abs(lhs - rhs) <= 1e-10

    def test_mixed_probe_linearity(self, rng):
        meter, probes = builtin_multimeter("pauli")
        psi1 = random_state_vector(4, rng)
        psi2 = random_state_vector(4, rng)
        psi2 = psi2 - np.vdot(psi1, psi2) * psi1
        psi2 /= np.linalg.norm(psi2)
        lam = 0.3
        xi = lam * projector(psi1) + (1 - lam) * projector(psi2)
        mixed = induced_observable(make_model(meter, xi))
        part1 = induced_observable(make_model(meter, psi1))
        part2 = induced_observable(make_model(meter, psi2))
        for x in mixed.outcomes:
            combo = lam * part1.effect(x) + (1 - lam) * part2.effect(x)
            assert np.linalg.norm(mixed.effect(x) - combo) <= 1e-12

    def test_kernel_equals_smeared_pointer(self, rng):
        # post-processing the statistics is the same measurement as
        # smearing the pointer observable up front
        meter, probes = builtin_multimeter("pauli")
        # a square kernel is not symmetric, so it must be applied by columns
        for cols in (4, 3):
            kernel = make_kernel(rng.dirichlet(np.ones(cols), size=4))
            with_kernel = induced_observable(make_model(meter, probes[0], kernel=kernel))
            smeared = make_multimeter(
                2, 4, post_process(meter.pointer, kernel), meter.interaction
            )
            direct = induced_observable(make_model(smeared, probes[0]))
            assert observable_distance(with_kernel, direct) <= 1e-12

    def test_merge_kernels_recover_spin_observables(self, spin_trio):
        meter, probes = builtin_multimeter("pauli")
        for i, phi in enumerate(probes, start=1):
            model = make_model(meter, phi, kernel=merge_kernels()[i])
            assert observable_distance(induced_observable(model), spin_trio[i - 1]) <= 1e-14


def linalg_calls(monkeypatch, call, names=("cholesky", "eigvalsh", "norm")):
    """Sorted names of the ``np.linalg`` functions ``call()`` calls, once per call, and its result."""
    calls = []
    with monkeypatch.context() as spies:
        for name in names:
            spies.setattr(np.linalg, name, counted(calls, name, getattr(np.linalg, name)))
        result = call()
    return sorted(calls), result


class TestInductionValidationCalls:
    def test_dense_check_calls_do_not_grow_with_outcomes(self, monkeypatch):
        # (parts, dim, outcomes) = (2, 2, 2) induces 4 effects and 8 pointer
        # rows, (3, 4, 4) 64 and 192; a check per effect or row would multiply
        # its calls by 16 or 24.  A selector reaches d rows, the nonzero Kraus
        # operators of its Lueders channel, and the channel keeps only those.
        counts = {}
        for n, d in ((2, 2), (3, 4)):
            parts = [
                minimal_dilation_multimeter(random_sharp_observable(d, d, 10 * d + s))
                for s in range(n)
            ]
            meter, probes = push_button_multimeter(parts)
            model = make_model(meter, probes[0])
            for induce in (induced_observable, induced_channel):
                calls, device = linalg_calls(monkeypatch, lambda: induce(model))
                assert len(device) == (d**n if induce is induced_observable else d)
                counts[n, d, induce] = calls
        for induce in (induced_observable, induced_channel):
            assert counts[2, 2, induce] == counts[3, 4, induce]
        # the induced effects are Gram sums through the pointer's marks: no spectral check
        assert not {"cholesky", "eigvalsh"} & set(counts[3, 4, induced_observable])
        assert "norm" in counts[3, 4, induced_channel]

    @pytest.mark.parametrize("construct", ["spin_pair", "concatenation"])
    def test_pointer_without_marks_is_validated(self, monkeypatch, spin_trio, construct):
        # a spin_pair meter's pointer is its first observable, here sigma_x
        meter, probes = builtin_multimeter("spin_pair", observables=spin_trio[:2])
        probe = probes[1]
        if construct == "concatenation":
            channels, selectors = push_button_multimeter(
                [unitary_channel(np.eye(2)), unitary_channel(PAULI[1])]
            )
            meter = concatenate_with_measurement(channels, make_model(meter, probe))
            probe = np.kron(selectors[1], probe)
        assert meter.pointer._marks is None
        calls, _ = linalg_calls(monkeypatch, lambda: induced_observable(make_model(meter, probe)))
        assert "cholesky" in calls


class TestTrustedInduction:
    """Effects induced through a pointer's marks are Gram sums; only completeness is checked."""

    def test_loose_coupling_still_checked_for_completeness(self, spin_trio):
        # the coupling passes make_channel at tol 1e-3, but its induced effects
        # sum to (1 + 1e-5)^2 I, far outside INDUCTION_TOL
        meter, probe = qubit_part(spin_trio[2], scale=1e-5, tol=1e-3)
        assert meter.pointer._marks is not None
        for kernel in (None, make_kernel([[0.5, 0.5], [0.0, 1.0]])):
            with pytest.raises(ValidationError, match="effects do not sum to the identity"):
                induced_observable(make_model(meter, probe, kernel=kernel))

    def test_non_finite_residual_raises(self):
        stack = np.array([np.eye(2), np.full((2, 2), np.nan)], dtype=complex)
        with pytest.raises(ValidationError, match="effects do not sum to the identity"):
            Observable._from_gram_sums(2, (1, 2), stack, 1e-7)

    def test_loose_dense_pointer_still_checked_for_positivity(self):
        # valid at tol 1e-3 with eigenvalue -5e-4; on K = C^2 the identity
        # coupling and probe e_0 induce Z(x)[0, 0] I, so E(2) = -5e-4 I
        low = -5e-4
        pointer = make_observable(
            2, (1, 2), [np.diag([1 - low, low]), np.diag([low, 1 - low])], tol=1e-3
        )
        assert pointer._marks is None
        meter = make_multimeter(2, 2, pointer, make_channel([np.eye(4)]), tol=1e-3)
        with pytest.raises(ValidationError, match="effect 2 has negative eigenvalue"):
            induced_observable(make_model(meter, np.eye(2)[0]))

    @pytest.mark.parametrize("low", [0.0, -1e-9])
    def test_kernel_below_zero_stays_within_its_bound(self, monkeypatch, spin_trio, low):
        # make_kernel accepts weights down to -1e-9; smearing Gram sums that add
        # up to I lowers an eigenvalue by at most that, far within INDUCTION_TOL,
        # so no kernel sends a marks-path induction to make_observable
        meter, probe = minimal_dilation_multimeter(spin_trio[2])
        kernel = make_kernel([[1 - low, low], [0.0, 1.0]])
        calls = []
        monkeypatch.setattr(
            qmultimeter.multimeter,
            "make_observable",
            counted(calls, "make_observable", qmultimeter.multimeter.make_observable),
        )
        induced = induced_observable(make_model(meter, probe, kernel=kernel))
        assert calls == []
        # E'(1) = (1 - low) P0 and E'(2) = low P0 + P1 for spin z
        least = np.linalg.eigvalsh(induced.effects).min()
        assert abs(least - low) <= 1e-15
        validated = make_observable(2, induced.outcomes, induced.effects, tol=INDUCTION_TOL)
        assert np.array_equal(validated.effects, induced.effects)

    @pytest.mark.parametrize(
        "dim_h, dim_k, kraus, rank", [(2, 2, 1, 1), (3, 16, 2, 3), (2, 64, 1, 1), (4, 64, 2, 2)]
    )
    def test_gram_sums_positive_to_rounding(self, rng, dim_h, dim_k, kraus, rank):
        # the bound stated at INDUCTION_TOL: lambda_min >= -n eps tr(M*M), n the
        # rows summed per slot plus the slots summed per effect
        n = dim_h * dim_k
        for trial in range(3):
            scales = rng.dirichlet(np.ones(kraus))
            noise = rng.normal(size=(kraus, n, n)) + 1j * rng.normal(size=(kraus, n, n))
            ops = np.sqrt(scales)[:, None, None] * haar_unitary(n, rng, (kraus,))
            ops = ops + 4e-10 * noise / np.linalg.norm(noise)
            channel = make_channel(ops, tol=1e-6)
            assert 1e-12 < channel.tp_residual <= 1e-9
            meter = make_multimeter(dim_h, dim_k, computational_pointer(dim_k), channel)
            probe = textbook.random_density_operator(dim_k, rng, rank) if rank > 1 else (
                random_state_vector(dim_k, rng))
            model = make_model(meter, probe)
            m = _program_blocks(meter, model._components).reshape(-1, dim_k, dim_h)
            outcomes = rng.integers(0, 4, size=dim_k)
            marks = np.arange(4)[:, None] == outcomes[None, :]
            effects = _basis_effects(m, marks)
            rounding = (len(m) + dim_k) * np.finfo(float).eps * np.linalg.norm(m) ** 2
            assert rounding < 1e-7
            lows = np.linalg.eigvalsh((effects + effects.conj().swapaxes(1, 2)) / 2)[:, 0]
            assert lows.min() >= -rounding, (trial, lows.min(), rounding)


class TestInducedChannel:
    def test_product_coupling_programs_unitary_for_any_probe(self, rng):
        u = haar_unitary(2, rng)
        for dim_k in (1, 3):
            pointer = computational_pointer(dim_k)
            meter = make_multimeter(
                2, dim_k, pointer, make_channel([tensor(u, np.eye(dim_k))])
            )
            probe = random_state_vector(dim_k, rng)
            induced = induced_channel(make_model(meter, probe))
            assert channel_distance(induced, unitary_channel(u)) <= 1e-12

    def test_minimal_apparatus_for_unitaries_is_one(self, rng):
        # a single-slot apparatus suffices to induce a unitary channel
        u = haar_unitary(3, rng)
        pointer = make_observable(1, ("go",), [np.eye(1)])
        meter = make_multimeter(3, 1, pointer, make_channel([tensor(u, np.eye(1))]))
        assert meter.dim_k == 1
        induced = induced_channel(make_model(meter, np.array([1.0])))
        assert channel_distance(induced, unitary_channel(u)) <= 1e-12

    def test_swap_programs_contractions(self, rng):
        meter, _ = builtin_multimeter("swap", dim=3)
        phi = random_state_vector(3, rng)
        induced = induced_channel(make_model(meter, phi))
        assert channel_distance(induced, complete_contraction(phi)) <= 1e-12

    def test_observable_channel_duality(self, rng):
        # joint statistics factor consistently through both induced devices
        meter, probes = builtin_multimeter("pauli")
        model = make_model(meter, probes[0])
        obs = induced_observable(model)
        xi = projector(probes[0])
        for _ in range(10):
            rho = random_density_operator(2, rng, 2)
            coupled = apply(meter.interaction, tensor(rho, xi))
            for x in obs.outcomes:
                lhs = np.trace(obs.effect(x) @ rho).real
                rhs = np.trace(tensor(np.eye(2), meter.pointer.effect(x)) @ coupled).real
                assert abs(lhs - rhs) <= 1e-12
        reduced = partial_trace(apply(meter.interaction, tensor(rho, xi)), 2, 4, "K")
        assert np.linalg.norm(
            reduced - apply(induced_channel(model), rho)
        ) <= 1e-12

    def test_mixed_probe_channel(self, rng):
        meter, _ = builtin_multimeter("swap", dim=2)
        xi = random_density_operator(2, rng, 2)
        induced = induced_channel(make_model(meter, xi))
        rho = random_density_operator(2, rng, 2)
        # swapping moves the probe state onto the system
        assert np.linalg.norm(apply(induced, rho) - xi) <= 1e-12


class TestMinimalDilation:
    def test_spin_z(self, spin_trio):
        s3 = spin_trio[2]
        meter, probe = minimal_dilation_multimeter(s3)
        assert meter.dim_k == 2 and meter.normal
        obs = induced_observable(make_model(meter, probe))
        assert observable_distance(obs, s3) <= 1e-12

    def test_random_sharp_family(self):
        for seed in range(8):
            d = 2 + seed % 4
            n = min(d, 2 + seed % 4)
            a = random_sharp_observable(d, n, seed)
            meter, probe = minimal_dilation_multimeter(a)
            assert meter.dim_k == n
            g = meter.coupling
            assert np.linalg.norm(g.conj().T @ g - np.eye(d * n)) <= 1e-12
            obs = induced_observable(make_model(meter, probe))
            assert observable_distance(obs, a) <= 1e-12

    def test_single_outcome(self):
        trivial = make_observable(3, ("only",), [np.eye(3)])
        meter, probe = minimal_dilation_multimeter(trivial)
        assert meter.dim_k == 1
        assert np.allclose(meter.coupling, np.eye(3))

    def test_requires_sharp(self):
        fuzzy = make_observable(2, (1, 2), [np.eye(2) / 2, np.eye(2) / 2])
        with pytest.raises(ValidationError, match="sharp"):
            minimal_dilation_multimeter(fuzzy)

    def test_coupling_is_kronecker_sum(self):
        # more outcomes than dimensions, so some effects are zero
        a = make_observable(
            3, range(5), list(random_sharp_observable(3, 3, 2).effects) + [np.zeros((3, 3))] * 2
        )
        expected = 0
        for j, effect in enumerate(a.effects):
            swap = np.eye(5)
            swap[[0, j]] = swap[[j, 0]]
            expected = expected + np.kron(effect, swap)
        assert np.array_equal(minimal_dilation_multimeter(a)[0].coupling, expected)

    def test_coupling_holds_no_transposition_stack(self):
        # 300 transpositions of dimension 300 would hold 432 MB
        effects = np.stack(padded_sharp(2, 300).effects)
        peak, g = traced_peak(lambda: _dilation_couplings(effects, 300))
        assert g.shape == (600, 600)
        assert peak < 2 * g.nbytes

    @pytest.mark.parametrize(
        "dim, outcomes, message",
        [
            # dim H * dim K = 8000; the pointer would hold 2000**3 entries (128 GB)
            (4, 2000, "bundle dimension 8000 exceeds dimension cap 4096"),
            # dim H * dim K = 4096 is within the cap, a pointer of 2048**3 entries is not
            (2, 2048, "bundle pointer of 2048 effects on dimension 2048 exceeds"),
            # 241**3 pointer entries are within the cap, dim H * dim K = 4097 is not
            (17, 241, "bundle dimension 4097 exceeds dimension cap 4096"),
        ],
    )
    def test_capped_before_it_allocates(self, dim, outcomes, message):
        a = padded_sharp(dim, outcomes)

        def build():
            with pytest.raises(DimensionError, match=message):
                minimal_dilation_multimeter(a)

        # an over-cap coupling alone holds at least 4097**2 complex entries (256 MiB)
        assert traced_peak(build)[0] < 2**23


class TestPushButton:
    def test_channel_mode_recovers_each(self, rng):
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        devices = [
            identity_channel(2),
            unitary_channel(PAULI[1]),
            unitary_channel(hadamard),
        ]
        meter, probes = push_button_multimeter(devices)
        assert meter.dim_k == 3 and meter.normal
        gram = np.array([[np.vdot(a, b) for b in probes] for a in probes])
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-12
        for device, probe in zip(devices, probes):
            induced = induced_channel(make_model(meter, probe))
            assert channel_distance(induced, device) <= 1e-12

    def test_mixed_program_gives_convex_mixture(self, rng):
        devices = [identity_channel(2), unitary_channel(PAULI[1])]
        meter, probes = push_button_multimeter(devices)
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        psi = c[0] * probes[0] + c[1] * probes[1]
        induced = induced_channel(make_model(meter, psi))
        target = sum(abs(ci) ** 2 * choi_matrix(d) for ci, d in zip(c, devices))
        assert np.linalg.norm(choi_matrix(induced) - target) <= 1e-12

    def test_channel_mode_rejects_non_unitary(self, rng):
        phi = random_state_vector(2, rng)
        with pytest.raises(ValidationError, match="unitary"):
            push_button_multimeter([identity_channel(2), complete_contraction(phi)])

    def test_observable_mode_recovers_marginals(self, spin_trio):
        s1, _, s3 = spin_trio
        devices = [minimal_dilation_multimeter(s1), minimal_dilation_multimeter(s3)]
        meter, probes = push_button_multimeter(devices)
        assert meter.dim_k == 2 * 2 * 2
        for i, (phi, target) in enumerate(zip(probes, (s1, s3))):
            obs = induced_observable(make_model(meter, phi))
            weights = np.zeros((len(obs), len(target)))
            for r, label in enumerate(obs.outcomes):
                component = label.split(",")[i]
                weights[r, target.outcomes.index(int(component))] = 1.0
            marginal = post_process(obs, make_kernel(weights), labels=target.outcomes)
            assert observable_distance(marginal, target) <= 1e-12


    def test_observable_mode_validates_without_spectra(self, monkeypatch):
        # unitarity comes from the residuals make_channel stored, the
        # bundle's coupling residual is written from its parts', and its
        # pointer is written from the parts' supports, so no dense check
        # runs at bundle size
        def forbidden(*args, **kwargs):
            raise AssertionError("second unitarity product or spectrum computed")

        # no spectrum of any size; the spy below wraps the prohibition
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        for d in (3, 4):
            observables = [random_sharp_observable(d, d, seed) for seed in (1, 2, 3)]
            devices = [minimal_dilation_multimeter(a) for a in observables]
            with monkeypatch.context() as spies:
                seen = dense_checks(spies, 3 * d**3)
                meter, probes = push_button_multimeter(devices)
            assert seen == []
            assert meter.normal and meter.dim_k == 3 * d**3 and len(probes) == 3

    def test_probe_dimension_checked_at_build(self, spin_trio):
        meter, _ = minimal_dilation_multimeter(spin_trio[2])
        with pytest.raises(DimensionError, match="probe 1 has dimension 4, expected 2"):
            push_button_multimeter(
                [minimal_dilation_multimeter(spin_trio[0]), (meter, np.eye(4)[0])]
            )

    @pytest.mark.parametrize(
        "devices",
        [
            lambda: [
                minimal_dilation_multimeter(spin_observable(a)) for a in ((1, 0, 0), (0, 0, 1))
            ],
            lambda: [minimal_dilation_multimeter(random_sharp_observable(2, 2, s)) for s in (1, 2)],
            lambda: [identity_channel(2), unitary_channel(PAULI[1]), unitary_channel(PAULI[3])],
            lambda: [unitary_channel(haar_unitary(3, np.random.default_rng(s))) for s in range(4)],
            *(
                lambda n=n, d=d: [
                    minimal_dilation_multimeter(random_sharp_observable(d, d, 10 * d + s))
                    for s in range(n)
                ]
                for n, d in ((2, 2), (3, 2), (3, 3), (3, 4))
            ),
            # a spin_pair meter's pointer is no basis projector: the dense branch
            lambda: [spin_z_part(), spin_pair_part()],
        ],
        ids=["spin-pair", "random-qubits", "pauli-channels", "qutrit-channels",
             "bench-2-2-2", "bench-3-2-2", "bench-3-3-3", "bench-3-4-4", "non-basis-part"],
    )
    def test_bundle_equals_dense_construction(self, devices):
        devices = devices()
        meter, probes = push_button_multimeter(devices)
        g, effects, labels = dense_bundle(devices)
        assert np.array_equal(meter.coupling, g)
        assert meter.pointer.outcomes == labels
        assert all(np.array_equal(a, b) for a, b in zip(meter.pointer.effects, effects))
        residual = frobenius_norm(g.conj().T @ g - np.eye(len(g)))
        assert abs(meter.interaction.tp_residual - residual) <= 1e-13
        assert meter.normal == (is_isometry(g) and all(is_projection(e) for e in effects))
        if isinstance(devices[0], tuple):
            n = len(devices)
            expected = [
                tensor_many([p.reshape(-1, 1) for _, p in devices] + [np.eye(n)[:, [i]]])
                for i in range(n)
            ]
            assert all(np.array_equal(a, b.reshape(-1)) for a, b in zip(probes, expected))

    @pytest.mark.parametrize(
        "scale, tol, outcome",
        # part residual 4 * scale: far below the bundle threshold, at 0.9 of
        # the part's own threshold, and above the bundle threshold for a part
        # validated at a looser tolerance; the parts' residuals decide each
        [(2.5e-11, 1e-9, "accepted"), (4.5e-10, 1e-9, "accepted"), (2.5e-9, 1e-8, "raises")],
    )
    def test_coupling_residual_from_parts(self, monkeypatch, spin_trio, scale, tol, outcome):
        three = make_observable(
            2, (1, 2, 3), [np.diag([1.0, 0]), np.diag([0, 1.0]), np.zeros((2, 2))]
        )
        devices = [qubit_part(spin_trio[2], scale, tol=tol), qubit_part(three)]
        # dim K = 2 * 3 * 2: the first part's block repeats m_1 = 3 times
        seen = dense_checks(monkeypatch, 12)
        if outcome == "raises":
            with pytest.raises(ValidationError, match="trace-preserving"):
                push_button_multimeter(devices)
            assert seen == []
            return
        meter, _ = push_button_multimeter(devices)
        assert seen == []
        g = meter.coupling
        residual = frobenius_norm(g.conj().T @ g - np.eye(len(g)))
        assert residual == pytest.approx(np.sqrt(3) * devices[0][0].interaction.tp_residual)
        assert abs(meter.interaction.tp_residual - residual) <= 1e-13
        assert meter.normal

    def test_channel_coupling_residual_from_parts(self, monkeypatch):
        devices = [unitary_channel((1 + 1e-11 * (i + 1)) * PAULI[i]) for i in range(4)]
        seen = dense_checks(monkeypatch, 8)
        meter, _ = push_button_multimeter(devices)
        assert seen == []
        g = meter.coupling
        residual = frobenius_norm(g.conj().T @ g - np.eye(8))
        assert abs(meter.interaction.tp_residual - residual) <= 1e-13
        assert residual > 1e-11

    def test_bundle_of_bundles_residual_from_parts(self, monkeypatch):
        # random sharp parts have nonzero residuals; the outer coupling's
        # residual is written from the inner ones, themselves from theirs
        inner = [
            push_button_multimeter(
                [minimal_dilation_multimeter(random_sharp_observable(2, 2, s)) for s in seeds]
            )
            for seeds in ((1, 2), (3, 4))
        ]
        assert all(m.interaction.tp_residual > 0 for m, _ in inner)
        with monkeypatch.context() as spies:
            seen = dense_checks(spies, 8 * 8 * 2)
            meter, probes = push_button_multimeter([(m, p[i]) for i, (m, p) in enumerate(inner)])
        assert seen == []
        assert meter.normal and meter.dim_k == 128 and len(probes) == 2
        g = meter.coupling
        residual = frobenius_norm(g.conj().T @ g - np.eye(len(g)))
        assert abs(meter.interaction.tp_residual - residual) <= 1e-13
        # each inner block repeats m_i = 8 times: without it the sum is 3x smaller
        assert meter.interaction.tp_residual == pytest.approx(residual, rel=0.1, abs=0)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_pointer_certificate_bounds_every_factor(self, spin_trio, position):
        # one fuzzy factor in any position leaves the pointer within the
        # sharpness tolerance, and the dense check decides so
        pointers = [None] * 3
        pointers[position] = fuzzy_pointer(1e-10)
        devices = [qubit_part(a, pointer=z) for a, z in zip(spin_trio, pointers)]
        meter, _ = push_button_multimeter(devices)
        assert meter.normal and meter.pointer._marks is None
        for eff in meter.pointer.effects:
            assert frobenius_norm(eff @ eff - eff) > 1e-10 and is_projection(eff)

    @pytest.mark.parametrize("delta, normal", [(3e-10, True), (5e-10, False)])
    def test_pointer_fallback_near_tolerance(self, monkeypatch, spin_trio, delta, normal):
        # the bound 4 delta misses half the threshold sqrt(2) 1e-9; the dense
        # defect sqrt(12) delta decides sharpness, as without a certificate
        devices = [qubit_part(a, pointer=fuzzy_pointer(delta)) for a in spin_trio[:2]]
        assert all(m.normal for m, _ in devices)
        seen = dense_checks(monkeypatch, 2**2 * 2)
        meter, _ = push_button_multimeter(devices)
        assert {"cholesky", "projection_defects"} <= set(seen)
        assert meter.normal is normal
        assert normal == all(is_projection(e) for e in meter.pointer.effects)

    def test_pointer_hermitian_defect_checked_densely(self, spin_trio):
        # each part's effects are within the Hermitian tolerance, their
        # tensor products are not: the dense check rejects the bundle
        j = np.array([[0, 1], [-1, 0]], dtype=complex)
        eta = 3e-10
        pointer = make_observable(
            2, (1, 2), [np.diag([1.0, 0]) + eta * j, np.diag([0, 1.0]) - eta * j]
        )
        devices = [qubit_part(a, pointer=pointer) for a in spin_trio[:2]]
        assert all(m.normal for m, _ in devices)
        with pytest.raises(ValidationError, match="not Hermitian"):
            push_button_multimeter(devices)

    @pytest.mark.parametrize("tol", [0.0, 1e-17, 1e-16, 1e-13, 1e-9])
    def test_bundle_normal_matches_dense_near_zero_tolerance(self, monkeypatch, spin_trio, tol):
        # the Kronecker products of exactly idempotent factors are not
        # exactly idempotent, so the joint pointer's dense check decides
        # sharpness; down to tol = 0 the verdict is the dense checks' one
        v = np.array([np.cos(7 * np.pi / 80), np.sin(7 * np.pi / 80)])
        f = np.outer(v, v)
        devices = [
            qubit_part(a, pointer=make_observable(2, (1, 2), [f, np.eye(2) - f]))
            for a in spin_trio[:2]
        ]
        bundle, _ = push_button_multimeter(devices)
        assert not all(is_projection(e, 0.0) for e in bundle.pointer.effects)
        g = bundle.coupling
        dense_unitary = frobenius_norm(g.conj().T @ g - np.eye(len(g))) <= tol * np.sqrt(len(g))
        dense_sharp = all(is_projection(e, tol) for e in bundle.pointer.effects)
        assert is_sharp(bundle.pointer, tol) == dense_sharp
        seen = dense_checks(monkeypatch, len(g))
        meter = make_multimeter(bundle.dim_h, bundle.dim_k, bundle.pointer, bundle.interaction, tol)
        assert "gram" not in seen
        assert meter.normal == (dense_unitary and dense_sharp)

    @pytest.mark.parametrize(
        "devices",
        [
            # 7 qubit parts: dim H * dim K = 1792 is within the cap, but the
            # pointer would hold 2**7 * 896**2 complex entries (1.6 GiB)
            lambda: [minimal_dilation_multimeter(spin_observable((0, 0, 1)))] * 7,
            # 646 channels: 646**3 entries (4.3 GiB)
            lambda: [identity_channel(1)] * 646,
        ],
        ids=["seven-qubit-parts", "646-channels"],
    )
    def test_pointer_capped_before_it_allocates(self, devices):
        devices = devices()
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match="bundle pointer of .* exceeds 16777216"):
                push_button_multimeter(devices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_colliding_joint_labels_rejected(self):
        # "x,y" + "z" and "x" + "y,z" both join to "x,y,z"
        parts = [
            minimal_dilation_multimeter(
                make_observable(2, labels, [np.diag([1.0, 0]), np.diag([0, 1.0])])
            )
            for labels in (("x,y", "x"), ("z", "y,z"))
        ]
        with pytest.raises(ValidationError, match="outcome labels are not unique"):
            push_button_multimeter(parts)


class TestSharedPointer:
    def test_spin_trio(self, spin_trio):
        meter, probes = shared_pointer_multimeter(spin_trio)
        assert meter.dim_k == 6 and meter.normal
        for probe, target in zip(probes, spin_trio):
            obs = induced_observable(make_model(meter, probe))
            assert observable_distance(obs, target) <= 1e-12

    def test_single_observable_matches_minimal_size(self, spin_trio):
        meter, probes = shared_pointer_multimeter([spin_trio[0]])
        assert meter.dim_k == 2  # N * 1
        obs = induced_observable(make_model(meter, probes[0]))
        assert observable_distance(obs, spin_trio[0]) <= 1e-12

    def test_padding_with_zero_effects(self):
        a2 = random_sharp_observable(3, 2, 4)
        a3 = random_sharp_observable(3, 3, 5)
        meter, probes = shared_pointer_multimeter([a2, a3])
        assert meter.dim_k == 2 * 3
        obs2 = induced_observable(make_model(meter, probes[0]))
        # first two pointer outcomes carry the observable, the third is dead
        for idx, label in enumerate(a2.outcomes, start=1):
            assert np.linalg.norm(obs2.effect(idx) - a2.effect(label)) <= 1e-12
        assert np.linalg.norm(obs2.effect(3)) <= 1e-12

    def test_dimension_mismatch_rejected(self, spin_trio):
        qutrit = random_sharp_observable(3, 3, 6)
        with pytest.raises(DimensionError):
            shared_pointer_multimeter([spin_trio[2], qutrit])

    def test_requires_sharp(self, spin_trio):
        fuzzy = make_observable(2, (1, 2), [np.eye(2) / 2, np.eye(2) / 2])
        with pytest.raises(ValidationError, match="sharp"):
            shared_pointer_multimeter([spin_trio[0], fuzzy])

    @pytest.mark.parametrize(
        "observables, message",
        [
            # dim H * dim K = 2 * 2 * 1025
            (lambda: [spin_observable((1, 0, 0))] * 1025, "bundle dimension 4100 exceeds"),
            # dim H * dim K = 4096, but the pointer would hold 2 * 4096**2 entries
            (lambda: [padded_sharp(1, 2)] * 2048, "bundle pointer of 2 effects on dimension 4096"),
        ],
        ids=["spin-references", "one-dimensional"],
    )
    def test_capped_before_it_allocates(self, observables, message):
        observables = observables()

        def build():
            with pytest.raises(DimensionError, match=message):
                shared_pointer_multimeter(observables)

        assert traced_peak(build)[0] < 2**20


class TestConcatenation:
    def test_programs_conjugated_observables(self, spin_trio):
        s3 = spin_trio[2]
        chan_meter, chan_probes = push_button_multimeter(
            [identity_channel(2), unitary_channel(PAULI[1])]
        )
        a_meter, a_probe = minimal_dilation_multimeter(s3)
        composite = concatenate_with_measurement(chan_meter, make_model(a_meter, a_probe))
        assert composite.dim_k == chan_meter.dim_k * a_meter.dim_k
        assert composite.normal
        # identity slot leaves the measurement unchanged
        obs = induced_observable(
            make_model(composite, np.kron(chan_probes[0], a_probe))
        )
        assert observable_distance(obs, s3) <= 1e-12
        # bit-flip slot swaps the outcomes of the z measurement
        obs = induced_observable(
            make_model(composite, np.kron(chan_probes[1], a_probe))
        )
        swapped = make_observable(2, (1, 2), [np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
        assert observable_distance(obs, swapped) <= 1e-12

    def test_composite_program_vectors_orthogonal_in_first_factor(self, spin_trio):
        chan_meter, chan_probes = push_button_multimeter(
            [identity_channel(2), unitary_channel(PAULI[1])]
        )
        a_meter, a_probe = minimal_dilation_multimeter(spin_trio[2])
        big1 = np.kron(chan_probes[0], a_probe)
        big2 = np.kron(chan_probes[1], a_probe)
        assert abs(np.vdot(big1, big2)) <= 1e-12

    def test_requires_sharp_downstream(self, rng):
        chan_meter, _ = push_button_multimeter([identity_channel(2)])
        fuzzy_pointer = make_observable(
            2, (1, 2), [np.eye(2) * 0.25, np.eye(2) * 0.75]
        )
        noisy_meter = make_multimeter(2, 2, fuzzy_pointer, make_channel([np.eye(4)]))
        model = make_model(noisy_meter, np.eye(2, dtype=complex)[0])
        with pytest.raises(ValidationError, match="sharp"):
            concatenate_with_measurement(chan_meter, model)


class TestMeasurementDilation:
    def test_minimal_dilation_is_a_naimark_dilation(self):
        # the conjugated pointer on the dilated space together with the
        # probe-embedding isometry reconstructs the measured observable
        for seed in range(5):
            a = random_sharp_observable(3, 3, seed + 50)
            meter, probe = minimal_dilation_multimeter(a)
            g = meter.coupling
            big = make_observable(
                3 * meter.dim_k,
                meter.pointer.outcomes,
                [
                    g.conj().T @ tensor(np.eye(3), eff) @ g
                    for eff in meter.pointer.effects
                ],
            )
            w = embed_program_isometry(probe, 3)
            result = naimark_check(a, big, w)
            assert result["holds"]
            assert result["commutant_residual"] <= 1e-10

    def test_pauli_program_dilation_commutant_detects_fuzziness(self):
        meter, probes = builtin_multimeter("pauli")
        g = meter.coupling
        e1 = induced_observable(make_model(meter, probes[0]))
        big = make_observable(
            8,
            meter.pointer.outcomes,
            [g.conj().T @ tensor(np.eye(2), eff) @ g for eff in meter.pointer.effects],
        )
        w = embed_program_isometry(probes[0], 2)
        result = naimark_check(e1, big, w)
        assert result["holds"]
        assert result["commutant_residual"] > 0.1


class TestBuiltins:
    def test_pauli_general_program_formula(self, rng):
        meter, _ = builtin_multimeter("pauli")
        for _ in range(20):
            raw = rng.normal(size=4)
            raw /= np.linalg.norm(raw)
            alpha, a = raw[0], raw[1:]
            obs = induced_observable(make_model(meter, raw.astype(complex)))
            a_sigma = a[0] * PAULI[1] + a[1] * PAULI[2] + a[2] * PAULI[3]
            for j in range(4):
                expected = (np.eye(2) + 2 * alpha * PAULI[j] @ a_sigma @ PAULI[j]) / 4
                assert np.linalg.norm(obs.effect(j) - expected) <= 1e-12

    def test_pauli_sic_program(self):
        meter, _ = builtin_multimeter("pauli")
        probe = np.array([1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(6), 1 / np.sqrt(6)])
        obs = induced_observable(make_model(meter, probe.astype(complex)))
        expected = [
            (np.eye(2) + sum(PAULI[j] @ PAULI[i] @ PAULI[j] for i in (1, 2, 3)) / np.sqrt(3)) / 4
            for j in range(4)
        ]
        for j in range(4):
            assert np.linalg.norm(obs.effect(j) - expected[j]) <= 1e-12

    def test_swap_acts_as_exchange(self, rng):
        meter, _ = builtin_multimeter("swap", dim=3)
        g = meter.coupling
        psi1 = random_state_vector(3, rng)
        psi2 = random_state_vector(3, rng)
        assert np.linalg.norm(g @ np.kron(psi1, psi2) - np.kron(psi2, psi1)) <= 1e-12

    def test_spin_pair_reaches_lower_bound(self, spin_trio):
        s1, _, s3 = spin_trio
        meter, probes = builtin_multimeter("spin_pair", observables=(s1, s3))
        assert meter.dim_k == 2
        assert abs(np.vdot(probes[0], probes[1])) == 0.0
        for probe, target in zip(probes, (s1, s3)):
            obs = induced_observable(make_model(meter, probe))
            assert observable_distance(obs, target) <= 1e-12

    def test_spin_pair_random_axes(self, rng):
        for _ in range(5):
            v, w = rng.normal(size=3), rng.normal(size=3)
            a1 = spin_observable(v / np.linalg.norm(v))
            a2 = spin_observable(w / np.linalg.norm(w))
            meter, probes = builtin_multimeter("spin_pair", observables=(a1, a2))
            for probe, target in zip(probes, (a1, a2)):
                obs = induced_observable(make_model(meter, probe))
                assert observable_distance(obs, target) <= 1e-12

    def test_spin_pair_rejects_fuzzy(self, spin_trio):
        fuzzy = make_observable(2, (1, 2), [np.eye(2) / 2, np.eye(2) / 2])
        with pytest.raises(ValidationError):
            builtin_multimeter("spin_pair", observables=(spin_trio[0], fuzzy))

    def test_swap_dimension_checked_before_allocating(self, monkeypatch):
        def no_allocation(dim):
            raise AssertionError(f"swap coupling of dimension {dim * dim} allocated")

        monkeypatch.setattr("qmultimeter.multimeter._swap_unitary", no_allocation)
        side = int(np.sqrt(DIMENSION_CAP))
        for dim in (side + 1, 100, 0):
            with pytest.raises(DimensionError):
                builtin_multimeter("swap", dim=dim)
        # at the cap the check lets the construction through
        with pytest.raises(AssertionError, match="allocated"):
            builtin_multimeter("swap", dim=side)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_multimeter("stern-gerlach")


class TestDimensionBounds:
    def test_three_two_outcome(self):
        assert dimension_bounds(3, [2, 2, 2]) == (3, 24)

    def test_single_observable(self):
        assert dimension_bounds(1, [5]) == (5, 5)

    def test_degenerate(self):
        assert dimension_bounds(1, [1]) == (1, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dimension_bounds(0, [])

    def test_counts_below_one_rejected(self):
        for counts in ([-2, 3], [0, 2], [2, -1]):
            with pytest.raises(ValidationError, match="at least 1"):
                dimension_bounds(2, counts)

    def test_large_counts_exact(self):
        # an int64 product would wrap around to 0
        assert dimension_bounds(2, [2**62, 4]) == (2**62, 2**65)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dimension_bounds(2, [2, 2, 2])


def dense_twin(meter):
    """The same meter with a copy of its pointer without marks: induction multiplies every effect."""
    meter.pointer.effects  # an unbuilt pointer is built before it is copied
    pointer = copy.copy(meter.pointer)
    object.__setattr__(pointer, "_marks", None)
    return dataclasses.replace(meter, pointer=pointer)


def concatenated_meter():
    chan_meter, chan_probes = push_button_multimeter(
        [identity_channel(2), unitary_channel(PAULI[1])]
    )
    a_meter, a_probe = minimal_dilation_multimeter(random_sharp_observable(2, 2, 3))
    composite = concatenate_with_measurement(chan_meter, make_model(a_meter, a_probe))
    return composite, [np.kron(p, a_probe) for p in chan_probes]


def split_pointer_part(rng):
    """Normal part on a qutrit apparatus whose pointer supports have sizes 1 and 2."""
    pointer = make_observable(3, (1, 2), [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0])])
    meter = make_multimeter(2, 3, pointer, unitary_channel(haar_unitary(6, rng)))
    return meter, np.eye(3, dtype=complex)[0]


def spin_z_part():
    return minimal_dilation_multimeter(spin_observable((0, 0, 1)))


def spin_pair_part():
    """Normal part whose pointer, a spin-x observable, is no basis projector."""
    meter, probes = builtin_multimeter(
        "spin_pair", observables=[spin_observable((1, 0, 0)), spin_observable((0, 1, 0))]
    )
    return meter, probes[0]


class NoProducts(np.ndarray):
    """An array that refuses to be a factor of a matrix product."""

    def __matmul__(self, other):
        raise AssertionError("dense product by a pointer effect")

    __rmatmul__ = __matmul__


def forbidden_gather(*args, **kwargs):
    raise AssertionError("basis-projector gather used")


def fractional_kernel(rows, rng):
    """A kernel with weights strictly between 0 and 1 and a column count other than ``rows``."""
    cols = 3 if rows == 2 else 2
    return make_kernel(rng.dirichlet(np.ones(cols), size=rows))


class TestBasisPointerInduction:
    @pytest.mark.parametrize(
        "construct",
        [
            lambda rng: minimal_dilation_multimeter(random_sharp_observable(3, 3, 4)),
            lambda rng: shared_pointer_multimeter(
                [random_sharp_observable(2, 2, s) for s in (5, 6, 7)]
            ),
            lambda rng: push_button_multimeter(
                [minimal_dilation_multimeter(random_sharp_observable(2, 2, s)) for s in (1, 2)]
            ),
            lambda rng: push_button_multimeter(
                [unitary_channel(haar_unitary(2, rng)) for _ in range(3)]
            ),
            lambda rng: builtin_multimeter("pauli"),
            lambda rng: builtin_multimeter("swap", dim=3),
            lambda rng: concatenated_meter(),
            lambda rng: (split_pointer_part(rng)[0], []),
            lambda rng: push_button_multimeter(
                [split_pointer_part(rng), spin_z_part()]
            ),
        ],
        ids=["minimal-dilation", "shared-pointer", "push-button-observables",
             "push-button-channels", "pauli", "swap", "concatenated", "unequal-supports",
             "push-button-unequal-supports"],
    )
    def test_gather_matches_dense_product(self, rng, construct):
        meter, probes = construct(rng)
        assert meter.pointer._marks is not None
        assert np.array_equal(meter.pointer._marks, _basis_supports(meter.pointer.effects))
        twin = dense_twin(meter)
        # a minimal dilation comes with one probe, the others with a list
        probes = [probes] if isinstance(probes, np.ndarray) else list(probes)
        probes += [
            random_state_vector(meter.dim_k, rng),
            random_density_operator(meter.dim_k, rng, meter.dim_k),
        ]
        for probe in probes:
            gathered = induced_observable(make_model(meter, probe))
            dense = induced_observable(make_model(twin, probe))
            assert gathered.outcomes == dense.outcomes
            assert max(
                frobenius_norm(a - b) for a, b in zip(gathered.effects, dense.effects)
            ) <= 1e-13
        # a fractional, non-square kernel smears the gathered effects
        kernel = fractional_kernel(len(meter.pointer), rng)
        model = make_model(meter, probes[-1], kernel=kernel)
        smeared = post_process(meter.pointer, kernel)
        obs = induced_observable(model)
        assert obs.outcomes == smeared.outcomes
        for x, eff in zip(smeared.outcomes, textbook.induced_effects(model)):
            assert np.linalg.norm(obs.effect(x) - eff) <= 1e-13

    @pytest.mark.parametrize(
        "construct",
        [
            lambda: minimal_dilation_multimeter(random_sharp_observable(3, 3, 4)),
            lambda: shared_pointer_multimeter(
                [random_sharp_observable(2, 2, s) for s in (5, 6, 7)]
            ),
            lambda: push_button_multimeter(
                [minimal_dilation_multimeter(random_sharp_observable(2, 2, s)) for s in (1, 2)]
            ),
            lambda: push_button_multimeter([identity_channel(2), unitary_channel(PAULI[1])]),
            lambda: builtin_multimeter("pauli"),
            lambda: builtin_multimeter("swap", dim=3),
        ],
        ids=["minimal-dilation", "shared-pointer", "push-button-observables",
             "push-button-channels", "pauli", "swap"],
    )
    def test_written_pointer_is_read_only(self, construct):
        meter, _ = construct()
        assert meter.pointer._marks is not None
        for eff in meter.pointer.effects:
            assert not eff.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                eff[0, 0] = 0.5

    @pytest.mark.parametrize(
        "marks",
        [[[1, 0, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
         [[1, 1, 0], [0, 1, 1], [0, 0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
         [[1, 0, 0], [0, 1, 1]]],
        ids=["repeated", "missing", "overlapping", "too-wide", "too-few-rows"],
    )
    def test_written_supports_must_partition(self, marks):
        marks = np.array(marks, dtype=bool)
        with pytest.raises(ValidationError, match=r"do not partition range\(3\)"):
            Observable._from_marks(3, (1, 2, 3), marks)

    def test_written_labels_must_be_unique(self):
        with pytest.raises(ValidationError, match=r"outcome labels are not unique: \(1, 2, 1\)"):
            Observable._from_marks(3, [1, 2, 1], np.eye(3, dtype=bool))

    def test_stored_marks_equal_written_marks(self, rng):
        meter, _ = split_pointer_part(rng)
        assert meter.pointer._marks.tolist() == [[True, False, False], [False, True, True]]
        marks = np.array([[0, 1, 0], [1, 0, 1]], dtype=bool)
        written = Observable._from_marks(3, (1, 2), marks)
        assert np.array_equal(written._marks, marks)
        assert not written._marks.flags.writeable
        # the pointer keeps its own copy of the marks
        marks[0] = True
        assert written._marks.tolist() == [[False, True, False], [True, False, True]]

    @pytest.mark.parametrize(
        "effects",
        [
            # a 1e-17 off-diagonal entry: within every tolerance, but not exact
            [np.array([[1.0, 1e-17], [1e-17, 0.0]]), np.array([[0.0, -1e-17], [-1e-17, 1.0]])],
            # diagonal entries one rounding step away from 1 and 0
            [np.diag([1.0 - 2.0**-53, 2.0**-53]), np.diag([2.0**-53, 1.0 - 2.0**-53])],
        ],
        ids=["off-diagonal", "diagonal"],
    )
    def test_near_basis_pointer_takes_dense_path(self, monkeypatch, rng, effects):
        pointer = make_observable(2, (1, 2), effects)
        meter = make_multimeter(2, 2, pointer, unitary_channel(haar_unitary(4, rng)))
        assert meter.normal and meter.pointer._marks is None
        monkeypatch.setattr(qmultimeter.multimeter, "_basis_effects", forbidden_gather)
        probe = random_state_vector(2, rng)
        model = make_model(meter, probe)
        obs = induced_observable(model)
        for x, eff in zip(pointer.outcomes, textbook.induced_effects(model)):
            assert np.linalg.norm(obs.effect(x) - eff) <= 1e-13
        # a kernel smears the densely induced effects
        kernel = fractional_kernel(2, rng)
        model = make_model(meter, probe, kernel=kernel)
        smeared = post_process(pointer, kernel)
        obs = induced_observable(model)
        for x, eff in zip(smeared.outcomes, textbook.induced_effects(model)):
            assert np.linalg.norm(obs.effect(x) - eff) <= 1e-13

    def test_kernel_model_gathers(self, monkeypatch):
        # the kernel smears the gathered effects; the pointer is never smeared
        meter, probes = builtin_multimeter("pauli")
        assert meter.pointer._marks is not None
        kernel = merge_kernels()[1]
        model = make_model(meter, probes[0], kernel=kernel)
        pointer = post_process(meter.pointer, kernel)
        gathers = []

        def recorded(m, weights):
            gathers.append(weights)
            return _basis_effects(m, weights)

        monkeypatch.setattr(qmultimeter.multimeter, "_basis_effects", recorded)
        obs = induced_observable(model)
        assert len(gathers) == 1 and gathers[0] is meter.pointer._marks
        for x, eff in zip(pointer.outcomes, textbook.induced_effects(model)):
            assert np.linalg.norm(obs.effect(x) - eff) <= 1e-13

    @pytest.mark.parametrize(
        "devices",
        [
            *(
                lambda rng, n=n, d=d: [
                    minimal_dilation_multimeter(random_sharp_observable(d, d, 10 * d + s))
                    for s in range(n)
                ]
                for n, d in ((2, 2), (3, 2), (3, 3), (3, 4))
            ),
            lambda rng: [split_pointer_part(rng), spin_z_part()],
            lambda rng: [spin_z_part(), split_pointer_part(rng)],
            # a spin-x pointer is no basis projector, so neither is the joint pointer
            lambda rng: [spin_pair_part(), spin_z_part()],
        ],
        ids=["bench-2-2-2", "bench-3-2-2", "bench-3-3-3", "bench-3-4-4", "unequal-first",
             "unequal-last", "spin-x-part"],
    )
    def test_bundle_supports_from_parts_equal_a_scan(self, monkeypatch, rng, devices):
        devices = devices(rng)
        scans = []

        def recorded(effects):
            scans.append(len(effects))
            return _basis_supports(effects)

        monkeypatch.setattr(qmultimeter.observables, "_basis_supports", recorded)
        meter, _ = push_button_multimeter(devices)
        # the bundle's effects are never scanned; the parts were scanned when built
        assert scans == []
        scan = _basis_supports(meter.pointer.effects)
        if scan is None:
            assert meter.pointer._marks is None
        else:
            assert np.array_equal(meter.pointer._marks, scan)

    def test_large_bundle_forms_no_pointer_product(self, monkeypatch, rng):
        observables = [random_sharp_observable(4, 4, s) for s in (1, 2, 3)]
        meter, probes = push_button_multimeter(
            [minimal_dilation_multimeter(a) for a in observables]
        )
        assert meter.dim_k == 192
        mixed = sum(w * projector(p) for w, p in zip((0.5, 0.3, 0.2), probes))
        kernel = fractional_kernel(len(meter.pointer), rng)
        models = [
            make_model(meter, probes[0]),
            make_model(meter, mixed),
            make_model(meter, probes[1], kernel=kernel),
        ]
        expected = [
            induced_observable(make_model(dense_twin(meter), m.probe)).effects for m in models
        ]
        # the kernel model's expected effects, smeared term by term
        expected[2] = [
            sum(kernel.weights[x, y] * eff for x, eff in enumerate(expected[2]))
            for y in range(kernel.cols)
        ]
        guarded = meter.pointer.effects.view(NoProducts)
        object.__setattr__(meter.pointer, "effects", guarded)
        with pytest.raises(AssertionError, match="dense product"):
            induced_observable(make_model(dense_twin(meter), probes[0]))

        def forbidden_smearing(*args, **kwargs):
            raise AssertionError("pointer smeared by a kernel")

        for module in (qmultimeter.observables, qmultimeter.multimeter):
            monkeypatch.setattr(module, "post_process", forbidden_smearing, raising=False)
        for model, dense in zip(models, expected):
            obs = induced_observable(model)
            assert len(obs.effects) == len(dense)
            assert max(frobenius_norm(a - b) for a, b in zip(obs.effects, dense)) <= 1e-13


def bench_bundle(sizes=(4, 4, 4)):
    """The push-button bundle of minimal dilations of random sharp observables on C^4."""
    observables = [random_sharp_observable(4, n, s) for s, n in enumerate(sizes, start=1)]
    return push_button_multimeter([minimal_dilation_multimeter(a) for a in observables])


class TestPointerBuiltOnRead:
    def test_build_holds_no_pointer_stack(self):
        observables = [random_sharp_observable(4, 4, s) for s in (1, 2, 3)]
        devices = [minimal_dilation_multimeter(a) for a in observables]
        peak, (meter, _) = traced_peak(lambda: push_button_multimeter(devices))
        assert meter.dim_k == 192
        # the 64 x 192 x 192 pointer stack alone would be four couplings
        assert peak < 3 * meter.coupling.nbytes
        assert "effects" not in vars(meter.pointer)

    def test_effects_built_once_on_first_read(self):
        meter, _ = bench_bundle()
        pointer = meter.pointer
        assert "effects" not in vars(pointer)
        assert "_marks" in vars(pointer)
        written = np.zeros((len(pointer), meter.dim_k, meter.dim_k), dtype=complex)
        diag = np.arange(meter.dim_k)
        written[:, diag, diag] = pointer._marks
        effects = pointer.effects
        assert type(effects) is np.ndarray and effects.shape == written.shape
        assert np.array_equal(effects, written) and effects.dtype == written.dtype
        assert not effects.flags.writeable
        assert all(not eff.flags.writeable for eff in effects)
        assert pointer.effects is effects and vars(pointer)["effects"] is effects
        with pytest.raises(AttributeError, match="no attribute 'projection'"):
            pointer.projection

    def test_repr_builds_nothing(self):
        meter, _ = bench_bundle()
        peak, text = traced_peak(lambda: repr(meter.pointer))
        assert peak < 2**20 and text.startswith("Observable(dim=192, outcomes=")
        assert "pointer=Observable(dim=192" in repr(meter)
        assert "effects" not in vars(meter.pointer)

    def test_concurrent_first_reads_build_one_stack(self):
        meter, _ = bench_bundle((2, 2, 2))
        labels, marks = meter.pointer.outcomes, meter.pointer._marks
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                pointer = Observable._from_marks(meter.dim_k, labels, marks)
                barrier = threading.Barrier(8)
                seen = []

                # half the readers ask for the stack, half for one effect
                def read(whole, pointer=pointer, barrier=barrier, seen=seen):
                    barrier.wait(timeout=10)
                    seen.append(pointer.effects if whole else pointer.effect(labels[0]))

                threads = [threading.Thread(target=read, args=(i % 2,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 8
                assert all(
                    x is pointer.effects if x.ndim == 3 else np.shares_memory(x, pointer.effects)
                    for x in seen
                )
        finally:
            sys.setswitchinterval(interval)

    def test_make_multimeter_takes_the_marks(self, monkeypatch):
        meter, _ = bench_bundle()

        def forbidden_scan(effects):
            raise AssertionError("pointer effects scanned")

        monkeypatch.setattr(qmultimeter.observables, "_basis_supports", forbidden_scan)
        marks = meter.pointer._marks
        remade = make_multimeter(meter.dim_h, meter.dim_k, meter.pointer, meter.interaction)
        assert remade.pointer._marks is marks
        assert remade.normal
        assert "effects" not in vars(meter.pointer)

    def test_dense_basis_pointer_is_still_scanned(self):
        meter, _ = minimal_dilation_multimeter(random_sharp_observable(3, 3, 4))
        dense = make_observable(meter.dim_k, meter.pointer.outcomes, meter.pointer.effects)
        assert "_marks" not in vars(dense)
        remade = make_multimeter(meter.dim_h, meter.dim_k, dense, meter.interaction)
        assert np.array_equal(remade.pointer._marks, meter.pointer._marks)

    def test_scan_runs_once_per_observable(self, monkeypatch, rng):
        scans = []

        def recorded(effects):
            scans.append(len(effects))
            return _basis_supports(effects)

        monkeypatch.setattr(qmultimeter.observables, "_basis_supports", recorded)
        pointer = make_observable(3, (1, 2), [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0])])
        interaction = unitary_channel(haar_unitary(6, rng))
        meters = [make_multimeter(2, 3, pointer, interaction) for _ in range(3)]
        for probe in np.eye(3):
            induced_observable(make_model(meters[0], probe))
        assert scans == [2]
        assert all(meter.pointer._marks is pointer._marks for meter in meters)


class TestIdentityEquality:
    def test_core_types_compare_by_identity(self, rng):
        meter, probes = bench_bundle((2, 2, 2))
        twin, _ = bench_bundle((2, 2, 2))
        kernel = fractional_kernel(len(meter.pointer), rng)
        pairs = [
            (meter.pointer, twin.pointer),
            (meter.interaction, twin.interaction),
            (kernel, make_kernel(kernel.weights)),
            (meter, twin),
            (make_model(meter, probes[0], kernel), make_model(twin, probes[0], kernel)),
        ]
        for a, b in pairs:
            assert a == a and not a != a
            assert a != b and not a == b
            assert hash(a) == hash(a) and len({a, b}) == 2
        # comparing pointers builds neither one
        assert "effects" not in vars(meter.pointer) and "effects" not in vars(twin.pointer)


def spin_z_model():
    meter, probe = minimal_dilation_multimeter(spin_observable((0, 0, 1)))
    return make_model(meter, probe)


class TestFamilyIsItsStack:
    """An observable's effects and a channel's Kraus operators are one read-only ``(n, d, d)`` array."""

    @pytest.mark.parametrize(
        "device, family",
        [
            (lambda: spin_observable((0, 0, 1)), "effects"),
            (lambda: random_channel(3, 4, 1), "kraus"),
            (lambda: induced_observable(spin_z_model()), "effects"),
            (lambda: induced_observable(make_model(*spin_pair_part())), "effects"),
            (lambda: induced_channel(spin_z_model()), "kraus"),
            (lambda: bench_bundle((2, 2, 2))[0].pointer, "effects"),
            (lambda: bench_bundle((2, 2, 2))[0].interaction, "kraus"),
        ],
        ids=["make_observable", "make_channel", "induced-marks", "induced-dense",
             "induced_channel", "unbuilt-pointer", "parts-coupling"],
    )
    def test_family_is_one_read_only_array(self, device, family):
        device = device()
        stack = getattr(device, family)
        assert type(stack) is np.ndarray and stack.shape == (len(device), device.dim, device.dim)
        assert not stack.flags.writeable
        assert getattr(device, family) is stack and vars(device)[family] is stack
        assert [m.shape for m in stack] == [(device.dim, device.dim)] * len(device)

    @pytest.mark.parametrize("case", ["spin-pair", "fuzzy-pointer"])
    def test_dense_pointer_induction_is_the_per_effect_formula(self, rng, case):
        if case == "spin-pair":
            meter, probes = spin_pair_part()[0], list(np.eye(2))
        else:
            pointer = random_observable(3, 3, 7)
            meter = make_multimeter(2, 3, pointer, unitary_channel(haar_unitary(6, rng)))
            probes = [random_state_vector(3, rng), random_density_operator(3, rng, 3)]
        assert meter.pointer._marks is None
        dim_h, dim_k = meter.dim_h, meter.dim_k
        for probe in probes:
            for kernel in (None, fractional_kernel(len(meter.pointer), rng)):
                model = make_model(meter, probe, kernel=kernel)
                # the per-effect products, one effect at a time
                m = _program_blocks(meter, model._components)
                b = m.transpose(2, 0, 1, 3).reshape(dim_k, -1)
                b_adj = b.reshape(-1, dim_h).conj().T
                expected = [b_adj @ (eff @ b).reshape(-1, dim_h) for eff in meter.pointer.effects]
                if kernel is not None:
                    expected = np.tensordot(kernel.weights, expected, axes=(0, 0))
                assert np.array_equal(induced_observable(model).effects, np.asarray(expected))

    @pytest.mark.parametrize("smeared", [False, True], ids=["no-kernel", "kernel"])
    def test_dense_pointer_induction_keeps_its_product(self, monkeypatch, rng, smeared):
        # the stack the induction builds and validates is the one the observable
        # keeps: validated once, never copied
        meter, probe = spin_pair_part()
        kernel = fractional_kernel(len(meter.pointer), rng) if smeared else None
        validated, validate = [], qmultimeter.observables._validated

        def recorded(dim, labels, effects, tol):
            validated.append(effects)
            return validate(dim, labels, effects, tol)

        monkeypatch.setattr(qmultimeter.observables, "_validated", recorded)
        induced = induced_observable(make_model(meter, probe, kernel=kernel))
        assert len(validated) == 1 and type(validated[0]) is np.ndarray
        assert np.shares_memory(induced.effects, validated[0])
        assert induced.effects is validated[0]
        # make_observable still copies a stack its caller keeps
        copy = make_observable(2, induced.outcomes, validated[0]).effects
        assert not np.shares_memory(copy, validated[0])


def whole_program_blocks(model):
    """:func:`_program_blocks` with every apparatus column of the coupling multiplied."""
    meter = model.meter
    if model.probe.ndim == 1:
        psis = model.probe[:, None]
    else:
        lam, vecs = np.linalg.eigh(model.probe)
        keep = lam >= PROBE_CUTOFF
        psis = vecs[:, keep] * np.sqrt(lam[keep] / lam[keep].sum())
    m = np.stack([v.reshape(-1, meter.dim_k) @ psis for v in meter.interaction.kraus])
    m = m.reshape(-1, meter.dim_h, meter.dim_k, meter.dim_h, psis.shape[1])
    return np.moveaxis(m, -1, 0).reshape(-1, meter.dim_h, meter.dim_k, meter.dim_h)


def slot_grams(m):
    """Gram matrix ``B_i* B_i`` of each slot ``i`` of program maps ``m[..., r, i, c]``."""
    slots = m.swapaxes(-2, -3)
    return slots.conj().swapaxes(-1, -2) @ slots


def subset_probes(dim, size, rng):
    """A pure and a mixed probe supported on ``size`` random apparatus indices."""
    idx = np.sort(rng.choice(dim, size=size, replace=False))
    vector = np.zeros(dim, dtype=complex)
    vector[idx] = random_state_vector(size, rng)
    density = np.zeros((dim, dim), dtype=complex)
    density[np.ix_(idx, idx)] = random_density_operator(size, rng, size)
    return [vector, density]


class TestProgramBlocksOnSupport:
    @pytest.mark.parametrize(
        "construct",
        [
            lambda: minimal_dilation_multimeter(random_sharp_observable(3, 3, 4)),
            lambda: shared_pointer_multimeter(
                [random_sharp_observable(2, 2, s) for s in (5, 6, 7)]
            ),
            lambda: bench_bundle((2, 2, 2)),
            bench_bundle,
            lambda: push_button_multimeter(
                [unitary_channel(haar_unitary(3, np.random.default_rng(s))) for s in range(4)]
            ),
            lambda: push_button_multimeter([spin_z_part(), spin_pair_part()]),
            lambda: builtin_multimeter("pauli"),
            lambda: builtin_multimeter("swap", dim=3),
            lambda: (make_multimeter(2, 3, random_observable(3, 3, 5), random_channel(6, 3, 11)),
                     []),
        ],
        ids=["minimal-dilation", "shared-pointer", "push-button-2-2-2", "push-button-4-4-4",
             "push-button-channels", "push-button-non-basis-part", "pauli", "swap",
             "three-kraus"],
    )
    def test_equals_whole_product(self, rng, construct):
        meter, probes = construct()
        dim_k = meter.dim_k
        probes = [probes] if isinstance(probes, np.ndarray) else list(probes)
        # the constructions' own probes, selectors among them, and basis vectors
        exact = probes + list(np.eye(dim_k, dtype=complex)[:: max(1, dim_k // 6)])
        # a probe with no zero entry takes the whole product itself, unless the
        # coupling is held as its parts
        dense = [random_state_vector(dim_k, rng), random_density_operator(dim_k, rng, dim_k)]
        if meter.interaction._parts is None:
            exact += dense
            dense = []
        close = [p for size in (2, max(2, dim_k // 3)) for p in subset_probes(dim_k, size, rng)]
        if len(probes) > 1:
            weights = rng.dirichlet(np.ones(len(probes)))
            close.append(sum(w * projector(p) for w, p in zip(weights, probes)))
        for probe in exact + dense + close:
            model = make_model(meter, probe)
            blocks = _program_blocks(meter, model._components)
            whole = whole_program_blocks(model)
            assert blocks.shape == whole.shape
            if any(probe is p for p in exact):
                assert np.array_equal(blocks, whole)
            elif probe.ndim == 1:
                assert np.abs(blocks - whole).max() <= 1e-15
            else:
                # a block eigendecomposition fixes other eigenvector phases;
                # the summed slot Grams do not depend on them
                grams = slot_grams(blocks).sum(axis=0)
                assert np.abs(grams - slot_grams(whole).sum(axis=0)).max() <= 1e-15

    def test_program_maps_copy_no_coupling(self, rng):
        meter, probes = bench_bundle()
        mixed = sum(w * projector(p) for w, p in zip((0.5, 0.3, 0.2), probes))
        models = [make_model(meter, p) for p in (probes[1], mixed, random_state_vector(192, rng))]
        maps = []
        for model in models:
            peak, blocks = traced_peak(lambda: _program_blocks(meter, model._components))
            # three probe vectors' program maps hold 0.56 MiB, the coupling 9 MiB
            assert peak < 2**20
            maps.append(blocks)
        assert "kraus" not in vars(meter.interaction)
        selector, mixture, dense = [(m, whole_program_blocks(model)) for m, model in zip(maps, models)]
        assert np.array_equal(*selector)
        assert np.abs(dense[0] - dense[1]).max() <= 1e-15
        grams = [slot_grams(m).sum(axis=0) for m in mixture]
        assert np.abs(grams[0] - grams[1]).max() <= 1e-15

    def test_zero_probe_columns_are_not_multiplied(self):
        meter, probes = bench_bundle()
        parts, dims = meter.interaction._parts
        # NaN in every slot but the selected one, and in the selected part
        # wherever its probe entry is zero: any such product would be NaN
        poisoned = [np.full_like(v, np.nan) for v in parts]
        selected = parts[1].reshape(4, 4, 4, 4).copy()
        selected[..., 1:] = np.nan
        poisoned[1] = selected.reshape(16, 16)
        object.__setattr__(meter.interaction, "_parts", (tuple(poisoned), dims))
        for probe in [probes[1], projector(probes[1])]:
            blocks = _program_blocks(meter, make_model(meter, probe)._components)
            assert np.isfinite(blocks).all()

    def test_slot_gather_equals_every_slot_summed(self, rng):
        meter, probes = bench_bundle()
        mixed = sum(w * projector(p) for w, p in zip((0.5, 0.3, 0.2), probes))
        weights = meter.pointer._marks
        for probe in [*probes, mixed, random_state_vector(meter.dim_k, rng)]:
            model = make_model(meter, probe)
            m = _program_blocks(meter, model._components).reshape(-1, meter.dim_k, meter.dim_h)
            grams = slot_grams(m)
            summed = weights.astype(complex) @ grams.reshape(meter.dim_k, -1)
            expected = summed.reshape(len(weights), meter.dim_h, meter.dim_h)
            assert np.array_equal(_basis_effects(m, weights), expected)


class TestCouplingBuiltOnRead:
    def test_bundle_program_forms_no_coupling(self):
        observables = [random_sharp_observable(4, 4, s) for s in (1, 2, 3)]
        devices = [minimal_dilation_multimeter(a) for a in observables]
        peak, (meter, probes) = traced_peak(lambda: push_button_multimeter(devices))
        # the dense 768 x 768 coupling alone is 9 MiB
        assert meter.dim_k == 192 and peak < 2 * 2**20
        labels = observables[0].outcomes
        for i, a in enumerate(observables):
            model = make_model(meter, probes[i])
            joint = induced_observable(model)
            weights = np.zeros((len(joint), len(labels)))
            for row, label in enumerate(joint.outcomes):
                weights[row, labels.index(int(label.split(",")[i]))] = 1.0
            marginal = post_process(joint, make_kernel(weights), labels=labels)
            assert observable_distance(marginal, a) <= 1e-12
            assert channel_distance(induced_channel(model), make_channel(a.effects)) <= 1e-12
        mix = (0.5, 0.3, 0.2)
        model = make_model(meter, sum(w * projector(p) for w, p in zip(mix, probes)))
        joint = induced_observable(model)
        # selector i moves meter i; every idle meter reads its first outcome
        for label in joint.outcomes:
            slots = [labels.index(int(x)) for x in label.split(",")]
            expected = sum(
                w * a.effects[slots[i]]
                for i, (w, a) in enumerate(zip(mix, observables))
                if all(slots[j] == 0 for j in range(3) if j != i)
            )
            assert frobenius_norm(joint.effect(label) - expected) <= 1e-12
        lueders = [np.sqrt(w) * e for w, a in zip(mix, observables) for e in a.effects]
        assert channel_distance(induced_channel(model), make_channel(lueders)) <= 1e-12
        report = check_sharp_program_orthogonality(meter, probes[0], probes[1])
        assert report.verdict == "pass"
        assert "kraus" not in vars(meter.interaction)

    def test_mixed_probe_decomposed_on_its_support(self, monkeypatch):
        meter, probes = bench_bundle()
        mixed = sum(w * projector(p) for w, p in zip((0.5, 0.3, 0.2), probes))
        seen = dense_checks(monkeypatch, 64)
        eigh = np.linalg.eigh

        def recorded(a):
            seen.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        model = make_model(meter, mixed)
        induced_observable(model)
        induced_channel(model)
        # one 3 x 3 decomposition per model, and no check of the probe's size
        assert seen == [(3, 3)]
        assert np.array_equal(model.probe, mixed / np.trace(mixed).real)

    def test_concurrent_first_reads_build_one_coupling(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                meter, _ = bench_bundle((2, 2, 2))
                barrier = threading.Barrier(8)
                seen = []

                # half the readers ask for the Kraus operator, half for the stack
                def read(stack, barrier=barrier, meter=meter, seen=seen):
                    barrier.wait(timeout=10)
                    seen.append(meter.interaction.kraus if stack else meter.coupling)

                threads = [threading.Thread(target=read, args=(i % 2,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                stack = meter.interaction.kraus
                assert len(seen) == 8
                assert all(g is stack if g.ndim == 3 else np.shares_memory(g, stack) for g in seen)
        finally:
            sys.setswitchinterval(interval)

    def test_repr_equality_and_length_build_nothing(self):
        meter, _ = bench_bundle()
        twin, _ = bench_bundle()
        peak, text = traced_peak(lambda: repr(meter))
        assert peak < 2**20 and "interaction=Channel(dim=768)" in text
        assert meter.interaction == meter.interaction and meter.interaction != twin.interaction
        assert len(meter.interaction) == 1 and is_unitary_channel(meter.interaction)
        assert meter.normal
        assert "kraus" not in vars(meter.interaction) and "kraus" not in vars(twin.interaction)

    def test_coupling_built_once_read_only(self):
        meter, _ = bench_bundle((2, 2, 2))
        with pytest.raises(AttributeError, match="no attribute 'choi'"):
            meter.interaction.choi
        g = meter.coupling
        kraus = meter.interaction.kraus
        assert type(kraus) is np.ndarray and kraus.shape == (1, *g.shape)
        assert np.shares_memory(meter.coupling, g) and np.shares_memory(kraus, g)
        assert meter.interaction.kraus is kraus
        assert not g.flags.writeable and not kraus.flags.writeable
        assert len(meter.interaction) == 1
        with pytest.raises(AttributeError, match="no attribute 'kraus'"):
            identity_channel(2).__getattr__("kraus")


    def test_bundle_of_many_parts(self):
        # each part is embedded in four factor groups, not in one factor per part
        trivial = make_observable(2, (1,), [np.eye(2)])
        meter, probes = push_button_multimeter([minimal_dilation_multimeter(trivial)] * 40)
        assert meter.dim_k == 40 and len(probes) == 40
        induced = induced_observable(make_model(meter, probes[7]))
        assert np.array_equal(induced.effects[0], np.eye(2))
        assert np.array_equal(meter.coupling, np.eye(80))


class TestProbeSupportValidation:
    """From ``SUPPORT_MIN_DIM_K`` on, a density probe is checked on its support block."""

    @staticmethod
    def probe(entries, dim=192):
        rho = np.zeros((dim, dim), dtype=complex)
        for (i, j), value in entries.items():
            rho[i, j] = value
        return rho

    @pytest.mark.parametrize(
        "entries",
        [
            # row 7 is zero on its diagonal but not off it: not positive
            {(3, 3): 1.5, (3, 7): 1.0, (7, 3): 1.0},
            # column 150 holds the only entry of its pair; row 150 is zero
            {(2, 2): 1.0, (2, 150): 0.25},
            {(3, 3): 1.25, (100, 100): -0.25},
            {(2, 2): 0.5, (50, 50): 0.25},
            {(5, 5): 1.0, (5, 9): np.nan, (9, 5): np.nan},
            {},
        ],
        ids=["zero-diagonal-row", "one-sided-entry", "negative-eigenvalue", "trace",
             "non-finite", "zero"],
    )
    def test_refused_as_the_dense_check_refuses(self, entries):
        meter, _ = bench_bundle()
        rho = self.probe(entries)
        with pytest.raises(ValidationError) as dense:
            check_density_operator(rho)
        with pytest.raises(ValidationError) as block:
            make_model(meter, rho)
        assert str(block.value) == str(dense.value)

    def test_accepted_probe_kept_whole(self, rng):
        meter, _ = bench_bundle()
        idx = [5, 64, 191]
        rho = np.zeros((192, 192), dtype=complex)
        rho[np.ix_(idx, idx)] = random_density_operator(3, rng, 3)
        model = make_model(meter, rho)
        assert np.array_equal(model.probe, rho / np.trace(rho).real)
        assert not model.probe.flags.writeable
