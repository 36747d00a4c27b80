import itertools

import numpy as np
import pytest

import qmultimeter
from qmultimeter import DIMENSION_CAP, DimensionError, PAULI, ValidationError
from qmultimeter.channels import (
    Channel,
    apply,
    channel_distance,
    choi_matrix,
    complete_contraction,
    identity_channel,
    is_unitary_channel,
    make_channel,
    random_channel,
    unitary_channel,
)
from qmultimeter.multimeter import (
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
    is_sharp,
    make_kernel,
    make_observable,
    observable_distance,
    post_process,
    random_observable,
    random_sharp_observable,
    spin_observable,
)
from qmultimeter.operators import (
    embed_factors,
    frobenius_norm,
    haar_unitary,
    is_projection,
    is_unitary,
    partial_trace,
    projector,
    random_density_operator,
    random_state_vector,
    tensor,
    tensor_many,
)


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
    """Record which dense checks run on matrices with at least ``size`` rows.

    With ``size`` the bundle's apparatus dimension, the parts' own matrices are smaller.
    """
    seen = []

    def spy(name, check):
        def recorded(a, *args, **kwargs):
            if np.shape(a)[0] >= size:
                seen.append(name)
            return check(a, *args, **kwargs)

        return recorded

    monkeypatch.setattr(np.linalg, "cholesky", spy("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(
        qmultimeter.observables, "is_projection", spy("is_projection", is_projection)
    )
    # in a build, the dense trace-preservation residual is the only norm channels.py takes
    monkeypatch.setattr(qmultimeter.channels, "frobenius_norm", spy("gram", frobenius_norm))
    return seen


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


def reference_models(rng):
    """Models covering every kind of program map that induction must handle."""
    pauli, probes = builtin_multimeter("pauli")
    yield from (make_model(pauli, phi) for phi in probes + [random_state_vector(4, rng)])
    yield make_model(pauli, probes[0], kernel=merge_kernels()[1])
    # non-normal: fuzzy pointer, three Kraus operators, a kernel
    pointer = random_observable(3, 3, 5)
    noisy = make_multimeter(2, 3, pointer, random_channel(6, 3, 11))
    kernel = make_kernel([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
    yield make_model(noisy, random_state_vector(3, rng), kernel=kernel)
    yield make_model(noisy, random_density_operator(3, rng), kernel=kernel)
    # rank-deficient probe: one eigenvalue below the cutoff
    rank_two = random_density_operator(3, rng, rank=2)
    assert np.linalg.eigvalsh(rank_two)[0] < 1e-14
    yield make_model(noisy, rank_two)
    bundle, selectors = push_button_multimeter(
        [minimal_dilation_multimeter(random_sharp_observable(2, 2, s)) for s in (1, 2)]
    )
    yield from (make_model(bundle, phi) for phi in selectors)
    yield make_model(bundle, 0.3 * projector(selectors[0]) + 0.7 * projector(selectors[1]))


def probe_state(model):
    if model.probe.ndim == 1:
        return projector(model.probe)
    return model.probe


def textbook_effects(model, pointer):
    """``E(x) = tr_K[ V*(I (x) Z(x)) V (I (x) xi) ]``, formed on ``H (x) K``."""
    meter = model.meter
    eye_h = np.eye(meter.dim_h)
    one_xi = tensor(eye_h, probe_state(model))
    return [
        partial_trace(
            apply(meter.interaction, tensor(eye_h, eff), "heisenberg") @ one_xi,
            meter.dim_h,
            meter.dim_k,
        )
        for eff in pointer.effects
    ]


def textbook_channel(model, rho):
    """``rho -> tr_K[ V (rho (x) xi) V* ]``, formed on ``H (x) K``."""
    meter = model.meter
    coupled = apply(meter.interaction, tensor(rho, probe_state(model)))
    return partial_trace(coupled, meter.dim_h, meter.dim_k)


def textbook_choi(model):
    """Choi matrix ``C[(r,s),(r',s')] = <r| E(|s><s'|) |r'>`` of the textbook channel."""
    d = model.meter.dim_h
    images = np.array(
        [[textbook_channel(model, np.outer(a, b)) for b in np.eye(d)] for a in np.eye(d)]
    )
    return images.transpose(2, 0, 3, 1).reshape(d * d, d * d)


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
    def test_pauli_formula(self):
        meter, probes = builtin_multimeter("pauli")
        for i, phi in enumerate(probes, start=1):
            obs = induced_observable(make_model(meter, phi))
            for j in range(4):
                expected = (np.eye(2) + PAULI[j] @ PAULI[i] @ PAULI[j]) / 4
                assert np.linalg.norm(obs.effect(j) - expected) <= 1e-12

    def test_induction_matches_textbook_formulas(self, rng):
        for model in reference_models(rng):
            meter = model.meter
            pointer = meter.pointer
            if model.kernel is not None:
                pointer = post_process(pointer, model.kernel)
            obs = induced_observable(model)
            for x, eff in zip(pointer.outcomes, textbook_effects(model, pointer)):
                assert np.linalg.norm(obs.effect(x) - eff) <= 1e-12
            channel = induced_channel(model)
            assert np.linalg.norm(choi_matrix(channel) - textbook_choi(model)) <= 1e-12
            for _ in range(3):
                rho = random_density_operator(meter.dim_h, rng)
                gap = apply(channel, rho) - textbook_channel(model, rho)
                assert np.linalg.norm(gap) <= 1e-12

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
        xi = random_density_operator(3, rng)
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
                rho = random_density_operator(meter.dim_h, rng)
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
        kernel = make_kernel(rng.dirichlet(np.ones(3), size=4))
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
            rho = random_density_operator(2, rng)
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
        xi = random_density_operator(2, rng)
        induced = induced_channel(make_model(meter, xi))
        rho = random_density_operator(2, rng)
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
        # unitarity comes from the residuals make_channel stored, and the
        # bundle's coupling residual, pointer idempotence and positivity are
        # certified from its parts, so no dense check runs at bundle size
        def forbidden(*args, **kwargs):
            raise AssertionError("second unitarity product or spectrum computed")

        for name in ("operators", "channels", "multimeter"):
            module = getattr(qmultimeter, name)
            monkeypatch.setattr(module, "is_unitary", forbidden, raising=False)
        observables = [random_sharp_observable(3, 3, seed) for seed in (1, 2, 3)]
        # no spectrum of any size; the spy below wraps the prohibition
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        devices = [minimal_dilation_multimeter(a) for a in observables]
        seen = dense_checks(monkeypatch, 3**3 * 3)
        meter, probes = push_button_multimeter(devices)
        assert seen == []
        assert meter.normal and meter.dim_k == 3 * 3**3 and len(probes) == 3

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
        ],
        ids=["spin-pair", "random-qubits", "pauli-channels", "qutrit-channels",
             "bench-2-2-2", "bench-3-2-2", "bench-3-3-3", "bench-3-4-4"],
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
        assert meter.normal == (is_unitary(g) and all(is_projection(e) for e in effects))
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
        # the part's own threshold (the bound misses the margin), and above
        # the bundle threshold for a part validated at a looser tolerance
        [(2.5e-11, 1e-9, "certified"), (4.5e-10, 1e-9, "dense"), (2.5e-9, 1e-8, "raises")],
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
            assert seen == ["gram"]
            return
        meter, _ = push_button_multimeter(devices)
        g = meter.coupling
        residual = frobenius_norm(g.conj().T @ g - np.eye(len(g)))
        assert residual == pytest.approx(np.sqrt(3) * devices[0][0].interaction.tp_residual)
        assert abs(meter.interaction.tp_residual - residual) <= 1e-13
        assert seen == ([] if outcome == "certified" else ["gram"])
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

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_pointer_certificate_bounds_every_factor(self, monkeypatch, spin_trio, position):
        # only one factor is fuzzy, so the bound's one nonzero term is exact
        pointers = [None] * 3
        pointers[position] = fuzzy_pointer(1e-10)
        devices = [qubit_part(a, pointer=z) for a, z in zip(spin_trio, pointers)]
        seen = dense_checks(monkeypatch, 2**3 * 3)
        meter, _ = push_button_multimeter(devices)
        assert seen == [] and meter.normal
        for eff, bound in zip(meter.pointer.effects, meter.pointer.projection_defects):
            defect = frobenius_norm(eff @ eff - eff)
            assert 1e-10 < defect <= bound + 1e-14

    @pytest.mark.parametrize("delta, normal", [(3e-10, True), (5e-10, False)])
    def test_pointer_fallback_near_tolerance(self, monkeypatch, spin_trio, delta, normal):
        # the bound 4 delta misses half the threshold sqrt(2) 1e-9; the dense
        # defect sqrt(12) delta decides sharpness, as without a certificate
        devices = [qubit_part(a, pointer=fuzzy_pointer(delta)) for a in spin_trio[:2]]
        assert all(m.normal for m, _ in devices)
        seen = dense_checks(monkeypatch, 2**2 * 2)
        meter, _ = push_button_multimeter(devices)
        assert {"cholesky", "is_projection"} <= set(seen)
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
    def test_certificates_defer_to_dense_near_zero_tolerance(self, monkeypatch, spin_trio, tol):
        # each factor's computed idempotence defect is exactly 0 and their
        # Kronecker products' is not; where tol leaves no room above the
        # rounding of the dense checks, those checks decide
        v = np.array([np.cos(7 * np.pi / 80), np.sin(7 * np.pi / 80)])
        f = np.outer(v, v)
        devices = [
            qubit_part(a, pointer=make_observable(2, (1, 2), [f, np.eye(2) - f]))
            for a in spin_trio[:2]
        ]
        bundle, _ = push_button_multimeter(devices)
        assert max(bundle.pointer.projection_defects) == 0.0
        assert not all(is_projection(e, 0.0) for e in bundle.pointer.effects)
        g = bundle.coupling
        dense_unitary = frobenius_norm(g.conj().T @ g - np.eye(len(g))) <= tol * np.sqrt(len(g))
        dense_sharp = all(is_projection(e, tol) for e in bundle.pointer.effects)
        seen = dense_checks(monkeypatch, bundle.dim_k)
        assert is_sharp(bundle.pointer, tol) == dense_sharp
        meter = make_multimeter(bundle.dim_h, bundle.dim_k, bundle.pointer, bundle.interaction, tol)
        assert meter.normal == (dense_unitary and dense_sharp)
        assert ("is_projection" in seen) == (tol < 1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_certified_residual_defers_to_dense_near_threshold(self, seed):
        # the certified and the dense residual of the coupling differ by
        # rounding; at a tolerance between them the dense residual decides
        devices = [
            unitary_channel(haar_unitary(3, np.random.default_rng(10 * seed + i)))
            for i in range(4)
        ]
        bundle, _ = push_button_multimeter(devices)
        g = bundle.coupling
        dense = frobenius_norm(g.conj().T @ g - np.eye(12))
        certified = bundle.interaction.tp_residual
        assert certified != dense
        tol = (certified + dense) / 2 / np.sqrt(12)
        assert is_unitary_channel(bundle.interaction, tol) == (dense <= tol * np.sqrt(12))

    def test_certificates_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            Observable(1, (1,), (np.eye(1),), projection_defects=(0.0,))
        with pytest.raises(TypeError):
            Channel(1, (np.eye(1),), 0.0, tp_certified=True)


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
        from qmultimeter.observables import naimark_check
        from qmultimeter.operators import embed_program_isometry

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
        from qmultimeter.observables import naimark_check
        from qmultimeter.operators import embed_program_isometry

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
