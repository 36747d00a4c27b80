import json

import numpy as np
import pytest

from qmultimeter import DIMENSION_CAP, PAULI, DimensionError, ValidationError
from qmultimeter import multimeter, observables, verify
from qmultimeter.cli import emit_report, parse_report
from qmultimeter.channels import identity_channel, make_channel, unitary_channel
from qmultimeter.multimeter import (
    builtin_multimeter,
    induced_observable,
    make_model,
    make_multimeter,
    minimal_dilation_multimeter,
    push_button_multimeter,
    shared_pointer_multimeter,
)
from qmultimeter.observables import (
    make_observable,
    observable_distance,
    spin_observable,
)
from qmultimeter.operators import (
    haar_isometry,
    haar_unitary,
    projector,
    random_state_vector,
    tensor,
)
from qmultimeter.verify import (
    MAX_TRIALS,
    VerificationReport,
    check_channel_program_orthogonality,
    check_convex_hull,
    check_purification,
    check_sharp_program_orthogonality,
    counterexample_search,
)
from textbook import mix


def prepare_then_couple_meter(a):
    """Meter that discards the probe and measures ``a`` regardless.

    The apparatus is reset to the dilation probe before the coupling acts,
    so every program state induces the same sharp observable.
    """
    base, chi = minimal_dilation_multimeter(a)
    g = base.coupling
    dim_h, dim_k = base.dim_h, base.dim_k
    basis = np.eye(dim_k, dtype=complex)
    kraus = [g @ tensor(np.eye(dim_h), np.outer(chi, basis[i])) for i in range(dim_k)]
    return make_multimeter(dim_h, dim_k, base.pointer, make_channel(kraus))


class TestReports:
    def test_round_trip(self):
        rep = VerificationReport("demo", "pass", {"overlap": 0.25}, "fine")
        assert VerificationReport.from_dict(rep.to_dict()) == rep

    def test_fail_needs_inequality_in_details(self, spin_trio):
        # any fail verdict produced by the checks cites the violated bound
        meter, probes = builtin_multimeter("spin_pair", observables=spin_trio[:2])
        rep = check_sharp_program_orthogonality(meter, probes[0], probes[1], tol=0.0)
        assert rep.verdict == "pass"


class TestSharpOrthogonality:
    def test_spin_pair_passes(self, spin_trio):
        meter, probes = builtin_multimeter("spin_pair", observables=(spin_trio[0], spin_trio[2]))
        rep = check_sharp_program_orthogonality(meter, probes[0], probes[1])
        assert rep.verdict == "pass"
        assert rep.residuals["overlap"] == 0.0

    def test_equal_observables_not_applicable(self, spin_trio):
        meter, probes = builtin_multimeter("spin_pair", observables=(spin_trio[0], spin_trio[2]))
        rep = check_sharp_program_orthogonality(meter, probes[0], probes[0])
        assert rep.verdict == "not_applicable"
        assert "not distinct" in rep.details

    def test_pauli_without_kernels_not_applicable(self):
        # the non-orthogonal spin programming exists only with post-processing
        meter, probes = builtin_multimeter("pauli")
        rep = check_sharp_program_orthogonality(meter, probes[0], probes[2])
        assert rep.verdict == "not_applicable"
        assert rep.residuals["overlap"] == pytest.approx(0.5)
        assert rep.residuals["sharpness_residual_1"] > 1e-3

    def test_never_fails_on_random_normal_meters(self):
        # the theorem as an executable invariant
        rng = np.random.default_rng(99)
        basis4 = np.eye(4, dtype=complex)
        pointer = make_observable(2, (1, 2), [np.diag([1.0, 0]), np.diag([0, 1.0])])
        for _ in range(50):
            g = haar_unitary(4, rng)
            meter = make_multimeter(2, 2, pointer, make_channel([g]))
            phi1 = random_state_vector(2, rng)
            phi2 = random_state_vector(2, rng)
            rep = check_sharp_program_orthogonality(meter, phi1, phi2)
            assert rep.verdict != "fail"

    def test_fail_surfaces_on_forged_inputs(self, spin_trio):
        # force the pass tolerance to zero on an honest pass case to see the
        # failure path formatting (overlap 0 <= 0 still passes), then lie
        # about the tolerance sign to trip it
        meter, probes = builtin_multimeter("spin_pair", observables=(spin_trio[0], spin_trio[2]))
        rep = check_sharp_program_orthogonality(meter, probes[0], probes[1], tol=-1.0)
        assert rep.verdict == "fail"
        assert "violated" in rep.details


class TestChannelOrthogonality:
    def test_push_button_passes(self):
        meter, probes = push_button_multimeter(
            [identity_channel(2), unitary_channel(PAULI[1])]
        )
        rep = check_channel_program_orthogonality(meter, probes[0], probes[1])
        assert rep.verdict == "pass"
        assert rep.residuals["overlap"] == 0.0

    def test_swap_contractions_not_applicable(self, rng):
        # extreme but non-unitary devices escape the hypotheses even with
        # non-orthogonal programs
        meter, _ = builtin_multimeter("swap", dim=2)
        phi1 = np.array([1.0, 0.0], dtype=complex)
        phi2 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        rep = check_channel_program_orthogonality(meter, phi1, phi2)
        assert rep.verdict == "not_applicable"
        assert rep.residuals["overlap"] == pytest.approx(1 / np.sqrt(2))
        assert rep.residuals["device_distance"] > 1e-3

    def test_equal_channels_not_applicable(self, rng):
        u = haar_unitary(2, rng)
        pointer = make_observable(2, (1, 2), [np.diag([1.0, 0]), np.diag([0, 1.0])])
        meter = make_multimeter(2, 2, pointer, make_channel([tensor(u, np.eye(2))]))
        rep = check_channel_program_orthogonality(
            meter, random_state_vector(2, rng), random_state_vector(2, rng)
        )
        assert rep.verdict == "not_applicable"
        assert "not distinct" in rep.details

    def test_never_fails_on_random_normal_meters(self):
        rng = np.random.default_rng(123)
        pointer = make_observable(2, (1, 2), [np.diag([1.0, 0]), np.diag([0, 1.0])])
        for _ in range(30):
            g = haar_unitary(4, rng)
            meter = make_multimeter(2, 2, pointer, make_channel([g]))
            rep = check_channel_program_orthogonality(
                meter, random_state_vector(2, rng), random_state_vector(2, rng)
            )
            assert rep.verdict != "fail"

    def test_extended_unitary_extreme_branch(self, rng):
        # selector chooses between a unitary slot and a swap (contraction) slot;
        # the induced pair is (unitary, extreme non-unitary) on a normal meter
        u = haar_unitary(2, rng)
        swap = builtin_multimeter("swap", dim=2)[0].coupling
        sel = np.eye(2, dtype=complex)
        g = tensor(tensor(u, np.eye(2)), projector(sel[0])) + tensor(swap, projector(sel[1]))
        basis = np.eye(4, dtype=complex)
        pointer = make_observable(4, (1, 2, 3, 4), [projector(basis[i]) for i in range(4)])
        meter = make_multimeter(2, 4, pointer, make_channel([g]))
        assert meter.normal
        psi = random_state_vector(2, rng)
        phi1 = np.kron(psi, sel[0])
        phi2 = np.kron(psi, sel[1])
        rep = check_channel_program_orthogonality(meter, phi1, phi2)
        assert rep.verdict == "pass"
        assert "extreme" in rep.details


class TestOrthogonalityInduction:
    @pytest.mark.parametrize("kind", ["observable", "channel"])
    def test_one_stacked_induction(self, monkeypatch, kind):
        # both probes' components go side by side into one stacked call, the
        # narrower zero-padded to the wider, with no per-probe induction
        meter, probes = push_button_multimeter(
            [unitary_channel(haar_unitary(2, np.random.default_rng(s))) for s in range(3)])
        phi2 = np.diag([0.0, 0.25, 0.75]).astype(complex)
        check = {"observable": check_sharp_program_orthogonality,
                 "channel": check_channel_program_orthogonality}[kind]
        want = check(meter, probes[0], phi2)
        stacks, devices = [], []
        induce = verify._induced_stack
        monkeypatch.setattr(verify, "_induced_stack", lambda m, psis, probes, **k: stacks.append(
            (psis.copy(), probes, k)) or induce(m, psis, probes, **k))
        for name in ("induced_observable", "induced_channel"):
            monkeypatch.setattr(verify, name, lambda model: devices.append(model))
        rep = check(meter, probes[0], phi2)
        assert (rep.verdict, rep.residuals, rep.details) == (want.verdict, want.residuals,
                                                             want.details)
        assert devices == [] and len(stacks) == 1
        psis, count, options = stacks[0]
        assert count == 2 and options == {"channel": kind == "channel"}
        assert psis.shape == (3, 4)
        assert np.array_equal(psis[:, 0], probes[0]) and not psis[:, 1].any()
        assert np.array_equal(psis[:, 2:], make_model(meter, phi2)._components)

    def test_pure_probes_are_not_padded(self, monkeypatch, spin_trio):
        meter, probes = builtin_multimeter("spin_pair", observables=(spin_trio[0], spin_trio[2]))
        stacks = []
        induce = verify._induced_stack
        monkeypatch.setattr(verify, "_induced_stack", lambda m, psis, probes, **k: stacks.append(
            psis.copy()) or induce(m, psis, probes, **k))
        assert check_sharp_program_orthogonality(meter, probes[0], probes[1]).verdict == "pass"
        assert len(stacks) == 1 and np.array_equal(stacks[0], np.stack(probes, axis=1))


class TestConvexHull:
    def test_push_button_channels(self):
        devices = [identity_channel(2), unitary_channel(PAULI[1])]
        meter, probes = push_button_multimeter(devices)
        rep = check_convex_hull(meter, list(zip(probes, devices)), trials=10, seed=3)
        assert rep.verdict == "pass"
        assert rep.residuals["max_pure_residual"] <= 1e-10
        assert rep.residuals["max_mixed_residual"] <= 1e-10

    def test_device_choi_matrices_formed_once(self, monkeypatch):
        # each declared channel becomes a Choi matrix once; the basis probes are
        # one stacked induction and each chunk of drawn probes one more, with no
        # model made for a drawn probe
        devices = [unitary_channel(u) for u in (PAULI[0], PAULI[1], PAULI[3])]
        meter, probes = push_button_multimeter(devices)
        programmed = list(zip(probes, devices))
        want = check_convex_hull(meter, programmed, trials=4, seed=3)
        choi, induce, model = verify.choi_matrix, verify._induced_stack, verify.make_model
        # one chunk of 4 trials, then a budget of one trial per chunk
        for budget, chunks in ((None, 1), (1, 4)):
            if budget is not None:
                monkeypatch.setattr(verify, "_HULL_CHUNK_ELEMENTS", budget)
            seen, stacks, models = [], [], []
            monkeypatch.setattr(verify, "choi_matrix", lambda c: seen.append(c) or choi(c))
            monkeypatch.setattr(verify, "_induced_stack", lambda m, psis, *a, **k: (
                stacks.append(psis.shape) or induce(m, psis, *a, **k)))
            monkeypatch.setattr(verify, "make_model", lambda *a: models.append(a) or model(*a))
            rep = check_convex_hull(meter, programmed, trials=4, seed=3)
            assert len(seen) == 3 and all(c is d for c, d in zip(seen, devices))
            assert len(models) == 3
            # the basis, then each chunk's pure and mixed probes, dim_k = 3 columns each
            assert stacks == [(3, 3)] + [(3, 2 * 3 * 4 // chunks)] * chunks
            assert rep.residuals == want.residuals and rep.verdict == "pass"

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_tests_nothing(self, no_draws, trials):
        devices = [identity_channel(2), unitary_channel(PAULI[1])]
        meter, probes = push_button_multimeter(devices)
        rep = check_convex_hull(meter, list(zip(probes, devices)), trials=trials, seed=3)
        assert rep.verdict == "not_applicable"
        assert "nothing was tested" in rep.details
        assert set(rep.residuals) == {"basis_residual"}

    def test_spin_pair_observables(self, spin_trio):
        s1, _, s3 = spin_trio
        meter, probes = builtin_multimeter("spin_pair", observables=(s1, s3))
        rep = check_convex_hull(meter, [(probes[0], s1), (probes[1], s3)], trials=10, seed=4)
        assert rep.verdict == "pass"

    def test_balanced_program_is_even_mixture(self, spin_trio):
        s1, _, s3 = spin_trio
        meter, probes = builtin_multimeter("spin_pair", observables=(s1, s3))
        psi = (probes[0] + probes[1]) / np.sqrt(2)
        obs = induced_observable(make_model(meter, psi))
        assert observable_distance(obs, mix(0.5, s1, s3)) <= 1e-12

    def test_probe_count_mismatch_raises(self, spin_trio):
        s1, _, s3 = spin_trio
        meter, probes = builtin_multimeter("spin_pair", observables=(s1, s3))
        with pytest.raises(ValidationError, match="apparatus dimension"):
            check_convex_hull(meter, [(probes[0], s1)], trials=5, seed=0)

    def test_mixed_device_kinds_raise(self, spin_trio):
        s1, _, s3 = spin_trio
        meter, probes = builtin_multimeter("spin_pair", observables=(s1, s3))
        with pytest.raises(ValidationError, match="all observables or all channels"):
            check_convex_hull(meter, [(probes[0], s1), (probes[1], identity_channel(2))], seed=0)

    def test_devices_mix_by_outcome_label(self):
        s = spin_observable((0, 0, 1))
        meter, probe = minimal_dilation_multimeter(s)
        other = np.array([-probe[1].conj(), probe[0].conj()])
        swapped = induced_observable(make_model(meter, other))
        assert observable_distance(swapped, s) > 1.0
        # the same observables with their outcomes listed in reverse order
        swapped_reversed = make_observable(2, swapped.outcomes[::-1], swapped.effects[::-1])
        s_reversed = make_observable(2, s.outcomes[::-1], s.effects[::-1])
        assert observable_distance(swapped_reversed, swapped) == 0.0
        rep = check_convex_hull(meter, [(probe, s), (other, swapped_reversed)], trials=5, seed=1)
        assert rep.verdict == "pass"
        rep = check_convex_hull(meter, [(probe, s), (other, s_reversed)], trials=5, seed=1)
        assert rep.verdict == "not_applicable"
        assert rep.residuals["basis_residual"] > 1.0

    def test_observables_with_other_labels_raise(self, spin_trio):
        s1, _, s3 = spin_trio
        meter, probes = builtin_multimeter("spin_pair", observables=(s1, s3))
        relabelled = make_observable(2, ("a", "b"), s3.effects)
        with pytest.raises(ValidationError, match="outcome labels"):
            check_convex_hull(meter, [(probes[0], s1), (probes[1], relabelled)], trials=2, seed=0)

    def test_observable_mixtures_are_summed_on_the_stacks(self, monkeypatch):
        # declared observables become effect stacks in the pointer's outcome order,
        # so listing their outcomes in another order changes no residual, and no
        # observable is built for a mixture
        parts = [minimal_dilation_multimeter(spin_observable(axis)) for axis in ((1, 0, 0), (0, 0, 1))]
        meter, _ = push_button_multimeter(parts)
        programmed, reversed_ = [], []
        for i, e in enumerate(np.eye(meter.dim_k, dtype=complex)):
            device = induced_observable(make_model(meter, e))
            programmed.append((e, device))
            if i % 2:  # the same observable with its outcomes listed in reverse order
                device = make_observable(device.dim, device.outcomes[::-1], device.effects[::-1])
            reversed_.append((e, device))
        arrays = verify._observable_arrays(meter, [d for _, d in reversed_])
        assert np.array_equal(arrays, np.stack([d.effects for _, d in programmed]))

        calls = []
        with monkeypatch.context() as patch:
            for module in (observables, multimeter, verify):
                patch.setattr(module, "make_observable", lambda *a, **k: calls.append(a), raising=False)
            rep = check_convex_hull(meter, reversed_, trials=4, seed=2)
        assert calls == []
        want = check_convex_hull(meter, programmed, trials=4, seed=2)
        assert rep.residuals == want.residuals and rep.verdict == want.verdict == "pass"
        assert rep.residuals["basis_residual"] == 0.0

    def test_observables_of_other_dimension_raise(self, spin_trio):
        s1, _, s3 = spin_trio
        meter, probes = builtin_multimeter("spin_pair", observables=(s1, s3))
        qutrit = make_observable(3, s1.outcomes, [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0])])
        with pytest.raises(DimensionError, match="share their dimension"):
            check_convex_hull(meter, [(probes[0], s1), (probes[1], qutrit)], trials=2, seed=0)

    def test_non_orthonormal_probes_raise(self, spin_trio):
        s1, _, s3 = spin_trio
        meter, probes = builtin_multimeter("spin_pair", observables=(s1, s3))
        tilted = (probes[0] + probes[1]) / np.sqrt(2)
        with pytest.raises(ValidationError, match="orthonormal"):
            check_convex_hull(meter, [(probes[0], s1), (tilted, s3)], trials=5, seed=0)

    def test_basis_read_from_probe_components(self, spin_trio):
        # basis probes given as projectors are their own components; a mixed
        # one has two, so its basis is not orthonormal
        s1, _, s3 = spin_trio
        meter, probes = builtin_multimeter("spin_pair", observables=(s1, s3))
        vectors = check_convex_hull(meter, [(probes[0], s1), (probes[1], s3)], trials=3, seed=4)
        projectors = [(projector(probes[0]), s1), (projector(probes[1]), s3)]
        rep = check_convex_hull(meter, projectors, trials=3, seed=4)
        assert rep.verdict == vectors.verdict == "pass"
        for key, value in vectors.residuals.items():
            assert abs(rep.residuals[key] - value) <= 1e-15, key
        mixed = 0.5 * projector(probes[0]) + 0.5 * projector(probes[1])
        with pytest.raises(ValidationError, match="orthonormal"):
            check_convex_hull(meter, [(mixed, s1), (probes[1], s3)], trials=2, seed=0)


class TestPurification:
    def test_unitary_coupling_any_mixed_probe(self, rng):
        u = haar_unitary(2, rng)
        pointer = make_observable(3, (1, 2, 3), [projector(np.eye(3, dtype=complex)[i]) for i in range(3)])
        meter = make_multimeter(2, 3, pointer, make_channel([tensor(u, np.eye(3))]))
        xi = np.diag([0.5, 0.3, 0.2]).astype(complex)
        rep = check_purification(meter, xi, kind="channel")
        assert rep.verdict == "pass"
        assert rep.residuals["probe_rank"] == 3.0

    def test_probe_independent_sharp_observable(self, spin_trio):
        meter = prepare_then_couple_meter(spin_trio[2])
        xi = np.diag([0.6, 0.4]).astype(complex)
        rep = check_purification(meter, xi, kind="observable")
        assert rep.verdict == "pass"

    def test_non_extreme_device_reports_decomposition(self, spin_trio):
        meter, _ = minimal_dilation_multimeter(spin_trio[2])
        xi = np.diag([0.5, 0.5]).astype(complex)
        rep = check_purification(meter, xi, kind="observable")
        assert rep.verdict == "not_applicable"
        assert "decomposition" in rep.details

    @pytest.mark.parametrize(
        "kind, distance", [("observable", "observable_distance"), ("channel", "channel_distance")]
    )
    def test_one_distance_per_component(self, monkeypatch, spin_trio, kind, distance):
        # the mixture and its components are induced in one stacked call, the
        # mixture first and each normalised component padded to its width, with
        # no per-probe induction; the components are compared as arrays, and
        # the report cites one distance per component and the worst of them
        meter, _ = minimal_dilation_multimeter(spin_trio[2])
        calls, stacks, devices = [], [], []
        induce = verify._induced_stack
        monkeypatch.setattr(verify, distance, lambda a, b: calls.append((a, b)))
        monkeypatch.setattr(verify, "_induced_stack", lambda m, psis, probes, **k: stacks.append(
            (psis.copy(), probes)) or induce(m, psis, probes, **k))
        for name in ("induced_observable", "induced_channel"):
            monkeypatch.setattr(verify, name, lambda model: devices.append(model))
        probe = np.diag([0.5, 0.5]).astype(complex)
        rep = check_purification(meter, probe, kind=kind)
        assert rep.verdict == "not_applicable" and "decomposition" in rep.details
        assert calls == [] and devices == [] and len(stacks) == 1
        psis, probes = stacks[0]
        mixture = make_model(meter, probe)._components
        assert probes == 3 and psis.shape == (2, 6)
        assert np.array_equal(psis[:, :2], mixture)
        assert np.array_equal(psis[:, 2::2], mixture / np.linalg.norm(mixture, axis=0))
        assert not psis[:, 3::2].any()
        gaps = rep.details.split("[")[1].rstrip("]").split(", ")
        assert len(gaps) == rep.residuals["probe_rank"] == 2
        assert max(gaps, key=float) == f"{rep.residuals['max_component_distance']:.3e}"

    def test_unknown_kind_raises(self, spin_trio):
        meter, _ = minimal_dilation_multimeter(spin_trio[2])
        for kind in ("channels", 3, None):
            with pytest.raises(ValueError, match="kind must be"):
                check_purification(meter, np.diag([0.5, 0.5]).astype(complex), kind=kind)

    def test_pure_probe_not_applicable(self, spin_trio):
        meter, probe = minimal_dilation_multimeter(spin_trio[2])
        rep = check_purification(meter, probe, kind="observable")
        assert rep.verdict == "not_applicable"
        rank_one = np.outer(probe, probe.conj())
        rep = check_purification(meter, rank_one, kind="observable")
        assert rep.verdict == "not_applicable"

    @pytest.mark.parametrize(
        "probe, error, message",
        [
            ([[1, 0], [0, -0.2]], ValidationError, "negative eigenvalue -0.2"),
            ([[1, 5], [0, 0]], ValidationError, "not Hermitian"),
            ([[2, 0], [0, 0]], ValidationError, "trace 2.0 is not 1"),
            (np.diag([1.0, 0, 0]), DimensionError, "probe dimension 3, expected 2"),
            ([3, 0], ValidationError, "norm 3.0 is not 1"),
            (1.0, DimensionError, "vector or a density matrix"),
            (np.zeros((2, 2, 2)), DimensionError, "vector or a density matrix"),
        ],
        ids=["negative", "non-hermitian", "trace-2", "wrong-dimension", "vector-norm-3",
             "scalar", "3-d"],
    )
    @pytest.mark.parametrize("kind", ["observable", "channel"])
    def test_malformed_probe_raises_as_make_model_does(self, spin_trio, probe, error, message,
                                                      kind):
        meter, _ = minimal_dilation_multimeter(spin_trio[2])
        with pytest.raises(error, match=message):
            make_model(meter, probe)
        with pytest.raises(error, match=message):
            check_purification(meter, probe, kind=kind)


def batch_first(x):
    """A sample-minor search array with its sample axis moved to the front."""
    return np.moveaxis(x, -1, 0)


def sample_minor(x):
    """A batch-first search array in the search's sample-minor layout."""
    return np.moveaxis(x, 0, -1).copy()


def stacked_effects(q, a, dim_h):
    """``verify._stacked_effects`` of batch-first ``(T, ...)`` samples, batch-first."""
    return batch_first(verify._stacked_effects(sample_minor(q), sample_minor(a), dim_h))


def reference_search_stats(q, a, dim_h):
    """Search statistics of a batch-first chunk by the textbook formulas, one matrix at a time.

    ``q`` has shape ``(T, n, dim_h, m)`` and ``a`` shape ``(T, 2, m)``.  The
    effect of slot ``i`` is the Gram matrix ``B_i* B_i`` of the rows
    ``(r, i)`` of ``M = Q a_p``, by a stacked ``matmul``; the residuals are
    ``np.linalg.norm`` of ``E @ E - E`` and of ``E_1(i) - E_2(i)``.
    """
    t, n = q.shape[:2]
    m = np.einsum("tahk,tpk->tpah", q, a).reshape(t, a.shape[1], dim_h, n // dim_h, dim_h)
    slots = m.swapaxes(-2, -3)
    e = slots.conj().swapaxes(-1, -2) @ slots
    sharp = np.linalg.norm(e @ e - e, axis=(-2, -1)).max(axis=(1, 2))
    distance = np.linalg.norm(e[:, 0] - e[:, 1], axis=(-2, -1)).max(axis=1)
    overlap = np.abs(np.sum(a[:, 0].conj() * a[:, 1], axis=-1))
    return sharp, overlap, distance


SEARCH_CELLS = [(2, 2), (2, 3), (2, 4), (3, 3)]

#: Verdict, violations, qualifying and structured samples of 500-trial
#: searches, keyed by the thresholds and by (dim_h, dim_k, seed, refine): the
#: defaults, and thresholds that cut through the Haar samples' statistics.
PINNED_COUNTS = {
    (): {
        (2, 2, 0, False): ("pass", 0, 474, 26), (2, 2, 1, False): ("pass", 0, 478, 22),
        (2, 2, 2, False): ("pass", 0, 475, 25), (2, 3, 0, False): ("pass", 0, 482, 18),
        (2, 3, 1, False): ("pass", 0, 469, 31), (2, 3, 2, False): ("pass", 0, 479, 21),
        (2, 4, 0, False): ("pass", 0, 476, 24), (2, 4, 1, False): ("pass", 0, 474, 26),
        (2, 4, 2, False): ("pass", 0, 474, 26), (3, 3, 0, False): ("pass", 0, 473, 27),
        (3, 3, 1, False): ("pass", 0, 477, 23), (3, 3, 2, False): ("pass", 0, 471, 29),
        (2, 2, 0, True): ("pass", 0, 475, 26), (2, 2, 1, True): ("pass", 0, 479, 22),
        (2, 2, 2, True): ("pass", 0, 476, 25),
    },
    (("distance", 0.2), ("overlap", 0.5), ("sharp_residual", 0.25)): {
        (2, 2, 0, False): ("fail", 169, 309, 26), (2, 2, 1, False): ("fail", 139, 296, 22),
        (2, 2, 2, False): ("fail", 142, 275, 25), (2, 3, 0, False): ("fail", 12, 231, 18),
        (2, 3, 1, False): ("fail", 8, 246, 31), (2, 3, 2, False): ("fail", 18, 246, 21),
        (2, 4, 0, False): ("fail", 6, 207, 24), (2, 4, 1, False): ("fail", 3, 197, 26),
        (2, 4, 2, False): ("fail", 2, 200, 26), (3, 3, 0, False): ("pass", 0, 273, 27),
        (3, 3, 1, False): ("fail", 1, 263, 23), (3, 3, 2, False): ("pass", 0, 264, 29),
        (2, 2, 0, True): ("fail", 170, 310, 26), (2, 2, 1, True): ("fail", 140, 297, 22),
        (2, 2, 2, True): ("fail", 143, 276, 25),
    },
}


def search_chunk(monkeypatch, dim_h, dim_k, rate, seed):
    """One full sample-minor chunk of the search with structured samples at ``rate``."""
    monkeypatch.setattr(verify, "_STRUCTURED_RATE", rate)
    n = dim_h * dim_k
    size = min(verify._SEARCH_CHUNK, verify._SEARCH_CHUNK_ELEMENTS // n**2)
    return verify._draw_samples(dim_h, dim_k, size, np.random.default_rng(seed))


class TestSampleMinorKernel:
    @pytest.mark.parametrize("dim_h, dim_k", SEARCH_CELLS)
    @pytest.mark.parametrize("rate, thresholds", [
        (verify._STRUCTURED_RATE, {}),
        (1.0, {}),
        (1.0, {"overlap": 0.0}),
        (0.5, {"overlap": 0.0}),
    ], ids=["random", "structured", "structured-inversion", "mixed-inversion"])
    def test_kernel_matches_reference(self, monkeypatch, dim_h, dim_k, rate, thresholds):
        # the einsum kernel decides what the textbook formulas decide: the
        # same qualifying samples, violations and floor sample, with every
        # float within a few rounding errors
        thr = {**verify.DEFAULT_SEARCH_THRESHOLDS, **thresholds}
        for seed in range(3):
            q, a, count = search_chunk(monkeypatch, dim_h, dim_k, rate, seed)
            assert count > 0
            new = verify._search_stats(q, a, dim_h)
            old = reference_search_stats(batch_first(q), batch_first(a), dim_h)
            for x, y in zip(new, old):
                assert x.shape == y.shape == (q.shape[-1],)
                assert np.abs(x - y).max() <= 1e-14
            decisions = []
            for sharp, overlap, distance in (new, old):
                mask = (overlap >= thr["overlap"]) & (distance >= thr["distance"])
                idx = np.flatnonzero(mask)
                floor = sharp[idx].min() if idx.size else None
                violating = mask & (sharp <= thr["sharp_residual"])
                decisions.append((mask, violating, floor))
            (mask, violating, floor), (ref_mask, ref_violating, ref_floor) = decisions
            assert np.array_equal(mask, ref_mask) and np.array_equal(violating, ref_violating)
            if floor is None:
                assert ref_floor is None
                continue
            assert abs(floor - ref_floor) <= 1e-14
            idx = np.flatnonzero(mask)
            lowest = np.sort(old[0][idx])[:2]
            if lowest.size == 1 or lowest[1] - lowest[0] > 2e-14:
                # the reference orders the floor beyond rounding: the same sample
                assert idx[np.argmin(new[0][idx])] == idx[np.argmin(old[0][idx])]
            else:
                # a tie within rounding, among structured samples sharp to rounding
                assert floor <= 1e-14

    @pytest.mark.parametrize("dim_h, dim_k", SEARCH_CELLS)
    def test_sample_alone_equals_sample_in_its_chunk(self, monkeypatch, dim_h, dim_k):
        # the refined sample is compared with the chunk's floor, so a chunk of
        # one must give every sample's statistics bit for bit
        q, a, count = search_chunk(monkeypatch, dim_h, dim_k, 0.5, dim_h * dim_k)
        assert count > 0
        chunk = verify._search_stats(q, a, dim_h)
        for t in range(q.shape[-1]):
            alone = verify._search_stats(q[..., t : t + 1].copy(), a[..., t : t + 1].copy(), dim_h)
            for x, y in zip(alone, chunk):
                assert x.shape == (1,) and x[0] == y[t]

    def test_layout_draws_the_same_samples(self, monkeypatch):
        # the chunk is drawn as before and transposed once: moving the sample
        # axis back gives the sample-major draw of the same stream
        for dim_h, dim_k in SEARCH_CELLS:
            n, span = dim_h * dim_k, min(dim_k, 2)
            q, a, count = search_chunk(monkeypatch, dim_h, dim_k, 0.5, 1)
            t = q.shape[-1]
            assert q.shape == (n, dim_h, span, t) and a.shape == (2, span, t)
            assert q.flags.c_contiguous and a.flags.c_contiguous
            rng = np.random.default_rng(1)
            structured = (rng.random(t) < 0.5) & (dim_k >= 2)
            draw = haar_isometry(n, dim_h * span, rng, batch=(t,))
            phis = random_state_vector(dim_k, rng, batch=(t, 2))
            if dim_k > 2:
                phis = verify._probe_coordinates(phis)
            assert count == np.count_nonzero(structured)
            samples = batch_first(q)[~structured], batch_first(a)[~structured]
            assert np.array_equal(samples[0], draw[~structured].reshape(-1, n, dim_h, span))
            assert np.array_equal(samples[1], phis[~structured])


class TestCounterexampleSearch:
    @staticmethod
    def _full_path_effects(g, dim_h, dim_k, probes):
        """Effects of each probe through the general machinery, for a coupling ``g``."""
        basis = np.eye(dim_k, dtype=complex)
        labels = tuple(range(1, dim_k + 1))
        pointer = make_observable(dim_k, labels, [projector(b) for b in basis])
        meter = make_multimeter(dim_h, dim_k, pointer, make_channel([g]))
        for phi in probes:
            obs = induced_observable(make_model(meter, phi))
            yield np.array([obs.effect(k) for k in labels])

    def test_fast_induction_matches_full_path(self, monkeypatch, rng):
        # the search's (Q, a) samples induce exactly what the full coupling
        # induces: Q = g (I (x) [u1 u2]) for an orthonormal pair spanning the
        # probes, with a the probes' coordinates -- for random, parallel and
        # structured probe pairs
        from qmultimeter.verify import _draw_samples, _probe_coordinates

        couplings, structured_couplings = [], verify._structured_couplings

        def recorded(*args):
            couplings.append(structured_couplings(*args))
            return couplings[-1]

        monkeypatch.setattr(verify, "_structured_couplings", recorded)
        monkeypatch.setattr(verify, "_STRUCTURED_RATE", 1.0)
        for dim_h, dim_k in [(2, 3), (3, 3), (2, 4)]:
            n = dim_h * dim_k
            g = haar_unitary(n, rng, batch=(3,))
            phis = random_state_vector(dim_k, rng, batch=(3, 2))
            phis[2, 1] = np.exp(0.3j) * phis[2, 0]
            a = _probe_coordinates(phis)
            for t in range(3):
                u1 = phis[t, 0]
                rest = phis[t, 1] - np.vdot(u1, phis[t, 1]) * u1
                if np.linalg.norm(rest) < 1e-8:  # parallel pair: any orthogonal u2 will do
                    rest = random_state_vector(dim_k, rng)
                    rest -= np.vdot(u1, rest) * u1
                u = np.stack([u1, rest / np.linalg.norm(rest)], axis=1)
                q = np.einsum("ahk,kj->ahj", g[t].reshape(n, dim_h, dim_k), u)
                effects = stacked_effects(q[None], a[t][None], dim_h)[0]
                for p, full in enumerate(self._full_path_effects(g[t], dim_h, dim_k, phis[t])):
                    assert np.linalg.norm(full - effects[p]) <= 1e-12

            q, a, count = _draw_samples(dim_h, dim_k, 2, rng)
            q, a = batch_first(q), batch_first(a)
            assert count == 2 and np.array_equal(a, np.broadcast_to(np.eye(2), (2, 2, 2)))
            effects = stacked_effects(q, a, dim_h)
            for t, g in enumerate(couplings[-1]):
                for p, full in enumerate(self._full_path_effects(g, dim_h, dim_k, np.eye(dim_k)[:2])):
                    assert np.linalg.norm(full - effects[t, p]) <= 1e-12

    def test_isometry_samples_match_full_coupling_moments(self, monkeypatch):
        # by Haar invariance the isometry on the probe span induces the same
        # distribution as a whole coupling: the mean of tr E(i)^2 agrees
        from qmultimeter import multimeter, observables, verify
        from qmultimeter.verify import _draw_samples

        dim_h, dim_k, count = 2, 3, 20_000
        rng = np.random.default_rng(2024)
        g = haar_unitary(dim_h * dim_k, rng, batch=(count,))
        phis = random_state_vector(dim_k, rng, batch=(count, 2))
        full = stacked_effects(g.reshape(count, -1, dim_h, dim_k), phis, dim_h)
        monkeypatch.setattr(verify, "_STRUCTURED_RATE", 0.0)
        q, a, structured = _draw_samples(dim_h, dim_k, count, rng)
        assert structured == 0 and q.shape == (dim_h * dim_k, dim_h, 2, count)
        reduced = stacked_effects(batch_first(q), batch_first(a), dim_h)
        purities = []
        for e in (full, reduced):
            x = np.einsum("tpiab,tpiba->tpi", e, e).real.reshape(count, -1)
            purities.append((x.mean(axis=0), x.std(axis=0) / np.sqrt(count)))
        (m1, se1), (m2, se2) = purities
        assert np.all(np.abs(m1 - m2) <= 5 * np.hypot(se1, se2))

    def test_structured_couplings_stay_within_one_coupling_of_memory(self, rng):
        # with dim_k >> dim_h only min(dim_h, dim_k) transpositions are
        # needed; stacking all dim_k of them would take 256 MB here
        import tracemalloc

        from qmultimeter.verify import _structured_couplings

        dim_h, dim_k = 2, 256
        n = dim_h * dim_k
        tracemalloc.start()
        try:
            g = _structured_couplings(dim_h, dim_k, 2, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * n * 16
        for u in g:
            assert np.linalg.norm(u @ u.conj().T - np.eye(n)) <= 1e-10
        phis = np.broadcast_to(np.eye(dim_k, dtype=complex)[:2], (2, 2, dim_k))
        e = stacked_effects(g.reshape(2, n, dim_h, dim_k), phis, dim_h)
        assert np.linalg.norm(e @ e - e) <= 1e-10
        assert np.linalg.norm(e[:, 0] - e[:, 1], axis=(-2, -1)).max(axis=1).min() > 0.5

    def test_chunk_boundary_counts_every_structured_pair(self):
        # across chunks, each structured pair is sharp, distinct and (with the
        # overlap threshold at zero) qualifying; no Haar pair is sharp
        from qmultimeter.verify import _SEARCH_CHUNK

        trials = 2 * _SEARCH_CHUNK + 37
        rep = counterexample_search(2, 2, trials, seed=3, thresholds={"overlap": 0.0})
        assert rep.verdict == "fail"
        assert rep.residuals["structured_samples"] > 0
        assert rep.residuals["violations"] == rep.residuals["structured_samples"]
        assert rep.residuals["qualifying_samples"] == trials
        assert counterexample_search(2, 2, trials, seed=3, thresholds={"overlap": 0.0}) == rep

    @pytest.mark.parametrize("dim_k, trials", [(2, 0), (2, -5), (1, 200)])
    def test_nothing_qualifies_not_applicable(self, dim_k, trials):
        rep = counterexample_search(2, dim_k, trials, seed=4)
        assert rep.verdict == "not_applicable"
        assert rep.residuals["qualifying_samples"] == 0.0
        # a one-dimensional apparatus has no orthogonal basis pair to draw
        assert rep.residuals["structured_samples"] == 0.0
        assert rep.residuals["violations"] == 0.0
        assert "best_sharp_residual" not in rep.residuals

        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        text = emit_report([rep], "structured")
        assert json.loads(text, parse_constant=reject)["reports"][0]["verdict"] == "not_applicable"
        assert parse_report(text) == [rep]

    @pytest.mark.parametrize("dim_h, dim_k", [(64, 65), (1, DIMENSION_CAP + 1), (0, 2), (2, -1)])
    def test_dimensions_checked_before_sampling(self, monkeypatch, dim_h, dim_k):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the search sampled before checking its dimensions")

        for sampler in ("haar_isometry", "haar_unitary", "random_state_vector"):
            monkeypatch.setattr(f"qmultimeter.verify.{sampler}", no_sampling)
        with pytest.raises(DimensionError):
            counterexample_search(dim_h, dim_k, 1, seed=0)

    @pytest.mark.parametrize(
        "thresholds, match",
        [({"overlapp": 0.0}, "unknown search threshold 'overlapp'; known: \\['sharp_residual'"),
         ({"overlap": float("nan")}, "'overlap' must be finite"),
         ({"distance": float("inf")}, "'distance' must be finite"),
         ({"sharp_residual": -float("inf")}, "'sharp_residual' must be finite")],
        ids=["unknown-key", "nan", "inf", "minus-inf"],
    )
    def test_thresholds_checked_before_sampling(self, monkeypatch, thresholds, match):
        # an unknown key would otherwise be ignored, and a NaN overlap
        # qualifies no sample; both are refused before any draw
        def no_sampling(*args, **kwargs):
            raise AssertionError("the search sampled before checking its thresholds")

        monkeypatch.setattr(np.random, "default_rng", no_sampling)
        with pytest.raises(ValidationError, match=match):
            counterexample_search(2, 2, 10, seed=0, thresholds=thresholds)

    def test_trials_capped_before_sampling(self, monkeypatch):
        devices = [identity_channel(2), unitary_channel(PAULI[1])]
        meter, probes = push_button_multimeter(devices)

        def no_sampling(*args, **kwargs):
            raise AssertionError("a sample was drawn past the trials cap")

        monkeypatch.setattr(np.random, "default_rng", no_sampling)
        with pytest.raises(ValidationError, match="cap"):
            counterexample_search(2, 2, MAX_TRIALS + 1, seed=0)
        with pytest.raises(ValidationError, match="cap"):
            check_convex_hull(meter, list(zip(probes, devices)), trials=MAX_TRIALS + 1)

    def test_default_thresholds_pass(self):
        rep = counterexample_search(2, 2, 1500, seed=7)
        assert rep.verdict == "pass"
        assert rep.residuals["violations"] == 0.0
        # qualifying samples exist and stay far from sharpness
        assert rep.residuals["best_sharp_residual"] > 1e-3
        assert 0 < rep.residuals["qualifying_samples"] <= 1500

    def test_deterministic_given_seed(self):
        rep1 = counterexample_search(2, 3, 300, seed=21)
        rep2 = counterexample_search(2, 3, 300, seed=21)
        assert rep1 == rep2

    def test_zero_overlap_threshold_flags_orthogonal_pairs(self):
        rep = counterexample_search(2, 2, 400, seed=1, thresholds={"overlap": 0.0})
        assert rep.verdict == "fail"
        assert rep.residuals["violations"] > 0
        assert "violated" in rep.details

    def test_refinement_keeps_verdict(self):
        rep = counterexample_search(2, 2, 300, seed=5, refine=True)
        assert rep.verdict == "pass"

    @pytest.mark.parametrize(
        "trials, seed, refine, residuals, details",
        [
            (500, 11, False,
             {"best_sharp_residual": 0.024952935550004204, "overlap_at_best": 0.9643053266626338,
              "distance_at_best": 0.03235656677890916, "violations": 0.0,
              "qualifying_samples": 472.0, "structured_samples": 28.0},
             "500 samples, 472 qualifying, no violation; empirical sharpness floor 2.495e-02"),
            (300, 5, True,
             {"best_sharp_residual": 0.018691892669412687, "overlap_at_best": 0.6944214563677712,
              "distance_at_best": 0.21443784559885212, "violations": 0.0,
              "qualifying_samples": 283.0, "structured_samples": 18.0},
             "300 samples, 283 qualifying, no violation; empirical sharpness floor 1.869e-02"),
        ],
        ids=["pass", "refine"],
    )
    def test_two_dimensional_apparatus_reports_pinned(self, trials, seed, refine, residuals, details):
        # with dim_k = 2 the sample is the whole coupling and the probes
        # themselves, so the stream and every digit of the report are fixed
        rep = counterexample_search(2, 2, trials, seed=seed, refine=refine)
        assert rep == VerificationReport("counterexample_search", "pass", residuals, details)

    @pytest.mark.parametrize("thresholds", list(PINNED_COUNTS), ids=["default", "cut"])
    def test_counts_pinned(self, thresholds):
        # recorded with one LAPACK qr per stack: a draw kernel may move the
        # digits of a report, but no verdict or count
        for (dim_h, dim_k, seed, refine), pinned in PINNED_COUNTS[thresholds].items():
            rep = counterexample_search(
                dim_h, dim_k, 500, seed, thresholds=dict(thresholds), refine=refine
            )
            counts = (rep.residuals[k] for k in ("violations", "qualifying_samples", "structured_samples"))
            assert (rep.verdict, *counts) == pinned, (dim_h, dim_k, seed, refine)

    @pytest.mark.parametrize("dim_h, dim_k", [(2, 3), (3, 3)])
    def test_refinement_on_the_probe_span(self, dim_h, dim_k):
        rep = counterexample_search(dim_h, dim_k, 200, seed=8, refine=True)
        assert rep.verdict == "pass"
        assert rep.residuals["violations"] == 0.0
        assert rep.residuals["qualifying_samples"] > 0
        assert counterexample_search(dim_h, dim_k, 200, seed=8, refine=True) == rep


def loop_refine(q, a, thresholds, dim_h, rng):
    """The search refinement one proposal at a time: draw, score, accept if lower.

    The loop that ``verify._refine`` evaluates in batches, kept verbatim as
    its oracle.
    """

    def objective(q, a):
        sharp, overlap, distance = (x[0] for x in verify._search_stats(q, a, dim_h))
        return (
            sharp
            + 10.0 * max(0.0, thresholds["overlap"] - overlap)
            + 10.0 * max(0.0, thresholds["distance"] - distance)
        )

    best = objective(q, a)
    step = 0.1
    n, dim = len(q), q[0].size
    for _ in range(verify._REFINE_STEPS):
        move = rng.integers(0, 3)
        cand_q, cand_a = q, a
        if move < 2:
            cand_a = a.copy()
            j = rng.integers(0, a.shape[1])
            cand_a[move, j] += step * (rng.normal() + 1j * rng.normal())
            cand_a[move] /= np.linalg.norm(cand_a[move])
        else:
            h = np.zeros((dim, dim), dtype=complex)
            i, j = rng.integers(0, dim, size=2)
            z = rng.normal() + 1j * rng.normal()
            h[i, j] += z
            h[j, i] += np.conj(z)
            eigvals, vecs = np.linalg.eigh(h)
            u = (vecs * np.exp(1j * step * eigvals)) @ vecs.conj().T
            cand_q = (q.reshape(n, dim) @ u).reshape(q.shape)
        val = objective(cand_q, cand_a)
        if val < best:
            best, q, a = val, cand_q, cand_a
        step *= verify._REFINE_DECAY
    return q, a


#: Thresholds at which the objective's overlap and distance penalties act.
CUT_THRESHOLDS = dict(next(t for t in PINNED_COUNTS if t))

#: ROADMAP item 1's search witness and its report: a near-sharp refined sample.
SEARCH_WITNESS = (2, 2, 500, 1790107389)
SEARCH_WITNESS_RESIDUALS = {
    "best_sharp_residual": 8.972541282403012e-07, "overlap_at_best": 0.00104158992909345,
    "distance_at_best": 1.2862981358110077, "violations": 1.0,
    "qualifying_samples": 474.0, "structured_samples": 27.0,
}


class TestBatchedRefinement:
    @pytest.mark.parametrize("dim_h, dim_k", SEARCH_CELLS)
    @pytest.mark.parametrize("thresholds", [{}, CUT_THRESHOLDS], ids=["default", "cut"])
    def test_refined_sample_is_the_loops_bit_for_bit(self, monkeypatch, dim_h, dim_k, thresholds):
        # every proposal the batches score is the loop's, and the first that
        # lowers the objective is the loop's next acceptance; half the samples
        # are structured, with exact zeros in Q
        monkeypatch.setattr(verify, "_STRUCTURED_RATE", 0.5)
        thr = {**verify.DEFAULT_SEARCH_THRESHOLDS, **thresholds}
        for seed in range(3):
            q, a, _ = verify._draw_samples(dim_h, dim_k, 2, np.random.default_rng(seed))
            for t in range(2):
                sample = q[..., t : t + 1].copy(), a[..., t : t + 1].copy()
                loop_rng, rng = np.random.default_rng(seed + 7), np.random.default_rng(seed + 7)
                expected = loop_refine(*sample, thr, dim_h, loop_rng)
                refined = verify._refine(*sample, thr, dim_h, rng)
                for x, y in zip(refined, expected):
                    assert x.shape == y.shape and x.tobytes() == y.tobytes()
                assert rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("dim_h, dim_k", SEARCH_CELLS)
    def test_refined_reports_are_the_loops(self, monkeypatch, dim_h, dim_k):
        for seed in range(3):
            for thresholds in ({}, CUT_THRESHOLDS):
                args = (dim_h, dim_k, 200, seed, thresholds)
                report = counterexample_search(*args, refine=True)
                with monkeypatch.context() as patch:
                    patch.setattr(verify, "_refine", loop_refine)
                    expected = counterexample_search(*args, refine=True)
                assert emit_report([report], "structured") == emit_report([expected], "structured")

    @pytest.mark.parametrize("refine", [verify._refine, loop_refine], ids=["batched", "loop"])
    def test_search_witness_keeps_its_residuals(self, monkeypatch, refine):
        monkeypatch.setattr(verify, "_refine", refine)
        rep = counterexample_search(*SEARCH_WITNESS, refine=True)
        assert (rep.verdict, rep.residuals) == ("fail", SEARCH_WITNESS_RESIDUALS)


BOUND_REASON = (
    "ROADMAP item 1: a near-sharp pair within |c| ||A_1 - A_2|| <= sqrt(eps_1) + sqrt(eps_2) "
    "is reported as fail"
)


class TestFalseFailWitnesses:
    """ROADMAP item 1's witnesses: programs that overlap no more than the
    Nielsen-Chuang bound with its remainders allows, so ``fail`` is false.
    Each reads ``fail`` today; the markers come off when the verdict follows
    the bound."""

    @pytest.mark.xfail(strict=True, reason=BOUND_REASON)
    def test_observable_witness_passes(self):
        tilted = spin_observable((np.sin(0.1), 0, np.cos(0.1)))
        meter, _ = builtin_multimeter("spin_pair", observables=[spin_observable((0, 0, 1)), tilted])
        e0, e1 = np.eye(2)
        rep = check_sharp_program_orthogonality(meter, e0, 0.01 * e0 + np.sqrt(1 - 1e-4) * e1)
        assert rep.verdict == "pass"

    @pytest.mark.xfail(strict=True, reason=BOUND_REASON)
    def test_channel_witness_passes(self):
        c, s = np.cos(0.1), np.sin(0.1)
        meter, _ = push_button_multimeter([identity_channel(2), unitary_channel([[c, -s], [s, c]])])
        phi2 = np.array([1e-3, np.sqrt(1 - 1e-6)])
        rep = check_channel_program_orthogonality(meter, np.array([1.0, 0.0]), phi2)
        assert rep.verdict == "pass"

    @pytest.mark.xfail(strict=True, reason=BOUND_REASON)
    def test_search_witness_passes(self):
        assert counterexample_search(*SEARCH_WITNESS, refine=True).verdict == "pass"


PURIFICATION_REASON = (
    "ROADMAP item 1b: a component too light to show in the mixture's spectrum "
    "is compared at the pass tolerance and reported as fail"
)


def near_pure_dilation(lam):
    """The minimal dilation of spin z with the probe diag(1 - lam, lam)."""
    meter, _ = minimal_dilation_multimeter(spin_observable((0, 0, 1)))
    return meter, np.diag([1 - lam, lam]).astype(complex)


def near_pure_shared_pointer(theta, lam):
    """Spin z and spin (sin theta, 0, cos theta) on one pointer; probe (1 - lam) P_0 + lam P_1."""
    tilted = spin_observable((np.sin(theta), 0, np.cos(theta)))
    meter, probes = shared_pointer_multimeter([spin_observable((0, 0, 1)), tilted])
    return meter, (1 - lam) * projector(probes[0]) + lam * projector(probes[1])


class TestFalsePurificationFailWitnesses:
    """ROADMAP item 1b's witnesses: valid probes near a pure state whose light
    component deviates by 1.414 (the dilation) or by 0.0707, 0.00707 and
    0.000707 (the shared pointer), reported as ``fail``.  The markers come
    off when the verdict follows a bound."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=PURIFICATION_REASON)
    @pytest.mark.parametrize("lam", [2e-12, 1e-10, 1e-9])
    def test_near_pure_dilation_is_no_violation(self, lam):
        assert check_purification(*near_pure_dilation(lam)).verdict != "fail"

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=PURIFICATION_REASON)
    @pytest.mark.parametrize("theta, lam", [(0.1, 1e-8), (0.01, 1e-6), (0.001, 1e-4)])
    def test_near_pure_shared_pointer_is_no_violation(self, theta, lam):
        assert check_purification(*near_pure_shared_pointer(theta, lam)).verdict != "fail"

    @pytest.mark.parametrize("lam", [1e-13, 1e-8])
    def test_near_pure_dilation_controls(self, lam):
        # below the component cutoff, and heavy enough to make the mixture non-extreme
        assert check_purification(*near_pure_dilation(lam)).verdict == "not_applicable"
