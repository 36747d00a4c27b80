import json

import numpy as np
import pytest

from qmultimeter import DIMENSION_CAP, PAULI, DimensionError, ValidationError
from qmultimeter.cli import emit_report, parse_report
from qmultimeter.channels import identity_channel, make_channel, unitary_channel
from qmultimeter.multimeter import (
    builtin_multimeter,
    induced_observable,
    make_model,
    make_multimeter,
    minimal_dilation_multimeter,
    push_button_multimeter,
)
from qmultimeter.observables import (
    make_observable,
    mix,
    observable_distance,
    spin_observable,
)
from qmultimeter.operators import (
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


class TestConvexHull:
    def test_push_button_channels(self):
        devices = [identity_channel(2), unitary_channel(PAULI[1])]
        meter, probes = push_button_multimeter(devices)
        rep = check_convex_hull(meter, list(zip(probes, devices)), trials=10, seed=3)
        assert rep.verdict == "pass"
        assert rep.residuals["max_pure_residual"] <= 1e-10
        assert rep.residuals["max_mixed_residual"] <= 1e-10

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

    def test_non_orthonormal_probes_raise(self, spin_trio):
        s1, _, s3 = spin_trio
        meter, probes = builtin_multimeter("spin_pair", observables=(s1, s3))
        tilted = (probes[0] + probes[1]) / np.sqrt(2)
        with pytest.raises(ValidationError, match="orthonormal"):
            check_convex_hull(meter, [(probes[0], s1), (tilted, s3)], trials=5, seed=0)


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


class TestCounterexampleSearch:
    def test_fast_induction_matches_full_path(self, rng):
        # every row of the search's stacked block computation agrees with the
        # general machinery, structured rows included
        from qmultimeter.verify import _stacked_effects, _structured_couplings

        for dim_h, dim_k in [(2, 3), (3, 3)]:
            g = haar_unitary(dim_h * dim_k, rng, batch=(3,))
            g[1] = _structured_couplings(dim_h, dim_k, 1, rng)[0]
            phis = random_state_vector(dim_k, rng, batch=(3, 2))
            phis[1] = np.eye(dim_k)[:2]
            effects = _stacked_effects(g, phis, dim_h, dim_k)
            basis = np.eye(dim_k, dtype=complex)
            labels = tuple(range(1, dim_k + 1))
            pointer = make_observable(dim_k, labels, [projector(b) for b in basis])
            for t in range(3):
                meter = make_multimeter(dim_h, dim_k, pointer, make_channel([g[t]]))
                for p in range(2):
                    obs = induced_observable(make_model(meter, phis[t, p]))
                    for k, block in enumerate(effects[t, p], start=1):
                        assert np.linalg.norm(obs.effect(k) - block) <= 1e-12

    def test_structured_couplings_stay_within_one_coupling_of_memory(self, rng):
        # with dim_k >> dim_h only min(dim_h, dim_k) transpositions are
        # needed; stacking all dim_k of them would take 256 MB here
        import tracemalloc

        from qmultimeter.verify import _stacked_effects, _structured_couplings

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
        e = _stacked_effects(g, phis, dim_h, dim_k)
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

        monkeypatch.setattr("qmultimeter.verify.haar_unitary", no_sampling)
        with pytest.raises(DimensionError):
            counterexample_search(dim_h, dim_k, 1, seed=0)

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
