"""Both orthogonality checks and purification against their per-probe bodies.

Each check induces all its probes in one stacked product.  The bodies
below are the checks as they were when each probe was induced on its own,
kept verbatim but for the table of device kinds they read: one model and
one ``induced_observable`` / ``induced_channel`` call per probe, the
public residual and distance functions on the devices.  Both must give the
same verdict and details.

Where the stacked product adds the same terms in the same order as the
per-probe one, the residuals must be equal bit for bit: a coupling held as
its parts (programmed slot by slot), and basis or scaled-basis probes,
whose products have one nonzero term per entry.  On a dense coupling with
general probes the product's column count can move the last bits of a
BLAS product, so there the residuals must agree within ``ROUNDING * n *
eps``, ``n = dim H * dim K``, as in ``test_covariance.py``.
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from qmultimeter.channels import (
    _choi,
    channel_distance,
    identity_channel,
    is_extreme_channel,
    make_channel,
    multiplicativity_residual,
    unitary_channel,
)
from qmultimeter import ValidationError
from qmultimeter.cli import emit_report
from qmultimeter.multimeter import (
    _induced_stack,
    builtin_multimeter,
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
    is_extreme,
    make_observable,
    observable_distance,
    sharpness_residual,
    spin_observable,
)
from qmultimeter.operators import haar_unitary, projector, random_state_vector, tensor
from qmultimeter.verify import (
    DEVICE_KINDS,
    DISTINCT_TOL,
    SHARP_RESIDUAL_TOL,
    VerificationReport,
    _channel_arrays,
    _distances,
    _observable_arrays,
    _OVERLAP_TOL,
    _PROGRAM_TOL,
    check_channel_program_orthogonality,
    check_purification,
    check_sharp_program_orthogonality,
)

import textbook

#: Residuals on a dense coupling with general probes agree within this many ``n eps``.
ROUNDING = 8

#: The device kinds as the per-probe bodies read them.
LOOP_KINDS = {
    "observable": SimpleNamespace(
        induce=induced_observable,
        distance=observable_distance,
        defect=sharpness_residual,
        defect_key="sharpness_residual",
        ideal="sharp",
        extreme=is_extreme,
        arrays=_observable_arrays,
        induce_arrays=lambda m, psis, probes: _induced_stack(m, psis, probes, channel=False),
    ),
    "channel": SimpleNamespace(
        induce=induced_channel,
        distance=channel_distance,
        defect=multiplicativity_residual,
        defect_key="multiplicativity_residual",
        ideal="unitary",
        extreme=is_extreme_channel,
        arrays=_channel_arrays,
        induce_arrays=lambda m, psis, probes: _choi(_induced_stack(m, psis, probes, channel=True)),
    ),
}


def loop_program_orthogonality(name: str, kind: str, m, phi1, phi2, tol) -> VerificationReport:
    """Distinct ideal devices of one kind force orthogonal program vectors."""
    k = LOOP_KINDS[kind]
    model1, model2 = make_model(m, phi1), make_model(m, phi2)
    d1, d2 = k.induce(model1), k.induce(model2)
    res1, res2 = k.defect(d1), k.defect(d2)
    distance = k.distance(d1, d2)
    # ||Psi_1* Psi_2||_F = sqrt(tr(xi_1 xi_2)): |<phi_1|phi_2>| however a pure probe is written
    overlap = float(np.linalg.norm(model1._components.conj().T @ model2._components))
    residuals = {
        f"{k.defect_key}_1": res1,
        f"{k.defect_key}_2": res2,
        "device_distance": distance,
        "overlap": overlap,
    }
    ideal1, ideal2 = res1 <= SHARP_RESIDUAL_TOL, res2 <= SHARP_RESIDUAL_TOL
    if distance <= DISTINCT_TOL:
        return VerificationReport(
            name, "not_applicable", residuals, f"induced {kind}s are not distinct"
        )
    if ideal1 and ideal2:
        case = f"two distinct {k.ideal} {kind}s"
    elif m.normal and ((ideal1 and k.extreme(d2)) or (ideal2 and k.extreme(d1))):
        case = f"a {k.ideal} and an extreme {kind} on a normal multimeter"
    else:
        return VerificationReport(
            name,
            "not_applicable",
            residuals,
            f"hypotheses not met: fewer than two {k.ideal} (or {k.ideal}+extreme) {kind}s",
        )
    if overlap <= tol:
        return VerificationReport(name, "pass", residuals, f"{case}: program vectors orthogonal")
    return VerificationReport(
        name,
        "fail",
        residuals,
        f"violated: {case} programmed with overlap {overlap:.3e} > {tol:.3e}",
    )


def loop_check_purification(m, mixed_probe, tol=_PROGRAM_TOL, kind="observable"):
    """Extreme devices never need mixed probes."""
    name = "purification"
    k = LOOP_KINDS[kind]
    # a malformed probe raises here, as it does for any other use of the meter
    model = make_model(m, mixed_probe)
    if model.probe.ndim != 2:
        return VerificationReport(name, "not_applicable", {}, "probe is pure (a vector)")
    norms = np.linalg.norm(model._components, axis=0)
    kept = norms**2 > 1e-12
    if np.count_nonzero(kept) < 2:
        return VerificationReport(name, "not_applicable", {}, "probe has rank below 2")

    device = k.induce(model)
    extreme = k.extreme(device)
    psis = model._components[:, kept] / norms[kept]
    distances = _distances(k.induce_arrays(m, psis, psis.shape[1]) - k.arrays(m, [device]))
    worst = float(distances.max())
    residuals = {"max_component_distance": worst, "probe_rank": float(len(distances))}
    if not extreme:
        gaps = ", ".join(f"{d:.3e}" for d in distances)
        return VerificationReport(
            name,
            "not_applicable",
            residuals,
            f"induced {kind} is not extreme; convex decomposition components at distances [{gaps}]",
        )
    if worst <= tol:
        return VerificationReport(
            name,
            "pass",
            residuals,
            f"extreme {kind}: all {len(distances)} probe eigenvectors induce the same device",
        )
    return VerificationReport(
        name,
        "fail",
        residuals,
        f"violated: extreme {kind} but component deviates by {worst:.3e} > {tol:.3e}",
    )


CHECKS = {
    "observable": ("sharp_program_orthogonality", check_sharp_program_orthogonality),
    "channel": ("channel_program_orthogonality", check_channel_program_orthogonality),
}


#: A number as the reports print it.
NUMBER = re.compile(r"(\d\.\d{3}e[+-]\d+)")


def assert_same(report, want, meter, exact):
    """Equal verdicts; residuals and details equal bit for bit, or within ROUNDING n eps.

    Within the bound, a printed number of rounding size, such as a
    component's distance to the mixture, may differ from the per-probe one
    in its printed digits too, so the details are compared as text apart
    from their numbers, and the numbers as residuals are.
    """
    assert (report.check_name, report.verdict) == (want.check_name, want.verdict)
    assert list(report.residuals) == list(want.residuals)
    assert all(type(v) is float for v in report.residuals.values()), report.residuals
    if exact:
        assert report.details == want.details
        assert report.residuals == want.residuals
        assert emit_report([report], "structured") == emit_report([want], "structured")
        return
    bound = ROUNDING * meter.dim_h * meter.dim_k * np.finfo(float).eps
    for key, value in want.residuals.items():
        assert abs(report.residuals[key] - value) <= bound, (key, report.residuals[key], value)
    got, expected = NUMBER.split(report.details), NUMBER.split(want.details)
    assert got[::2] == expected[::2], (report.details, want.details)
    for a, b in zip(map(float, got[1::2]), map(float, expected[1::2])):
        assert abs(a - b) <= bound + 5e-4 * max(abs(a), abs(b)), (report.details, want.details)


# ---------------------------------------------------------------------------
# meters and probes


def spins(rng, count):
    axes = rng.normal(size=(count, 3))
    return [spin_observable(a / np.linalg.norm(a)) for a in axes]


def unitaries(rng, count):
    return [unitary_channel(haar_unitary(2, rng)) for _ in range(count)]


def trine_part():
    """Normal qutrit-apparatus meter whose probe ``e_0`` induces the qubit trine.

    The trine's effects are rank one, so it is extreme but not sharp.  The
    coupling's columns ``(c, 0)`` are the Lueders isometry
    ``sum_x sqrt(E_x) (x) |x>``, completed to a unitary.
    """
    angles = 2 * np.pi * np.arange(3) / 3
    kets = np.stack([np.cos(angles / 2), np.sin(angles / 2)], axis=1).astype(complex)
    isometry = np.sqrt(2 / 3) * np.einsum("xr,xc->rxc", kets, kets.conj()).reshape(6, 2)
    rng = np.random.default_rng(3)
    fill = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    q, _ = np.linalg.qr(np.concatenate([isometry, fill], axis=1))
    q[:, :2] = isometry  # qr keeps the span and flips at most phases of the first columns
    g = np.empty((6, 6), dtype=complex)
    g[:, [0, 3]] = q[:, :2]
    g[:, [1, 2, 4, 5]] = q[:, 2:]
    pointer = Observable._from_marks(3, (1, 2, 3), np.eye(3, dtype=bool))
    meter = make_multimeter(2, 3, pointer, make_channel([g]))
    assert meter.normal
    return meter, np.eye(3, dtype=complex)[0]


def trine_bundle(rng):
    """Slot path: selector 0 programs the trine (extreme), selector 1 a spin (sharp)."""
    spin = minimal_dilation_multimeter(spins(rng, 1)[0])
    return push_button_multimeter([trine_part(), spin])


def dense(meter):
    """The same meter with its coupling built densely: programmed by the dense product."""
    return make_multimeter(meter.dim_h, meter.dim_k, meter.pointer,
                           make_channel([meter.interaction.kraus[0]]))


def rotated_pointer_meter(rng):
    """Normal qubit meter whose sharp pointer is no basis projector, with a Haar coupling."""
    u = haar_unitary(2, rng)
    basis = [projector(u[:, i]) for i in range(2)]
    pointer = make_observable(2, (1, 2), basis)
    assert pointer._marks is None
    return make_multimeter(2, 2, pointer, make_channel([haar_unitary(4, rng)]))


def non_normal_meter(rng):
    """A fuzzy pointer on a Haar coupling: not normal, and induced densely."""
    pointer = make_observable(2, (1, 2), [np.diag([0.9, 0.1]), np.diag([0.1, 0.9])])
    meter = make_multimeter(2, 2, pointer, make_channel([haar_unitary(4, rng)]))
    assert not meter.normal
    return meter


def swap_extreme_meter(rng):
    """A unitary slot and a swap slot: a unitary and an extreme contraction on a normal meter."""
    u = haar_unitary(2, rng)
    swap = builtin_multimeter("swap", dim=2)[0].coupling
    sel = np.eye(2, dtype=complex)
    g = tensor(tensor(u, np.eye(2)), projector(sel[0])) + tensor(swap, projector(sel[1]))
    pointer = Observable._from_marks(4, (1, 2, 3, 4), np.eye(4, dtype=bool))
    return make_multimeter(2, 4, pointer, make_channel([g])), sel


def mixed(*vectors, weights=None):
    """The density operator mixing the given vectors, equally unless weighted."""
    weights = np.full(len(vectors), 1 / len(vectors)) if weights is None else np.asarray(weights)
    return sum(w * projector(v) for w, v in zip(weights, vectors))


# Each builder returns (meter, phi1, phi2) from a generator.


def observable_bundle(rng):
    meter, probes = push_button_multimeter([minimal_dilation_multimeter(s) for s in spins(rng, 2)])
    return meter, probes[0], probes[1]


def observable_bundle_mixed(rng):
    meter, probes = push_button_multimeter([minimal_dilation_multimeter(s) for s in spins(rng, 3)])
    return meter, probes[0], mixed(probes[1], probes[2], weights=[0.3, 0.7])


def observable_bundle_superposition(rng):
    meter, probes = push_button_multimeter([minimal_dilation_multimeter(s) for s in spins(rng, 2)])
    return meter, (probes[0] + 2j * probes[1]) / np.sqrt(5), textbook.random_density_operator(
        meter.dim_k, rng, 3)


def channel_bundle(rng):
    meter, probes = push_button_multimeter(unitaries(rng, 3))
    return meter, probes[0], probes[1]


def channel_bundle_mixed_first(rng):
    meter, probes = push_button_multimeter(unitaries(rng, 3))
    return meter, textbook.random_density_operator(3, rng, 2), probes[2]


def channel_bundle_equal(rng):
    meter, probes = push_button_multimeter(unitaries(rng, 2))
    return meter, probes[1], probes[1]


def channel_bundle_twins(rng):
    """Two selectors of one unitary: equal devices from orthogonal probes."""
    u = unitary_channel(haar_unitary(2, rng))
    meter, probes = push_button_multimeter([u, u, identity_channel(2)])
    return meter, probes[0], mixed(probes[1], probes[0], weights=[0.6, 0.4])


def dilation_basis(rng):
    meter, _ = minimal_dilation_multimeter(textbook.random_sharp_observable(3, 3, 5))
    basis = np.eye(3, dtype=complex)
    return meter, basis[0], basis[2]


def dilation_scaled_basis(rng):
    meter, _ = minimal_dilation_multimeter(spins(rng, 1)[0])
    return meter, np.array([0.0, 1j]), np.diag([0.3, 0.7]).astype(complex)


def dilation_non_diagonal(rng):
    meter, probe = minimal_dilation_multimeter(spins(rng, 1)[0])
    return meter, probe, textbook.random_density_operator(2, rng, 2)


def pauli(rng):
    meter, probes = builtin_multimeter("pauli")
    return meter, probes[0], probes[2]


def swap(rng):
    meter, _ = builtin_multimeter("swap", dim=3)
    return meter, np.eye(3, dtype=complex)[1], random_state_vector(3, rng)


def spin_pair(rng):
    meter, probes = builtin_multimeter("spin_pair", observables=spins(rng, 2))
    return meter, probes[0], probes[1]


def spin_pair_superposition(rng):
    meter, probes = builtin_multimeter("spin_pair", observables=spins(rng, 2))
    return meter, random_state_vector(2, rng), random_state_vector(2, rng)


def spin_pair_witness(rng):
    """ROADMAP item 1's near-sharp pair: the check reports fail."""
    tilted = spin_observable((np.sin(0.1), 0, np.cos(0.1)))
    meter, _ = builtin_multimeter("spin_pair", observables=[spin_observable((0, 0, 1)), tilted])
    e0, e1 = np.eye(2)
    return meter, e0, 0.01 * e0 + np.sqrt(1 - 1e-4) * e1


def shared_pointer_superposition(rng):
    meter, probes = shared_pointer_multimeter(spins(rng, 2))
    return meter, (probes[0] + probes[1]) / np.sqrt(2), probes[1]


def shared_pointer_selectors(rng):
    meter, probes = shared_pointer_multimeter(spins(rng, 2))
    return meter, probes[0], probes[1]


def trine_extreme(rng):
    meter, probes = trine_bundle(rng)
    return meter, probes[0], probes[1]


def trine_extreme_dense(rng):
    meter, probes = trine_bundle(rng)
    return dense(meter), probes[1], probes[0]


def rotated_pointer(rng):
    meter = rotated_pointer_meter(rng)
    return meter, random_state_vector(2, rng), textbook.random_density_operator(2, rng, 2)


def non_normal(rng):
    meter = non_normal_meter(rng)
    return meter, random_state_vector(2, rng), random_state_vector(2, rng)


def swap_extreme(rng):
    meter, sel = swap_extreme_meter(rng)
    psi = random_state_vector(2, rng)
    return meter, np.kron(psi, sel[0]), np.kron(psi, sel[1])


#: name -> (builder, whether every residual must be the per-probe one bit for bit)
ORTHOGONALITY_CASES = {
    "observable-bundle": (observable_bundle, True),
    "observable-bundle-mixed": (observable_bundle_mixed, True),
    "observable-bundle-superposition": (observable_bundle_superposition, True),
    "channel-bundle": (channel_bundle, True),
    "channel-bundle-mixed-first": (channel_bundle_mixed_first, True),
    "channel-bundle-equal": (channel_bundle_equal, True),
    "channel-bundle-twins": (channel_bundle_twins, True),
    "trine-extreme": (trine_extreme, True),
    "trine-extreme-dense": (trine_extreme_dense, True),
    "dilation-basis": (dilation_basis, True),
    "dilation-scaled-basis": (dilation_scaled_basis, True),
    "shared-pointer-selectors": (shared_pointer_selectors, True),
    "spin-pair": (spin_pair, True),
    "pauli": (pauli, True),
    "swap": (swap, True),
    "dilation-non-diagonal": (dilation_non_diagonal, False),
    "spin-pair-superposition": (spin_pair_superposition, False),
    "spin-pair-witness": (spin_pair_witness, False),
    "shared-pointer-superposition": (shared_pointer_superposition, False),
    "rotated-pointer": (rotated_pointer, False),
    "non-normal": (non_normal, False),
    "swap-extreme": (swap_extreme, False),
}


def build(cases, case):
    builder, exact = cases[case]
    return builder(np.random.default_rng(sum(map(ord, case)))), exact


class TestOrthogonalityOracle:
    @pytest.mark.parametrize("kind", ["observable", "channel"])
    @pytest.mark.parametrize("case", ORTHOGONALITY_CASES)
    def test_matches_the_per_probe_body(self, case, kind):
        (meter, phi1, phi2), exact = build(ORTHOGONALITY_CASES, case)
        name, check = CHECKS[kind]
        want = loop_program_orthogonality(name, kind, meter, phi1, phi2, _OVERLAP_TOL)
        assert_same(check(meter, phi1, phi2), want, meter, exact)

    @pytest.mark.parametrize("kind", ["observable", "channel"])
    @pytest.mark.parametrize("case", ["spin-pair", "channel-bundle", "swap-extreme"])
    def test_probes_in_either_order(self, case, kind):
        (meter, phi1, phi2), exact = build(ORTHOGONALITY_CASES, case)
        name, check = CHECKS[kind]
        want = loop_program_orthogonality(name, kind, meter, phi2, phi1, _OVERLAP_TOL)
        assert_same(check(meter, phi2, phi1), want, meter, exact)

    def test_cases_cover_every_branch(self):
        details = set()
        for case in ORTHOGONALITY_CASES:
            (meter, phi1, phi2), _ = build(ORTHOGONALITY_CASES, case)
            for kind, (_, check) in CHECKS.items():
                rep = check(meter, phi1, phi2)
                details.add((kind, rep.verdict, rep.details.split(":")[0].split(" programmed")[0]))
        for kind, ideal in (("observable", "sharp"), ("channel", "unitary")):
            assert (kind, "pass", f"two distinct {ideal} {kind}s") in details
            extreme = f"a {ideal} and an extreme {kind} on a normal multimeter"
            assert (kind, "pass", extreme) in details
            assert (kind, "not_applicable", f"induced {kind}s are not distinct") in details
            assert (kind, "not_applicable", "hypotheses not met") in details
        assert ("observable", "fail", "violated") in details

    @pytest.mark.parametrize("case", ORTHOGONALITY_CASES)
    def test_sharp_pair_reads_its_devices_bit_for_bit(self, case):
        # on the stacked devices themselves, every path's residuals are the
        # public functions' own, exact or not against the per-probe induction
        (meter, phi1, phi2), _ = build(ORTHOGONALITY_CASES, case)
        c1, c2 = make_model(meter, phi1)._components, make_model(meter, phi2)._components
        width = max(c1.shape[1], c2.shape[1])
        psis = np.zeros((meter.dim_k, 2 * width), dtype=complex)
        psis[:, : c1.shape[1]], psis[:, width : width + c2.shape[1]] = c1, c2
        kind = DEVICE_KINDS["observable"]
        stack = _induced_stack(meter, psis, 2, channel=False)
        devices = kind.devices(meter, stack)
        (res1, res2), distance = kind.pair(stack, devices)
        assert [res1, res2] == [sharpness_residual(d) for d in devices]
        assert distance == observable_distance(*devices)

    @pytest.mark.parametrize("kind", ["observable", "channel"])
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_first_invalid_device_raises_as_before(self, kind, order):
        # a coupling accepted at a loose tol, scaled by 1 + 1e-5 on probe e_0 and
        # by 1 + 3e-5 on e_1: each induces a device beyond INDUCTION_TOL, with its
        # own residual, and the first probe's error is raised
        md, _ = minimal_dilation_multimeter(spin_observable((0, 0, 1)))
        scale = np.kron(np.eye(2), np.diag([1 + 1e-5, 1 + 3e-5]))
        meter = make_multimeter(2, 2, md.pointer, make_channel([md.coupling @ scale], 1e-3), 1e-3)
        name, check = CHECKS[kind]
        phi1, phi2 = np.eye(2, dtype=complex)[list(order)]
        with pytest.raises(ValidationError) as want:
            loop_program_orthogonality(name, kind, meter, phi1, phi2, _OVERLAP_TOL)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(want.value))}$"):
            check(meter, phi1, phi2)


# ---------------------------------------------------------------------------
# purification; each builder returns (meter, mixed probe)


def twin_bundle(rng):
    """Two selectors of one unitary: every mixed probe induces that extreme channel."""
    u = unitary_channel(haar_unitary(2, rng))
    meter, _ = push_button_multimeter([u, u])
    return meter, textbook.random_density_operator(2, rng, 2)


def observable_twin_bundle(rng):
    """Two selectors of one spin's dilation: the slot path's extreme observable."""
    part = minimal_dilation_multimeter(spins(rng, 1)[0])
    meter, probes = push_button_multimeter([part, part])
    return meter, mixed(probes[0], probes[1], weights=[0.25, 0.75])


def dilation_bundle(rng):
    meter, _ = push_button_multimeter([minimal_dilation_multimeter(s) for s in spins(rng, 2)])
    return meter, textbook.random_density_operator(meter.dim_k, rng, meter.dim_k)


def dilation_diagonal(rng):
    meter, _ = minimal_dilation_multimeter(spins(rng, 1)[0])
    return meter, np.diag([0.4, 0.6]).astype(complex)


def near_pure_dilation(rng):
    """A component too light to show in the mixture still counts: the check reports fail."""
    meter, _ = minimal_dilation_multimeter(spin_observable((0, 0, 1)))
    return meter, np.diag([1 - 1e-10, 1e-10]).astype(complex)


def twin_pointer(rng):
    """One spin twice behind a shared pointer: a density on the selectors induces it."""
    meter, _ = shared_pointer_multimeter(spins(rng, 1) * 2)
    xi = np.zeros((4, 4), dtype=complex)
    xi[:2, :2] = textbook.random_density_operator(2, rng, 2)
    return meter, xi


def purification_dilation_non_diagonal(rng):
    meter, _ = minimal_dilation_multimeter(spins(rng, 1)[0])
    return meter, textbook.random_density_operator(2, rng, 2)


def purification_spin_pair(rng):
    meter, _ = builtin_multimeter("spin_pair", observables=spins(rng, 2))
    return meter, textbook.random_density_operator(2, rng, 2)


def purification_rotated_pointer(rng):
    return rotated_pointer_meter(rng), textbook.random_density_operator(2, rng, 2)


def purification_non_normal(rng):
    return non_normal_meter(rng), textbook.random_density_operator(2, rng, 2)


def purification_swap_extreme(rng):
    """The unitary slot on a random psi: every mixed selector state induces the unitary."""
    meter, sel = swap_extreme_meter(rng)
    psi = random_state_vector(2, rng)
    other = np.array([-psi[1].conj(), psi[0].conj()])
    return meter, mixed(np.kron(psi, sel[0]), np.kron(other, sel[0]), weights=[0.3, 0.7])


def near_pure_swap_extreme(rng):
    """A light contraction component under the unitary: too light for the mixture's
    minimal Kraus set, so the mixture reads extreme and the channel check reports fail."""
    meter, sel = swap_extreme_meter(rng)
    psi = random_state_vector(2, rng)
    return meter, mixed(np.kron(psi, sel[0]), np.kron(psi, sel[1]), weights=[1 - 1.5e-12, 1.5e-12])


PURIFICATION_CASES = {
    "twin-bundle": (twin_bundle, True),
    "observable-twin-bundle": (observable_twin_bundle, True),
    "dilation-bundle": (dilation_bundle, True),
    "dilation-diagonal": (dilation_diagonal, True),
    "near-pure-dilation": (near_pure_dilation, True),
    "twin-pointer": (twin_pointer, False),
    "dilation-non-diagonal": (purification_dilation_non_diagonal, False),
    "spin-pair": (purification_spin_pair, False),
    "rotated-pointer": (purification_rotated_pointer, False),
    "non-normal": (purification_non_normal, False),
    "swap-extreme": (purification_swap_extreme, False),
    "near-pure-swap-extreme": (near_pure_swap_extreme, False),
}


class TestPurificationOracle:
    @pytest.mark.parametrize("kind", ["observable", "channel"])
    @pytest.mark.parametrize("case", PURIFICATION_CASES)
    def test_matches_the_per_probe_body(self, case, kind):
        (meter, probe), exact = build(PURIFICATION_CASES, case)
        want = loop_check_purification(meter, probe, kind=kind)
        assert_same(check_purification(meter, probe, kind=kind), want, meter, exact)

    def test_cases_cover_every_verdict(self):
        verdicts = set()
        for case in PURIFICATION_CASES:
            (meter, probe), _ = build(PURIFICATION_CASES, case)
            for kind in ("observable", "channel"):
                verdicts.add((kind, check_purification(meter, probe, kind=kind).verdict))
        assert verdicts == {(kind, verdict) for kind in ("observable", "channel")
                            for verdict in ("pass", "fail", "not_applicable")}
