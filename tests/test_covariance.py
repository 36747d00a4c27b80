"""Gauge covariance: one induced device, computed on each induction path.

Three rotations leave what a multimeter programs unchanged, up to a known
conjugation, and each moves the induction onto another path:

* ``V (I (x) W*)`` with probe ``W phi`` (or ``W xi W*``), ``W`` unitary on
  K: the same devices.  The rotated coupling is dense, so a push-button
  bundle leaves the slot product (``_slot_blocks``) for the dense one.
* ``(I (x) W) V`` with pointer ``W Z W*``: the same devices.  The rotated
  pointer has no marks, so the observable leaves the Gram sums
  (``_basis_effects``), which are trusted, for the dense pointer product,
  which is validated.
* ``(U (x) I) V (U* (x) I)``, ``U`` unitary on H: every device conjugated
  by ``U``.

Devices must agree within ``ROUNDING * n * eps``, ``n = dim H * dim K``,
and every ``check_*`` must give the same verdict, with residuals that agree
within the same bound (relative to residuals above 1), except those that
depend on the frame (see ``FRAME_DEPENDENT``).
"""

import numpy as np
import pytest

from qmultimeter.channels import channel_distance, make_channel, unitary_channel
from qmultimeter.multimeter import (
    builtin_multimeter,
    induced_channel,
    induced_observable,
    make_model,
    make_multimeter,
    minimal_dilation_multimeter,
    push_button_multimeter,
)
from qmultimeter.observables import (
    make_kernel,
    make_observable,
    observable_distance,
    spin_observable,
)
from qmultimeter.operators import PAULI, haar_unitary, projector
from qmultimeter.verify import (
    check_channel_program_orthogonality,
    check_convex_hull,
    check_purification,
    check_sharp_program_orthogonality,
)
from textbook import random_sharp_observable

#: Devices and residuals on different paths agree within this many ``n eps``.
ROUNDING = 8


def bundle(parts, dim, outcomes):
    """The push-button bundle of minimal dilations of ``parts`` random sharp observables."""
    return push_button_multimeter(
        [
            minimal_dilation_multimeter(random_sharp_observable(dim, outcomes, seed))
            for seed in range(1, parts + 1)
        ]
    )


CONSTRUCTIONS = {
    "bundle-2-2-2": lambda: bundle(2, 2, 2),
    "bundle-3-3-3": lambda: bundle(3, 3, 3),
    "channel-bundle": lambda: push_button_multimeter(
        [unitary_channel(np.eye(2)), unitary_channel(PAULI[1]), unitary_channel(PAULI[2])]
    ),
    "pauli": lambda: builtin_multimeter("pauli"),
    "swap": lambda: builtin_multimeter("swap", dim=3),
    "spin_pair": lambda: builtin_multimeter(
        "spin_pair", observables=[spin_observable((1, 0, 0)), spin_observable((0, 0, 1))]
    ),
}


def kraus_stack(meter):
    return np.array(meter.interaction.kraus)


def rotated_probe(probe, w):
    return w @ probe if probe.ndim == 1 else w @ probe @ w.conj().T


def conjugated(device, u):
    """``u D u*`` of an observable's effects, or of a channel's Kraus operators."""
    if hasattr(device, "outcomes"):
        return make_observable(device.dim, device.outcomes, u @ device.effects @ u.conj().T)
    return make_channel(u @ device.kraus @ u.conj().T)


def program_rotation(meter, rng):
    w = haar_unitary(meter.dim_k, rng)
    right = np.kron(np.eye(meter.dim_h), w.conj().T)
    rotated = make_multimeter(
        meter.dim_h, meter.dim_k, meter.pointer, make_channel(kraus_stack(meter) @ right)
    )
    assert rotated.interaction._parts is None
    return rotated, lambda probe: rotated_probe(probe, w), lambda device: device


def pointer_rotation(meter, rng):
    w = haar_unitary(meter.dim_k, rng)
    left = np.kron(np.eye(meter.dim_h), w)
    pointer = make_observable(
        meter.dim_k, meter.pointer.outcomes, w @ meter.pointer.effects @ w.conj().T
    )
    assert pointer._marks is None
    rotated = make_multimeter(
        meter.dim_h, meter.dim_k, pointer, make_channel(left @ kraus_stack(meter))
    )
    return rotated, lambda probe: probe, lambda device: device


def system_rotation(meter, rng):
    u = haar_unitary(meter.dim_h, rng)
    left = np.kron(u, np.eye(meter.dim_k))
    kraus = left @ kraus_stack(meter) @ left.conj().T
    rotated = make_multimeter(meter.dim_h, meter.dim_k, meter.pointer, make_channel(kraus))
    return rotated, lambda probe: probe, lambda device: conjugated(device, u)


ROTATIONS = {
    "program": program_rotation,
    "pointer": pointer_rotation,
    "system": system_rotation,
}

#: Residuals that a rotation changes, so that only the verdicts they decide
#: are compared: the convex hull draws its random programs in the frame of
#: the probes.  Every other residual is compared by value.
FRAME_DEPENDENT = {
    "program": {"max_pure_residual", "max_mixed_residual"},
    "pointer": set(),
    "system": set(),
}


@pytest.fixture(params=sorted(CONSTRUCTIONS))
def construction(request):
    return CONSTRUCTIONS[request.param]()


@pytest.fixture(params=sorted(ROTATIONS))
def rotation(request):
    return request.param


def bound(meter):
    return ROUNDING * meter.dim_h * meter.dim_k * np.finfo(float).eps


def mixed_probe(probes):
    return 0.7 * projector(probes[0]) + 0.3 * projector(probes[1 % len(probes)])


def test_devices_agree(rng, construction, rotation):
    meter, probes = construction
    rotated, probe_map, device_map = ROTATIONS[rotation](meter, rng)
    kernel = make_kernel(rng.dirichlet(np.ones(3), size=len(meter.pointer)))
    cases = [(p, None) for p in probes] + [(mixed_probe(probes), None), (probes[0], kernel)]
    for probe, k in cases:
        model = make_model(meter, probe, kernel=k)
        model_r = make_model(rotated, probe_map(probe), kernel=k)
        want = device_map(induced_observable(model))
        assert observable_distance(induced_observable(model_r), want) <= bound(meter)
        want = device_map(induced_channel(model))
        assert channel_distance(induced_channel(model_r), want) <= bound(meter)


def same_report(a, b, tol, frame_dependent):
    assert (a.check_name, a.verdict) == (b.check_name, b.verdict)
    assert sorted(a.residuals) == sorted(b.residuals)
    if frame_dependent.isdisjoint(a.residuals):
        assert a.details == b.details
    for key, value in a.residuals.items():
        if key not in frame_dependent:
            assert abs(b.residuals[key] - value) <= tol * max(1.0, abs(value)), key


def test_checks_agree(rng, construction, rotation):
    meter, probes = construction
    rotated, probe_map, _ = ROTATIONS[rotation](meter, rng)
    tol, frame_dependent = bound(meter), FRAME_DEPENDENT[rotation]
    phi1, phi2 = probes[0], probes[1 % len(probes)]
    xi = mixed_probe(probes)
    for check in (check_sharp_program_orthogonality, check_channel_program_orthogonality):
        same_report(
            check(meter, phi1, phi2),
            check(rotated, probe_map(phi1), probe_map(phi2)),
            tol,
            frame_dependent,
        )
    basis = list(np.eye(meter.dim_k, dtype=complex))
    for kind, induce in (("observable", induced_observable), ("channel", induced_channel)):
        same_report(
            check_purification(meter, xi, kind=kind),
            check_purification(rotated, probe_map(xi), kind=kind),
            tol,
            frame_dependent,
        )
        # each side programs its own basis devices; the rotated probes are W e_i
        programmed, programmed_r = [], []
        for e in basis:
            programmed.append((e, induce(make_model(meter, e))))
            programmed_r.append((probe_map(e), induce(make_model(rotated, probe_map(e)))))
        same_report(
            check_convex_hull(meter, programmed, trials=2, seed=5),
            check_convex_hull(rotated, programmed_r, trials=2, seed=5),
            tol,
            frame_dependent,
        )


# ---------------------------------------------------------------------------
# one pure probe, written as a vector or as its projector


def probe_forms(probe):
    """A pure probe as a vector and as its projector, decomposed by :func:`make_model`."""
    return [probe, projector(probe)]


@pytest.mark.parametrize("name", ["bundle-2-2-2", "bundle-3-3-3", "spin_pair"])
def test_pure_probe_forms_agree(name):
    # dim K = 81 for the (3,3,3) bundle, so its projectors are decomposed on their support
    meter, probes = CONSTRUCTIONS[name]()
    tol = bound(meter)
    probes = list(probes) + [(probes[0] + probes[1]) / np.sqrt(2)]
    for probe in probes:
        vector, density = (make_model(meter, p) for p in probe_forms(probe))
        assert density._components.shape == vector._components.shape == (meter.dim_k, 1)
        psi, chi = vector._components[:, 0], density._components[:, 0]
        phase = np.vdot(chi, psi) / abs(np.vdot(chi, psi))
        assert np.abs(phase * chi - psi).max() <= tol
        assert observable_distance(
            induced_observable(vector), induced_observable(density)) <= tol
        assert channel_distance(induced_channel(vector), induced_channel(density)) <= tol
    for check in (check_sharp_program_orthogonality, check_channel_program_orthogonality):
        for phi1, phi2 in [(probes[0], probes[1]), (probes[0], probes[-1])]:
            want = check(meter, phi1, phi2)
            for form1 in probe_forms(phi1):
                for form2 in probe_forms(phi2):
                    same_report(want, check(meter, form1, form2), tol, set())


def test_overlap_reads_the_same_in_every_form():
    # a near-orthogonal pair: the overlap is |<phi_1|phi_2>| = 1e-5, not its
    # square, whether each probe is a vector or a projector
    meter, _ = builtin_multimeter(
        "spin_pair",
        observables=[spin_observable((0, 0, 1)), spin_observable((np.sin(0.1), 0, np.cos(0.1)))],
    )
    phi1 = np.array([1, 0], dtype=complex)
    phi2 = np.array([1e-5, np.sqrt(1 - 1e-10)], dtype=complex)
    want = check_sharp_program_orthogonality(meter, phi1, phi2)
    assert want.residuals["overlap"] == pytest.approx(1e-5, rel=1e-12)
    for form1 in probe_forms(phi1):
        for form2 in probe_forms(phi2):
            got = check_sharp_program_orthogonality(meter, form1, form2)
            assert got.verdict == want.verdict
            assert got.residuals["overlap"] == pytest.approx(1e-5, rel=1e-12)
