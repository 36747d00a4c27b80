"""The probe-family checks against a per-probe loop of public calls.

``check_convex_hull`` and ``check_purification`` induce a whole family of
probes in one stacked product and compare the devices as arrays.  The
loops below make one model per probe, induce it with ``induced_observable``
or ``induced_channel`` and measure its distance one device at a time, as a
reader of the theorems would.  Both must give the same verdicts and
details, and residuals equal to rounding; the errors on bad input and the
memory of a long run are checked here too.
"""

import re
import tracemalloc

import numpy as np
import pytest

from qmultimeter import DimensionError, ValidationError, verify
from qmultimeter.channels import Channel, choi_matrix, is_extreme_channel, make_channel
from qmultimeter.channels import identity_channel, unitary_channel
from qmultimeter.multimeter import (
    INDUCTION_TOL,
    builtin_multimeter,
    induced_channel,
    induced_observable,
    make_model,
    minimal_dilation_multimeter,
    push_button_multimeter,
    shared_pointer_multimeter,
)
from qmultimeter.observables import is_extreme, make_observable, spin_observable
from qmultimeter.operators import (
    haar_unitary,
    projector,
    random_state_vector,
)
from qmultimeter.verify import MAX_TRIALS, check_convex_hull, check_purification

import textbook

#: Largest gap between a check's residual and the loop's: the stacked
#: products add the same terms in another order.
TOL = 1e-14

INDUCE = {"observable": induced_observable, "channel": induced_channel}


def device_array(device) -> np.ndarray:
    """Effects in label order, or the Choi matrix."""
    return choi_matrix(device) if isinstance(device, Channel) else device.effects


def loop_distance(induced, devices, weights) -> float:
    """Distance of an induced device to the mixture of ``devices`` with ``weights``, label by label."""
    if isinstance(induced, Channel):
        mixture = sum(w * choi_matrix(d) for w, d in zip(weights, devices))
        return float(np.linalg.norm(choi_matrix(induced) - mixture))
    return max(
        float(np.linalg.norm(induced.effect(x) - sum(w * d.effect(x) for w, d in zip(weights, devices))))
        for x in induced.outcomes
    )


def loop_convex_hull(m, programmed, trials, seed, tol=1e-10):
    """``check_convex_hull`` on orthonormal vector probes, one model per probe."""
    basis = np.array([p for p, _ in programmed])
    devices = [d for _, d in programmed]
    induce = INDUCE["channel" if isinstance(devices[0], Channel) else "observable"]
    base = max(
        loop_distance(induce(make_model(m, p)), devices, np.eye(m.dim_k)[i])
        for i, p in enumerate(basis)
    )
    residuals = {"basis_residual": base}
    if base > INDUCTION_TOL:
        return "not_applicable", residuals, "probes do not program the declared devices"
    if trials <= 0:
        return "not_applicable", residuals, f"{trials} random programs: nothing was tested"
    rng = np.random.default_rng(seed)
    worst = {"max_pure_residual": 0.0, "max_mixed_residual": 0.0}
    for _ in range(trials):
        probes = (random_state_vector(m.dim_k, rng),
                  textbook.random_density_operator(m.dim_k, rng, m.dim_k))
        for key, probe in zip(worst, probes):
            model = make_model(m, probe)
            xi = model.probe if model.probe.ndim == 2 else projector(model.probe)
            weights = [float(np.vdot(phi, xi @ phi).real) for phi in basis]
            worst[key] = max(worst[key], loop_distance(induce(model), devices, weights))
    residuals.update(worst)
    largest = max(worst.values())
    if largest <= tol:
        return "pass", residuals, f"{trials} random programs stay in the convex hull"
    return "fail", residuals, f"violated: mixture residual {largest:.3e} > {tol:.3e}"


def loop_purification(m, probe, kind, tol=1e-10):
    """``check_purification`` of a density probe of rank at least two, one model per eigenvector."""
    model = make_model(m, probe)
    lam, vecs = np.linalg.eigh(model.probe)
    components = [v for weight, v in zip(lam, vecs.T) if weight > 1e-12]
    induce = INDUCE[kind]
    device = induce(model)
    extreme = is_extreme(device) if kind == "observable" else is_extreme_channel(device)
    distances = [
        float(np.linalg.norm(device_array(induce(make_model(m, v))) - device_array(device),
                             axis=(-2, -1)).max())
        for v in components
    ]
    worst = max(distances)
    residuals = {"max_component_distance": worst, "probe_rank": float(len(components))}
    if not extreme:
        gaps = ", ".join(f"{d:.3e}" for d in distances)
        return "not_applicable", residuals, (
            f"induced {kind} is not extreme; convex decomposition components at distances [{gaps}]")
    if worst <= tol:
        return "pass", residuals, (
            f"extreme {kind}: all {len(components)} probe eigenvectors induce the same device")
    return "fail", residuals, (
        f"violated: extreme {kind} but component deviates by {worst:.3e} > {tol:.3e}")


#: A number as the reports print it.
NUMBER = re.compile(r"(\d\.\d{3}e[+-]\d+)")


def assert_matches(report, want):
    """Equal verdicts, residuals within TOL, and details equal but for the last printed digit.

    A printed residual of rounding size, such as a component's distance to
    the device it induces, has no stable digits, so numbers in the details
    are compared as residuals are, to TOL and the print precision.
    """
    verdict, residuals, details = want
    assert report.verdict == verdict
    got, expected = NUMBER.split(report.details), NUMBER.split(details)
    assert got[::2] == expected[::2], (report.details, details)
    for a, b in zip(map(float, got[1::2]), map(float, expected[1::2])):
        assert abs(a - b) <= TOL + 1e-3 * max(abs(a), abs(b)), (report.details, details)
    assert set(report.residuals) == set(residuals)
    for key, value in residuals.items():
        assert abs(report.residuals[key] - value) <= TOL, key


def spins(rng, count):
    axes = rng.normal(size=(count, 3))
    return [spin_observable(a / np.linalg.norm(a)) for a in axes]


def basis_programs(meter, kind):
    """Each apparatus basis vector with the device it induces."""
    basis = np.eye(meter.dim_k, dtype=complex)
    return [(e, INDUCE[kind](make_model(meter, e))) for e in basis]


def channel_bundle(rng):
    """Marks pointer, coupling held as parts, channel bundle."""
    devices = [unitary_channel(haar_unitary(2, rng)) for _ in range(3)]
    meter, probes = push_button_multimeter(devices)
    return meter, list(zip(probes, devices))


def spin_pair_observables(rng):
    """Dense pointer, dense coupling."""
    observables = spins(rng, 2)
    meter, probes = builtin_multimeter("spin_pair", observables=observables)
    return meter, list(zip(probes, observables))


def spin_pair_channels(rng):
    meter, _ = spin_pair_observables(rng)
    return meter, basis_programs(meter, "channel")


def dilation_bundle(kind):
    """Marks pointer, coupling held as its parts' unitaries; channels here leave the hull."""
    def build(rng):
        meter, _ = push_button_multimeter([minimal_dilation_multimeter(s) for s in spins(rng, 2)])
        return meter, basis_programs(meter, kind)
    return build


def perturbed(build, kind):
    """The first declared device moved by about 1e-8: within INDUCTION_TOL, beyond the pass tol."""
    def perturb(rng):
        meter, programmed = build(rng)
        (p0, d0), (_, d1) = programmed[:2]
        eps = 1e-8
        if kind == "channel":
            moved = make_channel([np.sqrt(1 - eps) * d0.kraus[0], np.sqrt(eps) * d1.kraus[0]])
        else:
            moved = make_observable(d0.dim, d0.outcomes, (1 - eps) * d0.effects + eps * d1.effects)
        return meter, [(p0, moved), *programmed[1:]]
    return perturb


HULL_CASES = {
    "channel-bundle": channel_bundle,
    "spin-pair-observables": spin_pair_observables,
    "spin-pair-channels": spin_pair_channels,
    "dilation-bundle-observables": dilation_bundle("observable"),
    "dilation-bundle-channels": dilation_bundle("channel"),
    "perturbed-channel": perturbed(channel_bundle, "channel"),
    "perturbed-observable": perturbed(spin_pair_observables, "observable"),
}


def hull_chunk(meter) -> int:
    """Trials per chunk of ``check_convex_hull`` at the module's budget."""
    n = meter.dim_h * meter.dim_k
    return max(1, verify._HULL_CHUNK_ELEMENTS // (2 * len(meter.interaction) * n * n))


class TestConvexHullLoop:
    @pytest.mark.parametrize("trials", [-3, 0, 1, 5, "chunks"])
    @pytest.mark.parametrize("case", HULL_CASES)
    def test_matches_the_loop(self, monkeypatch, case, trials):
        meter, programmed = HULL_CASES[case](np.random.default_rng(sum(map(ord, case))))
        if trials == "chunks":
            # three chunks, the last one short
            monkeypatch.setattr(verify, "_HULL_CHUNK_ELEMENTS",
                                4 * len(meter.interaction) * (meter.dim_h * meter.dim_k) ** 2)
            assert hull_chunk(meter) == 2
            trials = 5
        report = check_convex_hull(meter, programmed, trials=trials, seed=7)
        assert_matches(report, loop_convex_hull(meter, programmed, trials, seed=7))

    def test_verdicts_cover_every_branch(self):
        verdicts = set()
        for case, build in HULL_CASES.items():
            meter, programmed = build(np.random.default_rng(sum(map(ord, case))))
            verdicts.add(check_convex_hull(meter, programmed, trials=3, seed=7).verdict)
        assert verdicts == {"pass", "fail"}

    def test_more_than_one_chunk_at_the_default_budget(self):
        meter, programmed = channel_bundle(np.random.default_rng(5))
        trials = hull_chunk(meter) + 1
        report = check_convex_hull(meter, programmed, trials=trials, seed=11)
        assert_matches(report, loop_convex_hull(meter, programmed, trials, seed=11))

    @pytest.mark.parametrize("case", HULL_CASES)
    def test_budget_of_one_trial_changes_no_bit(self, monkeypatch, case):
        meter, programmed = HULL_CASES[case](np.random.default_rng(sum(map(ord, case))))
        want = check_convex_hull(meter, programmed, trials=6, seed=3)
        monkeypatch.setattr(verify, "_HULL_CHUNK_ELEMENTS", 1)
        assert hull_chunk(meter) == 1
        report = check_convex_hull(meter, programmed, trials=6, seed=3)
        assert report.residuals == want.residuals
        assert (report.verdict, report.details) == (want.verdict, want.details)

    def test_memory_stays_flat_over_chunks(self):
        meter, _ = push_button_multimeter(
            [minimal_dilation_multimeter(textbook.random_sharp_observable(3, 3, s)) for s in (1, 2)]
        )
        programmed = basis_programs(meter, "observable")
        chunk = hull_chunk(meter)
        assert chunk <= 20

        def peak(trials):
            tracemalloc.start()
            try:
                report = check_convex_hull(meter, programmed, trials=trials, seed=1)
                return tracemalloc.get_traced_memory()[1], report
            finally:
                tracemalloc.stop()

        one, first = peak(chunk)
        many, report = peak(20 * chunk)
        assert first.verdict == report.verdict == "pass"
        assert many <= 1.5 * one, (one, many)


class TestDrawnPrograms:
    """Each chunk's programs are one block of normals, in the per-trial loop's order."""

    @pytest.mark.parametrize("budget", ["one-trial", "default", "three-chunks"])
    @pytest.mark.parametrize("case", ["channel-bundle", "dilation-bundle-observables"])
    def test_programs_are_the_loops(self, monkeypatch, case, budget):
        meter, programmed = HULL_CASES[case](np.random.default_rng(sum(map(ord, case))))
        dim_k, trials = meter.dim_k, 7
        if budget == "one-trial":
            monkeypatch.setattr(verify, "_HULL_CHUNK_ELEMENTS", 1)
        elif budget == "three-chunks":
            monkeypatch.setattr(verify, "_HULL_CHUNK_ELEMENTS",
                                6 * len(meter.interaction) * (meter.dim_h * dim_k) ** 2)
        chunks = -(-trials // hull_chunk(meter))
        assert chunks == {"one-trial": trials, "default": 1, "three-chunks": 3}[budget]
        stacks, generators = [], []
        induce, default_rng = verify._induced_stack, np.random.default_rng
        monkeypatch.setattr(verify, "_induced_stack", lambda m, psis, *a, **k: (
            stacks.append(psis) or induce(m, psis, *a, **k)))
        monkeypatch.setattr(np.random, "default_rng", lambda seed: (
            generators.append(default_rng(seed)) or generators[-1]))
        check_convex_hull(meter, programmed, trials=trials, seed=5)
        # the basis, then each chunk's columns: (dim_k, trial, pure or mixed, column)
        assert len(stacks) == 1 + chunks and len(generators) == 1
        psis = np.concatenate(stacks[1:], axis=1).reshape(dim_k, trials, 2, dim_k)
        rng = default_rng(5)
        for t in range(trials):
            pure = random_state_vector(dim_k, rng)
            mixed = textbook.random_density_operator(dim_k, rng, dim_k)
            for got, xi in zip((psis[:, t, 0], psis[:, t, 1]), (projector(pure), mixed)):
                assert np.abs(got @ got.conj().T - xi).max() <= 1e-15
            assert not psis[:, t, 0, 1:].any()
        assert generators[0].bit_generator.state == rng.bit_generator.state

    def test_no_drawn_program_is_eigendecomposed(self, monkeypatch):
        meter, programmed = channel_bundle(np.random.default_rng(2))

        def forbidden(*args, **kwargs):
            raise AssertionError("eigendecomposed a program")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        assert check_convex_hull(meter, programmed, trials=6, seed=1).verdict == "pass"


class TestConvexHullErrors:
    def test_trials_capped_before_any_draw(self, request):
        meter, programmed = channel_bundle(np.random.default_rng(0))
        request.getfixturevalue("no_draws")
        with pytest.raises(ValidationError, match=f"exceed the cap of {MAX_TRIALS}"):
            check_convex_hull(meter, programmed, trials=MAX_TRIALS + 1)

    def test_declared_observables_checked_against_the_induced(self, spin_trio):
        s1, _, s3 = spin_trio
        meter, probes = builtin_multimeter("spin_pair", observables=(s1, s3))
        relabelled = [make_observable(2, ("a", "b"), s.effects) for s in (s1, s3)]
        with pytest.raises(ValidationError, match=r"outcome labels differ: \(1, 2\) vs \('a', 'b'\)"):
            check_convex_hull(meter, list(zip(probes, relabelled)), trials=2, seed=0)
        qutrits = [make_observable(3, s1.outcomes, [np.diag(d), np.eye(3) - np.diag(d)])
                   for d in ([1.0, 0, 0], [0, 1.0, 0])]
        with pytest.raises(DimensionError, match="dimension mismatch: 2 vs 3"):
            check_convex_hull(meter, list(zip(probes, qutrits)), trials=2, seed=0)

    def test_declared_channels_checked_against_the_system(self, spin_trio):
        meter, probes = builtin_multimeter("spin_pair", observables=spin_trio[::2])
        with pytest.raises(DimensionError, match="dimension mismatch: 2 vs 3"):
            check_convex_hull(meter, [(p, identity_channel(3)) for p in probes], trials=2, seed=0)


def twin_bundle(rng):
    """Two selectors of one unitary: every mixed probe induces that extreme channel."""
    u = unitary_channel(haar_unitary(2, rng))
    meter, _ = push_button_multimeter([u, u])
    return meter, textbook.random_density_operator(2, rng, 2)


def twin_pointer(rng):
    """One spin twice behind a shared pointer: a density on the selectors induces it."""
    meter, _ = shared_pointer_multimeter(spins(rng, 1) * 2)
    xi = np.zeros((4, 4), dtype=complex)
    xi[:2, :2] = textbook.random_density_operator(2, rng, 2)
    return meter, xi


def dilation(rng):
    meter, _ = minimal_dilation_multimeter(spins(rng, 1)[0])
    return meter, textbook.random_density_operator(2, rng, 2)


def near_pure_dilation(rng):
    """A component too light to show in the mixture still counts: the check reports fail."""
    meter, _ = minimal_dilation_multimeter(spin_observable((0, 0, 1)))
    return meter, np.diag([1 - 1e-10, 1e-10]).astype(complex)


def spin_pair(rng):
    meter, _ = builtin_multimeter("spin_pair", observables=spins(rng, 2))
    return meter, textbook.random_density_operator(2, rng, 2)


def bundle(rng):
    meter, _ = push_button_multimeter([minimal_dilation_multimeter(s) for s in spins(rng, 2)])
    return meter, textbook.random_density_operator(meter.dim_k, rng, meter.dim_k)


PURIFICATION_CASES = {
    "twin-bundle": twin_bundle,
    "twin-pointer": twin_pointer,
    "dilation": dilation,
    "near-pure-dilation": near_pure_dilation,
    "spin-pair-dense-pointer": spin_pair,
    "dilation-bundle": bundle,
}


class TestPurificationLoop:
    @pytest.mark.parametrize("kind", ["observable", "channel"])
    @pytest.mark.parametrize("case", PURIFICATION_CASES)
    def test_matches_the_loop(self, case, kind):
        meter, probe = PURIFICATION_CASES[case](np.random.default_rng(sum(map(ord, case))))
        report = check_purification(meter, probe, kind=kind)
        assert_matches(report, loop_purification(meter, probe, kind))

    def test_verdicts_cover_every_branch(self):
        verdicts = {
            check_purification(meter, probe, kind=kind).verdict
            for case, build in PURIFICATION_CASES.items()
            for meter, probe in [build(np.random.default_rng(sum(map(ord, case))))]
            for kind in ("observable", "channel")
        }
        assert verdicts == {"pass", "fail", "not_applicable"}
