"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np

from qmultimeter import PAULI
from qmultimeter.channels import (
    apply,
    channel_distance,
    choi_matrix,
    identity_channel,
    make_channel,
    multiplicativity_residual,
    unitary_channel,
)
from qmultimeter.cli import EXIT_OK, run_scenario
from qmultimeter.exceptions import ValidationError
from qmultimeter.multimeter import (
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
    is_sharp,
    make_kernel,
    make_observable,
    observable_distance,
    post_process,
    spin_observable,
)
from qmultimeter.operators import (
    haar_unitary,
    projector,
    random_state_vector,
    tensor,
)
from qmultimeter.verify import check_purification, counterexample_search
from textbook import (
    naimark_check,
    naimark_dilation,
    product_residual,
    random_channel,
    random_density_operator,
    random_observable,
    random_sharp_observable,
    stinespring_commutant_residual,
)

SPIN_AXES = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
MERGE_WEIGHTS = {
    1: [[1, 0], [1, 0], [0, 1], [0, 1]],
    2: [[1, 0], [0, 1], [1, 0], [0, 1]],
    3: [[1, 0], [0, 1], [0, 1], [1, 0]],
}


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_pauli_multimeter():
    start = time.perf_counter()
    meter, probes = builtin_multimeter("pauli")
    ok = True
    # explicit conjugated-Pauli effects for the three standard probes
    for i, phi in enumerate(probes, start=1):
        obs = induced_observable(make_model(meter, phi))
        for j in range(4):
            expected = (np.eye(2) + PAULI[j] @ PAULI[i] @ PAULI[j]) / 4
            ok &= np.linalg.norm(obs.effect(j) - expected) <= 1e-12
    # merge kernels reproduce the sharp spin observables exactly
    for i, phi in enumerate(probes, start=1):
        model = make_model(meter, phi, kernel=make_kernel(MERGE_WEIGHTS[i]))
        recovered = induced_observable(model)
        ok &= observable_distance(recovered, spin_observable(SPIN_AXES[i])) <= 1e-12
    # general real-program formula on 100 random normalized (alpha, a)
    rng = np.random.default_rng(20240801)
    for _ in range(100):
        raw = rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        alpha, a = raw[0], raw[1:]
        obs = induced_observable(make_model(meter, raw.astype(complex)))
        a_sigma = a[0] * PAULI[1] + a[1] * PAULI[2] + a[2] * PAULI[3]
        for j in range(4):
            expected = (np.eye(2) + 2 * alpha * PAULI[j] @ a_sigma @ PAULI[j]) / 4
            ok &= np.linalg.norm(obs.effect(j) - expected) <= 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, f"pauli multimeter ({elapsed:.2f}s)", ok)


def test_criterion_2_sic_program():
    # oracle: Bloch vectors of the four effects from explicit conjugation,
    # tetrahedral inner product -1/3, hence pairwise overlap (1 - 1/3)/8 = 1/12
    bloch = []
    for j in range(4):
        m = sum(PAULI[j] @ PAULI[i] @ PAULI[j] for i in (1, 2, 3)) / np.sqrt(3)
        bloch.append([np.trace(m @ PAULI[k]).real / 2 for k in (1, 2, 3)])
    bloch = np.array(bloch)
    gram = bloch @ bloch.T
    assert np.allclose(np.diag(gram), 1.0)
    off = gram[~np.eye(4, dtype=bool)]
    assert np.allclose(off, -1 / 3)
    expected_overlap = (1 + off[0]) / 8

    meter, _ = builtin_multimeter("pauli")
    probe = np.array([1 / np.sqrt(2)] + [1 / np.sqrt(6)] * 3, dtype=complex)
    obs = induced_observable(make_model(meter, probe))
    ok = True
    for j in range(4):
        eff = obs.effect(j)
        trace = np.trace(eff).real
        purity = np.trace(eff @ eff).real / trace**2
        ok &= abs(trace - 0.5) <= 1e-12
        ok &= abs(purity - 1.0) <= 1e-10
    for j in range(4):
        for k in range(4):
            if j != k:
                overlap = np.trace(obs.effect(j) @ obs.effect(k)).real
                ok &= abs(overlap - expected_overlap) <= 1e-12
    report(2, "SIC observable from the pauli multimeter", ok)


def test_criterion_3_minimal_dilation():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for case in range(50):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, d + 1))
        a = random_sharp_observable(d, n, int(rng.integers(0, 10**6)))
        meter, probe = minimal_dilation_multimeter(a)
        ok &= meter.dim_k == n
        recon = observable_distance(induced_observable(make_model(meter, probe)), a)
        ok &= recon <= 1e-10
    # the lower bound is enforced: claiming a sharp N-outcome measurement
    # on a smaller apparatus is rejected at model validation
    rejected = 0
    for seed in range(5):
        d = 3 + seed % 3
        n = 3 + seed % (d - 2) if d > 3 else 3
        a = random_sharp_observable(d, n, seed)
        small_pointer = make_observable(
            n - 1,
            tuple(range(1, n)),
            [projector(np.eye(n - 1, dtype=complex)[i]) for i in range(n - 1)],
        )
        small = make_multimeter(d, n - 1, small_pointer, identity_channel(d * (n - 1)))
        try:
            make_model(small, np.eye(n - 1, dtype=complex)[0], claimed=a)
        except ValidationError:
            rejected += 1
    ok &= rejected == 5
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(3, f"minimal dilation, 50 random sharp observables ({elapsed:.2f}s)", ok)


def test_criterion_4_shared_pointer_and_push_button_bounds():
    trio = [spin_observable(SPIN_AXES[i]) for i in (1, 2, 3)]
    meter, probes = shared_pointer_multimeter(trio)
    ok = meter.dim_k == 6
    for probe, target in zip(probes, trio):
        obs = induced_observable(make_model(meter, probe))
        ok &= observable_distance(obs, target) <= 1e-12
    # the wasteful bundle realizes the upper bound and still works
    devices = [minimal_dilation_multimeter(s) for s in trio]
    bundle, bundle_probes = push_button_multimeter(devices)
    ok &= bundle.dim_k == 24
    for i, (probe, target) in enumerate(zip(bundle_probes, trio)):
        obs = induced_observable(make_model(bundle, probe))
        weights = np.zeros((len(obs), len(target)))
        for r, label in enumerate(obs.outcomes):
            weights[r, target.outcomes.index(int(label.split(",")[i]))] = 1.0
        marginal = post_process(obs, make_kernel(weights), labels=target.outcomes)
        ok &= observable_distance(marginal, target) <= 1e-12
    report(4, "shared pointer (dim 6) and push-button bundle (dim 24)", ok)


def test_criterion_5_channel_programming():
    rng = np.random.default_rng(11)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    devices = [
        identity_channel(2),
        unitary_channel(PAULI[1]),
        unitary_channel(hadamard),
        unitary_channel(haar_unitary(2, rng)),
    ]
    meter, probes = push_button_multimeter(devices)
    ok = True
    for device, probe in zip(devices, probes):
        induced = induced_channel(make_model(meter, probe))
        ok &= channel_distance(induced, device) <= 1e-10
    # mixed program: induced channel is the predicted convex mixture
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c /= np.linalg.norm(c)
    psi = sum(ci * p for ci, p in zip(c, probes))
    induced = induced_channel(make_model(meter, psi))
    predicted = np.abs(c) ** 2
    target = sum(w * choi_matrix(d) for w, d in zip(predicted, devices))
    ok &= np.linalg.norm(choi_matrix(induced) - target) <= 1e-10
    # recover the weights independently by least squares over Choi matrices
    columns = np.stack([choi_matrix(d).ravel() for d in devices], axis=1)
    fitted, *_ = np.linalg.lstsq(columns, choi_matrix(induced).ravel(), rcond=None)
    ok &= np.max(np.abs(fitted.real - predicted)) <= 1e-10
    ok &= np.max(np.abs(fitted.imag)) <= 1e-10
    # product coupling needs no apparatus at all: dim K = 1
    u = haar_unitary(2, rng)
    pointer = make_observable(1, (1,), [np.eye(1)])
    tiny = make_multimeter(2, 1, pointer, make_channel([tensor(u, np.eye(1))]))
    induced = induced_channel(make_model(tiny, np.array([1.0])))
    ok &= tiny.dim_k == 1
    ok &= channel_distance(induced, unitary_channel(u)) <= 1e-10
    report(5, "push-button channel programming and dim K = 1 unitaries", ok)


def test_criterion_6_orthogonality_no_go_sweep():
    start = time.perf_counter()
    ok = True
    floors = []
    for dim_h, dim_k in [(2, 2), (2, 3), (2, 4), (3, 3)]:
        for seed in range(5):
            rep = counterexample_search(dim_h, dim_k, 10_000, seed=seed)
            ok &= rep.verdict == "pass"
            ok &= rep.residuals["violations"] == 0.0
            floors.append(rep.residuals["best_sharp_residual"])
    elapsed = time.perf_counter() - start
    report(
        6,
        f"no-go sweep, 20 runs x 10^4 trials, floor {min(floors):.2e} ({elapsed:.0f}s)",
        ok,
    )


def test_criterion_7_post_processing_counterexample(tmp_path):
    objects = {
        "pauli": {"kind": "multimeter", "builtin": "pauli"},
    }
    for i in (1, 2, 3):
        objects[f"S{i}"] = {"kind": "observable", "builtin": "spin", "axis": list(SPIN_AXES[i])}
        objects[f"merge{i}"] = {"kind": "kernel", "weights": MERGE_WEIGHTS[i]}
    with_kernels = {
        "objects": objects,
        "runs": [
            {
                "command": "program",
                "label": f"spin-{i}",
                "multimeter": "pauli",
                "probe": {"of": "pauli", "index": i - 1},
                "kernel": f"merge{i}",
                "expect": f"S{i}",
                "tol": 1e-12,
            }
            for i in (1, 2, 3)
        ],
    }
    kernel_free = {
        "objects": objects,
        "runs": [
            {
                "command": "verify",
                "check": "sharp_orthogonality",
                "multimeter": "pauli",
                "probes": [{"of": "pauli", "index": a}, {"of": "pauli", "index": b}],
            }
            for a, b in ((0, 1), (0, 2), (1, 2))
        ],
    }
    path1 = tmp_path / "with_kernels.json"
    path1.write_text(json.dumps(with_kernels))
    path2 = tmp_path / "kernel_free.json"
    path2.write_text(json.dumps(kernel_free))
    status1, reports1 = run_scenario(str(path1), report_path=str(tmp_path / "r1.txt"))
    status2, reports2 = run_scenario(str(path2), report_path=str(tmp_path / "r2.txt"))
    ok = status1 == EXIT_OK and all(r.verdict == "pass" for r in reports1)
    ok &= status2 == EXIT_OK and all(r.verdict == "not_applicable" for r in reports2)
    # the programming vectors really are non-orthogonal: the sharp spin
    # observables emerge only through the kernels
    ok &= all(abs(r.residuals["overlap"] - 0.5) <= 1e-12 for r in reports2)
    report(7, "sharp programming with non-orthogonal vectors needs kernels", ok)


def test_criterion_8_purification():
    rng = np.random.default_rng(23)
    ok = True
    cases = 0
    # extreme channels: product couplings, probe plays no role
    for _ in range(10):
        dim_k = int(rng.integers(2, 4))
        u = haar_unitary(2, rng)
        pointer = make_observable(
            dim_k,
            tuple(range(1, dim_k + 1)),
            [projector(np.eye(dim_k, dtype=complex)[i]) for i in range(dim_k)],
        )
        meter = make_multimeter(2, dim_k, pointer, make_channel([tensor(u, np.eye(dim_k))]))
        probe = random_density_operator(dim_k, rng, 2)
        rep = check_purification(meter, probe, tol=1e-10, kind="channel")
        ok &= rep.verdict == "pass"
        ok &= rep.residuals["max_component_distance"] <= 1e-10
        cases += 1
    # extreme (sharp) observables: reset-then-couple meters measure the same
    # sharp observable for every probe
    for seed in range(10):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, d + 1))
        a = random_sharp_observable(d, n, seed + 500)
        base, chi = minimal_dilation_multimeter(a)
        basis = np.eye(base.dim_k, dtype=complex)
        kraus = [
            base.coupling @ tensor(np.eye(d), np.outer(chi, basis[i]))
            for i in range(base.dim_k)
        ]
        meter = make_multimeter(d, base.dim_k, base.pointer, make_channel(kraus))
        probe = random_density_operator(base.dim_k, rng, 2)
        rep = check_purification(meter, probe, tol=1e-10, kind="observable")
        ok &= rep.verdict == "pass"
        ok &= rep.residuals["max_component_distance"] <= 1e-10
        cases += 1
    ok &= cases == 20
    report(8, "purification of probes for extreme devices (20 cases)", ok)


def test_criterion_9_equivalence_suites():
    ok = True
    rng = np.random.default_rng(31)
    # sharpness: projective effects <=> product criterion <=> commuting dilation
    for case in range(200):
        d = 2 + case % 3
        if case % 2:
            obs = random_sharp_observable(d, 1 + case % d, case)
        else:
            obs = random_observable(d, 2 + case % 3, case)
        sharp_by_projection = is_sharp(obs, 1e-6)
        sharp_by_product = product_residual(obs) <= 1e-6
        a, w = naimark_dilation(obs)
        sharp_by_commutant = naimark_check(obs, a, w)["commutant_residual"] <= 1e-6
        ok &= sharp_by_projection == sharp_by_product == sharp_by_commutant
    # multiplicativity: direct products <=> rank-one Choi matrix <=>
    # commuting Stinespring dilation
    for case in range(200):
        d = 2 + case % 2
        if case % 2:
            c = unitary_channel(haar_unitary(d, rng))
        else:
            c = random_channel(d, 2 + case % 3, case)
        direct = 0.0
        for _ in range(5):
            b1 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            b2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            gap = apply(c, b1 @ b2, "heisenberg") - apply(c, b1, "heisenberg") @ apply(
                c, b2, "heisenberg"
            )
            direct = max(direct, np.linalg.norm(gap))
        multiplicative_direct = direct <= 1e-6
        unitary = multiplicativity_residual(c) <= 1e-6
        commutant = stinespring_commutant_residual(c) <= 1e-6
        ok &= multiplicative_direct == unitary == commutant
    report(9, "sharpness and multiplicativity equivalences (200 + 200)", ok)
