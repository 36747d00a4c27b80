"""Executable checks of the programming no-go facts.

Each check evaluates the hypotheses of one structural statement
numerically and returns a :class:`VerificationReport`.  The statements
are conditionals, so ``not_applicable`` is a first-class verdict: most
inputs simply fail the hypotheses, and only a genuine counterexample
yields ``fail``.

Hypothesis thresholds (what counts as "sharp", "unitary", "distinct") are
separated from the pass tolerances by orders of magnitude so verdicts
cannot flip on rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .channels import (
    Channel,
    channel_distance,
    choi_matrix,
    is_extreme_channel,
    multiplicativity_residual,
)
from .exceptions import DimensionError, ValidationError
from .multimeter import (
    INDUCTION_TOL,
    Multimeter,
    _transposition,
    induced_channel,
    induced_observable,
    make_model,
)
from .observables import (
    Observable,
    is_extreme,
    make_observable,
    observable_distance,
    sharpness_residual,
)
from .operators import (
    DIMENSION_CAP,
    frobenius_norm,
    haar_unitary,
    random_density_operator,
    random_state_vector,
)

#: A device whose sharpness / multiplicativity residual is below this is
#: treated as sharp / unitary in hypothesis checks.
SHARP_RESIDUAL_TOL = 1e-6

#: Devices further apart than this (Frobenius / Choi-Frobenius) are distinct.
DISTINCT_TOL = 1e-3

DEFAULT_SEARCH_THRESHOLDS = {
    "sharp_residual": 1e-6,
    "overlap": 1e-3,
    "distance": 1e-3,
}

#: Most samples one search or convex-hull run may draw; larger counts are
#: refused before any sample.  It admits the 2,000-trial channel-bundle
#: scenario, the 10^4-trial searches of the test suite and the benchmark's
#: 500.  A (3, 3) search takes about 2 s per 10^4 samples on a 2-CPU x86
#: machine; the cost per sample grows with the dimensions and meter size.
MAX_TRIALS = 100_000

_REFINE_STEPS = 200
_REFINE_DECAY = 0.97


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a single check: verdict, named residuals, commentary."""

    check_name: str
    verdict: str
    residuals: dict = field(default_factory=dict)
    details: str = ""

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "verdict": self.verdict,
            "residuals": dict(self.residuals),
            "details": self.details,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return cls(
            check_name=data["check_name"],
            verdict=data["verdict"],
            residuals={k: float(v) for k, v in data["residuals"].items()},
            details=data["details"],
        )


class DeviceKind(NamedTuple):
    """What the choice between observable and channel decides.

    Entries call library functions by their module-level name at call time,
    so a tracer that rebinds those names (bench/tracing.py) sees every call.
    """

    device: type
    induce: Callable  # measurement model -> induced device
    distance: Callable  # (device, device) -> distance, zero iff equal
    defect: Callable  # device -> residual that vanishes iff the device is ideal
    defect_key: str  # report key of that residual
    ideal: str  # what an ideal device is called
    extreme: Callable  # device -> whether it is extreme
    mixture_distance: Callable  # (device, weights, devices) -> distance to the mixture
    describe: Callable  # induced device -> summary for a report


def _mix_observables(weights, devices) -> Observable:
    """Effect-wise mixture of observables, aligned by outcome label."""
    ref = devices[0]
    if any(set(dev.outcomes) != set(ref.outcomes) for dev in devices):
        raise ValidationError("programmed observables must share their outcome labels")
    effects = [sum(w * dev.effect(x) for w, dev in zip(weights, devices)) for x in ref.outcomes]
    return make_observable(ref.dim, ref.outcomes, effects, tol=INDUCTION_TOL)


#: The two kinds of device a multimeter programs.  The channel theorem
#: follows from the observable theorem, so every check below runs one body
#: on either entry.
DEVICE_KINDS = {
    "observable": DeviceKind(
        device=Observable,
        induce=lambda model: induced_observable(model),
        distance=lambda a, b: observable_distance(a, b),
        defect=lambda e: sharpness_residual(e),
        defect_key="sharpness_residual",
        ideal="sharp",
        extreme=lambda e: is_extreme(e),
        mixture_distance=lambda e, weights, devices: observable_distance(
            e, _mix_observables(weights, devices)),
        describe=lambda e: f"observable with outcomes {e.outcomes}",
    ),
    "channel": DeviceKind(
        device=Channel,
        induce=lambda model: induced_channel(model),
        distance=lambda a, b: channel_distance(a, b),
        defect=lambda c: multiplicativity_residual(c),
        defect_key="multiplicativity_residual",
        ideal="unitary",
        extreme=lambda c: is_extreme_channel(c),
        mixture_distance=lambda c, weights, devices: frobenius_norm(
            choi_matrix(c) - sum(w * choi_matrix(dev) for w, dev in zip(weights, devices))),
        describe=lambda c: f"channel with {len(c.kraus)} Kraus operators",
    ),
}


def _check_program_orthogonality(
    name: str, kind: str, m: Multimeter, phi1, phi2, tol, ideal_tol, distance_tol
) -> VerificationReport:
    """Distinct ideal devices of one kind force orthogonal program vectors."""
    k = DEVICE_KINDS[kind]
    d1 = k.induce(make_model(m, phi1))
    d2 = k.induce(make_model(m, phi2))
    res1 = k.defect(d1)
    res2 = k.defect(d2)
    distance = k.distance(d1, d2)
    overlap = float(abs(np.vdot(np.asarray(phi1), np.asarray(phi2))))
    residuals = {
        f"{k.defect_key}_1": res1,
        f"{k.defect_key}_2": res2,
        "device_distance": distance,
        "overlap": overlap,
    }
    ideal1, ideal2 = res1 <= ideal_tol, res2 <= ideal_tol
    if distance <= distance_tol:
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


def check_sharp_program_orthogonality(
    m: Multimeter,
    phi1: np.ndarray,
    phi2: np.ndarray,
    tol: float = 1e-9,
    sharp_tol: float = SHARP_RESIDUAL_TOL,
    distance_tol: float = DISTINCT_TOL,
) -> VerificationReport:
    """Distinct sharp observables force orthogonal program vectors.

    Applies to any multimeter when both induced observables are sharp; a
    normal multimeter additionally fires on one sharp and one extreme
    induced observable.  No kernels are involved: the counterexamples
    enabled by post-processing live outside this check's hypotheses.
    """
    return _check_program_orthogonality(
        "sharp_program_orthogonality", "observable", m, phi1, phi2, tol, sharp_tol, distance_tol)


def check_channel_program_orthogonality(
    m: Multimeter,
    phi1: np.ndarray,
    phi2: np.ndarray,
    tol: float = 1e-9,
    unitary_tol: float = SHARP_RESIDUAL_TOL,
    distance_tol: float = DISTINCT_TOL,
) -> VerificationReport:
    """Distinct unitary channels force orthogonal program vectors.

    Unitarity is detected through multiplicativity of the dual map.  On a
    normal multimeter the check also fires on one unitary and one extreme
    induced channel.
    """
    return _check_program_orthogonality(
        "channel_program_orthogonality", "channel", m, phi1, phi2, tol, unitary_tol, distance_tol)


def _check_trials(trials: int) -> None:
    if trials > MAX_TRIALS:
        raise ValidationError(f"trials {trials} exceed the cap of {MAX_TRIALS}")


def check_convex_hull(
    m: Multimeter,
    programmed,
    trials: int = 20,
    seed: int = 0,
    tol: float = 1e-10,
) -> VerificationReport:
    """Programming a full orthonormal basis yields exactly the convex hull.

    ``programmed`` lists ``(probe, device)`` pairs, one per basis vector of
    the apparatus; devices are all observables or all channels.  For random
    pure programs the induced device must equal the mixture with weights
    ``|<phi_i, psi>|^2``; for random mixed programs, weights ``<phi_i| xi |phi_i>``.
    ``trials`` above :data:`MAX_TRIALS` raises ``ValidationError`` before
    anything is drawn.
    """
    name = "convex_hull"
    _check_trials(trials)
    programmed = list(programmed)
    if len(programmed) != m.dim_k:
        raise ValidationError(
            f"need one programmed device per apparatus dimension ({m.dim_k}), got {len(programmed)}"
        )
    probes = [np.asarray(p, dtype=complex).reshape(-1) for p, _ in programmed]
    devices = [d for _, d in programmed]
    kinds = [k for k in DEVICE_KINDS.values() if all(isinstance(d, k.device) for d in devices)]
    if not kinds:
        raise ValidationError("devices must be all observables or all channels")
    gram = np.array([[np.vdot(a, b) for b in probes] for a in probes])
    if frobenius_norm(gram - np.eye(m.dim_k)) > 1e-9:
        raise ValidationError("program vectors are not orthonormal")
    k = kinds[0]

    def residual(probe, weights):
        return k.mixture_distance(k.induce(make_model(m, probe)), weights, devices)

    base_residual = max(residual(p, np.eye(m.dim_k)[i]) for i, p in enumerate(probes))
    residuals = {"basis_residual": base_residual}
    if base_residual > INDUCTION_TOL:
        return VerificationReport(
            name, "not_applicable", residuals, "probes do not program the declared devices"
        )
    rng = np.random.default_rng(seed)
    worst_pure = 0.0
    worst_mixed = 0.0
    for _ in range(trials):
        psi = random_state_vector(m.dim_k, rng)
        weights = np.array([abs(np.vdot(p, psi)) ** 2 for p in probes])
        worst_pure = max(worst_pure, residual(psi, weights))
        xi = random_density_operator(m.dim_k, rng)
        weights = np.array([float(np.vdot(p, xi @ p).real) for p in probes])
        worst_mixed = max(worst_mixed, residual(xi, weights))
    residuals.update({"max_pure_residual": worst_pure, "max_mixed_residual": worst_mixed})
    if max(worst_pure, worst_mixed) <= tol:
        return VerificationReport(
            name, "pass", residuals, f"{trials} random programs stay in the convex hull"
        )
    return VerificationReport(
        name,
        "fail",
        residuals,
        f"violated: mixture residual {max(worst_pure, worst_mixed):.3e} > {tol:.3e}",
    )


def check_purification(
    m: Multimeter,
    mixed_probe: np.ndarray,
    tol: float = 1e-10,
    kind: str = "observable",
) -> VerificationReport:
    """Extreme devices never need mixed probes.

    If the device induced by a mixed probe is extreme, every eigenvector of
    the probe must induce that same device, so a pure probe suffices.
    """
    name = "purification"
    if kind not in DEVICE_KINDS:
        raise ValueError(f"kind must be {' or '.join(map(repr, DEVICE_KINDS))}, got {kind!r}")
    k = DEVICE_KINDS[kind]
    xi = np.asarray(mixed_probe, dtype=complex)
    if xi.ndim != 2:
        return VerificationReport(name, "not_applicable", {}, "probe is pure (a vector)")
    eigvals, vecs = np.linalg.eigh(xi)
    components = [
        (lam, vecs[:, i] / np.linalg.norm(vecs[:, i]))
        for i, lam in enumerate(eigvals)
        if lam > 1e-12
    ]
    if len(components) < 2:
        return VerificationReport(name, "not_applicable", {}, "probe has rank below 2")

    device = k.induce(make_model(m, xi))
    extreme = k.extreme(device)
    component_devices = [k.induce(make_model(m, psi)) for _, psi in components]
    worst = max(k.distance(dev, device) for dev in component_devices)
    residuals = {"max_component_distance": worst, "probe_rank": float(len(components))}
    if not extreme:
        gaps = ", ".join(f"{k.distance(dev, device):.3e}" for dev in component_devices)
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
            f"extreme {kind}: all {len(components)} probe eigenvectors induce the same device",
        )
    return VerificationReport(
        name,
        "fail",
        residuals,
        f"violated: extreme {kind} but component deviates by {worst:.3e} > {tol:.3e}",
    )


# ---------------------------------------------------------------------------
# randomized counterexample search


#: Samples per chunk of the search.  A chunk holds at most
#: ``_SEARCH_CHUNK_ELEMENTS`` coupling entries, so memory stays flat, and its
#: size depends only on the dimensions, so results depend only on the seed.
_SEARCH_CHUNK = 256
_SEARCH_CHUNK_ELEMENTS = 2**14

#: Share of structured samples among those the search draws.
_STRUCTURED_RATE = 0.05


def _stacked_effects(g: np.ndarray, phis: np.ndarray, dim_h: int, dim_k: int) -> np.ndarray:
    """Effects induced by a stack of couplings, each programmed by several pure probes.

    ``g`` has shape ``(T, N, N)`` with ``N = dim_h * dim_k`` and ``phis``
    shape ``(T, P, dim_k)``.  With the computational-basis pointer, outcome
    ``i`` reads the rows ``(r, i)`` of ``M = g (I (x) phi)`` as a block
    ``B_i`` and has effect ``B_i* B_i``; the result has shape
    ``(T, P, dim_k, dim_h, dim_h)``.
    """
    n = dim_h * dim_k
    m = np.einsum("tahk,tpk->tpah", g.reshape(-1, n, dim_h, dim_k), phis)
    blocks = m.reshape(*phis.shape[:2], dim_h, dim_k, dim_h).swapaxes(2, 3)
    return blocks.conj().swapaxes(-1, -2) @ blocks


def _search_stats(g: np.ndarray, phis: np.ndarray, dim_h: int, dim_k: int) -> tuple:
    """Sharpness residual, probe overlap and device distance per sample of a stack.

    ``phis`` holds one probe pair per coupling.  The sharpness residual is the
    largest ``||E^2 - E||`` over the effects of both induced observables, the
    distance the largest ``||E_1(i) - E_2(i)||`` over outcomes ``i``.
    """
    e = _stacked_effects(g, phis, dim_h, dim_k)
    sharp = np.linalg.norm(e @ e - e, axis=(-2, -1)).max(axis=(1, 2))
    distance = np.linalg.norm(e[:, 0] - e[:, 1], axis=(-2, -1)).max(axis=1)
    overlap = np.abs(np.sum(phis[:, 0].conj() * phis[:, 1], axis=-1))
    return sharp, overlap, distance


def _structured_couplings(
    dim_h: int, dim_k: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Stack of couplings that measure a random sharp observable for basis probes.

    Each coupling is ``sum_j A_j (x) T_j``: ``A`` has a Haar-random
    eigenbasis split into ``m = min(dim_h, dim_k)`` groups and ``T_j`` swaps
    pointer slots 0 and j.  The effects beyond ``m`` are zero, so the sum
    runs over ``j < m`` only and the transpositions hold ``m * dim_k**2``
    entries, no more than one coupling.  Probe ``e_0`` induces ``A``; probe
    ``e_1`` induces ``A`` with outcome 0 and 1 exchanged and outcomes 2, 3,
    ... merged into 1, a distinct sharp observable.
    """
    m = min(dim_h, dim_k)
    u = haar_unitary(dim_h, rng, batch=(count,))
    select = (np.arange(dim_h)[:, None] % m == np.arange(m)).astype(float)
    effects = np.einsum("sac,cj,sbc->sjab", u, select, u.conj())
    swaps = np.stack([_transposition(dim_k, j) for j in range(m)])
    n = dim_h * dim_k
    return np.einsum("sjab,jcd->sacbd", effects, swaps).reshape(count, n, n)


def _refine(g, phis, thresholds, dim_h, dim_k, rng):
    """Gradient-free descent on the violation objective.

    Coordinate-wise complex perturbations of the probes and of a unitary
    generator for the coupling, with geometric step decay; the objective is
    non-smooth at projection boundaries so no derivatives are assumed.
    """

    def objective(g, phis):
        sharp, overlap, distance = (x[0] for x in _search_stats(g[None], phis[None], dim_h, dim_k))
        return (
            sharp
            + 10.0 * max(0.0, thresholds["overlap"] - overlap)
            + 10.0 * max(0.0, thresholds["distance"] - distance)
        )

    best = objective(g, phis)
    step = 0.1
    dim = dim_h * dim_k
    for _ in range(_REFINE_STEPS):
        move = rng.integers(0, 3)
        cand_g, cand_phis = g, phis
        if move < 2:
            cand_phis = phis.copy()
            j = rng.integers(0, dim_k)
            cand_phis[move, j] += step * (rng.normal() + 1j * rng.normal())
            cand_phis[move] /= np.linalg.norm(cand_phis[move])
        else:
            h = np.zeros((dim, dim), dtype=complex)
            a, b = rng.integers(0, dim, size=2)
            z = rng.normal() + 1j * rng.normal()
            h[a, b] += z
            h[b, a] += np.conj(z)
            eigvals, vecs = np.linalg.eigh(h)
            u = (vecs * np.exp(1j * step * eigvals)) @ vecs.conj().T
            cand_g = g @ u
        val = objective(cand_g, cand_phis)
        if val < best:
            best, g, phis = val, cand_g, cand_phis
        step *= _REFINE_DECAY
    return g, phis


def counterexample_search(
    dim_h: int,
    dim_k: int,
    trials: int,
    seed: int,
    thresholds: dict | None = None,
    refine: bool = False,
) -> VerificationReport:
    """Hunt for non-orthogonally programmed pairs of sharp observables.

    Samples normal multimeters with a computational pointer: mostly
    Haar-random couplings with Haar-random probe pairs, interleaved with a
    small fraction of structured couplings that measure two distinct sharp
    observables for two *orthogonal* basis probes.  A sample qualifies when
    its probe overlap is at least ``overlap`` and its device distance at
    least ``distance``; a violation is a qualifying sample whose sharpness
    residual is at most ``sharp_residual``.

    With a strictly positive overlap threshold no violation should ever be
    found; the structured samples sit at overlap exactly zero, so dropping
    the threshold to zero makes them trivial "violations" -- a sanity
    inversion confirming the harness detects threshold conjunctions.  The
    report records the empirical floor of the sharpness residual among
    qualifying samples (the first sample to reach it), the counts of
    qualifying and structured samples, and the violations.  The refined
    sample of ``refine=True`` counts as one more sample.

    Samples are drawn and evaluated in chunks of stacked arrays whose size
    depends only on the dimensions, so a seed gives the same report on
    every run; the stream differs from that of the earlier
    one-sample-at-a-time search, so a seed's floor values changed with it.
    When no sample qualifies -- ``trials <= 0``, or ``dim_k = 1``, where
    every probe induces the same trivial observable -- nothing was tested:
    the verdict is ``not_applicable`` and the floor residuals are omitted.

    Raises
    ------
    DimensionError
        If a dimension is below 1 or ``dim_h * dim_k`` exceeds
        :data:`~qmultimeter.operators.DIMENSION_CAP`; nothing is allocated.
    ValidationError
        If ``trials`` exceeds :data:`MAX_TRIALS`; nothing is drawn.
    """
    name = "counterexample_search"
    if min(dim_h, dim_k) < 1 or dim_h * dim_k > DIMENSION_CAP:
        raise DimensionError(
            f"search dimensions ({dim_h}, {dim_k}) must be at least 1 "
            f"with product at most {DIMENSION_CAP}"
        )
    _check_trials(trials)
    thr = dict(DEFAULT_SEARCH_THRESHOLDS)
    if thresholds:
        thr.update(thresholds)
    rng = np.random.default_rng(seed)
    n = dim_h * dim_k
    chunk = max(1, min(_SEARCH_CHUNK, _SEARCH_CHUNK_ELEMENTS // n**2))
    violations = qualifying = structured_count = 0
    best = None  # (sharp, overlap, distance, g, phis) of the floor sample

    def tally(g, phis):
        nonlocal violations, qualifying, best
        sharp, overlap, distance = _search_stats(g, phis, dim_h, dim_k)
        idx = np.flatnonzero((overlap >= thr["overlap"]) & (distance >= thr["distance"]))
        qualifying += idx.size
        violations += int(np.count_nonzero(sharp[idx] <= thr["sharp_residual"]))
        if idx.size:
            i = idx[np.argmin(sharp[idx])]
            if best is None or sharp[i] < best[0]:
                stats = (float(sharp[i]), float(overlap[i]), float(distance[i]))
                best = (*stats, g[i].copy(), phis[i].copy())

    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        structured = (rng.random(size) < _STRUCTURED_RATE) & (dim_k >= 2)
        g = haar_unitary(n, rng, batch=(size,))
        phis = random_state_vector(dim_k, rng, batch=(size, 2))
        count = int(np.count_nonzero(structured))
        if count:
            g[structured] = _structured_couplings(dim_h, dim_k, count, rng)
            phis[structured] = np.eye(dim_k)[:2]
        structured_count += count
        tally(g, phis)
    if refine and best is not None:
        g, phis = _refine(*best[3:], thr, dim_h, dim_k, rng)
        tally(g[None], phis[None])
    residuals = {}
    if best is not None:
        residuals = {
            "best_sharp_residual": best[0],
            "overlap_at_best": best[1],
            "distance_at_best": best[2],
        }
    residuals.update(
        violations=float(violations),
        qualifying_samples=float(qualifying),
        structured_samples=float(structured_count),
    )
    if violations:
        return VerificationReport(
            name,
            "fail",
            residuals,
            (
                f"violated: {violations} sample(s) with sharpness residual <= "
                f"{thr['sharp_residual']:.3e}, overlap >= {thr['overlap']:.3e} and "
                f"device distance >= {thr['distance']:.3e} simultaneously"
            ),
        )
    if best is None:
        return VerificationReport(
            name,
            "not_applicable",
            residuals,
            (
                f"{trials} samples, none with overlap >= {thr['overlap']:.3e} and "
                f"device distance >= {thr['distance']:.3e}: nothing was tested"
            ),
        )
    return VerificationReport(
        name,
        "pass",
        residuals,
        f"{trials} samples, {qualifying} qualifying, no violation; "
        f"empirical sharpness floor {best[0]:.3e}",
    )
