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
    _choi,
    channel_distance,
    choi_matrix,
    is_extreme_channel,
    multiplicativity_residual,
)
from .exceptions import DimensionError, ValidationError
from .multimeter import (
    INDUCTION_TOL,
    Multimeter,
    _dilation_couplings,
    _induced_stack,
    induced_channel,
    induced_observable,
    make_model,
)
from .observables import (
    Observable,
    is_extreme,
    observable_distance,
    sharpness_residual,
)
from .operators import (
    DIMENSION_CAP,
    _frobenius_norms,
    frobenius_norm,
    haar_isometry,
    haar_unitary,
    random_state_vector,
)

#: A device whose sharpness / multiplicativity residual is below this is
#: treated as sharp / unitary in hypothesis checks.  Both residuals grow
#: linearly with the weight ``w`` of a non-ideal part mixed into an ideal
#: device: the channel with Kraus operators ``sqrt(1 - w) I`` and
#: ``sqrt(w) Z`` reads exactly ``w``.
SHARP_RESIDUAL_TOL = 1e-6

#: Devices further apart than this (Frobenius / Choi-Frobenius) are distinct.
DISTINCT_TOL = 1e-3

#: Overlaps (and Gram defects) of program vectors at most this count as zero.
_OVERLAP_TOL = 1e-9

#: Induced devices at most this far from their predicted value match it.
_PROGRAM_TOL = 1e-10

#: Search samples qualify with overlap and distance at least ``DISTINCT_TOL``.
DEFAULT_SEARCH_THRESHOLDS = {
    "sharp_residual": SHARP_RESIDUAL_TOL,
    "overlap": DISTINCT_TOL,
    "distance": DISTINCT_TOL,
}

#: Most samples one search or convex-hull run may draw; larger counts are
#: refused before any sample.  It admits the 2,000-trial channel-bundle
#: scenario, the 10^4-trial searches of the test suite and the benchmark's
#: 500.  A (3, 3) search takes about 0.11 s per 10^4 samples on a 2-CPU
#: x86 machine with one BLAS thread; the cost per sample grows with the
#: dimensions and meter size.
MAX_TRIALS = 100_000

#: Program-map entries per chunk of convex-hull trials; a trial holds
#: ``2 * len(V) * (dim_h * dim_k)**2``.
_HULL_CHUNK_ELEMENTS = 2**16

_REFINE_STEPS = 200
_REFINE_DECAY = 0.97

#: Refinement proposals scored per :func:`_search_stats` call: at (2, 2) one
#: sample takes about 20 µs and eight about 24 µs (one BLAS thread, 2-CPU
#: Xeon container), and 26-72 of 200 proposals are accepted over 20 seeds.
_REFINE_BATCH = 8


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
    arrays: Callable  # (multimeter, devices) -> their arrays, laid out as `induce_arrays` lays them
    induce_arrays: Callable  # (multimeter, psis, probes) -> induced array per probe
    describe: Callable  # induced device -> summary for a report


def _observable_arrays(m: Multimeter, devices) -> np.ndarray:
    """Effects of each observable in the pointer's outcome order, which induction uses."""
    ref = devices[0]
    if any(set(dev.outcomes) != set(ref.outcomes) for dev in devices):
        raise ValidationError("programmed observables must share their outcome labels")
    if any(dev.dim != ref.dim for dev in devices):
        raise DimensionError("programmed observables must share their dimension")
    outcomes = m.pointer.outcomes
    if m.dim_h != ref.dim:
        raise DimensionError(f"dimension mismatch: {m.dim_h} vs {ref.dim}")
    if set(outcomes) != set(ref.outcomes):
        raise ValidationError(f"outcome labels differ: {outcomes} vs {ref.outcomes}")
    return np.stack([dev._stack_in_order(outcomes) for dev in devices])


def _channel_arrays(m: Multimeter, devices) -> np.ndarray:
    """Choi matrix of each channel, formed once; the channels act on the meter's system."""
    for dev in devices:
        if dev.dim != m.dim_h:
            raise DimensionError(f"dimension mismatch: {m.dim_h} vs {dev.dim}")
    return np.stack([choi_matrix(dev) for dev in devices])


def _distances(x: np.ndarray) -> np.ndarray:
    """Distance of the devices whose arrays differ by ``x[p]``, as the kind's ``distance`` gives it."""
    return _frobenius_norms(x).reshape(len(x), -1).max(axis=1)


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
        arrays=_observable_arrays,
        induce_arrays=lambda m, psis, probes: _induced_stack(m, psis, probes, channel=False),
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
        arrays=_channel_arrays,
        induce_arrays=lambda m, psis, probes: _choi(_induced_stack(m, psis, probes, channel=True)),
        describe=lambda c: f"channel with {len(c)} Kraus operators",
    ),
}


def _check_program_orthogonality(
    name: str, kind: str, m: Multimeter, phi1, phi2, tol
) -> VerificationReport:
    """Distinct ideal devices of one kind force orthogonal program vectors."""
    k = DEVICE_KINDS[kind]
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


def check_sharp_program_orthogonality(
    m: Multimeter, phi1: np.ndarray, phi2: np.ndarray, tol: float = _OVERLAP_TOL
) -> VerificationReport:
    """Distinct sharp observables force orthogonal program vectors.

    Applies to any multimeter when both induced observables are sharp; a
    normal multimeter additionally fires on one sharp and one extreme
    induced observable.  No kernels are involved: the counterexamples
    enabled by post-processing live outside this check's hypotheses.
    """
    return _check_program_orthogonality(
        "sharp_program_orthogonality", "observable", m, phi1, phi2, tol)


def check_channel_program_orthogonality(
    m: Multimeter, phi1: np.ndarray, phi2: np.ndarray, tol: float = _OVERLAP_TOL
) -> VerificationReport:
    """Distinct unitary channels force orthogonal program vectors.

    A channel is unitary when its Choi matrix has rank one, which
    :func:`~qmultimeter.channels.multiplicativity_residual` decides from
    one eigenvalue.  On a normal multimeter the check also fires on one unitary and one extreme
    induced channel.
    """
    return _check_program_orthogonality(
        "channel_program_orthogonality", "channel", m, phi1, phi2, tol)


def _check_trials(trials: int) -> None:
    if trials > MAX_TRIALS:
        raise ValidationError(f"trials {trials} exceed the cap of {MAX_TRIALS}")


def check_convex_hull(
    m: Multimeter,
    programmed,
    trials: int = 20,
    seed: int = 0,
    tol: float = _PROGRAM_TOL,
) -> VerificationReport:
    """Programming a full orthonormal basis yields exactly the convex hull.

    ``programmed`` lists ``(probe, device)`` pairs, one per basis vector of
    the apparatus; devices are all observables or all channels.  For random
    pure and mixed programs the induced device must equal the mixture with
    weights ``<phi_i| xi |phi_i> = ||phi_i* Psi||^2``, ``Psi`` the program's
    components (see :func:`~qmultimeter.multimeter.make_model`); the basis
    vectors are the components of the basis probes.
    ``trials`` above :data:`MAX_TRIALS` raises ``ValidationError`` before
    anything is drawn; with ``trials <= 0`` nothing is drawn, so nothing was
    tested and the verdict is ``not_applicable``.

    Each declared device becomes one array once, and the basis probes and
    each chunk of trials are induced in one stacked product (see
    :func:`~qmultimeter.multimeter._induced_stack`).  A chunk's programs are
    one block of normals, per trial those of :func:`random_state_vector` and
    then of a complex Gaussian ``dim_k x dim_k`` matrix ``G``: a pure probe
    ``psi / ||psi||`` and a mixed one as its own components ``G / ||G||_F``,
    the Hilbert-Schmidt random state ``G G* / tr(G G*)`` (Zyczkowski &
    Sommers 2001).  A chunk holds about ``_HULL_CHUNK_ELEMENTS`` entries of
    program maps, and no residual depends on it.
    """
    name = "convex_hull"
    _check_trials(trials)
    programmed = list(programmed)
    if len(programmed) != m.dim_k:
        raise ValidationError(
            f"need one programmed device per apparatus dimension ({m.dim_k}), got {len(programmed)}"
        )
    devices = [d for _, d in programmed]
    kinds = [k for k in DEVICE_KINDS.values() if all(isinstance(d, k.device) for d in devices)]
    if not kinds:
        raise ValidationError("devices must be all observables or all channels")
    models = [make_model(m, p) for p, _ in programmed]
    components = np.concatenate([model._components for model in models], axis=1)
    basis = components.conj().T
    gram = basis @ components
    if gram.shape != (m.dim_k, m.dim_k) or frobenius_norm(gram - np.eye(m.dim_k)) > _OVERLAP_TOL:
        raise ValidationError("program vectors are not orthonormal")
    k = kinds[0]
    declared = k.arrays(m, devices).reshape(m.dim_k, -1)

    def distances(psis, weights):
        """Distance of each probe's induced device to the mixture with ``weights[:, p]``."""
        induced = k.induce_arrays(m, psis, weights.shape[1])
        return _distances(induced - (weights.T @ declared).reshape(induced.shape))

    base_residual = float(distances(components, np.eye(m.dim_k)).max())
    residuals = {"basis_residual": base_residual}
    if base_residual > INDUCTION_TOL:
        return VerificationReport(
            name, "not_applicable", residuals, "probes do not program the declared devices"
        )
    if trials <= 0:
        return VerificationReport(
            name, "not_applicable", residuals, f"{trials} random programs: nothing was tested"
        )
    rng = np.random.default_rng(seed)
    dim_k = m.dim_k
    chunk = max(1, _HULL_CHUNK_ELEMENTS // (2 * len(m.interaction) * (m.dim_h * dim_k) ** 2))
    worst = np.zeros(2)
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        # a trial's rows of normals: Re psi, Im psi, then the rows of Re G and of Im G
        x = rng.standard_normal((count, 2 * dim_k + 2, dim_k))
        psi, g = x[:, 0] + 1j * x[:, 1], x[:, 2 : dim_k + 2] + 1j * x[:, dim_k + 2 :]
        # each trial's pure and mixed probe hold dim_k columns; a pure one's first alone is nonzero
        psis = np.zeros((count, 2, dim_k, dim_k), dtype=complex)
        psis[:, 0, :, 0] = psi / np.linalg.norm(psi, axis=1, keepdims=True)
        psis[:, 1] = g / np.linalg.norm(g, axis=(1, 2), keepdims=True)
        psis = psis.transpose(2, 0, 1, 3).reshape(dim_k, -1)
        weights = (np.abs(basis @ psis) ** 2).reshape(dim_k, -1, dim_k).sum(axis=2)
        worst = np.maximum(worst, distances(psis, weights).reshape(count, 2).max(axis=0))
    residuals.update(max_pure_residual=float(worst[0]), max_mixed_residual=float(worst[1]))
    largest = float(worst.max())
    if largest <= tol:
        return VerificationReport(
            name, "pass", residuals, f"{trials} random programs stay in the convex hull"
        )
    return VerificationReport(
        name,
        "fail",
        residuals,
        f"violated: mixture residual {largest:.3e} > {tol:.3e}",
    )


def check_purification(
    m: Multimeter,
    mixed_probe: np.ndarray,
    tol: float = _PROGRAM_TOL,
    kind: str = "observable",
) -> VerificationReport:
    """Extreme devices never need mixed probes.

    If the device induced by a mixed probe is extreme, every eigenvector of
    the probe must induce that same device, so a pure probe suffices.  The
    eigenvectors are the model's components of weight above 1e-12, induced
    in one stacked product (see :func:`~qmultimeter.multimeter._induced_stack`).
    """
    name = "purification"
    if kind not in DEVICE_KINDS:
        raise ValueError(f"kind must be {' or '.join(map(repr, DEVICE_KINDS))}, got {kind!r}")
    k = DEVICE_KINDS[kind]
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


# ---------------------------------------------------------------------------
# randomized counterexample search


#: Samples per chunk of the search: at most ``_SEARCH_CHUNK_ELEMENTS // n**2``
#: with ``n = dim_h * dim_k``, a size that depends only on the dimensions, so
#: results depend only on the seed.  A sample holds ``n * 2 * dim_h``
#: programmed entries (``n**2`` for ``dim_k = 1``), never more than ``n**2``,
#: so a chunk of more than one sample holds at most ``_SEARCH_CHUNK_ELEMENTS``.
_SEARCH_CHUNK = 256
_SEARCH_CHUNK_ELEMENTS = 2**14

#: Share of structured samples among those the search draws.
_STRUCTURED_RATE = 0.05


def _probe_coordinates(phis: np.ndarray) -> np.ndarray:
    """Coordinates ``a`` of a stack of probe pairs in an orthonormal basis of their span.

    ``phis`` has shape ``(T, 2, dim_k)``.  With ``u_1 = phi_1`` and
    ``u_2 = (phi_2 - c phi_1) / s``, where ``c = <phi_1, phi_2>`` and
    ``s = ||phi_2 - c phi_1||``, probe 1 is ``(1, 0)`` and probe 2 is
    ``(c, s)``.  Nothing divides by ``s``, so parallel probes need no care.
    """
    c = np.sum(phis[:, 0].conj() * phis[:, 1], axis=-1)
    s = np.linalg.norm(phis[:, 1] - c[:, None] * phis[:, 0], axis=-1)
    a = np.zeros((len(phis), 2, 2), dtype=complex)
    a[:, 0, 0] = 1.0
    a[:, 1, 0] = c
    a[:, 1, 1] = s
    return a


def _stacked_effects(q: np.ndarray, a: np.ndarray, dim_h: int) -> np.ndarray:
    """Effects induced on a chunk of samples, each programmed by several pure probes.

    A sample is ``(Q, a)``: ``Q`` of shape ``(n, dim_h, m)`` with
    ``n = dim_h * dim_k`` holds the programmed columns ``g (I (x) u_j)`` of a
    coupling ``g`` for orthonormal ``u_1, ..., u_m`` that span the probes,
    and row ``p`` of ``a`` holds probe ``p``'s coordinates in them.  With
    ``u_j = e_j`` and ``m = dim_k``, ``Q`` is ``g`` itself and ``a`` the
    probes.  With the computational-basis pointer, outcome ``i`` reads the
    rows ``(r, i)`` of ``M = Q a_p = g (I (x) phi_p)``, the slot ``B_i``,
    and its effect is the Gram matrix ``B_i* B_i``.

    The chunk is sample-minor: the sample axis is last and contiguous, so
    ``q`` has shape ``(n, dim_h, m, T)``, ``a`` shape ``(P, m, T)`` and the
    result shape ``(P, dim_k, dim_h, dim_h, T)``.  Each product is one
    ``einsum`` whose inner loop runs over the ``T`` samples, where a stack of
    tiny matrices would pay one ``matmul`` call per matrix.  ``einsum`` adds
    the terms of each entry in one order whatever ``T`` is, so a sample
    evaluated alone gives what it gives in its chunk, bit for bit (a test
    checks this).
    """
    n, t = len(q), q.shape[-1]
    m = np.einsum("ahkt,pkt->paht", q, a).reshape(len(a), dim_h, n // dim_h, dim_h, t)
    return np.einsum("prict,pridt->picdt", m.conj(), m)


def _matrix_norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norms over the two axes before the last of a sample-minor stack."""
    return np.sqrt(np.einsum("...cet,...cet->...t", x.conj(), x).real)


def _search_stats(q: np.ndarray, a: np.ndarray, dim_h: int) -> tuple:
    """Sharpness residual, probe overlap and device distance per sample of a chunk.

    ``q`` and ``a`` are sample-minor, as :func:`_stacked_effects` takes
    them, with one probe pair per sample.  The sharpness residual is the
    largest ``||E^2 - E||`` over the effects of both induced observables, the
    distance the largest ``||E_1(i) - E_2(i)||`` over outcomes ``i``.
    """
    e = _stacked_effects(q, a, dim_h)
    sharp = _matrix_norms(np.einsum("picdt,pidet->picet", e, e) - e).max(axis=(0, 1))
    distance = _matrix_norms(e[0] - e[1]).max(axis=0)
    overlap = np.abs(np.sum(a[0].conj() * a[1], axis=0))
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
    return _dilation_couplings(effects, dim_k)


def _draw_samples(dim_h: int, dim_k: int, size: int, rng: np.random.Generator) -> tuple:
    """``(Q, a, structured count)`` of ``size`` sample-minor samples; see :func:`_stacked_effects`.

    A Haar coupling ``g`` and Haar probes ``(phi_1, phi_2)`` enter the
    induced observables only through ``g (I (x) u_j)`` for an orthonormal
    pair ``(u_1, u_2)`` spanning the probes.  By the invariance of Haar
    measure those ``2 * dim_h`` columns are a Haar isometry, so for
    ``dim_k > 2`` only they are drawn.  For ``dim_k <= 2`` the standard
    basis spans K: ``Q`` is the whole coupling and ``a`` the probes.  The
    chunk's isometries are one :func:`haar_isometry` stack, orthonormalised
    by Gram-Schmidt across its samples when it holds at least 16 per
    column (every full chunk of the criterion-6 cells); a shorter chunk and
    the few structured couplings take LAPACK's ``qr``, with the same law.
    A structured sample takes the columns ``j < 2`` of its coupling, with
    probes ``e_0`` and ``e_1``.  The samples are drawn sample-major and
    transposed once, at the end, so the layout changes no draw.
    """
    n = dim_h * dim_k
    span = min(dim_k, 2)
    structured = (rng.random(size) < _STRUCTURED_RATE) & (dim_k >= 2)
    q = haar_isometry(n, dim_h * span, rng, batch=(size,)).reshape(size, n, dim_h, span)
    phis = random_state_vector(dim_k, rng, batch=(size, 2))
    count = int(np.count_nonzero(structured))
    if count:
        g = _structured_couplings(dim_h, dim_k, count, rng)
        q[structured] = g.reshape(count, n, dim_h, dim_k)[..., :2]
        phis[structured] = np.eye(dim_k)[:2]
    a = phis if dim_k <= 2 else _probe_coordinates(phis)
    return np.moveaxis(q, 0, -1).copy(), np.moveaxis(a, 0, -1).copy(), count


def _refine(q, a, thresholds, dim_h, rng):
    """Gradient-free descent on the violation objective.

    Coordinate-wise complex perturbations of the probe coordinates ``a``
    and of a unitary generator on the span of ``Q``'s columns, with
    geometric step decay; the objective is non-smooth at projection
    boundaries so no derivatives are assumed.  Any probe pair and coupling
    reach only the span of the probes, so the descent in ``(Q, a)`` is the
    descent over couplings and probes of that span.  The sample is held
    sample-minor, as a chunk of one (see :func:`_stacked_effects`).

    The descent is a loop that draws one proposal, scores it and accepts it
    if it lowers the objective.  No draw depends on what was accepted, so
    all ``_REFINE_STEPS`` proposals are drawn first, in that loop's order,
    and the unitaries of the moves of ``Q`` are formed in one stacked
    ``eigh`` and product.  The next ``_REFINE_BATCH`` proposals are then
    built on the current sample and scored as one chunk; the first that
    lowers the objective is accepted and the next batch starts after it.
    Each step is the loop's, and a sample scores in a chunk what it scores
    alone, so the result is the loop's bit for bit (a test keeps the loop as
    the oracle).
    """

    def objective(q, a):
        sharp, overlap, distance = _search_stats(q, a, dim_h)
        # fmax, like the scalar max(0.0, x), ignores a NaN
        return (
            sharp
            + 10.0 * np.fmax(0.0, thresholds["overlap"] - overlap)
            + 10.0 * np.fmax(0.0, thresholds["distance"] - distance)
        )

    n, m = len(q), a.shape[1]
    dim = dim_h * m
    # proposal k moves probe kinds[k] (0 or 1) by moves[k] at coordinate
    # coords[k][0], or (kind 2) rotates Q by exp(i steps[k] h) with
    # h[i, j] = moves[k] plus its adjoint, (i, j) = coords[k]
    kinds, coords, moves, steps = [], [], [], []
    step = 0.1
    for _ in range(_REFINE_STEPS):
        kinds.append(rng.integers(0, 3))
        coords.append(rng.integers(0, dim, size=2) if kinds[-1] == 2 else (rng.integers(0, m),) * 2)
        z = rng.normal() + 1j * rng.normal()
        moves.append(step * z if kinds[-1] < 2 else z)
        steps.append(step)
        step *= _REFINE_DECAY
    kinds, coords, moves, steps = (np.array(x) for x in (kinds, coords, moves, steps))
    (rotations,) = (kinds == 2).nonzero()
    h = np.zeros((len(rotations), dim, dim), dtype=complex)
    i, j = coords[rotations].T
    h[np.arange(len(rotations)), i, j] += moves[rotations]
    h[np.arange(len(rotations)), j, i] += moves[rotations].conj()
    eigvals, vecs = np.linalg.eigh(h)
    phases = np.exp(1j * steps[rotations, None] * eigvals)[:, None, :]
    unitaries = np.empty((_REFINE_STEPS, dim, dim), dtype=complex)
    unitaries[rotations] = (vecs * phases) @ vecs.conj().swapaxes(-1, -2)

    best = objective(q, a)[0]
    start = 0
    while start < _REFINE_STEPS:
        batch = slice(start, min(start + _REFINE_BATCH, _REFINE_STEPS))
        kind, coord, move = kinds[batch], coords[batch, 0], moves[batch]
        cand_q, cand_a = np.repeat(q, len(kind), axis=-1), np.repeat(a, len(kind), axis=-1)
        rotate = kind == 2
        rotated = q.reshape(n, dim) @ unitaries[batch][rotate]
        cand_q.reshape(n, dim, -1)[..., rotate] = rotated.transpose(1, 2, 0)
        (cols,) = (~rotate).nonzero()
        probes = kind[cols]
        cand_a[probes, coord[cols], cols] += move[cols]
        v = cand_a[probes, :, cols]
        # row-times-column products are np.linalg.norm's dot, bit for bit
        norms = np.sqrt(v.real[:, None] @ v.real[..., None] + v.imag[:, None] @ v.imag[..., None])
        cand_a[probes, :, cols] = v / norms[:, 0]
        values = objective(cand_q, cand_a)
        (better,) = (values < best).nonzero()
        if not better.size:
            start = batch.stop
            continue
        c = better[0]
        best, q, a = values[c], cand_q[..., c : c + 1].copy(), cand_a[..., c : c + 1].copy()
        start += c + 1
    return q, a


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
    every run.  A chunk is evaluated with the sample axis last, one
    ``einsum`` per product (see :func:`_stacked_effects`), and its Haar
    draws are orthonormalised the same way, one column at a time across
    the chunk (see :func:`~qmultimeter.operators.haar_isometry`).  A
    sample's observables depend on its coupling only through the columns
    that program the probes' span, so for ``dim_k > 2`` only that Haar
    isometry is drawn and refined (see :func:`_draw_samples`).  When no sample
    qualifies -- ``trials <= 0``, or ``dim_k = 1``, where every probe
    induces the same trivial observable -- nothing was tested: the verdict
    is ``not_applicable`` and the floor residuals are omitted.

    Raises
    ------
    DimensionError
        If a dimension is below 1 or ``dim_h * dim_k`` exceeds
        :data:`~qmultimeter.operators.DIMENSION_CAP`; nothing is allocated.
    ValidationError
        If ``trials`` exceeds :data:`MAX_TRIALS`, or ``thresholds`` has a key
        outside :data:`DEFAULT_SEARCH_THRESHOLDS` or a non-finite value;
        nothing is drawn.
    """
    name = "counterexample_search"
    if min(dim_h, dim_k) < 1 or dim_h * dim_k > DIMENSION_CAP:
        raise DimensionError(
            f"search dimensions ({dim_h}, {dim_k}) must be at least 1 "
            f"with product at most {DIMENSION_CAP}"
        )
    _check_trials(trials)
    thr = dict(DEFAULT_SEARCH_THRESHOLDS)
    for key, value in (thresholds or {}).items():
        if key not in thr:
            raise ValidationError(f"unknown search threshold {key!r}; known: {list(thr)}")
        if not np.isfinite(value):
            raise ValidationError(f"search threshold {key!r} must be finite, got {value}")
        thr[key] = value
    rng = np.random.default_rng(seed)
    n = dim_h * dim_k
    chunk = max(1, min(_SEARCH_CHUNK, _SEARCH_CHUNK_ELEMENTS // n**2))
    violations = qualifying = structured_count = 0
    best = None  # (sharp, overlap, distance, Q, a) of the floor sample

    def tally(q, a):
        nonlocal violations, qualifying, best
        sharp, overlap, distance = _search_stats(q, a, dim_h)
        idx = np.flatnonzero((overlap >= thr["overlap"]) & (distance >= thr["distance"]))
        qualifying += idx.size
        violations += int(np.count_nonzero(sharp[idx] <= thr["sharp_residual"]))
        if idx.size:
            i = idx[np.argmin(sharp[idx])]
            if best is None or sharp[i] < best[0]:
                stats = (float(sharp[i]), float(overlap[i]), float(distance[i]))
                best = (*stats, q[..., i : i + 1].copy(), a[..., i : i + 1].copy())

    for start in range(0, trials, chunk):
        q, a, count = _draw_samples(dim_h, dim_k, min(chunk, trials - start), rng)
        structured_count += count
        tally(q, a)
    if refine and best is not None:
        tally(*_refine(*best[3:], thr, dim_h, rng))
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
