"""Programmable measurement models: apparatus, pointer, interaction.

A multimeter fixes the apparatus space, pointer observable and
interaction; programming means choosing the probe state.  A measurement
model adds the probe (and optionally a classical post-processing kernel)
and induces both a measured observable and a channel on the system.

Composite spaces are ordered system-first throughout: ``H (x) K``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel, _checked_channel, is_unitary_channel, make_channel
from .exceptions import DimensionError, ValidationError
from .observables import (
    SUPPORT_TOL,
    Observable,
    StochasticKernel,
    _checked_observable,
    is_sharp,
    make_observable,
    post_process,
)
from .operators import (
    DEFAULT_TOL,
    DIMENSION_CAP,
    PAULI,
    check_density_operator,
    check_state_vector,
    dagger,
    embed_factors,
    frobenius_norm,
    projector,
    tensor,
    tensor_many,
)

#: Probe eigenvalues below this carry no weight in induction.
PROBE_CUTOFF = 1e-14

#: Tolerance at which induced observables and channels are validated.
INDUCTION_TOL = 1e-7

#: Entries of a unit vector at most this large do not fix its global phase.
PHASE_ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class Multimeter:
    """Programmable measurement setting ``<K, Z, V>`` with the probe left open."""

    dim_h: int
    dim_k: int
    pointer: Observable
    interaction: Channel
    normal: bool

    @property
    def coupling(self) -> np.ndarray:
        """The unitary interaction operator of a normal multimeter."""
        if not self.normal:
            raise ValidationError("multimeter is not normal; no single unitary coupling")
        return self.interaction.kraus[0]


@dataclass(frozen=True)
class MeasurementModel:
    """A multimeter together with a probe state and optional kernel."""

    meter: Multimeter
    probe: np.ndarray
    kernel: StochasticKernel | None = None


def make_multimeter(
    dim_h: int,
    dim_k: int,
    pointer: Observable,
    interaction: Channel,
    tol: float = DEFAULT_TOL,
) -> Multimeter:
    """Validate dimensions and classify the multimeter.

    The ``normal`` flag is derived, never declared: a single unitary Kraus
    operator plus a sharp pointer.  Unitarity is read from the residual
    ``interaction.tp_residual`` that :func:`make_channel` stored, against
    ``tol * max(1, sqrt(dim))`` with this call's ``tol`` (see
    :func:`~qmultimeter.channels.is_unitary_channel`); no product of the
    coupling is formed here.
    """
    if pointer.dim != dim_k:
        raise DimensionError(f"pointer dimension {pointer.dim}, expected {dim_k}")
    if interaction.dim != dim_h * dim_k:
        raise DimensionError(
            f"interaction dimension {interaction.dim}, expected {dim_h * dim_k}"
        )
    normal = is_unitary_channel(interaction, tol) and is_sharp(pointer, tol)
    return Multimeter(
        dim_h=dim_h, dim_k=dim_k, pointer=pointer, interaction=interaction, normal=normal
    )


def make_model(
    meter: Multimeter,
    probe: np.ndarray,
    kernel: StochasticKernel | None = None,
    claimed: Observable | None = None,
    tol: float = DEFAULT_TOL,
) -> MeasurementModel:
    """Attach a probe (vector or density operator) and optional kernel.

    The probe is stored normalised (a vector divided by its norm, a density
    operator by its trace), so any probe the state checks accept induces a
    valid device.

    Parameters
    ----------
    claimed : Observable, optional
        A sharp observable this model claims to measure.  Claims violating
        the apparatus lower bound ``dim K >= N`` (N the number of nonzero
        effects) are rejected; the bound is a hard no-go, so no such model
        exists.
    """
    probe = np.asarray(probe, dtype=complex)
    if probe.ndim == 1:
        probe = check_state_vector(probe)
        probe = probe / np.linalg.norm(probe)
    elif probe.ndim == 2:
        probe = check_density_operator(probe)
        probe = probe / np.trace(probe).real
    else:
        raise DimensionError("probe must be a vector or a density matrix")
    if probe.shape[0] != meter.dim_k:
        raise DimensionError(f"probe dimension {probe.shape[0]}, expected {meter.dim_k}")
    if kernel is not None and kernel.rows != len(meter.pointer):
        raise DimensionError(
            f"kernel has {kernel.rows} rows but pointer has {len(meter.pointer)} outcomes"
        )
    if claimed is not None:
        if claimed.dim != meter.dim_h:
            raise DimensionError(
                f"claimed observable dimension {claimed.dim}, expected {meter.dim_h}"
            )
        if is_sharp(claimed, tol):
            n_valued = sum(1 for eff in claimed.effects if frobenius_norm(eff) > tol)
            if meter.dim_k < n_valued:
                raise ValidationError(
                    f"no model with dim K = {meter.dim_k} can measure a sharp "
                    f"{n_valued}-outcome observable (requires dim K >= {n_valued})"
                )
    probe.setflags(write=False)
    return MeasurementModel(meter=meter, probe=probe, kernel=kernel)


def _effective_pointer(model: MeasurementModel) -> Observable:
    if model.kernel is None:
        return model.meter.pointer
    return post_process(model.meter.pointer, model.kernel)


def _program_blocks(model: MeasurementModel) -> np.ndarray:
    """Stack ``M[j, r, i, c]`` of the maps the probe programs into the interaction.

    With ``xi = sum_j lam_j |psi_j><psi_j|``, each Kraus operator ``V_v``
    and each eigenvector with ``lam_j >= PROBE_CUTOFF`` give one block
    ``sqrt(lam_j) V_v (I (x) psi_j) : H -> H (x) K``, its rows split into
    ``(r, i)``.  The kept eigenvalues are renormalised to sum to one, so
    dropping negligible or slightly negative ones keeps the device
    normalised.  A pure probe is its own single eigenvector.
    """
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


def induced_observable(model: MeasurementModel) -> Observable:
    """The observable measured by the model.

    ``E(x) = sum_j M_j* (I (x) Z(x)) M_j`` over the program maps ``M_j`` of
    the probe (see :func:`_program_blocks`), which equals
    ``tr_K[ V*(I (x) Z(x)) V (I (x) xi) ]``; the pointer ``Z`` is first
    smeared by the kernel when one is present.  Each ``Z(x)`` acts on the
    pointer index of the blocks alone, so nothing on ``H (x) K`` is formed.
    """
    dim_h, dim_k = model.meter.dim_h, model.meter.dim_k
    z = _effective_pointer(model)
    # b[i, (j, r, c)] = M[j, r, i, c]; its rows (i, j, r) give the adjoint side.
    b = _program_blocks(model).transpose(2, 0, 1, 3).reshape(dim_k, -1)
    b_adj = b.reshape(-1, dim_h).conj().T
    effects = [b_adj @ (eff @ b).reshape(-1, dim_h) for eff in z.effects]
    return make_observable(dim_h, z.outcomes, effects, tol=INDUCTION_TOL)


def induced_channel(model: MeasurementModel) -> Channel:
    """The channel ``rho -> tr_K[ V(rho (x) xi) V* ]`` induced on the system.

    Its Kraus operators are the pointer rows ``(I (x) <i|) M_j`` of the
    program maps ``M_j`` (see :func:`_program_blocks`).  The pointer and
    kernel play no role here.
    """
    dim_h = model.meter.dim_h
    kraus = _program_blocks(model).transpose(0, 2, 1, 3).reshape(-1, dim_h, dim_h)
    return make_channel(kraus, tol=INDUCTION_TOL)


# ---------------------------------------------------------------------------
# constructions


def _transposition(dim: int, j: int) -> np.ndarray:
    """Permutation matrix swapping basis vectors 0 and j."""
    perm = np.eye(dim, dtype=complex)
    if j:
        perm[[0, j]] = perm[[j, 0]]
    return perm


def minimal_dilation_multimeter(
    a: Observable, tol: float = DEFAULT_TOL
) -> tuple[Multimeter, np.ndarray]:
    """Normal multimeter measuring a sharp observable with ``dim K = N``.

    The coupling ``G = sum_j A(j) (x) T_j`` pairs each effect with the
    transposition ``T_j`` swapping pointer slots 0 and j; programming with
    the first basis vector then reproduces ``a`` exactly.  N is the
    smallest apparatus dimension any model measuring ``a`` can have.
    """
    if not is_sharp(a, tol):
        raise ValidationError("minimal dilation needs a sharp observable")
    n = len(a)
    g = sum(
        tensor(a.effects[j], dagger(_transposition(n, j))) for j in range(n)
    )
    pointer = make_observable(
        n, a.outcomes, [projector(np.eye(n)[k]) for k in range(n)]
    )
    meter = make_multimeter(a.dim, n, pointer, make_channel([g]))
    probe = np.eye(n, dtype=complex)[0]
    return meter, probe


def _embed_channel(c: Channel, dims, positions) -> Channel:
    """Lift a channel on selected tensor factors to the full space."""
    return make_channel([embed_factors(k, dims, positions) for k in c.kraus])


def _selector_coupling(blocks, residuals, multiplicities) -> Channel:
    """The channel of ``g = sum_i B_i (x) P[e_i]``, written block by block.

    ``g* g - I`` is block-diagonal over the selector with blocks
    ``B_i* B_i - I``.  Each ``B_i`` is a validated coupling with stored
    residual ``r_i`` tensored (factors permuted) with an identity of
    dimension ``m_i``, so ``||g* g - I||_F^2 = sum_i m_i r_i^2`` exactly;
    that bound is handed to the shared tail of
    :func:`~qmultimeter.channels.make_channel`, which computes the dense
    residual only when the bound misses the margin.
    """
    n = len(blocks)
    dim = blocks[0].shape[0]
    g = np.zeros((dim, n, dim, n), dtype=complex)
    for i, block in enumerate(blocks):
        g[:, i, :, i] = block
    residual = float(np.sqrt(sum(m * r * r for m, r in zip(multiplicities, residuals))))
    return _checked_channel([g.reshape(dim * n, dim * n)], DEFAULT_TOL, residual)


def _tensor_idempotence_bound(factors) -> float:
    """Bound on ``||X^2 - X||_F`` for ``X = F_1 (x) ... (x) F_n``.

    ``factors`` holds ``(||F||_F, ||F^2||_F, ||F^2 - F||_F)`` of each
    factor in order.  ``X^2 - X`` telescopes into the sum over k of
    ``F_1 (x) .. (x) F_{k-1} (x) (F_k^2 - F_k) (x) F_{k+1}^2 (x) .. (x) F_n^2``,
    and the Frobenius norm is multiplicative over tensor products.
    """
    return sum(
        math.prod(f[0] for f in factors[:k]) * defect * math.prod(f[1] for f in factors[k + 1:])
        for k, (_, _, defect) in enumerate(factors)
    )


def _factor_norms(f: np.ndarray) -> tuple:
    """``(||F||_F, ||F^2||_F, ||F^2 - F||_F)`` of a tensor factor."""
    sq = f @ f
    return frobenius_norm(f), frobenius_norm(sq), frobenius_norm(sq - f)


def push_button_multimeter(devices) -> tuple[Multimeter, list]:
    """Bundle pre-built devices; an orthonormal selector picks one.

    Two modes:

    * a list of unitary channels ``U_i``: the coupling is
      ``sum_i U_i (x) P[e_i]`` on ``H (x) C^n``, and programming with the
      selector basis reproduces each channel (mixtures of selectors give
      the matching convex mixtures);
    * a list of ``(multimeter, probe)`` pairs, each a normal model: the
      apparatus becomes ``K_1 (x) ... (x) K_n (x) C^n``, the pointer reads
      all component pointers jointly (outcome labels are comma-joined),
      and selector ``i`` leaves every meter except the i-th idle.

    The coupling's residual and the pointer effects' idempotence and
    positivity are bounded from the validated parts; a dense check runs
    only where a bound misses the margin of
    :func:`~qmultimeter.operators.certifies`, so every decision is the dense one.
    """
    devices = list(devices)
    if not devices:
        raise ValidationError("no devices to bundle")
    n = len(devices)
    if all(isinstance(d, Channel) for d in devices):
        dim = devices[0].dim
        for c in devices:
            if c.dim != dim:
                raise DimensionError("channel dimensions differ")
            if not is_unitary_channel(c):
                raise ValidationError("push-button channel mode needs unitary channels")
        if dim * n > DIMENSION_CAP:
            raise DimensionError(
                f"bundle dimension {dim * n} exceeds dimension cap {DIMENSION_CAP}"
            )
        basis = np.eye(n, dtype=complex)
        pointer = make_observable(
            n, tuple(range(1, n + 1)), [projector(basis[i]) for i in range(n)]
        )
        coupling = _selector_coupling(
            [c.kraus[0] for c in devices], [c.tp_residual for c in devices], [1] * n
        )
        meter = make_multimeter(dim, n, pointer, coupling)
        return meter, [basis[i] for i in range(n)]

    meters = []
    probes = []
    for entry in devices:
        try:
            meter, probe = entry
        except (TypeError, ValueError):
            raise ValidationError(
                "devices must be all channels or all (multimeter, probe) pairs"
            ) from None
        if not isinstance(meter, Multimeter) or not meter.normal:
            raise ValidationError("push-button observable mode needs normal multimeters")
        probe = check_state_vector(probe)
        if probe.shape[0] != meter.dim_k:
            raise DimensionError(
                f"probe {len(probes)} has dimension {probe.shape[0]}, expected {meter.dim_k}"
            )
        meters.append(meter)
        probes.append(probe)
    dim_h = meters[0].dim_h
    if any(m.dim_h != dim_h for m in meters):
        raise DimensionError("system dimensions differ")
    dims = [dim_h] + [m.dim_k for m in meters] + [n]
    dim_k = math.prod(dims[1:])
    if dim_h * dim_k > DIMENSION_CAP:
        raise DimensionError(
            f"bundle dimension {dim_h * dim_k} exceeds dimension cap {DIMENSION_CAP}"
        )
    coupling = _selector_coupling(
        [embed_factors(m.coupling, dims[:-1], [0, 1 + i]) for i, m in enumerate(meters)],
        [m.interaction.tp_residual for m in meters],
        [dim_k // (n * m.dim_k) for m in meters],
    )
    parts = [
        [(x, eff, _factor_norms(eff)) for x, eff in zip(m.pointer.outcomes, m.pointer.effects)]
        for m in meters
    ]
    idle_norms = _factor_norms(np.eye(n))
    pointer_labels = []
    pointer_effects = []
    pointer_bounds = []
    for combo in itertools.product(*parts):
        pointer_labels.append(",".join(str(x) for x, _, _ in combo))
        pointer_effects.append(tensor_many([eff for _, eff, _ in combo] + [np.eye(n)]))
        pointer_bounds.append(_tensor_idempotence_bound([f for _, _, f in combo] + [idle_norms]))
    pointer = _checked_observable(
        dim_k, pointer_labels, pointer_effects, DEFAULT_TOL, pointer_bounds
    )
    meter = make_multimeter(dim_h, dim_k, pointer, coupling)
    selector = np.eye(n, dtype=complex)
    big_probes = [
        tensor_many([p.reshape(-1, 1) for p in probes] + [selector[i].reshape(-1, 1)]).reshape(-1)
        for i in range(n)
    ]
    return meter, big_probes


def shared_pointer_multimeter(
    observables, tol: float = DEFAULT_TOL
) -> tuple[Multimeter, list]:
    """One pointer shared by n sharp observables: ``dim K = n * max N_i``.

    Observables with fewer outcomes are padded with zero effects.  The
    probe ``e_0 (x) e_i`` selects observable i; pointer outcomes are
    labelled by position ``1..max N_i``.
    """
    observables = list(observables)
    if not observables:
        raise ValidationError("no observables given")
    dim_h = observables[0].dim
    for a in observables:
        if a.dim != dim_h:
            raise DimensionError("observable dimensions differ")
        if not is_sharp(a, tol):
            raise ValidationError("shared-pointer construction needs sharp observables")
    n = len(observables)
    d = max(len(a) for a in observables)
    padded = [
        list(a.effects) + [np.zeros((dim_h, dim_h), dtype=complex)] * (d - len(a))
        for a in observables
    ]
    pointer_basis = np.eye(d, dtype=complex)
    selector = np.eye(n, dtype=complex)
    g = sum(
        tensor_many([padded[l][j], dagger(_transposition(d, j)), projector(selector[l])])
        for j in range(d)
        for l in range(n)
    )
    pointer = make_observable(
        d * n,
        tuple(range(1, d + 1)),
        [tensor(projector(pointer_basis[k]), np.eye(n)) for k in range(d)],
    )
    meter = make_multimeter(dim_h, d * n, pointer, make_channel([g]))
    probes = [np.kron(pointer_basis[0], selector[i]) for i in range(n)]
    return meter, probes


def concatenate_with_measurement(
    channel_meter: Multimeter, a_model: MeasurementModel, tol: float = DEFAULT_TOL
) -> Multimeter:
    """Feed the output of a programmable channel into a fixed measurement.

    The composite apparatus is ``K (x) K0``; programming with
    ``phi (x) eta`` (eta the measurement's own probe) measures the
    Heisenberg image of the fixed sharp observable under the channel that
    ``phi`` programs.
    """
    if a_model.meter.dim_h != channel_meter.dim_h:
        raise DimensionError("system dimensions differ")
    measured = induced_observable(a_model)
    if not is_sharp(measured, max(tol, INDUCTION_TOL)):
        raise ValidationError("the downstream model must measure a sharp observable")
    dim_h = channel_meter.dim_h
    dims = [dim_h, channel_meter.dim_k, a_model.meter.dim_k]
    first = _embed_channel(channel_meter.interaction, dims, [0, 1])
    second = _embed_channel(a_model.meter.interaction, dims, [0, 2])
    total = make_channel([s @ f for s in second.kraus for f in first.kraus])
    z0 = a_model.meter.pointer
    pointer = make_observable(
        channel_meter.dim_k * z0.dim,
        z0.outcomes,
        [tensor(np.eye(channel_meter.dim_k), eff) for eff in z0.effects],
    )
    return make_multimeter(dim_h, channel_meter.dim_k * z0.dim, pointer, total)


def _pauli_multimeter() -> tuple[Multimeter, list]:
    basis = np.eye(4, dtype=complex)
    g = sum(
        tensor(0.5 * PAULI[j] @ PAULI[k] @ PAULI[j], np.outer(basis[j], basis[k].conj()))
        for j in range(4)
        for k in range(4)
    )
    pointer = make_observable(4, (0, 1, 2, 3), [projector(basis[j]) for j in range(4)])
    meter = make_multimeter(2, 4, pointer, make_channel([g]))
    probes = [(basis[0] + basis[i]) / np.sqrt(2) for i in (1, 2, 3)]
    return meter, probes


def _swap_unitary(dim: int) -> np.ndarray:
    return (
        np.eye(dim * dim, dtype=complex)
        .reshape(dim, dim, dim, dim)
        .transpose(1, 0, 2, 3)
        .reshape(dim * dim, dim * dim)
    )


def _swap_multimeter(dim: int) -> tuple[Multimeter, list]:
    if dim < 1 or dim * dim > DIMENSION_CAP:
        raise DimensionError(
            f"swap dimension {dim} must be at least 1 with square at most {DIMENSION_CAP}"
        )
    basis = np.eye(dim, dtype=complex)
    pointer = make_observable(
        dim, tuple(range(1, dim + 1)), [projector(basis[i]) for i in range(dim)]
    )
    meter = make_multimeter(dim, dim, pointer, make_channel([_swap_unitary(dim)]))
    return meter, [basis[i] for i in range(dim)]


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its first sizable entry is real positive."""
    for entry in v:
        if abs(entry) > PHASE_ENTRY_TOL:
            return v * (abs(entry) / entry)
    return v


def _rank_one_basis(a: Observable) -> list:
    """Unit eigenvectors of a sharp two-outcome qubit observable's effects."""
    if a.dim != 2 or len(a) != 2 or not is_sharp(a):
        raise ValidationError("expected a sharp two-outcome qubit observable")
    vecs = []
    for eff in a.effects:
        eigvals, eigvecs = np.linalg.eigh(eff)
        if abs(eigvals[-1] - 1.0) > SUPPORT_TOL or eigvals[0] > SUPPORT_TOL:
            raise ValidationError("effects must be rank-1 projections")
        vecs.append(_phase_fixed(eigvecs[:, -1]))
    return vecs


def _spin_pair_multimeter(observables) -> tuple[Multimeter, list]:
    a1, a2 = observables
    u = _rank_one_basis(a1)
    v = _rank_one_basis(a2)
    # Rotation R with A2(x) = R* A1(x) R, eigenbasis matched outcome by outcome.
    r = np.outer(u[0], v[0].conj()) + np.outer(u[1], v[1].conj())
    basis = np.eye(2, dtype=complex)
    m = tensor(np.eye(2), projector(basis[0])) + tensor(r, projector(basis[1]))
    g = _swap_unitary(2) @ m
    meter = make_multimeter(2, 2, a1, make_channel([g]))
    return meter, [basis[0], basis[1]]


#: Builtin multimeter names accepted by :func:`builtin_multimeter`.
BUILTIN_MULTIMETERS = ("pauli", "swap", "spin_pair")


def builtin_multimeter(name: str, **params) -> tuple[Multimeter, list]:
    """Named multimeter constructions.

    * ``pauli``: qubit system, four-slot apparatus, coupling built from
      conjugated Pauli words; the returned probes program the three
      noisy spin observables that post-processing sharpens.
    * ``swap`` (``dim``): swap coupling; every probe programs the complete
      contraction onto itself.
    * ``spin_pair`` (``observables``): two sharp qubit observables on a
      two-dimensional apparatus, reaching the programming lower bound.
    """
    if name == "pauli":
        return _pauli_multimeter(**params)
    if name == "swap":
        return _swap_multimeter(**params)
    if name == "spin_pair":
        return _spin_pair_multimeter(**params)
    raise ValueError(f"unknown builtin multimeter {name!r}; known: {BUILTIN_MULTIMETERS}")


def dimension_bounds(n: int, outcome_counts) -> tuple[int, int]:
    """Apparatus-size bounds for programming n sharp observables.

    Returns ``(max(n, N_1, ..., N_n), n * N_1 * ... * N_n)``: no smaller
    apparatus can program them all, and the push-button bundle always
    realizes the upper bound.  A count below 1 raises ``ValidationError``.
    """
    counts = [int(c) for c in outcome_counts]
    if not counts:
        raise ValueError("outcome_counts must not be empty")
    if min(counts) < 1:
        raise ValidationError(f"outcome counts must be at least 1, got {counts}")
    if n != len(counts):
        raise ValueError(f"n = {n} but {len(counts)} outcome counts given")
    lower = max(n, max(counts))
    upper = n * int(np.prod(counts, dtype=object))  # exact: no int64 wrap-around
    return lower, upper
