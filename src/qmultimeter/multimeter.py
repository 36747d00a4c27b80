"""Programmable measurement models: apparatus, pointer, interaction.

A multimeter fixes the apparatus space, pointer observable and
interaction; programming means choosing the probe state.  A measurement
model adds the probe (and optionally a classical post-processing kernel)
and induces both a measured observable and a channel on the system.

Composite spaces are ordered system-first throughout: ``H (x) K``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, _selector_sum, is_unitary_channel, make_channel
from .exceptions import DimensionError, ValidationError
from .observables import (
    SUPPORT_TOL,
    Observable,
    StochasticKernel,
    _joint_pointer,
    is_sharp,
    make_observable,
)
from .operators import (
    DEFAULT_TOL,
    DIMENSION_CAP,
    PAULI,
    _state_and_norm,
    check_density_operator,
    check_state_vector,
    embed_factors,
    projector,
    tensor,
)

#: Probe eigenvalues below this carry no weight in induction.
PROBE_CUTOFF = 1e-14

#: Tolerance at which induced observables and channels are validated.
#: An induced effect that is a Gram sum (see :func:`induced_observable`) is
#: positive up to rounding of at most ``n eps tr(M*M)``, with ``n`` the terms
#: summed per entry and ``tr(M*M)`` the program maps' squared norm, about
#: ``dim H``: under 4e-9 for a pure probe of a normal meter at
#: ``DIMENSION_CAP``.  So only its completeness, a compression of
#: ``V*V - I``, is checked at this tolerance.
INDUCTION_TOL = 1e-7

#: From this apparatus dimension on, a density probe is validated and
#: decomposed on its support only, and induction sums only the nonzero
#: pointer slots.  Below it, finding them costs more than the work they
#: skip (the two cross between dim K = 24 and 81 for push-button selectors).
SUPPORT_MIN_DIM_K = 64


@dataclass(frozen=True, eq=False)
class Multimeter:
    """Programmable measurement setting ``<K, Z, V>`` with the probe left open.

    The pointer's marks, when it has them (see
    :class:`~qmultimeter.observables.Observable`), are the 0/1 weights by
    which :func:`induced_observable` sums the pointer slots.  The
    constructions write their pointers from marks, a push-button bundle
    from its parts' marks, so their effects are built only when read.
    Equality is identity.
    """

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


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """A multimeter together with a probe state and optional kernel; equality is identity.

    ``_components`` is the probe's decomposition; see :func:`make_model`.
    """

    meter: Multimeter
    probe: np.ndarray
    kernel: StochasticKernel | None = None
    _components: np.ndarray = field(default=None, repr=False)


def make_multimeter(
    dim_h: int, dim_k: int, pointer: Observable, interaction: Channel, tol: float = DEFAULT_TOL
) -> Multimeter:
    """Validate dimensions and classify the multimeter.

    The ``normal`` flag is derived, never declared: a single unitary Kraus
    operator plus a sharp pointer.  Unitarity is read from the residual
    ``interaction.tp_residual`` that :func:`make_channel` stored, against
    ``tol * max(1, sqrt(dim))`` with this call's ``tol`` (see
    :func:`~qmultimeter.channels.is_unitary_channel`); no product of the
    coupling is formed here.  A pointer with marks is sharp with nothing
    built; any other pointer's effects are checked densely.
    """
    if pointer.dim != dim_k:
        raise DimensionError(f"pointer dimension {pointer.dim}, expected {dim_k}")
    if interaction.dim != dim_h * dim_k:
        raise DimensionError(
            f"interaction dimension {interaction.dim}, expected {dim_h * dim_k}"
        )
    # effects written from marks are exact 0/1 diagonals, hence projections at every tol
    normal = is_unitary_channel(interaction, tol) and (
        pointer._marks is not None or is_sharp(pointer, tol)
    )
    return Multimeter(
        dim_h=dim_h, dim_k=dim_k, pointer=pointer, interaction=interaction, normal=normal
    )


def _basis_effects(m: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Effects ``E(x) = sum_i w[x, i] B_i* B_i`` of a pointer diagonal in the basis of K.

    ``m[..., r, i, c]`` stacks program maps with rows ``r``, pointer index
    ``i`` and system index ``c``; ``B_i`` holds the rows ``r`` of slot ``i``,
    so ``B_i* B_i = sum_r m_r* (|i><i| (x) I) m_r``.  With a pointer's marks
    as the 0/1 ``weights`` (see :class:`~qmultimeter.observables.Observable`),
    ``E(x) = sum_r m_r* (Z(x) (x) I) m_r`` without a product by ``Z(x)``.
    Axes before ``r`` are kept: one set of effects per leading index.  The
    Grams are one stacked ``matmul``, and from ``SUPPORT_MIN_DIM_K`` slots
    on only those with a nonzero row for some leading index are formed and
    summed: the others have zero Grams.
    """
    rows = m.swapaxes(-2, -3)
    *lead, dim_k, _, dim_h = rows.shape
    if dim_k >= SUPPORT_MIN_DIM_K:
        nonzero = rows.any(axis=(-2, -1)).reshape(-1, dim_k).any(axis=0)
        if not nonzero.all():
            rows, weights = rows[..., nonzero, :, :], weights[:, nonzero]
    gram = rows.conj().swapaxes(-1, -2) @ rows
    effects = weights @ gram.reshape(*lead, -1, dim_h * dim_h)
    return effects.reshape(*lead, len(weights), dim_h, dim_h)


def make_model(
    meter: Multimeter,
    probe: np.ndarray,
    kernel: StochasticKernel | None = None,
    claimed: Observable | None = None,
) -> MeasurementModel:
    """Attach a probe (vector or density operator) and optional kernel.

    The probe is stored normalised (a vector divided by the norm its check
    took, a density operator by its trace), so any probe the state checks
    accept induces a valid device.  From ``SUPPORT_MIN_DIM_K`` on, a
    density operator is checked on its principal block over
    :func:`_probe_support` alone: the rest is exactly zero, so
    Hermiticity, positivity and the trace are decided as on the whole
    matrix.

    Here, after every check, the probe is decomposed once into the
    read-only ``(dim_k, r)`` components ``Psi``, ``Psi Psi* = probe``, that
    every reading of it takes.  A vector is its own column.  A density
    operator gives the nonzero columns of :func:`_density_components`,
    decomposed on the block it was checked on.

    Parameters
    ----------
    claimed : Observable, optional
        A sharp observable this model claims to measure.  Claims violating
        the apparatus lower bound ``dim K >= N`` (N the number of nonzero
        effects) are rejected; the bound is a hard no-go, so no such model
        exists.  Its sharpness and effect norms are the observable's stored
        projection defects (see :func:`~qmultimeter.observables.is_sharp`).
    """
    probe = np.asarray(probe, dtype=complex)
    support = slice(None)
    if probe.ndim == 1:
        probe, norm = _state_and_norm(probe)
        probe = probe / norm
    elif probe.ndim == 2:
        if probe.shape[0] == probe.shape[1] >= SUPPORT_MIN_DIM_K:
            support = _probe_support(probe)
        check_density_operator(probe[support][:, support])
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
        if is_sharp(claimed):
            n_valued = int(np.count_nonzero(claimed._projection_defects[:, 0] > DEFAULT_TOL))
            if meter.dim_k < n_valued:
                raise ValidationError(
                    f"no model with dim K = {meter.dim_k} can measure a sharp "
                    f"{n_valued}-outcome observable (requires dim K >= {n_valued})"
                )
    probe.setflags(write=False)
    if probe.ndim == 1:
        components = probe[:, None]
    else:
        columns = _density_components(probe[support][:, support])
        columns = columns[:, columns.any(axis=0)]
        components = np.zeros((meter.dim_k, columns.shape[1]), dtype=complex)
        components[support] = columns
        components.setflags(write=False)
    return MeasurementModel(meter=meter, probe=probe, kernel=kernel, _components=components)


def _density_components(rho: np.ndarray) -> np.ndarray:
    """Columns ``sqrt(lam_j) psi_j`` of each density operator of a stack, by one ``eigh``.

    Eigenvalues below ``PROBE_CUTOFF`` give zero columns, and the others
    are renormalised to sum to one, so the device stays normalised.
    """
    lam, vecs = np.linalg.eigh(rho)
    lam = np.where(lam >= PROBE_CUTOFF, lam, 0.0)
    return vecs * np.sqrt(lam / lam.sum(axis=-1, keepdims=True))[..., None, :]


def _probe_support(probe: np.ndarray) -> np.ndarray:
    """Indices whose row or column of a square probe holds a nonzero entry.

    Every entry outside the principal block on these indices is zero.
    """
    return np.flatnonzero(probe.any(axis=0) | probe.any(axis=1))


def _program_blocks(meter: Multimeter, psis: np.ndarray) -> np.ndarray:
    """Stack ``M[j, r, i, c]`` of the maps the probe vectors ``psis`` program into the interaction.

    ``psis`` holds probe vectors as columns, such as the components of a
    probe (see :func:`make_model`).  Column by column, and for each in the
    order of the Kraus operators ``V_v``, each gives one block
    ``V_v (I (x) psi) : H -> H (x) K``, its rows split into ``(r, i)``.
    A coupling held as its parts is never built: see :func:`_slot_blocks`.
    """
    if meter.interaction._parts is not None:
        return _slot_blocks(*meter.interaction._parts, psis)
    g = meter.interaction.kraus
    m = g.reshape(len(g), -1, meter.dim_k) @ psis
    m = m.reshape(-1, meter.dim_h, meter.dim_k, meter.dim_h, psis.shape[1])
    # the column axis first: np.moveaxis(m, -1, 0) at a tenth of its call cost
    return m.transpose(4, 0, 1, 2, 3).reshape(-1, meter.dim_h, meter.dim_k, meter.dim_h)


def _slot_blocks(parts, dims, psis: np.ndarray) -> np.ndarray:
    """:func:`_program_blocks` of a coupling held as its parts, one selector slot at a time.

    ``g = sum_s B_s (x) P[e_s]`` (see
    :meth:`~qmultimeter.channels.Channel._from_parts`) maps selector slot
    ``s`` into itself, so for any probe vector ``psi`` the rows of slot
    ``s`` of ``g (I (x) psi)`` are ``V_s`` contracted over ``K_s`` with
    ``chi_s``, the slot-``s`` entries of ``psi``, and the identity on the
    other ``K_j``.  Slots where every probe vector is zero stay zero, and
    the dense coupling is never read.  ``psis`` holds the probe vectors as
    columns.  The contraction adds one product per nonzero ``K_s`` entry of
    ``chi_s``, so a probe nonzero at one entry per slot (a selector, or any
    probe of a channel bundle) takes the products the dense coupling takes.
    A channel bundle takes all its slots in one product.
    """
    dim_h, ks, n = dims[0], dims[1:-1], dims[-1]
    dim_k, count = psis.shape
    chis = psis.reshape(dim_k // n, n, count)
    if dim_k == n:
        # a channel bundle, every K_i = C^1: slot s is U_s times entry s of each probe vector
        m = np.stack(parts)[..., None] * chis[0][:, None, None, :]
        return m.transpose(3, 1, 0, 2).reshape(count, dim_h, dim_k, dim_h)
    m = np.zeros((count, dim_h, dim_k // n, n, dim_h), dtype=complex)
    # the flags are read as lists: a few bools cost less to scan than to index
    for s, used in enumerate(chis.any(axis=(0, 2)).tolist()):
        if not used:
            continue
        # t[r, x, c, a, b, j] = sum_y V_s[(r, x), (c, y)] chi_s[(a, y, b), j], with x, y on K_s
        k, before = ks[s], math.prod(ks[:s])
        chi = chis[:, s].reshape(before, k, -1, count)
        v = parts[s].reshape(dim_h, k, dim_h, k, 1, 1, 1)
        entries = [y for y, nonzero in enumerate(chi.any(axis=(0, 2, 3)).tolist()) if nonzero]
        t = v[:, :, :, entries[0]] * chi[:, entries[0]]
        for y in entries[1:]:
            t += v[:, :, :, y] * chi[:, y]
        m.reshape(count, dim_h, before, k, -1, n, dim_h)[..., s, :] = t.transpose(5, 0, 3, 1, 4, 2)
    return m.reshape(count, dim_h, dim_k, dim_h)


def _induced_stack(meter: Multimeter, psis: np.ndarray, probes: int, channel: bool) -> np.ndarray:
    """Effects, or with ``channel`` Kraus operators, induced by each of ``probes`` probes.

    ``psis`` holds the probes' components side by side, an equal number
    each (zero columns add nothing); all are programmed in one
    :func:`_program_blocks`.  On a dense coupling that is one BLAS product
    whose results can differ in their last bits with its column count, so
    a probe stacked with others may differ by rounding from the probe
    induced alone; slot by slot, and for a probe whose products have one
    nonzero term per entry (a basis vector, scaled or not), they agree bit
    for bit.  Item ``p`` holds, from the maps ``M_j`` of
    probe ``p``, its effects ``E(x) = sum_j M_j* (I (x) Z(x)) M_j`` in
    pointer-outcome order, or its pointer rows ``(I (x) <i|) M_j``.  A
    pointer with marks sums the slots' Gram matrices (see
    :func:`_basis_effects`), any other multiplies the pointer index of the
    maps, so nothing on ``H (x) K`` is formed.  Nothing is validated.
    """
    dim_h, dim_k, pointer = meter.dim_h, meter.dim_k, meter.pointer
    m = _program_blocks(meter, psis)
    m = m.reshape(probes, -1, dim_h, dim_k, dim_h)
    if channel:
        return m.swapaxes(2, 3).reshape(len(m), -1, dim_h, dim_h)
    if pointer._marks is not None:
        return _basis_effects(m.reshape(len(m), -1, dim_k, dim_h), pointer._marks)
    # b[p, i, (j, r, c)] = M[p, j, r, i, c]; its rows (i, j, r) give the adjoint side.
    b = m.transpose(0, 3, 1, 2, 4).reshape(len(m), dim_k, -1)
    b_adj = b.reshape(len(m), -1, dim_h).conj().swapaxes(1, 2)
    zb = (pointer.effects @ b[:, None]).reshape(len(m), len(pointer), -1, dim_h)
    return b_adj[:, None] @ zb


def induced_observable(model: MeasurementModel) -> Observable:
    """The observable measured by the model.

    ``E(x) = sum_j M_j* (I (x) Z(x)) M_j`` over the program maps ``M_j`` of
    the probe's components (see :func:`_induced_stack`), which equals
    ``tr_K[ V*(I (x) Z(x)) V (I (x) xi) ]``.

    A kernel then smears the induced effects, ``E'(y) = sum_x k(x, y) E(x)``
    with outcomes ``1..cols`` as :func:`~qmultimeter.observables.post_process`
    labels them: the same observable as smearing the pointer first, with
    no operator on K formed or validated.  The effects are validated as
    :func:`_observable_of` states.
    """
    meter, kernel = model.meter, model.kernel
    effects = _induced_stack(meter, model._components, 1, channel=False)[0]
    outcomes = meter.pointer.outcomes
    if kernel is not None:
        effects = np.tensordot(kernel.weights, effects, axes=(0, 0))
        outcomes = range(1, kernel.cols + 1)
    return _observable_of(meter, effects, outcomes)


def _observable_of(meter: Multimeter, effects: np.ndarray, outcomes) -> Observable:
    """The observable of one probe's induced effects, validated at ``INDUCTION_TOL``.

    Effects induced through marks, smeared or not, are Gram sums, positive
    by construction to within ``DEFAULT_TOL``, and only their completeness
    is checked (see
    :meth:`~qmultimeter.observables.Observable._from_gram_sums`).  Effects
    induced densely are validated as
    :func:`~qmultimeter.observables.make_observable` validates, since a
    pointer without marks may have been validated at a looser ``tol`` (see
    :meth:`~qmultimeter.observables.Observable._from_stack`).  Either way
    the observable keeps ``effects``, a fresh product, without a copy.
    """
    if meter.pointer._marks is not None:
        return Observable._from_gram_sums(meter.dim_h, outcomes, effects, INDUCTION_TOL)
    return Observable._from_stack(meter.dim_h, outcomes, effects, INDUCTION_TOL)


def induced_channel(model: MeasurementModel) -> Channel:
    """The channel ``rho -> tr_K[ V(rho (x) xi) V* ]`` induced on the system.

    Its Kraus operators are the pointer rows ``(I (x) <i|) M_j`` of the
    program maps ``M_j`` of the probe's components (see
    :func:`_induced_stack`), validated as :func:`_channel_of` states.  The
    pointer and kernel play no role here.
    """
    return _channel_of(_induced_stack(model.meter, model._components, 1, channel=True)[0])


def _channel_of(kraus: np.ndarray) -> Channel:
    """The channel of one probe's induced pointer rows, validated at ``INDUCTION_TOL``.

    Rows that are exactly zero, which the probe does not reach or which pad
    its components in a stack, add nothing to the channel or its Choi
    matrix, so only the others are kept: a fresh stack, owned by the
    channel, validated as :func:`~qmultimeter.channels.make_channel`
    validates but not copied (see
    :meth:`~qmultimeter.channels.Channel._from_stack`).
    """
    return Channel._from_stack(kraus[kraus.any(axis=(1, 2))], INDUCTION_TOL)


# ---------------------------------------------------------------------------
# constructions


def _dilation_couplings(effects: np.ndarray, dim_k: int) -> np.ndarray:
    """Couplings ``sum_j A_j (x) T_j`` on ``H (x) C^dim_k`` of stacks ``effects[..., j, :, :]``.

    ``T_j`` swaps pointer slots 0 and j (``T_0 = I``), so probe ``e_0``
    induces ``A`` with the computational-basis pointer.  The sum runs over
    the given effects only, at most ``dim_k`` of them.  It is written block
    by block over the pointer: ``A_0`` at ``(0, 0)``, ``A_j`` at ``(0, j)``
    and ``(j, 0)``, and at ``(c, c)`` the sum of ``A_j`` over ``j != c``,
    added in the order of ``j``.  Nothing larger than the couplings is
    allocated; callers check ``dim H * dim_k`` against ``DIMENSION_CAP``.
    """
    *batch, m, dim_h, _ = effects.shape
    n = dim_h * dim_k
    g = np.zeros((*batch, dim_h, dim_k, dim_h, dim_k), dtype=complex)
    sums = np.zeros((*batch, dim_k, dim_h, dim_h), dtype=complex)
    for j in range(m):
        a = effects[..., j, :, :]
        g[..., :, 0, :, j] = a
        g[..., :, j, :, 0] = a
        sums[..., :j, :, :] += a[..., None, :, :]
        sums[..., j + 1 :, :, :] += a[..., None, :, :]
    for c in range(1, dim_k):
        g[..., :, c, :, c] = sums[..., c, :, :]
    return g.reshape(*batch, n, n)


def minimal_dilation_multimeter(a: Observable) -> tuple[Multimeter, np.ndarray]:
    """Normal multimeter measuring a sharp observable with ``dim K = N``.

    The coupling ``G = sum_j A(j) (x) T_j`` pairs each effect with the
    transposition ``T_j`` swapping pointer slots 0 and j; programming with
    the first basis vector then reproduces ``a`` exactly.  N is the
    smallest apparatus dimension any model measuring ``a`` can have.  A
    coupling beyond ``DIMENSION_CAP`` or a pointer of more than
    ``DIMENSION_CAP**2`` entries (``N**3``) raises ``DimensionError``
    before either is allocated, and before sharpness is checked.
    """
    n = len(a)
    _check_bundle(a.dim * n, n, n)
    if not is_sharp(a):
        raise ValidationError("minimal dilation needs a sharp observable")
    g = _dilation_couplings(a.effects, n)
    pointer = Observable._from_marks(n, a.outcomes, np.eye(n, dtype=bool))
    meter = make_multimeter(a.dim, n, pointer, make_channel([g]))
    probe = np.eye(n, dtype=complex)[0]
    return meter, probe


def _embed_channel(c: Channel, dims, positions) -> Channel:
    """Lift a channel on selected tensor factors to the full space."""
    return make_channel([embed_factors(k, dims, positions) for k in c.kraus])


def _check_bundle(dim: int, n_effects: int, dim_k: int) -> None:
    """Refuse a coupling above ``DIMENSION_CAP`` or more pointer entries than its square."""
    if dim > DIMENSION_CAP:
        raise DimensionError(f"bundle dimension {dim} exceeds dimension cap {DIMENSION_CAP}")
    if n_effects * dim_k**2 > DIMENSION_CAP**2:
        raise DimensionError(
            f"bundle pointer of {n_effects} effects on dimension {dim_k} exceeds "
            f"{DIMENSION_CAP**2} entries"
        )


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

    The coupling is held as its parts, and its residual written from the
    validated parts' residuals (see
    :meth:`~qmultimeter.channels.Channel._from_parts`): the dense coupling
    is built only when read, and programming works slot by slot (see
    :func:`_slot_blocks`).  The residual differs from a dense Gram product
    by that product's rounding.  When every
    part's pointer has marks, the joint pointer is written from the joint
    marks; otherwise its Kronecker products are formed and validated
    densely (see :func:`~qmultimeter.observables._joint_pointer`).  A
    pointer of more than ``DIMENSION_CAP**2`` entries
    (``len(pointer) * dim_K**2``: seven or more qubit parts, or more than
    645 channels) raises ``DimensionError`` before the coupling or the
    pointer is allocated.
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
        _check_bundle(dim * n, n, n)
        coupling = Channel._from_parts(
            [c.kraus[0] for c in devices], [c.tp_residual for c in devices], (dim, *[1] * n, n)
        )
        pointer = Observable._from_marks(n, range(1, n + 1), np.eye(n, dtype=bool))
        return make_multimeter(dim, n, pointer, coupling), list(np.eye(n, dtype=complex))

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
    _check_bundle(dim_h * dim_k, math.prod(len(m.pointer) for m in meters), dim_k)
    coupling = Channel._from_parts(
        [m.coupling for m in meters], [m.interaction.tp_residual for m in meters], dims
    )
    pointer = _joint_pointer([m.pointer for m in meters], n)
    meter = make_multimeter(dim_h, dim_k, pointer, coupling)
    # probe i is p_1 (x) ... (x) p_n (x) e_i: the parts' product in selector slot i
    joint = probes[0]
    for p in probes[1:]:
        joint = np.multiply.outer(joint, p).reshape(-1)
    selected = np.zeros((n, len(joint), n), dtype=complex)
    selected[np.arange(n), :, np.arange(n)] = joint
    return meter, list(selected.reshape(n, dim_k))


def shared_pointer_multimeter(observables) -> tuple[Multimeter, list]:
    """One pointer shared by n sharp observables: ``dim K = n * max N_i``.

    Observables with fewer outcomes are padded with zero effects.  The
    probe ``e_0 (x) e_i`` selects observable i; pointer outcomes are
    labelled by position ``1..max N_i``.  The caps of
    :func:`minimal_dilation_multimeter` hold here too.
    """
    observables = list(observables)
    if not observables:
        raise ValidationError("no observables given")
    dim_h = observables[0].dim
    if any(a.dim != dim_h for a in observables):
        raise DimensionError("observable dimensions differ")
    n = len(observables)
    d = max(len(a) for a in observables)
    _check_bundle(dim_h * d * n, d, d * n)
    if not all(is_sharp(a) for a in observables):
        raise ValidationError("shared-pointer construction needs sharp observables")
    padded = np.zeros((n, d, dim_h, dim_h), dtype=complex)
    for l, a in enumerate(observables):
        padded[l, : len(a)] = a.effects
    g = _selector_sum(_dilation_couplings(padded, d))
    # pointer outcome k reads slot k of every selector: P[e_k] (x) I
    marks = np.repeat(np.eye(d, dtype=bool), n, axis=1)
    pointer = Observable._from_marks(d * n, range(1, d + 1), marks)
    meter = make_multimeter(dim_h, d * n, pointer, make_channel([g]))
    # e_0 (x) e_i is basis vector i of C^d (x) C^n
    return meter, list(np.eye(d * n, dtype=complex)[:n])


def concatenate_with_measurement(
    channel_meter: Multimeter, a_model: MeasurementModel
) -> Multimeter:
    """Feed the output of a programmable channel into a fixed measurement.

    The composite apparatus is ``K (x) K0``; programming with
    ``phi (x) eta`` (eta the measurement's own probe) measures the
    Heisenberg image of the fixed sharp observable under the channel that
    ``phi`` programs.  A product of every pair of Kraus operators, or a
    pointer, that would hold more than ``DIMENSION_CAP**2`` entries raises
    ``DimensionError`` before anything is embedded.
    """
    if a_model.meter.dim_h != channel_meter.dim_h:
        raise DimensionError("system dimensions differ")
    measured = induced_observable(a_model)
    if not is_sharp(measured, INDUCTION_TOL):
        raise ValidationError("the downstream model must measure a sharp observable")
    dim_h = channel_meter.dim_h
    dims = [dim_h, channel_meter.dim_k, a_model.meter.dim_k]
    pairs = len(channel_meter.interaction) * len(a_model.meter.interaction)
    if pairs * math.prod(dims) ** 2 > DIMENSION_CAP**2:
        raise DimensionError(
            f"concatenation of {pairs} Kraus pairs exceeds {DIMENSION_CAP**2} entries"
        )
    z0 = a_model.meter.pointer
    if len(z0) * math.prod(dims[1:]) ** 2 > DIMENSION_CAP**2:
        raise DimensionError(
            f"concatenated pointer of {len(z0)} effects exceeds {DIMENSION_CAP**2} entries"
        )
    first = _embed_channel(channel_meter.interaction, dims, [0, 1])
    second = _embed_channel(a_model.meter.interaction, dims, [0, 2])
    total = make_channel([s @ f for s in second.kraus for f in first.kraus])
    pointer = make_observable(
        channel_meter.dim_k * z0.dim,
        z0.outcomes,
        [tensor(np.eye(channel_meter.dim_k), eff) for eff in z0.effects],
    )
    return make_multimeter(dim_h, channel_meter.dim_k * z0.dim, pointer, total)


def _pauli_multimeter() -> tuple[Multimeter, list]:
    basis = np.eye(4, dtype=complex)
    # sum_jk (1/2) s_j s_k s_j (x) |j><k|: block (j, k) over the pointer is
    # (1/2) s_j s_k s_j, one product of the Pauli matrices, with exact entries
    s = np.array(PAULI)
    g = 0.5 * np.einsum("jra,kab,jbc->rjck", s, s, s).reshape(8, 8)
    pointer = Observable._from_marks(4, range(4), np.eye(4, dtype=bool))
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
    pointer = Observable._from_marks(dim, range(1, dim + 1), np.eye(dim, dtype=bool))
    meter = make_multimeter(dim, dim, pointer, make_channel([_swap_unitary(dim)]))
    return meter, list(np.eye(dim, dtype=complex))


def _rank_one_basis(a: Observable) -> list:
    """Unit eigenvectors of a sharp two-outcome qubit observable's effects."""
    if a.dim != 2 or len(a) != 2 or not is_sharp(a):
        raise ValidationError("expected a sharp two-outcome qubit observable")
    vecs = []
    for eff in a.effects:
        eigvals, eigvecs = np.linalg.eigh(eff)
        if abs(eigvals[-1] - 1.0) > SUPPORT_TOL or eigvals[0] > SUPPORT_TOL:
            raise ValidationError("effects must be rank-1 projections")
        vecs.append(eigvecs[:, -1])
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
