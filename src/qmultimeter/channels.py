"""Completely positive trace-preserving maps in Kraus form.

Channels act in the Schrodinger picture as ``rho -> sum_i K_i rho K_i*``
and in the Heisenberg picture as ``B -> sum_i K_i* B K_i``.  Equality of
channels is decided on Choi matrices, which are independent of the Kraus
representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, ValidationError
from .operators import (
    DEFAULT_TOL,
    DIMENSION_CAP,
    _independent_products,
    _Stacked,
    check_state_vector,
    dagger,
    embed_factors,
    frobenius_norm,
)


@dataclass(frozen=True, eq=False)
class Channel(_Stacked):
    """Channel on a ``dim``-dimensional space, given by Kraus operators.

    ``kraus`` is the read-only ``(n, dim, dim)`` array of the operators
    (see :class:`~qmultimeter.operators._Stacked`).  Every map below reads
    it in one product, with no loop over the operators.

    ``tp_residual`` is ``||sum_i K_i* K_i - I||_F``, as computed when the
    channel was validated or, for a push-button coupling, as written from
    its parts' (see :meth:`_from_parts`).  The Kraus operators are
    read-only, so the residual stays valid for the channel's lifetime.

    ``_parts`` is, for a push-button coupling written from its parts, the
    pair ``(parts, dims)`` that :meth:`_from_parts` takes, and ``None``
    otherwise: such a channel keeps its parts until ``kraus`` is read.
    Equality is identity; :func:`channel_distance` compares channels.
    """

    dim: int
    kraus: np.ndarray = field(repr=False)
    tp_residual: float = field(repr=False)
    _parts = None
    _family = "kraus"
    _compact = "_parts"

    @classmethod
    def _from_parts(cls, parts, residuals, dims) -> Channel:
        """Unbuilt coupling ``g = sum_i B_i (x) P[e_i]`` on ``H (x) K_1 (x) ... (x) K_n (x) C^n``.

        ``dims`` is ``(dim H, k_1, ..., k_n, n)``, and part ``i`` is a
        validated unitary ``V_i`` on ``H (x) K_i`` with stored residual
        ``r_i``; ``B_i`` is ``V_i`` with the identity on the other
        ``K_j``.  A channel bundle is the case ``k_i = 1``.  ``g* g - I``
        is block-diagonal over the selector with blocks ``B_i* B_i - I``,
        so ``||g* g - I||_F^2 = sum_i m_i r_i^2`` exactly, ``m_i`` the
        product of the ``k_j`` with ``j != i``.  That identity is the
        coupling's residual, checked as :func:`make_channel` checks its
        own, and no dense Gram product is formed.
        """
        dims = tuple(dims)
        dim_k = math.prod(dims[1:-1])
        residual = float(np.sqrt(sum(dim_k // k * r * r for k, r in zip(dims[1:-1], residuals))))
        dim = dims[0] * dim_k * dims[-1]
        _check_trace_preserving(residual, dim, DEFAULT_TOL)
        return cls._unbuilt(dim=dim, tp_residual=residual, _parts=(tuple(parts), dims))

    @classmethod
    def _from_stack(cls, stack: np.ndarray, tol: float) -> Channel:
        """Channel of a complex ``(n, dim, dim)`` Kraus stack, checked as in :func:`make_channel`.

        The stack is one the caller built for this channel alone; it is
        frozen and kept, not copied.
        """
        dim = stack.shape[-1]
        residual = _dense_residual(stack)
        _check_trace_preserving(residual, dim, tol)
        return cls(dim=dim, kraus=stack, tp_residual=residual)

    def _build(self, compact) -> np.ndarray:
        parts, dims = compact
        ks = dims[1:-1]
        # B_i: V_i on H (x) K_i, the identity on the K_j before and after K_i
        return _selector_sum([
            embed_factors(v, [dims[0], math.prod(ks[:i]), k, math.prod(ks[i + 1:])], [0, 2])
            for i, (v, k) in enumerate(zip(parts, ks))
        ])[None]

    def __len__(self) -> int:
        # a channel written from its parts is one unitary
        return 1 if self._parts is not None else len(self.kraus)


def _selector_sum(blocks) -> np.ndarray:
    """``sum_i B_i (x) P[e_i]`` of equal square blocks, written block by block."""
    n = len(blocks)
    dim = blocks[0].shape[0]
    g = np.zeros((dim, n, dim, n), dtype=complex)
    for i, block in enumerate(blocks):
        g[:, i, :, i] = block
    return g.reshape(dim * n, dim * n)


def make_channel(kraus, tol: float = DEFAULT_TOL) -> Channel:
    """Validate trace preservation ``sum_i K_i* K_i = I`` and build a channel.

    The Kraus operators are copied once into one ``(n, dim, dim)`` stack,
    which the channel keeps (see :class:`Channel`).  The residual is one
    Gram product of the operators stacked as rows (see
    :func:`_dense_residual`); it is checked against
    ``tol * max(1, sqrt(dim))`` and kept as ``tp_residual``; see
    :func:`is_unitary_channel`.
    """
    mats = kraus if isinstance(kraus, np.ndarray) else list(kraus)
    if not len(mats):
        raise ValidationError("channel needs at least one Kraus operator")
    dim = np.shape(mats[0])[0]
    try:
        stack = np.array(mats, dtype=complex)
    except (TypeError, ValueError):  # operators of different shapes do not stack
        stack = None
    if stack is None or stack.shape != (len(mats), dim, dim):
        for k in mats:
            shape = np.array(k, dtype=complex).shape
            if shape != (dim, dim):
                raise DimensionError(f"Kraus operator shape {shape}, expected {(dim, dim)}")
    return Channel._from_stack(stack, tol)


def _check_trace_preserving(residual: float, dim: int, tol: float) -> None:
    """Refuse a residual ``||sum_i K_i* K_i - I||_F`` above ``tol * max(1, sqrt(dim))``."""
    # A NaN or infinite entry of some K_i makes the diagonal of sum_i K_i* K_i,
    # and so the residual, non-finite; no separate pass over the entries is needed.
    if not np.isfinite(residual):
        raise ValidationError(f"Kraus operators have non-finite entries (residual {residual})")
    if residual > tol * max(1.0, float(np.sqrt(dim))):
        raise ValidationError(f"Kraus operators are not trace-preserving (residual {residual:.3e})")


def _dense_residual(stack: np.ndarray) -> float:
    """``||sum_i K_i* K_i - I||_F`` of an ``(n, dim, dim)`` Kraus stack.

    ``sum_i K_i* K_i`` is ``W* W`` for the operators stacked as rows,
    ``W = [K_1; ...; K_n]``: one product instead of one per operator, from
    whose diagonal 1 is subtracted in place.
    """
    dim = stack.shape[-1]
    rows = stack.reshape(-1, dim)
    gram = dagger(rows) @ rows
    gram.flat[:: dim + 1] -= 1
    return frobenius_norm(gram)


def is_unitary_channel(c: Channel, tol: float = DEFAULT_TOL) -> bool:
    """A single Kraus operator ``U`` with ``||U*U - I||_F <= tol * max(1, sqrt(dim))``.

    Decided from the stored ``tp_residual``: for a square ``U``,
    ``||U*U - I||_F = ||UU* - I||_F``, so no further product is formed.
    """
    return len(c) == 1 and c.tp_residual <= tol * max(1.0, float(np.sqrt(c.dim)))


def identity_channel(dim: int) -> Channel:
    if not 1 <= dim <= DIMENSION_CAP:
        raise DimensionError(f"dimension {dim} must be at least 1 and at most {DIMENSION_CAP}")
    return make_channel([np.eye(dim, dtype=complex)])


def unitary_channel(u: np.ndarray) -> Channel:
    """Conjugation by a unitary; the single-Kraus reversible channel.

    For one square Kraus operator trace preservation is unitarity (see
    :func:`is_unitary_channel`), so :func:`make_channel` decides it.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("matrix is not unitary")
    try:
        return make_channel([u])
    except ValidationError as exc:
        raise ValidationError(f"matrix is not unitary: {exc}") from None


def complete_contraction(phi: np.ndarray) -> Channel:
    """Channel mapping every state to the fixed pure state ``|phi><phi|``.

    Its Kraus operators ``|phi><i|`` hold ``dim**3`` entries; a ``dim``
    above 256 exceeds ``DIMENSION_CAP**2`` and raises ``DimensionError``.
    """
    phi = check_state_vector(phi)
    dim = phi.shape[0]
    if dim**3 > DIMENSION_CAP**2:
        raise DimensionError(f"contraction of dimension {dim} exceeds {DIMENSION_CAP**2} entries")
    return make_channel(np.eye(dim)[:, None, :] * phi[None, :, None])


def apply(c: Channel, x: np.ndarray, picture: str = "schrodinger") -> np.ndarray:
    """Apply the channel to an operator in either picture.

    Both pictures are one product of the Kraus stack, summed over the
    operators in their order.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (c.dim, c.dim):
        raise DimensionError(f"operator shape {x.shape}, expected {(c.dim, c.dim)}")
    k = c.kraus
    if picture == "schrodinger":
        return (k @ x @ dagger(k)).sum(axis=0)
    if picture == "heisenberg":
        return (dagger(k) @ x @ k).sum(axis=0)
    raise ValueError(f"picture must be 'schrodinger' or 'heisenberg', got {picture!r}")


def choi_matrix(c: Channel) -> np.ndarray:
    """Choi matrix ``C[(r,s),(r',s')] = <r| E(|s><s'|) |r'>``.

    Positive semidefinite, trace ``dim``, and independent of the Kraus
    representation.  It is ``W^T conj(W)`` for the operators flattened as
    the rows of ``W``: one product of the Kraus stack.
    """
    return _choi(c.kraus)


def _choi(kraus: np.ndarray) -> np.ndarray:
    """:func:`choi_matrix` of each ``(n, dim, dim)`` Kraus stack of a ``(..., n, dim, dim)`` array."""
    vecs = kraus.reshape(*kraus.shape[:-3], -1, kraus.shape[-1] ** 2)
    return vecs.swapaxes(-1, -2) @ vecs.conj()


def channel_distance(a: Channel, b: Channel) -> float:
    """Frobenius distance between Choi matrices; zero iff equal as maps."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return frobenius_norm(choi_matrix(a) - choi_matrix(b))


def minimal_kraus(c: Channel) -> np.ndarray:
    """Canonical minimal (linearly independent) Kraus set, from the Choi matrix.

    Eigenvectors with eigenvalue below ``1e-12`` times the largest (at
    least 1) are discarded, which removes numerically redundant Kraus
    directions.  The operators are returned as one ``(m, dim, dim)`` stack.
    """
    choi = choi_matrix(c)
    eigvals, vecs = np.linalg.eigh((choi + dagger(choi)) / 2)
    keep = eigvals > 1e-12 * max(float(eigvals.max()), 1.0)
    return (vecs[:, keep] * np.sqrt(eigvals[keep])).T.reshape(-1, c.dim, c.dim)


def multiplicativity_residual(c: Channel) -> float:
    """``1 - lambda_max / dim``, ``lambda_max`` the largest eigenvalue of the Choi matrix.

    The dual map is multiplicative exactly when the channel is unitary,
    that is when its Choi matrix has rank one (Choi 1975); its trace is
    ``dim``, so the residual vanishes exactly then.  The Gram matrix
    ``G_ab = tr(K_a* K_b)`` of the Kraus stack has the Choi matrix's
    nonzero spectrum, so the smaller of the two is diagonalised: ``G``
    for at most ``dim**2`` operators, :func:`choi_matrix` otherwise.  The
    residual is unchanged by a unitary on ``H`` and by a change of Kraus
    representation.
    """
    k = c.kraus
    if len(k) <= c.dim * c.dim:
        x = k.reshape(len(k), -1)
        gram = x.conj() @ x.T
    else:
        gram = choi_matrix(c)
    return 1.0 - float(np.linalg.eigvalsh(gram)[-1]) / c.dim


def is_extreme_channel(c: Channel) -> bool:
    """Extremality via linear independence of ``{K_i* K_j}``.

    Evaluated on the canonical minimal Kraus set, so Kraus-representation
    gauge and numerically redundant operators do not affect the verdict.
    The products ``K_i* K_j`` of every pair are one product of the stack,
    and one rank decides, as for observables
    (:func:`~qmultimeter.observables.is_extreme`).
    """
    return _independent_products([minimal_kraus(c)], c.dim)
