"""Completely positive trace-preserving maps in Kraus form.

Channels act in the Schrodinger picture as ``rho -> sum_i K_i rho K_i*``
and in the Heisenberg picture as ``B -> sum_i K_i* B K_i``.  Equality of
channels is decided on Choi matrices, which are independent of the Kraus
representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, ValidationError
from .operators import (
    DEFAULT_TOL,
    DIMENSION_CAP,
    certifies,
    check_state_vector,
    dagger,
    frobenius_norm,
    is_projection,
)


@dataclass(frozen=True)
class Channel:
    """Channel on a ``dim``-dimensional space, given by Kraus operators.

    ``tp_residual`` is ``||sum_i K_i* K_i - I||_F`` as computed when the
    channel was validated, or, for a channel assembled from validated parts,
    the exact bound derived from theirs, which differs from it by rounding;
    ``tp_certified`` tells the two apart and is set only by the validating
    constructor.  The Kraus operators are read-only, so the residual stays
    valid for the channel's lifetime.
    """

    dim: int
    kraus: tuple
    tp_residual: float = field(compare=False, repr=False)
    tp_certified: bool = field(default=False, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.kraus)


def make_channel(kraus, tol: float = DEFAULT_TOL) -> Channel:
    """Validate trace preservation ``sum_i K_i* K_i = I`` and build a channel.

    The residual is checked against ``tol * max(1, sqrt(dim))`` and kept
    as ``tp_residual``; see :func:`is_unitary_channel`.
    """
    mats = [np.array(k, dtype=complex) for k in kraus]
    if not mats:
        raise ValidationError("channel needs at least one Kraus operator")
    dim = mats[0].shape[0]
    for k in mats:
        if k.shape != (dim, dim):
            raise DimensionError(f"Kraus operator shape {k.shape}, expected {(dim, dim)}")
    return _checked_channel(mats, tol)


def _checked_channel(mats, tol: float, certified: float | None = None) -> Channel:
    """Decide trace preservation of square Kraus operators and freeze them.

    The operators are taken over, not copied.  ``certified`` is a bound on
    the residual derived from validated parts; when it decides the check
    (:func:`_residual_certifies`) it is stored, otherwise the residual is
    computed densely and decides.
    """
    dim = mats[0].shape[0]
    threshold = tol * max(1.0, float(np.sqrt(dim)))
    is_certified = certified is not None and _residual_certifies(certified, threshold, dim)
    residual = certified if is_certified else _dense_residual(mats)
    # A NaN or infinite entry of some K_i makes the diagonal of K_i* K_i, and
    # so the residual, non-finite; no separate pass over the entries is needed.
    if not np.isfinite(residual):
        raise ValidationError(f"Kraus operators have non-finite entries (residual {residual})")
    if residual > threshold:
        raise ValidationError(f"Kraus operators are not trace-preserving (residual {residual:.3e})")
    for k in mats:
        k.setflags(write=False)
    channel = Channel(dim=dim, kraus=tuple(mats), tp_residual=residual)
    object.__setattr__(channel, "tp_certified", is_certified)
    return channel


def _dense_residual(mats) -> float:
    """``||sum_i K_i* K_i - I||_F`` of square Kraus operators."""
    return frobenius_norm(sum(dagger(k) @ k for k in mats) - np.eye(mats[0].shape[0]))


def _residual_certifies(bound: float, threshold: float, dim: int) -> bool:
    """Whether a bound on the residual ``D`` decides a trace-preservation check.

    The Gram sum's factors have ``sum_i ||K_i||_F^2 = tr(I + D)``, at most
    ``dim + sqrt(dim) ||D||_F``; see :func:`~qmultimeter.operators.certifies`.
    """
    return certifies(bound, threshold, dim, dim + float(np.sqrt(dim)) * bound)


def is_unitary_channel(c: Channel, tol: float = DEFAULT_TOL) -> bool:
    """A single Kraus operator ``U`` with ``||U*U - I||_F <= tol * max(1, sqrt(dim))``.

    Decided from the stored ``tp_residual``: for a square ``U``,
    ``||U*U - I||_F = ||UU* - I||_F``, so no further product is formed.  A
    residual certified from parts decides only where it would have been
    accepted at construction; elsewhere (``tol`` near the rounding floor or
    near the residual) the dense residual is computed, so the decision is
    always the dense one.
    """
    if len(c.kraus) != 1:
        return False
    threshold = tol * max(1.0, float(np.sqrt(c.dim)))
    if c.tp_certified and not _residual_certifies(c.tp_residual, threshold, c.dim):
        return _dense_residual(c.kraus) <= threshold
    return c.tp_residual <= threshold


def identity_channel(dim: int) -> Channel:
    if not 1 <= dim <= DIMENSION_CAP:
        raise DimensionError(f"dimension {dim} must be at least 1 and at most {DIMENSION_CAP}")
    return make_channel([np.eye(dim, dtype=complex)])


def unitary_channel(u: np.ndarray, tol: float = DEFAULT_TOL) -> Channel:
    """Conjugation by a unitary; the single-Kraus reversible channel.

    For one square Kraus operator trace preservation is unitarity (see
    :func:`is_unitary_channel`), so :func:`make_channel` decides it.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("matrix is not unitary")
    try:
        return make_channel([u], tol)
    except ValidationError as exc:
        raise ValidationError(f"matrix is not unitary: {exc}") from None


def complete_contraction(phi: np.ndarray) -> Channel:
    """Channel mapping every state to the fixed pure state ``|phi><phi|``."""
    phi = check_state_vector(phi)
    dim = phi.shape[0]
    kraus = [np.outer(phi, np.eye(dim)[i]) for i in range(dim)]
    return make_channel(kraus)


def apply(c: Channel, x: np.ndarray, picture: str = "schrodinger") -> np.ndarray:
    """Apply the channel to an operator in either picture."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (c.dim, c.dim):
        raise DimensionError(f"operator shape {x.shape}, expected {(c.dim, c.dim)}")
    if picture == "schrodinger":
        return sum(k @ x @ dagger(k) for k in c.kraus)
    if picture == "heisenberg":
        return sum(dagger(k) @ x @ k for k in c.kraus)
    raise ValueError(f"picture must be 'schrodinger' or 'heisenberg', got {picture!r}")


def compose(second: Channel, first: Channel) -> Channel:
    """Concatenation ``second o first`` (``first`` acts first)."""
    if second.dim != first.dim:
        raise DimensionError(f"dimension mismatch: {second.dim} vs {first.dim}")
    return make_channel([s @ f for s in second.kraus for f in first.kraus])


def choi_matrix(c: Channel) -> np.ndarray:
    """Choi matrix ``C[(r,s),(r',s')] = <r| E(|s><s'|) |r'>``.

    Positive semidefinite, trace ``dim``, and independent of the Kraus
    representation.
    """
    vecs = np.stack([k.ravel() for k in c.kraus])
    return vecs.T @ vecs.conj()


def channel_distance(a: Channel, b: Channel) -> float:
    """Frobenius distance between Choi matrices; zero iff equal as maps."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return frobenius_norm(choi_matrix(a) - choi_matrix(b))


def minimal_kraus(c: Channel) -> list:
    """Canonical minimal (linearly independent) Kraus set, from the Choi matrix.

    Eigenvectors with eigenvalue below ``1e-12`` times the largest (at
    least 1) are discarded, which removes numerically redundant Kraus
    directions.
    """
    choi = choi_matrix(c)
    eigvals, vecs = np.linalg.eigh((choi + dagger(choi)) / 2)
    cutoff = 1e-12 * max(float(eigvals.max()), 1.0)
    return [np.sqrt(lam) * v.reshape(c.dim, c.dim)
            for lam, v in zip(eigvals, vecs.T) if lam > cutoff]


def _projector_family(dim: int):
    """Rank-1 projectors whose complex span is all of ``L(H)``."""
    eye = np.eye(dim, dtype=complex)
    vectors = [eye[i] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            vectors.append((eye[i] + eye[j]) / np.sqrt(2))
            vectors.append((eye[i] + 1j * eye[j]) / np.sqrt(2))
    return [np.outer(v, v.conj()) for v in vectors]


def is_multiplicative(c: Channel, tol: float = DEFAULT_TOL) -> bool:
    """Heisenberg-picture multiplicativity, decided on projections.

    The dual of a multiplicative channel maps projections to projections;
    conversely, projection preservation on a family of rank-1 projectors
    spanning ``L(H)`` forces multiplicativity.  Only the spanning family
    is tested.
    """
    return all(
        is_projection(apply(c, p, "heisenberg"), tol) for p in _projector_family(c.dim)
    )


def multiplicativity_residual(c: Channel) -> float:
    """Largest projection defect of dual images over the spanning family."""
    worst = 0.0
    for p in _projector_family(c.dim):
        image = apply(c, p, "heisenberg")
        worst = max(worst, frobenius_norm(image @ image - image))
    return worst


def is_extreme_channel(c: Channel, tol: float = DEFAULT_TOL) -> bool:
    """Extremality via linear independence of ``{K_i* K_j}``.

    Evaluated on the canonical minimal Kraus set, so Kraus-representation
    gauge and numerically redundant operators do not affect the verdict.
    """
    kraus = minimal_kraus(c)
    m = len(kraus)
    if m * m > c.dim * c.dim:
        return False
    columns = [(dagger(a) @ b).ravel() for a in kraus for b in kraus]
    system = np.column_stack(columns)
    return int(np.linalg.matrix_rank(system)) == m * m


def stinespring_dilation(c: Channel) -> np.ndarray:
    """Isometry ``w = sum_i K_i (x) |i>: H -> H (x) K`` with ``E(T) = tr_K(w T w*)``.

    ``dim K`` is the number of Kraus operators, ``len(c.kraus)``.
    """
    m = len(c.kraus)
    return np.stack(c.kraus).transpose(1, 0, 2).reshape(c.dim * m, c.dim)


def stinespring_commutant_residual(c: Channel) -> float:
    """Largest ``||[B (x) I, W W*]||_F`` over a basis of ``L(H)``.

    Vanishes exactly when the channel is multiplicative (i.e. unitary).
    """
    w = stinespring_dilation(c)
    ww = w @ dagger(w)
    d, m = c.dim, len(c.kraus)
    worst = 0.0
    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[a, b] = 1.0
            big = np.kron(unit, np.eye(m))
            worst = max(worst, frobenius_norm(big @ ww - ww @ big))
    return worst


def random_channel(dim: int, n_kraus: int, seed: int) -> Channel:
    """Random channel with ``n_kraus`` Kraus operators, deterministic per seed."""
    rng = np.random.default_rng(seed)
    raw = [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(n_kraus)
    ]
    total = sum(dagger(g) @ g for g in raw)
    eigvals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(eigvals)) @ dagger(vecs)
    return make_channel([g @ inv_sqrt for g in raw])
