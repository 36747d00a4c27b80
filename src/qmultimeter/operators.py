"""Dense complex operator algebra on finite-dimensional Hilbert spaces.

Conventions used throughout the package:

* operators are 2-d ``numpy`` arrays of ``complex``; state vectors are 1-d,
* composite spaces are ordered system-first, ``H (x) K``, so an index pair
  ``(r, i)`` maps to the flat row ``r * dim_k + i``,
* all tolerance checks are relative Frobenius residuals.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionError, ValidationError

DEFAULT_TOL = 1e-9

# Tensor products beyond this total dimension fail fast instead of
# exhausting memory; this is a desk-scale toolkit.
DIMENSION_CAP = 4096

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Pauli matrices indexed 0..3 (identity first).
PAULI = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)


def asoperator(a) -> np.ndarray:
    """Coerce input to a 2-d complex array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("operator has non-finite entries")
    return arr


def dagger(a: np.ndarray) -> np.ndarray:
    """Hermitian adjoint."""
    return np.asarray(a).conj().T


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between two operators of matching shape."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def tensor(a: np.ndarray, b: np.ndarray, max_dim: int = DIMENSION_CAP) -> np.ndarray:
    """Kronecker product with the first factor acting on the system space.

    Raises
    ------
    DimensionError
        If either output dimension of the product exceeds ``max_dim``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    if a.shape[0] * b.shape[0] > max_dim or a.shape[1] * b.shape[1] > max_dim:
        raise DimensionError(
            f"tensor product of {a.shape} and {b.shape} exceeds dimension cap {max_dim}"
        )
    return np.kron(a, b)


def tensor_many(ops, max_dim: int = DIMENSION_CAP) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence of operators."""
    ops = list(ops)
    if not ops:
        raise DimensionError("empty tensor product")
    out = np.atleast_2d(np.asarray(ops[0], dtype=complex))
    for op in ops[1:]:
        out = tensor(out, op, max_dim=max_dim)
    return out


def partial_trace(t: np.ndarray, dim_h: int, dim_k: int, traced: str = "K") -> np.ndarray:
    """Partial trace of an operator on ``H (x) K`` over one factor.

    Parameters
    ----------
    t : array
        Square matrix of size ``dim_h * dim_k``.
    traced : {"K", "H"}
        Which factor to trace out.

    Returns
    -------
    array
        Operator on the remaining factor; the full trace is preserved.
    """
    t = np.asarray(t, dtype=complex)
    n = dim_h * dim_k
    if t.shape != (n, n):
        raise DimensionError(f"expected shape {(n, n)}, got {t.shape}")
    tens = t.reshape(dim_h, dim_k, dim_h, dim_k)
    if traced == "K":
        return np.trace(tens, axis1=1, axis2=3)
    if traced == "H":
        return np.trace(tens, axis1=0, axis2=2)
    raise ValueError(f"traced must be 'H' or 'K', got {traced!r}")


def embed_program_isometry(phi: np.ndarray, dim_h: int) -> np.ndarray:
    """Isometry ``W: H -> H (x) K`` appending a fixed apparatus vector.

    ``W psi = psi (x) phi``, so ``W* W = I_H`` and ``W W*`` projects onto
    ``H (x) span(phi)``.
    """
    phi = check_state_vector(phi)
    return np.kron(np.eye(dim_h, dtype=complex), phi.reshape(-1, 1))


def embed_factors(op: np.ndarray, dims, positions) -> np.ndarray:
    """Embed ``op`` acting on a subset of tensor factors into the full space.

    Parameters
    ----------
    op : array
        Operator on the tensor product of ``dims[p] for p in positions``,
        with factors ordered as listed in ``positions``.
    dims : sequence of int
        Dimensions of all factors of the full space, in order.
    positions : sequence of int
        Indices (into ``dims``) of the factors ``op`` acts on.

    Returns
    -------
    array
        ``op`` tensored with identity on the remaining factors, with all
        factors in their ``dims`` order.
    """
    dims = list(dims)
    positions = list(positions)
    n = len(dims)
    op = np.asarray(op, dtype=complex)
    sub = int(np.prod([dims[p] for p in positions]))
    if op.shape != (sub, sub):
        raise DimensionError(f"operator shape {op.shape} does not match factors {positions}")
    rest = [i for i in range(n) if i not in positions]
    full = tensor(op, np.eye(int(np.prod([dims[i] for i in rest])) if rest else 1, dtype=complex))
    # Axes of `full` are currently ordered positions + rest; permute back.
    order = positions + rest
    perm = [order.index(i) for i in range(n)]
    tens = full.reshape([dims[i] for i in order] * 2)
    tens = tens.transpose(perm + [p + n for p in perm])
    d = int(np.prod(dims))
    return tens.reshape(d, d)


def projector(phi: np.ndarray) -> np.ndarray:
    """Rank-1 projector ``|phi><phi|`` from a unit vector."""
    phi = check_state_vector(phi)
    return np.outer(phi, phi.conj())


# ---------------------------------------------------------------------------
# predicates


def _rel_tol(a: np.ndarray, tol: float) -> float:
    return tol * max(1.0, frobenius_norm(a))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return frobenius_norm(a - dagger(a)) <= _rel_tol(a, tol)


#: A bound computed from validated parts decides a check only when it is at
#: most this fraction of the check's threshold, and the rest of the threshold
#: exceeds the rounding of the dense computation (see :func:`certifies`).
CERTIFICATE_MARGIN = 0.5

#: Multiple of ``dim * eps * scale`` taken as the rounding of a dense check on
#: a ``dim x dim`` matrix whose product factors have Frobenius norms
#: multiplying to ``scale``.  A computed product errs entrywise by at most
#: ``gamma_dim |A||B|``, about ``dim * eps/2 * ||A||_F ||B||_F`` in Frobenius
#: norm; the subtraction and norm that follow, and the Cholesky or spectrum
#: of a positivity check, err by amounts of the same order.
ROUNDING_SLACK = 10.0


def certifies(bound: float, threshold: float, dim: int, scale: float) -> bool:
    """True when ``bound`` decides a check whose dense value must not exceed ``threshold``.

    ``bound`` is an exact bound on the checked quantity, and ``dim`` and
    ``scale`` describe the dense computation it stands in for (see
    :data:`ROUNDING_SLACK`).  The bound must be at most
    :data:`CERTIFICATE_MARGIN` of the threshold and the rounding estimate at
    most the remainder, so the dense value, which exceeds the exact one by
    at most that rounding, would pass too.  Near ``tol = 0`` no threshold
    clears the rounding and the caller's dense check decides.
    """
    rounding = ROUNDING_SLACK * dim * np.finfo(float).eps * scale
    return (
        bound <= CERTIFICATE_MARGIN * threshold
        and rounding <= (1 - CERTIFICATE_MARGIN) * threshold
    )


def eigenvalue_below(h: np.ndarray, bound: float) -> float | None:
    """Lowest eigenvalue of the Hermitian ``h`` if it lies below ``-bound``, else None.

    A Cholesky factorisation of ``h + bound * I`` certifies
    ``lambda_min(h) > -bound`` at a fraction of the cost of a spectrum.
    Only when it fails is ``eigvalsh`` run, which makes the exact decision
    (``lambda_min(h) >= -bound`` passes) and supplies the eigenvalue for
    the caller's error message.  ``h`` must have finite entries: LAPACK's
    Cholesky does not raise on NaN.
    """
    try:
        np.linalg.cholesky(h + bound * np.eye(h.shape[0]))
        return None
    except np.linalg.LinAlgError:
        low = float(np.linalg.eigvalsh(h).min())
        return low if low < -bound else None


def is_positive(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Positive semidefiniteness: Hermitian with spectrum above ``-tol``."""
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a, tol):
        return False
    return eigenvalue_below((a + dagger(a)) / 2, _rel_tol(a, tol)) is None


def is_projection(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Orthogonal projection: Hermitian and idempotent."""
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a, tol):
        return False
    return frobenius_norm(a @ a - a) <= _rel_tol(a, tol)


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    # For square A, ||A*A - I||_F = ||AA* - I||_F = sqrt(sum_i (s_i^2 - 1)^2)
    # over the singular values s_i, so one Gram product decides both sides.
    return is_isometry(a, tol)


def is_isometry(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """``A* A = I`` on the domain; meaningful for rectangular ``A``."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        return False
    eye = np.eye(a.shape[1])
    return frobenius_norm(dagger(a) @ a - eye) <= tol * max(1.0, float(np.sqrt(a.shape[1])))


def operator_predicates(a: np.ndarray, tol: float = DEFAULT_TOL) -> dict:
    """Evaluate the standard operator predicates in one pass.

    Non-square input yields ``False`` for every square-only predicate.
    """
    a = np.asarray(a, dtype=complex)
    return {
        "is_hermitian": is_hermitian(a, tol),
        "is_positive": is_positive(a, tol),
        "is_projection": is_projection(a, tol),
        "is_unitary": is_unitary(a, tol),
        "is_isometry": is_isometry(a, tol),
    }


# ---------------------------------------------------------------------------
# states


def check_state_vector(phi: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Validate and return a unit vector as a 1-d complex array."""
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(phi)):
        raise ValidationError("state vector has non-finite entries")
    norm = float(np.linalg.norm(phi))
    if abs(norm - 1.0) > tol:
        raise ValidationError(f"state vector norm {norm} is not 1")
    return phi


def check_density_operator(rho: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Validate a density operator: Hermitian, positive, unit trace."""
    rho = asoperator(rho)
    if rho.shape[0] != rho.shape[1]:
        raise DimensionError("density operator must be square")
    if not is_hermitian(rho, tol):
        raise ValidationError("density operator is not Hermitian")
    low = eigenvalue_below((rho + dagger(rho)) / 2, tol)
    if low is not None:
        raise ValidationError(f"density operator has negative eigenvalue {low}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > tol:
        raise ValidationError(f"density operator trace {tr} is not 1")
    return rho


# ---------------------------------------------------------------------------
# random generators (explicit rng, reproducible by seed)


def haar_unitary(dim: int, rng: np.random.Generator, batch: tuple = ()) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix.

    ``batch`` prepends stack axes: the whole stack takes one ``qr`` call,
    and fixing the phase of each column (Mezzadri 2007) makes every matrix
    of the stack Haar-distributed.
    """
    shape = (*batch, dim, dim)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    phases = phases / np.abs(phases)
    return q * phases.conj()[..., None, :]


def random_state_vector(dim: int, rng: np.random.Generator, batch: tuple = ()) -> np.ndarray:
    """Uniformly random unit vector; ``batch`` prepends stack axes."""
    shape = (*batch, dim)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if not batch:
        return psi / np.linalg.norm(psi)
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def random_density_operator(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random mixed state of the given rank (full rank by default)."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real
