"""Dense complex operator algebra on finite-dimensional Hilbert spaces.

Conventions used throughout the package:

* operators are 2-d ``numpy`` arrays of ``complex``; state vectors are 1-d,
* composite spaces are ordered system-first, ``H (x) K``, so an index pair
  ``(r, i)`` maps to the flat row ``r * dim_k + i``,
* all tolerance checks are relative Frobenius residuals.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, ValidationError

DEFAULT_TOL = 1e-9

#: Tolerance of a state's norm, trace and positivity, and of a spin axis's norm.
_NORMALISATION_TOL = 1e-6

# Tensor products beyond this total dimension fail fast instead of
# exhausting memory; this is a desk-scale toolkit.
DIMENSION_CAP = 4096

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Pauli matrices indexed 0..3 (identity first).
PAULI = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)


# Held while the stack of an instance written in a compact form is built.
_BUILD_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False)
class _Stacked:
    """Frozen device whose family of matrices is one read-only ``(n, d, d)`` array.

    A subclass names in ``_family`` the field that holds the array, which
    is frozen as given.  An instance written by :meth:`_unbuilt` holds
    instead a compact form, named by ``_compact``, from which the
    subclass's ``_build`` builds the array on its first read, once.
    """

    def __post_init__(self):
        self._freeze(np.asarray(getattr(self, self._family)))

    def _freeze(self, stack: np.ndarray) -> None:
        stack.setflags(write=False)
        object.__setattr__(self, self._family, stack)

    @classmethod
    def _unbuilt(cls, **fields):
        """Instance holding only ``fields``, its compact form among them; nothing is built."""
        obj = object.__new__(cls)
        vars(obj).update(fields)
        return obj

    def __getattr__(self, name):
        # reached only for attributes not yet set: the family of an unbuilt
        # instance, whose compact form is read from the instance dict, never computed
        compact = vars(self).get(self._compact)
        if name != self._family or compact is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        with _BUILD_LOCK:
            if name not in vars(self):
                self._freeze(self._build(compact))
        return vars(self)[name]


def dagger(a: np.ndarray) -> np.ndarray:
    """Hermitian adjoint of a matrix, or of each matrix of a stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def _frobenius_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norms of a complex matrix or of the matrices of a C-ordered ``(..., m, n)`` stack.

    Each equals :func:`frobenius_norm` of its matrix bit for bit: like
    ``np.linalg.norm``, it adds the dot products of the real parts and of
    the imaginary parts with themselves, each one BLAS dot, and only the
    loop over the stack moves from Python into ``matmul``.  A single
    matrix takes ``np.linalg.norm`` itself, which costs fewer calls.
    """
    if a.ndim == 2:
        return np.linalg.norm(a)
    *lead, rows, cols = a.shape
    flat = a.reshape(*lead, 1, rows * cols)
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor acting on the system space.

    Raises
    ------
    DimensionError
        If either output dimension of the product exceeds ``DIMENSION_CAP``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    if max(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]) > DIMENSION_CAP:
        raise DimensionError(
            f"tensor product of {a.shape} and {b.shape} exceeds dimension cap {DIMENSION_CAP}"
        )
    return np.kron(a, b)


def tensor_many(ops) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence of operators."""
    ops = list(ops)
    if not ops:
        raise DimensionError("empty tensor product")
    out = np.atleast_2d(np.asarray(ops[0], dtype=complex))
    for op in ops[1:]:
        out = tensor(out, op)
    return out


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

    Raises
    ------
    DimensionError
        If ``positions`` repeats a factor or names one outside ``dims``, if
        ``op`` does not match the factors, or if the full dimension exceeds
        :data:`DIMENSION_CAP`; nothing of the full size is allocated.
    """
    dims = [int(d) for d in dims]
    positions = list(positions)
    n = len(dims)
    if len(set(positions)) != len(positions) or not all(0 <= p < n for p in positions):
        raise DimensionError(f"positions {positions} must be distinct indices into {n} factors")
    op = np.asarray(op, dtype=complex)
    sub = math.prod(dims[p] for p in positions)
    if op.shape != (sub, sub):
        raise DimensionError(f"operator shape {op.shape} does not match factors {positions}")
    d = math.prod(dims)
    if d > DIMENSION_CAP:
        raise DimensionError(f"embedding dimension {d} exceeds dimension cap {DIMENSION_CAP}")
    # Unit factors move no entry; without them at most log2(DIMENSION_CAP)
    # factors remain, two axes each.
    kept = [i for i in range(n) if dims[i] != 1]
    positions = [p for p in positions if dims[p] != 1]
    rest = [i for i in kept if i not in positions]
    full = tensor(op, np.eye(math.prod(dims[i] for i in rest), dtype=complex))
    # Axes of `full` are currently ordered positions + rest; permute back.
    order = positions + rest
    perm = [order.index(i) for i in kept]
    tens = full.reshape([dims[i] for i in order] * 2)
    tens = tens.transpose(perm + [p + len(order) for p in perm])
    return tens.reshape(d, d)


def projector(phi: np.ndarray) -> np.ndarray:
    """Rank-1 projector ``|phi><phi|`` from a unit vector."""
    phi = check_state_vector(phi)
    return np.outer(phi, phi.conj())


# ---------------------------------------------------------------------------
# predicates


def _hermitian_defect(a: np.ndarray) -> np.ndarray:
    """``A - A*`` of a matrix or of each matrix of a stack, in one new C-ordered array."""
    defect = np.conjugate(a.swapaxes(-1, -2), order="C")
    np.subtract(a, defect, out=defect)
    return defect


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(A + A*)/2`` of each matrix of a stack, in one new C-ordered array."""
    h = np.conjugate(a.swapaxes(-1, -2), order="C")
    h += a
    h /= 2
    return h


#: Most entries of a stack whose defects :func:`_defect_norms` holds at once.
_DEFECT_CHUNK_ELEMENTS = 2**14


def _defect_norms(a: np.ndarray, idempotence: bool = False) -> np.ndarray:
    """``||A||_F``, ``||A - A*||_F`` and, with ``idempotence``, ``||A^2 - A||_F`` of each matrix.

    ``a`` is an ``(n, d, d)`` stack and the result ``(n, 2)``, or ``(n, 3)``
    with ``idempotence``.  The matrices and their defects are written into
    one buffer, of at most ``_DEFECT_CHUNK_ELEMENTS`` matrix entries or one
    matrix per kind, whose norms are one :func:`_frobenius_norms` pass: each
    number is bit for bit the norm of its matrix alone.  Both defects are
    one subtraction from ``A``, which gives ``A - A^2``: the exact negation
    of ``A^2 - A``, with the same norm.  A matrix with an entry that is not
    finite has non-finite norms, and its defects set numpy's invalid-value
    flag.
    """
    n, d, _ = a.shape
    step = max(1, _DEFECT_CHUNK_ELEMENTS // (d * d))
    if n > step:
        chunks = [_defect_norms(a[i : i + step], idempotence) for i in range(0, n, step)]
        return np.concatenate(chunks)
    buf = np.empty((n, 3 if idempotence else 2, d, d), dtype=complex)
    buf[:, 0] = a
    np.conjugate(a.swapaxes(-1, -2), out=buf[:, 1])
    if idempotence:
        np.matmul(a, a, out=buf[:, 2])
    np.subtract(a[:, None], buf[:, 1:], out=buf[:, 1:])
    return _frobenius_norms(buf)


def eigenvalue_below(a: np.ndarray, bounds) -> tuple[int, float] | None:
    """First matrix of a stack whose Hermitian part has an eigenvalue below its ``-bound``.

    ``a`` is an ``(n, d, d)`` stack with finite entries (LAPACK's Cholesky
    does not raise on NaN) and ``bounds`` holds one bound per matrix.
    Returns the index of the first matrix whose Hermitian part
    ``H = (A + A*)/2`` has ``lambda_min(H) < -bound``, with that eigenvalue
    for the caller's error message, or None.

    One stacked Cholesky factorisation of the ``H + bound I`` proves
    ``lambda_min(H) > -bound`` for every matrix at a fraction of the cost
    of the spectra.  Only when it fails is one stacked ``eigvalsh`` run,
    which decides exactly (``lambda_min(H) >= -bound`` passes); a matrix it
    rejects is reported only if its own factorisation fails too, so each
    decision is the one a factorisation and spectrum per matrix make.
    Apart from arrays of one number per matrix, the call holds two arrays
    of the stack's size: the shifted Hermitian parts and their factors.
    """
    bounds = np.asarray(bounds, dtype=float)
    dim = a.shape[-1]
    shifted = _hermitian_part(a)
    # every (dim + 1)-th entry of a C-ordered matrix is on its diagonal
    shifted.reshape(len(shifted), dim * dim)[:, :: dim + 1] += bounds[:, None]
    try:
        np.linalg.cholesky(shifted)
        return None
    except np.linalg.LinAlgError:
        del shifted  # rebuilt unshifted below: two arrays of the stack's size at a time
    h = _hermitian_part(a)
    lows = np.linalg.eigvalsh(h).min(axis=1)
    for i in np.flatnonzero(lows < -bounds):
        try:
            np.linalg.cholesky(h[i] + bounds[i] * np.eye(dim))
        except np.linalg.LinAlgError:
            return int(i), float(lows[i])
    return None


def _independent_products(groups, dim: int) -> bool:
    """Whether the operators ``A_a* A_b``, over the pairs of matrices of each group, are independent.

    Each group is a stack of matrices with ``dim`` columns.  More than
    ``dim**2`` products are dependent, and none is formed; otherwise each
    group's products are one stacked product, and the numerical rank of
    the matrix with every product as a column decides.
    """
    count = sum(len(g) ** 2 for g in groups)
    if count > dim * dim:
        return False
    columns = [(dagger(g)[:, None] @ g).reshape(len(g) ** 2, dim * dim) for g in groups]
    return int(np.linalg.matrix_rank(np.concatenate(columns).T)) == count


# ---------------------------------------------------------------------------
# states


def check_state_vector(phi: np.ndarray) -> np.ndarray:
    """Validate and return a unit vector, to ``_NORMALISATION_TOL``, as a 1-d complex array."""
    return _state_and_norm(phi)[0]


def _state_and_norm(phi: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`check_state_vector` of ``phi`` with its norm, the one norm the check takes.

    A non-finite entry makes the norm non-finite; only a norm that fails is
    traced to its entries, to tell a non-finite entry from an overflow.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(phi))
    if not abs(norm - 1.0) <= _NORMALISATION_TOL:
        if not np.all(np.isfinite(phi)):
            raise ValidationError("state vector has non-finite entries")
        raise ValidationError(f"state vector norm {norm} is not 1")
    return phi, norm


def check_density_operator(rho: np.ndarray) -> np.ndarray:
    """Validate a density operator: Hermitian, positive, unit trace, to ``_NORMALISATION_TOL``.

    Its norm is taken once: it tells whether an entry is not finite (only
    a non-finite norm is traced to the entries) and scales the Hermitian
    bound ``||rho - rho*||_F <= _NORMALISATION_TOL * max(1, ||rho||_F)``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {rho.ndim}")
    norm = frobenius_norm(rho)
    if not math.isfinite(norm) and not np.all(np.isfinite(rho)):
        raise ValidationError("operator has non-finite entries")
    if rho.shape[0] != rho.shape[1]:
        raise DimensionError("density operator must be square")
    if not frobenius_norm(_hermitian_defect(rho)) <= _NORMALISATION_TOL * max(1.0, norm):
        raise ValidationError("density operator is not Hermitian")
    low = eigenvalue_below(rho[None], [_NORMALISATION_TOL])
    if low is not None:
        raise ValidationError(f"density operator has negative eigenvalue {low[1]}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > _NORMALISATION_TOL:
        raise ValidationError(f"density operator trace {tr} is not 1")
    return rho


# ---------------------------------------------------------------------------
# random generators (explicit rng, reproducible by seed)


#: Matrices per column from which :func:`_orthonormal_columns` runs Gram-Schmidt
#: across the stack rather than one LAPACK ``qr`` per matrix.  With one BLAS
#: thread on a 2-CPU Xeon container the two break even near 8 per column for
#: (4, 4), (8, 4) and (9, 6) stacks and 16-32 for (16, 8); a (256, 4, 4) stack
#: takes 0.27 ms against 0.75 ms, a single 64 x 64 matrix 2.5 ms against 0.45 ms.
_GRAM_SCHMIDT_MIN_STACK = 16


def _orthonormal_columns(z: np.ndarray) -> np.ndarray:
    """``Q`` of ``z = QR`` with ``R``'s diagonal real and positive, for each matrix of ``z``.

    A stack of at least ``_GRAM_SCHMIDT_MIN_STACK`` matrices per column is
    orthonormalised sample-minor, with the stack axis last: column by
    column, its projection on the earlier columns is subtracted twice
    (classical Gram-Schmidt with one reorthogonalisation, which keeps the
    columns orthonormal to rounding for any numerically independent set;
    Giraud, Langou & Rozloznik 2005) and it is divided by its norm, each
    step one ``einsum`` over the whole stack.  That gives ``R`` a positive
    real diagonal.  Narrower stacks and single matrices take one ``qr``
    call, whose ``R`` has an arbitrary diagonal phase; dividing each
    column by that phase (Mezzadri 2007) makes the same factorisation,
    which is unique for a matrix of full column rank.
    """
    *batch, rows, cols = z.shape
    count = math.prod(batch)
    if count < _GRAM_SCHMIDT_MIN_STACK * cols:
        q, r = np.linalg.qr(z)
        phases = np.diagonal(r, axis1=-2, axis2=-1)
        phases = phases / np.abs(phases)
        return q * phases.conj()[..., None, :]
    q = np.transpose(z.reshape(count, rows, cols), (2, 1, 0)).copy()
    for j in range(cols):
        column, earlier = q[j], q[:j]
        for _ in range(2 if j else 0):
            coefficients = np.einsum("krt,rt->kt", earlier.conj(), column)
            column -= np.einsum("krt,kt->rt", earlier, coefficients)
        column /= np.linalg.norm(column, axis=0)
    return np.transpose(q, (2, 1, 0)).reshape(*batch, rows, cols)


def _complex_normals(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Standard complex Gaussians: ``.real`` and then ``.imag`` filled from ``rng``.

    The stream and the values are those of ``rng.normal(size=shape) + 1j *
    rng.normal(size=shape)``; only the sign of an exactly-zero draw can
    differ.  Filling one complex array skips that sum's three temporaries.
    """
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


def haar_isometry(rows: int, cols: int, rng: np.random.Generator, batch: tuple = ()) -> np.ndarray:
    """Haar-random isometry ``C^cols -> C^rows``: the ``Q`` factor of a complex Gaussian matrix.

    Its columns are the first ``cols`` columns of a Haar-random unitary.
    ``batch`` prepends stack axes.  ``Q`` is taken with ``R``'s diagonal
    real and positive (Mezzadri 2007), which makes every matrix of the
    stack Haar-distributed.  A stack of at least 16 matrices per column is
    orthonormalised by Gram-Schmidt across the stack, anything smaller by
    LAPACK's ``qr``: both compute that one factorisation, so the rule moves
    rounding, never the law or the random stream.  The Gaussian matrix is
    one complex array whose real and then imaginary parts are filled from
    ``rng`` (:func:`_complex_normals`): the draws of ``rng.normal(size) +
    1j * rng.normal(size)`` without its temporaries, 0.30-0.38 → 0.26 ms for a
    (202, 9, 6) stack.

    Raises
    ------
    DimensionError
        If ``cols`` exceeds ``rows``; nothing is drawn.
    """
    if cols > rows:
        raise DimensionError(f"an isometry into C^{rows} has at most {rows} columns, got {cols}")
    shape = (*batch, rows, cols)
    return _orthonormal_columns(_complex_normals(rng, shape))


def haar_unitary(dim: int, rng: np.random.Generator, batch: tuple = ()) -> np.ndarray:
    """Haar-random unitary: the square :func:`haar_isometry`, by the same rule for a stack."""
    return haar_isometry(dim, dim, rng, batch)


def random_state_vector(dim: int, rng: np.random.Generator, batch: tuple = ()) -> np.ndarray:
    """Uniformly random unit vector; ``batch`` prepends stack axes."""
    psi = _complex_normals(rng, (*batch, dim))
    if not batch:
        return psi / np.linalg.norm(psi)
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)
