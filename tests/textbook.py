"""Textbook oracle: the algebra behind the library, one formula per concept.

Each function is written as a textbook states it: operators formed on the
whole space ``H (x) K``, sums taken one operator at a time, the dilations
of Naimark and Stinespring, and Choi matrices from their definition.  The
library computes the same objects by other routes (stacked products,
pointer marks, coupling parts, sample-minor chunks), and the tests compare
the two.  Nothing in the package imports this module.  It reads numpy and,
for its generators, only the public constructors ``make_observable`` and
``make_channel``.

Composite spaces are ordered system-first, as in the library: an index
pair ``(r, i)`` of ``H (x) K`` is the flat index ``r * dim_k + i``.
"""

import numpy as np

from qmultimeter import make_channel, make_observable

# ---------------------------------------------------------------------------
# operators


def partial_trace(t, dim_h: int, dim_k: int, traced: str = "K") -> np.ndarray:
    """``tr_K`` (or ``tr_H``, with ``traced="H"``) of an operator on ``H (x) K``."""
    t = np.asarray(t, dtype=complex)
    n = dim_h * dim_k
    if t.shape != (n, n):
        raise ValueError(f"expected shape {(n, n)}, got {t.shape}")
    tens = t.reshape(dim_h, dim_k, dim_h, dim_k)
    if traced == "K":
        return np.trace(tens, axis1=1, axis2=3)
    return np.trace(tens, axis1=0, axis2=2)


def is_isometry(a, tol: float = 1e-9) -> bool:
    """``||A* A - I||_F <= tol * max(1, sqrt(cols))``; for a square ``A``, unitarity."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        return False
    residual = np.linalg.norm(a.conj().T @ a - np.eye(a.shape[1]))
    return bool(residual <= tol * max(1.0, np.sqrt(a.shape[1])))


def is_hermitian(a, tol: float = 1e-9) -> bool:
    """``||A - A*||_F <= tol * max(1, ||A||_F)`` for a matrix, or for every matrix of a stack."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        return False
    return all(
        np.linalg.norm(m - m.conj().T) <= tol * max(1.0, np.linalg.norm(m))
        for m in a.reshape(-1, *a.shape[-2:])
    )


def is_projection(a, tol: float = 1e-9) -> bool:
    """Hermitian and ``||A^2 - A||_F <= tol * max(1, ||A||_F)``, for one matrix or each of a stack."""
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a, tol):
        return False
    return all(
        np.linalg.norm(m @ m - m) <= tol * max(1.0, np.linalg.norm(m))
        for m in a.reshape(-1, *a.shape[-2:])
    )


# ---------------------------------------------------------------------------
# random generators, deterministic per seed


def _haar_unitary(dim: int, rng) -> np.ndarray:
    """``Q`` of a complex Gaussian matrix, each column divided by the phase of ``R``'s diagonal.

    Mezzadri (2007); the library's single draws take the same numbers.
    """
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases.conj()


def random_density_operator(dim: int, rng, rank: int) -> np.ndarray:
    """``G G* / tr(G G*)`` for a complex Gaussian ``dim x rank`` matrix ``G``: rank ``rank``."""
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_sharp_observable(dim: int, n_outcomes: int, seed: int):
    """Sharp observable from a Haar-random eigenbasis, outcomes ``1..n``.

    The basis vectors are split into ``n_outcomes`` groups of nearly equal
    size, the first ``dim % n_outcomes`` one larger.
    """
    if n_outcomes > dim:
        raise ValueError(f"a sharp observable on dimension {dim} has at most {dim} outcomes")
    u = _haar_unitary(dim, np.random.default_rng(seed))
    sizes = [dim // n_outcomes + (1 if i < dim % n_outcomes else 0) for i in range(n_outcomes)]
    effects = []
    start = 0
    for size in sizes:
        cols = u[:, start:start + size]
        effects.append(cols @ cols.conj().T)
        start += size
    return make_observable(dim, tuple(range(1, n_outcomes + 1)), effects)


def random_observable(dim: int, n_outcomes: int, seed: int):
    """Fuzzy observable ``S^-1/2 W_x S^-1/2``, ``W_x`` Wishart and ``S`` their sum, outcomes ``1..n``."""
    rng = np.random.default_rng(seed)
    raw = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(g @ g.conj().T)
    eigvals, vecs = np.linalg.eigh(sum(raw))
    inv_sqrt = (vecs / np.sqrt(eigvals)) @ vecs.conj().T
    return make_observable(dim, tuple(range(1, n_outcomes + 1)), [inv_sqrt @ r @ inv_sqrt for r in raw])


def random_channel(dim: int, n_kraus: int, seed: int):
    """Channel ``K_i = G_i S^-1/2``, ``G_i`` complex Gaussian and ``S = sum_i G_i* G_i``."""
    rng = np.random.default_rng(seed)
    raw = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(n_kraus)]
    eigvals, vecs = np.linalg.eigh(sum(g.conj().T @ g for g in raw))
    inv_sqrt = (vecs / np.sqrt(eigvals)) @ vecs.conj().T
    return make_channel([g @ inv_sqrt for g in raw])


# ---------------------------------------------------------------------------
# observables


def product_residual(e) -> float:
    """Largest ``||E(x) E(y) - delta_xy E(x)||_F`` over outcome pairs: zero exactly when sharp."""
    worst = 0.0
    for i, a in enumerate(e.effects):
        for j, b in enumerate(e.effects):
            target = a if i == j else np.zeros_like(a)
            worst = max(worst, float(np.linalg.norm(a @ b - target)))
    return worst


def mix(lam: float, e, f):
    """The convex combination ``lam E(x) + (1 - lam) F(x)`` of two observables with the same labels."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight {lam} outside [0, 1]")
    if e.outcomes != f.outcomes:
        raise ValueError(f"outcome labels differ: {e.outcomes} vs {f.outcomes}")
    return make_observable(e.dim, e.outcomes, lam * e.effects + (1 - lam) * f.effects)


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    eigvals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    # eigenvalue noise of order eps would otherwise become sqrt(eps) entries
    eigvals = np.where(eigvals > 1e-13, eigvals, 0.0)
    return (vecs * np.sqrt(eigvals)) @ vecs.conj().T


def naimark_dilation(e):
    """Sharp block observable ``A`` on ``C^n (x) H`` and isometry ``W = [sqrt E(x)]_x`` with ``E(x) = W* A(x) W``."""
    n, d = len(e), e.dim
    w = np.vstack([_psd_sqrt(eff) for eff in e.effects])
    blocks = np.eye(n)[:, :, None] * np.eye(n)[:, None, :]
    return make_observable(n * d, e.outcomes, [np.kron(b, np.eye(d)) for b in blocks]), w


def naimark_check(e, a, w, tol: float = 1e-9) -> dict:
    """Whether ``E(x) = W* A(x) W`` holds within ``tol``, and ``max_x ||[A(x), W W*]||_F``.

    The commutant residual vanishes exactly when ``e`` is sharp.
    """
    w = np.asarray(w, dtype=complex)
    if not is_isometry(w, tol):
        raise ValueError("w is not an isometry")
    ww = w @ w.conj().T
    recon = max(np.linalg.norm(e.effect(x) - w.conj().T @ a.effect(x) @ w) for x in e.outcomes)
    commutant = max(np.linalg.norm(a.effect(x) @ ww - ww @ a.effect(x)) for x in a.outcomes)
    return {"holds": bool(recon <= tol), "commutant_residual": float(commutant)}


# ---------------------------------------------------------------------------
# channels


def apply(c, x, picture: str = "schrodinger") -> np.ndarray:
    """``sum_i K_i x K_i*``, or ``sum_i K_i* x K_i`` in the Heisenberg picture, one operator at a time."""
    if picture == "schrodinger":
        return sum(k @ x @ k.conj().T for k in c.kraus)
    return sum(k.conj().T @ x @ k for k in c.kraus)


def choi(channel, dim: int) -> np.ndarray:
    """``C[(r, s), (r', s')] = <r| E(|s><s'|) |r'>`` of a linear map ``E`` on ``dim x dim`` matrices."""
    units = np.eye(dim)
    images = np.array([[channel(np.outer(a, b)) for b in units] for a in units])
    return images.transpose(2, 0, 3, 1).reshape(dim * dim, dim * dim)


def stinespring_dilation(c) -> np.ndarray:
    """Isometry ``W = sum_i K_i (x) |i> : H -> H (x) C^m`` with ``E(T) = tr_K(W T W*)``."""
    m = len(c.kraus)
    return sum(np.kron(k, np.eye(m)[:, [i]]) for i, k in enumerate(c.kraus))


def stinespring_commutant_residual(c) -> float:
    """Largest ``||[B (x) I, W W*]||_F`` over the matrix units ``B``: zero exactly for a unitary channel."""
    w = stinespring_dilation(c)
    ww = w @ w.conj().T
    d, m = c.dim, len(c.kraus)
    units = np.eye(d)
    return max(
        float(np.linalg.norm(big @ ww - ww @ big))
        for big in (np.kron(np.outer(a, b), np.eye(m)) for a in units for b in units)
    )


def _minimal_kraus(c) -> np.ndarray:
    """``sqrt(lam) v`` for the Choi eigenpairs with ``lam`` above ``1e-12`` times ``max(1, lam_max)``."""
    eigvals, vecs = np.linalg.eigh(choi(lambda x: apply(c, x), c.dim))
    keep = eigvals > 1e-12 * max(float(eigvals.max()), 1.0)
    return np.array([np.sqrt(lam) * v.reshape(c.dim, c.dim) for lam, v in zip(eigvals[keep], vecs.T[keep])])


# ---------------------------------------------------------------------------
# extremality


def _hermitian_basis(r: int) -> list:
    """Real basis of the ``r x r`` Hermitian matrices (``r**2`` elements)."""
    basis = []
    for p in range(r):
        m = np.zeros((r, r), dtype=complex)
        m[p, p] = 1.0
        basis.append(m)
    for p in range(r):
        for q in range(p + 1, r):
            m = np.zeros((r, r), dtype=complex)
            m[p, q] = m[q, p] = 1.0
            basis.append(m)
            m = np.zeros((r, r), dtype=complex)
            m[p, q] = -1j
            m[q, p] = 1j
            basis.append(m)
    return basis


def is_extreme(device, support_tol: float = 1e-9) -> bool:
    """Extremality as the real perturbation rank test.

    Each group ``A_1, ..., A_r`` of matrices admits the perturbations
    ``sum_ij h_ij A_i* A_j`` with ``h`` Hermitian; the device is extreme
    exactly when no nonzero choice of one ``h`` per group sums to zero.
    An observable has one group per effect, the rows ``s_i*`` of its
    support vectors (eigenvalue above ``support_tol``), so its
    perturbations ``D_x`` have ``supp D_x <= supp E(x)`` (Parthasarathy
    1999).  A channel has one group, its minimal Kraus set (Choi 1975).
    Each ``h`` runs over a real basis of the Hermitian matrices, and every
    perturbation is one real column; the rank of those columns decides.
    """
    if hasattr(device, "effects"):
        groups = []
        for eff in device.effects:
            eigvals, vecs = np.linalg.eigh((eff + eff.conj().T) / 2)
            groups.append(vecs[:, eigvals > support_tol].conj().T[:, None, :])
    else:
        groups = [_minimal_kraus(device)]
    columns = []
    for group in groups:
        for h in _hermitian_basis(len(group)):
            d = np.einsum("ij,iba,jbc->ac", h, group.conj(), group)
            columns.append(np.concatenate([d.real.ravel(), d.imag.ravel()]))
    if not columns:
        return True
    return int(np.linalg.matrix_rank(np.column_stack(columns))) == len(columns)


# ---------------------------------------------------------------------------
# induction, formed on H (x) K


def _probe_state(model) -> np.ndarray:
    """The model's probe as a density operator ``xi``."""
    xi = model.probe
    return np.outer(xi, xi.conj()) if xi.ndim == 1 else xi


def induced_effects(model) -> list:
    """``E(x) = tr_K[ V*(I (x) Z(x)) V (I (x) xi) ]`` for each pointer outcome.

    A kernel smears the pointer first, ``Z'(y) = sum_x k(x, y) Z(x)``.
    """
    meter = model.meter
    pointer = list(meter.pointer.effects)
    if model.kernel is not None:
        w = model.kernel.weights
        pointer = [sum(w[x, y] * z for x, z in enumerate(pointer)) for y in range(w.shape[1])]
    eye = np.eye(meter.dim_h)
    one_xi = np.kron(eye, _probe_state(model))
    return [
        partial_trace(apply(meter.interaction, np.kron(eye, z), "heisenberg") @ one_xi,
                      meter.dim_h, meter.dim_k)
        for z in pointer
    ]


def induced_channel(model):
    """The map ``rho -> tr_K[ V (rho (x) xi) V* ]``."""
    meter = model.meter
    xi = _probe_state(model)
    return lambda rho: partial_trace(
        apply(meter.interaction, np.kron(rho, xi)), meter.dim_h, meter.dim_k)
