"""Finite-outcome quantum observables (POVMs) and classical post-processing.

An observable maps a finite, ordered set of outcome labels to positive
effects summing to the identity.  Sharp observables have projective
effects; extremality is decided by an explicit perturbation rank test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, ValidationError
from .operators import (
    DEFAULT_TOL,
    PAULI,
    certifies,
    dagger,
    eigenvalue_below,
    frobenius_norm,
    haar_unitary,
    is_isometry,
    is_projection,
)

# Eigenvalues above this threshold count towards an effect's support.
SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class Observable:
    """Finite-outcome POVM: ordered labels and one effect per label.

    ``projection_defects`` holds, for an observable assembled from
    validated parts, one bound per effect ``E`` on both ``||E - E*||_F``
    and ``||E^2 - E||_F``, which :func:`is_sharp` reads before forming any
    product; it is ``None`` otherwise.  It is not a constructor argument:
    only the validating constructor stores it.  The effects are read-only,
    so the bounds stay valid for the observable's lifetime.
    """

    dim: int
    outcomes: tuple
    effects: tuple
    projection_defects: tuple | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.outcomes)

    def effect(self, label) -> np.ndarray:
        """Effect attached to an outcome label."""
        try:
            idx = self.outcomes.index(label)
        except ValueError:
            raise KeyError(f"no outcome {label!r}") from None
        return self.effects[idx]


@dataclass(frozen=True)
class StochasticKernel:
    """Row-stochastic matrix mapping source outcomes to target outcomes."""

    rows: int
    cols: int
    weights: np.ndarray


def make_observable(dim: int, labels, effects, tol: float = DEFAULT_TOL) -> Observable:
    """Validate and build an observable.

    Each effect ``E`` must be finite, Hermitian and have no eigenvalue
    below ``-b`` with ``b = tol * max(1, ||E||_F)``.  Positivity is
    certified by a Cholesky factorisation of ``(E + E*)/2 + b I``; only
    when that fails is the spectrum computed, which decides exactly and
    names the offending eigenvalue (see
    :func:`~qmultimeter.operators.eigenvalue_below`).

    Raises
    ------
    ValidationError
        If an effect has non-finite entries, is not Hermitian, has an
        eigenvalue below ``-b`` (positivity), or the effects do not sum
        to the identity within ``tol`` (normalization).
    DimensionError
        If an effect is not a ``dim x dim`` matrix.
    """
    return _checked_observable(dim, labels, effects, tol)


def _checked_observable(dim: int, labels, effects, tol: float, idempotence=None) -> Observable:
    """:func:`make_observable`, optionally certified from validated parts.

    ``idempotence``, when given, holds for each effect ``E`` a bound ``p``
    on ``||E^2 - E||_F`` derived from the parts; the effects are then
    fresh arrays that are taken over, not copied.  With ``h = ||E - E*||_F``
    (always computed) and ``H`` the Hermitian part of ``E``,
    ``||H^2 - H||_F <= q = p + ||E||_F h + h^2/4 + h/2``; an eigenvalue
    ``lam < 0`` of ``H`` has ``|lam| <= lam^2 - lam <= q``, so
    ``lambda_min(H) >= -q``.  When ``q`` clears the positivity threshold
    by the margin (:func:`~qmultimeter.operators.certifies`) no spectrum
    is computed; otherwise the dense check decides.  ``max(h, p)`` is
    stored as the effect's projection defect.
    """
    labels = tuple(labels)
    if not labels:
        raise ValidationError("observable needs at least one outcome")
    if len(set(labels)) != len(labels):
        raise ValidationError(f"outcome labels are not unique: {labels}")
    effects = list(effects)
    if len(effects) != len(labels):
        raise ValidationError(f"{len(labels)} labels but {len(effects)} effects")
    bounds = [None] * len(effects) if idempotence is None else list(idempotence)
    mats = []
    defects = []
    for label, e, p in zip(labels, effects, bounds):
        e = np.asarray(e, dtype=complex)
        if e.shape != (dim, dim):
            raise DimensionError(f"effect {label!r} has shape {e.shape}, expected {(dim, dim)}")
        norm = frobenius_norm(e)
        # a NaN or infinite entry makes the norm non-finite; Cholesky needs finite input
        if not np.isfinite(norm):
            raise ValidationError(f"effect {label!r} has non-finite entries")
        bound = tol * max(1.0, norm)
        adj = dagger(e)
        h = frobenius_norm(e - adj)
        if h > bound:
            raise ValidationError(f"effect {label!r} is not Hermitian")
        if p is None or not certifies(
            p + norm * h + h * h / 4 + h / 2, bound, dim, max(1.0, norm) ** 2
        ):
            low = eigenvalue_below((e + adj) / 2, bound)
            if low is not None:
                raise ValidationError(f"effect {label!r} has negative eigenvalue {low}")
        if p is None:
            e = e.copy()
        else:
            defects.append(max(h, p))
        e.setflags(write=False)
        mats.append(e)
    total = sum(mats)
    residual = frobenius_norm(total - np.eye(dim))
    if residual > tol * max(1.0, float(np.sqrt(dim))):
        raise ValidationError(f"effects do not sum to the identity (residual {residual:.3e})")
    obs = Observable(dim=dim, outcomes=labels, effects=tuple(mats))
    if idempotence is not None:
        object.__setattr__(obs, "projection_defects", tuple(defects))
    return obs


def make_kernel(weights, tol: float = DEFAULT_TOL) -> StochasticKernel:
    """Validate and build a finite Markov kernel from a weight matrix."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise DimensionError("kernel weights must be a matrix")
    if not np.all(np.isfinite(w)):
        raise ValidationError("kernel weights have non-finite entries")
    if w.min() < -tol or w.max() > 1 + tol:
        raise ValidationError("kernel weights must lie in [0, 1]")
    sums = w.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > tol:
        raise ValidationError(f"kernel rows must sum to 1, got sums {sums}")
    w = w.copy()
    w.setflags(write=False)
    return StochasticKernel(rows=w.shape[0], cols=w.shape[1], weights=w)


def observable_distance(a: Observable, b: Observable) -> float:
    """Max effect-wise Frobenius distance after exact label alignment."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if set(a.outcomes) != set(b.outcomes):
        raise ValidationError(f"outcome labels differ: {a.outcomes} vs {b.outcomes}")
    return max(frobenius_norm(a.effect(x) - b.effect(x)) for x in a.outcomes)


def relabel(e: Observable, labels) -> Observable:
    """Same effects under new outcome labels (order preserved)."""
    return make_observable(e.dim, labels, e.effects)


def sharpness_residual(e: Observable) -> float:
    """Largest projection defect ``||E(x)^2 - E(x)||_F`` over outcomes."""
    return max(frobenius_norm(eff @ eff - eff) for eff in e.effects)


def is_sharp(e: Observable, tol: float = DEFAULT_TOL) -> bool:
    """True when every effect is a projection.

    An effect whose stored projection defect (see :class:`Observable`)
    :func:`~qmultimeter.operators.certifies` against the threshold
    ``tol * max(1, ||E||_F)`` of :func:`~qmultimeter.operators.is_projection`
    needs no product; any other effect is decided by that check.
    """
    defects = e.projection_defects or [None] * len(e)
    return all(
        (b is not None and _certified_projection(eff, b, tol)) or is_projection(eff, tol)
        for eff, b in zip(e.effects, defects)
    )


def _certified_projection(eff: np.ndarray, defect: float, tol: float) -> bool:
    """Whether a stored projection defect decides :func:`is_sharp` for one effect."""
    scale = max(1.0, frobenius_norm(eff))
    return certifies(defect, tol * scale, eff.shape[0], scale**2)


def product_residual(e: Observable) -> float:
    """Largest deviation from ``E(x)E(y) = delta_xy E(x)`` over outcome pairs.

    Vanishes exactly for sharp observables; an independent criterion used
    to cross-check :func:`is_sharp`.
    """
    worst = 0.0
    for i, a in enumerate(e.effects):
        for j, b in enumerate(e.effects):
            target = a if i == j else np.zeros_like(a)
            worst = max(worst, frobenius_norm(a @ b - target))
    return worst


def _hermitian_basis(r: int):
    """Real basis of the r x r Hermitian matrices (r^2 elements)."""
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


def is_extreme(e: Observable, tol: float = DEFAULT_TOL, support_tol: float = SUPPORT_TOL) -> bool:
    """Decide extremality among observables with the same outcome set.

    An observable is extreme exactly when the only family of Hermitian
    perturbations ``{D_x}`` with ``supp(D_x) <= supp(E_x)`` and
    ``sum_x D_x = 0`` is the zero family.  The kernel of that linear
    constraint is computed as an explicit real matrix rank.  Zero effects
    carry no perturbation freedom and are skipped.
    """
    columns = []
    n_params = 0
    for eff in e.effects:
        eigvals, vecs = np.linalg.eigh((eff + dagger(eff)) / 2)
        support = vecs[:, eigvals > support_tol]
        r = support.shape[1]
        if r == 0:
            continue
        n_params += r * r
        for h in _hermitian_basis(r):
            d = support @ h @ dagger(support)
            columns.append(np.concatenate([d.real.ravel(), d.imag.ravel()]))
    if n_params == 0:
        return True
    system = np.column_stack(columns)
    return int(np.linalg.matrix_rank(system)) == n_params


def mix(lam: float, e: Observable, f: Observable) -> Observable:
    """Convex combination ``lam * e + (1 - lam) * f`` effect by effect."""
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"mixing weight {lam} outside [0, 1]")
    if e.dim != f.dim:
        raise DimensionError(f"dimension mismatch: {e.dim} vs {f.dim}")
    if e.outcomes != f.outcomes:
        raise ValidationError(f"outcome labels differ: {e.outcomes} vs {f.outcomes}")
    effects = [lam * a + (1 - lam) * b for a, b in zip(e.effects, f.effects)]
    return make_observable(e.dim, e.outcomes, effects)


def post_process(e: Observable, k: StochasticKernel, labels=None) -> Observable:
    """Classically post-process outcomes: ``E'(y) = sum_x k(x, y) E(x)``.

    Target outcomes are labelled ``1..cols`` unless ``labels`` is given.
    """
    if k.rows != len(e):
        raise DimensionError(f"kernel has {k.rows} rows but observable has {len(e)} outcomes")
    if labels is None:
        labels = tuple(range(1, k.cols + 1))
    effects = [
        sum(k.weights[x, y] * e.effects[x] for x in range(k.rows))
        for y in range(k.cols)
    ]
    return make_observable(e.dim, labels, effects)


def spin_observable(axis) -> Observable:
    """Two-outcome sharp qubit observable along a unit Bloch vector.

    Outcome ``1`` carries the effect ``(I + n.sigma)/2``, outcome ``2``
    its complement.
    """
    n = np.asarray(axis, dtype=float).reshape(-1)
    if n.shape != (3,):
        raise DimensionError("spin axis must be a real 3-vector")
    if abs(np.linalg.norm(n) - 1.0) > 1e-6:
        raise ValidationError(f"spin axis norm {np.linalg.norm(n)} is not 1")
    n_sigma = n[0] * PAULI[1] + n[1] * PAULI[2] + n[2] * PAULI[3]
    eye = np.eye(2, dtype=complex)
    return make_observable(2, (1, 2), [(eye + n_sigma) / 2, (eye - n_sigma) / 2])


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    eigvals, vecs = np.linalg.eigh((a + dagger(a)) / 2)
    # eigenvalue noise of order eps would otherwise become sqrt(eps) entries
    eigvals = np.where(eigvals > 1e-13, eigvals, 0.0)
    return (vecs * np.sqrt(eigvals)) @ dagger(vecs)


def naimark_dilation(e: Observable) -> tuple[Observable, np.ndarray]:
    """Canonical dilation of an observable into a sharp block observable.

    Returns a sharp observable ``a`` on a space of dimension
    ``len(e) * e.dim`` together with an isometry ``w`` such that
    ``E(x) = w* A(x) w`` for every outcome.
    """
    n, d = len(e), e.dim
    w = np.vstack([_psd_sqrt(eff) for eff in e.effects])
    effects = []
    for x in range(n):
        block = np.zeros((n * d, n * d), dtype=complex)
        block[x * d:(x + 1) * d, x * d:(x + 1) * d] = np.eye(d)
        effects.append(block)
    a = make_observable(n * d, e.outcomes, effects)
    return a, w


def naimark_check(e: Observable, a: Observable, w: np.ndarray, tol: float = DEFAULT_TOL) -> dict:
    """Check a claimed dilation ``E(x) = W* A(x) W`` of ``e`` into sharp ``a``.

    Returns
    -------
    dict
        ``holds`` is True when the dilation identity is met within ``tol``
        for every outcome; ``commutant_residual`` is
        ``max_x ||[A(x), W W*]||_F``, which vanishes exactly when ``e`` is
        sharp.
    """
    w = np.asarray(w, dtype=complex)
    if w.shape != (a.dim, e.dim):
        raise DimensionError(f"isometry shape {w.shape}, expected {(a.dim, e.dim)}")
    if not is_isometry(w, tol):
        raise ValidationError("w is not an isometry")
    if not is_sharp(a, tol):
        raise ValidationError("dilating observable is not sharp")
    if set(e.outcomes) != set(a.outcomes):
        raise ValidationError("outcome labels of e and a differ")
    ww = w @ dagger(w)
    recon = max(
        frobenius_norm(e.effect(x) - dagger(w) @ a.effect(x) @ w) for x in e.outcomes
    )
    commutant = max(
        frobenius_norm(a.effect(x) @ ww - ww @ a.effect(x)) for x in a.outcomes
    )
    return {"holds": bool(recon <= tol), "commutant_residual": commutant}


def random_sharp_observable(dim: int, n_outcomes: int, seed: int) -> Observable:
    """Sharp observable from a Haar-random eigenbasis, outcomes ``1..n``.

    The basis vectors are partitioned into ``n_outcomes`` groups of nearly
    equal size; a d-dimensional sharp observable cannot have more than d
    outcomes.
    """
    if n_outcomes > dim:
        raise ValidationError(
            f"a sharp observable on dimension {dim} has at most {dim} outcomes, got {n_outcomes}"
        )
    if n_outcomes < 1:
        raise ValidationError("need at least one outcome")
    rng = np.random.default_rng(seed)
    u = haar_unitary(dim, rng)
    sizes = [dim // n_outcomes + (1 if i < dim % n_outcomes else 0) for i in range(n_outcomes)]
    effects = []
    start = 0
    for size in sizes:
        cols = u[:, start:start + size]
        effects.append(cols @ dagger(cols))
        start += size
    return make_observable(dim, tuple(range(1, n_outcomes + 1)), effects)


def random_observable(dim: int, n_outcomes: int, seed: int) -> Observable:
    """Generic (fuzzy) random observable, outcomes ``1..n``.

    Wishart-distributed positive operators are renormalized by the inverse
    square root of their sum, so the effects sum to the identity exactly.
    """
    rng = np.random.default_rng(seed)
    raw = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(g @ dagger(g))
    total = sum(raw)
    eigvals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(eigvals)) @ dagger(vecs)
    effects = [inv_sqrt @ r @ inv_sqrt for r in raw]
    return make_observable(dim, tuple(range(1, n_outcomes + 1)), effects)
