"""Finite-outcome quantum observables (POVMs) and classical post-processing.

An observable maps a finite, ordered set of outcome labels to positive
effects summing to the identity.  Sharp observables have projective
effects; extremality is decided by an explicit perturbation rank test.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, ValidationError
from .operators import (
    DEFAULT_TOL,
    PAULI,
    _NORMALISATION_TOL,
    _defect_norms,
    _frobenius_norms,
    _hermitian_part,
    _independent_products,
    _Stacked,
    dagger,
    eigenvalue_below,
    frobenius_norm,
)

# Eigenvalues above this threshold count towards an effect's support.
SUPPORT_TOL = 1e-9

#: Most entries of the effects that :func:`make_observable` checks at once.
_CHECK_CHUNK_ELEMENTS = 2**16


@dataclass(frozen=True, eq=False)
class Observable(_Stacked):
    """Finite-outcome POVM: ordered labels and one read-only effect per label.

    ``effects`` is the read-only ``(n, dim, dim)`` array of the effects in
    label order (see :class:`~qmultimeter.operators._Stacked`); every check
    below reads it whole.

    ``_marks`` is, when every effect is a basis projector, the read-only
    boolean ``(n, dim)`` array whose row ``x`` marks the basis indices of
    effect ``x``, and ``None`` otherwise.  An observable written from its
    marks (see :meth:`_from_marks`) keeps only them until its stack is
    read.  Any other observable's effects are scanned for marks on the
    first read of ``_marks`` (see :func:`_basis_supports`), once.
    Likewise the effects' projection defects are taken once, on the first
    read of ``_projection_defects``, for every check of sharpness.
    Equality is identity; :func:`observable_distance` compares effects.
    """

    dim: int
    outcomes: tuple
    effects: np.ndarray = field(repr=False)
    _family = "effects"
    _compact = "_marks"

    @classmethod
    def _from_marks(cls, dim: int, labels, marks) -> Observable:
        """Unbuilt observable whose effect ``x`` projects onto the basis marked in row ``x``.

        ``marks`` must be a boolean ``(len(labels), dim)`` array in which
        every basis index is marked exactly once, so the effects are exact
        0/1 diagonals summing to the identity, with nothing scanned,
        multiplied or factorised.  A read-only copy of ``marks`` is kept.
        """
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValidationError(f"outcome labels are not unique: {labels}")
        marks = np.array(marks, dtype=bool)
        if marks.shape != (len(labels), dim) or np.any(marks.sum(axis=0) != 1):
            raise ValidationError(f"pointer supports do not partition range({dim})")
        marks.setflags(write=False)
        return cls._unbuilt(dim=dim, outcomes=labels, _marks=marks)

    def _build(self, marks: np.ndarray) -> np.ndarray:
        stack = np.zeros((len(marks), self.dim, self.dim), dtype=complex)
        diag = np.arange(self.dim)
        stack[:, diag, diag] = marks
        return stack

    @classmethod
    def _from_gram_sums(cls, dim: int, labels, stack: np.ndarray, tol: float) -> Observable:
        """Observable whose effect ``x`` is ``stack[x]``, checked only for completeness.

        Every effect must be a sum ``sum_i w_i B_i* B_i`` of Gram matrices of
        finite ``B_i`` with weights ``w_i >= 0``, or such sums ``E(x)``
        smeared by a kernel, and the labels unique.  Such a sum is Hermitian
        and positive up to rounding of order ``n eps ||B||_F^2``, ``n`` the
        length of the summed index, less at most ``DEFAULT_TOL`` under a
        kernel: its weights are ``>= -DEFAULT_TOL`` and the ``E(x)`` sum to
        ``I``.  So no Hermiticity or positivity stage of
        :func:`make_observable` at a ``tol`` far above ``DEFAULT_TOL`` fails,
        and neither is run.  The closed-form effects ``(I +- n.sigma)/2`` of
        :func:`spin_observable` are written here too: they are exactly
        Hermitian, with eigenvalues ``(1 +- |n|)/2`` for an axis normalised
        to rounding.  The effects must still sum to the identity, as
        :func:`make_observable` checks it; a non-finite entry makes that
        residual non-finite and raises too.  The stack is kept, not copied.
        """
        _check_complete(stack, tol)
        return cls(dim=dim, outcomes=tuple(labels), effects=stack)

    @classmethod
    def _from_stack(cls, dim: int, labels, stack: np.ndarray, tol: float) -> Observable:
        """Observable validated as :func:`make_observable` validates, keeping ``stack``.

        ``stack`` is a complex ``(n, dim, dim)`` array that the caller built
        for this observable alone; it is frozen and kept, not copied.
        """
        labels, stack = _validated(dim, labels, stack, tol)
        return cls(dim=dim, outcomes=labels, effects=stack)

    @functools.cached_property
    def _marks(self) -> np.ndarray | None:
        return _basis_supports(self.effects)

    @functools.cached_property
    def _projection_defects(self) -> np.ndarray:
        """Read-only ``(n, 3)`` array: ``||E||_F``, ``||E - E*||_F``, ``||E^2 - E||_F`` per effect.

        Taken in one pass on the first read (see
        :func:`~qmultimeter.operators._defect_norms`), then read by
        :func:`is_sharp` at every ``tol`` and by :func:`sharpness_residual`.
        """
        defects = _defect_norms(self.effects, idempotence=True)
        defects.setflags(write=False)
        return defects

    def __len__(self) -> int:
        return len(self.outcomes)

    @functools.cached_property
    def _positions(self) -> dict:
        return {label: i for i, label in enumerate(self.outcomes)}

    def effect(self, label) -> np.ndarray:
        """Effect attached to an outcome label."""
        try:
            idx = self._positions[label]
        except KeyError:
            raise KeyError(f"no outcome {label!r}") from None
        return self.effects[idx]

    def _stack_in_order(self, outcomes) -> np.ndarray:
        """The effects stacked in the order of ``outcomes``, a permutation of the labels."""
        if outcomes == self.outcomes:
            return self.effects
        return self.effects[[self._positions[x] for x in outcomes]]


def _basis_supports(effects) -> np.ndarray | None:
    """Marks of the effects' supports if every one is a basis projector, else None.

    An effect is a basis projector ``sum_{k in S} |k><k|`` when all its
    entries are exactly 0 except the diagonal entries on ``S``, which are
    exactly 1; an entry off by rounding makes it an ordinary effect.  Row
    ``x`` of the read-only boolean result marks ``S`` of effect ``x``.
    """
    stack = np.asarray(effects)
    marks = np.diagonal(stack, axis1=1, axis2=2) == 1
    # entries equal to 1 are nonzero, so the counts agree only when every
    # nonzero entry is a diagonal 1
    if np.count_nonzero(stack) != np.count_nonzero(marks):
        return None
    marks.setflags(write=False)
    return marks


@dataclass(frozen=True, eq=False)
class StochasticKernel:
    """Row-stochastic matrix mapping source outcomes to target outcomes; equality is identity."""

    rows: int
    cols: int
    weights: np.ndarray


def make_observable(dim: int, labels, effects, tol: float = DEFAULT_TOL) -> Observable:
    """Validate and build an observable.

    Each effect ``E`` must be a finite, Hermitian ``dim x dim`` matrix with
    no eigenvalue below ``-b``, ``b = tol * max(1, ||E||_F)``.  The effects
    are copied once into one ``(n, dim, dim)`` stack and every check runs
    on label-ordered chunks of it, of at most ``_CHECK_CHUNK_ELEMENTS``
    entries or one effect: the norms and Hermitian defects in one pass,
    positivity by one stacked Cholesky factorisation of the
    ``(E + E*)/2 + b I`` (see
    :func:`~qmultimeter.operators.eigenvalue_below`).  Besides the stack,
    the checks hold only a few arrays of a chunk's size, however many
    effects there are.  Each decision, and the error raised, is the one of
    a check per effect in label order (the effect to blame is looked for
    only when a stage fails): the error names the first effect that fails,
    at the first of the stages shape, finiteness, Hermiticity and
    positivity that it fails.  Only then is the sum of the effects compared
    with the identity, within ``tol * max(1, sqrt(dim))``.  The stack is
    stored read-only as the observable's ``effects``.

    Raises
    ------
    ValidationError
        If an effect has non-finite entries, is not Hermitian, has an
        eigenvalue below ``-b`` (positivity), or the effects do not sum
        to the identity within ``tol`` (normalization).
    DimensionError
        If an effect is not a ``dim x dim`` matrix.
    """
    labels, stack = _validated(dim, labels, effects, tol)
    # a caller's complex stack was validated in place; it is copied only now
    return Observable(dim=dim, outcomes=labels, effects=stack.copy() if stack is effects else stack)


def _validated(dim: int, labels, effects, tol: float) -> tuple:
    """``(labels, stack)`` checked as :func:`make_observable` states; the stack is complex.

    A complex ``(n, dim, dim)`` array is validated in place and returned as it is.
    """
    labels = tuple(labels)
    if not labels:
        raise ValidationError("observable needs at least one outcome")
    if len(set(labels)) != len(labels):
        raise ValidationError(f"outcome labels are not unique: {labels}")
    if not isinstance(effects, np.ndarray):
        effects = list(effects)
    if len(effects) != len(labels):
        raise ValidationError(f"{len(labels)} labels but {len(effects)} effects")
    stack = _effect_stack(dim, effects)
    step = max(1, _CHECK_CHUNK_ELEMENTS // max(1, dim * dim))
    for start in range(0, len(stack), step):
        part = slice(start, start + step)
        _check_effects(stack[part], labels[part], tol)
    if len(stack) < len(labels):
        # every effect before the misfit passed; it fails as it would alone
        shape = np.array(effects[len(stack)], dtype=complex).shape
        raise DimensionError(
            f"effect {labels[len(stack)]!r} has shape {shape}, expected {(dim, dim)}"
        )
    _check_complete(stack, tol)
    return labels, stack


def _check_complete(stack: np.ndarray, tol: float) -> None:
    """Raise unless the effects sum to the identity within ``tol * max(1, sqrt(dim))``.

    The sum is one reduction holding only the total, from whose diagonal 1
    is subtracted in place; for ``dim >= 2`` the sum is bit for bit the
    effects added one by one in label order, while for ``dim = 1`` numpy
    sums pairwise.  A non-finite residual raises too.
    """
    dim = stack.shape[-1]
    total = stack.sum(axis=0)
    total.flat[:: dim + 1] -= 1
    residual = frobenius_norm(total)
    if not residual <= tol * max(1.0, math.sqrt(dim)):
        raise ValidationError(f"effects do not sum to the identity (residual {residual:.3e})")


def _effect_stack(dim: int, effects) -> np.ndarray:
    """The effects as one complex stack, up to the first that is no ``dim x dim`` matrix.

    A complex array of the right shape is returned as it is; anything else is copied.
    """
    try:
        stack = np.asarray(effects, dtype=complex)
        if stack.shape == (len(effects), dim, dim):
            return stack
    except ValueError:  # effects of different shapes do not stack
        pass
    head = list(itertools.takewhile(lambda e: np.shape(e) == (dim, dim), effects))
    return np.array(head, dtype=complex).reshape(len(head), dim, dim)


def _leading(passed: np.ndarray) -> int:
    """Number of leading True entries: the index of the first False, or the length."""
    failed = np.flatnonzero(~passed)
    return int(failed[0]) if len(failed) else len(passed)


def _check_effects(stack: np.ndarray, labels, tol: float) -> None:
    """Raise for the first effect of the stack that is not finite, Hermitian and positive.

    The norms and Hermitian defects of the whole stack are one pass (see
    :func:`~qmultimeter.operators._defect_norms`), and positivity is one
    stacked Cholesky factorisation.  Only when a stage fails is the effect
    to blame looked for: each stage then runs on the effects before the
    first one that failed an earlier stage, so the error is the one a check
    per effect in label order raises first, and no factorisation meets a
    non-finite entry.
    """
    with np.errstate(invalid="ignore"):  # a non-finite entry makes NaN defects
        norms, defects = _defect_norms(stack).T
    bounds = tol * np.maximum(1.0, norms)
    finite, hermitian = np.isfinite(norms), defects <= bounds
    if finite.all() and hermitian.all():
        finite = hermitian = len(stack)
    else:
        finite = _leading(finite)
        hermitian = _leading(hermitian[:finite])
    low = eigenvalue_below(stack[:hermitian], bounds[:hermitian])
    if low is not None:
        raise ValidationError(f"effect {labels[low[0]]!r} has negative eigenvalue {low[1]}")
    if hermitian < finite:
        raise ValidationError(f"effect {labels[hermitian]!r} is not Hermitian")
    if finite < len(stack):
        raise ValidationError(f"effect {labels[finite]!r} has non-finite entries")


def make_kernel(weights) -> StochasticKernel:
    """Validate and build a finite Markov kernel from a weight matrix."""
    w = np.array(weights, dtype=float, order="C")
    if w.ndim != 2 or w.size == 0:
        raise DimensionError(f"kernel weights must be a nonempty matrix, got shape {w.shape}")
    # NaN propagates through both extremes, and an infinity is one of them
    low, high = w.min(), w.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValidationError("kernel weights have non-finite entries")
    if low < -DEFAULT_TOL or high > 1 + DEFAULT_TOL:
        raise ValidationError("kernel weights must lie in [0, 1]")
    sums = w.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > DEFAULT_TOL:
        raise ValidationError(f"kernel rows must sum to 1, got sums {sums}")
    w.setflags(write=False)
    return StochasticKernel(rows=w.shape[0], cols=w.shape[1], weights=w)


def observable_distance(a: Observable, b: Observable) -> float:
    """Max effect-wise Frobenius distance after exact label alignment."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if set(a.outcomes) != set(b.outcomes):
        raise ValidationError(f"outcome labels differ: {a.outcomes} vs {b.outcomes}")
    return float(_frobenius_norms(a._stack_in_order(b.outcomes) - b.effects).max())


def sharpness_residual(e: Observable) -> float:
    """Largest projection defect ``||E(x)^2 - E(x)||_F`` over outcomes."""
    return float(e._projection_defects[:, 2].max())


def is_sharp(e: Observable, tol: float = DEFAULT_TOL) -> bool:
    """True when every effect is a projection: Hermitian and idempotent.

    Each effect ``E`` must have ``||E - E*||_F`` and ``||E^2 - E||_F`` at
    most ``tol * max(1, ||E||_F)``.  The three norms are the observable's
    own, taken once for the whole stack on its first check (see
    :attr:`Observable._projection_defects`), so a check at any ``tol``
    forms no product.
    """
    norms, hermitian, idempotent = e._projection_defects.T
    bounds = tol * np.maximum(1.0, norms)
    return bool((hermitian <= bounds).all() and (idempotent <= bounds).all())


def is_extreme(e: Observable) -> bool:
    """Decide extremality among observables with the same outcome set.

    An observable is extreme exactly when the only family of Hermitian
    perturbations ``{D_x}`` with ``supp(D_x) <= supp(E_x)`` and
    ``sum_x D_x = 0`` is the zero family (Parthasarathy 1999).  A complex
    family has a nonzero solution exactly when a Hermitian one has: its
    Hermitian and anti-Hermitian parts are solutions.  So the test is the
    independence of the operators ``s_i s_j*`` over the pairs of support
    vectors of each effect (eigenvalue above ``SUPPORT_TOL``), from one
    stacked ``eigh`` of the effects' Hermitian parts and one rank, as for
    channels (:func:`~qmultimeter.channels.is_extreme_channel`).  Zero
    effects carry no perturbation freedom and add nothing.
    """
    eigvals, vecs = np.linalg.eigh(_hermitian_part(e.effects))
    # row i of a group is s_i* as a 1 x dim matrix, so its products are s_i s_j*
    supports = [dagger(v[:, lam > SUPPORT_TOL])[:, None, :] for lam, v in zip(eigvals, vecs)]
    return _independent_products(supports, e.dim)


def post_process(e: Observable, k: StochasticKernel, labels=None) -> Observable:
    """Classically post-process outcomes: ``E'(y) = sum_x k(x, y) E(x)``.

    Target outcomes are labelled ``1..cols`` unless ``labels`` is given.
    """
    if k.rows != len(e):
        raise DimensionError(f"kernel has {k.rows} rows but observable has {len(e)} outcomes")
    if labels is None:
        labels = tuple(range(1, k.cols + 1))
    return make_observable(e.dim, labels, np.tensordot(k.weights, e.effects, axes=(0, 0)))


def _stacked_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products ``a[x] (x) b[y]`` of two stacks of matrices, ordered by ``(x, y)``.

    One broadcast product gives the entries :func:`numpy.kron` gives.
    """
    prod = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return prod.reshape(len(a) * len(b), a.shape[1] * b.shape[1], a.shape[2] * b.shape[2])


def _joint_pointer(pointers, idle: int) -> Observable:
    """The observable ``Z_1(x) (x) Z_2(y) (x) ... (x) I_idle``, labelled ``"x,y,..."``.

    When every part has marks, it is written from their Kronecker products,
    and nothing is formed.  Otherwise the Kronecker products of the effects
    are formed and validated, and it has no marks, with nothing scanned: a
    part without marks has an entry that is no 0/1 diagonal entry, and so
    does some joint effect.
    """
    combos = itertools.product(*(p.outcomes for p in pointers))
    labels = [",".join(map(str, combo)) for combo in combos]
    dim = math.prod(p.dim for p in pointers) * idle
    if all(p._marks is not None for p in pointers):
        # the diagonal of a Kronecker product is the Kronecker product of the diagonals
        marks = [p._marks[:, None, :] for p in pointers] + [np.ones((1, 1, idle), dtype=bool)]
        return Observable._from_marks(dim, labels, functools.reduce(_stacked_kron, marks)[:, 0, :])
    stacks = [p.effects for p in pointers] + [np.eye(idle, dtype=complex)[None]]
    joint = make_observable(dim, labels, functools.reduce(_stacked_kron, stacks))
    object.__setattr__(joint, "_marks", None)
    return joint


def spin_observable(axis) -> Observable:
    """Two-outcome sharp qubit observable along a unit Bloch vector.

    Outcome ``1`` carries the effect ``(I + n.sigma)/2``, outcome ``2``
    its complement.  An axis whose norm is within ``_NORMALISATION_TOL``
    (1e-6) of 1 is accepted and divided by its norm, so the effects are
    projections to rounding.  They are exactly Hermitian, with eigenvalues
    ``(1 +- |n|)/2``, so of :func:`make_observable`'s stages only
    completeness is checked (see :meth:`Observable._from_gram_sums`).  A
    NaN axis, which the norm check lets through, is refused with the error
    :func:`make_observable` gives its effects.
    """
    n = np.asarray(axis, dtype=float).reshape(-1)
    if n.shape != (3,):
        raise DimensionError("spin axis must be a real 3-vector")
    norm = np.linalg.norm(n)
    if abs(norm - 1.0) > _NORMALISATION_TOL:
        raise ValidationError(f"spin axis norm {norm} is not 1")
    if math.isnan(norm):
        raise ValidationError("effect 1 has non-finite entries")
    n = n / norm
    n_sigma = n[0] * PAULI[1] + n[1] * PAULI[2] + n[2] * PAULI[3]
    eye = np.eye(2, dtype=complex)
    effects = np.array([(eye + n_sigma) / 2, (eye - n_sigma) / 2])
    return Observable._from_gram_sums(2, (1, 2), effects, DEFAULT_TOL)
