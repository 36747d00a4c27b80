"""The device validators against their staged forms, kept verbatim as oracles.

``make_observable``, ``check_state_vector`` and ``check_density_operator``
decide validity from one pass of norms and defects, and an observable
keeps its projection defects for every sharpness check.  ``make_kernel``
copies its weights once and reads finiteness from their extremes.  The
functions below are those checks as they were written stage by stage, each
stage a pass of its own; every decision, exception type and message must
agree.
"""

import math

import numpy as np
import pytest

from qmultimeter import DimensionError, PAULI, ValidationError, observables
from qmultimeter.channels import Channel, make_channel
from qmultimeter.observables import (
    _CHECK_CHUNK_ELEMENTS,
    StochasticKernel,
    _effect_stack,
    _leading,
    is_sharp,
    make_kernel,
    make_observable,
    sharpness_residual,
    spin_observable,
)
from qmultimeter.operators import (
    DEFAULT_TOL,
    _NORMALISATION_TOL,
    _frobenius_norms,
    _hermitian_defect,
    dagger,
    eigenvalue_below,
    frobenius_norm,
    haar_unitary,
)
from textbook import random_density_operator, random_observable, random_sharp_observable

# ---------------------------------------------------------------------------
# the staged validators, verbatim


def _rel_tol(a: np.ndarray, tol: float) -> np.ndarray:
    """``tol * max(1, ||A||_F)`` for each matrix ``A`` of ``a``."""
    return tol * np.maximum(1.0, _frobenius_norms(a))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """``||A - A*||_F <= tol * max(1, ||A||_F)`` for a matrix, or for every matrix of a stack."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        return False
    return bool((_frobenius_norms(_hermitian_defect(a)) <= _rel_tol(a, tol)).all())


def is_projection(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Orthogonal projection: Hermitian and idempotent; a stack is one when every matrix is."""
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a, tol):
        return False
    return bool((_frobenius_norms(a @ a - a) <= _rel_tol(a, tol)).all())


def check_state_vector(phi: np.ndarray) -> np.ndarray:
    """Validate and return a unit vector, to ``_NORMALISATION_TOL``, as a 1-d complex array."""
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(phi)):
        raise ValidationError("state vector has non-finite entries")
    norm = float(np.linalg.norm(phi))
    if abs(norm - 1.0) > _NORMALISATION_TOL:
        raise ValidationError(f"state vector norm {norm} is not 1")
    return phi


def check_density_operator(rho: np.ndarray) -> np.ndarray:
    """Validate a density operator: Hermitian, positive, unit trace, to ``_NORMALISATION_TOL``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {rho.ndim}")
    if not np.all(np.isfinite(rho)):
        raise ValidationError("operator has non-finite entries")
    if rho.shape[0] != rho.shape[1]:
        raise DimensionError("density operator must be square")
    if not is_hermitian(rho, _NORMALISATION_TOL):
        raise ValidationError("density operator is not Hermitian")
    low = eigenvalue_below(rho[None], [_NORMALISATION_TOL])
    if low is not None:
        raise ValidationError(f"density operator has negative eigenvalue {low[1]}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > _NORMALISATION_TOL:
        raise ValidationError(f"density operator trace {tr} is not 1")
    return rho


def _check_complete(stack: np.ndarray, tol: float) -> None:
    """Raise unless the effects sum to the identity within ``tol * max(1, sqrt(dim))``.

    The sum is one reduction holding only the total; for ``dim >= 2`` it is
    bit for bit the effects added one by one in label order, while for
    ``dim = 1`` numpy sums pairwise.  A non-finite residual raises too.
    """
    dim = stack.shape[-1]
    residual = frobenius_norm(stack.sum(axis=0) - np.eye(dim))
    if not residual <= tol * max(1.0, float(np.sqrt(dim))):
        raise ValidationError(f"effects do not sum to the identity (residual {residual:.3e})")


def _check_effects(stack: np.ndarray, labels, tol: float) -> None:
    """Raise for the first effect of the stack that is not finite, Hermitian and positive.

    Each stage runs only on the effects before the first one that failed
    an earlier stage, so the error is the one a check per effect in label
    order raises first, and no arithmetic meets a non-finite entry.
    """
    norms = _frobenius_norms(stack)
    # a NaN or infinite entry makes the norm non-finite; Cholesky needs finite input
    finite = _leading(np.isfinite(norms))
    bounds = tol * np.maximum(1.0, norms[:finite])
    head = stack[:finite]
    hermitian = _leading(_frobenius_norms(_hermitian_defect(head)) <= bounds)
    low = eigenvalue_below(head[:hermitian], bounds[:hermitian])
    if low is not None:
        raise ValidationError(f"effect {labels[low[0]]!r} has negative eigenvalue {low[1]}")
    if hermitian < finite:
        raise ValidationError(f"effect {labels[hermitian]!r} is not Hermitian")
    if finite < len(stack):
        raise ValidationError(f"effect {labels[finite]!r} has non-finite entries")


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


def _dense_residual(stack: np.ndarray) -> float:
    """``||sum_i K_i* K_i - I||_F`` of an ``(n, dim, dim)`` Kraus stack."""
    rows = stack.reshape(-1, stack.shape[-1])
    return frobenius_norm(dagger(rows) @ rows - np.eye(stack.shape[-1]))


def staged_make_kernel(weights) -> StochasticKernel:
    """Validate and build a finite Markov kernel from a weight matrix."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise DimensionError(f"kernel weights must be a nonempty matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("kernel weights have non-finite entries")
    if w.min() < -DEFAULT_TOL or w.max() > 1 + DEFAULT_TOL:
        raise ValidationError("kernel weights must lie in [0, 1]")
    sums = w.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > DEFAULT_TOL:
        raise ValidationError(f"kernel rows must sum to 1, got sums {sums}")
    w = w.copy()
    w.setflags(write=False)
    return StochasticKernel(rows=w.shape[0], cols=w.shape[1], weights=w)


# ---------------------------------------------------------------------------


def outcome(check, *args):
    """``("ok", None)`` or the type and message of the exception ``check(*args)`` raises.

    A norm that overflows, as both forms of a check take it, raises no warning.
    """
    try:
        with np.errstate(over="ignore"):
            check(*args)
    except (ValidationError, DimensionError) as exc:
        return type(exc), str(exc)
    return "ok", None


def agree(new, old, *args):
    """The new check and its oracle decide alike and raise the same error."""
    got = outcome(new, *args)
    assert got == outcome(old, *args)
    return got


def oracle_make_observable(dim, labels, effects, tol=DEFAULT_TOL):
    _validated(dim, labels, effects, tol)


def perturbed(stack, label, stage, rng):
    """``stack`` with effect ``label`` made to fail ``stage``."""
    stack = np.array(stack, dtype=complex)
    d = stack.shape[-1]
    if stage == "nan":
        stack[label, 0, d - 1] = np.nan
    elif stage == "inf":
        stack[label, d - 1, 0] = np.inf
    elif stage == "non-hermitian":
        stack[label, 0, d - 1] += 1e-3
    elif stage == "negative":
        # a Hermitian shift by -0.1 times a unit projector: an eigenvalue below -b
        v = haar_unitary(d, rng)[:, 0]
        stack[label] -= 0.1 * np.outer(v, v.conj())
    elif stage == "incomplete":
        stack[label] *= 1 + 1e-6
    return stack


STAGES = ("nan", "inf", "non-hermitian", "negative", "incomplete")


class TestObservableValidation:
    @pytest.mark.parametrize("dim, n", [(1, 1), (1, 3), (2, 2), (2, 5), (3, 4), (4, 16), (8, 3)])
    @pytest.mark.parametrize("tol", [0.0, 1e-13, 1e-9, 1e-6])
    def test_valid_stacks(self, dim, n, tol):
        for seed in range(4):
            e = random_observable(dim, n, seed)
            stack = np.array(e.effects)
            agree(make_observable, oracle_make_observable, dim, e.outcomes, stack, tol)
            agree(make_observable, oracle_make_observable, dim, e.outcomes, list(stack), tol)

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("label", [0, 2, 4])
    def test_each_failing_stage(self, rng, stage, label):
        for dim in (2, 3):
            e = random_observable(dim, 5, dim)
            stack = perturbed(e.effects, label, stage, rng)
            got = agree(make_observable, oracle_make_observable, dim, e.outcomes, stack, 1e-9)
            assert got[0] is ValidationError

    @pytest.mark.parametrize("label", [0, 1, 3])
    @pytest.mark.parametrize("earlier", [None, "non-hermitian", "nan"])
    def test_wrong_shape(self, label, earlier):
        # an effect before the misfit that fails a stage is reported first
        e = random_observable(3, 4, 1)
        effects = list(perturbed(e.effects, 0, earlier, None) if earlier else e.effects)
        effects[label] = effects[label][:2]
        got = agree(make_observable, oracle_make_observable, 3, e.outcomes, effects, 1e-9)
        assert got[0] is (ValidationError if earlier and label else DimensionError)

    @pytest.mark.parametrize(
        "early, late",
        [("negative", "nan"), ("negative", "inf"), ("negative", "non-hermitian"),
         ("non-hermitian", "nan"), ("non-hermitian", "inf"), ("nan", "nan"),
         ("negative", "negative"), ("incomplete", "negative")],
    )
    def test_earlier_label_failing_a_later_stage(self, rng, early, late):
        # label 1 fails an earlier stage than label 0 does; label 0 is reported
        for dim in (2, 4):
            e = random_observable(dim, 4, 10 + dim)
            stack = perturbed(perturbed(e.effects, 0, early, rng), 1, late, rng)
            got = agree(make_observable, oracle_make_observable, dim, e.outcomes, stack, 1e-9)
            assert got[0] is ValidationError

    def test_chunked_stack(self, rng, monkeypatch):
        # failures in the second and third chunk of the staged checks
        monkeypatch.setattr(observables, "_CHECK_CHUNK_ELEMENTS", 3 * 4)
        e = random_observable(2, 9, 3)
        for stage in STAGES:
            for label in (4, 7):
                stack = perturbed(e.effects, label, stage, rng)
                agree(make_observable, oracle_make_observable, 2, e.outcomes, stack, 1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_completeness_residual_is_bit_for_bit(self, dim):
        # at a tolerance on either side of the residual the decisions agree
        # only if both checks form the same residual
        for seed in range(6):
            stack = np.array(random_observable(dim, 3, seed).effects)
            stack[0] *= 1 + 1e-12 * (seed + 1)
            residual = frobenius_norm(stack.sum(axis=0) - np.eye(dim))
            scale = max(1.0, math.sqrt(dim))
            for tol in (residual / scale, np.nextafter(residual / scale, 0), 0.0):
                agree(observables._check_complete, _check_complete, stack, tol)

    @pytest.mark.parametrize("tol", [0.0, 1e-17, 1e-13, 1e-9, 1e-6, 1e-2])
    def test_is_sharp_reads_the_dense_decision(self, tol):
        cases = [random_sharp_observable(d, n, s) for d, n, s in ((2, 2, 1), (3, 3, 2), (4, 2, 3))]
        cases += [random_observable(d, n, s) for d, n, s in ((2, 3, 4), (3, 2, 5))]
        v = np.array([np.cos(0.3), np.sin(0.3)])
        f = np.outer(v, v)
        cases.append(make_observable(2, (1, 2), [f, np.eye(2) - f]))
        # oblique projections: exactly idempotent, Hermitian only to 1.4e-10
        oblique = np.array([[1, 1e-10], [0, 0]])
        cases.append(make_observable(2, (1, 2), [oblique, np.eye(2) - oblique]))
        for e in cases:
            assert is_sharp(e, tol) == is_projection(e.effects, tol)
            dense = float(_frobenius_norms(e.effects @ e.effects - e.effects).max())
            assert sharpness_residual(e) == dense

    def test_defects_taken_once(self, monkeypatch):
        calls = []
        defect_norms = observables._defect_norms

        def counted(a, idempotence=False):
            calls.append(idempotence)
            return defect_norms(a, idempotence)

        monkeypatch.setattr(observables, "_defect_norms", counted)
        e = random_observable(3, 3, 7)
        assert calls == [False]
        for tol in (1e-9, 1e-3, 1.0):
            is_sharp(e, tol)
        sharpness_residual(e)
        assert calls == [False, True]
        assert not e._projection_defects.flags.writeable


def spin_effects(axis):
    """``(I +- n.sigma)/2`` for the axis divided by its norm, formed as the formula reads."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    n_sigma = n[0] * PAULI[1] + n[1] * PAULI[2] + n[2] * PAULI[3]
    eye = np.eye(2, dtype=complex)
    return [(eye + n_sigma) / 2, (eye - n_sigma) / 2]


class TestSpinObservable:
    def test_effects_are_the_formula_bit_for_bit(self, rng):
        axes = list(rng.normal(size=(200, 3)))
        axes = [a / np.linalg.norm(a) for a in axes]
        # norms within the normalisation tolerance of 1
        axes += [a * (1 + s) for a, s in zip(axes[:60], rng.uniform(-0.99e-6, 0.99e-6, 60))]
        axes += [(1, 0, 0), (0, -1, 0), (0, 0, 1 + 0.99e-6)]
        for axis in axes:
            e = spin_observable(axis)
            expected = spin_effects(axis)
            assert all(np.array_equal(a, b) for a, b in zip(e.effects, expected))
            assert e.outcomes == (1, 2)
            # the validated path accepts the same effects, sharp at the default tolerance
            assert outcome(make_observable, 2, (1, 2), expected) == ("ok", None)
            assert is_sharp(e) and is_projection(e.effects)

    @pytest.mark.parametrize(
        "axis, error, message",
        [((0, 0, 1 + 2e-6), ValidationError, "spin axis norm"),
         ((np.inf, 0, 0), ValidationError, "spin axis norm inf is not 1"),
         ((np.nan, 0, 0), ValidationError, "effect 1 has non-finite entries"),
         ((0, 1), DimensionError, "real 3-vector")],
    )
    def test_refused_axes_keep_their_errors(self, axis, error, message):
        with pytest.raises(error, match=message):
            spin_observable(axis)


class TestStateChecks:
    @pytest.mark.parametrize(
        "phi",
        [[1, 0], [0.6, 0.8j], [1 + 0.9e-6, 0], [1 + 2e-6, 0], [np.nan, 0], [np.inf, 0],
         [0, -np.inf], [1e200, 1e200], [1e-200, 0], [], [[0.6], [0.8]]],
        ids=["basis", "complex", "within-tol", "norm-off", "nan", "inf", "minus-inf",
             "overflow", "tiny", "empty", "column"],
    )
    def test_state_vector(self, phi):
        from qmultimeter.operators import check_state_vector as new

        got = agree(new, check_state_vector, np.array(phi, dtype=complex))
        if got[0] == "ok":
            assert np.array_equal(new(phi), check_state_vector(phi))

    def test_random_state_vectors(self, rng):
        from qmultimeter.operators import check_state_vector as new

        for scale in (1.0, 1 + 0.5e-6, 1 + 1.5e-6, 1e-3):
            for _ in range(20):
                phi = rng.normal(size=5) + 1j * rng.normal(size=5)
                agree(new, check_state_vector, scale * phi / np.linalg.norm(phi))

    @pytest.mark.parametrize(
        "rho",
        [np.diag([0.5, 0.5]), np.diag([1.0, 0, 0]), [[0.5, 0.5], [0.5, 0.5]],
         [[1, 5], [0, 0]], [[1, 1e-7], [0, 0]], [[1, 0], [0, -0.2]], [[2, 0], [0, 0]],
         [[np.nan, 0], [0, 1]], [[1, np.inf], [0, 0]], [[1, 0, 0], [0, 0, 0]],
         [[1, 0, np.nan], [0, 0, 0]], [1, 0], np.zeros((2, 2, 2)), [[1e200, 0], [0, 1e200]],
         [[1e200, 1e200], [-1e200, 0]]],
        ids=["mixed", "pure", "projector", "non-hermitian", "nearly-hermitian", "negative",
             "trace", "nan", "inf", "non-square", "non-square-nan", "vector", "stack",
             "overflow", "overflow-non-hermitian"],
    )
    def test_density_operator(self, rho):
        from qmultimeter.operators import check_density_operator as new

        agree(new, check_density_operator, np.array(rho, dtype=complex))

    def test_random_density_operators(self, rng):
        from qmultimeter.operators import check_density_operator as new

        for dim in (2, 3, 5):
            for rank in (1, dim):
                for shift in (0.0, 1e-7, 1e-5, -1e-5):
                    rho = random_density_operator(dim, rng, rank)
                    agree(new, check_density_operator, rho + shift * np.eye(dim))
                    agree(new, check_density_operator, rho + shift * np.triu(np.ones((dim, dim))))


class TestChannelValidation:
    def test_residual_is_bit_for_bit(self, rng):
        for dim, n in ((1, 1), (2, 1), (2, 3), (3, 4), (5, 2)):
            for _ in range(5):
                v = haar_unitary(dim * n, rng)[:, :dim].reshape(n, dim, dim)
                c = make_channel(v)
                assert c.tp_residual == _dense_residual(v)
                again = Channel._from_stack(np.array(v), DEFAULT_TOL)
                assert again.tp_residual == c.tp_residual

    def test_from_stack_keeps_the_stack_and_refuses_as_make_channel(self, rng):
        v = haar_unitary(4, rng)[:, :2].reshape(2, 2, 2)
        stack = np.array(v)
        c = Channel._from_stack(stack, DEFAULT_TOL)
        assert c.kraus is stack and not stack.flags.writeable
        for bad in (1.01 * v, np.where(np.eye(2, dtype=bool), np.nan, v)):
            assert outcome(Channel._from_stack, np.array(bad), DEFAULT_TOL) == outcome(
                make_channel, bad)


def kernel_cases():
    """Valid kernels, every failing stage and the shapes refused."""
    nan, inf = float("nan"), float("inf")
    above, below = 1 + DEFAULT_TOL, -DEFAULT_TOL
    rng = np.random.default_rng(5)
    stochastic = rng.dirichlet(np.ones(4), size=3)
    # a Fortran-ordered copy and a strided view of the same weights
    strided = np.array(stochastic, dtype=complex).real
    cases = [
        ("identity", [[1, 0], [0, 1]]),
        ("merge", [[1, 0], [1, 0], [0, 1], [0, 1]]),
        ("random", stochastic),
        ("fortran", np.asfortranarray(stochastic)),
        ("strided", strided),
        ("on-the-bounds", [[above, below], [0.5, 0.5]]),
        ("nan", [[nan, 0.5], [0.5, 0.5]]),
        ("inf", [[0.5, 0.5], [inf, 0.5]]),
        ("minus-inf", [[0.5, -inf], [0.5, 0.5]]),
        ("both-infinities", [[inf, -inf]]),
        ("nan-and-out-of-range", [[nan, 2.0], [1.0, 0.0]]),
        ("out-of-range-and-nan", [[-3.0, 4.0], [nan, 1.0]]),
        ("just-above", [[np.nextafter(above, 2), 1 - np.nextafter(above, 2)]]),
        ("just-below", [[np.nextafter(below, -1), 1 - np.nextafter(below, -1)]]),
        ("twice-the-tolerance", [[1 + 2 * DEFAULT_TOL, -2 * DEFAULT_TOL]]),
        ("row-sum-low", [[0.5, 0.4], [0.0, 1.0]]),
        ("row-sum-high", [[0.5, 0.5], [0.6, 0.6]]),
        ("row-sum-within-tolerance", [[0.5, 0.5 + 0.5 * DEFAULT_TOL]]),
        ("empty-list", []),
        ("empty-row", [[]]),
        ("no-rows", np.zeros((0, 3))),
        ("scalar", 1.0),
        ("one-entry-vector", [1.0]),
        ("vector", [0.5, 0.5]),
        ("three-dimensional", [[[1.0]]]),
    ]
    return [pytest.param(weights, id=name) for name, weights in cases]


class TestKernelValidation:
    @pytest.mark.parametrize("weights", kernel_cases())
    def test_same_decision_and_message(self, weights):
        given = np.array(weights, copy=True)
        if agree(make_kernel, staged_make_kernel, weights)[0] != "ok":
            return
        new, old = make_kernel(weights), staged_make_kernel(weights)
        assert (new.rows, new.cols) == (old.rows, old.cols)
        assert np.array_equal(new.weights, old.weights)
        assert new.weights.flags.c_contiguous and not new.weights.flags.writeable
        # the kernel owns its weights: the caller's array stays writeable and unchanged
        if isinstance(weights, np.ndarray):
            assert not np.shares_memory(new.weights, weights) and weights.flags.writeable
            assert np.array_equal(weights, given)
