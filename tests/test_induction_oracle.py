"""Every induction path against the textbook induction, formed densely on H (x) K.

The library never forms an operator on ``H (x) K`` to induce a device.  It
sums the pointer slots' Gram matrices by the pointer's marks
(``_basis_effects``) or multiplies the program maps by a dense pointer; it
programs a push-button coupling slot by slot (``_slot_blocks``, with its
own branch for a channel bundle) and any other coupling in one product of
its Kraus stack; from dim K = 64 on it decomposes a density probe on its
support and sums only the nonzero pointer slots.  The checks that sample
probe families induce many probes in one product (``_induced_stack``):
effects, or Kraus operators whose Choi matrices ``_choi`` forms.  The
search kernel (``_stacked_effects``) induces the effects of a whole chunk
of samples.
Each case takes one of these paths, which the test asserts, and is
compared with the partial traces of ``V*(I (x) Z(x))V (I (x) xi)`` and
``V(rho (x) xi)V*`` in ``textbook``.  The dense coupling a push-button
bundle builds on first read is held to a term-by-term sum by
``test_multimeter.py::test_bundle_equals_dense_construction``.
"""

import numpy as np
import pytest

from qmultimeter import PAULI
from qmultimeter.channels import _choi, choi_matrix, identity_channel, make_channel, unitary_channel
from qmultimeter.multimeter import (
    SUPPORT_MIN_DIM_K,
    _induced_stack,
    builtin_multimeter,
    concatenate_with_measurement,
    induced_channel,
    induced_observable,
    make_model,
    make_multimeter,
    minimal_dilation_multimeter,
    push_button_multimeter,
)
from qmultimeter.observables import make_kernel, make_observable, spin_observable
from qmultimeter.operators import haar_unitary, projector, random_state_vector
from qmultimeter.verify import _draw_samples, _stacked_effects

import textbook

#: Induced and textbook devices agree to rounding: one product of n x n
#: matrices and a partial trace, n = dim H * dim K <= 128 here.
TOL = 1e-12


def pauli(rng):
    meter, probes = builtin_multimeter("pauli")
    return meter, probes[0], textbook.random_density_operator(4, rng, 4)


def spin_pair(rng):
    meter, _ = builtin_multimeter(
        "spin_pair", observables=[spin_observable((1, 0, 0)), spin_observable((0, 1, 0))]
    )
    return meter, random_state_vector(2, rng), textbook.random_density_operator(2, rng, 2)


def concatenated(rng):
    channels, _ = push_button_multimeter([identity_channel(2), unitary_channel(PAULI[1])])
    spin, probes = builtin_multimeter(
        "spin_pair", observables=[spin_observable((1, 0, 0)), spin_observable((0, 1, 0))]
    )
    meter = concatenate_with_measurement(channels, make_model(spin, probes[0]))
    return meter, random_state_vector(4, rng), textbook.random_density_operator(4, rng, 4)


def selector_bundle(dim, parts):
    """Push-button bundle of ``parts`` minimal dilations on C^dim, a pure and a mixed selector probe."""
    meter, selectors = push_button_multimeter(
        [minimal_dilation_multimeter(textbook.random_sharp_observable(dim, dim, s))
         for s in range(1, parts + 1)]
    )
    return meter, selectors[-1], 0.4 * projector(selectors[0]) + 0.6 * projector(selectors[1])


def channel_bundle(rng):
    meter, _ = push_button_multimeter([unitary_channel(haar_unitary(2, rng)) for _ in range(3)])
    return meter, random_state_vector(3, rng), textbook.random_density_operator(3, rng, 3)


def non_normal(rng):
    """Fuzzy pointer, three Kraus operators, and a rank-deficient density probe."""
    pointer = textbook.random_observable(3, 3, 5)
    meter = make_multimeter(2, 3, pointer, textbook.random_channel(6, 3, 11))
    rank_two = textbook.random_density_operator(3, rng, 2)
    assert np.linalg.eigvalsh(rank_two)[0] < 1e-14
    return meter, random_state_vector(3, rng), rank_two


#: Each construction with the path it takes: whether its pointer has marks,
#: whether its coupling is held as parts, and whether dim K reaches
#: SUPPORT_MIN_DIM_K.
PATHS = {
    "marks-dense-coupling": (pauli, (True, False, False)),
    "dense-pointer-spin-pair": (spin_pair, (False, False, False)),
    "dense-pointer-concatenated": (concatenated, (False, False, False)),
    "slot-product": (lambda rng: selector_bundle(3, 2), (True, True, False)),
    "slot-product-channel-bundle": (channel_bundle, (True, True, False)),
    "support-dim-k-64": (lambda rng: selector_bundle(2, 4), (True, True, True)),
    "non-normal": (non_normal, (False, False, False)),
}


@pytest.mark.parametrize("path", PATHS)
def test_induction_matches_the_textbook(rng, path):
    build, expected = PATHS[path]
    meter, pure, mixed = build(rng)
    taken = (
        meter.pointer._marks is not None,
        meter.interaction._parts is not None,
        meter.dim_k >= SUPPORT_MIN_DIM_K,
    )
    assert taken == expected
    assert meter.normal == (path != "non-normal")
    kernel = make_kernel(rng.dirichlet(np.ones(2), size=len(meter.pointer)))
    for probe in (pure, mixed):
        for k in (None, kernel):
            model = make_model(meter, probe, kernel=k)
            effects = induced_observable(model).effects
            want = textbook.induced_effects(model)
            assert len(effects) == len(want)
            assert max(np.linalg.norm(e - w) for e, w in zip(effects, want)) <= TOL
        model = make_model(meter, probe)
        want = textbook.choi(textbook.induced_channel(model), meter.dim_h)
        assert np.linalg.norm(choi_matrix(induced_channel(model)) - want) <= TOL


@pytest.mark.parametrize("path", PATHS)
def test_stacked_induction_matches_the_textbook(rng, path):
    # a pure, a mixed and the pure probe again, side by side, each padded with
    # zero columns to the widest: one array per probe, in the order given
    meter, pure, mixed = PATHS[path][0](rng)
    models = [make_model(meter, p) for p in (pure, mixed, pure)]
    columns = max(model._components.shape[1] for model in models)
    psis = np.zeros((meter.dim_k, len(models) * columns), dtype=complex)
    for p, model in enumerate(models):
        psis[:, p * columns : p * columns + model._components.shape[1]] = model._components
    effects = _induced_stack(meter, psis, len(models), channel=False)
    chois = _choi(_induced_stack(meter, psis, len(models), channel=True))
    assert effects.shape == (3, len(meter.pointer), meter.dim_h, meter.dim_h)
    assert chois.shape == (3, meter.dim_h**2, meter.dim_h**2)
    for model, e, c in zip(models, effects, chois):
        want = textbook.induced_effects(model)
        assert max(np.linalg.norm(x - w) for x, w in zip(e, want)) <= TOL
        want = textbook.choi(textbook.induced_channel(model), meter.dim_h)
        assert np.linalg.norm(c - want) <= TOL


def test_search_kernel_matches_the_textbook(rng):
    # for dim K = 2 a sample's Q is its whole coupling g, with columns (c, y)
    # for c on H and y on K, and its coordinates are the probes themselves
    dim_h, dim_k, size = 2, 2, 8
    n = dim_h * dim_k
    q, a, _ = _draw_samples(dim_h, dim_k, size, rng)
    effects = _stacked_effects(q, a, dim_h)
    pointer = make_observable(dim_k, range(dim_k), [np.diag(e) for e in np.eye(dim_k)])
    for t in range(size):
        meter = make_multimeter(dim_h, dim_k, pointer, make_channel([q[..., t].reshape(n, n)]))
        for p in range(len(a)):
            want = textbook.induced_effects(make_model(meter, a[p, :, t]))
            assert max(np.linalg.norm(effects[p, i, ..., t] - w) for i, w in enumerate(want)) <= TOL
