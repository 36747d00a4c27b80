"""A channel is one Kraus stack: every map reads it in one product.

The structural test walks ``channels.py`` and refuses any loop or
comprehension over ``.kraus``; the others hold each stacked function to a
textbook version that takes the operators one at a time.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qmultimeter import channels
from qmultimeter.channels import (
    Channel,
    _dense_residual,
    apply,
    channel_distance,
    choi_matrix,
    is_extreme_channel,
    make_channel,
    multiplicativity_residual,
)
from qmultimeter.multimeter import (
    _program_blocks,
    induced_channel,
    make_model,
    minimal_dilation_multimeter,
    push_button_multimeter,
)
from qmultimeter.operators import PAULI, dagger, frobenius_norm, haar_unitary, random_state_vector

import textbook
from textbook import random_channel, random_sharp_observable

CHANNELS_PY = Path(channels.__file__)

#: Stacked and per-operator sums agree to rounding; a channel on C^1 sums
#: its operators pairwise, the others in their order.
ATOL = 1e-12


def loops_over_kraus(source: str) -> list:
    """Line numbers of loops and comprehensions whose iterable reads ``.kraus``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            if any(
                isinstance(sub, ast.Attribute) and sub.attr == "kraus"
                for sub in ast.walk(node.iter)
            ):
                lines.append(node.iter.lineno)
    return lines


def test_channels_module_never_loops_over_kraus():
    assert loops_over_kraus(CHANNELS_PY.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(c):\n    for k in c.kraus:\n        pass\n",
        "def f(c):\n    return sum(k @ k for k in c.kraus)\n",
        "def f(c):\n    return [k for k in enumerate(c.kraus)]\n",
        "def f(a, b):\n    return {k: 1 for k in a.kraus + b.kraus}\n",
    ],
)
def test_loop_detector_finds_loops(snippet):
    assert loops_over_kraus(snippet) != []


def textbook_choi(c):
    """The Choi matrix of ``c`` from its definition, the operators applied one at a time."""
    return textbook.choi(lambda x: textbook.apply(c, x), c.dim)


def textbook_family(dim):
    eye = np.eye(dim, dtype=complex)
    vectors = [eye[i] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            vectors.append((eye[i] + eye[j]) / np.sqrt(2))
            vectors.append((eye[i] + 1j * eye[j]) / np.sqrt(2))
    return [np.outer(v, v.conj()) for v in vectors]


def textbook_unitarity(c):
    """``1 - lambda_max / dim`` of the Choi matrix: zero exactly for a unitary channel."""
    return 1.0 - np.linalg.eigvalsh(textbook_choi(c))[-1] / c.dim


def textbook_multiplicativity(c):
    """Largest projection defect of the dual images of a family of rank-1 projectors spanning ``L(H)``."""
    worst = 0.0
    for p in textbook_family(c.dim):
        image = textbook.apply(c, p, "heisenberg")
        worst = max(worst, frobenius_norm(image @ image - image))
    return worst


def with_negligible_operators(c, rng):
    """``c`` with exactly zero and ``1e-15``-sized Kraus operators inserted."""
    tiny = 1e-15 * (rng.normal(size=(c.dim, c.dim)) + 1j * rng.normal(size=(c.dim, c.dim)))
    zero = np.zeros((c.dim, c.dim), dtype=complex)
    return make_channel([zero, *c.kraus[:1], tiny, *c.kraus[1:], zero])


def parts_coupling():
    parts = [minimal_dilation_multimeter(random_sharp_observable(2, 2, s)) for s in (1, 2)]
    meter, _ = push_button_multimeter(parts)
    return meter.interaction


def sample_channels(rng):
    found = [random_channel(d, n, 10 * d + n) for d in (1, 2, 3, 4) for n in (1, 2, 3, 5)]
    found += [make_channel([haar_unitary(3, rng)])]
    found += [with_negligible_operators(random_channel(d, 2, d), rng) for d in (1, 2, 3)]
    found.append(parts_coupling())
    return found


def test_stacked_maps_match_textbook(rng):
    found = sample_channels(rng)
    # the residual diagonalises the Kraus Gram matrix or, for more than
    # dim**2 operators, the Choi matrix: both sides are sampled
    assert {len(c) > c.dim**2 for c in found} == {True, False}
    for c in found:
        x = rng.normal(size=(c.dim, c.dim)) + 1j * rng.normal(size=(c.dim, c.dim))
        np.testing.assert_allclose(choi_matrix(c), textbook_choi(c), rtol=0, atol=ATOL)
        for picture in ("schrodinger", "heisenberg"):
            np.testing.assert_allclose(
                apply(c, x, picture), textbook.apply(c, x, picture), rtol=0, atol=ATOL * c.dim)
        gram = sum(dagger(k) @ k for k in c.kraus)
        assert _dense_residual(c.kraus) == pytest.approx(
            frobenius_norm(gram - np.eye(c.dim)), abs=ATOL)
        assert is_extreme_channel(c) == textbook.is_extreme(c)
        assert multiplicativity_residual(c) == pytest.approx(textbook_unitarity(c), abs=ATOL)
        if c.dim <= 4:
            assert (multiplicativity_residual(c) <= 1e-9) == (textbook_multiplicativity(c) <= 1e-9)


def test_distance_matches_textbook(rng):
    found = [c for c in sample_channels(rng) if c.dim == 2]
    for a in found:
        for b in found:
            want = frobenius_norm(textbook_choi(a) - textbook_choi(b))
            assert channel_distance(a, b) == pytest.approx(want, abs=ATOL)


def test_parts_coupling_builds_its_stack_once():
    c = parts_coupling()
    assert "kraus" not in vars(c) and len(c) == 1
    stack = c.kraus
    assert c.kraus is stack and vars(c)["kraus"] is stack
    assert type(stack) is np.ndarray and stack.shape == (1, c.dim, c.dim)
    assert not stack.flags.writeable and not c.kraus[0].flags.writeable


def test_stack_is_read_only_and_views_it(rng):
    c = random_channel(3, 4, 1)
    assert isinstance(c, Channel) and type(c.kraus) is np.ndarray and c.kraus.shape == (4, 3, 3)
    assert not c.kraus.flags.writeable
    assert all(k.base is c.kraus and not k.flags.writeable for k in c.kraus)


@pytest.mark.parametrize("delta2", [5e-7, 2e-6])
def test_two_kraus_residual_is_the_small_weight(delta2):
    # Choi spectrum {2 (1 - delta^2), 2 delta^2}, so the residual is delta^2,
    # once below and once above SHARP_RESIDUAL_TOL = 1e-6
    c = make_channel([np.sqrt(1 - delta2) * np.eye(2), np.sqrt(delta2) * PAULI[3]])
    assert multiplicativity_residual(c) == pytest.approx(delta2, abs=4 * np.finfo(float).eps)


@pytest.mark.parametrize("channel", [
    lambda: make_channel([haar_unitary(64, np.random.default_rng(4))]),
    lambda: random_channel(8, 8, 1),
], ids=["unitary-64", "eight-operators"])
def test_multiplicativity_allocates_its_gram_matrix(channel):
    # no d**2 x d**2 Choi matrix (256 MiB on C^64) and no family of d**2
    # projectors: the constant covers the conjugated stack (64 KiB for the
    # unitary) and eigvalsh's workspace
    c = channel()
    gram_bytes = len(c) ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        multiplicativity_residual(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= gram_bytes + 2**17


def test_induced_channel_keeps_the_reached_rows(rng):
    parts = [minimal_dilation_multimeter(random_sharp_observable(3, 3, s)) for s in (1, 2)]
    meter, probes = push_button_multimeter(parts)
    for probe in [probes[0], random_state_vector(meter.dim_k, rng)]:
        model = make_model(meter, probe)
        rows = _program_blocks(meter, model._components).transpose(0, 2, 1, 3).reshape(-1, 3, 3)
        reached = rows.any(axis=(1, 2))
        c = induced_channel(model)
        assert len(c) == np.count_nonzero(reached)
        assert np.array_equal(c.kraus, rows[reached])
        np.testing.assert_allclose(choi_matrix(c), textbook_choi(make_channel(rows)),
                                   rtol=0, atol=1e-15)
    # a selector reaches the d rows of its observable's Lueders channel
    assert len(induced_channel(make_model(meter, probes[1]))) == 3
