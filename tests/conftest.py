import numpy as np
import pytest

from qmultimeter import spin_observable


@pytest.fixture
def spin_trio():
    """The three sharp spin observables along x, y, z."""
    return (
        spin_observable((1, 0, 0)),
        spin_observable((0, 1, 0)),
        spin_observable((0, 0, 1)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class _NoDraws:
    """A generator that refuses every draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


@pytest.fixture
def no_draws(monkeypatch):
    """Every generator made from here on refuses to draw."""
    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: _NoDraws())
