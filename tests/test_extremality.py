"""Observable extremality against a textbook oracle.

``textbook.is_extreme`` is the real perturbation rank test: one column per
element of a real basis of the Hermitian operators on each effect's
support.  The library decides the same criterion by the complex rank of
the outer products of the support vectors.
"""

import numpy as np

from qmultimeter.observables import SUPPORT_TOL, is_extreme, make_observable
from qmultimeter.operators import haar_isometry

import textbook
from textbook import mix, random_observable, random_sharp_observable


def rank_one_povm(d: int, n: int, rng):
    """Effects ``v_i v_i*``, ``v_i`` the conjugated rows of a Haar isometry ``C^d -> C^n``."""
    v = haar_isometry(n, d, rng).conj()
    return make_observable(d, range(1, n + 1), v[:, :, None] * v[:, None, :].conj())


def uniform(d: int, n: int):
    return make_observable(d, range(1, n + 1), [np.eye(d) / n] * n)


def observable_family(rng) -> list:
    """Sharp, rank-one, Wishart-random, mixed and near-support observables, in that order."""
    family = [random_sharp_observable(d, n, 10 * d + n) for d in range(1, 9) for n in range(1, d + 1)]
    # generic rank-one POVMs are extreme up to d**2 outcomes and never beyond
    family += [rank_one_povm(d, n, rng) for d in (2, 3, 4) for n in (d, d * d - 1, d * d, d * d + 1)
               for _ in range(3)]
    family += [random_observable(d, n, s) for d in range(1, 5) for n in range(1, 5) for s in (1, 2)]
    family += [mix(lam, random_sharp_observable(d, n, 1), random_sharp_observable(d, n, 2))
               for d in (2, 3, 4) for n in range(2, d + 1) for lam in (0.3, 0.5, 0.9)]
    # uniform weight delta / n on every effect lies below or above SUPPORT_TOL
    family += [mix(1 - delta, random_sharp_observable(d, n, s), uniform(d, n))
               for d in range(2, 6) for n in range(2, d + 1) for s in (1, 2, 3)
               for delta in (1e-10, 3e-10, 1e-9, 3e-9, 1e-8)]
    return family


def test_is_extreme_matches_textbook(rng):
    family = observable_family(rng)
    verdicts = [is_extreme(e) for e in family]
    assert verdicts == [textbook.is_extreme(e, SUPPORT_TOL) for e in family]
    assert (len(family), sum(verdicts)) == (272, 170)
