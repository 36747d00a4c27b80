"""Observable extremality against a textbook oracle.

``textbook_extreme`` is the real perturbation rank test: one column per
element of a real basis of the Hermitian operators on each effect's
support.  The library decides the same criterion by the complex rank of
the outer products of the support vectors.
"""

import numpy as np

from qmultimeter.observables import (
    SUPPORT_TOL,
    is_extreme,
    make_observable,
    mix,
    random_observable,
    random_sharp_observable,
)
from qmultimeter.operators import dagger, haar_isometry


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


def textbook_extreme(e) -> bool:
    """Extreme when no nonzero Hermitian family ``D_x``, ``supp D_x <= supp E_x``, sums to zero."""
    columns = []
    n_params = 0
    for eff in e.effects:
        eigvals, vecs = np.linalg.eigh((eff + dagger(eff)) / 2)
        support = vecs[:, eigvals > SUPPORT_TOL]
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
    assert verdicts == [textbook_extreme(e) for e in family]
    assert (len(family), sum(verdicts)) == (272, 170)
