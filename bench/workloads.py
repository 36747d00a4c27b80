"""The benchmark's three workloads, generated from a seed.

A workload is a list of passes; a pass is a list of operations.  An
operation makes one public call into ``qmultimeter`` (or one scenario
document through ``cli.execute``), checks the result against what the
theory predicts and returns an outcome string.  It succeeds when that
outcome equals its ``expect``.  Inputs are drawn from the workload seed
with numpy alone; the package only ever receives the generated inputs.

Package functions are looked up as attributes at call time (``qm.name``,
``cli.name``) so that a tracer which rebinds them sees every call.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qmultimeter as qm
from qmultimeter import cli

#: Passes generated per workload; the timed loop cycles through them.
POOL_PASSES = 4

#: Distance bound for exact constructions, checked at about 1e-16.
EXACT = 1e-10

WITHIN = "within"


@dataclass
class Op:
    """One checked operation: ``run()`` returns an outcome string."""

    kind: str
    run: Callable[[], str]
    expect: str
    samples: int = 0  # search trials, for search_samples_per_s


def _within(distance: float) -> str:
    return WITHIN if distance <= EXACT else f"distance {distance:.3e} > {EXACT:.1e}"


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def _density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _axis(rng: np.random.Generator) -> list:
    v = rng.normal(size=3)
    return [float(x) for x in v / np.linalg.norm(v)]


# ---------------------------------------------------------------------------
# search_sweep

SEARCH_CELLS = ((2, 2), (2, 3), (2, 4), (3, 3))
SEEDS_PER_CELL = 3
#: The inversion relies on the search's 5% structured samples; with this
#: many trials the chance that none is drawn is below 1e-11, so a ``pass``
#: is a defect, not bad luck.
INVERSION_TRIALS = 500


def _search_op(kind, dim_h, dim_k, trials, seed, expect, **kwargs) -> Op:
    def run():
        rep = qm.counterexample_search(dim_h, dim_k, trials, seed, **kwargs)
        violations = "0" if rep.residuals["violations"] == 0 else ">0"
        return f"{rep.verdict}/{violations}"

    return Op(kind, run, expect, samples=trials)


def search_pass(rng: np.random.Generator, trials: int) -> list:
    """Criterion-6 cells at the default thresholds, one refined cell, one inversion.

    Every default-threshold search must pass with zero violations.  With
    the overlap threshold at zero the orthogonal structured samples count
    as violations, so the inversion must fail: a ``pass`` there would be
    vacuous.
    """
    seeds = iter(int(s) for s in rng.integers(2**31, size=len(SEARCH_CELLS) * SEEDS_PER_CELL + 2))
    ops = [
        _search_op(f"search{cell}", *cell, trials, next(seeds), "pass/0")
        for cell in SEARCH_CELLS
        for _ in range(SEEDS_PER_CELL)
    ]
    ops.append(_search_op("search(2, 2)+refine", 2, 2, trials, next(seeds), "pass/0", refine=True))
    ops.append(
        _search_op(
            "search(2, 2)+inversion", 2, 2, max(trials, INVERSION_TRIALS), next(seeds), "fail/>0",
            thresholds={"overlap": 0.0},
        )
    )
    return ops


# ---------------------------------------------------------------------------
# bundle_program

BUNDLE_SIZES = ((2, 2, 2), (3, 2, 2), (3, 3, 3), (3, 4, 4))
#: Mixed selector probes take the general induction path; above this
#: apparatus dimension it costs more than the rest of the pass together.
MIXED_MAX_DIM_K = 81


def _sharp_effects(d: int, n_outcomes: int, rng: np.random.Generator) -> list:
    """Rank-one projections onto a Haar-random basis (requires d == n_outcomes)."""
    u = _haar(d, rng)
    return [np.outer(u[:, k], u[:, k].conj()) for k in range(n_outcomes)]


def bundle_ops(n: int, d: int, n_out: int, rng: np.random.Generator) -> list:
    """Push-button and shared-pointer bundles of n random sharp observables.

    Every selector must reproduce its observable (after marginalising the
    joint pointer) and the Lueders channel of that observable; two
    selectors must pass the sharp orthogonality check; a mixed selector
    probe must induce the matching convex mixture.
    """
    labels = tuple(range(1, n_out + 1))
    effects = [_sharp_effects(d, n_out, rng) for _ in range(n)]
    st: dict = {}
    size = f"({n},{d},{n_out})"
    upper = n * n_out**n

    def build_push_button():
        st["obs"] = [qm.make_observable(d, labels, e) for e in effects]
        models = [qm.minimal_dilation_multimeter(a) for a in st["obs"]]
        st["pb"], st["pb_probes"] = qm.push_button_multimeter(models)
        return f"dim_k={st['pb'].dim_k} probes={len(st['pb_probes'])}"

    def build_shared_pointer():
        st["sp"], st["sp_probes"] = qm.shared_pointer_multimeter(st["obs"])
        return f"dim_k={st['sp'].dim_k} probes={len(st['sp_probes'])}"

    def marginal(i):
        e = qm.induced_observable(qm.make_model(st["pb"], st["pb_probes"][i]))
        weights = np.zeros((len(e), n_out))
        for row, label in enumerate(e.outcomes):
            weights[row, labels.index(int(str(label).split(",")[i]))] = 1.0
        m = qm.post_process(e, qm.make_kernel(weights), labels=labels)
        return _within(qm.observable_distance(m, st["obs"][i]))

    def lueders(meter, i):
        c = qm.induced_channel(qm.make_model(st[meter], st[f"{meter}_probes"][i]))
        return _within(qm.channel_distance(c, qm.make_channel(st["obs"][i].effects)))

    def shared_selector(i):
        e = qm.induced_observable(qm.make_model(st["sp"], st["sp_probes"][i]))
        observable = _within(qm.observable_distance(e, st["obs"][i]))
        return f"observable {observable}, channel {lueders('sp', i)}"

    def orthogonality():
        probes = st["pb_probes"]
        return qm.check_sharp_program_orthogonality(st["pb"], probes[0], probes[1]).verdict

    weights = rng.dirichlet(np.ones(n))

    def mixed_probe():
        return sum(w * np.outer(p, p.conj()) for w, p in zip(weights, st["pb_probes"]))

    def mixed_observable():
        e = qm.induced_observable(qm.make_model(st["pb"], mixed_probe()))
        # Selector i moves meter i; every idle meter reads its first outcome.
        expected = []
        for label in e.outcomes:
            slots = [labels.index(int(x)) for x in str(label).split(",")]
            acc = np.zeros((d, d), dtype=complex)
            for i in range(n):
                if all(slots[j] == 0 for j in range(n) if j != i):
                    acc = acc + weights[i] * effects[i][slots[i]]
            expected.append(acc)
        target = qm.make_observable(d, e.outcomes, expected)
        return _within(qm.observable_distance(e, target))

    def mixed_channel():
        c = qm.induced_channel(qm.make_model(st["pb"], mixed_probe()))
        kraus = [np.sqrt(w) * a for w, eff in zip(weights, effects) for a in eff]
        return _within(qm.channel_distance(c, qm.make_channel(kraus)))

    ops = [
        Op(f"push_button_build{size}", build_push_button, f"dim_k={upper} probes={n}"),
        Op(f"shared_pointer_build{size}", build_shared_pointer, f"dim_k={n * n_out} probes={n}"),
    ]
    # A shared-pointer selector costs under a millisecond, so its two
    # inductions are one operation; with them split, the 90th percentile
    # would fall between two operation kinds of very different cost and
    # jump between runs, instead of inside the dim-768 inductions.
    for i in range(n):
        ops.append(Op(f"push_button_observable{size}", functools.partial(marginal, i), WITHIN))
        ops.append(Op(f"push_button_channel{size}", functools.partial(lueders, "pb", i), WITHIN))
        ops.append(Op(f"shared_pointer_selector{size}", functools.partial(shared_selector, i),
                      f"observable {WITHIN}, channel {WITHIN}"))
    ops.append(Op(f"sharp_orthogonality{size}", orthogonality, "pass"))
    if upper <= MIXED_MAX_DIM_K:
        ops.append(Op(f"mixed_observable{size}", mixed_observable, WITHIN))
        ops.append(Op(f"mixed_channel{size}", mixed_channel, WITHIN))
    ops[-1].run = _then_clear(ops[-1].run, st)
    return ops


def _then_clear(run: Callable[[], str], st: dict) -> Callable[[], str]:
    """Drop the built bundles after the last operation on them.

    Otherwise every pass of the input pool keeps its bundles alive and peak
    memory measures the pool size instead of one bundle.
    """

    def cleared():
        try:
            return run()
        finally:
            st.clear()

    return cleared


def bundle_pass(rng: np.random.Generator, sizes=BUNDLE_SIZES) -> list:
    return [op for size in sizes for op in bundle_ops(*size, rng)]


# ---------------------------------------------------------------------------
# check_mix: scenario documents through the CLI


def _c(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _matrix(a: np.ndarray) -> list:
    return [[_c(z) for z in row] for row in np.asarray(a, dtype=complex)]


def _spin_effects(axis) -> tuple:
    n_sigma = sum(a * p for a, p in zip(axis, qm.PAULI[1:]))
    eye = np.eye(2, dtype=complex)
    return (eye + n_sigma) / 2, (eye - n_sigma) / 2


def _spin(axis) -> dict:
    return {"kind": "observable", "builtin": "spin", "axis": axis}


def spin_document(rng: np.random.Generator) -> tuple:
    """Minimal dilation of a random spin: pure, mixed and channel programs.

    The second apparatus basis vector programs the spin with its outcomes
    swapped, so the probe ``diag(p, 1 - p)`` induces the matching mixture,
    which is not extreme (purification is not applicable), while both
    basis vectors induce the same Lueders channel.
    """
    axis = _axis(rng)
    up, down = _spin_effects(axis)
    p = float(rng.uniform(0.1, 0.9))
    counts = [int(c) for c in rng.integers(2, 6, size=int(rng.integers(2, 5)))]
    doc = {
        "objects": {
            "S": _spin(axis),
            "Mix": {
                "kind": "observable",
                "dim": 2,
                "outcomes": [1, 2],
                "effects": {
                    "1": _matrix(p * up + (1 - p) * down),
                    "2": _matrix(p * down + (1 - p) * up),
                },
            },
            "L": {"kind": "channel", "kraus": [_matrix(up), _matrix(down)]},
            "md": {"kind": "multimeter", "construction": "minimal_dilation", "observable": "S"},
        },
        "runs": [
            {"command": "program", "multimeter": "md", "probe": {"of": "md"}, "expect": "S"},
            {"command": "program", "multimeter": "md",
             "probe": {"density": _matrix(np.diag([p, 1 - p]))}, "expect": "Mix"},
            {"command": "program", "multimeter": "md", "probe": {"of": "md"},
             "induce": "channel", "expect": "L"},
            {"command": "program", "multimeter": "md",
             "probe": {"density": _matrix(np.diag([p, 1 - p]))}, "induce": "channel",
             "expect": "L"},
            {"command": "verify", "check": "purification", "multimeter": "md",
             "probe": {"density": _matrix(np.diag([p, 1 - p]))}},
            {"command": "bounds", "outcome_counts": counts,
             "expect": [max(len(counts), max(counts)), len(counts) * int(np.prod(counts))]},
        ],
    }
    return doc, ("pass", "pass", "pass", "pass", "not_applicable", "pass")


def channel_document(rng: np.random.Generator) -> tuple:
    """Push-button bundle of three random qubit unitaries.

    A density probe induces the mixture weighted by its diagonal; two
    selectors pass channel orthogonality; the bundle stays in its convex
    hull.  A probe mixing two selectors of the same unitary induces that
    (extreme) unitary, so purification passes; on the bundle of distinct
    unitaries the induced mixture is not extreme.
    """
    us = [_haar(2, rng) for _ in range(3)]
    xi = _density(3, rng)
    twin_xi = _density(2, rng)
    doc = {
        "seed": int(rng.integers(2**31)),
        "objects": {
            **{f"U{i}": {"kind": "channel", "builtin": "unitary", "matrix": _matrix(u)}
               for i, u in enumerate(us)},
            "Mix": {"kind": "channel", "kraus": [
                _matrix(np.sqrt(xi[i, i].real) * u) for i, u in enumerate(us)]},
            "bundle": {"kind": "multimeter", "construction": "push_button",
                       "channels": ["U0", "U1", "U2"]},
            "twin": {"kind": "multimeter", "construction": "push_button",
                     "channels": ["U0", "U0"]},
        },
        "runs": [
            *({"command": "program", "multimeter": "bundle", "induce": "channel",
               "probe": {"of": "bundle", "index": i}, "expect": f"U{i}"} for i in range(3)),
            {"command": "program", "multimeter": "bundle", "induce": "channel",
             "probe": {"density": _matrix(xi)}, "expect": "Mix"},
            {"command": "verify", "check": "channel_orthogonality", "multimeter": "bundle",
             "probes": [{"of": "bundle", "index": 0}, {"of": "bundle", "index": 1}]},
            {"command": "verify", "check": "convex_hull", "multimeter": "bundle", "trials": 4,
             "programmed": [{"probe": {"of": "bundle", "index": i}, "device": f"U{i}"}
                            for i in range(3)]},
            {"command": "verify", "check": "purification", "multimeter": "twin",
             "kind": "channel", "probe": {"density": _matrix(twin_xi)}},
            {"command": "verify", "check": "purification", "multimeter": "bundle",
             "kind": "channel", "probe": {"density": _matrix(xi)}},
        ],
    }
    return doc, ("pass",) * 7 + ("not_applicable",)


def pointer_document(rng: np.random.Generator) -> tuple:
    """Two random spins behind a shared pointer and a push-button bundle.

    Orthogonal selectors of distinct sharp observables pass the sharp
    orthogonality check.  A density probe on the selector space induces
    the mixture weighted by its diagonal (coherences do not reach the
    pointer), and one on two copies of the same spin induces that extreme
    spin, so purification passes.
    """
    a, b = _axis(rng), _axis(rng)
    block = _density(2, rng)
    xi = np.zeros((4, 4), dtype=complex)
    xi[:2, :2] = block
    w = float(block[0, 0].real)
    (a_up, a_down), (b_up, b_down) = _spin_effects(a), _spin_effects(b)
    doc = {
        "objects": {
            "Sa": _spin(a),
            "Sb": _spin(b),
            "Mix": {"kind": "observable", "dim": 2, "outcomes": [1, 2], "effects": {
                "1": _matrix(w * a_up + (1 - w) * b_up),
                "2": _matrix(w * a_down + (1 - w) * b_down)}},
            "sp": {"kind": "multimeter", "construction": "shared_pointer",
                   "observables": ["Sa", "Sb"]},
            "pb": {"kind": "multimeter", "construction": "push_button",
                   "observables": ["Sa", "Sb"]},
            "twin": {"kind": "multimeter", "construction": "shared_pointer",
                     "observables": ["Sa", "Sa"]},
        },
        "runs": [
            {"command": "verify", "check": "sharp_orthogonality", "multimeter": "sp",
             "probes": [{"of": "sp", "index": 0}, {"of": "sp", "index": 1}]},
            {"command": "verify", "check": "sharp_orthogonality", "multimeter": "pb",
             "probes": [{"of": "pb", "index": 0}, {"of": "pb", "index": 1}]},
            {"command": "program", "multimeter": "sp", "probe": {"of": "sp", "index": 1},
             "expect": "Sb"},
            {"command": "program", "multimeter": "sp", "probe": {"density": _matrix(xi)},
             "expect": "Mix"},
            {"command": "verify", "check": "purification", "multimeter": "twin",
             "probe": {"density": _matrix(xi)}},
        ],
    }
    return doc, ("pass",) * 5


_PAULI_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_PAULI_MERGES = (
    [[1, 0], [1, 0], [0, 1], [0, 1]],
    [[1, 0], [0, 1], [1, 0], [0, 1]],
    [[1, 0], [0, 1], [0, 1], [1, 0]],
)


def pauli_document(rng: np.random.Generator) -> tuple:
    """The four-slot ``pauli`` meter with randomly flipped merge kernels.

    Swapping a merge kernel's columns programs the spin along the opposite
    axis.  The probes induce noisy, non-sharp spins and non-unitary
    channels, so both orthogonality checks are not applicable.
    """
    flips = [bool(f) for f in rng.integers(0, 2, size=3)]
    i, j = (int(x) for x in rng.choice(3, size=2, replace=False))
    objects = {"pauli": {"kind": "multimeter", "builtin": "pauli"}}
    runs = []
    for k, (axis, merge, flip) in enumerate(zip(_PAULI_AXES, _PAULI_MERGES, flips)):
        sign = -1.0 if flip else 1.0
        objects[f"S{k}"] = _spin([sign * x for x in axis])
        objects[f"merge{k}"] = {
            "kind": "kernel", "weights": [row[::-1] if flip else row for row in merge]}
        runs.append({"command": "program", "multimeter": "pauli",
                     "probe": {"of": "pauli", "index": k}, "kernel": f"merge{k}",
                     "expect": f"S{k}", "tol": 1e-12})
    probes = [{"of": "pauli", "index": i}, {"of": "pauli", "index": j}]
    runs.append({"command": "verify", "check": "sharp_orthogonality", "multimeter": "pauli",
                 "probes": probes})
    runs.append({"command": "verify", "check": "channel_orthogonality", "multimeter": "pauli",
                 "probes": probes})
    return {"objects": objects, "runs": runs}, ("pass",) * 3 + ("not_applicable",) * 2


def pauli_scenario(scenarios: Path) -> tuple:
    """``scenarios/pauli_postprocessing.json`` verbatim, with its predicted verdicts."""
    doc = json.loads((scenarios / "pauli_postprocessing.json").read_text(encoding="utf-8"))
    return doc, ("pass",) * 3 + ("not_applicable",) * 2 + ("pass",)


def document_op(kind: str, doc: dict, expect: tuple) -> Op:
    """Execute, render as structured JSON and parse back; outcome is the verdicts."""

    def run():
        reports = cli.execute(doc)
        parsed = cli.parse_report(cli.emit_report(reports, "structured"))
        if [r.to_dict() for r in parsed] != [r.to_dict() for r in reports]:
            return "structured report does not round-trip"
        return " ".join(r.verdict for r in parsed)

    return Op(kind, run, " ".join(expect))


DOCUMENTS = (
    ("spin_program", spin_document),
    ("channel_bundle", channel_document),
    ("pointer_pair", pointer_document),
    ("pauli_merge", pauli_document),
)


def check_mix_pass(rng: np.random.Generator, scenarios: Path, rounds: int) -> list:
    ops = []
    for _ in range(rounds):
        for kind, make in DOCUMENTS:
            ops.append(document_op(kind, *make(rng)))
        ops.append(document_op("pauli_postprocessing.json", *pauli_scenario(scenarios)))
    return ops


# ---------------------------------------------------------------------------

WORKLOADS = ("search_sweep", "bundle_program", "check_mix")


def build(name: str, seed: int, scenarios: Path, tiny: bool = False) -> list:
    """``POOL_PASSES`` passes of the named workload, all drawn from ``seed``.

    ``tiny`` shrinks every pass to a few milliseconds for the benchmark's
    own tests; the operations and checks stay the same kinds.
    """
    rng = np.random.default_rng(seed)
    if name == "search_sweep":
        return [search_pass(rng, 40 if tiny else 500) for _ in range(POOL_PASSES)]
    if name == "bundle_program":
        sizes = BUNDLE_SIZES[:2] if tiny else BUNDLE_SIZES
        return [bundle_pass(rng, sizes) for _ in range(POOL_PASSES)]
    if name == "check_mix":
        return [check_mix_pass(rng, scenarios, 1 if tiny else 8) for _ in range(POOL_PASSES)]
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
