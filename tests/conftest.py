"""Shared fixtures: small deterministic workloads used across test files."""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np
import pytest

from repro import (
    EdgeStream,
    EstimateMaxCover,
    Parameters,
    SetSystem,
    StreamRunner,
    common_heavy,
    few_large_sets,
    planted_cover,
)
from repro.streams.adversary import (
    duplicate_flood,
    fragmented,
    noise_first,
    signal_first,
)


@pytest.fixture(params=["numpy", "list"])
def column_form(request):
    """Converter to the column type a batched test hands ``process_batch``.

    ``numpy`` gives int64 arrays, the form every runner passes; ``list``
    gives plain Python int lists, which ``process_batch`` converts
    itself.  A test parametrised over both asserts that the state it
    checks does not depend on the form.
    """
    if request.param == "numpy":
        return partial(np.asarray, dtype=np.int64)
    return lambda column: np.asarray(column).tolist()


@pytest.fixture(scope="session")
def tiny_system() -> SetSystem:
    """A hand-written 5-set instance with known optima."""
    return SetSystem(
        [
            {0, 1, 2, 3},      # set 0
            {3, 4, 5},         # set 1
            {6, 7},            # set 2
            {0, 1, 2, 3, 4},   # set 3 (superset of 0's core)
            {8},               # set 4
        ],
        n=9,
    )


@pytest.fixture(scope="session")
def planted_workload():
    """Planted k=6 cover over n=300, m=150 -- the 'many small sets' regime."""
    return planted_cover(n=300, m=150, k=6, coverage_frac=0.9, seed=11)


@pytest.fixture(scope="session")
def large_set_workload():
    """Two huge sets dominate OPT -- the 'few large sets' regime."""
    return few_large_sets(n=300, m=150, k=6, num_large=2, seed=11)


@pytest.fixture(scope="session")
def common_workload():
    """Dense common-element block -- the 'LargeCommon' regime."""
    return common_heavy(n=300, m=150, k=6, beta=2.0, seed=11)


@pytest.fixture(scope="session")
def planted_stream(planted_workload) -> EdgeStream:
    return EdgeStream.from_system(
        planted_workload.system, order="random", seed=7
    )


@pytest.fixture(scope="session")
def adversarial_streams(planted_workload) -> dict[str, EdgeStream]:
    """``planted_workload`` in the four adversarial arrival orders plus
    the seeded random order of ``planted_stream``."""
    return {
        "noise_first": noise_first(planted_workload, seed=3),
        "signal_first": signal_first(planted_workload, seed=3),
        "duplicate_flood": duplicate_flood(planted_workload, seed=3),
        "fragmented": fragmented(planted_workload),
        "random": EdgeStream.from_system(
            planted_workload.system, order="random", seed=7
        ),
    }


@pytest.fixture(scope="session")
def planted_estimator(planted_workload):
    """Factory for the estimator that :func:`scalar_runs` replays."""
    system = planted_workload.system
    return partial(
        EstimateMaxCover, m=system.m, n=system.n, k=6, alpha=3.0, seed=7
    )


class ScalarRun(NamedTuple):
    """What a scalar-path (reference) pass left behind."""

    state: dict
    space_words: int
    estimate: float


@pytest.fixture(scope="session")
def scalar_runs(adversarial_streams, planted_estimator) -> dict[str, ScalarRun]:
    """One scalar ``planted_estimator`` pass per arrival order.

    Scalar replays cost milliseconds a token, so every suite comparing
    against the reference shares these instead of re-running them.
    """
    runs = {}
    for name, stream in adversarial_streams.items():
        algo = planted_estimator()
        StreamRunner(path="scalar").run(algo, stream)
        state = {key: np.array(a) for key, a in algo.state_arrays().items()}
        runs[name] = ScalarRun(state, algo.space_words(), algo.estimate())
    return runs


@pytest.fixture()
def practical_params(planted_workload) -> Parameters:
    system = planted_workload.system
    return Parameters.practical(m=system.m, n=system.n, k=6, alpha=3.0)
