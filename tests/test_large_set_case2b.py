"""Tests for LargeSet's oversized-contributing-class path (App. B, 2b).

When every superset carries similar (large) mass, the contributing class
is bigger than the capped search size ``r2`` and the direct
superset-sampling + L0 path must carry the detection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import EdgeStream, Parameters
from repro.core.large_set import LargeSetRun
from repro.coverage.setsystem import SetSystem


@pytest.fixture(scope="module")
def uniform_heavy():
    """100 sets of 50 elements each -- every superset equally heavy."""
    rng = np.random.default_rng(13)
    sets = [
        rng.choice(200, size=50, replace=False).tolist() for _ in range(100)
    ]
    system = SetSystem(sets, n=200)
    return system, EdgeStream.from_system(system, order="random", seed=1)


class TestOversizedClassPath:
    def test_superset_l0_sketches_populate(self, uniform_heavy):
        system, stream = uniform_heavy
        params = Parameters.practical(system.m, system.n, 8, 2.0)
        run = LargeSetRun(params, element_sampler=None, seed=2)
        run.process_batch(*stream.as_arrays())
        sids, estimates = run._l0.estimates()
        assert len(sids), "case-2b sampling must meter supersets"
        assert (estimates >= 0).all()

    def test_outcome_fires_on_uniform_heavy(self, uniform_heavy):
        system, stream = uniform_heavy
        params = Parameters.practical(system.m, system.n, 8, 2.0)
        fired = 0
        for seed in range(4):
            run = LargeSetRun(params, element_sampler=None, seed=seed)
            run.process_batch(*stream.as_arrays())
            if run.outcome() is not None:
                fired += 1
        assert fired >= 3

    def test_sampled_l0_case_reachable(self, uniform_heavy):
        """Across seeds, at least one detection should come from the
        sampled-L0 route (the contributing searches are capped below the
        class size on this instance)."""
        system, stream = uniform_heavy
        params = Parameters.practical(system.m, system.n, 8, 2.0)
        cases = set()
        for seed in range(6):
            run = LargeSetRun(params, element_sampler=None, seed=seed)
            run.process_batch(*stream.as_arrays())
            outcome = run.outcome()
            if outcome is not None:
                cases.add(outcome.case)
        assert cases, "no detections at all"
        assert cases <= {
            "contributing-small",
            "contributing-large",
            "sampled-l0",
        }

    def test_r2_cap_smaller_than_superset_count(self, uniform_heavy):
        system, _ = uniform_heavy
        params = Parameters.practical(system.m, system.n, 8, 2.0)
        run = LargeSetRun(params, element_sampler=None, seed=1)
        assert run.r2 < run.num_supersets
