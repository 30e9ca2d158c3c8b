"""The array-backend contract: every backend matches numpy bit-for-bit.

Three layers of guarantee, from primitives up to whole runs:

* **Primitive parity** -- each :class:`ArrayBackend` method produces
  exactly the numpy reference's values (``array_backend`` fixture:
  torch rows exist only where torch is importable, the CUDA row is
  ``gpu``-marked, and absence means *skip*, never failure).
* **Registry semantics** -- name resolution, availability probing, the
  active-backend context machinery, and ``backend_of`` dispatch.
* **Whole-algorithm byte-identity** -- a full ``EstimateMaxCover`` run
  on torch serialises to exactly the bytes the numpy run does, and the
  runner/executor plumbing records which backend produced a report
  (including the GPU ``workers="auto"`` single-pass shortcut, tested
  here with a fake GPU backend so it runs on CPU-only hosts).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import EstimateMaxCover
from repro.base import StreamRunner
from repro.engine.backend import (
    BACKEND_CHOICES,
    HOST,
    NUMPY,
    BackendUnavailableError,
    NumpyBackend,
    active_backend,
    as_host,
    available_backends,
    backend_of,
    cuda_available,
    get_backend,
    is_backend_array,
    resolve_backend,
    torch_available,
    use_backend,
)
from repro.sketch.hashing import MERSENNE_P
from repro.streams.edge_stream import EdgeStream
from repro.streams.generators import planted_cover

RNG = np.random.default_rng(42)


def _host(backend, a):
    """Normalise a backend result (array or tuple of arrays) to numpy."""
    if isinstance(a, tuple):
        return tuple(backend.to_host(x) for x in a)
    return backend.to_host(a)


def _items(n=500, hi=97):
    return (RNG.integers(0, hi, size=n) * 12_345_701 % (1 << 40)).astype(
        np.int64
    )


class TestPrimitiveParity:
    """Each primitive, backend vs the numpy reference, exact equality."""

    def test_transfer_roundtrip(self, array_backend):
        a = _items()
        dev = array_backend.from_host(a)
        back = array_backend.to_host(dev)
        assert isinstance(back, np.ndarray)
        assert np.array_equal(back, a)
        assert array_backend.tolist(dev) == a.tolist()

    def test_ensure_accepts_lists_and_arrays(self, array_backend):
        vals = [5, 0, 3, MERSENNE_P + 2]
        assert np.array_equal(
            as_host(array_backend.ensure(vals)), np.asarray(vals)
        )
        a = _items(64)
        assert np.array_equal(as_host(array_backend.ensure(a)), a)

    def test_creation(self, array_backend):
        xb = array_backend
        assert np.array_equal(as_host(xb.zeros(7)), np.zeros(7))
        assert np.array_equal(as_host(xb.full(5, 9)), np.full(5, 9))
        assert np.array_equal(as_host(xb.arange(11)), np.arange(11))
        ones = as_host(xb.ones_bool(4))
        assert ones.dtype == bool and ones.all()

    def test_structural_ops(self, array_backend):
        xb = array_backend
        a = _items(200)
        b = _items(200)
        da, db = xb.from_host(a), xb.from_host(b)
        assert np.array_equal(
            as_host(xb.concatenate((da, db))), np.concatenate((a, b))
        )
        assert np.array_equal(as_host(xb.stack((da, db))), np.stack((a, b)))
        assert np.array_equal(
            as_host(xb.where(xb.from_host(a % 2 == 0), da, db)),
            np.where(a % 2 == 0, a, b),
        )
        assert np.array_equal(
            as_host(xb.flatnonzero(xb.from_host(a % 3 == 0))),
            np.flatnonzero(a % 3 == 0),
        )
        assert np.array_equal(as_host(xb.diff(da)), np.diff(a))
        assert np.array_equal(as_host(xb.take(da, xb.from_host(b % 200))),
                              a[b % 200])
        assert np.array_equal(as_host(xb.mod(da, 97)), a % 97)

    def test_argsort_stable_breaks_ties_by_position(self, array_backend):
        keys = _items(400, hi=5)  # heavy ties: stability is observable
        got = as_host(array_backend.argsort_stable(
            array_backend.from_host(keys)
        ))
        assert np.array_equal(got, np.argsort(keys, kind="stable"))

    def test_lexsort_matches_numpy(self, array_backend):
        primary = _items(300, hi=7)
        secondary = _items(300, hi=7)
        got = as_host(array_backend.lexsort(
            (array_backend.from_host(secondary),
             array_backend.from_host(primary))
        ))
        assert np.array_equal(got, np.lexsort((secondary, primary)))

    def test_searchsorted_with_sorter(self, array_backend):
        xb = array_backend
        haystack = _items(128, hi=64)
        needles = _items(77, hi=64)
        sorter = np.argsort(haystack, kind="stable")
        for side in ("left", "right"):
            got = as_host(xb.searchsorted(
                xb.from_host(np.sort(haystack)),
                xb.from_host(needles),
                side=side,
            ))
            assert np.array_equal(
                got, np.searchsorted(np.sort(haystack), needles, side=side)
            )
            got = as_host(xb.searchsorted(
                xb.from_host(haystack),
                xb.from_host(needles),
                side=side,
                sorter=xb.from_host(sorter),
            ))
            assert np.array_equal(
                got,
                np.searchsorted(haystack, needles, side=side, sorter=sorter),
            )

    def test_unique_family(self, array_backend):
        xb = array_backend
        items = _items(600, hi=40)
        dev = xb.from_host(items)

        uniq, first, counts = (
            as_host(x) for x in xb.unique_grouped(dev)
        )
        ru, rf, rc = NUMPY.unique_grouped(items)
        assert np.array_equal(uniq, ru)
        assert np.array_equal(first, rf)  # exact first occurrence
        assert np.array_equal(counts, rc)

        u, inv = xb.unique_inverse(dev)
        assert np.array_equal(as_host(u)[as_host(inv)], items)
        u, c = xb.unique_counts(dev)
        assert np.array_equal(as_host(u), ru)
        assert np.array_equal(as_host(c), rc)
        assert np.array_equal(as_host(xb.unique_values(dev)), ru)

    def test_horner_mod_bank(self, array_backend):
        xb = array_backend
        coeffs = RNG.integers(0, MERSENNE_P, size=(6, 4)).astype(np.int64)
        xs = _items(333)
        ranges = RNG.integers(2, 1 << 20, size=(6, 1)).astype(np.int64)
        ref = NUMPY.horner_mod_bank(coeffs, xs, MERSENNE_P)
        got = as_host(xb.horner_mod_bank(
            xb.from_host(coeffs), xb.from_host(xs), MERSENNE_P
        ))
        assert np.array_equal(got, ref)
        ref = NUMPY.horner_mod_bank(coeffs, xs, MERSENNE_P, ranges=ranges)
        got = as_host(xb.horner_mod_bank(
            xb.from_host(coeffs), xb.from_host(xs), MERSENNE_P,
            ranges=xb.from_host(ranges),
        ))
        assert np.array_equal(got, ref)

    def test_horner_mod(self, array_backend):
        coeffs = RNG.integers(0, MERSENNE_P, size=5).astype(np.int64)
        xs = _items(250)
        for range_size in (None, 1024):
            ref = NUMPY.horner_mod(coeffs, xs, MERSENNE_P, range_size)
            got = as_host(array_backend.horner_mod(
                coeffs, array_backend.from_host(xs), MERSENNE_P, range_size
            ))
            assert np.array_equal(got, ref)

    def test_bincount(self, array_backend):
        xb = array_backend
        buckets = _items(400, hi=50) % 64
        weights = RNG.choice([-1, 1], size=400).astype(np.int64)
        assert np.array_equal(
            as_host(xb.bincount(xb.from_host(buckets), 64)),
            NUMPY.bincount(buckets, 64),
        )
        assert np.array_equal(
            as_host(xb.bincount(
                xb.from_host(buckets), 64, weights=xb.from_host(weights)
            )),
            NUMPY.bincount(buckets, 64, weights=weights),
        )

    @pytest.mark.parametrize("length", (3, 2000))
    def test_bincount_scatter_both_branches(self, array_backend, length):
        """Small batches hit the indexed-add path, large ones the flat
        bincount; both must mutate the host table identically."""
        depth, width = 3, 32
        buckets = RNG.integers(0, width, size=(depth, length)).astype(
            np.int64
        )
        values = RNG.choice([-1, 1], size=(depth, length)).astype(np.int64)
        ref_table = np.zeros((depth, width), dtype=np.int64)
        NUMPY.bincount_scatter(ref_table, buckets, values, factor=8)
        table = np.zeros((depth, width), dtype=np.int64)
        array_backend.bincount_scatter(
            table,
            array_backend.from_host(buckets),
            array_backend.from_host(values),
            factor=8,
        )
        assert np.array_equal(table, ref_table)


class TestRegistry:
    def test_numpy_always_available(self):
        assert available_backends()[0] == "numpy"
        assert get_backend("numpy") is NUMPY
        assert get_backend("host") is NUMPY
        assert HOST is NUMPY

    def test_every_choice_resolves_or_reports_unavailable(self):
        for name in BACKEND_CHOICES:
            try:
                backend = get_backend(name)
            except BackendUnavailableError:
                assert name.startswith("torch") or name == "cuda"
            else:
                assert backend.name == "numpy" or backend.name.startswith(
                    "torch"
                )

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError):
            get_backend("cupy")

    def test_available_matches_probes(self):
        names = available_backends()
        assert ("torch-cpu" in names) == torch_available()
        assert ("torch-cuda" in names) == cuda_available()

    def test_auto_prefers_fastest_runnable_host_backend(self):
        backend = get_backend("auto")
        if cuda_available():
            assert backend.name == "torch-cuda"
        else:
            assert backend is NUMPY

    def test_resolve_backend_forms(self):
        assert resolve_backend(None) is active_backend()
        assert resolve_backend("numpy") is NUMPY
        assert resolve_backend(NUMPY) is NUMPY

    def test_use_backend_restores_previous(self):
        before = active_backend()
        with use_backend("numpy") as xb:
            assert active_backend() is xb
        assert active_backend() is before

    def test_backend_of_flows_with_data(self):
        a = np.arange(4, dtype=np.int64)
        assert backend_of(a) is NUMPY
        assert is_backend_array(a)
        assert not is_backend_array([1, 2, 3])
        assert as_host(a) is a

    def test_torch_names_unavailable_without_torch(self):
        if torch_available():
            pytest.skip("torch importable here; unavailability not testable")
        for name in ("torch", "torch-cpu", "torch-cuda"):
            with pytest.raises(BackendUnavailableError):
                get_backend(name)


def _workload_arrays():
    workload = planted_cover(n=120, m=60, k=4, coverage_frac=0.9, seed=5)
    stream = EdgeStream.from_system(workload.system, order="random", seed=9)
    return workload.system, stream


# Module-level so a real worker pool can pickle it.
_ESTIMATOR = partial(EstimateMaxCover, m=60, n=120, k=4, alpha=3.0, seed=7)


def _run_estimator(system, stream, backend_name, chunk_size=64):
    algo = EstimateMaxCover(m=system.m, n=system.n, k=4, alpha=3.0, seed=7)
    set_ids, elements = stream.as_arrays()
    with use_backend(backend_name):
        for start in range(0, len(set_ids), chunk_size):
            stop = start + chunk_size
            algo.process_batch(set_ids[start:stop], elements[start:stop])
    return algo


class TestWholeAlgorithmParity:
    """Whole runs serialise to the same bytes on every backend."""

    def _assert_state_identical(self, left, right):
        ls, rs = left.state_arrays(), right.state_arrays()
        assert list(ls) == list(rs)
        for key in ls:
            assert np.array_equal(ls[key], rs[key]), key

    @pytest.mark.skipif(not torch_available(), reason="torch not importable")
    def test_torch_cpu_state_byte_identical_to_numpy(self):
        system, stream = _workload_arrays()
        reference = _run_estimator(system, stream, "numpy")
        torch_run = _run_estimator(system, stream, "torch-cpu")
        self._assert_state_identical(torch_run, reference)
        assert torch_run.estimate() == reference.estimate()

    @pytest.mark.gpu
    @pytest.mark.skipif(not cuda_available(), reason="CUDA not available")
    def test_torch_cuda_state_byte_identical_to_numpy(self):
        system, stream = _workload_arrays()
        reference = _run_estimator(system, stream, "numpy")
        cuda_run = _run_estimator(system, stream, "torch-cuda")
        self._assert_state_identical(cuda_run, reference)
        assert cuda_run.estimate() == reference.estimate()


class TestRunnerPlumbing:
    def test_run_report_records_backend(self, array_backend):
        system, stream = _workload_arrays()
        runner = StreamRunner(chunk_size=256, array_backend=array_backend)
        algo = EstimateMaxCover(
            m=system.m, n=system.n, k=4, alpha=3.0, seed=7
        )
        report = runner.run(algo, stream)
        assert report.backend == array_backend.name
        assert report.tokens == len(stream)

    def test_gpu_backend_prefers_single_pass(self):
        """``workers="auto"`` + a GPU backend collapses to one in-process
        pass; exercised with a fake GPU backend so it runs anywhere."""
        from repro.parallel.sharded import ShardedStreamRunner

        class FakeGpuBackend(NumpyBackend):
            name = "fake-gpu"
            is_gpu = True

        system, stream = _workload_arrays()
        runner = ShardedStreamRunner(
            workers="auto", chunk_size=256, array_backend=FakeGpuBackend()
        )
        assert runner.workers == 1

        def factory():
            return EstimateMaxCover(
                m=system.m, n=system.n, k=4, alpha=3.0, seed=7
            )

        algo, report = runner.run(factory, stream)
        assert report.fallback == "gpu_single_pass"
        assert report.workers == 1
        assert report.backend == "fake-gpu"
        assert algo.tokens_seen == len(stream)

    def test_cpu_auto_is_not_flagged_gpu(self):
        from repro.parallel.sharded import ShardedStreamRunner

        system, stream = _workload_arrays()
        assert (system.m, system.n) == (60, 120)
        runner = ShardedStreamRunner(
            workers="auto", chunk_size=256, array_backend="numpy"
        )
        _algo, report = runner.run(_ESTIMATOR, stream)
        assert report.fallback != "gpu_single_pass"
        assert report.backend == "numpy"
