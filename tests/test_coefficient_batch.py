"""Batched coefficient derivation against per-seed numpy draws.

The estimator roots construct inside ``coefficient_batch``: their
hashes and KMV bank rows queue integer seeds, and one
``kwise_coefficients`` call fills them all.  Built with the batch
replaced by ``contextlib.nullcontext`` and the kernel switched off,
every coefficient comes from numpy's own generator one seed at a time,
and so does every seed drawn from another seed (the contributing
detectors' CountSketch rows).  That is the reference each batched build
must equal: every hash, every KMV bank coefficient matrix, every
detector's sampler and row coefficients and, after a pass, every state
array.
"""

from __future__ import annotations

import contextlib
import sys
import threading

import numpy as np
import pytest

from repro import EstimateMaxCover, MaxCoverReporter
from repro.core.large_set import LargeSetRun
from repro.core.oracle import Oracle
from repro.core.parameters import Parameters
from repro.sketch import hashing
from repro.sketch.element_sampling import ElementSampler
from repro.sketch.contributing import F2Contributing
from repro.sketch.hashing import (
    DeferredCoefficients,
    KWiseHash,
    KWiseHashBank,
    coefficient_batch,
)
from repro.sketch.l0 import KMVBank
from repro.sketch.serialize import state_difference

M, N, K, ALPHA = 150, 300, 6, 3.0

#: Modules whose constructors open a coefficient batch.
ROOT_MODULES = (
    "repro.core.estimate",
    "repro.core.oracle",
    "repro.core.reporting",
)


def _params():
    return Parameters.practical(m=M, n=N, k=K, alpha=ALPHA)


def _large_set_run():
    params = _params()
    sampler = ElementSampler(N, 0.5 * N, seed=3, m=M)
    return LargeSetRun(params, element_sampler=sampler, seed=4)


CONSTRUCTORS = {
    "estimate-practical": lambda: EstimateMaxCover(M, N, K, ALPHA, seed=5),
    # Two guesses keep the per-seed reference build short.
    "estimate-paper": lambda: EstimateMaxCover(
        M, N, K, ALPHA, mode="paper", z_guesses=[64, 256], seed=5
    ),
    "reporter": lambda: MaxCoverReporter(M, N, K, ALPHA, seed=5),
    "oracle": lambda: Oracle(_params(), seed=5),
    "large-set-run": _large_set_run,
}


@pytest.fixture
def per_seed(monkeypatch):
    """A context in which every coefficient is drawn by numpy, per seed."""

    @contextlib.contextmanager
    def draws():
        with monkeypatch.context() as patch:
            for module in ROOT_MODULES:
                patch.setattr(
                    f"{module}.coefficient_batch", contextlib.nullcontext
                )
            patch.setattr(hashing, "_KERNEL_MIN_SEEDS", sys.maxsize)
            yield

    return draws


def _holders(root) -> list:
    """Every coefficient holder reachable from ``root`` -- each
    ``KWiseHash``, ``KMVBank`` and domain-mode ``F2Contributing`` -- in
    an order that depends only on how ``root`` was built."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, DeferredCoefficients) and (
            not isinstance(obj, F2Contributing) or obj.domain is not None
        ):
            found.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro.") and hasattr(
            obj, "__dict__"
        ):
            stack.extend(value for _key, value in sorted(vars(obj).items()))
    return found


def _assert_nothing_pending(root):
    assert getattr(hashing._LOCAL, "batch", None) is None
    holders = _holders(root)
    assert holders
    for holder in holders:
        # vars(), not attribute reads: a read would fill a pending batch.
        assert all(name in vars(holder) for name in holder._FILLED)
        assert "_batch" not in vars(holder)


def _assert_same_coefficients(batched, reference):
    ours, theirs = _holders(batched), _holders(reference)
    assert [type(h) for h in ours] == [type(h) for h in theirs]
    # Every root holds LargeSet runs, whose detectors hold sampler and
    # row coefficients.
    assert any(isinstance(h, F2Contributing) for h in ours)
    for mine, ref in zip(ours, theirs):
        for name in mine._FILLED:
            value = vars(mine)[name]
            if isinstance(value, np.ndarray):
                assert value.dtype == np.int64
                assert np.array_equal(value, vars(ref)[name])
            else:
                assert value == vars(ref)[name]
        if isinstance(mine, KWiseHash):
            assert mine.degree == ref.degree
            assert mine.range_size == ref.range_size


def _feed(algo, stream):
    set_ids, elements = stream.as_arrays()
    for lo in range(0, len(set_ids), 512):
        algo.process_batch(set_ids[lo : lo + 512], elements[lo : lo + 512])
    return algo


class TestBatchIdentity:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_batched_build_equals_per_seed_build(
        self, name, per_seed, planted_stream
    ):
        batched = CONSTRUCTORS[name]()
        _assert_nothing_pending(batched)
        with per_seed():
            reference = CONSTRUCTORS[name]()
        _assert_same_coefficients(batched, reference)
        _feed(batched, planted_stream)
        _feed(reference, planted_stream)
        assert (
            state_difference(
                batched.state_arrays(), reference.state_arrays(), order_free=()
            )
            is None
        )
        assert batched.space_words() == reference.space_words()

    @pytest.mark.parametrize(
        "name", ["estimate-practical", "estimate-paper", "reporter", "oracle"]
    )
    def test_a_root_derives_in_one_kernel_call(self, name, monkeypatch):
        calls = []
        kernel = hashing.kwise_coefficients

        def counted(seeds, degree):
            calls.append(len(seeds))
            return kernel(seeds, degree)

        monkeypatch.setattr(hashing, "kwise_coefficients", counted)
        CONSTRUCTORS[name]()
        assert len(calls) == 1
        assert calls[0] > hashing._KERNEL_MIN_SEEDS


class TestPendingReads:
    def test_reading_a_pending_hash_fills_the_batch(self, per_seed):
        xs = np.arange(2000, dtype=np.int64)
        rows = np.arange(40, dtype=np.int64).repeat(20)
        items = np.arange(len(rows), dtype=np.int64) * 7919

        def build():
            with coefficient_batch():
                hashes = [KWiseHash(1000, degree=5, seed=s) for s in range(40)]
                # A constructor evaluating a bank of hashes it just built.
                values = KWiseHashBank(hashes).eval_many(xs)
                scalar = hashes[3](12_345)
                later = KWiseHash(1000, degree=5, seed=99)
                kmv = KMVBank(40, 4, seed=8)
                kmv.insert(rows, items)
            return values, scalar, later, kmv

        values, scalar, later, kmv = build()
        with per_seed(), coefficient_batch():
            ref_values, ref_scalar, ref_later, ref_kmv = build()
        assert np.array_equal(values, ref_values)
        assert scalar == ref_scalar
        assert np.array_equal(later._coeffs, ref_later._coeffs)
        for mine, ref in zip(kmv.state_arrays(), ref_kmv.state_arrays()):
            assert np.array_equal(mine, ref)

    def test_batch_fills_when_the_body_raises(self):
        with pytest.raises(RuntimeError):
            with coefficient_batch():
                hash_ = KWiseHash(97, degree=4, seed=21)
                raise RuntimeError("constructor failed")
        assert getattr(hashing._LOCAL, "batch", None) is None
        assert "_coeffs" in vars(hash_)


class TestThreads:
    def test_concurrent_builds_match_serial_builds(self, per_seed):
        seeds = [11, 12, 13, 14]

        def build(seed):
            return EstimateMaxCover(M, N, K, ALPHA, seed=seed)

        with per_seed():
            serial = {seed: build(seed) for seed in seeds}
        built, errors = {}, []

        def worker(seed):
            try:
                built[seed] = build(seed)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in seeds
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for seed in seeds:
            _assert_nothing_pending(built[seed])
            _assert_same_coefficients(built[seed], serial[seed])
