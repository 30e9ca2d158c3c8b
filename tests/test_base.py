"""Tests for the streaming-algorithm protocol (single-pass enforcement)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.base import SetArrivalAlgorithm, StreamConsumedError, StreamingAlgorithm
from repro.sketch.contributing import F2Contributing
from repro.sketch.countsketch import CountSketch


class _Counter(StreamingAlgorithm):
    """Minimal concrete algorithm: counts tokens."""

    def __init__(self):
        super().__init__()
        self.total = 0

    def _process(self, *token):
        self.total += 1

    def space_words(self):
        return 1


class _SetCounter(SetArrivalAlgorithm):
    def __init__(self):
        super().__init__()
        self.sets: list[tuple[int, list[int]]] = []

    def _process_set(self, set_id, elements):
        self.sets.append((set_id, list(elements)))

    def space_words(self):
        return 1


class TestStreamingAlgorithm:
    def test_process_counts_tokens(self):
        algo = _Counter()
        algo.process(1, 2)
        algo.process(3, 4)
        assert algo.tokens_seen == 2
        assert algo.total == 2

    def test_finalize_blocks_further_processing(self):
        algo = _Counter()
        algo.process(1)
        algo.finalize()
        with pytest.raises(StreamConsumedError):
            algo.process(2)

    def test_finalize_is_idempotent(self):
        algo = _Counter()
        algo.finalize()
        algo.finalize()
        assert algo.finalized

    def test_error_message_names_the_class(self):
        algo = _Counter()
        algo.finalize()
        with pytest.raises(StreamConsumedError, match="_Counter"):
            algo.process(1)

    def test_process_stream_splats_tuples(self):
        algo = _Counter()
        algo.process_stream([(1, 2), (3, 4), (5, 6)])
        assert algo.tokens_seen == 3

    def test_process_stream_accepts_bare_items(self):
        algo = _Counter()
        algo.process_stream([1, 2, 3, 4])
        assert algo.tokens_seen == 4

    def test_process_stream_returns_self(self):
        algo = _Counter()
        assert algo.process_stream([]) is algo

    def test_fresh_algorithm_not_finalized(self):
        assert not _Counter().finalized


class _Rejecting(StreamingAlgorithm):
    """Every kernel rejects its input."""

    def _process(self, *token):
        raise ValueError("rejected token")

    def _process_batch(self, *columns):
        raise ValueError("rejected batch")

    def _process_planned(self, set_ids, elements, ctx):
        raise ValueError("rejected chunk")

    def space_words(self):
        return 1


class TestRejectedTokensDoNotCount:
    """``tokens_seen`` advances only once the kernel accepts the input."""

    @pytest.mark.parametrize(
        "entry",
        [
            lambda algo: algo.process(1, 2),
            lambda algo: algo.process_batch([1, 2], [3, 4]),
            lambda algo: algo._ingest_planned(
                np.array([1, 2]), np.array([3, 4]), None
            ),
        ],
        ids=["process", "process_batch", "ingest_planned"],
    )
    def test_every_entry_counts_after_the_kernel(self, entry):
        algo = _Rejecting()
        with pytest.raises(ValueError, match="rejected"):
            entry(algo)
        assert algo.tokens_seen == 0

    @pytest.mark.parametrize(
        "build, feed",
        [
            (
                lambda: F2Contributing(0.05, 40, seed=3, domain=150),
                lambda sketch: sketch.process_batch(np.array([3, 150])),
            ),
            (
                lambda: CountSketch(64, 4, seed=1, domain=10),
                lambda sketch: sketch.process(11),
            ),
        ],
        ids=["contributing-batch", "countsketch-token"],
    )
    def test_out_of_domain_input_leaves_the_state(self, build, feed):
        sketch = build()
        sketch.process_batch(np.array([1, 2, 3]))
        before = {
            key: np.array(value, copy=True)
            for key, value in sketch.state_arrays().items()
        }
        with pytest.raises(ValueError, match="domain"):
            feed(sketch)
        after = sketch.state_arrays()
        assert sketch.tokens_seen == 3
        assert after.keys() == before.keys()
        for key in before:
            assert np.array_equal(after[key], before[key]), key


class TestSetArrivalAlgorithm:
    def test_process_set_counts(self):
        algo = _SetCounter()
        algo.process_set(0, [1, 2])
        algo.process_set(1, [3])
        assert algo.sets_seen == 2

    def test_finalize_blocks(self):
        algo = _SetCounter()
        algo.finalize()
        with pytest.raises(StreamConsumedError):
            algo.process_set(0, [1])

    def test_edge_stream_adapter_groups_contiguous_sets(self):
        algo = _SetCounter()
        algo.process_edge_stream([(0, 5), (0, 6), (1, 7), (2, 8), (2, 9)])
        assert algo.sets == [(0, [5, 6]), (1, [7]), (2, [8, 9])]

    def test_edge_stream_adapter_rejects_interleaving(self):
        algo = _SetCounter()
        with pytest.raises(ValueError, match="non-contiguously"):
            algo.process_edge_stream([(0, 1), (1, 2), (0, 3)])

    def test_edge_stream_adapter_handles_empty_stream(self):
        algo = _SetCounter()
        algo.process_edge_stream([])
        assert algo.sets == []
