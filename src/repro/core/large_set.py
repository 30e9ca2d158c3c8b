"""``LargeSet``: the heavy-hitter / contributing-class subroutine
(Section 4.2 and Appendix B).

Case II of the oracle's analysis: some optimal solution draws at least
half its coverage from ``OPT_large`` -- sets contributing at least a
``1/(s alpha)`` fraction each (Definition 4.2), of which there are at most
``s alpha``.  The pipeline, faithful to Figures 4, 6 and 7:

1. **Random superset partition.**  A ``Theta(log mn)``-wise independent
   hash packs the ``m`` sets into ``~ c m log m / w`` supersets of at most
   ``w = min(alpha, k)`` sets each (Claim 4.9).  The stream then drives
   the *superset total-size vector* ``v`` (``v[i]`` = total size of the
   sets in superset ``i``), on which everything else operates.
2. **Element sampling** (Appendix B, step 1).  Each parallel run first
   subsamples elements at rate ``rho = t s alpha eta / |U|``; w.h.p. at
   least one run's sample avoids every ``w``-common element, making the
   size/coverage gap of a superset ``O~(1)`` (Claim 4.10) so total size is
   a faithful coverage proxy.
3. **Contributing classes.**  If ``OPT_large`` dominates, its supersets
   form an ``Omega~(alpha^2/m)``-contributing class of ``F_2(v)`` of size
   ``<= s_L alpha`` (Claim 4.11, case 1) or, when small supersets don't
   contribute, an ``Omega~(1)``-contributing class (Claim 4.13, case 2).
   Two ``F2-Contributing`` instances (Theorem 2.11) with class-size caps
   ``r1 = s_L alpha`` and ``r2 = Theta~(m/w) * gamma`` find a coordinate
   of either class in ``O~(m/alpha^2)`` and ``O~(1)`` space respectively.
4. **Oversized contributing classes** (Appendix B, case 2b).  Capping
   ``r2`` protects against common-element pollution, so classes larger
   than ``r2`` are handled separately: sample ``~ log m / r2`` of the
   supersets outright and measure each one's *coverage* with an ``L_0``
   sketch.  The sampled supersets' KMV synopses live in one
   :class:`~repro.sketch.l0.KMVBank`, rows ordered by superset id.  On
   the planned path the bank hashes each (sampled superset, sampled
   element) cell once, at the first chunk, and gathers from that table.
5. A reported superset with (sampled) total size ``v~`` certifies a
   coverage estimate ``2 v~ / (3 f)`` on the sample (Lemma 4.14 / B.3),
   and its member sets ``{S : h(S) = i*}`` are recoverable from the
   partition hash without a second pass -- the reporting hook of
   Theorem 3.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.base import (
    MergeIncompatibleError,
    StreamingAlgorithm,
    pack_state,
    unpack_state,
)
from repro.core.parameters import Parameters
from repro.engine.profile import PROFILER
from repro.sketch.contributing import ContributingBank, F2Contributing
from repro.sketch.element_sampling import ElementSampler
from repro.sketch.hashing import (
    KWiseHash,
    SampledSet,
    SampledSetBank,
    default_degree,
    same_hash,
    same_sampled_set,
)
from repro.sketch.l0 import KMVBank

__all__ = ["LargeSetOutcome", "LargeSetRun", "LargeSet"]

#: Values each sampled superset's KMV synopsis keeps (case 2b).
_L0_SIZE = 32


@dataclass(frozen=True)
class LargeSetOutcome:
    """A certified superset found by one ``LargeSetComplete`` run.

    Attributes
    ----------
    value_on_sample:
        Coverage estimate *on the run's element sample* (already divided
        by the duplication bound ``f`` where applicable).
    superset_id:
        The winning superset's partition bucket; member sets are
        ``{S : h(S) = superset_id}``.
    case:
        Which detection path fired: ``"contributing-small"`` (case 1),
        ``"contributing-large"`` (case 2), or ``"sampled-l0"`` (case 2,
        oversized class).
    """

    value_on_sample: float
    superset_id: int
    case: str


class LargeSetRun(StreamingAlgorithm):
    """One ``LargeSetComplete`` instance (Figure 6).

    With ``element_sampler=None`` this is exactly ``LargeSetSimple``
    (Figure 4): every element is inspected, which is the Section 4.2
    simplification valid when ``U^cmn_w`` is empty.

    Ingest state is array-backed: each ``F2Contributing`` is a set of
    arrays, coefficients and one stacked counter table holding only the
    counters the superset domain reaches (``space_words`` still charges
    the full tables), and the case-2b ``L_0`` sketches of the sampled
    supersets are the rows of one :class:`~repro.sketch.l0.KMVBank`
    (superset ``i`` hashes with seed ``(l0_seed + i) & (2**63 - 1)``).
    The planned path has the KMV bank tabulate the values of every
    (sampled superset, sampled element) cell at its first chunk (see
    :meth:`_tabulate_l0`), a cache like the plan's domain tables, so no
    chunk hashes a pair.  Both are linear or order-free, so scalar,
    batched, planned and merged runs hold the same state.

    A chunk counts its superset ids once, with one ``bincount``; the
    detectors take those counts through a
    :class:`~repro.sketch.contributing.ContributingBank`.  Inside a
    :class:`LargeSet` the batch and planned kernels hand the counts up,
    and the LargeSet scatters every run's at once; a standalone run
    banks its two detectors itself.  Finalisation reads only each
    detector's top entry, from one scoring pass of the bank.

    Parameters
    ----------
    params:
        Resolved parameter schedule.
    w:
        Superset size cap (Figure 2 passes ``k`` or ``alpha``).
    element_sampler:
        The run's sampled element set ``L`` (``None`` = all of ``U``).
    seed:
        Randomness for partition hash, contributing sketches, and the
        superset ``L_0`` samplers.
    """

    def __init__(
        self,
        params: Parameters,
        w: int | None = None,
        element_sampler: ElementSampler | None = None,
        seed=0,
    ):
        super().__init__()
        self.params = params
        self.w = int(w if w is not None else params.w)
        if self.w < 1:
            raise ValueError(f"w must be >= 1, got {self.w}")
        self.element_sampler = element_sampler
        rng = np.random.default_rng(seed)
        p = params
        self.num_supersets = p.superset_count() * max(
            1, int(math.ceil(p.w / self.w))
        )
        degree = default_degree(p.m, p.n)
        self._partition = KWiseHash(
            self.num_supersets, degree=degree, seed=rng.integers(0, 2**63)
        )
        self._partition_cache: dict[int, int] = {}
        # Case 1: class of <= r1 supersets, phi1 = Omega~(alpha^2/m).
        self.r1 = max(1, int(math.ceil(3.0 * p.s_alpha)))
        self._cntr_small = F2Contributing(
            p.phi1(),
            self.r1,
            seed=rng.integers(0, 2**63),
            domain=self.num_supersets,
        )
        # Case 2: class of <= r2 supersets, phi2 = Omega~(1).
        self.r2 = max(2, int(math.ceil(self.num_supersets * p.phi2())))
        self._cntr_large = F2Contributing(
            p.phi2(),
            self.r2,
            seed=rng.integers(0, 2**63),
            domain=self.num_supersets,
        )
        # Case 2b: directly sample ~log(m) * |Q| / r2 supersets, measure
        # coverage with L_0 sketches (one KMV bank row per superset).
        keep_rate = max(1.0, self.r2 / max(1.0, math.log2(max(2, p.m))))
        self._superset_sampler = SampledSet(
            keep_rate, degree=degree, seed=rng.integers(0, 2**63)
        )
        self._l0_seed = rng.integers(0, 2**63)
        self._l0 = KMVBank(self.num_supersets, _L0_SIZE, self._l0_seed)
        # Element-membership memo (speed cache, outside the space model).
        self._element_memo: dict[int, bool] = {}
        # Fused-plan slots (see _register_plan); populated lazily.
        self._elem_slot = None
        self._elem_col = None
        self._partition_slot = None
        self._ss_slot = None
        # Whether the KMV bank tabulated its cells at the first planned
        # chunk (None until then).
        self._l0_tabulated = None

    # -- stream processing -------------------------------------------------

    def _process(self, set_id, element) -> None:
        element = int(element)
        sampler = self.element_sampler
        if sampler is not None:
            keep = self._element_memo.get(element)
            if keep is None:
                keep = sampler.contains(element)
                self._element_memo[element] = keep
            if not keep:
                return
        set_id = int(set_id)
        sid = self._partition_cache.get(set_id)
        if sid is None:
            sid = self._partition(set_id)
            self._partition_cache[set_id] = sid
        self._cntr_small.process(sid)
        self._cntr_large.process(sid)
        if self._superset_sampler.contains(sid):
            self._l0.insert_one(sid, element)

    def _process_batch(self, set_ids, elements) -> None:
        counts = self._batch_counts(set_ids, elements)
        if counts is None:
            return
        bank = self._detector_bank()
        total = int(counts.sum())
        bank.ingest(
            np.stack((counts, counts)),
            (total, total),
            bank.index(self._cntr_small),
        )

    def _detector_bank(self) -> ContributingBank:
        """The bank holding both detectors: the LargeSet's, or for a
        standalone run a bank of the two, made at first use."""
        bank = self._cntr_small._bank
        if bank is None or bank is not self._cntr_large._bank:
            bank = ContributingBank((self._cntr_small, self._cntr_large))
        return bank

    def _batch_counts(self, set_ids, elements):
        """The element-sampling filter, then :meth:`_ingest_sampled`."""
        sampler = self.element_sampler
        if sampler is not None:
            mask = sampler._membership.contains_many(elements)
            if not mask.any():
                return None
            set_ids, elements = set_ids[mask], elements[mask]
        return self._ingest_sampled(set_ids, elements)

    def _ingest_presampled(self, set_ids, elements, total_tokens: int):
        """Feed a chunk whose element-sampling filter was applied
        upstream; the chunk's superset-id counts for the LargeSet's bank.

        ``LargeSet`` decides every run's keep-mask with one stacked
        hash pass and hands each run only its surviving rows;
        ``total_tokens`` is the unfiltered chunk length, so the run's
        token count matches the standalone paths.
        """
        self._check_open()
        self._tokens_seen += total_tokens
        return self._ingest_sampled(set_ids, elements)

    def _ingest_sampled(self, set_ids, elements):
        """Batch kernel downstream of element sampling; the chunk's
        superset-id counts, ``None`` for an empty chunk.

        :meth:`_batch_counts` filters for itself;
        :meth:`_ingest_presampled` arrives here already masked.
        """
        if not len(elements):
            return None
        sids = self._partition(set_ids)
        return self._ingest_sids(
            sids, elements, self._superset_sampler.contains_many(sids)
        )

    def _ingest_sids(self, sids, elements, sampled, tabulated=False):
        """Feed superset ids to the KMV bank; their counts for the
        detectors.

        One ``bincount`` over the superset domain counts the chunk's
        ids for both contributing detectors; the KMV bank takes the
        ``(sid, element)`` pairs whose superset is sampled (``sampled``
        is a per-position mask, ``None`` when every superset is), from
        its table when ``tabulated`` (see :meth:`_tabulate_l0`).
        """
        profiling = PROFILER.enabled
        t0 = PROFILER.clock() if profiling else 0.0
        counts = np.bincount(sids, minlength=self.num_supersets)
        if profiling:
            PROFILER.add("group-split", PROFILER.clock() - t0)
        if sampled is None:
            self._l0.insert(sids, elements, tabulated)
        elif sampled.any():
            self._l0.insert(sids[sampled], elements[sampled], tabulated)
        return counts

    # -- fused-plan hooks ---------------------------------------------------

    def _register_plan(self, plan, set_col, elem_col) -> None:
        """Register this run's hash families and derive its sid column."""
        sampler = self.element_sampler
        self._elem_col = elem_col
        self._l0_tabulated = None
        self._elem_slot = (
            None
            if sampler is None
            else plan.request_mask(elem_col, sampler._membership)
        )
        sid_col, self._partition_slot = plan.derive(set_col, self._partition)
        self._ss_slot = plan.request_mask(sid_col, self._superset_sampler)

    def _process_planned(self, set_ids, elements, ctx):
        """Planned kernel: plan-served sids and sampler masks; the
        chunk's superset-id counts for the LargeSet's bank, ``None``
        when no element survived the sample.

        The superset-id column is gathered from the plan's partition
        table and the superset sampler's mask from its domain table;
        the KMV bank gathers its values from the table
        :meth:`_tabulate_l0` builds at the first chunk, and
        :meth:`_ingest_sids` does the rest.  Bit-identical to
        ``_process_batch(set_ids, elements)``.
        """
        if self._partition_slot is None:
            return self._batch_counts(set_ids, elements)
        slot = self._elem_slot
        if slot is not None:
            mask = ctx.mask(slot)
            if not mask.any():
                return None
            sids = ctx.values(self._partition_slot)[mask]
            elements = elements[mask]
        else:
            sids = ctx.values(self._partition_slot)
            if not len(sids):
                return None
        ss_slot = self._ss_slot
        if ss_slot.trivial:
            sampled = None
        else:
            table = ss_slot.mask_table()
            sampled = (
                table[sids]
                if table is not None
                else self._superset_sampler.contains_many(sids)
            )
        if self._l0_tabulated is None:
            self._l0_tabulated = self._tabulate_l0()
        return self._ingest_sids(sids, elements, sampled, self._l0_tabulated)

    def _tabulate_l0(self) -> bool:
        """Have the KMV bank hash every cell a planned chunk can feed it,
        once; whether it did.

        The rows are the sampled superset ids, read from the superset
        sampler's mask table (every id when it keeps all).  The items
        are the element sampler's sampled elements, read from its mask
        table; with no sampler or a rate-1 one, every element of the
        column's domain, provided the plan range-checks the column or
        its values are hash outputs.  Without these tables the bank
        keeps hashing.
        """
        ss_slot = self._ss_slot
        if ss_slot.trivial:
            rows = np.arange(self.num_supersets, dtype=np.int64)
        else:
            table = ss_slot.mask_table()
            if table is None:
                return False
            rows = np.flatnonzero(table)
        slot = self._elem_slot
        if slot is None or slot.trivial:
            column = self._elem_col
            if column.kind != "derived" and not column.needs_check:
                return False
            items = np.arange(column.domain, dtype=np.int64)
        else:
            table = slot.mask_table()
            if table is None:
                return False
            items = np.flatnonzero(table)
        return self._l0.tabulate(rows, items)

    # -- merging / state ----------------------------------------------------

    def _require_mergeable(self, other: "LargeSetRun") -> None:
        mine_sampler = self.element_sampler
        theirs_sampler = other.element_sampler
        samplers_match = (
            mine_sampler is None and theirs_sampler is None
        ) or (
            mine_sampler is not None
            and theirs_sampler is not None
            and same_sampled_set(
                mine_sampler._membership, theirs_sampler._membership
            )
        )
        if (
            other.params != self.params
            or other.w != self.w
            or other.num_supersets != self.num_supersets
            or other._l0_seed != self._l0_seed
            or not same_hash(self._partition, other._partition)
            or not same_sampled_set(
                self._superset_sampler, other._superset_sampler
            )
            or not samplers_match
        ):
            raise MergeIncompatibleError(
                "can only merge LargeSet runs with identical seeds and "
                "parameters"
            )

    def _merge(self, other: "LargeSetRun") -> None:
        self._cntr_small.merge(other._cntr_small)
        self._cntr_large.merge(other._cntr_large)
        # Same partition + same derived per-superset seeds => bank rows
        # for the same superset id merge exactly; rows stay in id order,
        # so the merged bank is the single pass's for any shard split.
        self._l0.merge(other._l0)

    def _state_arrays(self) -> dict:
        sids, counts, values = self._l0.state_arrays()
        state: dict = {
            "l0_sids": sids,
            "l0_counts": counts,
            "l0_values": values,
        }
        pack_state(state, "cntr_small", self._cntr_small.state_arrays())
        pack_state(state, "cntr_large", self._cntr_large.state_arrays())
        return state

    def _load_state_arrays(self, state: dict) -> None:
        self._cntr_small.load_state_arrays(unpack_state(state, "cntr_small"))
        self._cntr_large.load_state_arrays(unpack_state(state, "cntr_large"))
        self._l0.load_state_arrays(
            state["l0_sids"], state["l0_counts"], state["l0_values"]
        )

    # -- post-pass ----------------------------------------------------------

    def sample_size(self) -> float:
        """Expected ``|L|`` the thresholds are computed against."""
        if self.element_sampler is None:
            return float(self.params.n)
        return self.element_sampler.expected_size

    def thresholds(self) -> tuple[float, float]:
        """``(thr1, thr2)`` of Figure 6: total-size cutoffs on the sample."""
        p = self.params
        size = self.sample_size()
        thr1 = size / (18.0 * p.eta * p.s_alpha)
        thr2 = size / (6.0 * p.eta * p.alpha)
        return thr1, thr2

    def outcome(self) -> LargeSetOutcome | None:
        """Finalise; the best certified superset, or ``None`` (infeasible)."""
        self.finalize()
        return self.peek_outcome()

    def peek_outcome(self) -> LargeSetOutcome | None:
        """Mid-stream snapshot of :meth:`outcome` (no finalise)."""
        bank = self._detector_bank()
        first = bank.index(self._cntr_small)
        return self._outcome(*bank.tops(first, first + 2))

    def _outcome(self, top_small, top_large) -> LargeSetOutcome | None:
        """:meth:`peek_outcome` from the detectors' top entries."""
        p = self.params
        thr1, thr2 = self.thresholds()
        best: LargeSetOutcome | None = None

        def consider(candidate: LargeSetOutcome) -> None:
            nonlocal best
            if best is None or candidate.value_on_sample > best.value_on_sample:
                best = candidate

        # A detector's report is sorted by frequency, descending, and a
        # value grows with the frequency, so its first entry is the only
        # one that can win: the first of any tie, and if it misses the
        # threshold every other entry does.
        for top, threshold, case in (
            (top_small, thr1, "contributing-small"),
            (top_large, thr2, "contributing-large"),
        ):
            if top is not None and top.frequency >= 0.5 * threshold:
                consider(
                    LargeSetOutcome(
                        2.0 * top.frequency / (3.0 * p.f),
                        top.coordinate,
                        case,
                    )
                )
        # Rows ascend by superset id, so among equal values the
        # smallest id wins.
        sids, values = self._l0.estimates()
        passing = values >= 0.5 * thr2
        for sid, val in zip(
            sids[passing].tolist(), values[passing].tolist()
        ):
            consider(LargeSetOutcome(2.0 * val / 3.0, sid, "sampled-l0"))
        return best

    def superset_members(self, superset_id: int) -> list[int]:
        """``{S : h(S) = i*}``: the k-cover recovery hook of Figure 6.

        Scans set ids (not the stream), so it needs no extra pass.
        """
        ids = np.arange(self.params.m)
        return [int(j) for j in ids[self._partition(ids) == superset_id]]

    def space_words(self) -> int:
        total = self._partition.space_words()
        total += self._cntr_small.space_words()
        total += self._cntr_large.space_words()
        total += self._superset_sampler.space_words()
        total += self._l0.space_words()
        if self.element_sampler is not None:
            total += self.element_sampler.space_words()
        return total


class LargeSet(StreamingAlgorithm):
    """``O(log n)`` parallel ``LargeSetComplete`` runs (Figure 7).

    Each run draws a fresh element sample at rate
    ``rho = t s alpha eta / |U|``; w.h.p. some run's sample avoids every
    ``w``-common element (Theorem B.6's argument), and that run certifies
    a superset of coverage ``Omega~(|U| / alpha)`` whenever
    ``|C(OPT)| >= |U| / eta``.

    Parameters
    ----------
    params:
        Resolved parameter schedule.
    w:
        Superset size cap (Figure 2's third argument).
    runs:
        Number of parallel runs; defaults to ``ceil(log2 n)`` in paper
        mode and 3 in practical mode.
    seed:
        Randomness.
    """

    def __init__(
        self,
        params: Parameters,
        w: int | None = None,
        runs: int | None = None,
        seed=0,
    ):
        super().__init__()
        self.params = params
        if runs is None:
            if params.mode == "paper":
                runs = max(2, int(math.ceil(math.log2(max(2, params.n)))))
            else:
                runs = 3
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        rng = np.random.default_rng(seed)
        self._runs: list[LargeSetRun] = []
        for _ in range(runs):
            sampler = ElementSampler(
                params.n,
                max(1.0, params.rho * params.n),
                seed=rng.integers(0, 2**63),
                m=params.m,
            )
            self._runs.append(
                LargeSetRun(
                    params,
                    w=w,
                    element_sampler=sampler,
                    seed=rng.integers(0, 2**63),
                )
            )
        # All runs' element-sampler hashes stacked: one Horner pass
        # decides every run's keep-mask for a whole chunk.
        self._sampler_bank = SampledSetBank(
            [run.element_sampler._membership for run in self._runs]
        )
        # All runs' detectors, small then large per run, in one bank:
        # laid out, scattered and scored as one array.
        self._bank = ContributingBank(
            detector
            for run in self._runs
            for detector in (run._cntr_small, run._cntr_large)
        )

    def _process(self, set_id, element) -> None:
        for run in self._runs:
            run.process(set_id, element)

    def _process_batch(self, set_ids, elements) -> None:
        masks = self._sampler_bank.contains_matrix(elements)
        self._ingest_counts(
            [
                run._ingest_presampled(
                    set_ids[mask], elements[mask], len(elements)
                )
                for run, mask in zip(self._runs, masks)
            ]
        )

    def _register_plan(self, plan, set_col, elem_col) -> None:
        for run in self._runs:
            run._register_plan(plan, set_col, elem_col)

    def _process_planned(self, set_ids, elements, ctx) -> None:
        self._ingest_counts(
            [run._ingest_planned(set_ids, elements, ctx) for run in self._runs]
        )

    def _ingest_counts(self, runs) -> None:
        """One bank scatter of the runs' chunk counts (``None`` for a run
        whose sample kept no token).  A run's counts feed both its
        detectors and advance their token counts by its surviving
        tokens."""
        if all(counts is None for counts in runs):
            return
        rows = np.zeros(
            (len(self._bank), self._runs[0].num_supersets), dtype=np.int64
        )
        for index, counts in enumerate(runs):
            if counts is not None:
                rows[2 * index : 2 * index + 2] = counts
        self._bank.ingest(rows, rows.sum(axis=1))

    def best_outcome(self) -> tuple[LargeSetOutcome, LargeSetRun] | None:
        """The winning ``(outcome, run)`` across runs, scaled comparison
        on the sample values (all runs share the same expected rate)."""
        self.finalize()
        for run in self._runs:
            run.finalize()
        return self.peek_best_outcome()

    def peek_best_outcome(self) -> tuple[LargeSetOutcome, LargeSetRun] | None:
        """Mid-stream snapshot of :meth:`best_outcome` (no finalise).

        One scoring pass of the bank gives every run its detectors' top
        entries."""
        best: tuple[LargeSetOutcome, LargeSetRun] | None = None
        tops = self._bank.tops()
        for run, small, large in zip(self._runs, tops[0::2], tops[1::2]):
            out = run._outcome(small, large)
            if out is None:
                continue
            if best is None or out.value_on_sample > best[0].value_on_sample:
                best = (out, run)
        return best

    def estimate(self) -> float | None:
        """Finalise; the coverage estimate at universe scale, or ``None``.

        Paper mode returns the fixed certified bound
        ``|U| / (54 f eta alpha)`` of Theorem B.6; practical mode scales
        the winning run's sampled value back by its sampling rate, capped
        at ``|U|``.
        """
        self.finalize()
        return self.peek_estimate()

    def peek_estimate(self) -> float | None:
        """Mid-stream snapshot of :meth:`estimate` (no finalise)."""
        best = self.peek_best_outcome()
        if best is None:
            return None
        p = self.params
        if p.mode == "paper":
            return p.n / (54.0 * p.f * p.eta * p.alpha)
        out, run = best
        probability = (
            run.element_sampler.probability
            if run.element_sampler is not None
            else 1.0
        )
        return min(float(p.n), out.value_on_sample / probability)

    def _require_mergeable(self, other: "LargeSet") -> None:
        if other.params != self.params or len(other._runs) != len(
            self._runs
        ):
            raise MergeIncompatibleError(
                "can only merge LargeSet instances with identical "
                "parameters and run count"
            )

    def _merge(self, other: "LargeSet") -> None:
        # Per-run validation (seeds, partitions, samplers) happens in
        # each run's own merge.
        for mine, theirs in zip(self._runs, other._runs):
            mine.merge(theirs)

    def _state_arrays(self) -> dict:
        state: dict = {}
        for index, run in enumerate(self._runs):
            pack_state(state, f"runs/{index}", run.state_arrays())
        return state

    def _load_state_arrays(self, state: dict) -> None:
        for index, run in enumerate(self._runs):
            run.load_state_arrays(unpack_state(state, f"runs/{index}"))

    def space_words(self) -> int:
        return sum(run.space_words() for run in self._runs)
