"""Cross-branch fused hash-evaluation plans.

Every universe-reduction branch of ``EstimateMaxCover`` feeds an oracle
whose subroutines -- ``LargeCommon`` membership layers, ``LargeSet``
partitions and superset samplers, ``SmallSet`` edge samplers --
independently evaluate k-wise polynomial hashes against the *same* two
chunk columns.  (``LargeSet``'s contributing detectors lay out their
CountSketch rows and level samplers over the superset domain
themselves; see :class:`~repro.sketch.contributing.F2Contributing`.)  An
:class:`EvalPlan` is built once per composite (lazily, at the first
vectorised chunk) by walking that tree and registering every family
that will ever be evaluated:

* identical ``(range, degree, coefficients)`` families are
  **deduplicated** (the ``same_hash`` / ``same_sampled_set`` criterion,
  applied via coefficient bytes so two consumers share one slot);
* families over a small enumerable domain -- set ids live in ``[0, m)``,
  reduced elements in ``[0, z)``, superset ids in ``[0, supersets)`` --
  are evaluated **once over the whole domain** at plan freeze, turning
  every later chunk evaluation into a single table gather;
* the remaining same-degree families on a column are stacked into
  ``(B, degree)`` mega-banks (:class:`~repro.sketch.hashing.KWiseHashBank`)
  and evaluated with **one Horner pass per chunk**;
* all per-chunk results are memoised in a :class:`ChunkContext`, so a
  nested composite asking for a value its parent already produced pays
  a dictionary lookup, not a re-hash.

Both evaluation modes reproduce the member hashes bit-for-bit (same
field arithmetic, same operation order as ``KWiseHash.__call__``), so
the planned path inherits the repo's standing scalar-equivalence
invariant.  Domain tables are recomputable from hash coefficients --
like the composites' existing membership/partition memos they are
CPython speed caches, **not** state the streaming model charges for;
``space_words`` accounting is unchanged.

Plans hold no stream state: ``state_arrays`` / ``merge`` shipping never
serialises them, and a worker or merged instance simply rebuilds its
plan on the next chunk it processes.
"""

from __future__ import annotations

import numpy as np

from repro.engine.arena import ScratchArena
from repro.engine.profile import PROFILER
from repro.sketch.hashing import KWiseHash, KWiseHashBank, SampledSet

__all__ = [
    "TABLE_DOMAIN_CAP",
    "Column",
    "Slot",
    "EvalPlan",
    "ChunkContext",
]

#: Largest domain for which a slot precomputes a full value table.
#: Above the cap the slot joins a per-chunk mega-bank instead, so huge
#: universes degrade gracefully to the fused-Horner path.  A domain-mode
#: ``CountSketch`` lays out its domain up to the same cap.
TABLE_DOMAIN_CAP = 1 << 16

class Column:
    """A symbolic chunk column hashes are evaluated against.

    ``sets`` and ``elems`` are the two raw stream columns; a ``derived``
    column holds the output of a registered hash applied to its parent
    (e.g. the reduced-element column of one universe-reduction branch,
    or a ``LargeSet`` run's superset-id column).  ``domain`` is the
    exclusive upper bound of the column's values when one is known.
    """

    __slots__ = ("index", "kind", "domain", "defining_slot", "needs_check")

    def __init__(self, index, kind, domain, defining_slot=None):
        self.index = index
        self.kind = kind
        self.domain = None if domain is None else int(domain)
        self.defining_slot = defining_slot
        # Set at freeze when table gathers index this raw column directly,
        # in which case begin_chunk() must range-check the incoming data.
        self.needs_check = False


class Slot:
    """One deduplicated hash family registered against a column.

    Consumers keep the slot returned by :meth:`EvalPlan.request` and ask
    it for per-chunk ``values``/``mask`` (memoised in the active
    :class:`ChunkContext`) or for its whole-domain ``table`` /
    ``mask_table`` (``None`` when the column's domain is unknown or
    above :data:`TABLE_DOMAIN_CAP`).
    """

    __slots__ = (
        "plan",
        "index",
        "column",
        "hash",
        "trivial",
        "derived_column",
        "_table",
        "_mask_table",
    )

    def __init__(self, plan, index, column, hash_):
        self.plan = plan
        self.index = index
        self.column = column
        self.hash = hash_
        # Range-1 hashes are constant zero: mask always-true, values 0.
        self.trivial = hash_.range_size == 1
        self.derived_column = None
        self._table = None
        self._mask_table = None

    def table(self):
        """Whole-domain value table, or ``None`` in mega-bank mode."""
        self.plan.freeze()
        return self._table

    def mask_table(self):
        """Boolean ``values == 0`` table, or ``None`` in mega-bank mode."""
        self.plan.freeze()
        if self._mask_table is None:
            domain = self.column.domain
            if self.trivial and domain is not None and domain <= self.plan.table_cap:
                self._mask_table = np.ones(domain, dtype=bool)
            elif self._table is not None:
                self._mask_table = self._table == 0
        return self._mask_table

    def values(self, ctx: "ChunkContext"):
        """Per-position hash values for the context's chunk."""
        return ctx.values(self)

    def mask(self, ctx: "ChunkContext"):
        """Per-position ``h(x) == 0`` membership mask for the chunk."""
        return ctx.mask(self)


class _Group:
    """Same-degree slots on one column, evaluated by a shared bank."""

    __slots__ = ("bank", "slots", "index")

    def __init__(self, bank, slots, index):
        self.bank = bank
        self.slots = slots
        # Stable id keying the group's reusable Horner output buffer.
        self.index = index


class EvalPlan:
    """The fused evaluation plan for one composite tree.

    Built by the tree root (``EstimateMaxCover``, a standalone
    ``Oracle``, or ``MaxCoverReporter``): the root creates the plan,
    passes it down through ``_register_plan`` hooks so every consumer
    registers its hash families, then calls :meth:`begin_chunk` once per
    chunk and hands the returned :class:`ChunkContext` to the planned
    ingest path.
    """

    def __init__(self, set_domain, elem_domain, table_cap=TABLE_DOMAIN_CAP):
        self.table_cap = int(table_cap)
        # Reusable per-chunk scratch (Horner output banks, tabulated
        # gathers, shared masks); buffers live for one chunk only --
        # see repro.engine.arena for the lifetime rules.
        self.arena = ScratchArena()
        self._columns: list[Column] = []
        self.sets = self._add_column("sets", set_domain)
        self.elems = self._add_column("elems", elem_domain)
        self._slots: list[Slot] = []
        self._by_key: dict = {}
        self._frozen = False
        self._group_of: dict[int, _Group] = {}

    # -- registration -------------------------------------------------------

    def _add_column(self, kind, domain, defining_slot=None) -> Column:
        column = Column(len(self._columns), kind, domain, defining_slot)
        self._columns.append(column)
        return column

    @staticmethod
    def _slot_key(column: Column, hash_: KWiseHash):
        if hash_.range_size == 1:
            # All range-1 polynomials compute the same constant-zero map,
            # so every trivial request on a column shares one slot.
            return (column.index, 1)
        return (
            column.index,
            hash_.range_size,
            hash_.degree,
            hash_._coeffs.tobytes(),
        )

    def request(self, column: Column, hash_: KWiseHash) -> Slot:
        """Register ``hash_`` against ``column``; dedupes identical families."""
        if self._frozen:
            raise RuntimeError("cannot register hashes on a frozen plan")
        key = self._slot_key(column, hash_)
        slot = self._by_key.get(key)
        if slot is None:
            slot = Slot(self, len(self._slots), column, hash_)
            self._slots.append(slot)
            self._by_key[key] = slot
        return slot

    def request_mask(self, column: Column, membership) -> Slot:
        """Register a :class:`SampledSet` (or raw hash) membership test."""
        if isinstance(membership, SampledSet):
            membership = membership._hash
        return self.request(column, membership)

    def derive(self, column: Column, hash_: KWiseHash):
        """Register ``hash_`` and return ``(derived_column, slot)``.

        The derived column's per-chunk values are the slot's values; its
        domain is the hash's range, so downstream tables stay tiny even
        when the parent universe is huge.
        """
        slot = self.request(column, hash_)
        if slot.derived_column is None:
            slot.derived_column = self._add_column(
                "derived", hash_.range_size, slot
            )
        return slot.derived_column, slot

    @property
    def slot_count(self) -> int:
        """Registered (post-dedupe) hash families."""
        return len(self._slots)

    # -- freeze: group, build tables ---------------------------------------

    def freeze(self) -> None:
        """Group slots into banks and build domain tables (idempotent)."""
        if self._frozen:
            return
        self._frozen = True
        profiling = PROFILER.enabled
        t0 = PROFILER.clock() if profiling else 0.0
        grouped: dict = {}
        for slot in self._slots:
            if slot.trivial:
                continue
            grouped.setdefault(
                (slot.column.index, slot.hash.degree), []
            ).append(slot)
        group_count = 0
        for (col_index, _degree), slots in grouped.items():
            column = self._columns[col_index]
            bank = KWiseHashBank([s.hash for s in slots])
            domain = column.domain
            if domain is not None and domain <= self.table_cap:
                # Domain tables outlive every chunk: regular
                # allocations, never arena scratch.
                rows = bank.eval_many(np.arange(domain, dtype=np.int64))
                for slot, row in zip(slots, rows):
                    slot._table = np.ascontiguousarray(row)
                self._mark_checked(column)
            else:
                group = _Group(bank, slots, group_count)
                group_count += 1
                for slot in slots:
                    self._group_of[slot.index] = group
        if profiling:
            PROFILER.add("plan-build", PROFILER.clock() - t0)

    def _mark_checked(self, column: Column) -> None:
        """Flag the raw ancestor whose values index a table directly."""
        while column.kind == "derived":
            # Derived values are hash outputs, always within range; only
            # the raw column they gather from needs validating.
            column = column.defining_slot.column
        column.needs_check = True

    # -- per-chunk entry ----------------------------------------------------

    def begin_chunk(self, set_ids, elements):
        """Open a :class:`ChunkContext`, or ``None`` when out of domain.

        Table gathers index directly by raw column values, so a chunk
        containing values outside the declared ``[0, domain)`` bounds
        (possible only for streams that violate the model's known-(m, n)
        assumption) is left to the caller's scalar reference loop.
        """
        self.freeze()
        if len(set_ids) and not self._in_domain(set_ids, elements):
            return None
        # Every downstream planned consumer reads the context's int64
        # columns, never the caller's arrays.
        return ChunkContext(
            self,
            np.asarray(set_ids, dtype=np.int64),
            np.asarray(elements, dtype=np.int64),
        )

    def _in_domain(self, set_ids, elements) -> bool:
        for column, data in ((self.sets, set_ids), (self.elems, elements)):
            if not column.needs_check:
                continue
            if int(data.min()) < 0 or int(data.max()) >= column.domain:
                return False
        return True


class ChunkContext:
    """Per-chunk memo of every hash evaluation, shared down the tree.

    One context is created per ``(chunk identity, slice bounds)`` by the
    composite root and threaded through the planned ingest calls; slot
    values and masks are cached by slot index, so however many consumers
    ask, each family is evaluated at most once per chunk -- and slots in
    mega-bank mode are filled as a whole group by one Horner pass.

    Returned arrays are shared between consumers: treat them as
    read-only.
    """

    __slots__ = ("plan", "set_ids", "elements", "length", "_values", "_masks", "_true")

    def __init__(self, plan: EvalPlan, set_ids, elements):
        self.plan = plan
        self.set_ids = set_ids
        self.elements = elements
        self.length = len(set_ids)
        self._values: dict = {}
        self._masks: dict = {}
        self._true = None

    def all_true(self):
        """Shared all-``True`` mask for rate-1 samplers."""
        if self._true is None:
            buffer = self.plan.arena.take("all-true", (self.length,), bool)
            buffer[:] = True
            self._true = buffer
        return self._true

    def column_values(self, column: Column):
        """Per-position values of a raw or derived column."""
        if column.kind == "sets":
            return self.set_ids
        if column.kind == "elems":
            return self.elements
        return self.values(column.defining_slot)

    def values(self, slot: Slot):
        """Memoised per-position values of ``slot`` on this chunk."""
        out = self._values.get(slot.index)
        if out is not None:
            return out
        if PROFILER.enabled:
            with PROFILER.span("hash-eval"):
                return self._values_slow(slot)
        return self._values_slow(slot)

    def _values_slow(self, slot: Slot):
        arena = self.plan.arena
        if slot.trivial:
            # One shared zero buffer serves every trivial slot: the
            # values are constant and consumers treat them read-only.
            out = arena.take("zeros", (self.length,))
            out[:] = 0
            self._values[slot.index] = out
        elif slot._table is not None:
            out = np.take(
                slot._table,
                self.column_values(slot.column),
                out=arena.take(("gather", slot.index), (self.length,)),
            )
            self._values[slot.index] = out
        else:
            out = self._eval_group(slot)
        return out

    def _eval_group(self, slot: Slot):
        """Fill every same-group slot from one mega-bank Horner pass."""
        group = self.plan._group_of[slot.index]
        xs = self.column_values(slot.column)
        out = self.plan.arena.take(
            ("bank", group.index), (len(group.slots), len(xs))
        )
        if PROFILER.enabled:
            with PROFILER.span("horner"):
                rows = group.bank.eval_many(xs, out=out)
        else:
            rows = group.bank.eval_many(xs, out=out)
        for member, row in zip(group.slots, rows):
            self._values.setdefault(member.index, row)
        return self._values[slot.index]

    def mask(self, slot: Slot):
        """Memoised ``h(x) == 0`` membership mask of ``slot``."""
        out = self._masks.get(slot.index)
        if out is not None:
            return out
        if slot.trivial:
            out = self.all_true()
        else:
            table = slot.mask_table()
            if table is not None:
                if PROFILER.enabled:
                    with PROFILER.span("hash-eval"):
                        out = self._mask_gather(slot, table)
                else:
                    out = self._mask_gather(slot, table)
            else:
                out = self.values(slot) == 0
        self._masks[slot.index] = out
        return out

    def _mask_gather(self, slot: Slot, table):
        return np.take(
            table,
            self.column_values(slot.column),
            out=self.plan.arena.take(
                ("gather-mask", slot.index), (self.length,), bool
            ),
        )
