//! LSM-style segmented indexes: a living corpus behind the static
//! query engines.
//!
//! Every serving path before this module assumed build-then-freeze:
//! streaming `insert` hashed one point at a time into a [`MapStore`]
//! and there was no delete at all. One LSM implementation,
//! [`LsmIndex`], restructures each shard as a small hierarchy over a
//! list of level builders — [`SegmentedIndex`] is its one-level rNNR
//! form, [`SegmentedTopKIndex`] its radius-schedule ladder:
//!
//! - a **memtable** — a mutable [`MapStore`]-backed index absorbing
//!   inserts one point at a time (buckets hold memtable-local rows; a
//!   side table maps rows to global ids and tracks row liveness);
//! - immutable **segments** — [`FrozenStore`] CSR arenas built from
//!   flushed memtables through the existing blocked pipeline, their
//!   buckets and sketches keyed by **global** ids exactly like shard
//!   tables;
//! - **tombstones** — per-segment sets of deleted global ids (a
//!   HyperLogLog sketch cannot retract an element, so segment deletion
//!   is logical until the next merge);
//! - **merges** — small segments compact into one clean segment (dead
//!   rows dropped, tombstones cleared) whenever a shard exceeds its
//!   segment budget, or on demand via [`SegmentedIndex::compact`].
//!
//! # Determinism contract
//!
//! Every memtable and segment is one part of the shared query core
//! ([`crate::part`]): queries union candidates across memtable +
//! segments minus tombstones, with S1 collision counts summed and S2
//! HLL registers max-merged across parts exactly as the sharded and
//! distributed merges do, so the Algorithm-2 arm decision is made
//! **once, globally** — and every answer is **byte-identical to an index
//! rebuilt from scratch on the surviving points**
//! ([`SegmentedIndex::build_bulk`] is that rebuild). The ingredients:
//!
//! 1. **Shared randomness** — every memtable and segment samples its
//!    g-functions and HLL hash from the same builder seed
//!    (data-independent), so a point collides with a query in a
//!    segment iff it would collide in the rebuilt index.
//! 2. **Global ids in the registers** — clean segments contribute
//!    their materialised sketches (hashed over global ids); dirty
//!    segments and the memtable contribute **raw global ids** with
//!    dead rows filtered out. Register-wise `max` is associative, so
//!    the merged registers equal the rebuild's bit for bit, and the
//!    estimate (a pure function of the registers) matches exactly.
//! 3. **Global decisions on a pinned cost model** — the cost model is
//!    resolved once at creation and never recalibrated (calibration is
//!    data-dependent; supply an explicit [`CostModel`] for a
//!    mutation-independent byte-identity guarantee), and `n` is the
//!    **live** point count, matching the rebuild's `n`.
//! 4. **Liveness invariant** — at most one *live* location per global
//!    id across all sources (inserts reject duplicates; deletes kill
//!    the single live location), so per-source dedup sums equal the
//!    rebuild's per-shard dedup counts and result ids never repeat.
//!
//! rNNR ids are reported ascending (the canonical sharded order);
//! top-k rankings are `(distance, id)` heaps whose content depends
//! only on the offered candidate *set*, which is preserved level by
//! level. `tests/mutable_props.rs` pins the contract across arbitrary
//! interleavings, shard counts, verify modes and flush timings; the
//! in-module tests pin the tombstone edge cases.
//!
//! Merges run synchronously inside mutating calls (amortised by the
//! segment budget): byte-identity makes merge *timing* unobservable to
//! queries, so a background thread would change nothing a test could
//! see — on the 1-CPU reference box it would only add locking.

use std::sync::Arc;

use hlsh_families::LshFamily;
use hlsh_hll::HllConfig;
use hlsh_vec::{DenseDataset, Distance, PointId, SubsetPointSet};

use crate::builder::IndexBuilder;
use crate::cost::CostModel;
use crate::hasher::{FxHashMap, FxHashSet};
use crate::index::HybridLshIndex;
use crate::part::{Ids, Ladder, Level, Part, PartQueryEngine, Parts};
use crate::report::QueryOutput;
use crate::schedule::RadiusSchedule;
use crate::search::Strategy;
use crate::sharded::ShardAssignment;
use crate::store::{FrozenStore, MapStore};
use crate::topk::{TopKEngine, TopKOutput};

/// Why an insert or delete was rejected. Mutations are all-or-nothing:
/// a rejected mutation leaves the index untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationError {
    /// Insert of a global id that is already live somewhere in the
    /// index (delete it first to replace its point).
    DuplicateId {
        /// The offending global id.
        id: PointId,
    },
    /// Delete of a global id that is not live anywhere (never
    /// inserted, or already deleted).
    UnknownId {
        /// The offending global id.
        id: PointId,
    },
    /// Inserted point's dimensionality differs from the index's.
    DimMismatch {
        /// The index dimensionality.
        expected: usize,
        /// The inserted point's dimensionality.
        got: usize,
    },
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::DuplicateId { id } => write!(f, "id {id} is already live in the index"),
            Self::UnknownId { id } => write!(f, "id {id} is not live in the index"),
            Self::DimMismatch { expected, got } => {
                write!(f, "point has dimension {got}, index expects {expected}")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// A memtable's row bookkeeping: memtable buckets hold local row
/// numbers; this maps rows to global ids and tracks which rows are
/// still live. Rows are append-only — a deleted or superseded row stays
/// in the buckets (and the slab) as a dead row filtered out at query
/// time, until the next flush drops it.
#[derive(Default)]
pub(crate) struct Rows {
    /// `ids[row] = global id` (including dead rows).
    pub(crate) ids: Vec<PointId>,
    /// `live[row]`: whether the row still represents its id.
    pub(crate) live: Vec<bool>,
    /// `global id → live row`; ids with only dead rows are absent.
    row_of: FxHashMap<PointId, u32>,
}

impl Rows {
    /// Kills `id`'s live row, if it has one.
    fn kill(&mut self, id: PointId) -> bool {
        match self.row_of.remove(&id) {
            Some(row) => {
                self.live[row as usize] = false;
                true
            }
            None => false,
        }
    }
}

/// A segment's id mapping plus its logical deletions. `ids` is
/// ascending, so local row `i` holds global id `ids[i]` and
/// global→local is a binary search.
pub(crate) struct SegMeta {
    pub(crate) ids: Vec<PointId>,
    pub(crate) tombstones: FxHashSet<PointId>,
}

impl SegMeta {
    /// Whether `id` is stored here and not tombstoned.
    fn contains_live(&self, id: PointId) -> bool {
        self.ids.binary_search(&id).is_ok() && !self.tombstones.contains(&id)
    }

    fn live_len(&self) -> usize {
        self.ids.len() - self.tombstones.len()
    }

    fn live_ids(&self) -> impl Iterator<Item = PointId> + '_ {
        self.ids.iter().copied().filter(|id| !self.tombstones.contains(id))
    }

    /// Whether any stored row is tombstoned (a dirty segment's sketches
    /// overcount, so queries fall back to raw-id contribution).
    pub(crate) fn is_dirty(&self) -> bool {
        !self.tombstones.is_empty()
    }
}

/// The mutable head of one shard: one [`MapStore`]-backed index per
/// level, each owning its own small copy of the memtable points
/// (memtables are small by construction). Buckets hold local rows and
/// are never sketched — local rows must not leak into merged registers;
/// queries contribute live global ids raw.
struct Memtable<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    levels: Vec<HybridLshIndex<DenseDataset, F, D, MapStore>>,
    rows: Rows,
}

/// One immutable segment: a frozen index per level over one shared
/// slab, buckets and sketches keyed by global ids, plus tombstones for
/// logical deletes.
struct Segment<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    data: Arc<DenseDataset>,
    levels: Vec<HybridLshIndex<Arc<DenseDataset>, F, D, FrozenStore>>,
    meta: SegMeta,
}

/// One shard's LSM hierarchy: the memtable plus its frozen segments.
struct LsmShard<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    mem: Memtable<F, D>,
    segments: Vec<Segment<F, D>>,
}

/// Default memtable rows (live + dead) that trigger a flush.
pub const DEFAULT_FLUSH_THRESHOLD: usize = 4096;
/// Default per-shard segment budget before merges kick in.
pub const DEFAULT_MAX_SEGMENTS: usize = 8;

/// An LSM-segmented index over a list of level builders that accepts
/// inserts and deletes while serving queries whose answers stay
/// byte-identical to a rebuild from scratch on the surviving points
/// (see the module docs for the contract).
///
/// Points are partitioned across shards by a [`ShardAssignment`] (so a
/// segmented index composes with the sharded serving layout); each
/// shard is an independent memtable + segment hierarchy. `L` names the
/// level list: `()` for the one-level rNNR [`SegmentedIndex`], the
/// [`RadiusSchedule`] for the top-k [`SegmentedTopKIndex`].
pub struct LsmIndex<F, D, L>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    shards: Vec<LsmShard<F, D>>,
    assignment: ShardAssignment,
    builders: Vec<IndexBuilder<F, D>>,
    costs: Vec<CostModel>,
    hll: Vec<HllConfig>,
    dim: usize,
    live: usize,
    flush_threshold: usize,
    max_segments: usize,
    ladder: L,
}

/// An rNNR index that accepts inserts and deletes: the one-level
/// [`LsmIndex`], queried through [`SegmentedQueryEngine`].
pub type SegmentedIndex<F, D> = LsmIndex<F, D, ()>;

/// A top-k index that accepts inserts and deletes while serving
/// `(distance, id)` rankings byte-identical to a ladder rebuilt from
/// scratch on the surviving points: the [`LsmIndex`] with one level per
/// schedule radius, walked by [`SegmentedTopKEngine`].
pub type SegmentedTopKIndex<F, D> = LsmIndex<F, D, RadiusSchedule>;

/// Reusable scratch for querying a [`SegmentedIndex`] (the shared
/// [`PartQueryEngine`]).
pub type SegmentedQueryEngine = PartQueryEngine;

/// Reusable scratch for top-k queries over a [`SegmentedTopKIndex`]
/// (the shared [`TopKEngine`]).
pub type SegmentedTopKEngine = TopKEngine;

impl<F, D, L> LsmIndex<F, D, L>
where
    F: LshFamily<[f32]> + Clone,
    F::GFn: Send,
    D: Distance<[f32]> + Clone,
{
    /// An empty index over `builders` (one per level). Each level's
    /// cost model is pinned here, once: the builder's explicit model if
    /// set, otherwise the empty-data default. Supply an explicit
    /// [`CostModel`] (via [`IndexBuilder::cost_model`]) when
    /// byte-identity against a rebuild matters — calibration is
    /// data-dependent, so a model calibrated at rebuild time could
    /// differ.
    ///
    /// # Panics
    /// Panics if `flush_threshold == 0` or `max_segments == 0`.
    fn with_builders(
        dim: usize,
        assignment: ShardAssignment,
        builders: Vec<IndexBuilder<F, D>>,
        (flush_threshold, max_segments): (usize, usize),
        ladder: L,
    ) -> Self {
        assert!(flush_threshold >= 1, "flush threshold must be at least 1");
        assert!(max_segments >= 1, "segment budget must be at least 1");
        let empty = DenseDataset::new(dim);
        let costs = builders.iter().map(|b| b.resolve_cost(&empty)).collect();
        let mut index = Self {
            shards: Vec::new(),
            assignment,
            builders,
            costs,
            hll: Vec::new(),
            dim,
            live: 0,
            flush_threshold,
            max_segments,
            ladder,
        };
        index.shards = (0..assignment.shards())
            .map(|_| LsmShard { mem: index.memtable(), segments: Vec::new() })
            .collect();
        index.hll = index.shards[0].mem.levels.iter().map(|l| l.hll_config()).collect();
        index
    }

    /// The rebuild-from-scratch oracle: one clean frozen segment per
    /// shard over the whole corpus, empty memtables; `ids[i]` is row
    /// `i`'s global id.
    ///
    /// # Panics
    /// Panics if `ids.len() != data.len()` or `ids` contains
    /// duplicates.
    fn bulk(mut self, data: DenseDataset, ids: &[PointId]) -> Self {
        assert_eq!(ids.len(), data.len(), "one id per data row");
        let mut seen = FxHashSet::default();
        for &id in ids {
            assert!(seen.insert(id), "duplicate id {id} in bulk build");
        }
        let mut per_shard: Vec<Vec<(PointId, u32)>> = vec![Vec::new(); self.assignment.shards()];
        for (row, &id) in ids.iter().enumerate() {
            per_shard[self.assignment.shard_of(id)].push((id, row as u32));
        }
        for (si, mut pairs) in per_shard.into_iter().enumerate() {
            if pairs.is_empty() {
                continue;
            }
            pairs.sort_unstable_by_key(|&(id, _)| id);
            let rows: Vec<PointId> = pairs.iter().map(|&(_, row)| row).collect();
            let seg_ids = pairs.iter().map(|&(id, _)| id).collect();
            let segment = self.segment(data.subset(&rows), seg_ids);
            self.shards[si].segments.push(segment);
        }
        self.live = data.len();
        self
    }

    /// A fresh memtable: one never-sketched map index per level.
    fn memtable(&self) -> Memtable<F, D> {
        let levels = self.builders.iter().zip(&self.costs).map(|(b, &cost)| {
            let b = b.clone().cost_model(cost).lazy_threshold(usize::MAX).sequential();
            b.build(DenseDataset::new(self.dim))
        });
        Memtable { levels: levels.collect(), rows: Rows::default() }
    }

    /// One clean segment over `data` whose row `i` carries global id
    /// `ids[i]` (ascending — the blocked pipeline's id-mapping hook
    /// requires it and the binary-search translation depends on it).
    fn segment(&self, data: DenseDataset, ids: Vec<PointId>) -> Segment<F, D> {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "segment ids must ascend");
        let data = Arc::new(data);
        let levels = self.builders.iter().zip(&self.costs).map(|(b, &cost)| {
            let b = b.clone().cost_model(cost).sequential();
            b.build_frozen_mapped(Arc::clone(&data), Some(&ids))
        });
        let levels = levels.collect();
        Segment { data, levels, meta: SegMeta { ids, tombstones: FxHashSet::default() } }
    }

    /// Merges segments into one clean segment (tombstoned rows
    /// dropped); `None` when nothing survives.
    fn merge(&self, segs: Vec<Segment<F, D>>) -> Option<Segment<F, D>> {
        let mut entries: Vec<(PointId, &[f32])> = Vec::new();
        for seg in &segs {
            let rows = seg.meta.ids.iter().enumerate();
            let live = rows.filter(|(_, id)| !seg.meta.tombstones.contains(id));
            entries.extend(live.map(|(local, &id)| (id, seg.data.row(local))));
        }
        if entries.is_empty() {
            return None;
        }
        entries.sort_unstable_by_key(|&(id, _)| id);
        let data = DenseDataset::from_rows(self.dim, entries.iter().map(|&(_, row)| row));
        Some(self.segment(data, entries.iter().map(|&(id, _)| id).collect()))
    }

    /// Inserts `point` under global id `id`.
    ///
    /// The point lands in every level of its shard's memtable; once the
    /// memtable reaches the flush threshold the shard flushes (and
    /// possibly merges) synchronously. Rejects ids that are already
    /// live and points of the wrong dimension, leaving the index
    /// untouched.
    pub fn insert(&mut self, id: PointId, point: &[f32]) -> Result<(), MutationError> {
        if point.len() != self.dim {
            return Err(MutationError::DimMismatch { expected: self.dim, got: point.len() });
        }
        if self.contains(id) {
            return Err(MutationError::DuplicateId { id });
        }
        let si = self.assignment.shard_of(id);
        let mem = &mut self.shards[si].mem;
        for level in &mut mem.levels {
            level.insert(point);
        }
        mem.rows.row_of.insert(id, mem.rows.ids.len() as u32);
        mem.rows.ids.push(id);
        mem.rows.live.push(true);
        self.live += 1;
        if mem.rows.ids.len() >= self.flush_threshold {
            self.flush_shard(si);
        }
        Ok(())
    }

    /// Deletes global id `id`: kills its memtable row in place, or
    /// tombstones it in the segment holding it live. Rejects ids that
    /// are not live (never inserted, or already deleted).
    pub fn delete(&mut self, id: PointId) -> Result<(), MutationError> {
        let shard = &mut self.shards[self.assignment.shard_of(id)];
        let found = shard.mem.rows.kill(id)
            || shard
                .segments
                .iter_mut()
                .any(|seg| seg.meta.contains_live(id) && seg.meta.tombstones.insert(id));
        if !found {
            return Err(MutationError::UnknownId { id });
        }
        self.live -= 1;
        Ok(())
    }

    /// Flushes shard `shard`'s memtable into a new frozen segment (dead
    /// rows dropped), then merges the two smallest segments while the
    /// shard exceeds its segment budget. A memtable with no live rows
    /// resets without producing a segment. Query answers are unchanged.
    pub fn flush_shard(&mut self, shard: usize) {
        let rows = &self.shards[shard].mem.rows;
        if !rows.row_of.is_empty() {
            let mut live: Vec<(PointId, u32)> = rows.row_of.iter().map(|(&i, &r)| (i, r)).collect();
            live.sort_unstable_by_key(|&(id, _)| id);
            let slab = self.shards[shard].mem.levels[0].data();
            let data =
                DenseDataset::from_rows(self.dim, live.iter().map(|&(_, r)| slab.row(r as usize)));
            let segment = self.segment(data, live.iter().map(|&(id, _)| id).collect());
            self.shards[shard].segments.push(segment);
        }
        if !self.shards[shard].mem.rows.ids.is_empty() {
            self.shards[shard].mem = self.memtable();
        }
        while self.shards[shard].segments.len() > self.max_segments {
            let segs = &mut self.shards[shard].segments;
            let mut order: Vec<usize> = (0..segs.len()).collect();
            order.sort_by_key(|&i| (segs[i].meta.live_len(), i));
            let (a, b) = (order[0].min(order[1]), order[0].max(order[1]));
            let pair = vec![segs.remove(a), segs.remove(b - 1)];
            if let Some(merged) = self.merge(pair) {
                self.shards[shard].segments.insert(a, merged);
            }
        }
    }

    /// Flushes every shard's memtable; see
    /// [`flush_shard`](Self::flush_shard).
    pub fn flush(&mut self) {
        for si in 0..self.shards.len() {
            self.flush_shard(si);
        }
    }

    /// Merges all of shard `shard`'s segments into one clean segment,
    /// dropping tombstoned rows. No-op when the shard already holds at
    /// most one clean segment. The memtable is untouched — flush first
    /// for a fully compacted shard.
    pub fn compact_shard(&mut self, shard: usize) {
        let segs = &mut self.shards[shard].segments;
        if segs.len() <= 1 && !segs.iter().any(|s| s.meta.is_dirty()) {
            return;
        }
        let segs = std::mem::take(segs);
        if let Some(merged) = self.merge(segs) {
            self.shards[shard].segments.push(merged);
        }
    }

    /// Compacts every shard; see
    /// [`compact_shard`](Self::compact_shard).
    pub fn compact(&mut self) {
        for si in 0..self.shards.len() {
            self.compact_shard(si);
        }
    }
}

impl<F, D, L> LsmIndex<F, D, L>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live points are indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The shard assignment in force.
    pub fn assignment(&self) -> ShardAssignment {
        self.assignment
    }

    /// Whether `id` is currently live.
    pub fn contains(&self, id: PointId) -> bool {
        let shard = &self.shards[self.assignment.shard_of(id)];
        shard.mem.rows.row_of.contains_key(&id)
            || shard.segments.iter().any(|s| s.meta.contains_live(id))
    }

    /// Per-shard frozen segment counts (instrumentation: shows flush
    /// and merge activity).
    pub fn segment_counts(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.segments.len()).collect()
    }

    /// All live global ids, ascending.
    pub fn live_ids(&self) -> Vec<PointId> {
        let mut ids = Vec::with_capacity(self.live);
        for sh in &self.shards {
            ids.extend(sh.mem.rows.row_of.keys().copied());
            ids.extend(sh.segments.iter().flat_map(|seg| seg.meta.live_ids()));
        }
        ids.sort_unstable();
        ids
    }
}

impl<F, D, L> Parts for LsmIndex<F, D, L>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    type Point = [f32];

    fn points(&self) -> usize {
        self.live
    }

    fn level(&self, li: usize) -> Level<'_, [f32]> {
        let mut parts = Vec::new();
        for sh in &self.shards {
            if !sh.mem.rows.row_of.is_empty() {
                let ids = Ids::Memtable(&sh.mem.rows);
                parts.push(Part { tables: &sh.mem.levels[li], ids });
            }
            for seg in &sh.segments {
                parts.push(Part { tables: &seg.levels[li], ids: Ids::Segment(&seg.meta) });
            }
        }
        Level { parts, hll: self.hll[li], cost: self.costs[li], n: self.live }
    }
}

impl<F, D> SegmentedIndex<F, D>
where
    F: LshFamily<[f32]> + Clone,
    F::GFn: Send,
    D: Distance<[f32]> + Clone,
{
    /// An empty segmented index for `dim`-dimensional points with the
    /// default flush threshold and segment budget; the cost model is
    /// pinned here, once (see [`LsmIndex`] on why an explicit model
    /// matters for byte-identity).
    pub fn new(dim: usize, assignment: ShardAssignment, builder: IndexBuilder<F, D>) -> Self {
        Self::with_limits(dim, assignment, builder, DEFAULT_FLUSH_THRESHOLD, DEFAULT_MAX_SEGMENTS)
    }

    /// [`new`](Self::new) with explicit LSM knobs: a shard flushes its
    /// memtable once it holds `flush_threshold` rows (live + dead),
    /// and merges segments whenever it exceeds `max_segments`.
    ///
    /// Neither knob affects query answers — only when work happens.
    ///
    /// # Panics
    /// Panics if `flush_threshold == 0` or `max_segments == 0`.
    pub fn with_limits(
        dim: usize,
        assignment: ShardAssignment,
        builder: IndexBuilder<F, D>,
        flush_threshold: usize,
        max_segments: usize,
    ) -> Self {
        Self::with_builders(dim, assignment, vec![builder], (flush_threshold, max_segments), ())
    }

    /// Builds the index over a whole corpus at once: one clean frozen
    /// segment per shard, empty memtables. This is the
    /// rebuild-from-scratch oracle the mutation paths are pinned
    /// against — `ids[i]` is row `i`'s global id.
    ///
    /// # Panics
    /// Panics if `ids.len() != data.len()` or `ids` contains
    /// duplicates.
    pub fn build_bulk(
        data: DenseDataset,
        ids: &[PointId],
        assignment: ShardAssignment,
        builder: IndexBuilder<F, D>,
    ) -> Self {
        Self::new(data.dim(), assignment, builder).bulk(data, ids)
    }
}

impl<F, D> SegmentedIndex<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// The cost model pinned at creation, shared by every part.
    pub fn cost_model(&self) -> CostModel {
        self.costs[0]
    }

    /// The HLL configuration shared by every part's buckets.
    pub fn hll_config(&self) -> HllConfig {
        self.hll[0]
    }

    /// Hybrid query with fresh scratch; batch workloads should reuse a
    /// [`SegmentedQueryEngine`].
    pub fn query(&self, q: &[f32], r: f64) -> QueryOutput {
        SegmentedQueryEngine::new().query(self, q, r)
    }

    /// Runs a query under an explicit strategy; see
    /// [`PartQueryEngine::query_with_strategy`].
    pub fn query_with_strategy(&self, q: &[f32], r: f64, strategy: Strategy) -> QueryOutput {
        SegmentedQueryEngine::new().query_with_strategy(self, q, r, strategy)
    }
}

impl<F, D> SegmentedTopKIndex<F, D>
where
    F: LshFamily<[f32]> + Clone,
    F::GFn: Send,
    D: Distance<[f32]> + Clone,
{
    /// An empty segmented ladder with the default LSM knobs.
    /// `level_builder(level, radius)` configures each level exactly as
    /// for [`TopKIndex::build`](crate::topk::TopKIndex::build); each
    /// level's cost model is pinned at creation.
    pub fn new(
        dim: usize,
        assignment: ShardAssignment,
        schedule: RadiusSchedule,
        level_builder: impl Fn(usize, f64) -> IndexBuilder<F, D>,
    ) -> Self {
        let limits = (DEFAULT_FLUSH_THRESHOLD, DEFAULT_MAX_SEGMENTS);
        Self::with_limits(dim, assignment, schedule, level_builder, limits.0, limits.1)
    }

    /// [`new`](Self::new) with explicit flush threshold and per-shard
    /// segment budget; neither affects query answers.
    ///
    /// # Panics
    /// Panics if `flush_threshold == 0` or `max_segments == 0`.
    pub fn with_limits(
        dim: usize,
        assignment: ShardAssignment,
        schedule: RadiusSchedule,
        level_builder: impl Fn(usize, f64) -> IndexBuilder<F, D>,
        flush_threshold: usize,
        max_segments: usize,
    ) -> Self {
        let builders = schedule.radii().enumerate().map(|(li, r)| level_builder(li, r)).collect();
        Self::with_builders(dim, assignment, builders, (flush_threshold, max_segments), schedule)
    }

    /// Builds the ladder over a whole corpus at once: one clean frozen
    /// segment per shard, empty memtables — the rebuild oracle.
    ///
    /// # Panics
    /// Panics if `ids.len() != data.len()` or `ids` contains
    /// duplicates.
    pub fn build_bulk(
        data: DenseDataset,
        ids: &[PointId],
        assignment: ShardAssignment,
        schedule: RadiusSchedule,
        level_builder: impl Fn(usize, f64) -> IndexBuilder<F, D>,
    ) -> Self {
        Self::new(data.dim(), assignment, schedule, level_builder).bulk(data, ids)
    }
}

impl<F, D> SegmentedTopKIndex<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// The radius schedule shared by every segment and memtable.
    pub fn schedule(&self) -> RadiusSchedule {
        self.ladder
    }

    /// Answers one top-k query with fresh scratch.
    pub fn query_topk(&self, q: &[f32], k: usize) -> TopKOutput {
        SegmentedTopKEngine::new().query_topk(self, q, k)
    }
}

impl<F, D> Ladder for SegmentedTopKIndex<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    fn ladder(&self) -> RadiusSchedule {
        self.ladder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::VerifyMode;
    use crate::sharded::{ShardedIndex, ShardedTopKIndex};
    use hlsh_families::PStableL2;
    use hlsh_vec::L2;

    const DIM: usize = 2;

    /// Deterministic point for a global id, so oracles can regenerate
    /// any surviving subset from ids alone.
    fn point(id: PointId) -> [f32; DIM] {
        [(id % 17) as f32, (id / 17) as f32 * 0.5]
    }

    fn builder() -> IndexBuilder<PStableL2, L2> {
        IndexBuilder::new(PStableL2::new(DIM, 2.0), L2)
            .tables(8)
            .hash_len(4)
            .seed(11)
            .cost_model(CostModel::from_ratio(4.0))
    }

    fn dataset(ids: &[PointId]) -> DenseDataset {
        DenseDataset::from_rows(DIM, ids.iter().map(|&id| point(id)))
    }

    fn rebuild(index: &SegmentedIndex<PStableL2, L2>) -> SegmentedIndex<PStableL2, L2> {
        let ids = index.live_ids();
        SegmentedIndex::build_bulk(dataset(&ids), &ids, index.assignment(), builder())
    }

    /// Asserts byte-identity of outputs *and* decision-relevant report
    /// fields between the mutated index and its rebuild oracle, across
    /// strategies and verify modes.
    fn assert_matches_oracle(index: &SegmentedIndex<PStableL2, L2>, context: &str) {
        let oracle = rebuild(index);
        assert_eq!(index.len(), oracle.len(), "{context}: live count");
        for (qi, r) in [(0 as PointId, 1.0), (140, 2.5), (299, 0.2), (7, 5.0)] {
            let q = point(qi);
            for strategy in Strategy::ALL {
                for verify in [VerifyMode::Kernel, VerifyMode::Scalar] {
                    let mut engine = SegmentedQueryEngine::with_verify_mode(verify);
                    let got = engine.query_with_strategy(index, &q, r, strategy);
                    let mut oracle_engine = SegmentedQueryEngine::with_verify_mode(verify);
                    let want = oracle_engine.query_with_strategy(&oracle, &q, r, strategy);
                    let tag = format!("{context} q={qi} r={r} {strategy} {verify:?}");
                    assert_eq!(got.ids, want.ids, "{tag}: ids");
                    assert_eq!(got.report.executed, want.report.executed, "{tag}: arm");
                    assert_eq!(got.report.collisions, want.report.collisions, "{tag}: S1");
                    assert_eq!(
                        got.report.cand_size_estimate.to_bits(),
                        want.report.cand_size_estimate.to_bits(),
                        "{tag}: S2"
                    );
                    assert_eq!(
                        got.report.cand_size_actual, want.report.cand_size_actual,
                        "{tag}: distinct"
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_build_matches_sharded_reference() {
        // Grounds the rebuild oracle itself: on dense ids 0..n the
        // segmented bulk build must reproduce the (already pinned)
        // sharded index bit for bit — ids, arm, S1 and S2.
        let n = 300;
        let ids: Vec<PointId> = (0..n as PointId).collect();
        let data = dataset(&ids);
        for shards in [1usize, 3] {
            let assignment = ShardAssignment::new(5, shards);
            let sharded = ShardedIndex::build(data.clone(), assignment, builder());
            let segmented = SegmentedIndex::build_bulk(data.clone(), &ids, assignment, builder());
            assert_eq!(segmented.len(), n);
            for (qi, r) in [(0 as PointId, 1.0), (140, 2.5), (299, 0.2)] {
                let q = point(qi);
                for strategy in Strategy::ALL {
                    let want = sharded.query_with_strategy(&q, r, strategy);
                    let got = segmented.query_with_strategy(&q, r, strategy);
                    let tag = format!("shards={shards} q={qi} r={r} {strategy}");
                    assert_eq!(got.ids, want.ids, "{tag}");
                    assert_eq!(got.report.executed, want.report.executed, "{tag}: arm");
                    assert_eq!(got.report.collisions, want.report.collisions, "{tag}: S1");
                    assert_eq!(
                        got.report.cand_size_estimate.to_bits(),
                        want.report.cand_size_estimate.to_bits(),
                        "{tag}: S2"
                    );
                }
            }
        }
    }

    #[test]
    fn insert_rejects_dim_mismatch_and_duplicates() {
        let mut index = SegmentedIndex::new(DIM, ShardAssignment::new(1, 2), builder());
        assert_eq!(
            index.insert(0, &[1.0, 2.0, 3.0]),
            Err(MutationError::DimMismatch { expected: DIM, got: 3 })
        );
        index.insert(7, &point(7)).unwrap();
        // Duplicate against the unflushed memtable...
        assert_eq!(index.insert(7, &point(7)), Err(MutationError::DuplicateId { id: 7 }));
        index.flush();
        // ...and against a frozen segment.
        assert_eq!(index.insert(7, &point(7)), Err(MutationError::DuplicateId { id: 7 }));
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn delete_of_nonexistent_id_errors() {
        let mut index = SegmentedIndex::new(DIM, ShardAssignment::new(1, 2), builder());
        index.insert(3, &point(3)).unwrap();
        assert_eq!(index.delete(99), Err(MutationError::UnknownId { id: 99 }));
        assert_eq!(index.len(), 1);
        assert_matches_oracle(&index, "after rejected delete");
    }

    #[test]
    fn duplicate_delete_errors() {
        let mut index = SegmentedIndex::new(DIM, ShardAssignment::new(1, 2), builder());
        for id in 0..20 {
            index.insert(id, &point(id)).unwrap();
        }
        index.flush();
        index.delete(5).unwrap();
        // Second delete of a tombstoned segment id fails...
        assert_eq!(index.delete(5), Err(MutationError::UnknownId { id: 5 }));
        // ...as does a duplicate delete in the memtable.
        index.insert(100, &point(100)).unwrap();
        index.delete(100).unwrap();
        assert_eq!(index.delete(100), Err(MutationError::UnknownId { id: 100 }));
        assert_eq!(index.len(), 19);
        assert_matches_oracle(&index, "after duplicate deletes");
    }

    #[test]
    fn delete_in_unflushed_memtable_matches_oracle() {
        // Never flush: deletes land on memtable rows in place.
        let mut index =
            SegmentedIndex::with_limits(DIM, ShardAssignment::new(2, 2), builder(), usize::MAX, 8);
        for id in 0..120 {
            index.insert(id, &point(id)).unwrap();
        }
        for id in (0..120).step_by(3) {
            index.delete(id).unwrap();
        }
        assert_eq!(index.segment_counts(), vec![0, 0], "nothing flushed");
        assert_eq!(index.len(), 80);
        assert_matches_oracle(&index, "memtable deletes");
    }

    #[test]
    fn delete_then_reinsert_matches_oracle() {
        let mut index = SegmentedIndex::new(DIM, ShardAssignment::new(3, 2), builder());
        for id in 0..100 {
            index.insert(id, &point(id)).unwrap();
        }
        index.flush();
        // Tombstone a segment id, then reinsert it (lands in the
        // memtable; the segment row stays dead).
        index.delete(42).unwrap();
        index.insert(42, &point(42)).unwrap();
        // Kill a memtable row and reinsert: the dead row stays in the
        // buckets, the live row is appended after it.
        index.insert(200, &point(200)).unwrap();
        index.delete(200).unwrap();
        index.insert(200, &point(200)).unwrap();
        assert_eq!(index.len(), 101);
        assert_matches_oracle(&index, "delete then reinsert");
    }

    #[test]
    fn query_mid_merge_matches_oracle() {
        // Flush-after-every-insert produces many tiny segments and
        // exercises the merge path; queries issued between partial
        // compactions (one shard compacted, the other not) must match
        // the oracle at every step.
        let mut index =
            SegmentedIndex::with_limits(DIM, ShardAssignment::new(7, 2), builder(), 1, 4);
        for id in 0..90 {
            index.insert(id, &point(id)).unwrap();
        }
        assert!(
            index.segment_counts().iter().all(|&c| c <= 4),
            "budget enforced: {:?}",
            index.segment_counts()
        );
        for id in (0..90).step_by(4) {
            index.delete(id).unwrap();
        }
        assert_matches_oracle(&index, "pre-compact");
        index.compact_shard(0);
        assert_matches_oracle(&index, "mid-merge (shard 0 compacted)");
        index.compact();
        assert_eq!(index.segment_counts(), vec![1, 1], "fully compacted");
        assert_matches_oracle(&index, "post-compact");
    }

    #[test]
    fn empty_and_emptied_indexes_answer_cleanly() {
        let index = SegmentedIndex::new(DIM, ShardAssignment::new(1, 2), builder());
        assert!(index.is_empty());
        assert!(index.query(&point(0), 2.0).ids.is_empty());
        let mut index = SegmentedIndex::new(DIM, ShardAssignment::new(1, 2), builder());
        for id in 0..10 {
            index.insert(id, &point(id)).unwrap();
        }
        index.flush();
        for id in 0..10 {
            index.delete(id).unwrap();
        }
        assert!(index.is_empty());
        assert!(index.query(&point(0), 100.0).ids.is_empty());
        assert!(index.live_ids().is_empty());
        index.compact();
        assert_eq!(index.segment_counts(), vec![0, 0], "all-dead segments vanish");
    }

    // -- top-k ------------------------------------------------------

    fn level_builder(_li: usize, r: f64) -> IndexBuilder<PStableL2, L2> {
        IndexBuilder::new(PStableL2::new(DIM, 2.0 * r), L2)
            .tables(8)
            .hash_len(4)
            .seed(7)
            .cost_model(CostModel::from_ratio(4.0))
    }

    fn schedule() -> RadiusSchedule {
        RadiusSchedule::doubling(0.8, 4)
    }

    fn rebuild_topk(
        index: &SegmentedTopKIndex<PStableL2, L2>,
    ) -> SegmentedTopKIndex<PStableL2, L2> {
        let ids = index.live_ids();
        SegmentedTopKIndex::build_bulk(
            dataset(&ids),
            &ids,
            index.assignment(),
            index.schedule(),
            level_builder,
        )
    }

    fn assert_topk_matches_oracle(index: &SegmentedTopKIndex<PStableL2, L2>, context: &str) {
        let oracle = rebuild_topk(index);
        for qi in [0 as PointId, 31, 124, 249] {
            let q = point(qi);
            for k in [1usize, 7, 1000] {
                for verify in [VerifyMode::Kernel, VerifyMode::Scalar] {
                    let got =
                        SegmentedTopKEngine::with_verify_mode(verify).query_topk(index, &q, k);
                    let want =
                        SegmentedTopKEngine::with_verify_mode(verify).query_topk(&oracle, &q, k);
                    assert_eq!(got, want, "{context} q={qi} k={k} {verify:?}");
                }
            }
        }
    }

    #[test]
    fn bulk_topk_matches_sharded_reference() {
        let n = 250;
        let ids: Vec<PointId> = (0..n as PointId).collect();
        let data = dataset(&ids);
        for shards in [1usize, 4] {
            let assignment = ShardAssignment::new(3, shards);
            let sharded =
                ShardedTopKIndex::build(data.clone(), assignment, schedule(), level_builder);
            let segmented = SegmentedTopKIndex::build_bulk(
                data.clone(),
                &ids,
                assignment,
                schedule(),
                level_builder,
            );
            for qi in (0..n as PointId).step_by(31) {
                let q = point(qi);
                let want = sharded.query_topk(&q, 7);
                let got = segmented.query_topk(&q, 7);
                assert_eq!(got, want, "shards={shards} q={qi}");
            }
        }
    }

    #[test]
    fn topk_mutations_match_rebuild() {
        let mut index = SegmentedTopKIndex::with_limits(
            DIM,
            ShardAssignment::new(9, 2),
            schedule(),
            level_builder,
            40,
            3,
        );
        for id in 0..150 {
            index.insert(id, &point(id)).unwrap();
        }
        for id in (0..150).step_by(5) {
            index.delete(id).unwrap();
        }
        assert_topk_matches_oracle(&index, "after churn");
        // Reinsert a tombstoned id and a memtable-killed id.
        index.insert(0, &point(0)).unwrap();
        assert_eq!(index.insert(0, &point(0)), Err(MutationError::DuplicateId { id: 0 }));
        assert_eq!(index.delete(5), Err(MutationError::UnknownId { id: 5 }));
        index.compact_shard(0);
        assert_topk_matches_oracle(&index, "mid-merge");
        index.flush();
        index.compact();
        assert_topk_matches_oracle(&index, "post-compact");
        // Drain to empty: top-k on an empty ladder returns nothing.
        for id in index.live_ids() {
            index.delete(id).unwrap();
        }
        assert!(index.query_topk(&point(0), 5).neighbors.is_empty());
    }
}
