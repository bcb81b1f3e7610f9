//! Sharded indexes: partition the data across `N` independent indexes
//! and answer queries by merging per-shard outputs.
//!
//! The hybrid rNNR design partitions cleanly: per-shard candidate sets
//! union to exactly the unsharded candidate set, and per-shard
//! HyperLogLog sketches merge losslessly (registers are element-wise
//! maxima). Two properties make the merge *byte-identical* to an
//! unsharded index over the same data, not merely equivalent in
//! expectation:
//!
//! 1. **Shared randomness, global ids** — every shard samples its
//!    g-functions and HLL hash from the same builder seed, so a point
//!    hashes to the same bucket key in its shard as it would in the
//!    unsharded index; and shard tables store the points' **global**
//!    ids (the build pipeline's id-mapping hook), so bucket members
//!    *and sketch element hashes* are exactly the global bucket
//!    restricted to the shard's points. Without global ids the merged
//!    registers would encode local row numbers and shard-count-
//!    dependent estimates would leak into the walk's decisions.
//! 2. **Global decisions** — each shard is one *part* of the shared
//!    query core ([`crate::part`]): Algorithm 2's cost comparison and
//!    the top-k walk's skip/early-exit decisions run once per query on
//!    the *merged* statistics (summed collision counts, one
//!    accumulator over every shard's probed sketches, the global `n`,
//!    and a cost model calibrated once on the full data), never
//!    per-shard. Merged registers equal the unsharded registers, so
//!    every decision matches the unsharded walk bit for bit.
//!
//! With both in place, [`ShardedIndex`] reports exactly the unsharded
//! result set (ids canonically sorted ascending — the shard merge's
//! natural order; the unsharded LSH arm's first-collision order is not
//! meaningful across shards), and [`ShardedTopKIndex`] produces
//! byte-identical `(distance, id)` rankings and reports, because a
//! bounded heap's content depends only on the *set* of offered
//! candidates, which is preserved level by level. `tests/
//! sharded_props.rs` pins both contracts across shard counts, storage
//! backends and verify modes.
//!
//! Shards are built in parallel (one worker per shard via
//! [`hlsh_vec::parallel::par_map_with`], each running the blocked build
//! pipeline) and hold disjoint copies of their rows, so the total
//! resident data equals the unsharded index and each shard is a
//! self-contained unit ready to migrate to another machine.

use hlsh_families::LshFamily;
use hlsh_hll::hash::splitmix64;
use hlsh_vec::parallel::par_map_with;
use hlsh_vec::{Distance, PointId, PointSet, SubsetPointSet};

use crate::builder::IndexBuilder;
use crate::cost::CostModel;
use crate::index::HybridLshIndex;
use crate::part::{
    query_batch, Ids, Ladder, Level, Part, PartBatch, PartQueryEngine, Parts, Scratch, Tables,
};
use crate::report::QueryOutput;
use crate::schedule::RadiusSchedule;
use crate::search::Strategy;
use crate::store::{BucketStore, FrozenStore, MapStore};
use crate::topk::{topk_batch, TopKEngine, TopKIndex, TopKOutput};

/// Deterministic seeded assignment of global point ids to shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardAssignment {
    seed: u64,
    shards: usize,
}

impl ShardAssignment {
    /// An assignment of points to `shards` shards, mixed by `seed`.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(seed: u64, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        Self { seed, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The assignment seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard owning global point `id` — a pure function of
    /// `(seed, shards, id)`, so any party can recompute placements.
    #[inline]
    pub fn shard_of(&self, id: PointId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        (splitmix64(self.seed ^ 0x5348_4152_4431_5458 ^ id as u64) % self.shards as u64) as usize
    }

    /// Partitions ids `0..n` into per-shard owner lists; list `s` holds
    /// shard `s`'s global ids in ascending order (which is also each
    /// shard's local insertion order).
    pub fn partition(&self, n: usize) -> Vec<Vec<PointId>> {
        let mut owners: Vec<Vec<PointId>> = vec![Vec::new(); self.shards];
        for id in 0..n {
            owners[self.shard_of(id as PointId)].push(id as PointId);
        }
        owners
    }
}

/// Where every global id lives: the per-shard owner lists and their
/// inverse, shared by the rNNR and top-k sharded indexes.
struct ShardLayout {
    /// `owners[s][local] = global` (ascending per shard).
    owners: Vec<Vec<PointId>>,
    /// `local_of[global] = local` (the shard is implied by the
    /// assignment); translates global bucket members to rows of their
    /// shard's slab for verification.
    local_of: Vec<PointId>,
    assignment: ShardAssignment,
    n: usize,
}

impl ShardLayout {
    fn new(assignment: ShardAssignment, n: usize) -> Self {
        Self::from_owners(assignment.partition(n), assignment, n)
    }

    /// The layout of persisted owner lists; `local_of` is recomputed,
    /// the one direction that is always consistent.
    ///
    /// # Panics
    /// Panics if the owner lists do not match the assignment or do not
    /// cover `0..n`, or if `sizes` (the shard sizes) disagree with them.
    fn checked(
        owners: Vec<Vec<PointId>>,
        assignment: ShardAssignment,
        n: usize,
        sizes: impl Iterator<Item = usize>,
    ) -> Self {
        assert_eq!(owners.len(), assignment.shards(), "one owner list per assignment shard");
        assert_eq!(owners.iter().map(Vec::len).sum::<usize>(), n, "owner lists must cover 0..n");
        for (size, ids) in sizes.zip(&owners) {
            assert_eq!(size, ids.len(), "shard size must match its owner list");
            assert!(ids.iter().all(|&g| (g as usize) < n), "owner id out of range");
        }
        Self::from_owners(owners, assignment, n)
    }

    fn from_owners(owners: Vec<Vec<PointId>>, assignment: ShardAssignment, n: usize) -> Self {
        let mut local_of = vec![0 as PointId; n];
        for ids in &owners {
            for (local, &global) in ids.iter().enumerate() {
                local_of[global as usize] = local as PointId;
            }
        }
        Self { owners, local_of, assignment, n }
    }

    /// Shard `s`'s part over `tables` (one of the shard's indexes).
    fn part<'a, P: ?Sized>(&'a self, s: usize, tables: &'a dyn Tables<P>) -> Part<'a, P> {
        Part { tables, ids: Ids::Owned { owners: &self.owners[s], local_of: &self.local_of } }
    }

    /// Builds one shard per owner list in parallel (one worker each):
    /// `build_one(shard, rows, sequential)` gets the shard's subset of
    /// `data` and whether nested table-parallelism should be off (it
    /// is pointless once shards already fan out).
    fn build<S, T>(&self, data: S, build_one: impl Fn(usize, S, bool) -> T + Sync) -> Vec<T>
    where
        S: SubsetPointSet + Sync,
        T: Send,
    {
        let sequential = self.owners.len() > 1;
        let shards = par_map_with(
            self.owners.len(),
            None,
            || (),
            |_, si| build_one(si, data.subset(&self.owners[si]), sequential),
        );
        drop(data);
        shards
    }
}

/// An rNNR index partitioned across `N` shards; see the module docs for
/// the byte-identity contract.
pub struct ShardedIndex<S, F, D, B = MapStore>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    shards: Vec<HybridLshIndex<S, F, D, B>>,
    layout: ShardLayout,
}

impl<S, F, D> ShardedIndex<S, F, D, MapStore>
where
    S: SubsetPointSet + Send + Sync,
    F: LshFamily<S::Point>,
    F::GFn: Send,
    D: Distance<S::Point>,
{
    /// Partitions `data` per `assignment` and builds one index per
    /// shard — in parallel, each through the blocked build pipeline.
    ///
    /// The cost model is resolved **once on the full data** (explicit
    /// model or one calibration) and shared by every shard; the builder
    /// seed is shared too, so all shards sample identical g-functions.
    /// Consumes `data`: after the per-shard copies are cut, the
    /// original is dropped, keeping resident memory at one copy.
    pub fn build(data: S, assignment: ShardAssignment, builder: IndexBuilder<F, D>) -> Self {
        Self::build_each(data, assignment, builder, |b, sub, ids| b.build_mapped(sub, Some(ids)))
    }

    /// Converts every shard to the read-optimised [`FrozenStore`];
    /// query results are byte-identical before and after.
    pub fn freeze(self) -> ShardedIndex<S, F, D, FrozenStore> {
        let shards = self.shards.into_iter().map(HybridLshIndex::freeze).collect();
        ShardedIndex { shards, layout: self.layout }
    }
}

impl<S, F, D> ShardedIndex<S, F, D, FrozenStore>
where
    S: SubsetPointSet + Send + Sync,
    F: LshFamily<S::Point>,
    F::GFn: Send,
    D: Distance<S::Point>,
{
    /// Like [`ShardedIndex::build`] but every shard's tables are laid
    /// out directly as frozen CSR arenas (no intermediate hashmaps).
    pub fn build_frozen(data: S, assignment: ShardAssignment, builder: IndexBuilder<F, D>) -> Self {
        Self::build_each(data, assignment, builder, |b, sub, ids| {
            b.build_frozen_mapped(sub, Some(ids))
        })
    }

    /// Converts every shard back to the mutable [`MapStore`] backend.
    pub fn thaw(self) -> ShardedIndex<S, F, D, MapStore> {
        let shards = self.shards.into_iter().map(HybridLshIndex::thaw).collect();
        ShardedIndex { shards, layout: self.layout }
    }

    /// Reassembles a sharded index from already-built shards and their
    /// persisted owner lists — the snapshot loader's entry point.
    ///
    /// # Panics
    /// Panics if the shapes disagree: shard count vs assignment, owner
    /// list lengths vs shard sizes, or owner ids out of `0..n`.
    pub(crate) fn assemble(
        shards: Vec<HybridLshIndex<S, F, D, FrozenStore>>,
        owners: Vec<Vec<PointId>>,
        assignment: ShardAssignment,
        n: usize,
    ) -> Self {
        assert_eq!(shards.len(), assignment.shards(), "one shard index per assignment shard");
        let layout = ShardLayout::checked(owners, assignment, n, shards.iter().map(|s| s.len()));
        Self { shards, layout }
    }
}

impl<S, F, D, B> ShardedIndex<S, F, D, B>
where
    S: SubsetPointSet + Send + Sync,
    F: LshFamily<S::Point>,
    F::GFn: Send,
    D: Distance<S::Point>,
    B: BucketStore,
{
    /// Shared shard-construction scaffold: partition, resolve the
    /// global cost model, cut each shard's subset inside its worker and
    /// build it there.
    fn build_each(
        data: S,
        assignment: ShardAssignment,
        builder: IndexBuilder<F, D>,
        build_one: impl Fn(IndexBuilder<F, D>, S, &[PointId]) -> HybridLshIndex<S, F, D, B> + Sync,
    ) -> Self
    where
        HybridLshIndex<S, F, D, B>: Send,
    {
        let layout = ShardLayout::new(assignment, data.len());
        let cost = builder.resolve_cost(&data);
        let builder = builder.cost_model(cost);
        let shards = layout.build(data, |si, sub, sequential| {
            let b = if sequential { builder.clone().sequential() } else { builder.clone() };
            build_one(b, sub, &layout.owners[si])
        });
        Self { shards, layout }
    }
}

impl<S, F, D, B> ShardedIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    /// Total indexed points across all shards.
    pub fn len(&self) -> usize {
        self.layout.n
    }

    /// Whether no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.layout.n == 0
    }

    /// The shard assignment in force.
    pub fn assignment(&self) -> ShardAssignment {
        self.layout.assignment
    }

    /// The per-shard indexes. **Caution:** shard tables store *global*
    /// ids (so sketches merge byte-identically with the unsharded
    /// index), which do not index the shard's own data slab — query
    /// them through the sharded engines, never directly.
    pub fn shards(&self) -> &[HybridLshIndex<S, F, D, B>] {
        &self.shards
    }

    /// Shard `s`'s global ids, ascending (`owners[local] = global`).
    pub fn global_ids(&self, shard: usize) -> &[PointId] {
        &self.layout.owners[shard]
    }

    /// Hybrid query (Algorithm 2 with a global decision); allocates
    /// fresh scratch. Batch workloads should prefer
    /// [`query_batch`](Self::query_batch) or a reused
    /// [`ShardedQueryEngine`].
    pub fn query(&self, q: &S::Point, r: f64) -> QueryOutput {
        ShardedQueryEngine::new().query(self, q, r)
    }

    /// Runs a query under an explicit strategy; see
    /// [`PartQueryEngine::query_with_strategy`].
    pub fn query_with_strategy(&self, q: &S::Point, r: f64, strategy: Strategy) -> QueryOutput {
        ShardedQueryEngine::new().query_with_strategy(self, q, r, strategy)
    }

    /// The HLL configuration shared by every shard's buckets.
    pub fn hll_config(&self) -> hlsh_hll::HllConfig {
        self.shards[0].hll_config()
    }

    /// The cost model shared by every shard (resolved once on the full
    /// data at build time).
    pub fn cost_model(&self) -> CostModel {
        self.shards[0].cost_model()
    }

    /// One shard's S1/S2 summary for one query: probe the shard's
    /// tables, sum the bucket sizes, merge the probed sketches.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard_summary(&self, shard: usize, q: &S::Point) -> ShardSummary {
        let part = self.layout.part(shard, &self.shards[shard]);
        part.summary(q, self.hll_config(), &mut Scratch::default())
    }

    /// One shard's chosen-arm execution for one query: the LSH arm
    /// (probe → dedup global members → batched kernel verification) or
    /// the linear arm (full shard scan), either way returning the
    /// shard's **global** ids within `r`, ascending.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard_arm(&self, shard: usize, q: &S::Point, r: f64, lsh: bool) -> Vec<PointId> {
        let part = self.layout.part(shard, &self.shards[shard]);
        part.arm_ids(q, r, lsh, &mut Scratch::default())
    }
}

impl<S, F, D, B> ShardedIndex<S, F, D, B>
where
    S: PointSet + Sync,
    F: LshFamily<S::Point> + Sync,
    F::GFn: Sync,
    D: Distance<S::Point> + Sync,
    B: BucketStore + Sync,
{
    /// Answers a batch of hybrid queries, sharded across all available
    /// cores (each query still fans over every index shard). Outputs
    /// are in input order, ids ascending per query.
    pub fn query_batch<Q>(&self, queries: &[Q], r: f64) -> Vec<QueryOutput>
    where
        Q: AsRef<S::Point> + Sync,
    {
        self.query_batch_with_strategy(queries, r, Strategy::Hybrid, None)
    }

    /// Batch querying under an explicit strategy and optional thread
    /// count (`None` = all available cores).
    pub fn query_batch_with_strategy<Q>(
        &self,
        queries: &[Q],
        r: f64,
        strategy: Strategy,
        threads: Option<usize>,
    ) -> Vec<QueryOutput>
    where
        Q: AsRef<S::Point> + Sync,
    {
        query_batch(self, queries, r, strategy, threads)
    }
}

impl<S, F, D, B> Parts for ShardedIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    type Point = S::Point;

    fn points(&self) -> usize {
        self.layout.n
    }

    fn level(&self, _li: usize) -> Level<'_, S::Point> {
        Level {
            parts: self.shards.iter().enumerate().map(|(s, t)| self.layout.part(s, t)).collect(),
            hll: self.hll_config(),
            cost: self.cost_model(),
            n: self.layout.n,
        }
    }
}

/// Reusable scratch for querying a [`ShardedIndex`] (the shared
/// [`PartQueryEngine`]).
pub type ShardedQueryEngine = PartQueryEngine;

/// Reusable scratch for top-k queries over a [`ShardedTopKIndex`] (the
/// shared [`TopKEngine`]).
pub type ShardedTopKEngine = TopKEngine;

/// A top-k index partitioned across shards: one [`TopKIndex`] (a full
/// radius-schedule ladder) per shard, walked by a *global* engine.
///
/// Every level of every shard is one part of the shared query core and
/// every walk decision (skip, early exit, fallback, arm choice) is made
/// on merged statistics, so the final ranking and report are
/// byte-identical to the unsharded [`TopKIndex`] over the same data.
pub struct ShardedTopKIndex<S, F, D, B = MapStore>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    shards: Vec<TopKIndex<S, F, D, B>>,
    layout: ShardLayout,
    schedule: RadiusSchedule,
}

impl<S, F, D> ShardedTopKIndex<S, F, D, MapStore>
where
    S: SubsetPointSet + Send + Sync,
    F: LshFamily<S::Point>,
    F::GFn: Send,
    D: Distance<S::Point>,
{
    /// Partitions `data` and builds one schedule ladder per shard, in
    /// parallel.
    ///
    /// `level_builder(level, radius)` configures each level exactly as
    /// for [`TopKIndex::build`]; it must be `Fn` (not `FnMut`) because
    /// it is re-invoked per `(shard, level)` from parallel workers.
    /// Each level's cost model is resolved once on the **full** data
    /// and shared by that level's builders in every shard, keeping the
    /// walk's arm decisions byte-identical to the unsharded ladder.
    pub fn build<M>(
        data: S,
        assignment: ShardAssignment,
        schedule: RadiusSchedule,
        level_builder: M,
    ) -> Self
    where
        M: Fn(usize, f64) -> IndexBuilder<F, D> + Sync,
        D: Sync,
        F: Sync,
        TopKIndex<S, F, D, MapStore>: Send,
    {
        let layout = ShardLayout::new(assignment, data.len());
        let level_costs: Vec<CostModel> = schedule
            .radii()
            .enumerate()
            .map(|(li, r)| level_builder(li, r).resolve_cost(&data))
            .collect();
        let shards = layout.build(data, |si, sub, sequential| {
            let level = |li: usize, r: f64| {
                let b = level_builder(li, r).cost_model(level_costs[li]);
                if sequential {
                    b.sequential()
                } else {
                    b
                }
            };
            TopKIndex::build_mapped(sub, schedule, level, Some(&layout.owners[si]))
        });
        Self { shards, layout, schedule }
    }

    /// Freezes every shard's every level into the CSR arena backend.
    pub fn freeze(self) -> ShardedTopKIndex<S, F, D, FrozenStore> {
        let shards = self.shards.into_iter().map(TopKIndex::freeze).collect();
        ShardedTopKIndex { shards, layout: self.layout, schedule: self.schedule }
    }
}

impl<S, F, D> ShardedTopKIndex<S, F, D, FrozenStore>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
{
    /// Converts every shard back to the mutable backend.
    pub fn thaw(self) -> ShardedTopKIndex<S, F, D, MapStore> {
        let shards = self.shards.into_iter().map(TopKIndex::thaw).collect();
        ShardedTopKIndex { shards, layout: self.layout, schedule: self.schedule }
    }

    /// Reassembles a sharded ladder from already-built per-shard
    /// ladders and their persisted owner lists — the snapshot loader's
    /// entry point.
    ///
    /// # Panics
    /// Panics if the shapes disagree: shard count vs assignment, ladder
    /// sizes or schedules vs their owner lists, or owner ids out of
    /// `0..n`.
    pub(crate) fn assemble(
        shards: Vec<TopKIndex<S, F, D, FrozenStore>>,
        owners: Vec<Vec<PointId>>,
        assignment: ShardAssignment,
        schedule: RadiusSchedule,
        n: usize,
    ) -> Self {
        assert_eq!(shards.len(), assignment.shards(), "one ladder per assignment shard");
        for shard in &shards {
            assert_eq!(shard.schedule(), schedule, "every ladder shares the schedule");
        }
        let layout = ShardLayout::checked(owners, assignment, n, shards.iter().map(|s| s.len()));
        Self { shards, layout, schedule }
    }
}

impl<S, F, D, B> ShardedTopKIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    /// Total indexed points across all shards.
    pub fn len(&self) -> usize {
        self.layout.n
    }

    /// Whether no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.layout.n == 0
    }

    /// The radius schedule shared by every shard.
    pub fn schedule(&self) -> RadiusSchedule {
        self.schedule
    }

    /// The shard assignment in force.
    pub fn assignment(&self) -> ShardAssignment {
        self.layout.assignment
    }

    /// The per-shard ladders. **Caution:** shard tables store *global*
    /// ids (see [`ShardedIndex::shards`]); query them only through the
    /// sharded engines.
    pub fn shards(&self) -> &[TopKIndex<S, F, D, B>] {
        &self.shards
    }

    /// The global ids owned by `shard`, in that shard's local row order
    /// (mirrors [`ShardedIndex::global_ids`]).
    pub fn global_ids(&self, shard: usize) -> &[PointId] {
        &self.layout.owners[shard]
    }

    /// Answers one top-k query with fresh scratch.
    pub fn query_topk(&self, q: &S::Point, k: usize) -> TopKOutput {
        ShardedTopKEngine::new().query_topk(self, q, k)
    }

    /// Level `li`'s HLL configuration (shared by every shard).
    ///
    /// # Panics
    /// Panics if `li` is out of range.
    pub fn level_hll_config(&self, li: usize) -> hlsh_hll::HllConfig {
        self.shards[0].levels()[li].hll_config()
    }

    /// Level `li`'s cost model (resolved once on the full data).
    ///
    /// # Panics
    /// Panics if `li` is out of range.
    pub fn level_cost_model(&self, li: usize) -> CostModel {
        self.shards[0].levels()[li].cost_model()
    }
}

impl<S, F, D, B> ShardedTopKIndex<S, F, D, B>
where
    S: PointSet + Send + Sync,
    F: LshFamily<S::Point> + Sync,
    F::GFn: Sync,
    D: Distance<S::Point> + Sync,
    B: BucketStore + Sync,
{
    /// Answers a batch of top-k queries, sharded across all available
    /// cores; outputs in input order, byte-identical to a sequential
    /// loop.
    pub fn query_topk_batch<Q>(&self, queries: &[Q], k: usize) -> Vec<TopKOutput>
    where
        Q: AsRef<S::Point> + Sync,
    {
        self.query_topk_batch_with(queries, k, Strategy::Hybrid, None)
    }

    /// Batch top-k under an explicit per-level strategy and optional
    /// thread count.
    pub fn query_topk_batch_with<Q>(
        &self,
        queries: &[Q],
        k: usize,
        strategy: Strategy,
        threads: Option<usize>,
    ) -> Vec<TopKOutput>
    where
        Q: AsRef<S::Point> + Sync,
    {
        topk_batch(self, queries, k, strategy, threads)
    }
}

impl<S, F, D, B> Parts for ShardedTopKIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    type Point = S::Point;

    fn points(&self) -> usize {
        self.layout.n
    }

    fn level(&self, li: usize) -> Level<'_, S::Point> {
        let parts = self.shards.iter().enumerate();
        Level {
            parts: parts.map(|(s, t)| self.layout.part(s, &t.levels()[li])).collect(),
            hll: self.level_hll_config(li),
            cost: self.level_cost_model(li),
            n: self.layout.n,
        }
    }
}

impl<S, F, D, B> Ladder for ShardedTopKIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    fn ladder(&self) -> RadiusSchedule {
        self.schedule
    }
}

// ---------------------------------------------------------------------------
// Distributed hooks
// ---------------------------------------------------------------------------
//
// A shard node in a distributed deployment holds the full sharded index
// (loaded from the same snapshot every node ships) but answers only for
// its assigned shard. The methods below run exactly the per-part work
// the in-process driver does — probe + local sketch merge, arm
// execution, fallback scan — on the node's shard part, so a remote
// coordinator that merges the summaries and replays the global
// decisions reproduces the in-process answers byte for byte. All of
// them verify in the default `VerifyMode::Kernel`, matching the engines
// the serving layer uses.

/// One query's compact S1/S2 summary from one shard: the summed bucket
/// sizes (S1) and the shard-local merged HyperLogLog registers (S2).
///
/// Register-wise `max` over per-shard registers equals the registers of
/// one accumulator fed every shard's probed buckets — HLL merge is
/// associative and commutative — so a coordinator that max-merges these
/// summaries and estimates once reproduces the in-process
/// [`ShardedQueryEngine`] statistics bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSummary {
    /// Sum of probed bucket sizes on this shard (S1 contribution).
    pub collisions: u64,
    /// This shard's merged sketch registers, `m = 2^precision` bytes.
    pub registers: Vec<u8>,
}

impl<S, F, D, B> ShardedIndex<S, F, D, B>
where
    S: PointSet + Sync,
    F: LshFamily<S::Point> + Sync,
    F::GFn: Sync,
    D: Distance<S::Point> + Sync,
    B: BucketStore + Sync,
{
    fn batch<'s, 'q, Q>(
        &'s self,
        shard: usize,
        queries: &'q [Q],
        threads: Option<usize>,
    ) -> PartBatch<'q, Q, impl Fn() -> Part<'s, S::Point> + Sync + 's> {
        PartBatch { part: move || self.layout.part(shard, &self.shards[shard]), queries, threads }
    }

    /// [`shard_summary`](Self::shard_summary) over a batch, fanned
    /// across scoped threads; outputs in input order.
    pub fn shard_summaries<Q>(
        &self,
        shard: usize,
        queries: &[Q],
        threads: Option<usize>,
    ) -> Vec<ShardSummary>
    where
        Q: AsRef<S::Point> + Sync,
    {
        self.batch(shard, queries, threads).summaries(self.hll_config())
    }

    /// [`shard_arm`](Self::shard_arm) over a batch, fanned across
    /// scoped threads; outputs in input order.
    pub fn shard_arm_batch<Q>(
        &self,
        shard: usize,
        queries: &[Q],
        r: f64,
        lsh: bool,
        threads: Option<usize>,
    ) -> Vec<Vec<PointId>>
    where
        Q: AsRef<S::Point> + Sync,
    {
        self.batch(shard, queries, threads).arm_ids(r, lsh)
    }
}

impl<S, F, D, B> ShardedTopKIndex<S, F, D, B>
where
    S: PointSet + Send + Sync,
    F: LshFamily<S::Point> + Sync,
    F::GFn: Sync,
    D: Distance<S::Point> + Sync,
    B: BucketStore + Sync,
{
    fn batch<'s, 'q, Q>(
        &'s self,
        shard: usize,
        li: usize,
        queries: &'q [Q],
        threads: Option<usize>,
    ) -> PartBatch<'q, Q, impl Fn() -> Part<'s, S::Point> + Sync + 's> {
        let part = move || self.layout.part(shard, &self.shards[shard].levels()[li]);
        PartBatch { part, queries, threads }
    }

    /// One shard's S1/S2 summaries against schedule level `li` for a
    /// batch of queries; outputs in input order.
    ///
    /// # Panics
    /// Panics if `shard` or `li` is out of range.
    pub fn shard_level_summaries<Q>(
        &self,
        shard: usize,
        li: usize,
        queries: &[Q],
        threads: Option<usize>,
    ) -> Vec<ShardSummary>
    where
        Q: AsRef<S::Point> + Sync,
    {
        self.batch(shard, li, queries, threads).summaries(self.level_hll_config(li))
    }

    /// One shard's chosen-arm execution against level `li`: per query,
    /// the shard's `(global id, distance)` pairs within `r` — in the
    /// shard-local candidate order the in-process walk offers them
    /// (first-collision order for the LSH arm, ascending row order for
    /// the linear arm).
    ///
    /// # Panics
    /// Panics if `shard` or `li` is out of range.
    pub fn shard_level_arm_batch<Q>(
        &self,
        shard: usize,
        li: usize,
        queries: &[Q],
        r: f64,
        lsh: bool,
        threads: Option<usize>,
    ) -> Vec<Vec<(PointId, f64)>>
    where
        Q: AsRef<S::Point> + Sync,
    {
        self.batch(shard, li, queries, threads).arm_pairs(r, lsh)
    }

    /// One shard's exact-fallback scan: per query, **every** row the
    /// shard owns as `(global id, distance)`, ascending by local row,
    /// NaN-distance gaps completed — the per-shard slice of the walk's
    /// exact fallback. The coordinator filters already-reported ids,
    /// exactly as the in-process walk does.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard_fallback_scan_batch<Q>(
        &self,
        shard: usize,
        queries: &[Q],
        threads: Option<usize>,
    ) -> Vec<Vec<(PointId, f64)>>
    where
        Q: AsRef<S::Point> + Sync,
    {
        self.batch(shard, 0, queries, threads).scans()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use hlsh_families::PStableL2;
    use hlsh_vec::{DenseDataset, L2};

    fn grid_data(n: usize) -> DenseDataset {
        DenseDataset::from_rows(2, (0..n).map(|i| [(i % 17) as f32, (i / 17) as f32 * 0.5]))
    }

    fn builder() -> IndexBuilder<PStableL2, L2> {
        IndexBuilder::new(PStableL2::new(2, 2.0), L2)
            .tables(8)
            .hash_len(4)
            .seed(11)
            .cost_model(CostModel::from_ratio(4.0))
    }

    #[test]
    fn assignment_is_deterministic_and_total() {
        let a = ShardAssignment::new(9, 4);
        let owners = a.partition(100);
        assert_eq!(owners.len(), 4);
        let total: usize = owners.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        for (s, ids) in owners.iter().enumerate() {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending owners");
            for &id in ids {
                assert_eq!(a.shard_of(id), s);
            }
        }
        // Same seed → same partition; single shard owns everything.
        assert_eq!(ShardAssignment::new(9, 4).partition(100), owners);
        assert_eq!(ShardAssignment::new(9, 1).partition(5)[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardAssignment::new(0, 0);
    }

    #[test]
    fn sharded_rnnr_matches_sorted_unsharded_output() {
        let data = grid_data(300);
        let unsharded = builder().build(data.clone());
        for shards in [1usize, 3] {
            let sharded =
                ShardedIndex::build(data.clone(), ShardAssignment::new(5, shards), builder());
            assert_eq!(sharded.len(), 300);
            for (qi, r) in [(0usize, 1.0), (140, 2.5), (299, 0.2)] {
                let q = data.row(qi).to_vec();
                for strategy in Strategy::ALL {
                    let mut expect = unsharded.query_with_strategy(&q[..], r, strategy).ids;
                    expect.sort_unstable();
                    let got = sharded.query_with_strategy(&q[..], r, strategy);
                    assert_eq!(got.ids, expect, "shards={shards} q={qi} r={r} {strategy}");
                }
            }
        }
    }

    #[test]
    fn sharded_topk_matches_unsharded_byte_for_byte() {
        let data = grid_data(250);
        let schedule = RadiusSchedule::doubling(0.8, 4);
        let level_builder = |_li: usize, r: f64| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(8)
                .hash_len(4)
                .seed(7)
                .cost_model(CostModel::from_ratio(4.0))
        };
        let unsharded = TopKIndex::build(data.clone(), schedule, level_builder);
        for shards in [1usize, 4] {
            let sharded = ShardedTopKIndex::build(
                data.clone(),
                ShardAssignment::new(3, shards),
                schedule,
                level_builder,
            );
            for qi in (0..250).step_by(31) {
                let q = data.row(qi).to_vec();
                let a = unsharded.query_topk(&q[..], 7);
                let b = sharded.query_topk(&q[..], 7);
                assert_eq!(a, b, "shards={shards} q={qi}");
            }
        }
    }

    #[test]
    fn sharded_batch_matches_sequential_and_frozen_matches_map() {
        let data = grid_data(200);
        let sharded = ShardedIndex::build(data.clone(), ShardAssignment::new(2, 3), builder());
        let queries: Vec<Vec<f32>> = (0..12).map(|i| data.row(i * 16).to_vec()).collect();
        let mut engine = ShardedQueryEngine::new();
        let sequential: Vec<Vec<PointId>> =
            queries.iter().map(|q| engine.query(&sharded, q, 1.5).ids).collect();
        for threads in [Some(1), Some(4), None] {
            let batch = sharded.query_batch_with_strategy(&queries, 1.5, Strategy::Hybrid, threads);
            for (s, b) in sequential.iter().zip(&batch) {
                assert_eq!(s, &b.ids, "threads {threads:?}");
            }
        }
        let frozen = sharded.freeze();
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(frozen.query(q, 1.5).ids, sequential[qi], "frozen q={qi}");
        }
        let thawed = frozen.thaw();
        assert_eq!(thawed.query(&queries[0], 1.5).ids, sequential[0]);
    }

    /// Replays the distributed coordinator's merge protocol in-process:
    /// max-merged shard summaries must reproduce the engine's global
    /// statistics, decision and result set exactly.
    #[test]
    fn shard_summaries_and_arms_replay_the_global_decision() {
        let data = grid_data(300);
        let sharded = ShardedIndex::build(data.clone(), ShardAssignment::new(5, 3), builder());
        let config = sharded.hll_config();
        let cost = sharded.cost_model();
        for (qi, r) in [(0usize, 1.0), (140, 2.5), (299, 0.2)] {
            let q = data.row(qi).to_vec();
            let expect = sharded.query(&q[..], r);

            // Coordinator-side merge: sum collisions, max registers.
            let mut collisions = 0usize;
            let mut regs = vec![0u8; config.registers()];
            for si in 0..3 {
                let s = sharded.shard_summary(si, &q[..]);
                collisions += s.collisions as usize;
                for (m, &v) in regs.iter_mut().zip(&s.registers) {
                    *m = (*m).max(v);
                }
            }
            assert_eq!(collisions, expect.report.collisions, "q={qi}");
            let est = hlsh_hll::HyperLogLog::from_registers(config, regs).estimate();
            assert_eq!(est.to_bits(), expect.report.cand_size_estimate.to_bits(), "q={qi}");

            // Global decision + per-shard arms concatenated and sorted.
            let lsh = cost.prefer_lsh(collisions, est, sharded.len());
            let mut ids: Vec<PointId> =
                (0..3).flat_map(|si| sharded.shard_arm(si, &q[..], r, lsh)).collect();
            ids.sort_unstable();
            assert_eq!(ids, expect.ids, "q={qi} r={r}");
        }
    }

    #[test]
    fn empty_and_tiny_data_shard_cleanly() {
        let empty = DenseDataset::new(2);
        let sharded = ShardedIndex::build(empty, ShardAssignment::new(1, 3), builder());
        assert!(sharded.is_empty());
        assert!(sharded.query(&[0.0f32, 0.0][..], 1.0).ids.is_empty());

        // Fewer points than shards: some shards stay empty.
        let tiny = DenseDataset::from_rows(2, (0..2).map(|i| [i as f32, 0.0]));
        let sharded = ShardedIndex::build(tiny, ShardAssignment::new(1, 7), builder());
        assert_eq!(sharded.len(), 2);
        let mut ids = sharded.query(&[0.0f32, 0.0][..], 1.5).ids;
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }
}
