//! Top-k nearest-neighbor queries via the classic k-NN ⇒ rNNR
//! reduction over a [`RadiusSchedule`].
//!
//! The paper solves r-near-neighbor reporting; every standard ANN
//! benchmark asks for the k nearest neighbors instead. [`TopKIndex`]
//! bridges the two: it maintains one hybrid rNNR index per schedule
//! level (all levels share one `Arc`-owned copy of the data, each level
//! tunes its LSH family to its own radius), and [`TopKEngine`] walks
//! the levels in ascending-radius order, feeding every newly verified
//! neighbor into a bounded max-heap of `(distance, id)` pairs:
//!
//! 1. **Early exit** — once the heap holds `k` neighbors all within the
//!    previously executed radius, deeper (larger-radius) levels cannot
//!    change the answer and the walk stops.
//! 2. **HLL level skip** — while the heap is still underfull, a level
//!    whose merged-sketch candidate estimate does not exceed the number
//!    of ids already verified is predicted to contain nothing new and
//!    is deferred without running either Algorithm 2 arm. If the walk
//!    ends with the heap underfull, the exact fallback covers whatever
//!    a deferred level held and the deferral becomes a true skip; if
//!    the heap instead fills at a deeper level, the deferred
//!    (predicted-near-empty, hence cheap) levels are revisited so a
//!    wrong prediction can never silently lose a close neighbor.
//! 3. **Exact fallback** — if the whole schedule leaves the heap
//!    underfull (the k-th neighbor lies beyond the last radius), the
//!    remaining points are scanned exactly, so `query_topk` always
//!    returns exactly `min(k, n)` neighbors.
//!
//! Results are deterministic: distance ties break by ascending id, the
//! heap's total order is `(distance, id)`, and
//! [`query_topk_batch`](TopKIndex::query_topk_batch) shards over scoped
//! threads with byte-identical output to a sequential per-query loop —
//! on any thread count and under either [`VerifyMode`].

use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use hlsh_families::LshFamily;
use hlsh_vec::{Distance, PointId, PointSet};

use crate::builder::IndexBuilder;
use crate::hasher::FxHashSet;
use crate::index::HybridLshIndex;
use crate::part::{Hits, Ids, Ladder, Level, Part, Parts, Scratch};
use crate::schedule::RadiusSchedule;
use crate::search::{Strategy, VerifyMode};
use crate::store::{BucketStore, FrozenStore, MapStore};

/// One verified nearest-neighbor candidate.
///
/// Ordered by `(distance, id)` — [`f64::total_cmp`] on the distance,
/// ascending id on ties — so result rankings are a total order and
/// identical across shard counts, storage backends and verify modes.
#[derive(Clone, Copy, Debug)]
pub struct Neighbor {
    /// Id of the data point.
    pub id: PointId,
    /// Exact distance to the query.
    pub dist: f64,
}

impl PartialEq for Neighbor {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist.total_cmp(&other.dist).then(self.id.cmp(&other.id))
    }
}

/// A bounded max-heap keeping the `k` smallest [`Neighbor`]s seen.
///
/// The root is the current worst kept neighbor under the `(distance,
/// id)` order, so a full heap rejects or admits a new candidate with
/// one comparison. Capacity 0 keeps nothing.
#[derive(Clone, Debug)]
pub struct BoundedHeap {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl BoundedHeap {
    /// Creates a heap keeping at most `k` neighbors.
    pub fn new(k: usize) -> Self {
        Self { k, heap: BinaryHeap::with_capacity(k.saturating_add(1).min(4096)) }
    }

    /// Offers a candidate; keeps it iff the heap is underfull or the
    /// candidate beats the current worst. Returns whether it was kept.
    pub fn push(&mut self, n: Neighbor) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(n);
            true
        } else if self.heap.peek().is_some_and(|&worst| n < worst) {
            self.heap.pop();
            self.heap.push(n);
            true
        } else {
            false
        }
    }

    /// Number of neighbors currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is kept yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the heap holds its full `k` neighbors.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Distance of the current worst kept neighbor (the k-th best so
    /// far), if any.
    pub fn worst_dist(&self) -> Option<f64> {
        self.heap.peek().map(|n| n.dist)
    }

    /// Consumes the heap into neighbors sorted ascending by
    /// `(distance, id)`.
    pub fn into_sorted_vec(self) -> Vec<Neighbor> {
        self.heap.into_sorted_vec()
    }
}

/// Result of one top-k query: the `min(k, n)` nearest neighbors in
/// ascending `(distance, id)` order, plus instrumentation.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKOutput {
    /// The verified nearest neighbors, closest first.
    pub neighbors: Vec<Neighbor>,
    /// Instrumentation of the schedule walk.
    pub report: TopKReport,
}

impl TopKOutput {
    /// Convenience view of the result ids in rank order.
    pub fn ids(&self) -> Vec<PointId> {
        self.neighbors.iter().map(|n| n.id).collect()
    }
}

/// Instrumentation of one top-k schedule walk.
///
/// Equality compares only the deterministic walk outcome —
/// `total_nanos` is wall-clock noise and is excluded — so
/// `assert_eq!(batch_output, sequential_output)` exercises the
/// byte-identity contract directly.
#[derive(Clone, Copy, Debug)]
pub struct TopKReport {
    /// Levels whose rNNR query actually ran (deferred levels that were
    /// revisited count here, not as skipped).
    pub levels_executed: usize,
    /// Levels whose arms never ran: deferred by the HLL
    /// candidate-count prediction and then covered by the exact
    /// fallback instead of being revisited.
    pub levels_skipped: usize,
    /// Whether the walk stopped before exhausting the schedule because
    /// the heap was full of neighbors within an executed radius.
    pub early_exit: bool,
    /// Whether the exact full-scan fallback ran because the schedule's
    /// last radius still left the heap underfull.
    pub exact_fallback: bool,
    /// Distinct ids whose exact distance was computed on the schedule
    /// path (heap admissions and rejections alike).
    pub verified: usize,
    /// Total wall time of the walk (excluded from equality).
    pub total_nanos: u64,
}

impl PartialEq for TopKReport {
    fn eq(&self, other: &Self) -> bool {
        self.levels_executed == other.levels_executed
            && self.levels_skipped == other.levels_skipped
            && self.early_exit == other.early_exit
            && self.exact_fallback == other.exact_fallback
            && self.verified == other.verified
    }
}

impl Eq for TopKReport {}

/// A family of hybrid rNNR indexes answering top-k queries — one
/// [`HybridLshIndex`] per [`RadiusSchedule`] level, sharing a single
/// copy of the data.
///
/// Build one with [`TopKIndex::build`], handing it a closure that
/// configures the per-level [`IndexBuilder`] (typically: a p-stable
/// family with hash width proportional to the level radius, or a
/// sign-bit family with the δ-rule concatenation width for that
/// radius). [`freeze`](TopKIndex::freeze) converts every level to the
/// read-optimised CSR arena for serving.
pub struct TopKIndex<S, F, D, B = MapStore>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    data: Arc<S>,
    schedule: RadiusSchedule,
    levels: Vec<HybridLshIndex<Arc<S>, F, D, B>>,
}

impl<S, F, D> TopKIndex<S, F, D, MapStore>
where
    S: PointSet + Send + Sync,
    F: LshFamily<S::Point>,
    F::GFn: Send,
    D: Distance<S::Point>,
{
    /// Builds one hybrid index per schedule level over a shared copy of
    /// `data`.
    ///
    /// `level_builder(level, radius)` returns the fully configured
    /// [`IndexBuilder`] for that level; radius-dependent knobs (hash
    /// width `w`, concatenation width `k`) belong in the closure.
    pub fn build<M>(data: S, schedule: RadiusSchedule, level_builder: M) -> Self
    where
        M: FnMut(usize, f64) -> IndexBuilder<F, D>,
    {
        Self::build_mapped(data, schedule, level_builder, None)
    }

    /// [`build`](Self::build) with the sharded build's id renaming
    /// applied to every level (see
    /// [`IndexBuilder::build_mapped`](crate::builder::IndexBuilder)):
    /// row `i` is indexed under `id_map[i]` in every level's buckets
    /// and sketches.
    pub(crate) fn build_mapped<M>(
        data: S,
        schedule: RadiusSchedule,
        mut level_builder: M,
        id_map: Option<&[PointId]>,
    ) -> Self
    where
        M: FnMut(usize, f64) -> IndexBuilder<F, D>,
    {
        let data = Arc::new(data);
        let levels = schedule
            .radii()
            .enumerate()
            .map(|(li, r)| level_builder(li, r).build_mapped(Arc::clone(&data), id_map))
            .collect();
        Self { data, schedule, levels }
    }

    /// Freezes every level into the read-optimised [`FrozenStore`];
    /// query results are byte-identical before and after.
    pub fn freeze(self) -> TopKIndex<S, F, D, FrozenStore> {
        TopKIndex {
            data: self.data,
            schedule: self.schedule,
            levels: self.levels.into_iter().map(HybridLshIndex::freeze).collect(),
        }
    }
}

impl<S, F, D> TopKIndex<S, F, D, FrozenStore>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
{
    /// Converts every level back to the mutable [`MapStore`] backend.
    pub fn thaw(self) -> TopKIndex<S, F, D, MapStore> {
        TopKIndex {
            data: self.data,
            schedule: self.schedule,
            levels: self.levels.into_iter().map(HybridLshIndex::thaw).collect(),
        }
    }

    /// Reassembles a ladder from already-built levels — the snapshot
    /// loader's entry point. Every level must index `data` (the loader
    /// hands each level the same `Arc`).
    ///
    /// # Panics
    /// Panics if the level count disagrees with the schedule or a level
    /// indexes a different data handle.
    pub(crate) fn assemble(
        data: Arc<S>,
        schedule: RadiusSchedule,
        levels: Vec<HybridLshIndex<Arc<S>, F, D, FrozenStore>>,
    ) -> Self {
        assert_eq!(levels.len(), schedule.levels(), "one level per schedule radius");
        for level in &levels {
            assert!(Arc::ptr_eq(level.data(), &data), "levels must share the ladder's data");
        }
        Self { data, schedule, levels }
    }
}

impl<S, F, D, B> TopKIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    /// The shared indexed data set.
    pub fn data(&self) -> &S {
        self.data.as_ref()
    }

    /// Number of indexed points `n`.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The radius schedule the levels were built for.
    pub fn schedule(&self) -> RadiusSchedule {
        self.schedule
    }

    /// The per-level hybrid indexes, in ascending-radius order.
    pub fn levels(&self) -> &[HybridLshIndex<Arc<S>, F, D, B>] {
        &self.levels
    }

    /// The distance function (shared by every level).
    pub fn distance(&self) -> &D {
        self.levels[0].distance()
    }

    /// Per-level bucket/sketch statistics, in ascending-radius order
    /// (each level is a full index of its own; sum the entries for the
    /// family's total footprint).
    pub fn stats_per_level(&self) -> Vec<crate::index::IndexStats> {
        self.levels.iter().map(HybridLshIndex::stats).collect()
    }

    /// Answers one top-k query with fresh scratch. Batch workloads
    /// should prefer [`query_topk_batch`](Self::query_topk_batch) or a
    /// reused [`TopKEngine`].
    pub fn query_topk(&self, q: &S::Point, k: usize) -> TopKOutput {
        TopKEngine::new().query_topk(self, q, k)
    }
}

impl<S, F, D, B> TopKIndex<S, F, D, B>
where
    S: PointSet + Send + Sync,
    F: LshFamily<S::Point> + Sync,
    F::GFn: Sync,
    D: Distance<S::Point> + Sync,
    B: BucketStore + Sync,
{
    /// Answers a batch of top-k queries, sharded across all available
    /// cores. Outputs are in input order and byte-identical to a
    /// sequential [`query_topk`](Self::query_topk) loop.
    pub fn query_topk_batch<Q>(&self, queries: &[Q], k: usize) -> Vec<TopKOutput>
    where
        Q: AsRef<S::Point> + Sync,
    {
        self.query_topk_batch_with(queries, k, Strategy::Hybrid, None)
    }

    /// Batch top-k under an explicit per-level strategy and optional
    /// thread count (`None` = all available cores).
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

impl<S, F, D, B> Parts for TopKIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    type Point = S::Point;

    fn points(&self) -> usize {
        self.len()
    }

    fn level(&self, li: usize) -> Level<'_, S::Point> {
        let level = &self.levels[li];
        Level {
            parts: vec![Part { tables: level, ids: Ids::Rows }],
            hll: level.hll_config(),
            cost: level.cost_model(),
            n: self.len(),
        }
    }
}

impl<S, F, D, B> Ladder for TopKIndex<S, F, D, B>
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

/// One top-k query's schedule walk: the policy every top-k path drives,
/// whether it runs the levels in process ([`TopKEngine`]) or fans them
/// out to remote shards level by level (the distributed coordinator).
///
/// The driver asks [`next_level`](Self::next_level) before each level,
/// runs the level (or defers it) and offers its hits; after the last
/// level it either runs the exact fallback
/// ([`start_fallback`](Self::start_fallback)) or revisits the deferred
/// levels ([`take_deferred`](Self::take_deferred)), then
/// [`finish`](Self::finish)es.
///
/// 1. **Early exit** — once the heap holds `k` neighbors all within the
///    largest executed radius, deeper levels cannot change the answer.
/// 2. **HLL defer** — while the heap is underfull, a level whose merged
///    sketches predict no candidates beyond the ids already verified
///    is deferred without running either arm.
/// 3. **Revisit** — if the heap fills without them, deferred levels
///    run after all (they were predicted near-empty, so this is cheap),
///    so a wrong prediction never silently loses a close neighbor.
/// 4. **Exact fallback** — if the schedule leaves the heap underfull,
///    every unreported live point is offered, and the deferred levels
///    become true skips.
#[derive(Debug)]
pub struct TopKWalk {
    k: usize,
    heap: BoundedHeap,
    reported: FxHashSet<PointId>,
    covered_r: f64,
    deferred: Vec<DeferredLevel>,
    done: bool,
    report: TopKReport,
    t_start: Instant,
}

/// A level the walk deferred, with the merged statistics it was
/// deferred on (probing is deterministic, so a revisit may replay them
/// instead of probing again).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeferredLevel {
    /// The schedule level.
    pub level: usize,
    /// Its merged S1 collision count.
    pub collisions: usize,
    /// Its merged S2 candidate estimate.
    pub estimate: f64,
}

impl TopKWalk {
    /// A walk for the `k` nearest of `n` live points.
    pub fn new(k: usize, n: usize) -> Self {
        Self::reusing(k, n, FxHashSet::default())
    }

    fn reusing(k: usize, n: usize, mut reported: FxHashSet<PointId>) -> Self {
        reported.clear();
        let k = k.min(n);
        Self {
            k,
            heap: BoundedHeap::new(k),
            reported,
            covered_r: 0.0,
            deferred: Vec::new(),
            done: k == 0,
            report: TopKReport {
                levels_executed: 0,
                levels_skipped: 0,
                early_exit: false,
                exact_fallback: false,
                verified: 0,
                total_nanos: 0,
            },
            t_start: Instant::now(),
        }
    }

    /// Before each schedule level: `None` once the walk is over (`k` is
    /// 0, or the early exit fired), otherwise the level's skip
    /// threshold for a sketch of `registers` registers
    /// (`f64::NEG_INFINITY` until a level has run).
    pub fn next_level(&mut self, registers: usize) -> Option<f64> {
        if self.done {
            return None;
        }
        if self.report.levels_executed == 0 {
            return Some(f64::NEG_INFINITY); // the first level always runs
        }
        // Heap entries are within-radius reports, so a full heap within
        // the executed radius cannot be improved by larger radii.
        if self.heap.is_full() && self.heap.worst_dist().is_some_and(|w| w <= self.covered_r) {
            self.report.early_exit = true;
            self.done = true;
            return None;
        }
        // One standard error of sketch slack (σ ≈ 1.04/√m): a level
        // holding nothing new still estimates slightly above the
        // verified count, so an exact threshold would never fire.
        let m = registers as f64;
        Some(self.reported.len() as f64 * (1.0 + 1.04 / m.sqrt()))
    }

    /// Records that the current level was deferred on these statistics.
    pub fn defer(&mut self, level: usize, collisions: usize, estimate: f64) {
        self.deferred.push(DeferredLevel { level, collisions, estimate });
    }

    /// Offers a level's verified `(id, distance)` hits; ids already
    /// reported by another level are ignored.
    pub fn offer(&mut self, hits: &[(PointId, f64)]) {
        for &(id, dist) in hits {
            if self.reported.insert(id) {
                self.heap.push(Neighbor { id, dist });
            }
        }
    }

    /// Records that a level of radius `r` ran (its hits all offered).
    pub fn ran(&mut self, r: f64) {
        self.report.levels_executed += 1;
        self.covered_r = self.covered_r.max(r);
    }

    /// After the last level: whether the exact fallback must run (the
    /// heap is underfull). If so, the deferred levels become skips.
    pub fn start_fallback(&mut self) -> bool {
        if self.heap.len() >= self.k {
            return false;
        }
        self.report.exact_fallback = true;
        self.report.levels_skipped = std::mem::take(&mut self.deferred).len();
        true
    }

    /// Offers exact-fallback `(id, distance)` pairs: every live point
    /// not yet reported is a candidate.
    pub fn offer_fallback(&mut self, pairs: impl IntoIterator<Item = (PointId, f64)>) {
        for (id, dist) in pairs {
            if !self.reported.contains(&id) {
                self.heap.push(Neighbor { id, dist });
            }
        }
    }

    /// The deferred levels left to revisit, in schedule order (none
    /// after [`start_fallback`](Self::start_fallback) returned `true`).
    pub fn take_deferred(&mut self) -> Vec<DeferredLevel> {
        std::mem::take(&mut self.deferred)
    }

    /// The ranking and the walk's report.
    pub fn finish(self) -> TopKOutput {
        self.finish_into(&mut FxHashSet::default())
    }

    /// [`finish`](Self::finish), handing the dedup set back for reuse.
    fn finish_into(mut self, spare: &mut FxHashSet<PointId>) -> TopKOutput {
        self.report.verified = self.reported.len();
        self.report.total_nanos = self.t_start.elapsed().as_nanos() as u64;
        *spare = self.reported;
        TopKOutput { neighbors: self.heap.into_sorted_vec(), report: self.report }
    }
}

/// Reusable scratch for running top-k queries over any [`Ladder`]
/// (unsharded, sharded or living): every level is one run of the shared
/// driver with the walk's skip threshold, and every decision is made on
/// statistics merged across the ladder's parts.
///
/// One engine serves one thread; results are identical to the
/// allocate-per-query path.
#[derive(Debug, Default)]
pub struct TopKEngine {
    scratch: Scratch,
    reported: FxHashSet<PointId>,
}

impl TopKEngine {
    /// Creates an engine with empty scratch and the default
    /// [`VerifyMode::Kernel`] rNNR filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine whose level queries verify candidates in an
    /// explicit [`VerifyMode`]. Top-k output is identical across
    /// modes — the mode only changes how the radius filter is computed.
    pub fn with_verify_mode(verify: VerifyMode) -> Self {
        Self { scratch: Scratch::with_verify_mode(verify), ..Self::default() }
    }

    /// Answers one top-k query under the default per-level
    /// [`Strategy::Hybrid`].
    pub fn query_topk<I: Ladder + ?Sized>(
        &mut self,
        index: &I,
        q: &I::Point,
        k: usize,
    ) -> TopKOutput {
        self.query_topk_with(index, q, k, Strategy::Hybrid)
    }

    /// Answers one top-k query, running every executed level under
    /// `strategy`.
    pub fn query_topk_with<I: Ladder + ?Sized>(
        &mut self,
        index: &I,
        q: &I::Point,
        k: usize,
        strategy: Strategy,
    ) -> TopKOutput {
        let mut walk = TopKWalk::reusing(k, index.points(), std::mem::take(&mut self.reported));
        let schedule = index.ladder();
        let scratch = &mut self.scratch;
        for li in 0..schedule.levels() {
            let level = index.level(li);
            let Some(skip) = walk.next_level(level.hll.registers()) else { break };
            walk_level(scratch, &level, (li, schedule.radius(li)), q, strategy, skip, &mut walk);
        }
        if walk.start_fallback() {
            for part in &index.level(0).parts {
                walk.offer_fallback(part.scan_all(q, scratch.verify));
            }
        } else {
            for d in walk.take_deferred() {
                let (level, r) = (index.level(d.level), schedule.radius(d.level));
                walk_level(
                    scratch,
                    &level,
                    (d.level, r),
                    q,
                    strategy,
                    f64::NEG_INFINITY,
                    &mut walk,
                );
            }
        }
        walk.finish_into(&mut self.reported)
    }
}

/// Runs schedule level `li` (radius `r`) for the walk: a driver run
/// with the walk's skip threshold, its hits offered or the level
/// deferred.
fn walk_level<P: ?Sized>(
    scratch: &mut Scratch,
    level: &Level<'_, P>,
    (li, r): (usize, f64),
    q: &P,
    strategy: Strategy,
    skip: f64,
    walk: &mut TopKWalk,
) {
    let mut hits = Hits::Pairs(Vec::new());
    let run = scratch.run(level, q, r, strategy, skip, &mut hits);
    match run.arm {
        Some(_) => {
            walk.offer(&hits.into_pairs());
            walk.ran(r);
        }
        None => walk.defer(li, run.collisions, run.estimate),
    }
}

/// [`TopKEngine::query_topk_with`] over a batch, fanned across scoped
/// threads (one engine each); outputs in input order.
pub(crate) fn topk_batch<I, Q>(
    index: &I,
    queries: &[Q],
    k: usize,
    strategy: Strategy,
    threads: Option<usize>,
) -> Vec<TopKOutput>
where
    I: Ladder + Sync + ?Sized,
    Q: AsRef<I::Point> + Sync,
{
    hlsh_vec::parallel::par_map_with(queries.len(), threads, TopKEngine::new, |e, qi| {
        e.query_topk_with(index, queries[qi].as_ref(), k, strategy)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use hlsh_families::PStableL2;
    use hlsh_vec::{DenseDataset, L2};

    fn line_index(n: usize, levels: usize) -> TopKIndex<DenseDataset, PStableL2, L2> {
        let data = DenseDataset::from_rows(2, (0..n).map(|i| [i as f32, 0.0]));
        TopKIndex::build(data, RadiusSchedule::doubling(1.0, levels), |_, r| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(8)
                .hash_len(4)
                .seed(7)
                .cost_model(CostModel::from_ratio(4.0))
        })
    }

    #[test]
    fn neighbor_order_breaks_ties_by_id() {
        let a = Neighbor { id: 3, dist: 1.0 };
        let b = Neighbor { id: 5, dist: 1.0 };
        let c = Neighbor { id: 1, dist: 2.0 };
        assert!(a < b);
        assert!(b < c);
        let mut v = [c, b, a];
        v.sort();
        assert_eq!(v.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 5, 1]);
    }

    #[test]
    fn bounded_heap_keeps_k_smallest() {
        let mut h = BoundedHeap::new(3);
        assert!(h.is_empty());
        for (id, dist) in [(0, 5.0), (1, 1.0), (2, 4.0), (3, 2.0), (4, 3.0)] {
            h.push(Neighbor { id, dist });
        }
        assert!(h.is_full());
        assert_eq!(h.worst_dist(), Some(3.0));
        let out = h.into_sorted_vec();
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 3, 4]);
    }

    #[test]
    fn report_equality_ignores_wall_time() {
        let a = TopKReport {
            levels_executed: 2,
            levels_skipped: 1,
            early_exit: true,
            exact_fallback: false,
            verified: 9,
            total_nanos: 1,
        };
        let b = TopKReport { total_nanos: 999_999, ..a };
        assert_eq!(a, b);
        assert_ne!(a, TopKReport { verified: 10, ..a });
    }

    #[test]
    fn bounded_heap_capacity_zero_keeps_nothing() {
        let mut h = BoundedHeap::new(0);
        assert!(!h.push(Neighbor { id: 0, dist: 0.0 }));
        assert!(h.is_full());
        assert!(h.into_sorted_vec().is_empty());
    }

    #[test]
    fn topk_on_a_line_is_exact() {
        let index = line_index(200, 4);
        let out = index.query_topk(&[50.0f32, 0.0][..], 5);
        assert_eq!(out.neighbors.len(), 5);
        // Nearest is the point itself, then the symmetric pairs; the
        // (dist, id) order puts the smaller id first on each tie.
        let ids: Vec<PointId> = out.ids();
        assert_eq!(ids, vec![50, 49, 51, 48, 52]);
        assert_eq!(out.neighbors[0].dist, 0.0);
        assert_eq!(out.neighbors[1].dist, 1.0);
    }

    #[test]
    fn exact_fallback_keeps_min_k_n_even_with_nan_rows() {
        // A NaN-coordinate row has NaN distance to everything; the
        // fallback's ∞-radius scan filter drops it (NaN <= ∞ is
        // false), so the gap-completion path must offer it anyway —
        // the min(k, n) guarantee ranks it last via total_cmp, exactly
        // like the pre-kernel per-id fallback loop did.
        let mut rows: Vec<[f32; 2]> = (0..12).map(|i| [i as f32, 0.0]).collect();
        rows[3] = [f32::NAN, 0.0];
        rows[11] = [f32::NAN, 1.0];
        let data = DenseDataset::from_rows(2, rows);
        let index = TopKIndex::build(data, RadiusSchedule::doubling(1.0, 2), |_, r| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(4)
                .hash_len(3)
                .seed(2)
                .cost_model(CostModel::from_ratio(1e9)) // always the LSH arm
        });
        let out = index.query_topk(&[0.0f32, 0.0][..], 12);
        assert!(out.report.exact_fallback, "report: {:?}", out.report);
        assert_eq!(out.neighbors.len(), 12, "k = n must return every point");
        // NaN rows rank last, ties by id.
        assert_eq!(out.neighbors[10].id, 3);
        assert_eq!(out.neighbors[11].id, 11);
        assert!(out.neighbors[10].dist.is_nan() && out.neighbors[11].dist.is_nan());
        // Scalar verify mode agrees.
        let scalar = TopKEngine::with_verify_mode(VerifyMode::Scalar).query_topk(
            &index,
            &[0.0f32, 0.0][..],
            12,
        );
        assert_eq!(scalar.neighbors.len(), 12);
    }

    #[test]
    fn k_larger_than_n_returns_everything() {
        let index = line_index(30, 3);
        let out = index.query_topk(&[3.0f32, 0.0][..], 100);
        assert_eq!(out.neighbors.len(), 30);
        assert!(out.report.exact_fallback);
        // Sorted ascending by distance.
        assert!(out.neighbors.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn k_zero_and_empty_index() {
        let index = line_index(10, 2);
        let out = index.query_topk(&[0.0f32, 0.0][..], 0);
        assert!(out.neighbors.is_empty());
        assert_eq!(out.report.levels_executed, 0);

        let empty: TopKIndex<DenseDataset, PStableL2, L2> =
            TopKIndex::build(DenseDataset::new(2), RadiusSchedule::doubling(1.0, 2), |_, r| {
                IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                    .tables(2)
                    .hash_len(2)
                    .seed(1)
                    .cost_model(CostModel::from_ratio(1.0))
            });
        let out = empty.query_topk(&[0.0f32, 0.0][..], 4);
        assert!(out.neighbors.is_empty());
    }

    #[test]
    fn batch_matches_sequential_loop() {
        let index = line_index(300, 4);
        let queries: Vec<Vec<f32>> = (0..24).map(|i| vec![(i * 12) as f32 + 0.3, 0.0]).collect();
        let mut engine = TopKEngine::new();
        let sequential: Vec<TopKOutput> =
            queries.iter().map(|q| engine.query_topk(&index, q, 7)).collect();
        for threads in [Some(1), Some(3), Some(5), None] {
            let batch = index.query_topk_batch_with(&queries, 7, Strategy::Hybrid, threads);
            // TopKReport equality excludes wall time, so whole-output
            // equality is exactly the determinism contract.
            assert_eq!(batch, sequential, "threads {threads:?}");
        }
    }

    #[test]
    fn frozen_matches_map_backend() {
        let index = line_index(250, 3);
        let queries: Vec<Vec<f32>> = (0..16).map(|i| vec![(i * 15) as f32, 0.0]).collect();
        let map_out = index.query_topk_batch(&queries, 6);
        let frozen = index.freeze();
        let frozen_out = frozen.query_topk_batch(&queries, 6);
        assert_eq!(map_out, frozen_out, "frozen vs map");
        let thawed = frozen.thaw();
        assert_eq!(thawed.query_topk_batch(&queries, 6), map_out, "thawed vs map");
    }

    #[test]
    fn verify_modes_agree() {
        let index = line_index(220, 3);
        let mut kernel = TopKEngine::with_verify_mode(VerifyMode::Kernel);
        let mut scalar = TopKEngine::with_verify_mode(VerifyMode::Scalar);
        for i in 0..12 {
            let q = [(i * 17) as f32 + 0.5, 0.4];
            let a = kernel.query_topk(&index, &q[..], 9);
            let b = scalar.query_topk(&index, &q[..], 9);
            assert_eq!(a.neighbors, b.neighbors, "query {i}");
        }
    }

    #[test]
    fn deferred_levels_become_true_skips_under_the_exact_fallback() {
        // A 5-duplicate cluster at the query and a background too far
        // to ever collide: level 0 verifies the 5, deeper levels
        // estimate the same ≤ 5 candidates and are deferred, the heap
        // stays underfull (k = 8 > 5), and the exact fallback both
        // completes the answer and converts the deferrals into true
        // skips. The output must equal the brute-force top-k exactly.
        let mut rows: Vec<[f32; 2]> = (0..5).map(|_| [0.0f32, 0.0]).collect();
        rows.extend((0..120).map(|i| [1e5 + (i as f32) * 1e4, 7e4]));
        let data = DenseDataset::from_rows(2, rows.clone());
        let index = TopKIndex::build(data, RadiusSchedule::doubling(1.0, 4), |_, r| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(8)
                .hash_len(4)
                .seed(5)
                .cost_model(CostModel::from_ratio(1e9)) // always the LSH arm
        });
        let q = [0.0f32, 0.0];
        let out = index.query_topk(&q[..], 8);
        assert!(out.report.exact_fallback, "report: {:?}", out.report);
        assert!(out.report.levels_skipped > 0, "report: {:?}", out.report);
        assert_eq!(
            out.report.levels_skipped + out.report.levels_executed,
            4,
            "report: {:?}",
            out.report
        );
        // Exactness despite the skips.
        let mut truth: Vec<Neighbor> = rows
            .iter()
            .enumerate()
            .map(|(id, p)| Neighbor { id: id as PointId, dist: L2.distance(p, &q) })
            .collect();
        truth.sort();
        truth.truncate(8);
        assert_eq!(out.neighbors, truth);
    }

    #[test]
    fn deferred_levels_are_revisited_when_the_heap_fills_late() {
        // Level 0 verifies a 4-duplicate cluster (heap 4/6, underfull);
        // mid levels see the same ≤ 4 candidates and are deferred; the
        // last level's wide hashes finally pick up the mid-distance
        // band and fill the heap. The deferred levels must then be
        // revisited (counted as executed, not skipped) so a wrong
        // prediction can never silently lose a close neighbor.
        let mut rows: Vec<[f32; 2]> = (0..4).map(|_| [0.0f32, 0.0]).collect();
        rows.extend((0..80).map(|i| [20.0 + (i % 8) as f32 * 0.3, (i / 8) as f32 * 0.3]));
        let data = DenseDataset::from_rows(2, rows);
        let index = TopKIndex::build(data, RadiusSchedule::doubling(1.0, 6), |_, r| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(8)
                .hash_len(4)
                .seed(9)
                .cost_model(CostModel::from_ratio(1e9)) // always the LSH arm
        });
        let q = [0.0f32, 0.0];
        let out = index.query_topk(&q[..], 6);
        assert_eq!(out.neighbors.len(), 6);
        assert!(!out.report.exact_fallback, "report: {:?}", out.report);
        // Every deferred level was revisited: nothing may stay skipped
        // once the heap is full.
        assert_eq!(out.report.levels_skipped, 0, "report: {:?}", out.report);
        assert!(out.report.levels_executed >= 3, "report: {:?}", out.report);
        // The 4 duplicates rank first, then the nearest band points.
        assert_eq!(&out.ids()[..4], &[0, 1, 2, 3]);
    }

    #[test]
    fn early_exit_fires_on_dense_neighborhoods() {
        // 40 duplicates at the query point: level 0 already reports
        // k=5 neighbors at distance 0 ≤ r₀, so the walk must stop
        // after one executed level.
        let mut rows: Vec<[f32; 2]> = (0..40).map(|_| [5.0f32, 5.0]).collect();
        rows.extend((0..160).map(|i| [i as f32 * 10.0 + 100.0, 0.0]));
        let data = DenseDataset::from_rows(2, rows);
        let index = TopKIndex::build(data, RadiusSchedule::doubling(1.0, 4), |_, r| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(8)
                .hash_len(4)
                .seed(3)
                .cost_model(CostModel::from_ratio(4.0))
        });
        let out = index.query_topk(&[5.0f32, 5.0][..], 5);
        assert_eq!(out.neighbors.len(), 5);
        assert!(out.report.early_exit, "report: {:?}", out.report);
        assert_eq!(out.report.levels_executed, 1);
        assert!(!out.report.exact_fallback);
        assert!(out.neighbors.iter().all(|n| n.dist == 0.0));
        // Tie-break: the five smallest ids among the duplicates.
        assert_eq!(out.ids(), vec![0, 1, 2, 3, 4]);
    }
}
