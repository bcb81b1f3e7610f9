//! The one query core: parts, and the Algorithm-2 driver over them.
//!
//! Every served index flavour holds its points in *parts*: a frozen
//! shard with its owner map, a living shard's memtable with its live
//! rows, or one of its frozen segments with its tombstones (an
//! unsharded top-k level is a part whose rows are the ids). A part can
//!
//! - **probe** (S1): find the `L` colliding buckets and count their
//!   *live* members;
//! - **contribute** (S2): feed those buckets to a merge accumulator
//!   over **global** ids, so registers merged across parts equal the
//!   registers of one index over the union;
//! - run the **LSH arm** (dedup live members, verify, report global
//!   ids), the **linear arm** (scan its slab) and the top-k walk's
//!   exact-fallback **scan** (every live row with its distance).
//!
//! One driver, [`PartQueryEngine`], runs `summarize → decide → execute`
//! over a [`Level`] (a slice of parts sharing a sketch configuration, a
//! cost model and the live point count): the collision counts are
//! summed, one estimate is taken from the merged registers, [`decide`]
//! makes the Algorithm-2 choice once, and the chosen arm runs on every
//! part. An rNNR query is one driver run; a top-k schedule level is a
//! driver run with a skip threshold (see [`crate::topk::TopKWalk`]).
//! The distributed coordinator makes the same decision through
//! [`decide`] on statistics merged from remote shards.

use std::time::Instant;

use hlsh_families::LshFamily;
use hlsh_hll::{HllConfig, MergeAccumulator};
use hlsh_vec::{Distance, PointId, PointSet};

use crate::bucket::BucketRef;
use crate::cost::CostModel;
use crate::hasher::FxHashSet;
use crate::index::HybridLshIndex;
use crate::report::{QueryOutput, QueryReport};
use crate::schedule::RadiusSchedule;
use crate::search::{ExecutedArm, Strategy, VerifyMode};
use crate::segmented::{Rows, SegMeta};
use crate::sharded::ShardSummary;
use crate::store::BucketStore;

/// An index whose queries run through the shared driver: per level, the
/// parts holding its live points. rNNR indexes have the one level `0`.
pub trait Parts {
    /// The point type queries are given in.
    type Point: ?Sized;

    /// Number of live points.
    fn points(&self) -> usize;

    /// Level `li`'s parts with the level's shared configuration.
    fn level(&self, li: usize) -> Level<'_, Self::Point>;
}

/// A [`Parts`] index with one level per radius of a schedule.
pub trait Ladder: Parts {
    /// The radius schedule the levels were built for.
    fn ladder(&self) -> RadiusSchedule;
}

/// The parts of one level, with the configuration they share: the
/// sketch configuration, the cost model (resolved once on the full
/// data) and the live point count the linear arm is priced at.
pub struct Level<'a, P: ?Sized> {
    pub(crate) parts: Vec<Part<'a, P>>,
    pub(crate) hll: HllConfig,
    pub(crate) cost: CostModel,
    pub(crate) n: usize,
}

/// What a part's tables and slab can do, with the bucket store and the
/// point set erased.
pub(crate) trait Tables<P: ?Sized> {
    /// The probed buckets and their total size.
    fn buckets(&self, q: &P) -> (Vec<BucketRef<'_>>, usize);
    /// Appends the slab rows in `rows` within `r` of `q`, in order.
    fn verify(&self, rows: &[PointId], q: &P, r: f64, mode: VerifyMode, out: &mut Hits);
    /// Appends every slab row within `r` of `q`, ascending.
    fn scan(&self, q: &P, r: f64, mode: VerifyMode, out: &mut Hits);
    /// Every slab row with its distance, ascending.
    fn scan_all(&self, q: &P, mode: VerifyMode) -> Vec<(PointId, f64)>;
}

impl<S, F, D, B> Tables<S::Point> for HybridLshIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    fn buckets(&self, q: &S::Point) -> (Vec<BucketRef<'_>>, usize) {
        let (buckets, collisions, _) = self.probe(q);
        (buckets, collisions)
    }

    fn verify(&self, rows: &[PointId], q: &S::Point, r: f64, mode: VerifyMode, out: &mut Hits) {
        use hlsh_vec::metric::{verify_scalar, verify_scalar_dist};
        let (data, d) = (self.data(), self.distance());
        match (out, mode) {
            (Hits::Ids(v), VerifyMode::Kernel) => d.verify_many(data, rows, q, r, v),
            (Hits::Ids(v), VerifyMode::Scalar) => verify_scalar(d, data, rows, q, r, v),
            (Hits::Pairs(v), VerifyMode::Kernel) => d.verify_many_dist(data, rows, q, r, v),
            (Hits::Pairs(v), VerifyMode::Scalar) => verify_scalar_dist(d, data, rows, q, r, v),
        }
    }

    fn scan(&self, q: &S::Point, r: f64, mode: VerifyMode, out: &mut Hits) {
        use hlsh_vec::metric::{scan_scalar, scan_scalar_dist};
        let (data, d) = (self.data(), self.distance());
        match (out, mode) {
            (Hits::Ids(v), VerifyMode::Kernel) => d.scan_within(data, q, r, v),
            (Hits::Ids(v), VerifyMode::Scalar) => scan_scalar(d, data, q, r, v),
            (Hits::Pairs(v), VerifyMode::Kernel) => d.scan_within_dist(data, q, r, v),
            (Hits::Pairs(v), VerifyMode::Scalar) => scan_scalar_dist(d, data, q, r, v),
        }
    }

    /// One distance-returning pass at `r = ∞`. Rows that pass drops —
    /// only possible for a NaN distance — appear as gaps in the
    /// ascending row order and are completed by direct `distance()`
    /// calls, so the top-k fallback's exactly-`min(k, n)` guarantee
    /// holds even for NaN-coordinate points ([`crate::topk::Neighbor`]
    /// ranks NaN last).
    fn scan_all(&self, q: &S::Point, mode: VerifyMode) -> Vec<(PointId, f64)> {
        let (data, d) = (self.data(), self.distance());
        let mut out = Hits::Pairs(Vec::with_capacity(data.len()));
        self.scan(q, f64::INFINITY, mode, &mut out);
        let pairs = out.into_pairs();
        if pairs.len() == data.len() {
            return pairs;
        }
        let dist = |row: usize| (row as PointId, d.distance(data.point(row), q));
        let mut full = Vec::with_capacity(data.len());
        let mut next = 0usize;
        for (row, dd) in pairs {
            full.extend((next..row as usize).map(dist));
            full.push((row, dd));
            next = row as usize + 1;
        }
        full.extend((next..data.len()).map(dist));
        full
    }
}

/// Verified hits of one query: ids only (rNNR), or ids with the
/// distances the verification kernels computed (top-k).
#[derive(Debug)]
pub(crate) enum Hits {
    Ids(Vec<PointId>),
    Pairs(Vec<(PointId, f64)>),
}

impl Hits {
    pub(crate) fn into_ids(self) -> Vec<PointId> {
        match self {
            Hits::Ids(v) => v,
            Hits::Pairs(_) => unreachable!("distances were asked for"),
        }
    }

    pub(crate) fn into_pairs(self) -> Vec<(PointId, f64)> {
        match self {
            Hits::Pairs(v) => v,
            Hits::Ids(_) => unreachable!("only ids were asked for"),
        }
    }

    fn len(&self) -> usize {
        match self {
            Hits::Ids(v) => v.len(),
            Hits::Pairs(v) => v.len(),
        }
    }

    /// Maps the hits from `start` on from slab rows to global ids,
    /// dropping rows `global` reports dead.
    fn globalize(&mut self, start: usize, global: impl Fn(PointId) -> Option<PointId>) {
        match self {
            Hits::Ids(v) => remap(v, start, |id| id, |_, g| g, global),
            Hits::Pairs(v) => remap(v, start, |p| p.0, |p, g| (g, p.1), global),
        }
    }
}

fn remap<T: Copy>(
    v: &mut Vec<T>,
    start: usize,
    row: impl Fn(T) -> PointId,
    with: impl Fn(T, PointId) -> T,
    global: impl Fn(PointId) -> Option<PointId>,
) {
    let mut w = start;
    for i in start..v.len() {
        if let Some(g) = global(row(v[i])) {
            v[w] = with(v[i], g);
            w += 1;
        }
    }
    v.truncate(w);
}

/// How a part's bucket members and slab rows map to global ids.
#[derive(Clone, Copy)]
pub(crate) enum Ids<'a> {
    /// Members are slab rows and rows are the ids (an unsharded index).
    Rows,
    /// A frozen shard: members are global ids, `owners[row] = global`,
    /// `local_of[global] = row`.
    Owned { owners: &'a [PointId], local_of: &'a [PointId] },
    /// A memtable: members are slab rows; dead rows are filtered.
    Memtable(&'a Rows),
    /// A segment: members are global ids, stored ascending; tombstoned
    /// ids are filtered.
    Segment(&'a SegMeta),
}

/// One part: tables plus the id mapping their members and rows need.
pub(crate) struct Part<'a, P: ?Sized> {
    pub(crate) tables: &'a dyn Tables<P>,
    pub(crate) ids: Ids<'a>,
}

impl<'a, P: ?Sized> Part<'a, P> {
    /// Whether bucket member `m` is live.
    #[inline]
    fn live(&self, m: PointId) -> bool {
        match self.ids {
            Ids::Memtable(rows) => rows.live[m as usize],
            Ids::Segment(meta) => !meta.tombstones.contains(&m),
            Ids::Rows | Ids::Owned { .. } => true,
        }
    }

    /// Whether some member may be dead (otherwise counts are exact).
    fn filters(&self) -> bool {
        match self.ids {
            Ids::Memtable(_) => true,
            Ids::Segment(meta) => meta.is_dirty(),
            Ids::Rows | Ids::Owned { .. } => false,
        }
    }

    /// The slab row holding live member `m`.
    #[inline]
    fn row_of(&self, m: PointId) -> PointId {
        match self.ids {
            Ids::Owned { local_of, .. } => local_of[m as usize],
            Ids::Segment(meta) => {
                meta.ids.binary_search(&m).expect("segment member is indexed") as PointId
            }
            Ids::Rows | Ids::Memtable(_) => m,
        }
    }

    /// The global id of slab row `row`, `None` if the row is dead.
    fn global(&self, row: PointId) -> Option<PointId> {
        let row = row as usize;
        match self.ids {
            Ids::Rows => Some(row as PointId),
            Ids::Owned { owners, .. } => Some(owners[row]),
            Ids::Memtable(rows) => rows.live[row].then(|| rows.ids[row]),
            Ids::Segment(meta) => Some(meta.ids[row]).filter(|id| !meta.tombstones.contains(id)),
        }
    }

    fn globalize(&self, out: &mut Hits, start: usize) {
        if !matches!(self.ids, Ids::Rows) {
            out.globalize(start, |row| self.global(row));
        }
    }

    /// S1: the probed buckets and their live member count.
    pub(crate) fn probe(&self, q: &P) -> (Vec<BucketRef<'a>>, usize) {
        let (buckets, all) = self.tables.buckets(q);
        if !self.filters() {
            return (buckets, all);
        }
        let live = buckets.iter().map(|b| b.members().iter().filter(|&&m| self.live(m)).count());
        let live = live.sum();
        (buckets, live)
    }

    /// S2: merges the probed buckets into `acc` over global ids. Clean
    /// buckets ship their sketches (or raw members, which are already
    /// global); memtables and dirty segments feed their live members'
    /// global ids raw, since a sketch cannot retract an element.
    pub(crate) fn contribute(&self, buckets: &[BucketRef<'_>], acc: &mut MergeAccumulator) {
        for b in buckets {
            match self.ids {
                Ids::Memtable(rows) => acc.add_raw(
                    b.members()
                        .iter()
                        .filter(|&&m| rows.live[m as usize])
                        .map(|&m| rows.ids[m as usize] as u64),
                ),
                Ids::Segment(meta) if meta.is_dirty() => acc.add_raw(
                    b.members().iter().filter(|m| !meta.tombstones.contains(m)).map(|&m| m as u64),
                ),
                _ => b.contribute_to(acc),
            }
        }
    }

    /// The LSH arm: dedups the live colliding members in
    /// first-collision order, verifies them in one batched call against
    /// the part's slab and appends the accepted global ids. Returns the
    /// distinct candidate count.
    pub(crate) fn lsh(
        &self,
        q: &P,
        r: f64,
        buckets: &[BucketRef<'_>],
        scratch: &mut Scratch,
        out: &mut Hits,
    ) -> usize {
        let Scratch { seen, rows, verify, .. } = scratch;
        seen.clear();
        rows.clear();
        for b in buckets {
            for &m in b.members() {
                if self.live(m) && seen.insert(m) {
                    rows.push(self.row_of(m));
                }
            }
        }
        let start = out.len();
        self.tables.verify(rows, q, r, *verify, out);
        self.globalize(out, start);
        rows.len()
    }

    /// The linear arm: scans the slab, appends the live global ids.
    pub(crate) fn scan(&self, q: &P, r: f64, verify: VerifyMode, out: &mut Hits) {
        let start = out.len();
        self.tables.scan(q, r, verify, out);
        self.globalize(out, start);
    }

    /// Every live point with its global id and distance, in slab row
    /// order.
    pub(crate) fn scan_all(
        &self,
        q: &P,
        verify: VerifyMode,
    ) -> impl Iterator<Item = (PointId, f64)> + '_ {
        let pairs = self.tables.scan_all(q, verify).into_iter();
        pairs.filter_map(|(row, d)| self.global(row).map(|id| (id, d)))
    }

    /// This part's S1/S2 summary for one query, with the registers of a
    /// merge over only its own buckets.
    pub(crate) fn summary(&self, q: &P, hll: HllConfig, scratch: &mut Scratch) -> ShardSummary {
        let (buckets, collisions) = self.probe(q);
        let acc = scratch.accumulator(hll);
        self.contribute(&buckets, acc);
        ShardSummary { collisions: collisions as u64, registers: acc.registers().to_vec() }
    }

    /// The arm a remote decision chose, run on this part alone.
    fn arm(&self, q: &P, r: f64, lsh: bool, scratch: &mut Scratch, mut out: Hits) -> Hits {
        if lsh {
            let (buckets, _) = self.probe(q);
            self.lsh(q, r, &buckets, scratch, &mut out);
        } else {
            self.scan(q, r, scratch.verify, &mut out);
        }
        out
    }

    /// [`arm`](Self::arm) reporting global ids, ascending.
    pub(crate) fn arm_ids(&self, q: &P, r: f64, lsh: bool, scratch: &mut Scratch) -> Vec<PointId> {
        let mut ids = self.arm(q, r, lsh, scratch, Hits::Ids(Vec::new())).into_ids();
        ids.sort_unstable();
        ids
    }
}

/// What Algorithm 2 does with one query's merged statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Run neither arm now: the estimate does not exceed the skip
    /// threshold (a top-k level predicted to hold nothing new).
    Defer,
    /// Run the LSH arm.
    Lsh,
    /// Run the linear scan.
    Linear,
}

/// The Algorithm-2 decision, made once per query on merged statistics:
/// defer when the candidate estimate is at most `skip_at_most`
/// (`f64::NEG_INFINITY` never defers), otherwise run the arm the
/// strategy forces or, under [`Strategy::Hybrid`], the cheaper one
/// under `cost` against `n` live points.
pub fn decide(
    strategy: Strategy,
    cost: CostModel,
    n: usize,
    collisions: usize,
    estimate: f64,
    skip_at_most: f64,
) -> Decision {
    if estimate <= skip_at_most {
        return Decision::Defer;
    }
    let lsh = match strategy {
        Strategy::Hybrid => cost.prefer_lsh(collisions, estimate, n),
        Strategy::LshOnly => true,
        Strategy::LinearOnly => false,
    };
    if lsh {
        Decision::Lsh
    } else {
        Decision::Linear
    }
}

/// Clears and returns the accumulator in `slot` for `config`, recreating
/// it only when the configuration changes.
pub(crate) fn ensure_accumulator(
    slot: &mut Option<MergeAccumulator>,
    config: HllConfig,
) -> &mut MergeAccumulator {
    match &mut *slot {
        Some(acc) if acc.config() == config => acc.clear(),
        other => *other = Some(MergeAccumulator::new(config)),
    }
    slot.as_mut().expect("accumulator just ensured")
}

/// Reusable per-thread scratch of the driver: the dedup set, the
/// candidate rows, the merge accumulator and the S3 verification mode.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    seen: FxHashSet<PointId>,
    rows: Vec<PointId>,
    acc: Option<MergeAccumulator>,
    pub(crate) verify: VerifyMode,
}

impl Scratch {
    pub(crate) fn with_verify_mode(verify: VerifyMode) -> Self {
        Self { verify, ..Self::default() }
    }

    fn accumulator(&mut self, config: HllConfig) -> &mut MergeAccumulator {
        ensure_accumulator(&mut self.acc, config)
    }

    /// `summarize → decide → execute` for one query over `level`,
    /// appending the hits to `out`. A deferred run (estimate at most
    /// `skip_at_most`) executes nothing and reports no arm.
    pub(crate) fn run<P: ?Sized>(
        &mut self,
        level: &Level<'_, P>,
        q: &P,
        r: f64,
        strategy: Strategy,
        skip_at_most: f64,
        out: &mut Hits,
    ) -> Run {
        let mut run = Run::default();
        if matches!(strategy, Strategy::LinearOnly) {
            for part in &level.parts {
                part.scan(q, r, self.verify, out);
            }
            run.arm = Some(ExecutedArm::Linear);
            return run;
        }
        // S1 on every part: the live bucket sizes sum to the global
        // collision count (the parts' buckets partition it).
        let t = Instant::now();
        let probed: Vec<_> = level.parts.iter().map(|p| p.probe(q)).collect();
        run.collisions = probed.iter().map(|(_, c)| c).sum();
        run.hash_nanos = t.elapsed().as_nanos() as u64;
        // S2 on one accumulator over every part: register-wise max is
        // associative, so this equals one index's merged sketch. A
        // forced LSH query with nothing to skip has no use for it.
        if matches!(strategy, Strategy::Hybrid) || skip_at_most > f64::NEG_INFINITY {
            let t = Instant::now();
            let acc = self.accumulator(level.hll);
            for (part, (buckets, _)) in level.parts.iter().zip(&probed) {
                part.contribute(buckets, acc);
            }
            run.estimate = acc.estimate();
            run.hll_nanos = t.elapsed().as_nanos() as u64;
        }
        match decide(strategy, level.cost, level.n, run.collisions, run.estimate, skip_at_most) {
            Decision::Defer => {}
            Decision::Lsh => {
                let mut distinct = 0;
                for (part, (buckets, _)) in level.parts.iter().zip(&probed) {
                    distinct += part.lsh(q, r, buckets, self, out);
                }
                run.arm = Some(ExecutedArm::Lsh);
                run.distinct = Some(distinct);
            }
            Decision::Linear => {
                for part in &level.parts {
                    part.scan(q, r, self.verify, out);
                }
                run.arm = Some(ExecutedArm::Linear);
            }
        }
        run
    }
}

/// The statistics of one driver run.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Run {
    /// The arm that ran; `None` when the run was deferred.
    pub(crate) arm: Option<ExecutedArm>,
    pub(crate) collisions: usize,
    pub(crate) estimate: f64,
    pub(crate) distinct: Option<usize>,
    pub(crate) hash_nanos: u64,
    pub(crate) hll_nanos: u64,
}

/// Reusable scratch for rNNR queries over any [`Parts`] index (sharded
/// or living): S1 probes every part, S2 merges every probed sketch into
/// one accumulator, the Algorithm-2 decision compares the *global*
/// costs once, and the chosen arm runs on every part. Ids are reported
/// ascending, and the id set equals the unsharded index's under the
/// same strategy.
#[derive(Debug, Default)]
pub struct PartQueryEngine {
    scratch: Scratch,
}

impl PartQueryEngine {
    /// Engine with empty scratch and the default kernel verify mode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with an explicit S3 verification mode.
    pub fn with_verify_mode(verify: VerifyMode) -> Self {
        Self { scratch: Scratch::with_verify_mode(verify) }
    }

    /// The S3 verification mode in force.
    pub fn verify_mode(&self) -> VerifyMode {
        self.scratch.verify
    }

    /// Hybrid query with reused scratch.
    pub fn query<I: Parts + ?Sized>(&mut self, index: &I, q: &I::Point, r: f64) -> QueryOutput {
        self.query_with_strategy(index, q, r, Strategy::Hybrid)
    }

    /// Runs one query across every part under `strategy`.
    pub fn query_with_strategy<I: Parts + ?Sized>(
        &mut self,
        index: &I,
        q: &I::Point,
        r: f64,
        strategy: Strategy,
    ) -> QueryOutput {
        let t = Instant::now();
        let mut hits = Hits::Ids(Vec::new());
        let run = self.scratch.run(&index.level(0), q, r, strategy, f64::NEG_INFINITY, &mut hits);
        let mut ids = hits.into_ids();
        ids.sort_unstable();
        let cand_size_estimate = match (strategy, run.distinct) {
            // Mirrors the unsharded LshOnly report: the exact count.
            (Strategy::LshOnly, Some(distinct)) => distinct as f64,
            _ => run.estimate,
        };
        QueryOutput {
            report: QueryReport {
                executed: run.arm.expect("an rNNR run never defers"),
                collisions: run.collisions,
                cand_size_estimate,
                cand_size_actual: run.distinct,
                output_size: ids.len(),
                hash_nanos: run.hash_nanos,
                hll_nanos: run.hll_nanos,
                total_nanos: t.elapsed().as_nanos() as u64,
            },
            ids,
        }
    }
}

/// [`PartQueryEngine::query_with_strategy`] over a batch, fanned across
/// scoped threads (one engine each); outputs in input order.
pub(crate) fn query_batch<I, Q>(
    index: &I,
    queries: &[Q],
    r: f64,
    strategy: Strategy,
    threads: Option<usize>,
) -> Vec<QueryOutput>
where
    I: Parts + Sync + ?Sized,
    Q: AsRef<I::Point> + Sync,
{
    hlsh_vec::parallel::par_map_with(queries.len(), threads, PartQueryEngine::new, |e, qi| {
        e.query_with_strategy(index, queries[qi].as_ref(), r, strategy)
    })
}

/// A distributed shard node's per-part work over a batch, fanned across
/// scoped threads; `part()` names the node's part. Every call verifies
/// in the default [`VerifyMode::Kernel`], as the serving engines do.
pub(crate) struct PartBatch<'q, Q, G> {
    pub(crate) part: G,
    pub(crate) queries: &'q [Q],
    pub(crate) threads: Option<usize>,
}

impl<'a, 'q, P, Q, G> PartBatch<'q, Q, G>
where
    P: ?Sized + 'a,
    Q: AsRef<P> + Sync,
    G: Fn() -> Part<'a, P> + Sync,
{
    fn map<T: Send>(&self, f: impl Fn(&Part<'a, P>, &P, &mut Scratch) -> T + Sync) -> Vec<T> {
        let queries = self.queries;
        hlsh_vec::parallel::par_map_with(queries.len(), self.threads, Scratch::default, |s, qi| {
            f(&(self.part)(), queries[qi].as_ref(), s)
        })
    }

    /// Per query, the part's S1/S2 summary.
    pub(crate) fn summaries(&self, hll: HllConfig) -> Vec<ShardSummary> {
        self.map(|part, q, s| part.summary(q, hll, s))
    }

    /// Per query, the chosen arm's global ids, ascending.
    pub(crate) fn arm_ids(&self, r: f64, lsh: bool) -> Vec<Vec<PointId>> {
        self.map(|part, q, s| part.arm_ids(q, r, lsh, s))
    }

    /// Per query, the chosen arm's `(global id, distance)` pairs in the
    /// order the in-process walk offers them.
    pub(crate) fn arm_pairs(&self, r: f64, lsh: bool) -> Vec<Vec<(PointId, f64)>> {
        self.map(|part, q, s| part.arm(q, r, lsh, s, Hits::Pairs(Vec::new())).into_pairs())
    }

    /// Per query, every live point of the part with its distance.
    pub(crate) fn scans(&self) -> Vec<Vec<(PointId, f64)>> {
        self.map(|part, q, s| part.scan_all(q, s.verify).collect())
    }
}
