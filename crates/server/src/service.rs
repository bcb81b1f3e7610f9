//! The [`QueryService`] trait and its implementations bridging the
//! wire to the in-process batch engines.
//!
//! The trait (and [`ServiceError`], its failure type) is what the
//! event-loop server in [`crate::server`] executes against; three
//! deployments implement it here:
//!
//! * [`ShardedLshService`] — the standalone server: answers client
//!   frames by running the full sharded engines in-process.
//! * [`ShardNodeService`] — one node of a distributed deployment: the
//!   same indexes, but *additionally* answering the shard-extension
//!   frames (`0x10..=0x1F`) a
//!   [`Coordinator`](crate::coordinator::Coordinator) uses to fan one
//!   logical query across machines.
//! * [`LiveLshService`] — the living index: LSM-segmented indexes
//!   behind a reader-writer lock, accepting `Insert`/`Delete` frames
//!   while queries stay byte-identical to a rebuild on the surviving
//!   points.

use std::sync::RwLock;

use hlsh_core::{
    FrozenStore, SegmentedIndex, SegmentedQueryEngine, SegmentedTopKEngine, SegmentedTopKIndex,
    ShardedIndex, ShardedTopKIndex, Strategy,
};
use hlsh_families::LshFamily;
use hlsh_vec::{Distance, PointId, PointSet};

use crate::protocol::{
    ErrorCode, QueryBlock, ServerInfo, ShardInfo, ShardLevelInfo, ShardParams, ShardRequest,
    ShardResponse, ShardSummaryEntry, ShardTarget,
};

/// A service-level failure: what the server encodes into a
/// [`kind::ERROR`](crate::protocol::kind::ERROR) frame when a batch
/// cannot be answered. Distinct from
/// [`WireError`](crate::protocol::WireError), which covers byte-level
/// decode problems — a `ServiceError` means the
/// request parsed fine but could not be executed (no top-k ladder, a
/// shard backend down, an internal failure).
#[derive(Clone, Debug)]
pub struct ServiceError {
    /// The wire code clients see.
    pub code: ErrorCode,
    /// Human-readable diagnostic.
    pub message: String,
}

impl ServiceError {
    /// A valid request this deployment cannot serve.
    pub fn unsupported(message: impl Into<String>) -> Self {
        Self { code: ErrorCode::Unsupported, message: message.into() }
    }

    /// A backend dependency is down or timed out.
    pub fn unavailable(message: impl Into<String>) -> Self {
        Self { code: ErrorCode::Unavailable, message: message.into() }
    }

    /// The service failed internally.
    pub fn internal(message: impl Into<String>) -> Self {
        Self { code: ErrorCode::Internal, message: message.into() }
    }

    /// The request's parameters don't fit this index (e.g. a ladder
    /// level out of range).
    pub fn malformed(message: impl Into<String>) -> Self {
        Self { code: ErrorCode::Malformed, message: message.into() }
    }

    /// A vector's dimensionality doesn't match the index's.
    pub fn dim_mismatch(expected: u32, got: u32) -> Self {
        Self {
            code: ErrorCode::DimMismatch,
            message: format!("index dimension is {expected}, request carries {got}"),
        }
    }

    /// A delete named an id that is not live.
    pub fn unknown_id(id: PointId) -> Self {
        Self { code: ErrorCode::UnknownId, message: format!("id {id} is not live in the index") }
    }

    /// An insert named an id that is already live (or repeated one
    /// within the batch).
    pub fn duplicate_id(id: PointId) -> Self {
        Self {
            code: ErrorCode::DuplicateId,
            message: format!("id {id} is already live in the index"),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServiceError {}

/// What a server serves: batch entry points over some index.
///
/// The two required methods mirror the in-process batch APIs —
/// [`ShardedIndex::query_batch`](hlsh_core::ShardedIndex::query_batch)
/// and [`ShardedTopKIndex::query_topk_batch`](hlsh_core::ShardedTopKIndex::query_topk_batch)
/// — and the byte-identity contract is inherited from them: whatever a
/// service returns here is exactly what clients decode. Errors become
/// [`kind::ERROR`](crate::protocol::kind::ERROR) frames carrying the
/// [`ServiceError`]'s code, one per affected request.
pub trait QueryService: Send + Sync + 'static {
    /// Index metadata for [`Request::Info`](crate::protocol::Request::Info)
    /// and dimension validation.
    fn info(&self) -> ServerInfo;

    /// Ids within `radius` of each query, ascending per query.
    /// `threads` is the scoped-thread budget (`None` = all cores).
    fn rnnr_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f64,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<PointId>>, ServiceError>;

    /// The `min(k, n)` nearest `(id, distance)` pairs per query in
    /// ascending `(distance, id)` order;
    /// [`ServiceError::unsupported`] if this deployment has no top-k
    /// ladder.
    fn topk_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError>;

    /// Answers one shard-extension request (coordinator → shard
    /// traffic, kinds `0x10..=0x1F`). The default refuses: only shard
    /// nodes implement this, and a coordinator that accidentally dials
    /// a plain standalone server gets a typed error instead of silence.
    ///
    /// Shard frames bypass the admission batcher — the caller *is* a
    /// coordinator that already batched an entire client request, so
    /// lingering for more concurrency would only add latency. The
    /// event loop runs them on detached worker threads so a
    /// multi-second fan-out never stalls connection I/O.
    fn shard_batch(
        &self,
        request: &ShardRequest,
        threads: Option<usize>,
    ) -> Result<ShardResponse, ServiceError> {
        let _ = (request, threads);
        Err(ServiceError::unsupported("this server is not a shard node"))
    }

    /// Inserts `ids[i]` ↦ row `i` of `points`, all-or-nothing: on any
    /// [`ErrorCode::DimMismatch`] / [`ErrorCode::DuplicateId`] nothing
    /// is applied. Returns the number inserted (the full batch). The
    /// default refuses: deployments serving a frozen corpus are not
    /// mutable — only a living index ([`LiveLshService`]) accepts
    /// mutations.
    fn insert_batch(&self, ids: &[PointId], points: &QueryBlock) -> Result<u32, ServiceError> {
        let _ = (ids, points);
        Err(ServiceError::unsupported("this server's index is frozen; mutation needs --live"))
    }

    /// Deletes the points with these ids, all-or-nothing: on any
    /// [`ErrorCode::UnknownId`] (not live, or repeated in the batch)
    /// nothing is applied. Returns the number deleted. Default refuses
    /// like [`insert_batch`](QueryService::insert_batch).
    fn delete_batch(&self, ids: &[PointId]) -> Result<u32, ServiceError> {
        let _ = ids;
        Err(ServiceError::unsupported("this server's index is frozen; mutation needs --live"))
    }
}

/// The standard deployment: a frozen [`ShardedIndex`] for rNNR traffic
/// plus (optionally) a frozen [`ShardedTopKIndex`] ladder for top-k
/// traffic, both over the same data and dimensionality.
///
/// Requests route through the sharded batch entry points, so one
/// admission-batcher tick fans its combined queries over scoped
/// threads *and* every query over the index shards — exactly the
/// in-process execution stack, which is why socket responses are
/// byte-identical to calling
/// [`query_batch`](ShardedIndex::query_batch) /
/// [`query_topk_batch`](ShardedTopKIndex::query_topk_batch) directly.
pub struct ShardedLshService<S, F, D>
where
    S: PointSet<Point = [f32]>,
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    rnnr: ShardedIndex<S, F, D, FrozenStore>,
    topk: Option<ShardedTopKIndex<S, F, D, FrozenStore>>,
    dim: u32,
}

impl<S, F, D> ShardedLshService<S, F, D>
where
    S: PointSet<Point = [f32]>,
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// Wraps frozen sharded indexes for serving. `dim` is the vector
    /// dimensionality requests are validated against.
    pub fn new(
        rnnr: ShardedIndex<S, F, D, FrozenStore>,
        topk: Option<ShardedTopKIndex<S, F, D, FrozenStore>>,
        dim: usize,
    ) -> Self {
        if let Some(t) = &topk {
            assert_eq!(t.len(), rnnr.len(), "rNNR and top-k indexes must cover the same data");
        }
        Self { rnnr, topk, dim: dim as u32 }
    }

    /// The rNNR index being served.
    pub fn rnnr_index(&self) -> &ShardedIndex<S, F, D, FrozenStore> {
        &self.rnnr
    }

    /// The top-k ladder being served, if any.
    pub fn topk_index(&self) -> Option<&ShardedTopKIndex<S, F, D, FrozenStore>> {
        self.topk.as_ref()
    }

    /// The vector dimensionality requests are validated against.
    pub fn dim(&self) -> u32 {
        self.dim
    }
}

impl<S, F, D> QueryService for ShardedLshService<S, F, D>
where
    S: PointSet<Point = [f32]> + Send + Sync + 'static,
    F: LshFamily<[f32]> + Sync + 'static,
    F::GFn: Send + Sync,
    D: Distance<[f32]> + Send + Sync + 'static,
{
    fn info(&self) -> ServerInfo {
        ServerInfo {
            points: self.rnnr.len() as u64,
            dim: self.dim,
            shards: self.rnnr.assignment().shards() as u32,
            topk_levels: self.topk.as_ref().map_or(0, |t| t.schedule().levels() as u32),
        }
    }

    fn rnnr_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f64,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<PointId>>, ServiceError> {
        Ok(self
            .rnnr
            .query_batch_with_strategy(queries, radius, Strategy::Hybrid, threads)
            .into_iter()
            .map(|o| o.ids)
            .collect())
    }

    fn topk_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError> {
        let topk = self
            .topk
            .as_ref()
            .ok_or_else(|| ServiceError::unsupported("this server has no top-k ladder"))?;
        Ok(topk
            .query_topk_batch_with(queries, k, Strategy::Hybrid, threads)
            .into_iter()
            .map(|o| o.neighbors.iter().map(|n| (n.id, n.dist)).collect())
            .collect())
    }
}

/// One node of a distributed deployment: shard `shard_id` of the
/// assignment, answering the shard-extension frames a
/// [`Coordinator`](crate::coordinator::Coordinator) speaks.
///
/// Every node loads the **same** snapshot (the full sharded index —
/// shard tables are small next to the vector slabs, and mmap loading
/// pages in only what a node touches), but answers summaries and arm
/// executions *for its assigned shard only*. Because the build is
/// deterministic from the shared seed, every node agrees on the
/// assignment, the hash functions and the global ids — which is what
/// makes the coordinator's merged answers byte-identical to a
/// single-process run.
///
/// Plain client frames still work (delegated to the wrapped
/// [`ShardedLshService`]), so a shard node can be queried directly for
/// debugging — handy when bisecting a distributed-vs-local mismatch.
pub struct ShardNodeService<S, F, D>
where
    S: PointSet<Point = [f32]>,
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    inner: ShardedLshService<S, F, D>,
    shard_id: u32,
}

impl<S, F, D> ShardNodeService<S, F, D>
where
    S: PointSet<Point = [f32]>,
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// Wraps a service as shard `shard_id` of its index's assignment.
    ///
    /// # Panics
    /// Panics if `shard_id` is out of range for the assignment.
    pub fn new(inner: ShardedLshService<S, F, D>, shard_id: u32) -> Self {
        let shards = inner.rnnr_index().assignment().shards();
        assert!(
            (shard_id as usize) < shards,
            "shard id {shard_id} out of range for a {shards}-shard assignment"
        );
        Self { inner, shard_id }
    }

    /// The shard this node answers for.
    pub fn shard_id(&self) -> u32 {
        self.shard_id
    }

    /// The wrapped standalone service.
    pub fn inner(&self) -> &ShardedLshService<S, F, D> {
        &self.inner
    }

    /// Validates a query block's dimensionality and unpacks its rows.
    fn check_rows(&self, queries: &QueryBlock) -> Result<Vec<Vec<f32>>, ServiceError> {
        let dim = self.inner.dim();
        if queries.count() > 0 && queries.dim != dim {
            return Err(ServiceError {
                code: ErrorCode::DimMismatch,
                message: format!("index dimension is {dim}, request carries {}", queries.dim),
            });
        }
        Ok(queries.rows())
    }

    /// Resolves a wire target to a validated ladder level — `None` for
    /// the rNNR index.
    fn check_target(&self, target: ShardTarget) -> Result<Option<usize>, ServiceError> {
        match target {
            ShardTarget::Rnnr => Ok(None),
            ShardTarget::TopKLevel(li) => {
                let levels = self.inner.topk_index().map_or(0, |t| t.schedule().levels() as u32);
                if levels == 0 {
                    return Err(ServiceError::unsupported("this shard node has no top-k ladder"));
                }
                if li >= levels {
                    return Err(ServiceError::malformed(format!(
                        "ladder level {li} out of range ({levels} levels)"
                    )));
                }
                Ok(Some(li as usize))
            }
        }
    }
}

fn params_of(hll: hlsh_hll::HllConfig, cost: hlsh_core::CostModel) -> ShardParams {
    ShardParams {
        hll_precision: hll.precision(),
        hll_seed: hll.seed(),
        alpha: cost.alpha(),
        beta_scan: cost.beta(),
        beta_cand: cost.beta_cand(),
    }
}

impl<S, F, D> QueryService for ShardNodeService<S, F, D>
where
    S: PointSet<Point = [f32]> + Send + Sync + 'static,
    F: LshFamily<[f32]> + Sync + 'static,
    F::GFn: Send + Sync,
    D: Distance<[f32]> + Send + Sync + 'static,
{
    fn info(&self) -> ServerInfo {
        self.inner.info()
    }

    fn rnnr_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f64,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<PointId>>, ServiceError> {
        self.inner.rnnr_batch(queries, radius, threads)
    }

    fn topk_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError> {
        self.inner.topk_batch(queries, k, threads)
    }

    fn shard_batch(
        &self,
        request: &ShardRequest,
        threads: Option<usize>,
    ) -> Result<ShardResponse, ServiceError> {
        let rnnr = self.inner.rnnr_index();
        let shard = self.shard_id as usize;
        match request {
            ShardRequest::Info => {
                let levels = match self.inner.topk_index() {
                    Some(t) => (0..t.schedule().levels())
                        .map(|li| ShardLevelInfo {
                            radius: t.schedule().radius(li),
                            params: params_of(t.level_hll_config(li), t.level_cost_model(li)),
                        })
                        .collect(),
                    None => Vec::new(),
                };
                Ok(ShardResponse::Info(ShardInfo {
                    shard_id: self.shard_id,
                    shards: rnnr.assignment().shards() as u32,
                    points: rnnr.len() as u64,
                    dim: self.inner.dim(),
                    rnnr: params_of(rnnr.hll_config(), rnnr.cost_model()),
                    levels,
                }))
            }
            ShardRequest::Summarize { target, queries } => {
                let rows = self.check_rows(queries)?;
                let summaries = match self.check_target(*target)? {
                    None => rnnr.shard_summaries(shard, &rows, threads),
                    Some(li) => self
                        .inner
                        .topk_index()
                        .expect("check_target verified the ladder exists")
                        .shard_level_summaries(shard, li, &rows, threads),
                };
                Ok(ShardResponse::Summaries(
                    summaries
                        .into_iter()
                        .map(|s| ShardSummaryEntry {
                            collisions: s.collisions,
                            registers: s.registers,
                        })
                        .collect(),
                ))
            }
            ShardRequest::Execute { target, arm, radius, queries } => {
                if !radius.is_finite() || *radius < 0.0 {
                    return Err(ServiceError::malformed(format!(
                        "radius must be finite and non-negative, got {radius}"
                    )));
                }
                let rows = self.check_rows(queries)?;
                let lsh = matches!(arm, crate::protocol::Arm::Lsh);
                match self.check_target(*target)? {
                    None => Ok(ShardResponse::Ids(
                        rnnr.shard_arm_batch(shard, &rows, *radius, lsh, threads),
                    )),
                    Some(li) => {
                        let t = self
                            .inner
                            .topk_index()
                            .expect("check_target verified the ladder exists");
                        Ok(ShardResponse::Pairs(
                            t.shard_level_arm_batch(shard, li, &rows, *radius, lsh, threads),
                        ))
                    }
                }
            }
            ShardRequest::Scan { queries } => {
                let rows = self.check_rows(queries)?;
                let t = self.inner.topk_index().ok_or_else(|| {
                    ServiceError::unsupported("this shard node has no top-k ladder")
                })?;
                Ok(ShardResponse::Pairs(t.shard_fallback_scan_batch(shard, &rows, threads)))
            }
        }
    }

    // A shard node must never mutate its slice of the corpus out from
    // under the coordinator — every node would need the same mutation
    // in the same order to keep the global merge byte-identical, and
    // this protocol has no such replication. Reject with a typed error
    // naming the right place to mutate.
    fn insert_batch(&self, ids: &[PointId], points: &QueryBlock) -> Result<u32, ServiceError> {
        let _ = (ids, points);
        Err(ServiceError::unsupported(
            "shard nodes refuse mutation (it would desync the coordinator); \
             mutate a standalone --live server instead",
        ))
    }

    fn delete_batch(&self, ids: &[PointId]) -> Result<u32, ServiceError> {
        let _ = ids;
        Err(ServiceError::unsupported(
            "shard nodes refuse mutation (it would desync the coordinator); \
             mutate a standalone --live server instead",
        ))
    }
}

/// The living-index deployment: LSM-segmented indexes behind a
/// reader-writer lock, so the server keeps answering queries while the
/// corpus churns under [`Request::Insert`](crate::protocol::Request::Insert)
/// and [`Request::Delete`](crate::protocol::Request::Delete) frames.
///
/// Mutations take the write lock and apply to the rNNR index and the
/// top-k ladder (when present) in lockstep, so both always cover the
/// same live id set. Queries take the read lock and run the segmented
/// engines, whose answers are byte-identical to an index rebuilt from
/// scratch on the surviving points — the contract
/// `tests/mutable_props.rs` pins and the CI churn smoke checks over
/// this very service.
pub struct LiveLshService<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    rnnr: RwLock<SegmentedIndex<F, D>>,
    topk: Option<RwLock<SegmentedTopKIndex<F, D>>>,
    dim: u32,
}

impl<F, D> LiveLshService<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// Wraps segmented indexes for serving. Both must be built over
    /// the same corpus (same live ids) and the same dimensionality.
    pub fn new(rnnr: SegmentedIndex<F, D>, topk: Option<SegmentedTopKIndex<F, D>>) -> Self {
        let dim = rnnr.dim() as u32;
        if let Some(t) = &topk {
            assert_eq!(t.dim(), rnnr.dim(), "rNNR and top-k ladders must share dimensionality");
            assert_eq!(t.len(), rnnr.len(), "rNNR and top-k indexes must cover the same data");
        }
        Self { rnnr: RwLock::new(rnnr), topk: topk.map(RwLock::new), dim }
    }

    /// The vector dimensionality requests are validated against.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Runs `f` over the live rNNR index under the read lock — how the
    /// churn smoke compares served state against a rebuild oracle.
    pub fn with_rnnr<R>(&self, f: impl FnOnce(&SegmentedIndex<F, D>) -> R) -> R {
        f(&self.rnnr.read().expect("rnnr lock poisoned"))
    }
}

/// Maps a core [`hlsh_core::MutationError`] onto the wire's error
/// vocabulary.
fn mutation_error(e: hlsh_core::MutationError) -> ServiceError {
    match e {
        hlsh_core::MutationError::DuplicateId { id } => ServiceError::duplicate_id(id),
        hlsh_core::MutationError::UnknownId { id } => ServiceError::unknown_id(id),
        hlsh_core::MutationError::DimMismatch { expected, got } => {
            ServiceError::dim_mismatch(expected as u32, got as u32)
        }
    }
}

impl<F, D> QueryService for LiveLshService<F, D>
where
    F: LshFamily<[f32]> + Clone + Send + Sync + 'static,
    F::GFn: Send + Sync,
    D: Distance<[f32]> + Clone + Send + Sync + 'static,
{
    fn info(&self) -> ServerInfo {
        let rnnr = self.rnnr.read().expect("rnnr lock poisoned");
        ServerInfo {
            points: rnnr.len() as u64,
            dim: self.dim,
            shards: rnnr.assignment().shards() as u32,
            topk_levels: self
                .topk
                .as_ref()
                .map_or(0, |t| t.read().expect("topk lock poisoned").schedule().levels() as u32),
        }
    }

    fn rnnr_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f64,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<PointId>>, ServiceError> {
        // Sequential on purpose: one engine's scratch is reused across
        // the batch, and the reference box is single-core anyway. The
        // per-query answers are byte-identical either way.
        let _ = threads;
        let rnnr = self.rnnr.read().map_err(|_| ServiceError::internal("rnnr lock poisoned"))?;
        let mut engine = SegmentedQueryEngine::new();
        Ok(queries
            .iter()
            .map(|q| engine.query_with_strategy(&*rnnr, q, radius, Strategy::Hybrid).ids)
            .collect())
    }

    fn topk_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError> {
        let _ = threads;
        let topk = self
            .topk
            .as_ref()
            .ok_or_else(|| ServiceError::unsupported("this server has no top-k ladder"))?;
        let topk = topk.read().map_err(|_| ServiceError::internal("topk lock poisoned"))?;
        let mut engine = SegmentedTopKEngine::new();
        Ok(queries
            .iter()
            .map(|q| {
                engine.query_topk(&*topk, q, k).neighbors.iter().map(|n| (n.id, n.dist)).collect()
            })
            .collect())
    }

    fn insert_batch(&self, ids: &[PointId], points: &QueryBlock) -> Result<u32, ServiceError> {
        if points.dim != self.dim && !ids.is_empty() {
            return Err(ServiceError::dim_mismatch(self.dim, points.dim));
        }
        // Lock order is always rNNR then ladder (mirrored by
        // delete_batch), and validation completes against the rNNR
        // index before either structure is touched — the batch either
        // fully applies to both or to neither.
        let mut rnnr =
            self.rnnr.write().map_err(|_| ServiceError::internal("rnnr lock poisoned"))?;
        let mut batch = std::collections::HashSet::with_capacity(ids.len());
        for &id in ids {
            if !batch.insert(id) || rnnr.contains(id) {
                return Err(ServiceError::duplicate_id(id));
            }
        }
        let rows = points.rows();
        for (&id, row) in ids.iter().zip(&rows) {
            rnnr.insert(id, row).map_err(mutation_error)?;
        }
        if let Some(topk) = &self.topk {
            let mut topk =
                topk.write().map_err(|_| ServiceError::internal("topk lock poisoned"))?;
            for (&id, row) in ids.iter().zip(&rows) {
                topk.insert(id, row).map_err(mutation_error)?;
            }
        }
        Ok(ids.len() as u32)
    }

    fn delete_batch(&self, ids: &[PointId]) -> Result<u32, ServiceError> {
        let mut rnnr =
            self.rnnr.write().map_err(|_| ServiceError::internal("rnnr lock poisoned"))?;
        let mut batch = std::collections::HashSet::with_capacity(ids.len());
        for &id in ids {
            if !batch.insert(id) || !rnnr.contains(id) {
                return Err(ServiceError::unknown_id(id));
            }
        }
        for &id in ids {
            rnnr.delete(id).map_err(mutation_error)?;
        }
        if let Some(topk) = &self.topk {
            let mut topk =
                topk.write().map_err(|_| ServiceError::internal("topk lock poisoned"))?;
            for &id in ids {
                topk.delete(id).map_err(mutation_error)?;
            }
        }
        Ok(ids.len() as u32)
    }
}
