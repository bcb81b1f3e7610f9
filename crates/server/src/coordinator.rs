//! The distributed coordinator: one [`QueryService`] whose shards live
//! on other machines.
//!
//! # Data flow
//!
//! ```text
//!  client ──(client protocol, unchanged)──► coordinator
//!                                              │ 1. SHARD_SUMMARIZE to every shard
//!                                              ▼
//!                          shard 0 … shard N-1: probe own tables,
//!                          sum bucket sizes, merge own sketches,
//!                          return (collisions, HLL registers)
//!                                              │ 2. merge globally:
//!                                              │    Σ collisions,
//!                                              │    register-wise max,
//!                                              │    estimate once,
//!                                              │    Algorithm 2 once
//!                                              │ 3. SHARD_EXECUTE the
//!                                              │    chosen arm
//!                                              ▼
//!                          shards verify candidates / scan slabs,
//!                          return global ids (+ distances)
//!                                              │ 4. concatenate, sort,
//!                                              ▼    encode
//!  client ◄───────────────────────────────── response
//! ```
//!
//! The merge in step 2 is what keeps the hybrid decision *global*: HLL
//! register-wise `max` is associative and commutative, so max-merging
//! per-shard partial merges yields bit-identical registers — hence
//! bit-identical `f64` estimates, hence identical per-query arm
//! choices — to a single process probing every table itself. Combined
//! with the deterministic build (same seed ⇒ same assignment, hashes
//! and global ids on every node), distributed answers are
//! **byte-identical** to a single-process run over the same snapshot;
//! `tests/distributed.rs` and the multi-process CI gate pin this
//! across shard counts.
//!
//! # Failure semantics
//!
//! Each shard call runs under a per-request deadline (socket
//! read/write timeouts). A shard that is down, unreachable or late
//! fails the *affected client requests* with a typed
//! [`ErrorCode::Unavailable`] error frame — never a hang, never a
//! silently partial answer — and drops the broken connection. The next
//! request redials lazily, so a restarted shard rejoins without
//! coordinator intervention; the rejoin handshake re-validates the
//! shard's identity and parameters before trusting it.

use std::io::{self, BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hlsh_core::{decide, CostModel, Decision, Strategy, TopKWalk};
use hlsh_hll::{HllConfig, HyperLogLog};
use hlsh_vec::PointId;

use crate::client::ClientError;
use crate::protocol::{
    self, read_frame, write_frame, Arm, ErrorCode, QueryBlock, Response, ServerInfo, ShardInfo,
    ShardRequest, ShardResponse, ShardSummaryEntry, ShardTarget,
};
use crate::server::{QueryService, ServiceError};

/// Coordinator tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct CoordinatorConfig {
    /// Per-shard-call deadline: a shard that has not answered within
    /// this window fails the call with [`ErrorCode::Unavailable`].
    pub shard_deadline: Duration,
    /// How long [`Coordinator::connect`] keeps retrying unreachable
    /// shards at startup before giving up (covers shard nodes still
    /// loading their snapshot).
    pub connect_timeout: Duration,
    /// Largest shard response frame accepted.
    pub max_frame_bytes: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            shard_deadline: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(30),
            max_frame_bytes: protocol::DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// One shard backend's connection state. Lives behind a [`Mutex`] so
/// fan-out threads own their shard's connection exclusively for the
/// duration of a call.
struct ShardConn {
    addr: String,
    config: CoordinatorConfig,
    /// The identity the shard presented at startup; a reconnect (shard
    /// restart) must present the same one or the call fails.
    expect: ShardInfo,
    /// `None` between a failure and the next successful redial.
    client: Option<ShardClient>,
}

impl ShardConn {
    /// One request/response against this shard, redialing first if the
    /// previous call broke the connection. Transport and protocol
    /// failures drop the connection and surface as
    /// [`ErrorCode::Unavailable`]; error *frames* (the shard answered,
    /// just negatively) keep the connection and propagate the shard's
    /// own code — except [`ErrorCode::Busy`],
    /// which the shard sends while closing, so it is treated as a
    /// transport failure.
    fn call(&mut self, si: usize, req: &ShardRequest) -> Result<ShardResponse, ServiceError> {
        let unavailable = |addr: &str, e: &dyn std::fmt::Display| -> ServiceError {
            ServiceError::unavailable(format!("shard {si} at {addr}: {e}"))
        };
        if self.client.is_none() {
            let mut fresh = ShardClient::connect(&self.addr, self.config)
                .map_err(|e| unavailable(&self.addr, &e))?;
            let info =
                fresh.info(self.config.max_frame_bytes).map_err(|e| unavailable(&self.addr, &e))?;
            if info != self.expect {
                return Err(ServiceError::unavailable(format!(
                    "shard {si} at {} rejoined with different parameters (got {info:?}, \
                     expected {:?}) — is it serving the right snapshot?",
                    self.addr, self.expect
                )));
            }
            self.client = Some(fresh);
        }
        let client = self.client.as_mut().expect("connected above");
        match client.roundtrip(req, self.config.max_frame_bytes) {
            Ok(resp) => Ok(resp),
            Err(ClientError::Server { code: ErrorCode::Busy, message }) => {
                // Busy is sent at accept time and the shard closes the
                // connection right after — the stream is dead, not just
                // the request. Treat it like a transport failure so the
                // next call redials instead of writing into a closed
                // socket.
                self.client = None;
                Err(ServiceError::unavailable(format!(
                    "shard {si} at {} is at its connection limit: {message}",
                    self.addr
                )))
            }
            Err(ClientError::Server { code, message }) => Err(ServiceError {
                code,
                message: format!("shard {si} at {}: {message}", self.addr),
            }),
            Err(e) => {
                // Transport/protocol failure: the stream position is no
                // longer trustworthy. Drop the connection; the next
                // call redials.
                self.client = None;
                Err(unavailable(&self.addr, &e))
            }
        }
    }
}

/// A minimal shard-protocol client: one connection, strict
/// request/response, deadline enforced through socket timeouts.
struct ShardClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl ShardClient {
    fn connect(addr: &str, config: CoordinatorConfig) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.shard_deadline))?;
        stream.set_write_timeout(Some(config.shard_deadline))?;
        Ok(Self { reader: BufReader::new(stream.try_clone()?), writer: BufWriter::new(stream) })
    }

    fn roundtrip(
        &mut self,
        req: &ShardRequest,
        max_frame_bytes: usize,
    ) -> Result<ShardResponse, ClientError> {
        write_frame(&mut self.writer, &req.encode())?;
        let (kind, body) = read_frame(&mut self.reader, max_frame_bytes)?;
        if kind == protocol::kind::ERROR {
            match protocol::decode_response(kind, &body)? {
                Response::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                other => {
                    return Err(ClientError::Protocol(format!("error kind decoded to {other:?}")))
                }
            }
        }
        Ok(protocol::decode_shard_response(kind, &body)?)
    }

    fn info(&mut self, max_frame_bytes: usize) -> Result<ShardInfo, ClientError> {
        match self.roundtrip(&ShardRequest::Info, max_frame_bytes)? {
            ShardResponse::Info(info) => Ok(info),
            other => Err(ClientError::Protocol(format!("expected shard info, got {other:?}"))),
        }
    }
}

/// Decision-replay state for one index: the sketch configuration that
/// turns merged registers back into an estimate, and the cost model
/// that resolves Algorithm 2 on the merged statistics.
struct TargetMeta {
    radius: f64,
    hll: HllConfig,
    cost: CostModel,
}

/// A [`QueryService`] that answers the *client* protocol by fanning
/// every batch out to remote shard nodes and replaying the global
/// hybrid decisions on merged statistics.
///
/// Clients cannot tell a coordinator from a standalone server: same
/// frames, same responses, byte for byte.
///
/// # Example
///
/// Two in-process "shard nodes" behind a coordinator, answering
/// identically to the single-process engine:
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// use hlsh_core::{CostModel, IndexBuilder, ShardAssignment, ShardedIndex};
/// use hlsh_families::PStableL2;
/// use hlsh_server::{
///     spawn, Client, Coordinator, CoordinatorConfig, ServerConfig, ShardNodeService,
///     ShardedLshService,
/// };
/// use hlsh_vec::{DenseDataset, L2};
///
/// let data = DenseDataset::from_rows(2, (0..300).map(|i| [(i % 20) as f32, (i / 20) as f32]));
/// let build = || {
///     ShardedIndex::build_frozen(
///         data.clone(),
///         ShardAssignment::new(7, 2),
///         IndexBuilder::new(PStableL2::new(2, 2.0), L2)
///             .tables(8)
///             .hash_len(4)
///             .seed(42)
///             .cost_model(CostModel::from_ratio(4.0)),
///     )
/// };
///
/// // Every node builds (in production: loads) the same index; each
/// // serves one shard of it.
/// let mut nodes: Vec<_> = (0..2)
///     .map(|sid: u32| {
///         let svc = ShardNodeService::new(ShardedLshService::new(build(), None, 2), sid);
///         spawn(Arc::new(svc), "127.0.0.1:0", ServerConfig::default()).unwrap()
///     })
///     .collect();
/// let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
///
/// // The coordinator serves the ordinary client protocol.
/// let coord = Coordinator::connect(&addrs, CoordinatorConfig::default()).unwrap();
/// let mut front = spawn(Arc::new(coord), "127.0.0.1:0", ServerConfig::default()).unwrap();
///
/// let queries = vec![vec![3.0f32, 3.0], vec![19.0, 14.0]];
/// let expect: Vec<Vec<u32>> =
///     build().query_batch(&queries, 1.5).into_iter().map(|o| o.ids).collect();
/// let mut client = Client::connect_retry(front.local_addr(), Duration::from_secs(5)).unwrap();
/// assert_eq!(client.query_batch(&queries, 1.5).unwrap(), expect);
///
/// front.shutdown();
/// for n in &mut nodes {
///     n.shutdown();
/// }
/// ```
pub struct Coordinator {
    shards: Vec<Mutex<ShardConn>>,
    info: ServerInfo,
    n: usize,
    rnnr: TargetMeta,
    levels: Vec<TargetMeta>,
}

impl Coordinator {
    /// Dials every shard backend (index in `addrs` = shard id),
    /// retrying with backoff until
    /// [`connect_timeout`](CoordinatorConfig::connect_timeout), then
    /// validates the fleet: each node must identify as its slot's
    /// shard, and all nodes must agree bit-for-bit on the index
    /// parameters (same snapshot everywhere, or the determinism
    /// contract is void).
    pub fn connect(addrs: &[String], config: CoordinatorConfig) -> Result<Self, ClientError> {
        if addrs.is_empty() {
            return Err(ClientError::Protocol("coordinator needs at least one shard".into()));
        }
        let deadline = Instant::now() + config.connect_timeout;
        let mut conns = Vec::with_capacity(addrs.len());
        let mut infos: Vec<ShardInfo> = Vec::with_capacity(addrs.len());
        for (si, addr) in addrs.iter().enumerate() {
            let mut backoff = Duration::from_millis(50);
            let (client, info) = loop {
                let attempt = ShardClient::connect(addr, config)
                    .map_err(ClientError::Io)
                    .and_then(|mut c| c.info(config.max_frame_bytes).map(|i| (c, i)));
                match attempt {
                    Ok(pair) => break pair,
                    Err(e) if Instant::now() >= deadline => {
                        return Err(ClientError::Protocol(format!(
                            "shard {si} at {addr} unreachable within connect timeout: {e}"
                        )))
                    }
                    Err(_) => {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_secs(2));
                    }
                }
            };
            if info.shard_id as usize != si || info.shards as usize != addrs.len() {
                return Err(ClientError::Protocol(format!(
                    "shard node at {addr} identifies as shard {}/{} but occupies slot \
                     {si}/{} — check the --shards order and each node's --shard-id",
                    info.shard_id,
                    info.shards,
                    addrs.len()
                )));
            }
            if let Some(first) = infos.first() {
                let mut normalized = info.clone();
                normalized.shard_id = first.shard_id;
                if normalized != *first {
                    return Err(ClientError::Protocol(format!(
                        "shard {si} at {addr} disagrees with shard 0 on index parameters — \
                         the nodes are not serving the same snapshot"
                    )));
                }
            }
            infos.push(info.clone());
            conns.push(Mutex::new(ShardConn {
                addr: addr.clone(),
                config,
                expect: info,
                client: Some(client),
            }));
        }
        let first = &infos[0];
        // Decode validated precision (4..=16) and cost positivity, so
        // these constructors cannot panic on wire data.
        let meta =
            |precision: u8, seed: u64, alpha: f64, bs: f64, bc: f64, radius: f64| TargetMeta {
                radius,
                hll: HllConfig::new(precision, seed),
                cost: CostModel::new_split(alpha, bs, bc),
            };
        let p = first.rnnr;
        Ok(Self {
            info: ServerInfo {
                points: first.points,
                dim: first.dim,
                shards: first.shards,
                topk_levels: first.levels.len() as u32,
            },
            n: first.points as usize,
            rnnr: meta(p.hll_precision, p.hll_seed, p.alpha, p.beta_scan, p.beta_cand, 0.0),
            levels: first
                .levels
                .iter()
                .map(|l| {
                    let p = l.params;
                    meta(p.hll_precision, p.hll_seed, p.alpha, p.beta_scan, p.beta_cand, l.radius)
                })
                .collect(),
            shards: conns,
        })
    }

    /// Number of shard backends.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Runs `f(shard index)` for every shard on its own scoped thread
    /// and collects the results in shard order; the first shard failure
    /// fails the whole fan-out (affected client requests get its typed
    /// error frame).
    fn fanout<T, Fm>(&self, f: Fm) -> Result<Vec<T>, ServiceError>
    where
        T: Send,
        Fm: Fn(usize) -> Result<T, ServiceError> + Sync,
    {
        let mut slots: Vec<Option<Result<T, ServiceError>>> =
            (0..self.shards.len()).map(|_| None).collect();
        std::thread::scope(|s| {
            for (si, slot) in slots.iter_mut().enumerate() {
                let f = &f;
                s.spawn(move || *slot = Some(f(si)));
            }
        });
        slots.into_iter().map(|r| r.expect("every fan-out thread fills its slot")).collect()
    }

    /// One summarize round against `target` for the packed `block`:
    /// per query, the globally merged `(Σ collisions, candSize
    /// estimate)` — bit-identical to a single process probing every
    /// shard itself.
    fn merged_summaries(
        &self,
        target: ShardTarget,
        block: &QueryBlock,
        meta: &TargetMeta,
    ) -> Result<Vec<(usize, f64)>, ServiceError> {
        let count = block.count();
        let per_shard: Vec<Vec<ShardSummaryEntry>> = self.fanout(|si| {
            let req = ShardRequest::Summarize { target, queries: block.clone() };
            match self.shards[si].lock().unwrap().call(si, &req)? {
                ShardResponse::Summaries(s) if s.len() == count => Ok(s),
                ShardResponse::Summaries(s) => Err(ServiceError::internal(format!(
                    "shard {si} returned {} summaries for {count} queries",
                    s.len()
                ))),
                other => Err(unexpected(si, &other)),
            }
        })?;
        let m = meta.hll.registers();
        let mut out = Vec::with_capacity(count);
        for qi in 0..count {
            let mut collisions = 0usize;
            let mut registers = vec![0u8; m];
            for (si, entries) in per_shard.iter().enumerate() {
                let e = &entries[qi];
                if e.registers.len() != m {
                    return Err(ServiceError::internal(format!(
                        "shard {si} returned {}-byte registers, expected {m}",
                        e.registers.len()
                    )));
                }
                collisions += e.collisions as usize;
                for (r, &v) in registers.iter_mut().zip(&e.registers) {
                    *r = (*r).max(v);
                }
            }
            let estimate = HyperLogLog::from_registers(meta.hll, registers).estimate();
            out.push((collisions, estimate));
        }
        Ok(out)
    }

    /// One execute round: runs `arm` at `radius` against `target` for
    /// the packed subset, returning per-shard responses in shard order.
    fn execute_round(
        &self,
        target: ShardTarget,
        arm: Arm,
        radius: f64,
        block: &QueryBlock,
    ) -> Result<Vec<ShardResponse>, ServiceError> {
        self.fanout(|si| {
            let req = ShardRequest::Execute { target, arm, radius, queries: block.clone() };
            self.shards[si].lock().unwrap().call(si, &req)
        })
    }

    /// Packs a subset of `queries` (by index) into a wire block.
    fn pack_subset(&self, queries: &[Vec<f32>], idx: &[usize]) -> QueryBlock {
        let rows: Vec<Vec<f32>> = idx.iter().map(|&qi| queries[qi].clone()).collect();
        QueryBlock::pack(&rows, self.info.dim as usize)
    }
}

fn unexpected(si: usize, resp: &ShardResponse) -> ServiceError {
    let kind = match resp {
        ShardResponse::Info(_) => "info",
        ShardResponse::Summaries(_) => "summaries",
        ShardResponse::Ids(_) => "ids",
        ShardResponse::Pairs(_) => "pairs",
    };
    ServiceError::internal(format!("shard {si} answered with an unexpected {kind} response"))
}

impl QueryService for Coordinator {
    fn info(&self) -> ServerInfo {
        self.info
    }

    fn rnnr_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f64,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<PointId>>, ServiceError> {
        let _ = threads; // parallelism lives on the shard nodes
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let block = QueryBlock::pack(queries, self.info.dim as usize);

        // Round 1: merged statistics, one Algorithm-2 decision each.
        let stats = self.merged_summaries(ShardTarget::Rnnr, &block, &self.rnnr)?;
        let (mut lsh_idx, mut lin_idx) = (Vec::new(), Vec::new());
        for (qi, &(collisions, estimate)) in stats.iter().enumerate() {
            match self.decide(&self.rnnr, collisions, estimate, f64::NEG_INFINITY) {
                Decision::Lsh => lsh_idx.push(qi),
                _ => lin_idx.push(qi),
            }
        }

        // Round 2: one execute fan-out per chosen arm.
        let mut out: Vec<Vec<PointId>> = vec![Vec::new(); queries.len()];
        for (arm, idx) in [(Arm::Lsh, &lsh_idx), (Arm::Linear, &lin_idx)] {
            if idx.is_empty() {
                continue;
            }
            let sub = self.pack_subset(queries, idx);
            for (si, resp) in
                self.execute_round(ShardTarget::Rnnr, arm, radius, &sub)?.into_iter().enumerate()
            {
                match resp {
                    ShardResponse::Ids(per_query) if per_query.len() == idx.len() => {
                        for (j, ids) in per_query.into_iter().enumerate() {
                            out[idx[j]].extend(ids);
                        }
                    }
                    other => return Err(unexpected(si, &other)),
                }
            }
        }
        // Per-shard lists are each sorted; the global answer is the
        // sorted union (ids are globally unique across shards).
        for ids in &mut out {
            ids.sort_unstable();
        }
        Ok(out)
    }

    fn topk_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError> {
        let _ = threads;
        if self.levels.is_empty() {
            return Err(ServiceError::unsupported("this deployment has no top-k ladder"));
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        // One walk per query, driven level-synchronized: every walk
        // still running advances through level `li` together, so each
        // level costs at most one summary fan-out plus one execute
        // fan-out per arm.
        let mut walks: Vec<TopKWalk> = queries.iter().map(|_| TopKWalk::new(k, self.n)).collect();
        for (li, meta) in self.levels.iter().enumerate() {
            let (mut active, mut skips) = (Vec::new(), Vec::new());
            for (qi, walk) in walks.iter_mut().enumerate() {
                if let Some(skip) = walk.next_level(meta.hll.registers()) {
                    active.push(qi);
                    skips.push(skip);
                }
            }
            if active.is_empty() {
                break;
            }
            let block = self.pack_subset(queries, &active);
            let stats = self.merged_summaries(ShardTarget::TopKLevel(li as u32), &block, meta)?;
            let (mut lsh_idx, mut lin_idx) = (Vec::new(), Vec::new());
            for (j, &qi) in active.iter().enumerate() {
                let (collisions, estimate) = stats[j];
                match self.decide(meta, collisions, estimate, skips[j]) {
                    Decision::Defer => walks[qi].defer(li, collisions, estimate),
                    Decision::Lsh => lsh_idx.push(qi),
                    Decision::Linear => lin_idx.push(qi),
                }
            }
            self.run_level_arms(queries, &mut walks, li, [lsh_idx, lin_idx])?;
        }

        // Exact fallback for the walks whose heap is underfull: one scan
        // fan-out (the shard slabs partition the data).
        let starved: Vec<usize> =
            (0..walks.len()).filter(|&qi| walks[qi].start_fallback()).collect();
        if !starved.is_empty() {
            let block = self.pack_subset(queries, &starved);
            let per_shard = self.fanout(|si| {
                let req = ShardRequest::Scan { queries: block.clone() };
                self.shards[si].lock().unwrap().call(si, &req)
            })?;
            for (si, resp) in per_shard.into_iter().enumerate() {
                match resp {
                    ShardResponse::Pairs(per_query) if per_query.len() == starved.len() => {
                        for (j, pairs) in per_query.into_iter().enumerate() {
                            walks[starved[j]].offer_fallback(pairs);
                        }
                    }
                    other => return Err(unexpected(si, &other)),
                }
            }
        }
        // The other walks revisit their deferred levels in schedule
        // order, replaying the cached merged statistics (probing is
        // deterministic, so a second summary round would return them
        // unchanged) with the skip threshold disabled.
        let deferred: Vec<_> = walks.iter_mut().map(TopKWalk::take_deferred).collect();
        for (li, meta) in self.levels.iter().enumerate() {
            let (mut lsh_idx, mut lin_idx) = (Vec::new(), Vec::new());
            for (qi, levels) in deferred.iter().enumerate() {
                if let Some(d) = levels.iter().find(|d| d.level == li) {
                    match self.decide(meta, d.collisions, d.estimate, f64::NEG_INFINITY) {
                        Decision::Lsh => lsh_idx.push(qi),
                        _ => lin_idx.push(qi),
                    }
                }
            }
            self.run_level_arms(queries, &mut walks, li, [lsh_idx, lin_idx])?;
        }

        Ok(walks
            .into_iter()
            .map(|w| w.finish().neighbors.into_iter().map(|n| (n.id, n.dist)).collect())
            .collect())
    }
}

impl Coordinator {
    /// The Algorithm-2 decision on merged statistics against `target`.
    fn decide(&self, target: &TargetMeta, collisions: usize, estimate: f64, skip: f64) -> Decision {
        decide(Strategy::Hybrid, target.cost, self.n, collisions, estimate, skip)
    }

    /// Executes ladder level `li` for the query subsets that chose the
    /// LSH arm and the linear arm (in that order), offering each shard's
    /// pairs into its query's walk, then counting the level as run.
    fn run_level_arms(
        &self,
        queries: &[Vec<f32>],
        walks: &mut [TopKWalk],
        li: usize,
        [lsh_idx, lin_idx]: [Vec<usize>; 2],
    ) -> Result<(), ServiceError> {
        let meta = &self.levels[li];
        for (arm, idx) in [(Arm::Lsh, &lsh_idx), (Arm::Linear, &lin_idx)] {
            if idx.is_empty() {
                continue;
            }
            let sub = self.pack_subset(queries, idx);
            let target = ShardTarget::TopKLevel(li as u32);
            for (si, resp) in
                self.execute_round(target, arm, meta.radius, &sub)?.into_iter().enumerate()
            {
                match resp {
                    ShardResponse::Pairs(per_query) if per_query.len() == idx.len() => {
                        for (j, pairs) in per_query.iter().enumerate() {
                            walks[idx[j]].offer(pairs);
                        }
                    }
                    other => return Err(unexpected(si, &other)),
                }
            }
            for &qi in idx {
                walks[qi].ran(meta.radius);
            }
        }
        Ok(())
    }
}
