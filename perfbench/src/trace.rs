//! Span recording from outside the program: [`Traced`] wraps any
//! [`QueryService`] handed to `hlsh_server::spawn` and records one span
//! per call into the service layer — name, start, end and the pool ids
//! of the queries it carried (or the point ids it mutated). Parents are
//! assigned after the run by time containment, and the spans are
//! written out when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hlsh_server::{
    QueryBlock, QueryService, ServerInfo, ServiceError, ShardRequest, ShardResponse,
};
use hlsh_vec::PointId;

/// A query vector that is not in the pool.
const UNKNOWN: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Which traced server recorded it (0 = the front server, 1.. =
    /// shard nodes).
    pub server: usize,
    pub start: Instant,
    pub end: Instant,
    /// Pool ids of the queries carried, or the ids mutated.
    pub ids: Vec<u32>,
    /// Per-shard segment counts right after a mutation (living index).
    pub segments: Vec<usize>,
    /// Index of the enclosing span, assigned by [`Recorder::spans`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Collects spans from every traced server of one run.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Query vector bit pattern → pool id.
    lookup: HashMap<Vec<u32>, u32>,
}

impl Recorder {
    pub fn new(pool: &[Vec<f32>]) -> Arc<Recorder> {
        let lookup = pool
            .iter()
            .enumerate()
            .map(|(i, q)| (q.iter().map(|x| x.to_bits()).collect(), i as u32))
            .collect();
        Arc::new(Recorder { epoch: Instant::now(), spans: Mutex::new(Vec::new()), lookup })
    }

    fn id_of(&self, q: &[f32]) -> u32 {
        let key: Vec<u32> = q.iter().map(|x| x.to_bits()).collect();
        self.lookup.get(&key).copied().unwrap_or(UNKNOWN)
    }

    fn block_ids(&self, block: &QueryBlock) -> Vec<u32> {
        let dim = block.dim.max(1) as usize;
        block.data.chunks(dim).map(|q| self.id_of(q)).collect()
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span lock").push(span);
    }

    /// Every span so far, with parents linked: a span's parent is the
    /// shortest span of another server that encloses it in time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span lock").clone();
        spans.sort_by_key(|s| s.start);
        for i in 0..spans.len() {
            let (s, e, server) = (spans[i].start, spans[i].end, spans[i].server);
            spans[i].parent = (0..spans.len())
                .filter(|&j| spans[j].server != server && spans[j].start <= s && spans[j].end >= e)
                .min_by_key(|&j| spans[j].end - spans[j].start);
        }
        spans
    }

    /// Writes `spans` as JSON lines, times in µs since the recorder
    /// started.
    pub fn write(&self, spans: &[Span], path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        for s in spans {
            let ids: Vec<String> = s.ids.iter().map(|i| i.to_string()).collect();
            let segments: Vec<String> = s.segments.iter().map(|c| c.to_string()).collect();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"server\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"ids\":[{}],\"segments\":[{}]}}",
                s.name,
                s.server,
                us(s.start),
                us(s.end),
                parent,
                ids.join(","),
                segments.join(",")
            )?;
        }
        out.flush()
    }
}

/// A [`QueryService`] decorator that records a span per call.
pub struct Traced {
    inner: Arc<dyn QueryService>,
    server: usize,
    rec: Arc<Recorder>,
    /// Reads the living index's per-shard segment counts after each
    /// mutation.
    shape: Option<Box<dyn Fn() -> Vec<usize> + Send + Sync>>,
}

impl Traced {
    pub fn new(inner: Arc<dyn QueryService>, server: usize, rec: Arc<Recorder>) -> Traced {
        Traced { inner, server, rec, shape: None }
    }

    pub fn with_shape(mut self, shape: impl Fn() -> Vec<usize> + Send + Sync + 'static) -> Traced {
        self.shape = Some(Box::new(shape));
        self
    }

    fn record(&self, name: &'static str, start: Instant, end: Instant, ids: Vec<u32>) {
        let segments = match (&self.shape, name) {
            (Some(shape), "insert" | "delete") => shape(),
            _ => Vec::new(),
        };
        self.rec.push(Span { name, server: self.server, start, end, ids, segments, parent: None });
    }

    fn query_ids(&self, queries: &[Vec<f32>]) -> Vec<u32> {
        queries.iter().map(|q| self.rec.id_of(q)).collect()
    }
}

impl QueryService for Traced {
    fn info(&self) -> ServerInfo {
        self.inner.info()
    }

    fn rnnr_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f64,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<PointId>>, ServiceError> {
        let start = Instant::now();
        let out = self.inner.rnnr_batch(queries, radius, threads);
        let end = Instant::now();
        self.record("rnnr", start, end, self.query_ids(queries));
        out
    }

    fn topk_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError> {
        let start = Instant::now();
        let out = self.inner.topk_batch(queries, k, threads);
        let end = Instant::now();
        self.record("topk", start, end, self.query_ids(queries));
        out
    }

    fn shard_batch(
        &self,
        request: &ShardRequest,
        threads: Option<usize>,
    ) -> Result<ShardResponse, ServiceError> {
        let start = Instant::now();
        let out = self.inner.shard_batch(request, threads);
        let end = Instant::now();
        let (name, ids) = match request {
            ShardRequest::Info => ("shard.info", Vec::new()),
            ShardRequest::Summarize { queries, .. } => {
                ("shard.summarize", self.rec.block_ids(queries))
            }
            ShardRequest::Execute { queries, .. } => ("shard.execute", self.rec.block_ids(queries)),
            ShardRequest::Scan { queries } => ("shard.scan", self.rec.block_ids(queries)),
        };
        self.record(name, start, end, ids);
        out
    }

    fn insert_batch(&self, ids: &[PointId], points: &QueryBlock) -> Result<u32, ServiceError> {
        let start = Instant::now();
        let out = self.inner.insert_batch(ids, points);
        self.record("insert", start, Instant::now(), ids.to_vec());
        out
    }

    fn delete_batch(&self, ids: &[PointId]) -> Result<u32, ServiceError> {
        let start = Instant::now();
        let out = self.inner.delete_batch(ids);
        self.record("delete", start, Instant::now(), ids.to_vec());
        out
    }
}
