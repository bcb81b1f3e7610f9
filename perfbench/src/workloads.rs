//! The end-to-end runs: serving processes, the timed phases and the
//! correctness checks for `frozen`, `churn` and `fanout`.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use hlsh_core::save_snapshot;
use hlsh_families::sampling::rng_stream;
use hlsh_server::protocol::Request;
use hlsh_server::{QueryBlock, Response};
use hlsh_vec::{DenseDataset, PointId};
use rand::Rng;

use crate::check::Expected;
use crate::inputs::{self, Inputs, BATCH, K, RADIUS};
use crate::load::{self, Phase};
use crate::proc::{Role, ServerProc};
use crate::report::Report;

/// Serving processes built per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Pre-generated requests; phases cycle through them.
pub const REQUESTS: usize = 4096;
/// Points per insert (and per delete) batch of the churn writer.
pub const WRITE_BATCH: usize = 64;
/// Churn writer batches per second (inserts and deletes alternate), at
/// the full size. A fixed rate, not a closed loop: with both sides
/// closed, the read/write split was decided by races for the index
/// lock and rNNR throughput spread by a third between runs.
pub const WRITE_RATE: f64 = 16.0;
/// Open-loop request rates (requests/s) at the full size: about 35%
/// (frozen, fanout) and 45% (churn) of each workload's closed-loop rNNR
/// request rate on the 2-core x86-64 machine the benchmark was written
/// on (105, 82 and 33 requests/s). Nearer saturation, a slow spell of
/// that shared machine tipped the loop into a growing backlog.
pub const OPEN_RATE_FROZEN: f64 = 37.0;
pub const OPEN_RATE_CHURN: f64 = 15.0;
pub const OPEN_RATE_FANOUT: f64 = 30.0;
/// Build or load bound for one serving process.
const START_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Frozen,
    Churn,
    Fanout,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "frozen" => Some(Workload::Frozen),
            "churn" => Some(Workload::Churn),
            "fanout" => Some(Workload::Fanout),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Frozen => "frozen",
            Workload::Churn => "churn",
            Workload::Fanout => "fanout",
        }
    }

    pub fn open_rate(self, inputs: &Inputs) -> f64 {
        let full = match self {
            Workload::Frozen => OPEN_RATE_FROZEN,
            Workload::Churn => OPEN_RATE_CHURN,
            Workload::Fanout => OPEN_RATE_FANOUT,
        };
        // Smaller corpora are proportionally cheaper per query.
        full * (inputs::FULL.n as f64 / inputs.size.n as f64).sqrt()
    }
}

/// Churn writer batches per second, scaled like the open-loop rate.
pub fn write_rate(inputs: &Inputs) -> f64 {
    WRITE_RATE * (inputs::FULL.n as f64 / inputs.size.n as f64).sqrt()
}

/// Phase lengths for a run of `secs` seconds: rNNR closed loop, top-k
/// closed loop and rNNR open loop get 28/36/36% of it (top-k requests
/// are the slowest, the open loop the sparsest). The phases run interleaved in `rounds` rounds, so
/// a slow spell of the machine lands on every phase alike rather than
/// on whichever phase it overlaps; 3% of the run warms up each phase
/// before its first round.
pub struct Plan {
    pub rounds: usize,
    pub warm: Duration,
    pub rnnr: Duration,
    pub topk: Duration,
    pub open: Duration,
}

/// Rounds of an end-to-end run. The machine's steal time swings between
/// a few and 20% within seconds; six short rounds let a median over
/// rounds step over a burst.
pub const ROUNDS: usize = 6;

impl Plan {
    pub fn new(secs: f64, rounds: usize) -> Plan {
        let part = |share: f64| Duration::from_secs_f64(secs * share);
        let warm = part(0.03);
        let round = |share: f64| (part(share) - warm) / rounds as u32;
        Plan { rounds, warm, rnnr: round(0.28), topk: round(0.36), open: round(0.36) }
    }

    /// Planned length of [`read_phases`] under this plan, in seconds.
    pub fn read_secs(&self) -> f64 {
        (self.warm * 3 + (self.rnnr + self.topk + self.open) * self.rounds as u32).as_secs_f64()
    }
}

/// Encodes an rNNR request frame.
pub fn rnnr_frame(inputs: &Inputs, request: &[u32]) -> Vec<u8> {
    let queries = inputs.queries(request);
    Request::Rnnr { radius: RADIUS, queries: QueryBlock::pack(&queries, inputs.size.dim) }.encode()
}

/// The three read phases against `addr`, `plan.rounds` times over; one
/// [`Phase`] per phase and round. With `expected`, every answer is
/// compared against it; without (the living index under churn), answers
/// are only counted.
pub fn read_phases(
    addr: &str,
    inputs: &Inputs,
    reqs: &[Vec<u32>],
    expected: Option<&Expected>,
    plan: &Plan,
    open_rate: f64,
    conns: usize,
) -> Vec<Phase> {
    let mut out = Vec::new();
    for round in 0..plan.rounds {
        // Each round continues through the request sequence.
        let off = round * reqs.len() / plan.rounds;
        let req = |i: usize| &reqs[(off + i) % reqs.len()];
        let warm = if round == 0 { plan.warm } else { Duration::ZERO };
        out.push(load::closed(
            "rnnr",
            addr,
            conns,
            warm,
            plan.rnnr,
            |c, i| c.query_batch(&inputs.queries(req(i)), RADIUS),
            |i, got| expected.map_or(Ok(()), |e| e.check_rnnr(req(i), got)),
        ));
        out.push(load::closed(
            "topk",
            addr,
            conns,
            warm,
            plan.topk,
            |c, i| c.query_topk_batch(&inputs.queries(req(i)), K),
            |i, got| expected.map_or(Ok(()), |e| e.check_topk(req(i), got)),
        ));
        out.push(load::open(
            "open",
            addr,
            conns,
            open_rate,
            warm,
            plan.open,
            |g| rnnr_frame(inputs, req(g)),
            |g, resp| match resp {
                Response::Rnnr(got) => expected.map_or(Ok(()), |e| e.check_rnnr(req(g), &got)),
                other => Err(format!("open loop: unexpected response {other:?}")),
            },
        ));
    }
    out
}

/// Sends one single-query rNNR request, retrying the connect.
pub fn first_answer(addr: &str, q: &[f32]) -> Result<(), String> {
    let deadline = Instant::now() + START_TIMEOUT;
    let mut client = loop {
        match load::connect(addr) {
            Ok(c) => break c,
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    client.query_batch(&[q.to_vec()], RADIUS).map(|_| ()).map_err(|e| format!("first request: {e}"))
}

/// Starts a frozen or living serving process; returns it with its
/// set-up time (corpus ready → first answer).
fn start_standalone(role: Role, inputs: &Inputs, seed: u64) -> Result<(ServerProc, f64), String> {
    let mut p = ServerProc::spawn(&role.args(inputs.size, seed))?;
    p.expect("corpus", START_TIMEOUT)?;
    let t0 = Instant::now();
    p.wait_listening(START_TIMEOUT)?;
    first_answer(&p.addr, &inputs.pool[0])?;
    Ok((p, t0.elapsed().as_secs_f64()))
}

/// Starts two shard nodes from `snapshot` and a coordinator in front;
/// returns them (coordinator last) with the set-up time (node spawn →
/// first answer through the coordinator).
fn start_fleet(
    snapshot: &Path,
    inputs: &Inputs,
    seed: u64,
) -> Result<(Vec<ServerProc>, f64), String> {
    let t0 = Instant::now();
    let mut fleet = Vec::new();
    for shard in 0..inputs.preset.shards as u32 {
        let role = Role::Node { snapshot: snapshot.display().to_string(), shard };
        fleet.push(ServerProc::spawn(&role.args(inputs.size, seed))?);
    }
    let mut nodes = Vec::new();
    for p in &mut fleet {
        p.expect("corpus", START_TIMEOUT)?;
        p.wait_listening(START_TIMEOUT)?;
        nodes.push(p.addr.clone());
    }
    let mut coord = ServerProc::spawn(&Role::Coord { nodes }.args(inputs.size, seed))?;
    coord.expect("corpus", START_TIMEOUT)?;
    coord.wait_listening(START_TIMEOUT)?;
    first_answer(&coord.addr, &inputs.pool[0])?;
    fleet.push(coord);
    Ok((fleet, t0.elapsed().as_secs_f64()))
}

/// Starts the serving side [`SETUP_REPS`] times, keeping the last.
fn start_reps<T>(
    mut start: impl FnMut() -> Result<(T, f64), String>,
    stop: impl Fn(T),
) -> Result<(T, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            stop(old);
        }
        let (servers, secs) = start()?;
        setups.push(secs);
        kept = Some(servers);
    }
    Ok((kept.expect("at least one rep"), setups))
}

fn rss_of(procs: &[&ServerProc]) -> Result<f64, String> {
    procs.iter().map(|p| p.peak_rss_mb()).sum()
}

/// The churn writer's tally.
#[derive(Default)]
pub struct Writes {
    pub batches: Vec<(Instant, Instant, usize)>,
    pub failed: u64,
    pub error: Option<String>,
    pub elapsed_s: f64,
}

impl Writes {
    pub fn merge(&mut self, other: Writes) {
        self.batches.extend(other.batches);
        self.failed += other.failed;
        self.error = self.error.take().or(other.error);
        self.elapsed_s += other.elapsed_s;
    }

    pub fn points(&self) -> usize {
        self.batches.iter().map(|b| b.2).sum()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.batches.iter().map(|b| (b.1 - b.0).as_secs_f64() * 1e3).collect()
    }
}

/// The living corpus as the writer knows it: every live id with its
/// vector, plus vectors free for the next inserts.
pub struct LiveSet {
    pub ids: Vec<PointId>,
    pub vectors: std::collections::HashMap<PointId, Vec<f32>>,
    free: VecDeque<Vec<f32>>,
    pub next_id: PointId,
    rng: rand::rngs::StdRng,
}

impl LiveSet {
    pub fn new(inputs: &Inputs, seed: u64) -> LiveSet {
        let ids: Vec<PointId> = (0..inputs.size.n as PointId).collect();
        let vectors = ids.iter().map(|&i| (i, inputs.data.row(i as usize).to_vec())).collect();
        let free = inputs.spares.iter().cloned().collect();
        LiveSet {
            ids,
            vectors,
            free,
            next_id: inputs.size.n as PointId,
            rng: rng_stream(seed, 0x5752_4954),
        }
    }

    /// Fresh ids with held-out vectors (recycling deleted vectors once
    /// the spares run out).
    pub fn next_inserts(&mut self, count: usize) -> (Vec<PointId>, Vec<Vec<f32>>) {
        let ids: Vec<PointId> = (0..count as PointId).map(|i| self.next_id + i).collect();
        let points = (0..count)
            .map(|_| self.free.pop_front().expect("deleted vectors refill the free list"))
            .collect();
        (ids, points)
    }

    pub fn applied_inserts(&mut self, ids: Vec<PointId>, points: Vec<Vec<f32>>) {
        self.next_id += ids.len() as PointId;
        for (id, p) in ids.into_iter().zip(points) {
            self.ids.push(id);
            self.vectors.insert(id, p);
        }
    }

    /// Distinct live ids, uniformly at random; removed from the set
    /// (their vectors join the free list).
    pub fn take_deletes(&mut self, count: usize) -> Vec<PointId> {
        (0..count)
            .map(|_| {
                let at = self.rng.gen_range(0..self.ids.len());
                let id = self.ids.swap_remove(at);
                let v = self.vectors.remove(&id).expect("live id has a vector");
                self.free.push_back(v);
                id
            })
            .collect()
    }

    /// Survivors in id order, as a data set plus ids.
    pub fn survivors(&self, dim: usize) -> (DenseDataset, Vec<PointId>) {
        let mut ids = self.ids.clone();
        ids.sort_unstable();
        let data = DenseDataset::from_rows(dim, ids.iter().map(|id| &self.vectors[id]));
        (data, ids)
    }
}

/// The churn writer on its own connection: insert a batch of fresh
/// points, delete a batch of random live ones, and so on, `count`
/// batches at `rate` batches per second. A fixed count, not a deadline,
/// so the survivors (and the recall measured on them) depend on the
/// seed alone. A batch is timed from when it was due, one in flight at
/// a time. A late batch pushes the schedule back instead of leaving a
/// debt: with catch-up bursts, writes piled up behind each top-k phase
/// and landed on the next rNNR phase, and rNNR rounds alternated
/// between fast and slow.
pub fn write_loop(addr: &str, live: &mut LiveSet, rate: f64, count: u32) -> Writes {
    let mut out = Writes::default();
    let mut client = match load::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.failed += 1;
            out.error = Some(e);
            return out;
        }
    };
    let t0 = Instant::now();
    let gap = Duration::from_secs_f64(1.0 / rate);
    let mut due = t0;
    for k in 0..count {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let result = if k % 2 == 0 {
            let (ids, points) = live.next_inserts(WRITE_BATCH);
            let r = client.insert_batch(&ids, &points);
            if r.is_ok() {
                live.applied_inserts(ids, points);
            }
            r
        } else {
            let ids = live.take_deletes(WRITE_BATCH);
            client.delete_batch(&ids)
        };
        let done = Instant::now();
        match result {
            Ok(n) => out.batches.push((due, done, n as usize)),
            Err(e) => {
                // A failed batch leaves the writer's view of the live set
                // unknowable; stop writing.
                out.failed += 1;
                out.error = Some(format!("write batch: {e}"));
                break;
            }
        }
        due = (due + gap).max(done);
    }
    out.elapsed_s = t0.elapsed().as_secs_f64();
    out
}

/// Runs `reads`, which are planned to last `secs`, with the churn
/// writer going on its own connection to `addr` at `rate` batches per
/// second over the same span.
pub fn with_writer<T: Send>(
    addr: &str,
    live: &mut LiveSet,
    rate: f64,
    secs: f64,
    reads: impl FnOnce() -> T + Send,
) -> (T, Writes) {
    let count = (rate * secs).round() as u32;
    let mut writes = Writes::default();
    let out = std::thread::scope(|scope| {
        scope.spawn(|| writes = write_loop(addr, live, rate, count));
        reads()
    });
    (out, writes)
}

/// Sends the whole pool (rNNR then top-k) and checks every answer
/// against `expected`.
pub fn verify_pool(addr: &str, inputs: &Inputs, expected: &Expected) -> Result<(), String> {
    let mut client = load::connect(addr)?;
    let all: Vec<u32> = (0..inputs.pool.len() as u32).collect();
    for chunk in all.chunks(BATCH) {
        let qs = inputs.queries(chunk);
        let got = client.query_batch(&qs, RADIUS).map_err(|e| e.to_string())?;
        expected.check_rnnr(chunk, &got)?;
        let got = client.query_topk_batch(&qs, K).map_err(|e| e.to_string())?;
        expected.check_topk(chunk, &got)?;
    }
    Ok(())
}

/// How many of the servers at `addrs` have lost an event-loop wake-up.
pub fn lost_wakeups(addrs: &[&str], inputs: &Inputs) -> Result<usize, String> {
    let mut lost = 0;
    for addr in addrs {
        lost += usize::from(load::lost_wakeup(addr, &inputs.pool[0], RADIUS)?);
    }
    Ok(lost)
}

/// One end-to-end run of `workload`.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    secs: f64,
    scratch: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let plan = Plan::new(secs, ROUNDS);
    let reqs = inputs::requests(inputs, seed, REQUESTS);
    let pool_ds = inputs.pool_dataset();
    let all_ids: Vec<PointId> = (0..inputs.size.n as PointId).collect();
    let open_rate = workload.open_rate(inputs);
    match workload {
        Workload::Frozen | Workload::Fanout => {
            let rnnr = inputs.preset.build_rnnr(inputs.data.clone());
            let topk = inputs.preset.build_topk(inputs.data.clone());
            let expected = Expected::frozen(inputs, &rnnr, &topk);
            let (rr, tr) = expected.recall(&pool_ds, &inputs.data, &all_ids);
            report.recall(rr, tr);
            let (procs, setups) = if workload == Workload::Frozen {
                drop((rnnr, topk));
                let (p, setups) =
                    start_reps(|| start_standalone(Role::Frozen, inputs, seed), ServerProc::stop)?;
                (vec![p], setups)
            } else {
                let snapshot = scratch.join("fanout.hlsh");
                let stats = save_snapshot(&snapshot, &rnnr, Some(&topk))
                    .map_err(|e| format!("save snapshot: {e}"))?;
                report.extra("snapshot_bytes", stats.bytes as f64, "bytes");
                drop((rnnr, topk));
                let r = start_reps(
                    || start_fleet(&snapshot, inputs, seed),
                    |f| f.into_iter().for_each(ServerProc::stop),
                )?;
                let _ = std::fs::remove_file(&snapshot);
                r
            };
            report.setup(&setups);
            let front = procs.last().expect("front server");
            let addrs: Vec<String> = procs.iter().map(|p| p.addr.clone()).collect();
            let phases = load::with_heartbeat(&addrs, || {
                read_phases(&front.addr, inputs, &reqs, Some(&expected), &plan, open_rate, 2)
            });
            report.lost_wakeups(lost_wakeups(&[&front.addr], inputs)?);
            report.rss(rss_of(&procs.iter().collect::<Vec<_>>())?);
            report.phases(phases);
            procs.into_iter().for_each(ServerProc::stop);
        }
        Workload::Churn => {
            let (p, setups) =
                start_reps(|| start_standalone(Role::Live, inputs, seed), ServerProc::stop)?;
            report.setup(&setups);
            let mut live = LiveSet::new(inputs, seed);
            let addrs = std::slice::from_ref(&p.addr);
            let (phases, writes) = load::with_heartbeat(addrs, || {
                with_writer(&p.addr, &mut live, write_rate(inputs), plan.read_secs(), || {
                    read_phases(&p.addr, inputs, &reqs, None, &plan, open_rate, 1)
                })
            });
            report.rss(p.peak_rss_mb()?);
            report.phases(phases);
            report.writes(&writes);
            // After the churn: the served answers must equal a fresh
            // rebuild on the survivors.
            let (data, ids) = live.survivors(inputs.size.dim);
            let expected = Expected::rebuilt(&inputs.preset, &inputs.pool, &data, &ids);
            let verified = load::with_heartbeat(addrs, || verify_pool(&p.addr, inputs, &expected));
            if let Err(e) = verified {
                report.wrong(format!("post-churn: {e}"));
            }
            report.lost_wakeups(lost_wakeups(&[&p.addr], inputs)?);
            let (rr, tr) = expected.recall(&pool_ds, &data, &ids);
            report.recall(rr, tr);
            p.stop();
        }
    }
    Ok(())
}
