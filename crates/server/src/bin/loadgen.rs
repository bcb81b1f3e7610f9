//! Load generator for a running `serve` process: open/closed-loop
//! request streams, latency percentiles, throughput, `--json` records.
//!
//! ```text
//! cargo run --release -p hlsh-server --bin loadgen -- \
//!     [--addr HOST:PORT] [--mode closed|open] [--clients N] [--batch N] \
//!     [--requests N] [--rate F] [--radius F] [--k N] \
//!     [--sweep-clients A,B,C] [--sweep-requests N] [--sweep-batch N] \
//!     [--n N] [--dim N] [--seed N] [--queries N] \
//!     [--warmup N] [--connect-timeout-secs N] [--json PATH] \
//!     [--churn N [--churn-batch N]]
//! ```
//!
//! Query vectors are drawn from the same `benchmark_mixture` corpus
//! the server indexes (same `--n/--dim/--seed` ⇒ same points), so the
//! workload matches the in-process `throughput`/`topk` bench bins and
//! socket-path numbers are directly comparable to `BENCH_*.json`.
//!
//! * **closed loop** (default): each client keeps exactly one request
//!   in flight — latency is service time, throughput is what the
//!   admission batcher can coalesce.
//! * **open loop**: requests fire on a fixed schedule (`--rate`
//!   requests/s across all clients) and latency is measured from the
//!   *scheduled* send time, so queueing delay from a falling-behind
//!   server is charged to the server, not silently absorbed
//!   (no coordinated omission).
//!
//! `--json PATH` writes a `BENCH_serve.json`-style record; `--k N`
//! adds a top-k phase after the rNNR phase.
//!
//! `--sweep-clients A,B,C` appends a **connection-scaling sweep**: one
//! open-loop rNNR phase per listed client count (hundreds of
//! simultaneous connections are fine — one thread and one socket per
//! client). Each sweep point issues `--sweep-requests` requests in
//! total (split across its clients, so every point has the same sample
//! count for percentile stability) of `--sweep-batch` queries each, at
//! the shared `--rate` schedule. This is how the reactor's
//! high-connection behaviour is measured into `BENCH_serve.json`.
//!
//! # Churn mode
//!
//! `--churn N` (against a `serve --live` process with matching
//! `--n/--dim/--seed/--radius`) replaces the latency phases with a
//! mutation workload: `N` insert/delete frames of `--churn-batch` ops
//! each, chosen by a seeded deterministic stream, while a second
//! connection issues queries concurrently. The generator mirrors every
//! mutation locally, and when the churn drains it rebuilds the
//! surviving corpus from scratch in process and asserts the server's
//! rNNR and top-k answers over the whole query pool are
//! **byte-identical** to the rebuild (distances compared bit for bit).
//! On success it prints a `churn verify: OK` line (what CI greps for);
//! any divergence panics with the offending query. `--json PATH`
//! writes a churn record instead of the latency record.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hlsh_core::{
    MixturePreset, SegmentedIndex, SegmentedQueryEngine, SegmentedTopKEngine, SegmentedTopKIndex,
    Strategy,
};
use hlsh_datagen::benchmark_mixture;
use hlsh_server::{Client, ServerInfo};
use hlsh_vec::{DenseDataset, PointId};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Closed,
    Open,
}

#[derive(Clone)]
struct Args {
    addr: String,
    mode: Mode,
    clients: usize,
    batch: usize,
    requests: usize,
    rate: f64,
    radius: f64,
    k: usize,
    n: usize,
    dim: usize,
    seed: u64,
    queries: usize,
    warmup: usize,
    connect_timeout_secs: u64,
    json: Option<String>,
    sweep_clients: Vec<usize>,
    sweep_requests: usize,
    sweep_batch: usize,
    churn: usize,
    churn_batch: usize,
}

fn parse_args() -> Args {
    let mut out = Args {
        addr: "127.0.0.1:7411".into(),
        mode: Mode::Closed,
        clients: 2,
        batch: 64,
        requests: 32,
        rate: 100.0,
        radius: 1.5,
        k: 10,
        n: 20_000,
        dim: 24,
        seed: 23,
        queries: 256,
        warmup: 2,
        connect_timeout_secs: 120,
        json: None,
        sweep_clients: Vec::new(),
        sweep_requests: 768,
        sweep_batch: 16,
        churn: 0,
        churn_batch: 8,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut grab_str =
            |name: &str| -> String { it.next().unwrap_or_else(|| panic!("{name} needs a value")) };
        macro_rules! grab {
            ($name:literal) => {
                grab_str($name)
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("{} needs a positive integer", $name))
            };
        }
        macro_rules! grab_f {
            ($name:literal) => {
                grab_str($name).parse::<f64>().unwrap_or_else(|_| panic!("{} needs a float", $name))
            };
        }
        match arg.as_str() {
            "--addr" => out.addr = grab_str("--addr"),
            "--mode" => {
                out.mode = match grab_str("--mode").as_str() {
                    "closed" => Mode::Closed,
                    "open" => Mode::Open,
                    other => panic!("--mode must be 'closed' or 'open', got {other:?}"),
                }
            }
            "--clients" => out.clients = grab!("--clients").max(1),
            "--batch" => out.batch = grab!("--batch").max(1),
            "--requests" => out.requests = grab!("--requests").max(1),
            "--rate" => out.rate = grab_f!("--rate").max(0.001),
            "--radius" => out.radius = grab_f!("--radius"),
            "--k" => out.k = grab!("--k"),
            "--n" => out.n = grab!("--n"),
            "--dim" => out.dim = grab!("--dim").max(1),
            "--seed" => out.seed = grab!("--seed") as u64,
            "--queries" => out.queries = grab!("--queries").max(1),
            "--warmup" => out.warmup = grab!("--warmup"),
            "--connect-timeout-secs" => {
                out.connect_timeout_secs = grab!("--connect-timeout-secs") as u64
            }
            "--json" => out.json = Some(grab_str("--json")),
            "--sweep-clients" => {
                out.sweep_clients = grab_str("--sweep-clients")
                    .split(',')
                    .map(|s| {
                        s.trim().parse::<usize>().ok().filter(|&c| c > 0).unwrap_or_else(|| {
                            panic!("--sweep-clients needs comma-separated positive integers")
                        })
                    })
                    .collect()
            }
            "--sweep-requests" => out.sweep_requests = grab!("--sweep-requests").max(1),
            "--sweep-batch" => out.sweep_batch = grab!("--sweep-batch").max(1),
            "--churn" => out.churn = grab!("--churn"),
            "--churn-batch" => out.churn_batch = grab!("--churn-batch").max(1),
            other => {
                eprintln!(
                    "unknown flag {other:?}\nusage: loadgen [--addr HOST:PORT] [--mode closed|open] [--clients N] [--batch N] [--requests N] [--rate F] [--radius F] [--k N] [--sweep-clients A,B,C] [--sweep-requests N] [--sweep-batch N] [--n N] [--dim N] [--seed N] [--queries N] [--warmup N] [--connect-timeout-secs N] [--json PATH] [--churn N [--churn-batch N]]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(out.queries < out.n, "--queries must be smaller than --n");
    out
}

/// Per-phase latency/throughput summary (all microseconds).
struct PhaseResult {
    id: String,
    queries_per_sec: f64,
    requests_per_sec: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    max_us: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One request issued against the server; returns the answered query
/// count (consumed so the optimizer can't elide the decode).
fn issue(client: &mut Client, queries: &[Vec<f32>], radius: f64, k: usize) -> usize {
    if k > 0 {
        let out = client.query_topk_batch(queries, k).unwrap_or_else(|e| panic!("topk: {e}"));
        out.len()
    } else {
        let out = client.query_batch(queries, radius).unwrap_or_else(|e| panic!("rnnr: {e}"));
        out.len()
    }
}

/// Runs one phase (`k == 0` ⇒ rNNR, else top-k) and gathers latencies.
#[allow(clippy::too_many_arguments)]
fn run_phase(args: &Args, pool: &[Vec<f32>], k: usize) -> PhaseResult {
    // Each client gets its own connection and pre-cut request batches
    // (round-robin over the pool so every request differs).
    let per_client_requests = args.requests;
    let batches: Vec<Vec<Vec<Vec<f32>>>> = (0..args.clients)
        .map(|c| {
            (0..per_client_requests)
                .map(|i| {
                    let start = (c * per_client_requests + i) * args.batch;
                    (0..args.batch).map(|j| pool[(start + j) % pool.len()].clone()).collect()
                })
                .collect()
        })
        .collect();

    let deadline = Duration::from_secs(args.connect_timeout_secs);
    let mut clients: Vec<Client> = (0..args.clients)
        .map(|_| {
            Client::connect_retry(args.addr.as_str(), deadline)
                .unwrap_or_else(|e| panic!("cannot connect to {}: {e}", args.addr))
        })
        .collect();

    // Warmup (connection setup, first-tick effects) outside the clock.
    for (client, reqs) in clients.iter_mut().zip(&batches) {
        for req in reqs.iter().take(args.warmup) {
            issue(client, req, args.radius, k);
        }
    }

    // Open-loop spacing: clients share one global schedule, interleaved.
    let interval = Duration::from_secs_f64(1.0 / args.rate);
    let start = Instant::now();
    let latencies: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&batches)
            .enumerate()
            .map(|(c, (client, reqs))| {
                let (mode, radius, clients) = (args.mode, args.radius, args.clients);
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(reqs.len());
                    for (i, req) in reqs.iter().enumerate() {
                        let t0 = if mode == Mode::Open {
                            // Client c owns schedule slots c, c+C, c+2C…
                            let slot = start + interval * (c + i * clients) as u32;
                            let now = Instant::now();
                            if slot > now {
                                std::thread::sleep(slot - now);
                            }
                            slot // latency from the *scheduled* time
                        } else {
                            Instant::now()
                        };
                        std::hint::black_box(issue(client, req, radius, k));
                        lat.push(t0.elapsed().as_micros() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();

    let mut all: Vec<u64> = latencies.into_iter().flatten().collect();
    all.sort_unstable();
    let total_requests = all.len();
    let total_queries = total_requests * args.batch;
    let mode = if args.mode == Mode::Open { "open" } else { "closed" };
    let what = if k > 0 { format!("topk k={k}") } else { format!("rnnr r={}", args.radius) };
    PhaseResult {
        id: format!("{what} {mode} c={} b={}", args.clients, args.batch),
        queries_per_sec: total_queries as f64 / wall,
        requests_per_sec: total_requests as f64 / wall,
        p50_us: percentile(&all, 50.0),
        p90_us: percentile(&all, 90.0),
        p99_us: percentile(&all, 99.0),
        max_us: all.last().copied().unwrap_or(0),
    }
}

/// xorshift64* — a deterministic op stream with no external crates;
/// the `--seed` makes a churn run exactly reproducible.
struct Churn(u64);

impl Churn {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Sets its flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Mutation workload against a `serve --live` process, then the
/// byte-identity check: rebuild the surviving corpus in process and
/// compare every pooled query's rNNR ids and top-k `(id, distance)`
/// pairs (bit for bit) against the server's answers.
fn run_churn(args: &Args, pool: &[Vec<f32>], data: &DenseDataset, info: &ServerInfo) {
    // The local mirror assumes the server holds exactly the fresh corpus
    // under ids 0..n; any other live set makes the first delete fail.
    if info.points != args.n as u64 {
        eprintln!(
            "loadgen: --churn needs a fresh `serve --live` with {} points, but the server \
             holds {} (restart it, or match --n)",
            args.n, info.points
        );
        std::process::exit(2);
    }
    let deadline = Duration::from_secs(args.connect_timeout_secs);
    let mut client = Client::connect_retry(args.addr.as_str(), deadline)
        .unwrap_or_else(|e| panic!("cannot connect to {}: {e}", args.addr));

    // Local mirror of the server's live set: the original corpus under
    // ids 0..n, extended/shrunk in lockstep with every acked frame.
    let mut live: Vec<(PointId, Vec<f32>)> =
        (0..args.n).map(|i| (i as PointId, data.row(i).to_vec())).collect();
    let mut next_id = args.n as PointId;
    let mut rng = Churn(args.seed | 1);
    let (mut inserts, mut deletes) = (0usize, 0usize);
    let mut mut_lat: Vec<u64> = Vec::with_capacity(args.churn);

    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let interleaved = std::thread::scope(|scope| {
        // Query pressure on a second connection, concurrent with the
        // mutations (answers are discarded; each one is linearized
        // against the index write lock at some point of the churn).
        let bg = scope.spawn(|| {
            let mut qc = Client::connect_retry(args.addr.as_str(), deadline)
                .unwrap_or_else(|e| panic!("cannot connect to {}: {e}", args.addr));
            let mut issued = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let q = std::slice::from_ref(&pool[issued % pool.len()]);
                qc.query_batch(q, args.radius).unwrap_or_else(|e| panic!("churn query: {e}"));
                issued += 1;
            }
            issued
        });
        // Stops the query thread on every way out of the writer loop,
        // a panic included, so a failed mutation exits instead of
        // leaving the scope waiting on the query thread forever.
        let stop_queries = StopOnDrop(&stop);
        for _ in 0..args.churn {
            let b = args.churn_batch;
            let t = Instant::now();
            // Insert-biased only when the live set runs low, so the
            // delete arm can always pick `b` distinct live ids.
            if rng.below(2) == 0 || live.len() <= b {
                let ids: Vec<PointId> = (0..b as PointId).map(|j| next_id + j).collect();
                let points: Vec<Vec<f32>> =
                    (0..b).map(|_| data.row(rng.below(args.n)).to_vec()).collect();
                let acked = client
                    .insert_batch(&ids, &points)
                    .unwrap_or_else(|e| panic!("churn insert: {e}"));
                assert_eq!(acked as usize, b, "server acked a partial insert batch");
                next_id += b as PointId;
                live.extend(ids.into_iter().zip(points));
                inserts += b;
            } else {
                let ids: Vec<PointId> =
                    (0..b).map(|_| live.swap_remove(rng.below(live.len())).0).collect();
                let acked =
                    client.delete_batch(&ids).unwrap_or_else(|e| panic!("churn delete: {e}"));
                assert_eq!(acked as usize, b, "server acked a partial delete batch");
                deletes += b;
            }
            mut_lat.push(t.elapsed().as_micros() as u64);
        }
        drop(stop_queries);
        bg.join().expect("churn query thread panicked")
    });
    let churn_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "churn: {} mutation frame(s) ({inserts} inserts, {deletes} deletes) with \
         {interleaved} interleaved query frame(s) in {churn_ms:.1} ms",
        args.churn,
    );

    // Rebuild the survivors from scratch with the serving parameters —
    // the living index's contract is byte-identity with exactly this.
    let preset = MixturePreset {
        n: args.n,
        dim: args.dim,
        seed: args.seed,
        shards: (info.shards as usize).max(1),
        levels: (info.topk_levels as usize).max(1),
        radius: args.radius,
    };
    let ids: Vec<PointId> = live.iter().map(|(id, _)| *id).collect();
    let dataset = DenseDataset::from_rows(args.dim, live.iter().map(|(_, v)| v.as_slice()));
    let t1 = Instant::now();
    let oracle = SegmentedIndex::build_bulk(
        dataset.clone(),
        &ids,
        preset.assignment(),
        preset.rnnr_builder(),
    );

    let served =
        client.query_batch(pool, args.radius).unwrap_or_else(|e| panic!("post-churn rnnr: {e}"));
    let mut engine = SegmentedQueryEngine::new();
    for (qi, (got, q)) in served.iter().zip(pool).enumerate() {
        let want = engine.query_with_strategy(&oracle, q, args.radius, Strategy::Hybrid).ids;
        assert_eq!(*got, want, "churn verify: rNNR divergence from the rebuild at query {qi}");
    }

    let mut topk_checked = 0usize;
    if args.k > 0 && info.topk_levels > 0 {
        let oracle = SegmentedTopKIndex::build_bulk(
            dataset,
            &ids,
            preset.assignment(),
            preset.schedule(),
            |_, r| preset.level_builder(r),
        );
        let served = client
            .query_topk_batch(pool, args.k)
            .unwrap_or_else(|e| panic!("post-churn topk: {e}"));
        let mut engine = SegmentedTopKEngine::new();
        for (qi, (got, q)) in served.iter().zip(pool).enumerate() {
            let want: Vec<(PointId, f64)> = engine
                .query_topk(&oracle, q, args.k)
                .neighbors
                .iter()
                .map(|n| (n.id, n.dist))
                .collect();
            let bitwise = got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|((gi, gd), (wi, wd))| gi == wi && gd.to_bits() == wd.to_bits());
            assert!(
                bitwise,
                "churn verify: top-k divergence from the rebuild at query {qi}:\n  \
                 server {got:?}\n  rebuild {want:?}"
            );
        }
        topk_checked = pool.len();
    }
    let verify_ms = t1.elapsed().as_secs_f64() * 1e3;
    println!(
        "churn verify: OK — {} rNNR and {topk_checked} top-k queries byte-identical to a \
         fresh rebuild on {} survivors ({verify_ms:.1} ms)",
        pool.len(),
        ids.len(),
    );

    if let Some(path) = &args.json {
        mut_lat.sort_unstable();
        let json = format!(
            "{{\n  \"bench\": \"churn\",\n  \"command\": \"cargo run --release -p hlsh-server --bin loadgen -- --churn\",\n  \"params\": {{ \"churn\": {}, \"churn_batch\": {}, \"n\": {}, \"dim\": {}, \"seed\": {}, \"radius\": {}, \"k\": {} }},\n  \"server\": {{ \"points\": {}, \"dim\": {}, \"shards\": {}, \"topk_levels\": {} }},\n  \"ops\": {{ \"inserts\": {inserts}, \"deletes\": {deletes}, \"interleaved_queries\": {interleaved} }},\n  \"survivors\": {},\n  \"churn_ms\": {churn_ms:.1},\n  \"verify_ms\": {verify_ms:.1},\n  \"mutation_p50_us\": {},\n  \"mutation_p99_us\": {},\n  \"mutation_max_us\": {},\n  \"rnnr_queries_checked\": {},\n  \"topk_queries_checked\": {topk_checked},\n  \"verified\": true\n}}\n",
            args.churn,
            args.churn_batch,
            args.n,
            args.dim,
            args.seed,
            args.radius,
            args.k,
            info.points,
            info.dim,
            info.shards,
            info.topk_levels,
            ids.len(),
            percentile(&mut_lat, 50.0),
            percentile(&mut_lat, 99.0),
            mut_lat.last().copied().unwrap_or(0),
            pool.len(),
        );
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nwrote {path}");
    }
}

fn main() {
    let args = parse_args();

    // The same mixture the server indexed; stride rows as the query
    // pool, matching the bench bins' query selection.
    let (data, _) = benchmark_mixture(args.dim, args.n, args.radius, args.seed);
    let stride = args.n / args.queries;
    let pool: Vec<Vec<f32>> = (0..args.queries).map(|i| data.row(i * stride).to_vec()).collect();

    let mut probe =
        Client::connect_retry(args.addr.as_str(), Duration::from_secs(args.connect_timeout_secs))
            .unwrap_or_else(|e| panic!("cannot connect to {}: {e}", args.addr));
    let info = probe.info().unwrap_or_else(|e| panic!("info: {e}"));
    drop(probe);
    assert_eq!(
        info.dim as usize, args.dim,
        "server indexes dim={} but loadgen generates dim={}",
        info.dim, args.dim
    );
    println!(
        "server at {}: {} points, dim {}, {} shard(s), {} top-k level(s)",
        args.addr, info.points, info.dim, info.shards, info.topk_levels
    );

    if args.churn > 0 {
        run_churn(&args, &pool, &data, &info);
        return;
    }
    drop(data);

    let mut results = vec![run_phase(&args, &pool, 0)];
    if args.k > 0 && info.topk_levels > 0 {
        results.push(run_phase(&args, &pool, args.k));
    }

    // Connection-scaling sweep: one open-loop rNNR point per client
    // count, same total sample count per point.
    for &c in &args.sweep_clients {
        let mut sweep = args.clone();
        sweep.mode = Mode::Open;
        sweep.clients = c;
        sweep.batch = args.sweep_batch;
        sweep.requests = (args.sweep_requests / c).max(3);
        sweep.warmup = args.warmup.min(1);
        results.push(run_phase(&sweep, &pool, 0));
    }

    for r in &results {
        println!(
            "{:<34} {:>9.0} queries/s  {:>7.0} req/s   p50 {:>7} µs  p90 {:>7} µs  p99 {:>7} µs  max {:>7} µs",
            r.id, r.queries_per_sec, r.requests_per_sec, r.p50_us, r.p90_us, r.p99_us, r.max_us
        );
    }

    if let Some(path) = &args.json {
        let mode = if args.mode == Mode::Open { "open" } else { "closed" };
        let entries: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    "    {{ \"id\": \"{}\", \"queries_per_sec\": {:.1}, \"requests_per_sec\": {:.1}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {} }}",
                    r.id, r.queries_per_sec, r.requests_per_sec, r.p50_us, r.p90_us, r.p99_us, r.max_us
                )
            })
            .collect();
        let sweep_list =
            args.sweep_clients.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ");
        let json = format!(
            "{{\n  \"bench\": \"serve\",\n  \"command\": \"cargo run --release -p hlsh-server --bin loadgen\",\n  \"params\": {{ \"mode\": \"{mode}\", \"clients\": {}, \"batch\": {}, \"requests_per_client\": {}, \"rate\": {:.1}, \"n\": {}, \"dim\": {}, \"seed\": {}, \"radius\": {}, \"k\": {}, \"sweep_clients\": [{sweep_list}], \"sweep_requests\": {}, \"sweep_batch\": {} }},\n  \"server\": {{ \"points\": {}, \"dim\": {}, \"shards\": {}, \"topk_levels\": {} }},\n  \"results\": [\n{}\n  ]\n}}\n",
            args.clients,
            args.batch,
            args.requests,
            args.rate,
            args.n,
            args.dim,
            args.seed,
            args.radius,
            args.k,
            args.sweep_requests,
            args.sweep_batch,
            info.points,
            info.dim,
            info.shards,
            info.topk_levels,
            entries.join(",\n"),
        );
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nwrote {path}");
    }
}
