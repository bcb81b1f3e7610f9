//! The traced run: per-layer metrics.
//!
//! Nothing here adds tracing inside the program. In-process layers
//! (builder, snapshot, sharded, engine, topk, kernels) are timed around
//! their public calls, reading the `QueryReport` / `TopKReport` fields
//! they already return. The serving layers run the workload's topology
//! in this process, every service wrapped in [`Traced`], and are read
//! from the spans, the client-side request times and
//! `ServerHandle::stats`.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hlsh_core::search::ExecutedArm;
use hlsh_core::segmented::DEFAULT_FLUSH_THRESHOLD;
use hlsh_core::{
    load_snapshot, save_snapshot, LoadMode, SegmentedIndex, SegmentedQueryEngine,
    ShardedQueryEngine, ShardedTopKEngine, Strategy,
};
use hlsh_families::PStableL2;
use hlsh_server::{
    Coordinator, CoordinatorConfig, LiveLshService, QueryService, ServerConfig, ServerHandle,
    ShardNodeService, ShardedLshService,
};
use hlsh_vec::{PointId, L2};

use crate::check::{Rnnr, TopK};
use crate::inputs::{self, Class, Inputs, BATCH, RADIUS};
use crate::load::{self, mean, median, percentile, ClientSpan, Phase};
use crate::report::Report;
use crate::trace::{Recorder, Span, Traced};
use crate::workloads::{
    lost_wakeups, read_phases, with_writer, write_rate, LiveSet, Plan, Workload, REQUESTS,
};

/// Pool queries the in-process engine probes run (each runs all three
/// strategies).
const PROBE: usize = 512;
/// Requests the thread-scaling probe replays.
const SCALING_REQUESTS: usize = 16;
/// The both-arms guard: on `frozen`, the share of probed queries that
/// take the linear arm must lie within this factor band around the
/// share drawn from the near-duplicate cluster.
pub const LINEAR_SHARE_BAND: (f64, f64) = (0.5, 1.5);

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One traced run of `workload`.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    secs_total: f64,
    scratch: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let preset = &inputs.preset;

    // Builder layer.
    let data = inputs.data.clone();
    let t = Instant::now();
    let rnnr = preset.build_rnnr(data);
    report.metric("build.rnnr_s", secs(t));
    let data = inputs.data.clone();
    let t = Instant::now();
    let topk = preset.build_topk(data);
    report.metric("build.topk_s", secs(t));
    let (d1, d2) = (inputs.data.clone(), inputs.data.clone());
    let t = Instant::now();
    let live = (preset.build_live_rnnr(d1), preset.build_live_topk(d2));
    report.metric("build.live_s", secs(t));

    // Snapshot layer.
    let snapshot = scratch.join("layers.hlsh");
    let stats =
        save_snapshot(&snapshot, &rnnr, Some(&topk)).map_err(|e| format!("save snapshot: {e}"))?;
    report.metric("snapshot.bytes", stats.bytes as f64);
    let mut loads = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let loaded = load_snapshot::<PStableL2, L2>(&snapshot, LoadMode::Read)
            .map_err(|e| format!("load snapshot: {e}"))?;
        loads.push(secs(t) * 1e3);
        drop(loaded);
    }
    report.metric("snapshot.load_ms", median(&loads));

    // In-process query layers.
    let reqs = inputs::requests(inputs, seed, REQUESTS);
    let probe: Vec<usize> = (0..inputs.pool.len().min(PROBE)).collect();
    engine_probe(inputs, &rnnr, &probe, report);
    sharded_probe(inputs, &rnnr, &reqs, report);
    topk_probe(inputs, &topk, &probe, report);
    if workload == Workload::Frozen && inputs.size == inputs::FULL {
        let dense = probe.iter().filter(|&&i| inputs.pool_class[i] == Class::NearDup).count()
            as f64
            / probe.len() as f64;
        let share = report.get("engine.linear_share").unwrap_or(0.0);
        let (lo, hi) = (LINEAR_SHARE_BAND.0 * dense, LINEAR_SHARE_BAND.1 * dense);
        if !(lo..=hi).contains(&share) {
            report.wrong(format!(
                "both-arms guard: {:.3} of queries took the linear arm, outside [{lo:.3}, {hi:.3}] \
                 around the near-duplicate share {dense:.3}",
                share
            ));
        }
        report.extra("guard_dense_share", dense, "ratio");
    }

    // Serving layers. A layer this workload does not exercise reports 0.
    for m in COORDINATOR_METRICS.iter().chain(LIVE_METRICS) {
        report.metric(m, 0.0);
    }
    let rec = Recorder::new(&inputs.pool);
    let part = |share: f64| Duration::from_secs_f64(secs_total * share);
    let plan =
        Plan { rounds: 1, warm: part(0.03), rnnr: part(0.22), topk: part(0.22), open: part(0.22) };
    let rate = workload.open_rate(inputs);
    // Every server, each as a plain and a traced pair; the front pair last.
    let mut servers: Vec<ServerHandle> = Vec::new();
    let mut living = None;
    match workload {
        Workload::Frozen => {
            drop(live);
            let svc = Arc::new(ShardedLshService::new(rnnr, Some(topk), inputs.size.dim));
            servers.extend(serve_pair(svc, 0, &rec, None)?);
        }
        Workload::Churn => {
            drop((rnnr, topk));
            let svc = Arc::new(LiveLshService::new(live.0, Some(live.1)));
            let shape = {
                let svc = Arc::clone(&svc);
                move || svc.with_rnnr(|ix| ix.segment_counts())
            };
            servers.extend(serve_pair(svc.clone(), 0, &rec, Some(Box::new(shape)))?);
            living = Some(svc);
        }
        Workload::Fanout => {
            drop((rnnr, topk, live));
            servers = fleet(&snapshot, inputs, &rec)?;
        }
    }
    let (plain, traced) = (&servers[servers.len() - 2], &servers[servers.len() - 1]);

    // Untraced, then traced, replay of the same requests; churn keeps its
    // writer going through both.
    let traced_addr = traced.local_addr().to_string();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let (untraced, phases) = load::with_heartbeat(&addrs, || match &living {
        Some(svc) => churn_trace(inputs, svc, plain, traced, &reqs, &plan, rate, seed, report),
        None => Ok((
            rnnr_closed(plain, inputs, &reqs, &plan, 2),
            read_phases(&traced_addr, inputs, &reqs, None, &plan, rate, 2),
        )),
    })?;
    let plain_addr = plain.local_addr().to_string();
    report.lost_wakeups(lost_wakeups(&[&plain_addr, &traced_addr], inputs)?);
    report.metric("loadgen.trace_overhead", phases[0].rate() / untraced.rate().max(1e-9));
    let spans = rec.spans();
    serving_metrics(&spans, &phases, &reqs, report);
    let stats = traced.stats();
    report.metric("server.requests_per_tick", stats.admitted as f64 / stats.ticks.max(1) as f64);
    let rejected: u64 = servers
        .iter()
        .map(|h| h.stats())
        .map(|s| s.rejected_busy + s.evicted_idle + s.expired_deadlines)
        .sum();
    report.metric("server.rejected", rejected as f64);
    for p in std::iter::once(&untraced).chain(&phases) {
        report.phase_line(p);
    }
    match workload {
        Workload::Fanout => coordinator_metrics(&spans, report),
        Workload::Churn => live_metrics(&spans, &phases, &reqs, report),
        Workload::Frozen => {
            // The coordinator layer, for benchmarks that leave out the
            // `fanout` workload: the same requests through an in-process
            // fleet cold-started from the snapshot.
            let rec = Recorder::new(&inputs.pool);
            let fleet = fleet(&snapshot, inputs, &rec)?;
            let addr = fleet[fleet.len() - 1].local_addr().to_string();
            let addrs: Vec<String> = fleet.iter().map(|s| s.local_addr().to_string()).collect();
            let req = |i: usize| &reqs[i % reqs.len()];
            for (name, dur) in [("fleet_rnnr", part(0.08)), ("fleet_topk", part(0.08))] {
                let phase = load::with_heartbeat(&addrs, || {
                    load::closed(
                        name,
                        &addr,
                        2,
                        plan.warm,
                        dur,
                        |c, i| match name {
                            "fleet_rnnr" => {
                                c.query_batch(&inputs.queries(req(i)), RADIUS).map(|_| ())
                            }
                            _ => c.query_topk_batch(&inputs.queries(req(i)), inputs::K).map(|_| ()),
                        },
                        |_, _| Ok(()),
                    )
                });
                report.phase_line(&phase);
            }
            coordinator_metrics(&rec.spans(), report);
        }
    }
    let _ = std::fs::remove_file(&snapshot);
    let path =
        scratch.parent().unwrap_or(scratch).join(format!("spans-{}-{seed}.jsonl", workload.name()));
    match rec.write(&spans, &path) {
        Ok(()) => report.remark(format!("{} spans written to {}", spans.len(), path.display())),
        Err(e) => report.remark(format!("could not write spans: {e}")),
    }
    Ok(())
}

/// Metrics of layers only some workloads exercise.
const COORDINATOR_METRICS: &[&str] = &[
    "coordinator.rounds_rnnr",
    "coordinator.rounds_topk",
    "coordinator.node_ms",
    "coordinator.self_ms",
];
const LIVE_METRICS: &[&str] = &[
    "service.insert_ms",
    "service.delete_ms",
    "segmented.flushes",
    "segmented.merges",
    "segmented.segments",
    "segmented.stall_ms",
    "segmented.read_amp",
    "segmented.read_wait_ms",
];

/// Two shard nodes loaded from `snapshot` and a coordinator in front,
/// in this process: plain and traced pairs, the coordinator pair last.
fn fleet(
    snapshot: &Path,
    inputs: &Inputs,
    rec: &Arc<Recorder>,
) -> Result<Vec<ServerHandle>, String> {
    let mut servers = Vec::new();
    let (mut plain_nodes, mut traced_nodes) = (Vec::new(), Vec::new());
    for shard in 0..inputs.preset.shards {
        let loaded = load_snapshot::<PStableL2, L2>(snapshot, LoadMode::Read)
            .map_err(|e| format!("load snapshot: {e}"))?;
        let node = Arc::new(ShardNodeService::new(
            ShardedLshService::new(loaded.rnnr, loaded.topk, inputs.size.dim),
            shard as u32,
        ));
        let [p, t] = serve_pair(node, 1 + shard, rec, None)?;
        plain_nodes.push(p.local_addr().to_string());
        traced_nodes.push(t.local_addr().to_string());
        servers.extend([p, t]);
    }
    let connect = |nodes: &[String]| {
        Coordinator::connect(nodes, CoordinatorConfig::default())
            .map_err(|e| format!("coordinator: {e}"))
    };
    servers.push(spawn(Arc::new(connect(&plain_nodes)?))?);
    let traced = Traced::new(Arc::new(connect(&traced_nodes)?), 0, Arc::clone(rec));
    servers.push(spawn(Arc::new(traced))?);
    Ok(servers)
}

fn spawn(svc: Arc<dyn QueryService>) -> Result<ServerHandle, String> {
    hlsh_server::spawn(svc, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))
}

type Shape = Box<dyn Fn() -> Vec<usize> + Send + Sync>;

/// Serves `svc` twice: plain, and wrapped in [`Traced`] as `server`.
fn serve_pair(
    svc: Arc<dyn QueryService>,
    server: usize,
    rec: &Arc<Recorder>,
    shape: Option<Shape>,
) -> Result<[ServerHandle; 2], String> {
    let mut traced = Traced::new(Arc::clone(&svc), server, Arc::clone(rec));
    if let Some(shape) = shape {
        traced = traced.with_shape(shape);
    }
    Ok([spawn(svc)?, spawn(Arc::new(traced))?])
}

fn rnnr_closed(
    h: &ServerHandle,
    inputs: &Inputs,
    reqs: &[Vec<u32>],
    plan: &Plan,
    conns: usize,
) -> Phase {
    let addr = h.local_addr().to_string();
    load::closed(
        "rnnr_untraced",
        &addr,
        conns,
        plan.warm,
        plan.rnnr,
        |c, i| c.query_batch(&inputs.queries(&reqs[i % reqs.len()]), RADIUS),
        |_, _| Ok(()),
    )
}

/// The service span that carried a client request: a `name` span of
/// the front server inside the request's send..receive interval whose
/// query ids contain the request's in order.
fn carrier<'a>(spans: &'a [Span], name: &str, c: &ClientSpan, request: &[u32]) -> Option<&'a Span> {
    spans.iter().find(|s| {
        s.server == 0
            && s.name == name
            && s.start >= c.sent
            && s.end <= c.done
            && s.ids.windows(request.len()).any(|w| w == request)
    })
}

/// Socket latency minus carrier span, and the carrier span, per request.
fn split(
    spans: &[Span],
    name: &str,
    phase: &Phase,
    reqs: &[Vec<u32>],
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut lat, mut own, mut svc) = (Vec::new(), Vec::new(), Vec::new());
    for c in &phase.spans {
        if let Some(s) = carrier(spans, name, c, &reqs[c.req % reqs.len()]) {
            let l = (c.done - c.sent).as_secs_f64() * 1e3;
            lat.push(l);
            svc.push(s.ms());
            own.push(l - s.ms());
        }
    }
    (lat, own, svc)
}

fn serving_metrics(spans: &[Span], phases: &[Phase], reqs: &[Vec<u32>], report: &mut Report) {
    let of = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.server == 0 && s.name == name).map(Span::ms).collect()
    };
    report.metric("service.rnnr_ms", median(&of("rnnr")));
    report.metric("service.topk_ms", median(&of("topk")));
    let (lat, own, svc) = split(spans, "rnnr", &phases[0], reqs);
    report.metric("server.self_ms", median(&own));
    let residual = median(&lat) - (median(&own) + median(&svc));
    report.extra("breakdown.rnnr_p50_ms", median(&lat), "ms");
    report.extra("breakdown.service_p50_ms", median(&svc), "ms");
    report.extra("breakdown.residual_ms", residual, "ms");
    report.extra("breakdown.matched", lat.len() as f64, "count");
    report.extra("breakdown.requests", phases[0].spans.len() as f64, "count");
    report.remark(format!(
        "rnnr p50 {:.3} ms = server self {:.3} ms + service span {:.3} ms + residual {:.3} ms \
         (medians of {} matched requests)",
        median(&lat),
        median(&own),
        median(&svc),
        residual,
        lat.len()
    ));
    let open = &phases[2];
    report.metric("loadgen.late_ms", percentile(&open.late_ms(), 0.99));
}

fn coordinator_metrics(spans: &[Span], report: &mut Report) {
    let nodes: Vec<&Span> =
        spans.iter().filter(|s| s.server > 0 && s.name != "shard.info").collect();
    report.metric("coordinator.node_ms", median(&nodes.iter().map(|s| s.ms()).collect::<Vec<_>>()));
    let mut own = Vec::new();
    let mut critical = Vec::new();
    let mut coord_ms = Vec::new();
    for kind in ["rnnr", "topk"] {
        let (mut calls, mut requests) = (0usize, 0usize);
        for (ci, c) in spans.iter().enumerate().filter(|(_, s)| s.server == 0 && s.name == kind) {
            requests += c.ids.len() / BATCH;
            let children: Vec<&&Span> = nodes.iter().filter(|s| s.parent == Some(ci)).collect();
            calls += children.len();
            // Round j is every node's j-th call; the slowest sets its time.
            let mut per_node: Vec<Vec<f64>> = Vec::new();
            for s in &children {
                if per_node.len() < s.server {
                    per_node.resize(s.server, Vec::new());
                }
                per_node[s.server - 1].push(s.ms());
            }
            let rounds = per_node.iter().map(Vec::len).max().unwrap_or(0);
            let path: f64 = (0..rounds)
                .map(|j| per_node.iter().filter_map(|v| v.get(j)).copied().fold(0.0, f64::max))
                .sum();
            own.push(c.ms() - path);
            critical.push(path);
            coord_ms.push(c.ms());
        }
        report.metric(&format!("coordinator.rounds_{kind}"), calls as f64 / requests.max(1) as f64);
    }
    report.metric("coordinator.self_ms", median(&own));
    let residual = median(&coord_ms) - median(&own) - median(&critical);
    report.remark(format!(
        "coordinator span p50 {:.3} ms = self {:.3} ms + slowest-node path {:.3} ms + residual {:.3} ms",
        median(&coord_ms),
        median(&own),
        median(&critical),
        residual
    ));
    report.extra("breakdown.coordinator_p50_ms", median(&coord_ms), "ms");
    report.extra("breakdown.node_path_p50_ms", median(&critical), "ms");
}

/// The churn replay: untraced reads, then traced reads, the writer going
/// throughout; then the LSM shape and read amplification, which need the
/// writer's record and the living index itself.
#[allow(clippy::too_many_arguments)]
fn churn_trace(
    inputs: &Inputs,
    svc: &LiveLshService<PStableL2, L2>,
    plain: &ServerHandle,
    traced: &ServerHandle,
    reqs: &[Vec<u32>],
    plan: &Plan,
    rate: f64,
    seed: u64,
    report: &mut Report,
) -> Result<(Phase, Vec<Phase>), String> {
    let mut live = LiveSet::new(inputs, seed);
    let plain_addr = plain.local_addr().to_string();
    let traced_addr = traced.local_addr().to_string();
    let writes_per_s = write_rate(inputs);
    let untraced_secs = (plan.warm + plan.rnnr).as_secs_f64();
    let (untraced, mut writes) =
        with_writer(&plain_addr, &mut live, writes_per_s, untraced_secs, || {
            rnnr_closed(plain, inputs, reqs, plan, 1)
        });
    let (phases, more) =
        with_writer(&traced_addr, &mut live, writes_per_s, plan.read_secs(), || {
            read_phases(&traced_addr, inputs, reqs, None, plan, rate, 1)
        });
    writes.merge(more);
    if let Some(e) = &writes.error {
        return Err(format!("churn writer: {e}"));
    }
    report.writes(&writes);

    // LSM shape: every insert adds a memtable row, a shard flushes at the
    // threshold, and a merge is a flush that did not add a segment.
    let assignment = inputs.preset.assignment();
    let mut inserted = vec![0usize; assignment.shards()];
    for id in inputs.size.n as PointId..live.next_id {
        inserted[assignment.shard_of(id)] += 1;
    }
    let flushes: usize = inserted.iter().map(|c| c / DEFAULT_FLUSH_THRESHOLD).sum();
    let segments: usize = svc.with_rnnr(|ix| ix.segment_counts()).iter().sum();
    let grown = segments - assignment.shards();
    report.metric("segmented.flushes", flushes as f64);
    report.metric("segmented.merges", flushes.saturating_sub(grown) as f64);
    report.metric("segmented.segments", segments as f64);

    // Read amplification: the churned index against a rebuild on the
    // survivors, same queries, same engine.
    let (data, ids) = live.survivors(inputs.size.dim);
    let rebuilt = SegmentedIndex::build_bulk(
        data,
        &ids,
        inputs.preset.assignment(),
        inputs.preset.rnnr_builder(),
    );
    let probe = &inputs.pool[..inputs.pool.len().min(PROBE)];
    let time = |ix: &SegmentedIndex<PStableL2, L2>| {
        let mut e = SegmentedQueryEngine::new();
        let t = Instant::now();
        for q in probe {
            std::hint::black_box(e.query(ix, q, RADIUS));
        }
        secs(t)
    };
    let (mut churned, mut clean) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        churned.push(svc.with_rnnr(time));
        clean.push(time(&rebuilt));
    }
    report.metric("segmented.read_amp", median(&churned) / median(&clean));
    Ok((untraced, phases))
}

/// Churn metrics read from the spans: mutation calls and the reader's
/// time outside its service span.
fn live_metrics(spans: &[Span], phases: &[Phase], reqs: &[Vec<u32>], report: &mut Report) {
    let (_, outside, _) = split(spans, "rnnr", &phases[0], reqs);
    report.metric("segmented.read_wait_ms", percentile(&outside, 0.9));
    let calls = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.server == 0 && s.name == name).map(Span::ms).collect()
    };
    let (ins, del) = (calls("insert"), calls("delete"));
    report.metric("service.insert_ms", median(&ins));
    report.metric("service.delete_ms", median(&del));
    report.metric("segmented.stall_ms", ins.iter().chain(&del).copied().fold(0.0, f64::max));
}

/// Engine layer: every probed query runs hybrid, LSH-only and
/// linear-only, so each hybrid decision can be scored against both arms.
fn engine_probe(inputs: &Inputs, rnnr: &Rnnr, probe: &[usize], report: &mut Report) {
    let mut e = ShardedQueryEngine::new();
    for &i in probe.iter().take(32) {
        e.query(rnnr, &inputs.pool[i], RADIUS);
    }
    let (mut lin_q, mut lsh_ns, mut lin_ns) = (0usize, Vec::new(), Vec::new());
    let (mut s1, mut s2, mut s3, mut frac, mut err, mut regret) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut cands, mut hits, mut colls, mut s3_ns, mut s3_cands) = (0f64, 0f64, 0f64, 0f64, 0f64);
    let mut scan_gbps = Vec::new();
    let bytes = (inputs.size.n * inputs.size.dim * 4) as f64;
    let mut out = Vec::new();
    for &i in probe {
        let q = &inputs.pool[i];
        let h = e.query_with_strategy(rnnr, q, RADIUS, Strategy::Hybrid).report;
        let l = e.query_with_strategy(rnnr, q, RADIUS, Strategy::LshOnly).report;
        let x = e.query_with_strategy(rnnr, q, RADIUS, Strategy::LinearOnly).report;
        let total = h.total_nanos as f64;
        s1.push(h.hash_nanos as f64 / 1e3);
        s2.push(h.hll_nanos as f64 / 1e3);
        frac.push(h.hll_cost_fraction());
        let actual = l.cand_size_actual.unwrap_or(0);
        if actual > 0 {
            err.push((h.cand_size_estimate - actual as f64).abs() / actual as f64);
        }
        cands += actual as f64;
        hits += l.output_size as f64;
        colls += l.collisions as f64;
        let chosen = if h.executed == ExecutedArm::Linear {
            lin_q += 1;
            lin_ns.push(total);
            x.total_nanos
        } else {
            lsh_ns.push(total);
            let verify = total - (h.hash_nanos + h.hll_nanos) as f64;
            s3.push(verify / 1e3);
            s3_ns += verify;
            s3_cands += h.cand_size_actual.unwrap_or(0) as f64;
            l.total_nanos
        };
        regret.push(chosen as f64 / l.total_nanos.min(x.total_nanos).max(1) as f64);
        if inputs.pool_class[i] == Class::NearDup {
            // The full-scan kernel itself, over the whole corpus.
            let t = Instant::now();
            out.clear();
            hlsh_vec::kernels::l2_scan(inputs.data.as_flat(), inputs.size.dim, q, RADIUS, &mut out);
            scan_gbps.push(bytes / secs(t) / 1e9);
        }
    }
    let n = probe.len() as f64;
    let (lsh_sum, lin_sum): (f64, f64) = (lsh_ns.iter().sum(), lin_ns.iter().sum());
    report.metric("engine.linear_share", lin_q as f64 / n);
    report.metric("engine.linear_time_share", lin_sum / (lsh_sum + lin_sum).max(1.0));
    report.metric("engine.lsh_us", mean(&lsh_ns) / 1e3);
    report.metric("engine.linear_us", mean(&lin_ns) / 1e3);
    report.metric("engine.s1_us", mean(&s1));
    report.metric("engine.s2_us", mean(&s2));
    report.metric("engine.s3_us", mean(&s3));
    report.metric("engine.hll_cost_frac", mean(&frac));
    report.metric("engine.hll_rel_err", mean(&err));
    report.metric("engine.cand_per_hit", cands / hits.max(1.0));
    report.metric("engine.collisions_per_cand", colls / cands.max(1.0));
    report.metric("engine.s3_ns_per_cand", s3_ns / s3_cands.max(1.0));
    report.metric("engine.regret_p50", percentile(&regret, 0.5));
    report.metric("engine.regret_p90", percentile(&regret, 0.9));
    report.metric("kernels.scan_gbps", median(&scan_gbps));
}

/// Sharded layer: the same request batches through
/// `query_batch_with_strategy` at one and two threads.
fn sharded_probe(inputs: &Inputs, rnnr: &Rnnr, reqs: &[Vec<u32>], report: &mut Report) {
    let batches: Vec<Vec<Vec<f32>>> =
        reqs.iter().take(SCALING_REQUESTS).map(|r| inputs.queries(r)).collect();
    let run = |threads: usize| {
        let t = Instant::now();
        let outs: Vec<_> = batches
            .iter()
            .map(|b| rnnr.query_batch_with_strategy(b, RADIUS, Strategy::Hybrid, Some(threads)))
            .collect();
        (secs(t), outs)
    };
    run(2);
    let (mut one, mut two) = (Vec::new(), Vec::new());
    let mut imbalance = Vec::new();
    for round in 0..3 {
        let (t1, outs) = run(1);
        let (t2, _) = run(2);
        one.push(t1);
        two.push(t2);
        if round == 0 {
            // par_map_with's static split: two contiguous halves.
            for out in &outs {
                let chunk = out.len().div_ceil(2);
                let sums: Vec<f64> = out
                    .chunks(chunk)
                    .map(|c| c.iter().map(|o| o.report.total_nanos as f64).sum())
                    .collect();
                imbalance.push(sums.iter().copied().fold(0.0, f64::max) / mean(&sums).max(1.0));
            }
        }
    }
    report.metric("sharded.speedup_2t", median(&one) / median(&two));
    report.metric("sharded.imbalance", mean(&imbalance));
    report.extra(
        "nproc_for_speedup",
        std::thread::available_parallelism().map_or(1, |p| p.get()) as f64,
        "count",
    );
}

/// Top-k layer: the ladder walk's report per probed query.
fn topk_probe(inputs: &Inputs, topk: &TopK, probe: &[usize], report: &mut Report) {
    let mut e = ShardedTopKEngine::new();
    let reports: Vec<_> =
        probe.iter().map(|&i| e.query_topk(topk, &inputs.pool[i], inputs::K).report).collect();
    let avg = |f: &dyn Fn(&hlsh_core::TopKReport) -> f64| {
        mean(&reports.iter().map(f).collect::<Vec<_>>())
    };
    report.metric("topk.query_us", avg(&|r| r.total_nanos as f64 / 1e3));
    report.metric("topk.levels_executed", avg(&|r| r.levels_executed as f64));
    report.metric("topk.levels_skipped", avg(&|r| r.levels_skipped as f64));
    report.metric("topk.verified", avg(&|r| r.verified as f64));
    report.metric("topk.fallback_share", avg(&|r| r.exact_fallback as u8 as f64));
    report.metric("topk.early_exit_share", avg(&|r| r.early_exit as u8 as f64));
}
