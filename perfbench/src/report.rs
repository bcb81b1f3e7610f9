//! The run record and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metric catalogs; they must
//! match `BENCHMARK.json` (a test checks it). Metrics outside the
//! catalogs go into the record only: the churn writer's, which the
//! other workloads cannot measure, the open loop's, too unsteady on a
//! shared machine to gate on, and the breakdown residuals.

use crate::inputs::BATCH;
use crate::load::{mean, median, percentile, Phase};
use crate::workloads::Writes;

/// `(name, unit)` of every end-to-end metric; each workload reports all.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("rnnr_qps", "1/s"),
    ("rnnr_p50_ms", "ms"),
    ("rnnr_p90_ms", "ms"),
    ("topk_qps", "1/s"),
    ("topk_p50_ms", "ms"),
    ("topk_p90_ms", "ms"),
    ("rnnr_recall", "ratio"),
    ("topk_recall", "ratio"),
    ("ok_ratio", "ratio"),
];

/// `(name, unit)` of every per-layer metric. A layer the workload does
/// not exercise reports 0 (no LSM on `frozen` or `fanout`, no
/// coordinator on `churn`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.self_ms", "ms"),
    ("server.requests_per_tick", "ratio"),
    ("server.rejected", "count"),
    ("server.lost_wakeups", "count"),
    ("service.rnnr_ms", "ms"),
    ("service.topk_ms", "ms"),
    ("service.insert_ms", "ms"),
    ("service.delete_ms", "ms"),
    ("sharded.speedup_2t", "ratio"),
    ("sharded.imbalance", "ratio"),
    ("engine.linear_share", "ratio"),
    ("engine.linear_time_share", "ratio"),
    ("engine.lsh_us", "us"),
    ("engine.linear_us", "us"),
    ("engine.s1_us", "us"),
    ("engine.s2_us", "us"),
    ("engine.s3_us", "us"),
    ("engine.hll_cost_frac", "ratio"),
    ("engine.hll_rel_err", "ratio"),
    ("engine.cand_per_hit", "ratio"),
    ("engine.collisions_per_cand", "ratio"),
    ("engine.s3_ns_per_cand", "ns"),
    ("engine.regret_p50", "ratio"),
    ("engine.regret_p90", "ratio"),
    ("kernels.scan_gbps", "GB/s"),
    ("topk.query_us", "us"),
    ("topk.levels_executed", "count"),
    ("topk.levels_skipped", "count"),
    ("topk.verified", "count"),
    ("topk.fallback_share", "ratio"),
    ("topk.early_exit_share", "ratio"),
    ("segmented.flushes", "count"),
    ("segmented.merges", "count"),
    ("segmented.segments", "count"),
    ("segmented.stall_ms", "ms"),
    ("segmented.read_amp", "ratio"),
    ("segmented.read_wait_ms", "ms"),
    ("coordinator.rounds_rnnr", "count"),
    ("coordinator.rounds_topk", "count"),
    ("coordinator.node_ms", "ms"),
    ("coordinator.self_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("build.rnnr_s", "s"),
    ("build.topk_s", "s"),
    ("build.live_s", "s"),
    ("loadgen.late_ms", "ms"),
    ("loadgen.trace_overhead", "ratio"),
];

/// Percentiles need this many samples beyond them to be reported.
pub const TAIL_SAMPLES: usize = 10;

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    metrics: Vec<(String, f64)>,
    extra: Vec<(String, f64, &'static str)>,
    phases: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    wrong: Vec<String>,
    errors: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            trace,
            metrics: Vec::new(),
            extra: Vec::new(),
            phases: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
            errors: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Sets a catalog metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// A record-only value.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push((name.to_string(), value, unit));
    }

    pub fn remark(&mut self, text: String) {
        self.notes.push(text);
    }

    /// An answer that differs from its oracle: the run is not correct.
    pub fn wrong(&mut self, what: String) {
        self.wrong.push(what);
    }

    pub fn setup(&mut self, setups: &[f64]) {
        self.metric("setup_s", median(setups));
        self.extra("setup_reps_s", setups.iter().sum::<f64>(), "s");
        self.attempted += setups.len() as u64;
    }

    pub fn rss(&mut self, mb: f64) {
        self.metric("rss_mb", mb);
    }

    pub fn recall(&mut self, rnnr: f64, topk: f64) {
        self.metric("rnnr_recall", rnnr);
        self.metric("topk_recall", topk);
    }

    /// Percentile `q` of `lat`, with a remark when fewer than
    /// [`TAIL_SAMPLES`] samples lie beyond it.
    fn tail(&mut self, phase: &str, lat: &[f64], q: f64) -> f64 {
        let beyond = ((1.0 - q) * lat.len() as f64).floor() as usize;
        if beyond < TAIL_SAMPLES {
            self.remark(format!(
                "{phase}: p{} rests on {beyond} samples beyond it ({} total)",
                (q * 100.0).round(),
                lat.len()
            ));
        }
        percentile(lat, q)
    }

    /// Folds the timed read phases into the end-to-end metrics: each
    /// rate is the requests completed over all rounds' measured windows,
    /// each p50 and p90 the mean over rounds of that round's figure. The
    /// rounds sample different points of the run (on `churn`, of the
    /// memtable's growth and flush), and over ten seeds a mean over them
    /// moved less between runs than their median: 0.11 against 0.17 of
    /// the median on churn's rNNR p50. The p90's sample count is all
    /// rounds' samples beyond their round's p90.
    pub fn phases(&mut self, phases: Vec<Phase>) {
        for name in ["rnnr", "topk", "open"] {
            let rounds: Vec<&Phase> = phases.iter().filter(|p| p.name == name).collect();
            if rounds.is_empty() {
                continue;
            }
            let per_round =
                |f: &dyn Fn(&Phase) -> f64| mean(&rounds.iter().map(|p| f(p)).collect::<Vec<_>>());
            let timed: usize = rounds.iter().map(|p| p.spans.len()).sum();
            let rate = timed as f64 / rounds.iter().map(|p| p.window_s).sum::<f64>().max(1e-9);
            let p50 = per_round(&|p| median(&p.latencies_ms()));
            let p90 = per_round(&|p| percentile(&p.latencies_ms(), 0.90));
            let beyond = timed / 10;
            if beyond < TAIL_SAMPLES {
                self.remark(format!("{name}: p90 rests on {beyond} samples beyond it"));
            }
            if name == "open" {
                // Record only: at this latency scale, steal-delayed
                // wake-ups swung the open loop by a third between runs.
                let late: Vec<f64> = rounds.iter().flat_map(|p| p.late_ms()).collect();
                self.extra("open_late_p99_ms", percentile(&late, 0.99), "ms");
                self.extra("open_p50_ms", p50, "ms");
                self.extra("open_p90_ms", p90, "ms");
            } else {
                self.metric(&format!("{name}_qps"), rate * BATCH as f64);
                self.metric(&format!("{name}_p50_ms"), p50);
                self.metric(&format!("{name}_p90_ms"), p90);
            }
        }
        for p in phases {
            self.phase_line(&p);
            if let Some(m) = p.mismatch {
                self.wrong(format!("{}: {m}", p.name));
            }
            if let Some(e) = p.error {
                self.errors.push(format!("{}: {e}", p.name));
            }
        }
    }

    pub fn phase_line(&mut self, p: &Phase) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        let lat = p.latencies_ms();
        self.phases.push(format!(
            "{{\"name\":\"{}\",\"sent\":{},\"succeeded\":{},\"failed\":{},\"timed\":{},\"window_s\":{},\"p50_ms\":{},\"p90_ms\":{},\"steal\":{}}}",
            p.name,
            p.attempted,
            p.succeeded,
            p.failed,
            p.spans.len(),
            p.window_s,
            median(&lat),
            percentile(&lat, 0.9),
            p.steal
        ));
    }

    /// Records how many of the run's servers lost an event-loop wake-up
    /// (see `load::with_heartbeat`). The answers stay right, so the run
    /// stays correct; its timings carry up to a heartbeat per request.
    pub fn lost_wakeups(&mut self, count: usize) {
        if count > 0 {
            self.remark(format!(
                "{count} server(s) lost an event-loop wake-up; from then on answers waited for \
                 the heartbeat"
            ));
        }
        if self.trace {
            self.metric("server.lost_wakeups", count as f64);
        } else {
            self.extra("lost_wakeups", count as f64, "count");
        }
    }

    pub fn writes(&mut self, w: &Writes) {
        let lat = w.latencies_ms();
        let sent = w.batches.len() as u64 + w.failed;
        self.attempted += sent;
        self.failed += w.failed;
        self.phases.push(format!(
            "{{\"name\":\"write\",\"sent\":{},\"succeeded\":{},\"failed\":{},\"timed\":{},\"window_s\":{}}}",
            sent,
            w.batches.len(),
            w.failed,
            w.batches.len(),
            w.elapsed_s
        ));
        self.extra("write_pts_per_s", w.points() as f64 / w.elapsed_s.max(1e-9), "1/s");
        self.extra("write_p50_ms", median(&lat), "ms");
        let t = self.tail("write", &lat, 0.90);
        self.extra("write_p90_ms", t, "ms");
        if let Some(e) = &w.error {
            self.errors.push(format!("write: {e}"));
        }
    }

    /// Finishes the end-to-end metrics that depend on the totals.
    pub fn finish(&mut self) {
        if !self.trace {
            let ok =
                self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64;
            self.metric("ok_ratio", ok);
            self.extra("error_ratio", 1.0 - ok, "ratio");
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty() && self.errors.is_empty()
    }

    pub fn problems(&self) -> Vec<String> {
        self.wrong.iter().chain(&self.errors).cloned().collect()
    }

    fn catalog(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Catalog metrics as a JSON object; a missing or non-finite value
    /// is an error.
    pub fn metrics_json(&self) -> Result<String, String> {
        let mut parts = Vec::new();
        for &(name, unit) in self.catalog() {
            let v = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            parts.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        Ok(format!("{{{}}}", parts.join(",")))
    }

    /// The full run record: metrics with units, phases, the inputs'
    /// shape and provenance.
    pub fn record(&self, shape: &str, nproc: usize) -> String {
        let mut values: Vec<String> = Vec::new();
        for &(name, unit) in self.catalog() {
            if let Some(v) = self.get(name) {
                values.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
            }
        }
        for (name, v, unit) in &self.extra {
            values.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        let quote = |s: &String| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "'"));
        format!(
            "{{\"record\":\"perfbench\",\"workload\":\"{}\",\"seed\":{},\"trace\":{},{},\"nproc\":{},\
             \"data\":\"synthetic Gaussian mixture; the MNIST, Covertype, Corel and Webspam loaders need dataset files that are not in the repository\",\
             \"metrics\":{{{}}},\"phases\":[{}],\"problems\":[{}],\"remarks\":[{}]}}",
            self.workload,
            self.seed,
            self.trace,
            shape,
            nproc,
            values.join(","),
            self.phases.join(","),
            self.problems().iter().map(quote).collect::<Vec<_>>().join(","),
            self.notes.iter().map(quote).collect::<Vec<_>>().join(","),
        )
    }
}
