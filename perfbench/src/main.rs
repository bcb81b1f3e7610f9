//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload frozen|churn|fanout --seed N --seconds S --trace 0|1 [--size full|smoke]
//! ```
//!
//! Generates the corpus and queries from the seed, serves them through
//! `hlsh-server` over loopback TCP, checks every answer, and prints the
//! run record followed by one result line (JSON) on stdout. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones.
//! `README.md` next to this crate explains the workloads and metrics.

mod check;
mod inputs;
mod layers;
mod load;
mod proc;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::Duration;

use report::Report;
use workloads::Workload;

/// Wall-clock bound of one run; past it the run fails instead of hanging.
const RUN_LIMIT: Duration = Duration::from_secs(170);
/// Where records, spans and per-run scratch files go, relative to the
/// working directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: inputs::Size,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: Workload::Frozen,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: inputs::FULL,
    };
    let mut seen_workload = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                seen_workload = true;
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--size" => {
                out.size =
                    inputs::Size::parse(value).ok_or_else(|| format!("unknown size {value:?}"))?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !seen_workload {
        return Err("--workload is required".into());
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        std::process::exit(proc::serve_main(&argv[1..]));
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload frozen|churn|fanout --seed N --seconds S --trace 0|1 [--size full|smoke]");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("perfbench: run exceeded {}s; stopping", RUN_LIMIT.as_secs());
        proc::kill_all();
        std::process::exit(3);
    });
    std::process::exit(run(&args));
}

fn run(args: &Args) -> i32 {
    let out = PathBuf::from(OUT_DIR);
    let scratch = out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return 1;
    }
    let inputs = inputs::generate(args.size, args.seed);
    let mut report = Report::new(args.workload.name(), args.seed, args.trace);
    let ticks = load::cpu_ticks();
    let result = if args.trace {
        layers::run(args.workload, &inputs, args.seed, args.seconds, &scratch, &mut report)
    } else {
        workloads::run(args.workload, &inputs, args.seed, args.seconds, &scratch, &mut report)
    };
    proc::kill_all();
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = result {
        report.wrong(format!("run failed: {e}"));
    }
    // CPU time the hypervisor gave to other guests: the machine's noise
    // during this run.
    report.extra("host_steal_share", load::steal_share(ticks, load::cpu_ticks()), "ratio");
    report.finish();
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let shape = format!(
        "\"size\":\"{}\",\"n\":{},\"dim\":{},\"pool\":{},\"batch\":{},\"near_dup_percent\":{}",
        inputs.size.name,
        inputs.size.n,
        inputs.size.dim,
        inputs.pool.len(),
        inputs::BATCH,
        inputs::NEAR_DUP_PERCENT
    );
    let record = report.record(&shape, nproc);
    let path = out.join(format!(
        "record-{}-{}-{}.json",
        args.workload.name(),
        args.seed,
        if args.trace { "trace" } else { "e2e" }
    ));
    if let Err(e) = std::fs::write(&path, format!("{record}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    for p in report.problems() {
        eprintln!("perfbench: {p}");
    }
    println!("{record}");
    let (metrics, correct) = match report.metrics_json() {
        Ok(m) => (m, report.correct()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ("{}".to_string(), false)
        }
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        report.attempted.max(1),
        report.failed
    );
    if correct {
        0
    } else {
        1
    }
}
