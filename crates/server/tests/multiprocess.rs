//! CI gate: the distributed deployment as real processes.
//!
//! The in-process gate (`tests/distributed.rs` at the workspace root)
//! pins the fan-out algebra; this one pins the *deployment story* from
//! `docs/DISTRIBUTED.md` end to end, with nothing shared but bytes:
//!
//! 1. build once, `--snapshot-save` a `.hlsh` file (the "ship" step);
//! 2. cold-start one `serve --role shard` **process** per shard from
//!    that same file;
//! 3. front them with a `serve --role coordinator` process;
//! 4. assert client answers are byte-identical to loading the same
//!    snapshot in-process, for shard counts 1, 2 and 4;
//! 5. SIGKILL a shard mid-conversation and assert the client sees a
//!    typed `Unavailable` error within the deadline, then restart the
//!    shard on the same port and assert it rejoins with exact answers.
//!
//! Every child is reaped by a drop guard, so a failing assertion never
//! leaks server processes into the test host.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hlsh_core::{load_snapshot, LoadMode};
use hlsh_datagen::benchmark_mixture;
use hlsh_families::PStableL2;
use hlsh_server::{Client, ClientError, ErrorCode};
use hlsh_vec::L2;

const N: usize = 3_000;
const DIM: usize = 16;
const SEED: u64 = 11;
const LEVELS: usize = 3;
const RADIUS: f64 = 1.5;

/// A spawned `serve` process that is SIGKILLed on drop, so assertion
/// failures cannot leak listeners.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Launches `serve` with the given flags and blocks until it prints
/// its parseable listening line, returning the bound address.
fn spawn_serve(extra: &[&str]) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let deadline = Instant::now() + Duration::from_secs(120);
    let addr = loop {
        assert!(Instant::now() < deadline, "serve never printed its listening line");
        let line = lines
            .next()
            .unwrap_or_else(|| panic!("serve exited before listening: {extra:?}"))
            .expect("read serve stdout");
        if let Some(rest) = line.strip_prefix("hlsh-server listening on ") {
            break rest.split_whitespace().next().expect("address token").to_string();
        }
    };
    Server { child, addr }
}

/// Common corpus flags, shared by every role so manifests agree.
/// `port` 0 asks the OS for an ephemeral port.
fn corpus_flags(shards: usize, port: &str) -> Vec<String> {
    vec![
        "--n".into(),
        N.to_string(),
        "--dim".into(),
        DIM.to_string(),
        "--seed".into(),
        SEED.to_string(),
        "--shards".into(),
        shards.to_string(),
        "--levels".into(),
        LEVELS.to_string(),
        "--radius".into(),
        RADIUS.to_string(),
        "--port".into(),
        port.into(),
    ]
}

/// Flags for a shard node cold-starting from `snap`.
fn shard_flags(shards: usize, sid: usize, port: &str, snap: &Path) -> Vec<String> {
    let mut flags = corpus_flags(shards, port);
    flags.extend([
        "--role".into(),
        "shard".into(),
        "--shard-id".into(),
        sid.to_string(),
        "--snapshot-load".into(),
        snap.display().to_string(),
    ]);
    flags
}

/// A snapshot path unique to one test and shard count, so tests
/// running in parallel never delete or rewrite each other's file.
fn snapshot_path(test: &str, shards: usize) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hlsh-multiproc-{}-{test}-{shards}.hlsh", std::process::id()));
    p
}

/// Builds the snapshot (ship step), cold-starts one shard process per
/// shard from it, and fronts them with a coordinator process.
fn deploy(test: &str, shards: usize) -> (Vec<Server>, Server, PathBuf) {
    let snap = snapshot_path(test, shards);
    let _ = std::fs::remove_file(&snap);

    // Build once and save — then immediately reap the builder; its only
    // job was producing the artifact every node cold-starts from.
    let mut save_flags = corpus_flags(shards, "0");
    save_flags.extend(["--snapshot-save".into(), snap.display().to_string()]);
    drop(spawn_serve(&save_flags.iter().map(String::as_str).collect::<Vec<_>>()));
    assert!(snap.exists(), "snapshot save step produced no file");

    let mut fleet = Vec::new();
    for sid in 0..shards {
        let flags = shard_flags(shards, sid, "0", &snap);
        fleet.push(spawn_serve(&flags.iter().map(String::as_str).collect::<Vec<_>>()));
    }
    let addr_list = fleet.iter().map(|s| s.addr.clone()).collect::<Vec<_>>().join(",");
    let coordinator = spawn_serve(&[
        "--role",
        "coordinator",
        "--shards",
        &addr_list,
        "--port",
        "0",
        "--shard-deadline-ms",
        "2000",
        "--connect-timeout-secs",
        "60",
    ]);
    (fleet, coordinator, snap)
}

fn queries() -> Vec<Vec<f32>> {
    let (data, _) = benchmark_mixture(DIM, N, RADIUS, SEED);
    (0..16).map(|i| data.row(i * 187).to_vec()).collect()
}

/// In-process reference answers from the *same* snapshot file the
/// shard processes cold-started from.
#[allow(clippy::type_complexity)]
fn reference(snap: &Path, queries: &[Vec<f32>], k: usize) -> (Vec<Vec<u32>>, Vec<Vec<(u32, u64)>>) {
    let loaded = load_snapshot::<PStableL2, L2>(snap, LoadMode::Read).expect("load reference");
    let rnnr: Vec<Vec<u32>> =
        loaded.rnnr.query_batch(queries, RADIUS).into_iter().map(|o| o.ids).collect();
    let topk = loaded
        .topk
        .expect("snapshot carries a ladder")
        .query_topk_batch(queries, k)
        .into_iter()
        .map(|o| o.neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect())
        .collect();
    (rnnr, topk)
}

#[test]
fn snapshot_shipped_processes_answer_byte_identically() {
    let queries = queries();
    for shards in [1usize, 2, 4] {
        let (fleet, coordinator, snap) = deploy("shipped", shards);
        let (expect_rnnr, expect_topk) = reference(&snap, &queries, 5);

        let mut client = Client::connect_retry(coordinator.addr.as_str(), Duration::from_secs(30))
            .expect("connect to coordinator");
        let info = client.info().expect("info");
        assert_eq!(info.points as usize, N);
        assert_eq!(info.shards as usize, shards);

        let got_rnnr = client.query_batch(&queries, RADIUS).expect("distributed rnnr");
        assert_eq!(got_rnnr, expect_rnnr, "rNNR mismatch at {shards} process(es)");

        let got_topk: Vec<Vec<(u32, u64)>> = client
            .query_topk_batch(&queries, 5)
            .expect("distributed topk")
            .into_iter()
            .map(|q| q.into_iter().map(|(id, d)| (id, d.to_bits())).collect())
            .collect();
        assert_eq!(got_topk, expect_topk, "top-k mismatch at {shards} process(es)");

        drop((fleet, coordinator));
        let _ = std::fs::remove_file(&snap);
    }
}

#[test]
fn sigkilled_shard_is_typed_unavailable_then_rejoins_on_its_port() {
    let queries = queries();
    let (mut fleet, coordinator, snap) = deploy("rejoin", 2);
    let (expect_rnnr, _) = reference(&snap, &queries, 5);

    let mut client = Client::connect_retry(coordinator.addr.as_str(), Duration::from_secs(30))
        .expect("connect to coordinator");
    assert_eq!(client.query_batch(&queries, RADIUS).expect("healthy fleet"), expect_rnnr);

    // SIGKILL shard 1 — no graceful shutdown, sockets die mid-stream.
    let dead = fleet.remove(1);
    let dead_addr = dead.addr.clone();
    drop(dead);

    let t0 = Instant::now();
    match client.query_batch(&queries, RADIUS) {
        Err(ClientError::Server { code: ErrorCode::Unavailable, message }) => {
            assert!(message.contains("shard 1"), "error should name the shard: {message}");
        }
        other => panic!("expected typed Unavailable after SIGKILL, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(15),
        "failure took {:?} to surface (deadline is 2s)",
        t0.elapsed()
    );

    // Same connection, still alive, still a clean error.
    assert!(matches!(
        client.query_batch(&queries, RADIUS),
        Err(ClientError::Server { code: ErrorCode::Unavailable, .. })
    ));

    // Restart the shard on its old port from the same snapshot — the
    // SO_REUSEADDR bind makes this immediate despite TIME_WAIT — and
    // the fleet heals without touching coordinator or client.
    let port = dead_addr.rsplit(':').next().expect("port");
    let flags = shard_flags(2, 1, port, &snap);
    let revived = spawn_serve(&flags.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(revived.addr, dead_addr, "restarted shard must reclaim its address");

    assert_eq!(client.query_batch(&queries, RADIUS).expect("healed fleet"), expect_rnnr);

    drop((fleet, coordinator, revived));
    let _ = std::fs::remove_file(&snap);
}
