//! CI gate: the distributed fan-out path, in-process.
//!
//! Spawns real shard-node servers on loopback sockets, assembles a
//! [`Coordinator`] over them, and pins the distributed determinism
//! contract: coordinator answers are **byte-identical** — ids, order,
//! and `f64` distance bit patterns — to the single-process sharded
//! engines over the same build, for every shard count. Also exercises
//! the failure surface: a dead shard yields a typed
//! `ErrorCode::Unavailable` frame (never a hang), the client
//! connection survives it, and a restarted shard rejoins cleanly.
//!
//! The multi-*process* variant of this gate (separate `serve`
//! executables cold-started from shipped snapshots) lives in
//! `crates/server/tests/multiprocess.rs`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hybrid_lsh::index::TopKWalk;
use hybrid_lsh::prelude::*;
use hybrid_lsh::server::{
    spawn, Client, ClientError, Coordinator, CoordinatorConfig, ErrorCode, QueryService,
    ServerConfig, ServerHandle, ShardNodeService, ShardedLshService,
};

const DIM: usize = 16;
const RADIUS: f64 = 1.5;
const N: usize = 3_000;
const SEED: u64 = 11;

type Node = ShardNodeService<DenseDataset, PStableL2, L2>;

fn builder(radius: f64) -> IndexBuilder<PStableL2, L2> {
    IndexBuilder::new(PStableL2::new(DIM, 2.0 * radius), L2)
        .tables(10)
        .hash_len(5)
        .seed(SEED)
        .cost_model(CostModel::from_ratio(6.0))
}

/// One deterministic build of the rNNR index + top-k ladder for a
/// given shard count. Every call with the same `shards` produces
/// byte-identical indexes — the property the whole deployment rests on.
#[allow(clippy::type_complexity)]
fn build(
    shards: usize,
) -> (
    ShardedIndex<DenseDataset, PStableL2, L2, FrozenStore>,
    ShardedTopKIndex<DenseDataset, PStableL2, L2, FrozenStore>,
) {
    let (data, _) = hybrid_lsh::datagen::benchmark_mixture(DIM, N, RADIUS, SEED);
    let assignment = ShardAssignment::new(SEED, shards);
    let rnnr = ShardedIndex::build_frozen(data.clone(), assignment, builder(RADIUS));
    let topk =
        ShardedTopKIndex::build(data, assignment, RadiusSchedule::doubling(RADIUS, 3), |_, r| {
            builder(r)
        })
        .freeze();
    (rnnr, topk)
}

fn queries() -> Vec<Vec<f32>> {
    let (data, _) = hybrid_lsh::datagen::benchmark_mixture(DIM, N, RADIUS, SEED);
    (0..24).map(|i| data.row(i * 125).to_vec()).collect()
}

/// Spawns one shard-node server per shard of a fresh build and returns
/// the handles plus their addresses.
fn spawn_fleet(shards: usize) -> (Vec<ServerHandle>, Vec<String>) {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for sid in 0..shards {
        let (rnnr, topk) = build(shards);
        let node: Arc<Node> = Arc::new(ShardNodeService::new(
            ShardedLshService::new(rnnr, Some(topk), DIM),
            sid as u32,
        ));
        let handle = spawn(node, "127.0.0.1:0", ServerConfig::default()).expect("bind shard node");
        addrs.push(handle.local_addr().to_string());
        handles.push(handle);
    }
    (handles, addrs)
}

fn quick_config() -> CoordinatorConfig {
    CoordinatorConfig {
        shard_deadline: Duration::from_secs(2),
        connect_timeout: Duration::from_secs(10),
        ..CoordinatorConfig::default()
    }
}

/// Distances compared by bit pattern, not float tolerance.
fn bits(out: Vec<Vec<(u32, f64)>>) -> Vec<Vec<(u32, u64)>> {
    out.into_iter().map(|q| q.into_iter().map(|(id, d)| (id, d.to_bits())).collect()).collect()
}

#[test]
fn byte_identity_across_shard_counts() {
    let queries = queries();
    for shards in [1usize, 2, 4] {
        let (rnnr, topk) = build(shards);
        let expect_rnnr: Vec<Vec<u32>> =
            rnnr.query_batch(&queries, RADIUS).into_iter().map(|o| o.ids).collect();
        // k = 5 walks the ladder; k = 64 starves the heap on some
        // queries and forces the exact fallback; k = 0 is the empty
        // edge. All three must match bit-for-bit.
        let expect_topk: Vec<Vec<Vec<(u32, u64)>>> = [5usize, 64, 0]
            .iter()
            .map(|&k| {
                bits(
                    topk.query_topk_batch(&queries, k)
                        .into_iter()
                        .map(|o| o.neighbors.iter().map(|n| (n.id, n.dist)).collect())
                        .collect(),
                )
            })
            .collect();

        let (_fleet, addrs) = spawn_fleet(shards);
        let coord = Coordinator::connect(&addrs, quick_config()).expect("assemble fleet");

        let got_rnnr = coord.rnnr_batch(&queries, RADIUS, None).expect("distributed rnnr");
        assert_eq!(got_rnnr, expect_rnnr, "rNNR mismatch at {shards} shard(s)");

        for (i, &k) in [5usize, 64, 0].iter().enumerate() {
            let got = bits(coord.topk_batch(&queries, k, None).expect("distributed topk"));
            assert_eq!(got, expect_topk[i], "top-k k={k} mismatch at {shards} shard(s)");
        }
    }
}

#[test]
fn coordinator_serves_the_client_protocol() {
    let queries = queries();
    let (rnnr, topk) = build(2);
    let expect_rnnr: Vec<Vec<u32>> =
        rnnr.query_batch(&queries, RADIUS).into_iter().map(|o| o.ids).collect();
    let expect_topk = bits(
        topk.query_topk_batch(&queries, 5)
            .into_iter()
            .map(|o| o.neighbors.iter().map(|n| (n.id, n.dist)).collect())
            .collect(),
    );

    let (_fleet, addrs) = spawn_fleet(2);
    let coord = Coordinator::connect(&addrs, quick_config()).expect("assemble fleet");
    let front = spawn(Arc::new(coord), "127.0.0.1:0", ServerConfig::default()).expect("bind front");

    let mut client =
        Client::connect_retry(front.local_addr(), Duration::from_secs(5)).expect("connect");
    let info = client.info().expect("info");
    assert_eq!(info.points as usize, N);
    assert_eq!(info.dim as usize, DIM);
    assert_eq!(info.shards, 2);
    assert_eq!(client.query_batch(&queries, RADIUS).expect("rnnr over the wire"), expect_rnnr);
    assert_eq!(
        bits(client.query_topk_batch(&queries, 5).expect("topk over the wire")),
        expect_topk
    );
}

#[test]
fn dead_shard_is_a_typed_error_and_a_restarted_one_rejoins() {
    let queries = queries();
    let (rnnr, _) = build(2);
    let expect: Vec<Vec<u32>> =
        rnnr.query_batch(&queries, RADIUS).into_iter().map(|o| o.ids).collect();

    let (mut fleet, addrs) = spawn_fleet(2);
    let coord = Coordinator::connect(&addrs, quick_config()).expect("assemble fleet");
    let front = spawn(Arc::new(coord), "127.0.0.1:0", ServerConfig::default()).expect("bind front");
    let mut client =
        Client::connect_retry(front.local_addr(), Duration::from_secs(5)).expect("connect");
    assert_eq!(client.query_batch(&queries, RADIUS).expect("healthy fleet"), expect);

    // Kill shard 1. The next query must come back as a typed
    // Unavailable error frame within the shard deadline — not a hang,
    // not a partial answer.
    let dead_addr = addrs[1].clone();
    fleet.remove(1).shutdown();
    let t0 = Instant::now();
    match client.query_batch(&queries, RADIUS) {
        Err(ClientError::Server { code: ErrorCode::Unavailable, message }) => {
            assert!(message.contains("shard 1"), "error should name the shard: {message}");
        }
        other => panic!("expected a typed Unavailable error, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "shard failure took {:?} to surface",
        t0.elapsed()
    );

    // The client connection survives the error frame.
    match client.query_batch(&queries, RADIUS) {
        Err(ClientError::Server { code: ErrorCode::Unavailable, .. }) => {}
        other => panic!("expected Unavailable on the same connection, got {other:?}"),
    }

    // Restart shard 1 on its old port (SO_REUSEADDR makes the rebind
    // immediate despite TIME_WAIT). The coordinator redials lazily,
    // re-validates the node's parameters and resumes exact answers.
    let (rnnr1, topk1) = build(2);
    let node: Arc<Node> =
        Arc::new(ShardNodeService::new(ShardedLshService::new(rnnr1, Some(topk1), DIM), 1));
    let revived =
        spawn(node, dead_addr.as_str(), ServerConfig::default()).expect("rebind dead shard port");
    assert_eq!(revived.local_addr().to_string(), dead_addr);
    assert_eq!(client.query_batch(&queries, RADIUS).expect("rejoined fleet"), expect);
}

#[test]
fn fleet_assembly_rejects_wrong_topologies() {
    // A 2-shard build dialed as a 1-address fleet must fail fast: the
    // node's advertised shard count disagrees with the list length.
    let (fleet, addrs) = spawn_fleet(2);
    let err = Coordinator::connect(&addrs[..1], quick_config());
    assert!(err.is_err(), "1-address dial of a 2-shard node must fail");

    // Dialing the same node for both slots fails on shard-id mismatch.
    let twice = vec![addrs[0].clone(), addrs[0].clone()];
    let err = Coordinator::connect(&twice, quick_config());
    assert!(err.is_err(), "duplicate shard address must fail");
    drop(fleet);
}

#[test]
fn deferred_levels_revisit_byte_identically() {
    // The topk.rs revisit fixture: a 4-duplicate cluster at the query
    // and a band out at x ≈ 20. Level 0 verifies the 4 duplicates (heap
    // 4/6), the middle levels estimate the same ≤ 4 candidates and are
    // deferred, and the last level's wide hashes fill the heap. The
    // deferred levels are then revisited — in process by re-running
    // them, at the coordinator by replaying the cached merged
    // statistics — and both must give the same ranking bit for bit.
    let mut rows: Vec<[f32; 2]> = (0..4).map(|_| [0.0f32, 0.0]).collect();
    rows.extend((0..80).map(|i| [20.0 + (i % 8) as f32 * 0.3, (i / 8) as f32 * 0.3]));
    let data = DenseDataset::from_rows(2, rows);
    let schedule = RadiusSchedule::doubling(1.0, 6);
    let level = |_: usize, r: f64| {
        IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
            .tables(8)
            .hash_len(4)
            .seed(9)
            .cost_model(CostModel::from_ratio(1e9)) // always the LSH arm
    };
    let queries = vec![vec![0.0f32, 0.0]];
    for shards in [1usize, 2] {
        let assignment = ShardAssignment::new(SEED, shards);
        let build = || {
            let rnnr = ShardedIndex::build_frozen(data.clone(), assignment, level(0, 1.0));
            let topk = ShardedTopKIndex::build(data.clone(), assignment, schedule, level).freeze();
            (rnnr, topk)
        };
        let (_, topk) = build();
        let expect = topk.query_topk(&queries[0], 6);
        assert!(!expect.report.exact_fallback, "shards={shards}: {:?}", expect.report);
        assert_eq!(expect.report.levels_skipped, 0, "shards={shards}: {:?}", expect.report);

        // The fixture reaches the deferral: after level 0, level 1's
        // merged estimate is at most the walk's skip threshold.
        let mut walk = TopKWalk::new(6, data.len());
        let m = topk.level_hll_config(1).registers();
        assert_eq!(walk.next_level(m), Some(f64::NEG_INFINITY));
        for s in 0..shards {
            walk.offer(&topk.shard_level_arm_batch(s, 0, &queries, 1.0, true, None)[0]);
        }
        walk.ran(1.0);
        let skip = walk.next_level(m).expect("the heap is still underfull");
        let mut registers = vec![0u8; m];
        for s in 0..shards {
            let summary = &topk.shard_level_summaries(s, 1, &queries, None)[0];
            for (r, &v) in registers.iter_mut().zip(&summary.registers) {
                *r = (*r).max(v);
            }
        }
        let estimate = HyperLogLog::from_registers(topk.level_hll_config(1), registers).estimate();
        assert!(estimate <= skip, "shards={shards}: level 1 must defer ({estimate} > {skip})");

        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        for sid in 0..shards {
            let (rnnr, topk) = build();
            let service = ShardedLshService::new(rnnr, Some(topk), 2);
            let node: Arc<Node> = Arc::new(ShardNodeService::new(service, sid as u32));
            let handle = spawn(node, "127.0.0.1:0", ServerConfig::default()).expect("bind");
            addrs.push(handle.local_addr().to_string());
            handles.push(handle);
        }
        let coord = Coordinator::connect(&addrs, quick_config()).expect("assemble fleet");
        let got = bits(coord.topk_batch(&queries, 6, None).expect("distributed topk"));
        let want = bits(vec![expect.neighbors.iter().map(|n| (n.id, n.dist)).collect()]);
        assert_eq!(got, want, "deferred revisit mismatch at {shards} shard(s)");
    }
}
