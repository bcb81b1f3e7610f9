//! CI gate: the readiness-driven event loop's connection handling.
//!
//! `tests/server_loopback.rs` pins *what* the server answers (the
//! byte-identity determinism contract); this file pins *how* the
//! reactor gets there under adversarial socket conditions:
//!
//! * partial reads — a request split at **every** byte offset, with a
//!   pause between the halves, must produce a byte-identical response;
//! * pipelining — many requests concatenated into one write come back
//!   as the concatenation of their individual responses, in order;
//! * connection limits — an over-limit connect receives a typed
//!   [`ErrorCode::Busy`] frame and EOF while existing clients keep
//!   working;
//! * idle eviction — a client stalled mid-frame is evicted after the
//!   idle timeout (the slow-loris defence);
//! * request deadlines — an expired request gets an
//!   [`ErrorCode::Deadline`] frame and the connection survives to
//!   serve later requests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hybrid_lsh::prelude::*;
use hybrid_lsh::server::{
    spawn, Client, ClientError, ErrorCode, QueryBlock, QueryService, Request, ServerConfig,
    ServerHandle, ShardedLshService,
};

const DIM: usize = 8;
const RADIUS: f64 = 1.2;

type Service = ShardedLshService<DenseDataset, PStableL2, L2>;

/// A small sharded fixture — these tests exercise connection
/// machinery, not query quality, so the corpus stays tiny.
struct Fixture {
    queries: Vec<Vec<f32>>,
    server: ServerHandle,
}

fn fixture(config: ServerConfig) -> Fixture {
    let (data, _) = hybrid_lsh::datagen::benchmark_mixture(DIM, 600, RADIUS, 5);
    let queries: Vec<Vec<f32>> = (0..8).map(|i| data.row(i * 75).to_vec()).collect();
    let index = ShardedIndex::build_frozen(
        data,
        ShardAssignment::new(5, 2),
        IndexBuilder::new(PStableL2::new(DIM, 2.0 * RADIUS), L2)
            .tables(8)
            .hash_len(4)
            .seed(5)
            .cost_model(CostModel::from_ratio(6.0)),
    );
    let service: Arc<Service> = Arc::new(ShardedLshService::new(index, None, DIM));
    let server = spawn(service as Arc<dyn QueryService>, "127.0.0.1:0", config).expect("bind");
    Fixture { queries, server }
}

fn rnnr_frame(query: &[f32]) -> Vec<u8> {
    Request::Rnnr { radius: RADIUS, queries: QueryBlock::pack(&[query.to_vec()], DIM) }.encode()
}

/// Writes `bytes`, half-closes, reads everything the server answers.
fn raw_exchange(server: &ServerHandle, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(bytes).expect("write");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.read_to_end(&mut out).expect("read replies");
    out
}

/// Asserts the first frame in `bytes` is an error frame, returning its
/// code.
fn first_error_code(bytes: &[u8]) -> ErrorCode {
    assert!(bytes.len() >= 14, "expected at least one error frame, got {} bytes", bytes.len());
    assert_eq!(&bytes[4..8], b"HLSH");
    assert_eq!(bytes[9], 0x7F, "expected an error frame, kind was {:#04x}", bytes[9]);
    ErrorCode::from_u16(u16::from_le_bytes([bytes[12], bytes[13]])).expect("valid error code")
}

#[test]
fn request_split_at_every_byte_offset_decodes_identically() {
    let mut fx = fixture(ServerConfig::default());
    let frame = rnnr_frame(&fx.queries[0]);
    let expect = raw_exchange(&fx.server, &frame);
    assert!(!expect.is_empty(), "reference exchange produced no reply");

    // Split the frame at every interior byte boundary with a pause in
    // between, forcing the decoder through two (or more) partial reads
    // whose cut lands inside the length prefix, the header, and the
    // body. The reply must be byte-identical every time.
    for split in 1..frame.len() {
        let mut stream = TcpStream::connect(fx.server.local_addr()).expect("connect");
        stream.write_all(&frame[..split]).expect("first half");
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
        stream.write_all(&frame[split..]).expect("second half");
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut got = Vec::new();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.read_to_end(&mut got).expect("read reply");
        assert_eq!(got, expect, "split at byte {split} changed the response");
    }
    fx.server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_request_order() {
    let mut fx = fixture(ServerConfig::default());

    // Reference: each request exchanged alone.
    let frames: Vec<Vec<u8>> = fx.queries.iter().map(|q| rnnr_frame(q)).collect();
    let info = Request::Info.encode();
    let singles: Vec<Vec<u8>> = frames.iter().map(|f| raw_exchange(&fx.server, f)).collect();
    let info_reply = raw_exchange(&fx.server, &info);

    // All requests (queries interleaved with an Info) in ONE write.
    // The reply stream must be the exact concatenation of the solo
    // replies, in request order — the slot queue may fill out of
    // order internally, but never releases out of order.
    let mut pipelined = Vec::new();
    let mut expect = Vec::new();
    for (f, s) in frames.iter().zip(&singles) {
        pipelined.extend_from_slice(f);
        pipelined.extend_from_slice(&info);
        expect.extend_from_slice(s);
        expect.extend_from_slice(&info_reply);
    }
    let got = raw_exchange(&fx.server, &pipelined);
    assert_eq!(got, expect, "pipelined replies diverged from solo replies");
    fx.server.shutdown();
}

#[test]
fn over_limit_connection_gets_busy_frame_and_eof() {
    let mut fx = fixture(ServerConfig { max_connections: 1, ..ServerConfig::default() });

    // Occupy the only slot and prove it works.
    let mut first = Client::connect_retry(fx.server.local_addr(), Duration::from_secs(10))
        .expect("first connect");
    assert_eq!(first.info().expect("first client serves").points, 600);

    // The second connection must be answered with a Busy frame and
    // closed. Only read — writing would race the server's close into
    // an RST that could discard the Busy frame in flight.
    let mut second = TcpStream::connect(fx.server.local_addr()).expect("second connect");
    second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reply = Vec::new();
    second.read_to_end(&mut reply).expect("read busy + EOF");
    assert_eq!(first_error_code(&reply), ErrorCode::Busy);
    let frame_len = 4 + u32::from_le_bytes(reply[0..4].try_into().unwrap()) as usize;
    assert_eq!(reply.len(), frame_len, "connection must close right after the Busy frame");
    assert_eq!(fx.server.stats().rejected_busy, 1);

    // The admitted client is unaffected.
    assert_eq!(first.info().expect("first client still serves").points, 600);
    fx.server.shutdown();
}

#[test]
fn stalled_half_written_client_is_evicted_by_idle_timeout() {
    let mut fx = fixture(ServerConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });

    // Dribble half a frame, then stall — the classic slow-loris shape.
    // The server must evict us: EOF, no reply, within a few timeouts.
    let frame = rnnr_frame(&fx.queries[0]);
    let mut stream = TcpStream::connect(fx.server.local_addr()).expect("connect");
    stream.write_all(&frame[..frame.len() / 2]).expect("half a frame");
    stream.flush().unwrap();

    let start = Instant::now();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("EOF from eviction");
    assert!(out.is_empty(), "evicted connection must not receive a reply, got {out:?}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "eviction took {:?}, far beyond the 300ms idle timeout",
        start.elapsed()
    );
    assert_eq!(fx.server.stats().evicted_idle, 1);
    fx.server.shutdown();
}

#[test]
fn expired_deadline_answers_deadline_frame_and_connection_survives() {
    // A 100ms fixed admission window with a 1ms deadline guarantees
    // every batched request expires before the batcher drains it.
    let mut fx = fixture(ServerConfig {
        admission: hybrid_lsh::server::AdmissionWindow::Fixed(Duration::from_millis(100)),
        request_deadline: Some(Duration::from_millis(1)),
        ..ServerConfig::default()
    });

    let mut client =
        Client::connect_retry(fx.server.local_addr(), Duration::from_secs(10)).expect("connect");
    match client.query_batch(std::slice::from_ref(&fx.queries[0]), RADIUS) {
        Err(ClientError::Server { code: ErrorCode::Deadline, .. }) => {}
        other => panic!("expected Deadline error frame, got {other:?}"),
    }
    assert!(fx.server.stats().expired_deadlines >= 1);

    // Per-request verdict, not a connection verdict: the same socket
    // keeps serving (Info bypasses the batcher, so no deadline).
    assert_eq!(client.info().expect("connection survived the deadline").points, 600);
    fx.server.shutdown();
}

#[test]
fn completions_keep_waking_the_loop_after_a_burst() {
    // Every completion wakes the event loop through a pipe whose writes
    // are collapsed by a flag. If the loop cleared the flag before
    // draining the pipe, a completion posted in between left the flag
    // set and the pipe empty, and every later completion waited for
    // unrelated socket traffic or the timer tick. A burst of concurrent
    // closed-loop clients gives that window many chances; a lone client
    // must then still see its answers at once.
    let mut fx = fixture(ServerConfig {
        admission: hybrid_lsh::server::AdmissionWindow::Fixed(Duration::ZERO),
        ..ServerConfig::default()
    });
    let addr = fx.server.local_addr();
    let burst_end = Instant::now() + Duration::from_secs(3);
    std::thread::scope(|s| {
        for q in &fx.queries {
            let q = q.clone();
            s.spawn(move || {
                let mut client =
                    Client::connect_retry(addr, Duration::from_secs(10)).expect("connect");
                while Instant::now() < burst_end {
                    client.query_batch(std::slice::from_ref(&q), RADIUS).expect("burst query");
                }
            });
        }
    });
    let mut client = Client::connect_retry(addr, Duration::from_secs(10)).expect("connect");
    let t = Instant::now();
    for _ in 0..3 {
        client.query_batch(std::slice::from_ref(&fx.queries[0]), RADIUS).expect("lone query");
    }
    let took = t.elapsed();
    assert!(took < Duration::from_millis(500), "three lone queries took {took:?}: lost wake-up");
    fx.server.shutdown();
}
