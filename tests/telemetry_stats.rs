//! Golden observability tests: a live server's `Stats` reply reflects
//! exactly the pipeline stages the workload exercised, the snapshot
//! survives its wire encoding bit-for-bit, and the `Pong` health block
//! agrees with the server's state.
//!
//! The telemetry registry is process-global, so everything that makes
//! assertions about *absolute* stage counts lives in one test function
//! (ordered sanitize-off before sanitize-on); the independent tests
//! below only assert deltas or touch stages no other test cares about.

use std::sync::Arc;
use std::time::Duration;

use ppgnn::prelude::*;
use ppgnn::server::frame::{read_frame, write_frame, FrameType, StatsReplyPayload};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn grid_db(side: usize) -> Vec<Poi> {
    (0..side * side)
        .map(|i| {
            Poi::new(
                i as u32,
                Point::new(
                    (i % side) as f64 / side as f64,
                    (i / side) as f64 / side as f64,
                ),
            )
        })
        .collect()
}

fn test_config(sanitize: bool) -> PpgnnConfig {
    PpgnnConfig {
        k: 2,
        d: 3,
        delta: 6,
        keysize: 128,
        sanitize,
        variant: Variant::Plain,
        ..PpgnnConfig::fast_test()
    }
}

fn run_queries(addr: std::net::SocketAddr, lsp: &Arc<Lsp>, sanitize: bool, group: u64) -> u64 {
    let config = test_config(sanitize);
    let mut rng = ChaCha8Rng::seed_from_u64(7 + group);
    let mut client =
        GroupClient::connect(addr, group, config, lsp.space(), 2, &mut rng).expect("connect");
    let queries = 3u64;
    for q in 0..queries {
        let users = vec![
            Point::new(0.15 + 0.1 * q as f64, 0.3),
            Point::new(0.7, 0.25 + 0.1 * q as f64),
        ];
        client.query(&users, &mut rng).expect("query");
    }
    queries
}

/// Stages every PPGNN (plain-variant) query must pass through. These are
/// the same names the CI bench-smoke gate requires from loadgen.
const EXERCISED: &[&str] = &[
    "client-plan",
    "client-encode",
    "wire-encode",
    "wire-decode",
    "validate",
    "candidate-eval",
    "paillier-encrypt",
    "paillier-decrypt",
    "paillier-dot",
    "private-selection",
    "end-to-end",
];

/// The golden run: sanitize-off queries light up every pipeline stage
/// except sanitation; turning sanitation on lights that one up too.
#[test]
fn stats_reply_reflects_exactly_the_exercised_stages() {
    let base = ppgnn::telemetry::global().snapshot();

    // Phase 1: sanitation disabled — the stage must stay dark.
    let lsp = Arc::new(Lsp::new(grid_db(10), test_config(false)));
    let handle = serve_world(Arc::clone(&lsp), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let queries = run_queries(handle.local_addr(), &lsp, false, 1);

    let mut client = GroupClient::connect(
        handle.local_addr(),
        2,
        test_config(false),
        lsp.space(),
        2,
        &mut ChaCha8Rng::seed_from_u64(99),
    )
    .expect("stats connect");
    let snap = client.server_stats().expect("Stats request");

    for stage in EXERCISED {
        assert!(
            snap.stage_count(stage) > base.stage_count(stage),
            "stage {stage} not recorded: {} -> {}",
            base.stage_count(stage),
            snap.stage_count(stage)
        );
        // Percentiles are bucket midpoints clamped to the exact max.
        let s = snap.stage(stage).expect("stage present");
        assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us && s.p99_us <= s.max_us);
    }
    assert_eq!(
        snap.stage_count("sanitation"),
        base.stage_count("sanitation"),
        "sanitation ran despite sanitize=false"
    );
    assert!(snap.counter("queries-ok").unwrap_or(0) >= queries);
    assert!(snap.counter("paillier-dot-ops").unwrap_or(0) > 0);
    assert!(snap.gauge("live-workers").unwrap_or(0) > 0);
    assert!(snap.gauge("uptime-ms").is_some());
    assert!(snap.missing_stages(EXERCISED).is_empty());
    handle.shutdown();

    // Phase 2: same workload with sanitation enabled — only now does
    // the sanitation stage (and its Z-test counter) move.
    let lsp = Arc::new(Lsp::new(grid_db(10), test_config(true)));
    let handle = serve_world(Arc::clone(&lsp), "127.0.0.1:0", ServerConfig::default()).unwrap();
    run_queries(handle.local_addr(), &lsp, true, 3);
    let after = handle.telemetry_snapshot();
    handle.shutdown();

    assert!(
        after.stage_count("sanitation") > snap.stage_count("sanitation"),
        "sanitize=true did not record the sanitation stage"
    );
    assert!(
        after.counter("sanitation-z-tests").unwrap_or(0)
            > snap.counter("sanitation-z-tests").unwrap_or(0)
    );
}

/// A `Stats` exchange needs no session: a raw TCP connection may ask
/// before (or without ever) completing a Hello, and the snapshot it
/// gets back decodes to exactly what the server serialized.
#[test]
fn stats_round_trips_the_wire_sessionless() {
    let lsp = Arc::new(Lsp::new(grid_db(6), test_config(false)));
    let handle = serve_world(Arc::clone(&lsp), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, FrameType::Stats, &[]).unwrap();
    let frame = read_frame(&mut stream, ppgnn::server::frame::DEFAULT_MAX_PAYLOAD).unwrap();
    assert_eq!(frame.frame_type, FrameType::StatsReply);
    let wire = StatsReplyPayload::decode(&frame.payload).unwrap().snapshot;

    // The payload is itself the snapshot encoding: re-encoding what we
    // decoded must reproduce it bit-for-bit (golden wire format).
    let reencoded = StatsReplyPayload {
        snapshot: wire.clone(),
    }
    .encode();
    assert_eq!(reencoded, frame.payload);
    let back = TelemetrySnapshot::from_bytes(&wire.to_bytes()).unwrap();
    assert_eq!(back, wire);

    // Server-side counters are merged into the snapshot.
    assert!(wire.counter("accepted").is_some());
    assert!(wire.gauge("live-workers").unwrap_or(0) > 0);
    handle.shutdown();
}

/// The Pong health block and the Stats snapshot are two faces of the
/// same registry: their shared fields must agree (up to the queries we
/// run between the two reads).
#[test]
fn pong_health_agrees_with_stats_snapshot() {
    let lsp = Arc::new(Lsp::new(grid_db(6), test_config(false)));
    let config = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    let handle = serve_world(Arc::clone(&lsp), "127.0.0.1:0", config).unwrap();
    run_queries(handle.local_addr(), &lsp, false, 11);

    let mut client = GroupClient::connect(
        handle.local_addr(),
        12,
        test_config(false),
        lsp.space(),
        2,
        &mut ChaCha8Rng::seed_from_u64(5),
    )
    .expect("connect");
    let pong = client.ping().expect("ping");
    let snap = client.server_stats().expect("stats");

    assert_eq!(pong.live_workers, 3);
    assert_eq!(
        u64::from(pong.live_workers),
        snap.gauge("live-workers").unwrap()
    );
    assert!(pong.queries_ok >= 3);
    assert!(snap.counter("queries-ok").unwrap() >= pong.queries_ok);
    assert!(snap.gauge("uptime-ms").unwrap() >= pong.uptime_ms || pong.uptime_ms == 0);

    // The health block also round-trips its fixed-width encoding.
    let health = handle.health();
    let decoded = HealthSnapshot::decode(&health.encode()).unwrap();
    assert_eq!(decoded, health);
    handle.shutdown();
}
