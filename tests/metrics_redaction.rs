//! Redaction golden test for the observability faces added in 0.10:
//! the `/metrics` OpenMetrics scrape body and the `/healthz` JSON.
//!
//! Same contract as `trace_redaction.rs`, same technique: drive real
//! queries with deliberately distinctive coordinates and POI ids, then
//! prove none of that private data survives into any export. The
//! schema makes leaks structurally hard (families, stages, ops, gauges
//! and cost constants are closed enums; values are aggregate integers),
//! so these greps pin the contract from the outside: every face must be
//! float-free (coordinates and distances are the only floats in the
//! pipeline) and must not contain the distinctive inputs.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use ppgnn::prelude::*;
use ppgnn::server::{DurabilityConfig, FsyncPolicy, WorldSeed};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Coordinates no duration or count will ever collide with, and POI
/// ids far above any aggregate this run can produce.
const HOT_COORDS: [f64; 4] = [0.123456789, 0.987654321, 0.314159265, 0.271828182];
const POI_ID_BASE: u32 = 900_000_000;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppgnn-metrics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_redacted(export: &str, face: &str) {
    let bytes = export.as_bytes();
    for i in 1..bytes.len().saturating_sub(1) {
        if bytes[i] == b'.' {
            assert!(
                !(bytes[i - 1].is_ascii_digit() && bytes[i + 1].is_ascii_digit()),
                "{face} contains a float-shaped token near byte {i}: {:?}",
                &export[i.saturating_sub(20)..(i + 20).min(export.len())]
            );
        }
    }
    for c in &HOT_COORDS {
        let s = format!("{c}");
        assert!(!export.contains(&s), "{face} leaks coordinate {s}");
        // Digits-only rendering too (floats are already banned above,
        // but a leak could strip the point).
        let digits: String = s.chars().filter(|c| c.is_ascii_digit()).collect();
        assert!(
            !export.contains(&digits),
            "{face} leaks coordinate digits {digits}"
        );
    }
    assert!(
        !export.contains("90000000"),
        "{face} contains a POI-id-sized integer"
    );
}

/// A one-shot `GET` against the metrics listener; returns the status
/// line and the body (the listener closes after each response).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

#[test]
fn observability_faces_carry_no_location_or_identifier_data() {
    let dir = tmp_dir("redaction");
    let protocol = PpgnnConfig {
        k: 2,
        d: 3,
        delta: 6,
        keysize: 128,
        sanitize: true,
        ..PpgnnConfig::fast_test()
    };
    // A 6x6 grid of POIs whose ids and coordinates are unmistakable if
    // they ever show up in an export face.
    let pois: Vec<Poi> = (0..36)
        .map(|i| {
            Poi::new(
                POI_ID_BASE + i,
                Point::new(
                    HOT_COORDS[i as usize % 4] * 0.9 + (i % 6) as f64 * 0.016,
                    HOT_COORDS[(i as usize + 1) % 4] * 0.9 + (i / 6) as f64 * 0.016,
                ),
            )
        })
        .collect();
    let config = ServerConfig::builder()
        .metrics_addr(Some("127.0.0.1:0".into()))
        .slo(Some(SloConfig::default()))
        .durability(Some(DurabilityConfig {
            data_dir: dir.clone(),
            fsync: FsyncPolicy::Always,
            checkpoint_every_ops: 1000,
        }))
        .build()
        .unwrap();
    let handle = serve_world(
        WorldSeed::Durable {
            initial_pois: pois,
            protocol: protocol.clone(),
            space: Rect::UNIT,
        },
        "127.0.0.1:0",
        config,
    )
    .unwrap();
    let metrics_addr = handle.metrics_addr().expect("metrics listener bound");

    let mut rng = ChaCha8Rng::seed_from_u64(0x0b5e);
    let mut client =
        GroupClient::connect(handle.local_addr(), 7, protocol, Rect::UNIT, 3, &mut rng)
            .expect("connect");
    for q in 0..3 {
        let users = vec![
            Point::new(HOT_COORDS[q % 4], HOT_COORDS[(q + 1) % 4]),
            Point::new(HOT_COORDS[(q + 2) % 4], HOT_COORDS[(q + 3) % 4]),
            Point::new(HOT_COORDS[q % 4] * 0.5, 0.123456789),
        ];
        client.query(&users, &mut rng).expect("query");
    }
    client.goodbye();
    // Fold the run into the window ring without waiting out the 1 Hz
    // ticker, so the scrape's windowed families below are not empty.
    handle.flush_windows();
    assert!(
        handle
            .windowed_snapshot(usize::MAX)
            .stages
            .iter()
            .any(|s| s.count > 0),
        "window ring captured no stage samples"
    );

    // Face 1: the OpenMetrics scrape body.
    let (status, body) = http_get(metrics_addr, "/metrics");
    assert!(status.contains("200"), "scrape failed: {status}");
    assert!(body.ends_with("# EOF\n"), "scrape body must end with # EOF");
    for fam in [
        "ppgnn_up",
        "ppgnn_stage_latency_us",
        "ppgnn_ops",
        "ppgnn_window_stage_latency_us",
        "ppgnn_cost",
        "ppgnn_slo_burn_permille",
    ] {
        assert!(
            body.contains(&format!("# TYPE {fam} ")),
            "scrape body missing family {fam}"
        );
    }
    assert_redacted(&body, "/metrics scrape body");

    // Face 2: the health endpoint JSON.
    let (status, health) = http_get(metrics_addr, "/healthz");
    assert!(status.contains("200"), "healthz failed: {status}");
    assert_redacted(&health, "/healthz body");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
