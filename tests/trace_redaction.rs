//! Redaction golden test: run a fully traced group query over TCP with
//! deliberately distinctive coordinates and POI ids, then prove none of
//! that private data survives into any trace export face — the kept
//! segments, the Chrome `trace_event` JSON, or the slow-query log.
//!
//! The tracer's schema makes leaks structurally hard (span names and
//! attribute keys are closed enums, values are bare `u64` counts), so
//! this test pins the contract from the outside: exports must be
//! float-free (coordinates and distances are the only floats in the
//! pipeline) and every name must come from the fixed allowlist.

use std::sync::Arc;

use ppgnn::prelude::*;
use ppgnn::telemetry::trace::{
    self, chrome_trace_json, slow_log_line, AttrKey, SegmentOrigin, TracerConfig,
};
use ppgnn::telemetry::Layer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Every span name the schema can emit. A new variant must be added
/// here deliberately, which is the moment to ask "can it leak?".
const SPAN_ALLOWLIST: &[&str] = &[
    "client-query",
    "client-plan",
    "client-encode",
    "wire-encode",
    "wire-decode",
    "server-query",
    "validate",
    "candidate-eval",
    "paillier-encrypt",
    "paillier-dot",
    "paillier-decrypt",
    "private-selection",
    "sanitation",
    "sanitation-prefix",
];

/// Coordinates no duration or count will ever collide with, and POI
/// ids far above any count attribute this run can produce.
const HOT_COORDS: [f64; 4] = [0.123456789, 0.987654321, 0.314159265, 0.271828182];
const POI_ID_BASE: u32 = 900_000_000;

fn assert_float_free(export: &str, face: &str) {
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
    }
}

#[test]
fn exported_traces_carry_no_location_or_identifier_data() {
    trace::global().configure(&TracerConfig {
        enabled: true,
        slow_us: 0, // everything is "slow": tail sampling keeps it all
        keep_permille: 1000,
        ..TracerConfig::default()
    });

    let config = PpgnnConfig {
        k: 2,
        d: 3,
        delta: 6,
        keysize: 128,
        sanitize: true,
        ..PpgnnConfig::fast_test()
    };
    // A 6x6 grid of POIs whose ids and coordinates are unmistakable if
    // they ever show up in an export.
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
    let lsp = Arc::new(Lsp::new(pois, config.clone()));
    let handle = serve_world(Arc::clone(&lsp), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut rng = ChaCha8Rng::seed_from_u64(0xda7a);
    let mut client = GroupClient::connect(handle.local_addr(), 7, config, lsp.space(), 3, &mut rng)
        .expect("connect");
    for q in 0..3 {
        let users = vec![
            Point::new(HOT_COORDS[q % 4], HOT_COORDS[(q + 1) % 4]),
            Point::new(HOT_COORDS[(q + 2) % 4], HOT_COORDS[(q + 3) % 4]),
            Point::new(HOT_COORDS[q % 4] * 0.5, 0.123456789),
        ];
        client.query(&users, &mut rng).expect("traced query");
    }
    client.goodbye();
    handle.shutdown();

    let segments = trace::global().segments();
    assert!(!segments.is_empty(), "tracer kept nothing");
    assert!(
        segments
            .iter()
            .any(|s| s.origin == SegmentOrigin::Client && s.trace_id != 0),
        "no client segment kept"
    );
    assert!(
        segments.iter().any(|s| s.origin == SegmentOrigin::Server),
        "no server segment kept"
    );

    // Structural allowlist: every span name and attribute key in every
    // kept segment is one of the closed-schema strings, and every
    // attribute value is a small count — never a 9-digit POI id.
    for seg in &segments {
        for span in &seg.spans {
            assert!(
                SPAN_ALLOWLIST.contains(&span.name.name()),
                "span name {:?} not in redaction allowlist",
                span.name.name()
            );
            for &(key, value) in &span.attrs {
                assert!(
                    AttrKey::ALL.contains(&key),
                    "attr key {key:?} not in the closed schema"
                );
                assert!(
                    value < u64::from(POI_ID_BASE),
                    "attr {}={value} is large enough to be an identifier",
                    key.name()
                );
            }
        }
    }
    // The sanitation path really ran (its spans are the likeliest place
    // for per-candidate data to sneak in).
    assert!(
        segments
            .iter()
            .any(|s| s.spans.iter().any(|sp| sp.name == Layer::SanitationPrefix)),
        "sanitized query produced no sanitation-prefix spans"
    );

    // Golden checks on both text export faces: no float-shaped tokens
    // (coordinates and plaintext distances are the only floats in the
    // system) and none of the distinctive inputs.
    let chrome = chrome_trace_json(&segments);
    assert_float_free(&chrome, "chrome trace JSON");
    for seg in &segments {
        assert_float_free(&slow_log_line(seg), "slow-query log line");
    }
}
