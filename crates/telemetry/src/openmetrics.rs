//! OpenMetrics text rendering for the `/metrics` scrape endpoint.
//!
//! Everything a scraper sees here is drawn from closed enums: layer,
//! op, and gauge names come from [`Layer::name`]/[`Op::name`]/
//! [`Gauge::name`], service-event and server-gauge names from
//! [`ServerMetric::TABLE`], cost-constant names from the fixed list in
//! [`cost_constants`]. Values are integers (µs, ns, counts, permille) —
//! coordinates and distances are the only floats in the whole
//! pipeline, and none of them can reach a family below. That is the
//! redaction argument (DESIGN.md §18); the golden test greps the
//! rendered body for float-shaped tokens to pin it from the outside.
//!
//! The output targets the OpenMetrics 1.0 text format: one `# TYPE`
//! line per family, counter samples suffixed `_total`, a final `# EOF`.

use crate::window::WindowedSnapshot;
use crate::{Layer, Op, ServerMetric, TelemetrySnapshot};

/// One SLO burn-rate sample for the `ppgnn_slo_burn_permille` family.
#[derive(Debug, Clone, Copy)]
pub struct SloBurn {
    /// Which objective ("latency" or "errors").
    pub objective: &'static str,
    /// Which burn window ("fast" or "slow").
    pub window: &'static str,
    /// Burn rate in permille of the error budget.
    pub burn_pm: u64,
}

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push('\n');
}

fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            // Closed-enum names never contain quotes or backslashes;
            // escape anyway so a future name cannot corrupt the format.
            for c in v.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// The per-op cost constants of one window, as `(name, value,
/// denominator)`: windowed stage time per op in integer ns, and answer
/// bytes per evaluated candidate. Each is a windowed sum over a windowed
/// count, so it is the window mean by construction; constants whose
/// count stayed zero are left out.
pub fn cost_constants(w: &WindowedSnapshot) -> Vec<(&'static str, u64, u64)> {
    let ns = |l: Layer| {
        w.stage(l.name())
            .map_or(0, |x| x.total_us.saturating_mul(1000))
    };
    let ops = |o: Op| w.counter(o.name()).unwrap_or(0);
    [
        (
            "paillier-encrypt-ns",
            ns(Layer::PaillierEncrypt),
            ops(Op::PaillierEncrypt),
        ),
        (
            "paillier-decrypt-ns",
            ns(Layer::PaillierDecrypt),
            ops(Op::PaillierDecrypt),
        ),
        (
            "paillier-dot-ns",
            ns(Layer::PaillierDot),
            ops(Op::PaillierDot),
        ),
        (
            "paillier-dot-element-ns",
            ns(Layer::PaillierDot),
            ops(Op::PaillierDotElements),
        ),
        (
            "sanitation-z-test-ns",
            ns(Layer::Sanitation),
            ops(Op::SanitationZTest),
        ),
        (
            "answer-bytes-per-candidate",
            ops(Op::AnswerBytes),
            ops(Op::CandidatesEvaluated),
        ),
    ]
    .into_iter()
    .filter(|&(_, _, n)| n > 0)
    .map(|(name, total, n)| (name, total / n, n))
    .collect()
}

/// Renders the full scrape body: cumulative stage/op/gauge families
/// from `snap`, windowed families and the cost constants from
/// `windowed` (labelled with the dominant session `key_bits`), and SLO
/// burn rates. Ends with `# EOF`.
pub fn render(
    snap: &TelemetrySnapshot,
    windowed: Option<&WindowedSnapshot>,
    key_bits: Option<u32>,
    slo: &[SloBurn],
) -> String {
    let mut out = String::with_capacity(16 * 1024);

    family(
        &mut out,
        "ppgnn_up",
        "gauge",
        "1 while the server is serving.",
    );
    sample(&mut out, "ppgnn_up", &[], 1);

    family(
        &mut out,
        "ppgnn_stage_samples",
        "counter",
        "Samples recorded per pipeline stage since boot.",
    );
    for s in &snap.stages {
        sample(
            &mut out,
            "ppgnn_stage_samples_total",
            &[("stage", &s.name)],
            s.count,
        );
    }
    family(
        &mut out,
        "ppgnn_stage_sum_us",
        "counter",
        "Total microseconds recorded per pipeline stage since boot.",
    );
    for s in &snap.stages {
        sample(
            &mut out,
            "ppgnn_stage_sum_us_total",
            &[("stage", &s.name)],
            s.total_us,
        );
    }
    family(
        &mut out,
        "ppgnn_stage_latency_us",
        "gauge",
        "Cumulative stage latency percentiles, microseconds (bucket midpoints).",
    );
    for s in &snap.stages {
        for (p, v) in [
            ("50", s.p50_us),
            ("95", s.p95_us),
            ("99", s.p99_us),
            ("max", s.max_us),
        ] {
            sample(
                &mut out,
                "ppgnn_stage_latency_us",
                &[("stage", &s.name), ("p", p)],
                v,
            );
        }
    }

    // Cumulative counters split into op counters (closed Op enum) and
    // service events (the server's counters in its name table).
    family(
        &mut out,
        "ppgnn_ops",
        "counter",
        "Homomorphic and sanitation operation counts since boot.",
    );
    for op in Op::ALL {
        let value = snap.counter(op.name()).unwrap_or(0);
        sample(&mut out, "ppgnn_ops_total", &[("op", op.name())], value);
    }
    family(
        &mut out,
        "ppgnn_server_events",
        "counter",
        "Server lifecycle and admission-control event counts since boot.",
    );
    for (metric, name) in ServerMetric::TABLE {
        if let (false, Some(value)) = (metric.is_gauge(), snap.counter(name)) {
            sample(
                &mut out,
                "ppgnn_server_events_total",
                &[("event", name)],
                value,
            );
        }
    }

    family(
        &mut out,
        "ppgnn_gauge",
        "gauge",
        "Point-in-time load gauges.",
    );
    for g in &snap.gauges {
        sample(&mut out, "ppgnn_gauge", &[("name", &g.name)], g.value);
    }

    if let Some(w) = windowed {
        family(
            &mut out,
            "ppgnn_window_ms",
            "gauge",
            "Span of the rolling window the ppgnn_window_* families cover, ms.",
        );
        sample(&mut out, "ppgnn_window_ms", &[], w.window_ms);
        family(
            &mut out,
            "ppgnn_window_stage_samples",
            "gauge",
            "Samples recorded per stage inside the rolling window.",
        );
        for s in &w.stages {
            sample(
                &mut out,
                "ppgnn_window_stage_samples",
                &[("stage", &s.name)],
                s.count,
            );
        }
        family(
            &mut out,
            "ppgnn_window_stage_latency_us",
            "gauge",
            "Stage latency percentiles inside the rolling window, microseconds.",
        );
        for s in &w.stages {
            for (p, v) in [
                ("50", s.p50_us),
                ("95", s.p95_us),
                ("99", s.p99_us),
                ("max", s.max_us),
            ] {
                sample(
                    &mut out,
                    "ppgnn_window_stage_latency_us",
                    &[("stage", &s.name), ("p", p)],
                    v,
                );
            }
        }
        family(
            &mut out,
            "ppgnn_window_rate",
            "gauge",
            "Integer per-second counter rates inside the rolling window.",
        );
        for r in &w.rates {
            sample(
                &mut out,
                "ppgnn_window_rate",
                &[("counter", &r.name)],
                r.value,
            );
        }
    }

    if let (Some(w), Some(bits)) = (windowed, key_bits) {
        let bits = bits.to_string();
        let costs = cost_constants(w);
        family(
            &mut out,
            "ppgnn_cost",
            "gauge",
            "Per-op cost constants over the rolling window (integer ns or bytes) by key size.",
        );
        for &(cost, value, _) in &costs {
            let labels = [("cost", cost), ("key_bits", bits.as_str())];
            sample(&mut out, "ppgnn_cost", &labels, value);
        }
        family(
            &mut out,
            "ppgnn_cost_samples",
            "gauge",
            "Operations each cost constant averages over inside the rolling window.",
        );
        for &(cost, _, samples) in &costs {
            let labels = [("cost", cost), ("key_bits", bits.as_str())];
            sample(&mut out, "ppgnn_cost_samples", &labels, samples);
        }
    }

    family(
        &mut out,
        "ppgnn_slo_burn_permille",
        "gauge",
        "SLO burn rate in permille of the error budget (1000 = at budget).",
    );
    for b in slo {
        sample(
            &mut out,
            "ppgnn_slo_burn_permille",
            &[("objective", b.objective), ("window", b.window)],
            b.burn_pm,
        );
    }

    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowRing;
    use crate::MetricsRegistry;
    use std::time::Duration;

    fn rendered() -> String {
        let reg = MetricsRegistry::new();
        #[cfg(not(feature = "noop"))]
        {
            reg.record_us(Layer::EndToEnd, 30_000);
            reg.record_us(Layer::PaillierDot, 40);
            reg.incr(Op::PaillierDot);
        }
        let mut ring = WindowRing::new(Duration::from_secs(1), 4);
        let mut server = [None; ServerMetric::COUNT];
        server[ServerMetric::QueriesOk as usize] = Some(5);
        server[ServerMetric::LiveWorkers as usize] = Some(2);
        ring.tick(&reg, &server);
        let mut snap = reg.snapshot();
        snap.push_counter(ServerMetric::QueriesOk.name(), 5);
        snap.push_gauge(ServerMetric::LiveWorkers.name(), 2);
        render(
            &snap,
            Some(&ring.windowed(1)),
            Some(128),
            &[SloBurn {
                objective: "latency",
                window: "fast",
                burn_pm: 250,
            }],
        )
    }

    /// The exact families, in order, with each family's label keys:
    /// the names dashboards and CI's metrics-smoke job key on.
    #[test]
    fn body_has_exactly_the_pinned_families_and_label_keys() {
        let body = rendered();
        let expected = [
            ("ppgnn_up", ""),
            ("ppgnn_stage_samples", "stage"),
            ("ppgnn_stage_sum_us", "stage"),
            ("ppgnn_stage_latency_us", "stage,p"),
            ("ppgnn_ops", "op"),
            ("ppgnn_server_events", "event"),
            ("ppgnn_gauge", "name"),
            ("ppgnn_window_ms", ""),
            ("ppgnn_window_stage_samples", "stage"),
            ("ppgnn_window_stage_latency_us", "stage,p"),
            ("ppgnn_window_rate", "counter"),
            ("ppgnn_cost", "cost,key_bits"),
            ("ppgnn_cost_samples", "cost,key_bits"),
            ("ppgnn_slo_burn_permille", "objective,window"),
        ];
        let families: Vec<&str> = body
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        assert_eq!(families, expected.map(|(fam, _)| fam));
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            let series = line.rsplit_once(' ').unwrap().0;
            let (name, labels) = series.split_once('{').unwrap_or((series, "}"));
            let keys: Vec<&str> = labels
                .trim_end_matches('}')
                .split(',')
                .filter_map(|kv| Some(kv.split_once('=')?.0))
                .collect();
            let fam = name.strip_suffix("_total").unwrap_or(name);
            assert!(expected.contains(&(fam, &keys.join(","))), "{line}");
            // Counter samples, and only those, carry the `_total` suffix.
            let counter = body.contains(&format!("# TYPE {fam} counter\n"));
            assert_eq!(counter, name != fam, "{line}");
        }
        assert!(body.ends_with("# EOF\n"));
        assert!(body.contains(r#"ppgnn_slo_burn_permille{objective="latency",window="fast"} 250"#));
        assert!(body.contains(r#"ppgnn_server_events_total{event="queries-ok"} 5"#));
        assert!(body.contains(r#"ppgnn_gauge{name="live-workers"} 2"#));
    }

    /// Each cost constant is the window's stage time over its op count.
    #[cfg(not(feature = "noop"))]
    #[test]
    fn cost_constants_are_window_means() {
        let body = rendered();
        assert!(body.contains(r#"ppgnn_cost{cost="paillier-dot-ns",key_bits="128"} 40000"#));
        assert!(body.contains(r#"ppgnn_cost_samples{cost="paillier-dot-ns",key_bits="128"} 1"#));
        // Constants whose op never ran in the window are not invented.
        assert!(!body.contains(r#"cost="sanitation-z-test-ns""#));
    }

    #[test]
    fn body_is_float_free() {
        let body = rendered();
        let bytes = body.as_bytes();
        for i in 1..bytes.len() - 1 {
            assert!(
                !(bytes[i] == b'.'
                    && bytes[i - 1].is_ascii_digit()
                    && bytes[i + 1].is_ascii_digit()),
                "scrape body contains a float near byte {i}: {:?}",
                &body[i.saturating_sub(30)..(i + 10).min(body.len())]
            );
        }
    }
}
