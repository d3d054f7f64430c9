//! Aggregated cost summaries.

use std::collections::BTreeMap;

/// Snapshot of one (or an averaged batch of) protocol run(s):
/// the three dominating costs of §8.1 plus named counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostReport {
    /// Total communication (all links), bytes.
    pub comm_bytes_total: u64,
    /// Communication within the user group, bytes.
    pub comm_bytes_intra_group: u64,
    /// Communication on user↔LSP links, bytes.
    pub comm_bytes_user_lsp: u64,
    /// Summed CPU seconds of all user-side parties.
    pub user_cpu_secs: f64,
    /// CPU seconds of LSP.
    pub lsp_cpu_secs: f64,
    /// Named counters (queries executed, samples drawn, POIs returned…).
    pub counters: BTreeMap<String, u64>,
}

impl CostReport {
    /// Scales every cost by `1/runs` — turning a summed ledger into a
    /// per-query average (the paper reports the average of 500 queries).
    pub fn averaged(&self, runs: u64) -> CostReport {
        assert!(runs > 0, "cannot average over zero runs");
        CostReport {
            comm_bytes_total: self.comm_bytes_total / runs,
            comm_bytes_intra_group: self.comm_bytes_intra_group / runs,
            comm_bytes_user_lsp: self.comm_bytes_user_lsp / runs,
            user_cpu_secs: self.user_cpu_secs / runs as f64,
            lsp_cpu_secs: self.lsp_cpu_secs / runs as f64,
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v / runs))
                .collect(),
        }
    }

    /// Communication cost in KB (the y-axis unit of Figures 5a/6a/8a).
    pub fn comm_kb(&self) -> f64 {
        self.comm_bytes_total as f64 / 1024.0
    }
}

/// Renders a [`TelemetrySnapshot`] as an aligned, human-readable table:
/// one row per pipeline stage (count and latency percentiles in µs),
/// followed by the non-zero counters and the gauges. The JSON face of
/// the same data is [`TelemetrySnapshot::to_json`]; this is the
/// terminal face, used by the `ppgnn-server` `stats` command.
///
/// [`TelemetrySnapshot`]: ppgnn_telemetry::TelemetrySnapshot
pub fn render_telemetry_table(snap: &ppgnn_telemetry::TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "stage", "count", "p50_us", "p95_us", "p99_us", "max_us"
    ));
    for s in &snap.stages {
        out.push_str(&format!(
            "{:<20} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            s.name, s.count, s.p50_us, s.p95_us, s.p99_us, s.max_us
        ));
    }
    let live: Vec<_> = snap.counters.iter().filter(|c| c.value > 0).collect();
    if !live.is_empty() {
        out.push_str("counters:");
        for c in live {
            out.push_str(&format!(" {}={}", c.name, c.value));
        }
        out.push('\n');
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:");
        for g in &snap.gauges {
            out.push_str(&format!(" {}={}", g.name, g.value));
        }
        out.push('\n');
    }
    out
}

/// Renders kept trace segments as an indented terminal tree: one block
/// per trace id, the client segment first, each server segment nested
/// under the client span it resumed from (the context's parent span).
/// Only redacted span names, attribute keys, counts, and durations
/// appear — the terminal face of the same data
/// [`ppgnn_telemetry::trace::chrome_trace_json`] exports to Perfetto.
pub fn render_trace_tree(segments: &[ppgnn_telemetry::trace::TraceSegment]) -> String {
    use ppgnn_telemetry::trace::{hex_id, SegmentOrigin, SpanRecord, TraceSegment};
    use ppgnn_telemetry::Op;

    fn push_span(
        out: &mut String,
        spans: &[SpanRecord],
        span: &SpanRecord,
        indent: usize,
        depths: &mut BTreeMap<u64, usize>,
    ) {
        depths.insert(span.span_id, indent);
        out.push_str(&"  ".repeat(indent));
        out.push_str(&format!("{} {}us", span.name.name(), span.dur_us));
        for &(k, v) in &span.attrs {
            out.push_str(&format!(" {}={}", k.name(), v));
        }
        out.push('\n');
        let mut children: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.parent_id == span.span_id)
            .collect();
        children.sort_by_key(|s| s.start_us);
        for child in children {
            push_span(out, spans, child, indent + 1, depths);
        }
    }

    fn push_segment(
        out: &mut String,
        seg: &TraceSegment,
        indent: usize,
        depths: &mut BTreeMap<u64, usize>,
    ) {
        if let Some(root) = seg.root() {
            push_span(out, &seg.spans, root, indent, depths);
        }
        let ops: Vec<String> = Op::ALL
            .iter()
            .filter(|op| seg.ops[**op as usize] > 0)
            .map(|op| format!("{}={}", op.name(), seg.ops[*op as usize]))
            .collect();
        if !ops.is_empty() {
            out.push_str(&"  ".repeat(indent + 1));
            out.push_str(&format!("ops: {}\n", ops.join(" ")));
        }
        if seg.spans_dropped > 0 {
            out.push_str(&"  ".repeat(indent + 1));
            out.push_str(&format!("({} spans dropped)\n", seg.spans_dropped));
        }
    }

    let mut order: Vec<u64> = Vec::new();
    let mut by_trace: BTreeMap<u64, Vec<&TraceSegment>> = BTreeMap::new();
    for seg in segments {
        let entry = by_trace.entry(seg.trace_id).or_default();
        if entry.is_empty() {
            order.push(seg.trace_id);
        }
        entry.push(seg);
    }
    let mut out = String::new();
    for trace_id in order {
        let segs = &by_trace[&trace_id];
        let dur = segs.iter().map(|s| s.dur_us()).max().unwrap_or(0);
        out.push_str(&format!("trace {} ({dur}us)", hex_id(trace_id)));
        if segs.iter().any(|s| s.slow) {
            out.push_str(" [slow]");
        }
        if segs.iter().any(|s| s.error) {
            out.push_str(" [error]");
        }
        if segs.iter().any(|s| s.shed) {
            out.push_str(" [shed]");
        }
        out.push('\n');
        // Client span depths, so server segments can nest under the
        // span that carried their context.
        let mut depths: BTreeMap<u64, usize> = BTreeMap::new();
        for seg in segs.iter().filter(|s| s.origin == SegmentOrigin::Client) {
            push_segment(&mut out, seg, 1, &mut depths);
        }
        let client_depths = depths.clone();
        for seg in segs.iter().filter(|s| s.origin == SegmentOrigin::Server) {
            let indent = client_depths
                .get(&seg.parent_span)
                .map(|d| d + 1)
                .unwrap_or(1);
            push_segment(&mut out, seg, indent, &mut depths);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averaging_divides_everything() {
        let mut counters = BTreeMap::new();
        counters.insert("pois".to_string(), 40u64);
        let r = CostReport {
            comm_bytes_total: 1000,
            comm_bytes_intra_group: 100,
            comm_bytes_user_lsp: 900,
            user_cpu_secs: 2.0,
            lsp_cpu_secs: 10.0,
            counters,
        };
        let avg = r.averaged(10);
        assert_eq!(avg.comm_bytes_total, 100);
        assert_eq!(avg.user_cpu_secs, 0.2);
        assert_eq!(avg.counters["pois"], 4);
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn zero_runs_panics() {
        CostReport::default().averaged(0);
    }

    #[test]
    fn kb_conversion() {
        let r = CostReport {
            comm_bytes_total: 2048,
            ..Default::default()
        };
        assert_eq!(r.comm_kb(), 2.0);
    }

    #[test]
    fn telemetry_table_lists_stages_and_counters() {
        use ppgnn_telemetry::{CounterSnapshot, StageSnapshot, TelemetrySnapshot};
        let snap = TelemetrySnapshot {
            stages: vec![StageSnapshot {
                name: "validate".into(),
                count: 4,
                total_us: 100,
                max_us: 40,
                p50_us: 20,
                p95_us: 40,
                p99_us: 40,
                p50_exemplar: 0,
                p95_exemplar: 0,
                p99_exemplar: 0,
            }],
            counters: vec![
                CounterSnapshot {
                    name: "queries-ok".into(),
                    value: 4,
                },
                CounterSnapshot {
                    name: "refused".into(),
                    value: 0,
                },
            ],
            gauges: vec![CounterSnapshot {
                name: "sessions".into(),
                value: 1,
            }],
        };
        let table = render_telemetry_table(&snap);
        assert!(table.contains("validate"));
        assert!(table.contains("queries-ok=4"));
        // Zero counters are elided from the terminal face.
        assert!(!table.contains("refused"));
        assert!(table.contains("sessions=1"));
    }

    #[test]
    fn trace_tree_nests_server_under_client() {
        use ppgnn_telemetry::trace::{AttrKey, Tracer, TracerConfig};
        use ppgnn_telemetry::{enter, Layer};
        let t = Tracer::new();
        t.configure(&TracerConfig {
            enabled: true,
            slow_us: 0,
            keep_permille: 1000,
            capacity: 8,
            slow_log: false,
            max_spans: 32,
        });
        let (ctx, client) = t.start();
        let client = client.unwrap();
        {
            let _a = client.activate();
            let _s = enter(Layer::ClientPlan);
        }
        let server = t.resume(&ctx).unwrap();
        {
            let _a = server.activate();
            let s = enter(Layer::Validate);
            s.attr(AttrKey::Users, 3);
        }
        server.finish();
        client.finish();
        let tree = render_trace_tree(&t.segments());
        assert!(tree.contains("client-query"));
        assert!(tree.contains("client-plan"));
        assert!(tree.contains("validate"));
        assert!(tree.contains("users=3"));
        assert!(tree.contains("[slow]")); // slow_us 0: everything slow
        let indent = |l: &str| l.len() - l.trim_start().len();
        let client_line = tree.lines().find(|l| l.contains("client-query")).unwrap();
        let server_line = tree.lines().find(|l| l.contains("server-query")).unwrap();
        assert!(indent(server_line) > indent(client_line));
    }
}
