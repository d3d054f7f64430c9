//! Rolling-window telemetry: the time dimension of the metrics registry.
//!
//! The cumulative histograms in [`MetricsRegistry`] answer "what has this
//! process done since boot"; operators and the adaptive planner need
//! "what is it doing *now*". This module adds that lens without touching
//! the wait-free record path: a [`WindowRing`] holds per-interval
//! **deltas** of every layer histogram and counter, captured by an
//! externally driven [`WindowRing::tick`] (the server runs one
//! deadline-anchored ticker thread at 1 Hz). Aggregating the last *n*
//! intervals yields a [`WindowedSnapshot`]: windowed [`StageSnapshot`]s,
//! counter deltas, per-second rates and the latest gauges.
//!
//! Because buckets are fixed and deltas are plain subtraction, a tick is
//! O(stages × buckets) ≈ 3k relaxed loads — microseconds of work per
//! second, far inside the ≤2 % overhead budget (DESIGN.md §18). Reads
//! race with recorders exactly like cumulative snapshots do: a sample
//! can land one interval late, never be lost, never be double-counted
//! (saturating subtraction absorbs a concurrent `reset`).
//!
//! The ring also carries **one server's own metrics**: the server reads
//! its [`ServerMetric`] table at tick time and passes the values in.
//! Counters are windowed by the same delta machinery (so SLO burn rates
//! can be computed over any sub-window); gauges keep their value at the
//! tick. They never pass through the process-global registry, so two
//! servers in one process each window their own numbers.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::{
    bucket_percentile, bucket_value, CounterSnapshot, Gauge, Layer, MetricsRegistry, Op,
    ServerMetric, StageSnapshot, NUM_BUCKETS,
};

/// Default tick interval: one second.
pub const DEFAULT_INTERVAL: Duration = Duration::from_secs(1);
/// Default ring capacity: 60 intervals (one minute at 1 Hz).
pub const DEFAULT_CAPACITY: usize = 60;

/// Cumulative per-stage totals at the last tick — the delta baseline.
#[derive(Clone)]
struct StageBase {
    buckets: Vec<u64>,
    count: u64,
    sum_us: u64,
}

impl StageBase {
    fn zero() -> Self {
        StageBase {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum_us: 0,
        }
    }
}

/// One stage's activity during a single interval. Only allocated for
/// stages that actually recorded samples that interval.
#[derive(Clone)]
struct StageDelta {
    buckets: Vec<u32>,
    count: u64,
    sum_us: u64,
}

/// Everything that happened during one tick interval.
struct Interval {
    /// Indexed like [`Layer::histograms`]; `None` = no samples that
    /// interval.
    stages: Vec<Option<StageDelta>>,
    /// Op-counter deltas, indexed like [`Op::ALL`].
    ops: [u64; Op::COUNT],
    /// Point-in-time gauge values at the tick, indexed like
    /// [`Gauge::ALL`].
    gauges: [u64; Gauge::COUNT],
    /// The server's own metrics, indexed like [`ServerMetric::TABLE`]:
    /// counter deltas and gauge values at the tick; `None` for metrics
    /// the server does not carry.
    server: [Option<u64>; ServerMetric::COUNT],
}

/// A ring of per-interval telemetry deltas behind a [`MetricsRegistry`].
///
/// Not a recorder: the hot path still writes to the registry's atomics.
/// The ring only subtracts cumulative totals at tick boundaries, so it
/// needs `&mut self` and lives behind the owner's mutex (the server
/// locks it once per second plus once per scrape).
pub struct WindowRing {
    interval: Duration,
    capacity: usize,
    stage_base: Vec<StageBase>,
    op_base: [u64; Op::COUNT],
    server_base: [u64; ServerMetric::COUNT],
    ring: VecDeque<Interval>,
}

impl WindowRing {
    /// An empty ring capturing `capacity` intervals of `interval` each.
    pub fn new(interval: Duration, capacity: usize) -> Self {
        WindowRing {
            interval: interval.max(Duration::from_millis(1)),
            capacity: capacity.max(1),
            stage_base: (0..Layer::HISTOGRAMS).map(|_| StageBase::zero()).collect(),
            op_base: [0; Op::COUNT],
            server_base: [0; ServerMetric::COUNT],
            ring: VecDeque::new(),
        }
    }

    /// The configured tick interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Intervals currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True until the first tick.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Captures one interval of deltas from `reg`, plus one server's
    /// own metrics read at the same moment (`server[m as usize]` for
    /// metric `m`: cumulative for counters, which start at zero with the
    /// server; current for gauges; `None` where the server does not
    /// carry the metric).
    pub fn tick(&mut self, reg: &MetricsRegistry, server: &[Option<u64>; ServerMetric::COUNT]) {
        let mut stages: Vec<Option<StageDelta>> = Vec::with_capacity(Layer::HISTOGRAMS);
        for (hist, base) in reg.inner.stages.iter().zip(&mut self.stage_base) {
            let count = hist.count.load(Ordering::Relaxed);
            let sum_us = hist.sum_us.load(Ordering::Relaxed);
            let d_count = count.saturating_sub(base.count);
            if d_count == 0 {
                // A reset mid-run shows up as count < base: rebaseline
                // so the next interval's deltas are sane again.
                if count < base.count {
                    *base = StageBase::zero();
                    for (i, b) in hist.buckets.iter().enumerate() {
                        base.buckets[i] = b.load(Ordering::Relaxed);
                    }
                    base.count = count;
                    base.sum_us = sum_us;
                }
                stages.push(None);
                continue;
            }
            let mut delta = StageDelta {
                buckets: vec![0; NUM_BUCKETS],
                count: d_count,
                sum_us: sum_us.saturating_sub(base.sum_us),
            };
            for (i, b) in hist.buckets.iter().enumerate() {
                let cur = b.load(Ordering::Relaxed);
                delta.buckets[i] =
                    cur.saturating_sub(base.buckets[i]).min(u64::from(u32::MAX)) as u32;
                base.buckets[i] = cur;
            }
            base.count = count;
            base.sum_us = sum_us;
            stages.push(Some(delta));
        }

        let mut ops = [0u64; Op::COUNT];
        for (oi, op) in Op::ALL.iter().enumerate() {
            let cur = reg.op_count(*op);
            ops[oi] = cur.saturating_sub(self.op_base[oi]);
            self.op_base[oi] = cur;
        }

        let gauges = Gauge::ALL.map(|g| reg.gauge(g));
        let mut server = *server;
        for (metric, _) in ServerMetric::TABLE {
            let i = metric as usize;
            if let (false, Some(value)) = (metric.is_gauge(), server[i]) {
                server[i] = Some(value.saturating_sub(self.server_base[i]));
                self.server_base[i] = value;
            }
        }

        self.ring.push_back(Interval {
            stages,
            ops,
            gauges,
            server,
        });
        while self.ring.len() > self.capacity {
            self.ring.pop_front();
        }
    }

    /// The intervals that make up the requested window: the newest
    /// `min(intervals, len)` entries.
    fn window(&self, intervals: usize) -> impl Iterator<Item = &Interval> {
        let n = intervals.max(1).min(self.ring.len());
        self.ring.iter().skip(self.ring.len() - n)
    }

    /// Aggregates the newest `intervals` intervals into one snapshot.
    /// Asking for more intervals than captured aggregates everything.
    pub fn windowed(&self, intervals: usize) -> WindowedSnapshot {
        let n = intervals.max(1).min(self.ring.len());
        let interval_ms = self.interval.as_millis().min(u64::MAX as u128) as u64;
        let window_ms = interval_ms * n as u64;

        let mut stages = Vec::with_capacity(Layer::HISTOGRAMS);
        for (si, layer) in Layer::histograms().enumerate() {
            let mut buckets = vec![0u64; NUM_BUCKETS];
            let mut count = 0u64;
            let mut sum_us = 0u64;
            for iv in self.window(n) {
                if let Some(d) = &iv.stages[si] {
                    count += d.count;
                    sum_us += d.sum_us;
                    for (i, &b) in d.buckets.iter().enumerate() {
                        buckets[i] += u64::from(b);
                    }
                }
            }
            stages.push(snapshot_from_buckets(layer.name(), &buckets, count, sum_us));
        }

        let mut counters = Vec::with_capacity(Op::COUNT + ServerMetric::COUNT);
        let mut rates = Vec::with_capacity(Op::COUNT + ServerMetric::COUNT);
        let mut push = |name: &str, total: u64| {
            let rate = total.saturating_mul(1000).checked_div(window_ms);
            counters.push(CounterSnapshot::new(name, total));
            rates.push(CounterSnapshot::new(name, rate.unwrap_or(0)));
        };
        for (oi, op) in Op::ALL.iter().enumerate() {
            let total: u64 = self.window(n).map(|iv| iv.ops[oi]).sum();
            push(op.name(), total);
        }
        for (metric, name) in ServerMetric::TABLE {
            if !metric.is_gauge() {
                push(name, self.server_delta(metric, n));
            }
        }

        // Gauges as of the newest tick: the process-wide ones, then
        // those the server carries.
        let mut gauges = Vec::new();
        if let Some(iv) = self.ring.back() {
            let process = Gauge::ALL.map(|g| (g.name(), Some(iv.gauges[g as usize])));
            let own = ServerMetric::TABLE
                .map(|(m, name)| (name, iv.server[m as usize].filter(|_| m.is_gauge())));
            for (name, value) in process.into_iter().chain(own) {
                if let Some(value) = value {
                    gauges.push(CounterSnapshot::new(name, value));
                }
            }
        }

        WindowedSnapshot {
            interval_ms,
            intervals: n as u32,
            window_ms,
            stages,
            counters,
            rates,
            gauges,
        }
    }

    /// `(over, total)` sample counts for `layer` in the newest
    /// `intervals` intervals, where `over` counts samples whose bucket
    /// midpoint exceeds `threshold_us`. Bucket granularity makes the
    /// threshold fuzzy by ≤ 12.5 % — fine for SLO burn accounting. A
    /// layer that keeps no histogram has no samples.
    pub fn stage_over_threshold(
        &self,
        layer: Layer,
        intervals: usize,
        threshold_us: u64,
    ) -> (u64, u64) {
        let mut over = 0u64;
        let mut total = 0u64;
        for iv in self.window(intervals) {
            if let Some(Some(d)) = iv.stages.get(layer as usize) {
                total += d.count;
                for (i, &b) in d.buckets.iter().enumerate() {
                    if b != 0 && bucket_value(i) > threshold_us {
                        over += u64::from(b);
                    }
                }
            }
        }
        (over, total)
    }

    /// Delta of one of the server's counters over the newest
    /// `intervals` intervals.
    pub fn server_delta(&self, metric: ServerMetric, intervals: usize) -> u64 {
        self.window(intervals)
            .filter_map(|iv| iv.server[metric as usize])
            .sum()
    }
}

/// Builds a [`StageSnapshot`] from summed delta buckets. Exemplars are
/// zero: they link to the live trace ring, which has no per-interval
/// notion.
fn snapshot_from_buckets(name: &str, buckets: &[u64], count: u64, sum_us: u64) -> StageSnapshot {
    let total: u64 = buckets.iter().sum();
    // The window keeps no exact max: its max is the top bucket's value.
    let max_us = buckets
        .iter()
        .enumerate()
        .rev()
        .find(|(_, &c)| c != 0)
        .map(|(i, _)| bucket_value(i))
        .unwrap_or(0);
    let pct = |p| bucket_percentile(buckets, total, p, max_us).map_or(0, |(_, us)| us);
    StageSnapshot {
        name: name.to_string(),
        count,
        total_us: sum_us,
        max_us,
        p50_us: pct(50),
        p95_us: pct(95),
        p99_us: pct(99),
        p50_exemplar: 0,
        p95_exemplar: 0,
        p99_exemplar: 0,
    }
}

/// Aggregated view of the newest *n* intervals of a [`WindowRing`]:
/// windowed layer aggregates, counter deltas, integer per-second rates,
/// and the latest gauge values — rendered by `/metrics` and read by the
/// SLO burn accounting. Integer-only by construction: the closed-enum
/// redaction model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowedSnapshot {
    /// Tick interval, milliseconds.
    pub interval_ms: u64,
    /// Intervals aggregated into this view.
    pub intervals: u32,
    /// Window span: `intervals × interval_ms`.
    pub window_ms: u64,
    /// Windowed per-stage aggregates (exemplars zero).
    pub stages: Vec<StageSnapshot>,
    /// Counter deltas over the window (ops plus the server's counters).
    pub counters: Vec<CounterSnapshot>,
    /// Integer per-second rates for the same counters.
    pub rates: Vec<CounterSnapshot>,
    /// Gauge values at the newest tick.
    pub gauges: Vec<CounterSnapshot>,
}

impl WindowedSnapshot {
    /// Looks up a windowed stage aggregate by name.
    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Looks up a windowed counter delta by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a per-second rate by name.
    pub fn rate(&self, name: &str) -> Option<u64> {
        self.rates.iter().find(|c| c.name == name).map(|c| c.value)
    }
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;

    fn ring() -> WindowRing {
        WindowRing::new(Duration::from_secs(1), 4)
    }

    /// A server reading carrying only the given metrics.
    fn server(values: &[(ServerMetric, u64)]) -> [Option<u64>; ServerMetric::COUNT] {
        let mut out = [None; ServerMetric::COUNT];
        for &(m, v) in values {
            out[m as usize] = Some(v);
        }
        out
    }

    #[test]
    fn deltas_cover_only_their_interval() {
        let reg = MetricsRegistry::new();
        let mut w = ring();
        reg.record_us(Layer::Validate, 100);
        reg.record_us(Layer::Validate, 200);
        w.tick(&reg, &server(&[]));
        reg.record_us(Layer::Validate, 400);
        w.tick(&reg, &server(&[]));

        // Newest interval only holds the third sample.
        let last = w.windowed(1);
        let v = last.stage("validate").unwrap();
        assert_eq!(v.count, 1);
        assert_eq!(v.total_us, 400);
        // The two-interval window holds all three.
        let both = w.windowed(2);
        let v = both.stage("validate").unwrap();
        assert_eq!(v.count, 3);
        assert_eq!(v.total_us, 700);
        // Untouched stages report empty, not stale cumulative data.
        assert_eq!(both.stage("sanitation").unwrap().count, 0);
    }

    #[test]
    fn ring_evicts_beyond_capacity() {
        let reg = MetricsRegistry::new();
        let mut w = ring();
        for i in 0..6u64 {
            reg.record_us(Layer::EndToEnd, 1000 + i);
            w.tick(&reg, &server(&[]));
        }
        assert_eq!(w.len(), 4);
        // Only the newest 4 samples survive in the widest window.
        assert_eq!(w.windowed(100).stage("end-to-end").unwrap().count, 4);
    }

    #[test]
    fn windowed_percentiles_and_max_from_deltas() {
        let reg = MetricsRegistry::new();
        let mut w = ring();
        for us in [1u64, 2, 2, 3, 15] {
            reg.record_us(Layer::CandidateEval, us);
        }
        w.tick(&reg, &server(&[]));
        let s = w.windowed(1);
        let c = s.stage("candidate-eval").unwrap();
        assert_eq!(c.count, 5);
        assert_eq!(c.p50_us, 2);
        assert_eq!(c.max_us, 15);
    }

    #[test]
    fn op_and_server_counter_rates() {
        let reg = MetricsRegistry::new();
        let mut w = WindowRing::new(Duration::from_secs(2), 4);
        reg.incr_by(Op::PaillierDot, 10);
        w.tick(&reg, &server(&[(ServerMetric::QueriesOk, 4)]));
        reg.incr_by(Op::PaillierDot, 6);
        w.tick(&reg, &server(&[(ServerMetric::QueriesOk, 9)]));

        let s = w.windowed(2);
        assert_eq!(s.counter("paillier-dot-ops"), Some(16));
        assert_eq!(s.counter(ServerMetric::QueriesOk.name()), Some(9));
        // 16 ops over 4 s of window → 4/s.
        assert_eq!(s.rate("paillier-dot-ops"), Some(4));
        assert_eq!(w.server_delta(ServerMetric::QueriesOk, 1), 5);
        assert_eq!(w.server_delta(ServerMetric::QueriesErr, 2), 0);
    }

    #[test]
    fn server_gauges_are_the_newest_reading_of_this_server() {
        let reg = MetricsRegistry::new();
        let mut w = ring();
        w.tick(&reg, &server(&[(ServerMetric::LiveWorkers, 5)]));
        w.tick(&reg, &server(&[(ServerMetric::LiveWorkers, 2)]));
        let gauges = w.windowed(2).gauges;
        let gauge = |name: &str| gauges.iter().find(|g| g.name == name).map(|g| g.value);
        assert_eq!(gauge(ServerMetric::LiveWorkers.name()), Some(2));
        assert_eq!(gauge(Gauge::PoolDepth.name()), Some(0));
        // A gauge the server does not carry is absent, not zero.
        assert_eq!(gauge(ServerMetric::RecoveredBatches.name()), None);
    }

    #[test]
    fn over_threshold_counts_tail_samples() {
        let reg = MetricsRegistry::new();
        let mut w = ring();
        for us in [10u64, 10, 10, 50_000, 60_000] {
            reg.record_us(Layer::EndToEnd, us);
        }
        w.tick(&reg, &server(&[]));
        let (over, total) = w.stage_over_threshold(Layer::EndToEnd, 1, 20_000);
        assert_eq!(total, 5);
        assert_eq!(over, 2);
        let (over, _) = w.stage_over_threshold(Layer::EndToEnd, 1, 1_000_000);
        assert_eq!(over, 0);
    }

    #[test]
    fn registry_reset_rebaselines_instead_of_underflowing() {
        let reg = MetricsRegistry::new();
        let mut w = ring();
        reg.record_us(Layer::Validate, 100);
        w.tick(&reg, &server(&[]));
        reg.reset();
        w.tick(&reg, &server(&[]));
        reg.record_us(Layer::Validate, 200);
        w.tick(&reg, &server(&[]));
        let s = w.windowed(1).stage("validate").unwrap().clone();
        assert_eq!(s.count, 1);
        assert_eq!(s.total_us, 200);
    }
}
