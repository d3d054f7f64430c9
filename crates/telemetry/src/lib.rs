//! # ppgnn-telemetry — lock-light per-stage pipeline telemetry
//!
//! The paper's whole evaluation (Table 4, Figs 5–8) is a per-stage cost
//! breakdown; this crate gives the live system the same lens. It sits at
//! the bottom of the workspace dependency graph (below `ppgnn-paillier`)
//! so every layer — crypto primitives, protocol engine, networked server
//! and client — can report into one [`MetricsRegistry`]:
//!
//! * [`Layer`] — the one closed table of pipeline layers, entered through
//!   one guard ([`enter`]); a layer keeps a fixed-bucket [`Histogram`] of
//!   microsecond latencies (log₂ octaves with 4 linear sub-buckets:
//!   ≤ 12.5 % relative error, zero allocation, atomics only), a trace
//!   span tag, or both;
//! * [`Op`] — cheap monotone operation counters (one relaxed
//!   `fetch_add`) for the hot homomorphic primitives where even an
//!   `Instant::now()` pair would be material;
//! * [`Gauge`] — process-wide point-in-time values (the randomizer pool
//!   depth);
//! * [`ServerMetric`] — the closed name table of one server's own
//!   counters and gauges, which each server keeps in its own atomics
//!   (several servers may share a process) and never writes here;
//! * [`TelemetrySnapshot`] — the one unified snapshot type, serialized
//!   both as JSON (`BENCH_server.json`, `--stats-json`) and as a compact
//!   binary payload (the `Stats` wire reply);
//! * [`HealthSnapshot`] — the compact health probe carried by `Pong`;
//! * [`LatencySummary`] / [`percentile`] / [`summarize`] — raw-sample
//!   aggregation (moved here from `ppgnn-server::metrics` so loadgen,
//!   mallory, and the bench crate share one definition).
//!
//! Instrumented crates call through the process-wide [`global`] registry;
//! handles are `Arc`-cheap to clone and every record path is wait-free.
//! Building with `--features ppgnn-telemetry/noop` compiles every record
//! call and every [`enter`] guard to nothing — that is the control arm
//! of the overhead A/B budget in DESIGN.md §12.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
#[cfg(not(feature = "noop"))]
use std::time::Instant;

pub mod json;
pub mod openmetrics;
pub mod trace;
pub mod window;

// ---------------------------------------------------------------------------
// Layer / Op / Gauge name spaces
// ---------------------------------------------------------------------------

/// A named pipeline layer: the one closed vocabulary of the latency
/// histograms and the trace spans alike. Code enters a layer through one
/// guard, [`enter`], which records the histogram sample and, when a
/// trace is active on the thread, the span.
///
/// [`Layer::TABLE`] gives each layer its kebab name, whether it keeps a
/// histogram and its span wire tag. The histogram layers lead the table
/// in report order, so a histogram layer's variant index is its slot.
///
/// Layers nest: `end-to-end` contains `client-plan`, `wire-encode` work
/// happens inside `client-encode`, and `paillier-dot` time is part of
/// `private-selection`. Sums across layers therefore over-count; read
/// each layer on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Layer {
    /// Algorithm 1 client side: partition, plant, encrypt indicator.
    ClientPlan,
    /// Client-side request assembly (query payload bytes).
    ClientEncode,
    /// `to_wire` of protocol messages (either side).
    WireEncode,
    /// `from_wire` of protocol messages (either side).
    WireDecode,
    /// Server validation gate (`validate_query`).
    Validate,
    /// LSP candidate evaluation loop (Algorithm 2 answers).
    CandidateEval,
    /// One Damgård–Jurik encryption batch (`encrypt_vector`).
    PaillierEncrypt,
    /// One Damgård–Jurik decryption batch (`decrypt_vector`, or the
    /// two-phase answer decode).
    PaillierDecrypt,
    /// One homomorphic selection batch `A ⨂ [v]` (`matrix_select_with`).
    PaillierDot,
    /// Private selection (`A ⨂ [v]` plus the OPT outer phase).
    PrivateSelection,
    /// Answer sanitation (`safe_prefix_len`: inequality systems + Z-tests).
    Sanitation,
    /// One whole client query: plan → wire → answer → decode.
    EndToEnd,
    /// One whole server-side query: enqueue → worker reply (queue wait
    /// included) — the layer the server's latency SLO burns against.
    ServeQuery,
    /// Dynamic-index mutation: applying a `PoiUpdate` batch and
    /// publishing the new snapshot.
    IndexMutate,
    /// Subscription registry scan: which safe regions a mutation kills.
    InvalidateScan,
    /// Pushing re-plan notifications to invalidated subscribers.
    FanoutNotify,
    /// Appending (and fsyncing, per policy) one WAL record.
    WalAppend,
    /// Writing one durable POI checkpoint and rotating the WAL.
    Checkpoint,
    /// Startup recovery: checkpoint load plus WAL tail replay.
    RecoverReplay,
    /// Padding a response frame to the shape-policy target (bytes
    /// written beyond the real payload).
    ShapePad,
    /// Holding a response until its latency-quantum boundary.
    LatencyHold,
    /// Client trace root: one whole query (plan → answer decode).
    ClientQuery,
    /// Server trace root: one query as seen by the LSP.
    ServerQuery,
    /// One prefix length's Z-test pass inside sanitation.
    SanitationPrefix,
}

impl Layer {
    /// The one layer table, indexed by variant: the stable kebab-case
    /// name (JSON, `/metrics`, Chrome trace), whether the layer keeps a
    /// histogram, and its span wire tag (`None`: never traced).
    #[rustfmt::skip]
    pub const TABLE: [(Layer, &'static str, bool, Option<u8>); 24] = [
        (Layer::ClientPlan,       "client-plan",       true,  Some(2)),
        (Layer::ClientEncode,     "client-encode",     true,  Some(3)),
        (Layer::WireEncode,       "wire-encode",       true,  Some(4)),
        (Layer::WireDecode,       "wire-decode",       true,  Some(5)),
        (Layer::Validate,         "validate",          true,  Some(7)),
        (Layer::CandidateEval,    "candidate-eval",    true,  Some(8)),
        (Layer::PaillierEncrypt,  "paillier-encrypt",  true,  Some(9)),
        (Layer::PaillierDecrypt,  "paillier-decrypt",  true,  Some(10)),
        (Layer::PaillierDot,      "paillier-dot",      true,  Some(11)),
        (Layer::PrivateSelection, "private-selection", true,  Some(12)),
        (Layer::Sanitation,       "sanitation",        true,  Some(13)),
        (Layer::EndToEnd,         "end-to-end",        true,  None),
        (Layer::ServeQuery,       "serve-query",       true,  None),
        (Layer::IndexMutate,      "index-mutate",      true,  Some(15)),
        (Layer::InvalidateScan,   "invalidate-scan",   true,  Some(16)),
        (Layer::FanoutNotify,     "fanout-notify",     true,  Some(17)),
        (Layer::WalAppend,        "wal-append",        true,  Some(18)),
        (Layer::Checkpoint,       "checkpoint",        true,  Some(19)),
        (Layer::RecoverReplay,    "recover-replay",    true,  Some(20)),
        (Layer::ShapePad,         "shape-pad",         true,  None),
        (Layer::LatencyHold,      "latency-hold",      true,  None),
        (Layer::ClientQuery,      "client-query",      false, Some(1)),
        (Layer::ServerQuery,      "server-query",      false, Some(6)),
        (Layer::SanitationPrefix, "sanitation-prefix", false, Some(14)),
    ];

    /// Number of histogram layers: the leading rows of [`Layer::TABLE`].
    pub const HISTOGRAMS: usize = 21;

    /// The stable metric and span name.
    pub fn name(self) -> &'static str {
        Self::TABLE[self as usize].1
    }

    /// Whether the layer keeps a latency histogram.
    pub fn keeps_histogram(self) -> bool {
        Self::TABLE[self as usize].2
    }

    /// The span wire tag, `None` for a layer that is never traced.
    pub fn tag(self) -> Option<u8> {
        Self::TABLE[self as usize].3
    }

    /// Wire tag → layer; `None` for every tag no layer carries.
    pub fn from_tag(tag: u8) -> Option<Layer> {
        Self::TABLE
            .into_iter()
            .find(|row| row.3 == Some(tag))
            .map(|row| row.0)
    }

    /// The histogram layers, in report order.
    pub fn histograms() -> impl Iterator<Item = Layer> {
        Self::TABLE[..Self::HISTOGRAMS].iter().map(|row| row.0)
    }
}

/// A cheap monotone operation counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Op {
    /// Probabilistic Damgård–Jurik encryptions.
    PaillierEncrypt,
    /// Damgård–Jurik decryptions.
    PaillierDecrypt,
    /// Homomorphic scalar multiplications (one modpow).
    PaillierScalarMul,
    /// Homomorphic additions (one modmul).
    PaillierAdd,
    /// Homomorphic dot products.
    PaillierDot,
    /// Ciphertext elements consumed by dot products (the vector length
    /// of every dot, summed) — denominator for the scrape's
    /// per-element dot cost constant.
    PaillierDotElements,
    /// Sanitation Z-tests (`reject_h0` evaluations, §5.3).
    SanitationZTest,
    /// Encryptions served from a precomputed randomizer pool.
    PoolHit,
    /// Pooled encryptions that found the pool empty and fell back to
    /// fresh randomness (never an error, never a stall).
    PoolMiss,
    /// Candidate group-distance vectors evaluated by the LSP answer
    /// loop (Algorithm 2 line 2), one per candidate per query.
    CandidatesEvaluated,
    /// Answer payload bytes sent on the wire (pre-padding). Divided by
    /// [`Op::CandidatesEvaluated`] this is the scrape's
    /// `answer-bytes-per-candidate` cost constant.
    AnswerBytes,
}

impl Op {
    /// Every op counter, in wire/report order.
    pub const ALL: [Op; 11] = [
        Op::PaillierEncrypt,
        Op::PaillierDecrypt,
        Op::PaillierScalarMul,
        Op::PaillierAdd,
        Op::PaillierDot,
        Op::PaillierDotElements,
        Op::SanitationZTest,
        Op::PoolHit,
        Op::PoolMiss,
        Op::CandidatesEvaluated,
        Op::AnswerBytes,
    ];

    /// Number of op counters.
    pub const COUNT: usize = Self::ALL.len();

    /// The stable metric name. Suffixed `-ops` so op counters never
    /// collide with the layer namespace.
    pub fn name(self) -> &'static str {
        match self {
            Op::PaillierEncrypt => "paillier-encrypt-ops",
            Op::PaillierDecrypt => "paillier-decrypt-ops",
            Op::PaillierScalarMul => "paillier-scalar-mul-ops",
            Op::PaillierAdd => "paillier-add-ops",
            Op::PaillierDot => "paillier-dot-ops",
            Op::PaillierDotElements => "paillier-dot-elements",
            Op::SanitationZTest => "sanitation-z-tests",
            Op::PoolHit => "pool-hit",
            Op::PoolMiss => "pool-miss",
            Op::CandidatesEvaluated => "candidates-evaluated",
            Op::AnswerBytes => "answer-bytes",
        }
    }
}

/// A process-wide point-in-time gauge, set (not accumulated) by its
/// owner. Per-server load gauges are [`ServerMetric`]s instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Precomputed randomizers currently available in the pool.
    PoolDepth,
}

impl Gauge {
    /// Every gauge, in wire/report order.
    pub const ALL: [Gauge; 1] = [Gauge::PoolDepth];

    /// Number of gauges.
    pub const COUNT: usize = Self::ALL.len();

    /// The stable metric name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::PoolDepth => "pool-depth",
        }
    }
}

/// One server's own counters and gauges: a closed set, named in
/// [`ServerMetric::TABLE`], the one place their strings live.
///
/// The values are per server, not per process — an observer arm or a
/// parallel test can run several servers in one process — so they are
/// never stored in a [`MetricsRegistry`]. The server reads them from
/// its own atomics through this table into every face: the `Stats`
/// snapshot, the `Pong`/`/healthz` [`HealthSnapshot`], the window
/// ring, `/metrics`, and the binaries' exit summaries. Counters come
/// first, gauges from [`ServerMetric::QueueDepth`] on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum ServerMetric {
    Accepted,
    Refused,
    QueriesOk,
    QueriesErr,
    BusyShed,
    DeadlineExpired,
    Replayed,
    WorkerPanics,
    WorkersRespawned,
    RateLimited,
    StrikeDisconnects,
    SlowReaped,
    FrameGarbage,
    FaultsInjected,
    SessionsEvicted,
    SessionsRejected,
    Violations,
    PoiUpdates,
    PoiOps,
    SubscribesOk,
    SubscribeRejected,
    Invalidations,
    NotificationsSent,
    Unsubscribes,
    PoiUpdateReplays,
    Checkpoints,
    QueueDepth,
    Inflight,
    LiveWorkers,
    Sessions,
    UptimeMs,
    Subscriptions,
    IndexVersion,
    RecoveredCheckpointVersion,
    RecoveredBatches,
    RecoveredTornBytes,
    RecoveredCorruptCheckpoints,
    SloLatencyFastBurnPm,
    SloLatencySlowBurnPm,
    SloErrorFastBurnPm,
    SloErrorSlowBurnPm,
}

impl ServerMetric {
    /// Every per-server metric with its stable name, in report order.
    pub const TABLE: [(ServerMetric, &'static str); 41] = [
        (Self::Accepted, "accepted"),
        (Self::Refused, "refused"),
        (Self::QueriesOk, "queries-ok"),
        (Self::QueriesErr, "queries-err"),
        (Self::BusyShed, "busy-shed"),
        (Self::DeadlineExpired, "deadline-expired"),
        (Self::Replayed, "replayed"),
        (Self::WorkerPanics, "worker-panics"),
        (Self::WorkersRespawned, "workers-respawned"),
        (Self::RateLimited, "rate-limited"),
        (Self::StrikeDisconnects, "strike-disconnects"),
        (Self::SlowReaped, "slow-reaped"),
        (Self::FrameGarbage, "frame-garbage"),
        (Self::FaultsInjected, "faults-injected"),
        (Self::SessionsEvicted, "sessions-evicted"),
        (Self::SessionsRejected, "sessions-rejected"),
        (Self::Violations, "violations"),
        (Self::PoiUpdates, "poi-updates"),
        (Self::PoiOps, "poi-ops"),
        (Self::SubscribesOk, "subscribes-ok"),
        (Self::SubscribeRejected, "subscribe-rejected"),
        (Self::Invalidations, "invalidations"),
        (Self::NotificationsSent, "notifications-sent"),
        (Self::Unsubscribes, "unsubscribes"),
        (Self::PoiUpdateReplays, "poi-update-replays"),
        (Self::Checkpoints, "checkpoints"),
        (Self::QueueDepth, "queue-depth"),
        (Self::Inflight, "inflight"),
        (Self::LiveWorkers, "live-workers"),
        (Self::Sessions, "sessions"),
        (Self::UptimeMs, "uptime-ms"),
        (Self::Subscriptions, "subscriptions"),
        (Self::IndexVersion, "index-version"),
        (
            Self::RecoveredCheckpointVersion,
            "recovered-checkpoint-version",
        ),
        (Self::RecoveredBatches, "recovered-batches"),
        (Self::RecoveredTornBytes, "recovered-torn-bytes"),
        (
            Self::RecoveredCorruptCheckpoints,
            "recovered-corrupt-checkpoints",
        ),
        (Self::SloLatencyFastBurnPm, "slo-latency-fast-burn-pm"),
        (Self::SloLatencySlowBurnPm, "slo-latency-slow-burn-pm"),
        (Self::SloErrorFastBurnPm, "slo-error-fast-burn-pm"),
        (Self::SloErrorSlowBurnPm, "slo-error-slow-burn-pm"),
    ];

    /// Number of per-server metrics.
    pub const COUNT: usize = Self::TABLE.len();

    /// The stable metric name.
    pub fn name(self) -> &'static str {
        Self::TABLE[self as usize].1
    }

    /// Whether this is a point-in-time gauge rather than a monotone
    /// counter.
    pub fn is_gauge(self) -> bool {
        self as usize >= ServerMetric::QueueDepth as usize
    }
}

/// The SplitMix64 state increment (the golden ratio in 64 bits).
pub const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of a SplitMix64 stream (Steele, Lea & Flood): advances
/// `state` by [`SPLITMIX64_GAMMA`] and returns the mixed output. Tiny,
/// seedable and stable across builds — every seeded schedule in the
/// workspace (fault plans, retry backoff, `Busy` hint jitter, trace ids
/// and keep hashes) draws from this one generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX64_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Fixed-bucket histogram
// ---------------------------------------------------------------------------

/// Exact buckets for 0..=15 µs.
const LINEAR_BUCKETS: usize = 16;
/// Log₂ octaves 2⁴..2³⁶ µs (≈ 19 h), 4 linear sub-buckets each.
const OCTAVES: usize = 32;
const SUB_BUCKETS: usize = 4;
/// Total bucket count.
pub const NUM_BUCKETS: usize = LINEAR_BUCKETS + OCTAVES * SUB_BUCKETS;

/// Bucket index for a microsecond value.
fn bucket_index(us: u64) -> usize {
    if us < LINEAR_BUCKETS as u64 {
        return us as usize;
    }
    let log2 = 63 - us.leading_zeros() as u64; // ≥ 4
    if log2 >= 36 {
        return NUM_BUCKETS - 1;
    }
    let sub = ((us >> (log2 - 2)) & 3) as usize;
    LINEAR_BUCKETS + (log2 as usize - 4) * SUB_BUCKETS + sub
}

/// Representative (midpoint) microsecond value for a bucket index.
fn bucket_value(index: usize) -> u64 {
    if index < LINEAR_BUCKETS {
        return index as u64;
    }
    let octave = 4 + (index - LINEAR_BUCKETS) / SUB_BUCKETS;
    let sub = ((index - LINEAR_BUCKETS) % SUB_BUCKETS) as u64;
    (1u64 << octave) + sub * (1u64 << (octave - 2)) + (1u64 << (octave - 3))
}

/// A wait-free fixed-bucket latency histogram (microseconds).
///
/// Records are three relaxed atomic RMWs plus one `fetch_max`; reads are
/// racy-but-monotone, which is all telemetry needs.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    /// Exemplars: per bucket, the trace id of the last sampled trace
    /// whose measurement landed there (0 = none). Links percentiles in
    /// `stats` output to concrete traces in the ring buffer.
    exemplars: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one microsecond sample.
    pub fn record_us(&self, us: u64) {
        self.record_us_traced(us, 0);
    }

    /// Records one microsecond sample and, when `trace_id` is nonzero,
    /// remembers it as the bucket's exemplar.
    pub fn record_us_traced(&self, us: u64, trace_id: u64) {
        let idx = bucket_index(us);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        if trace_id != 0 {
            self.exemplars[idx].store(trace_id, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Zeroes every bucket and aggregate.
    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        for e in &self.exemplars {
            e.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_us.store(0, Ordering::Relaxed);
        self.max_us.store(0, Ordering::Relaxed);
    }

    /// Aggregates the histogram into a named [`StageSnapshot`].
    pub fn snapshot(&self, name: &str) -> StageSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let max_us = self.max_us.load(Ordering::Relaxed);
        // Percentile value plus that bucket's exemplar trace id.
        let pct = |p: u64| {
            bucket_percentile(&counts, total, p, max_us).map_or((0, 0), |(i, us)| {
                (us, self.exemplars[i].load(Ordering::Relaxed))
            })
        };
        let (p50_us, p50_exemplar) = pct(50);
        let (p95_us, p95_exemplar) = pct(95);
        let (p99_us, p99_exemplar) = pct(99);
        StageSnapshot {
            name: name.to_string(),
            count: total,
            total_us: self.sum_us.load(Ordering::Relaxed),
            max_us,
            p50_us,
            p95_us,
            p99_us,
            p50_exemplar,
            p95_exemplar,
            p99_exemplar,
        }
    }
}

/// Nearest-rank percentile over bucket counts: the index of the bucket
/// holding sample number ⌈p % · total⌉ (`None` when empty) and its
/// midpoint, clamped to `max_us` — a midpoint can lie above the largest
/// sample that landed in its bucket.
pub(crate) fn bucket_percentile(
    counts: &[u64],
    total: u64,
    p: u64,
    max_us: u64,
) -> Option<(usize, u64)> {
    if total == 0 {
        return None;
    }
    let rank = (p * total).div_ceil(100).max(1);
    let mut seen = 0u64;
    let i = counts
        .iter()
        .position(|&c| {
            seen += c;
            seen >= rank
        })
        .unwrap_or(counts.len() - 1);
    Some((i, bucket_value(i).min(max_us)))
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct RegistryInner {
    /// One histogram per histogram layer, indexed by variant.
    stages: [Histogram; Layer::HISTOGRAMS],
    ops: [AtomicU64; Op::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
}

/// The cheap, cloneable telemetry handle: all layer histograms, op
/// counters, and gauges behind one `Arc`.
///
/// Instrumented library code reports through [`global`]; embedders that
/// need isolation (unit tests of the registry itself) can make private
/// registries with [`MetricsRegistry::new`].
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                stages: std::array::from_fn(|_| Histogram::new()),
                ops: std::array::from_fn(|_| AtomicU64::new(0)),
                gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            }),
        }
    }

    /// Records an already-measured duration against `layer`.
    #[inline]
    pub fn record_duration(&self, layer: Layer, elapsed: Duration) {
        self.record_us(layer, elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records a microsecond sample against `layer` (nothing for a layer
    /// that keeps no histogram). When a sampled trace is active on this
    /// thread, its id becomes the landing bucket's exemplar, linking
    /// percentiles to traces.
    #[inline]
    pub fn record_us(&self, layer: Layer, us: u64) {
        #[cfg(not(feature = "noop"))]
        self.record_exemplar(layer, us, trace::current_trace_id());
        #[cfg(feature = "noop")]
        let _ = (layer, us);
    }

    #[cfg(not(feature = "noop"))]
    fn record_exemplar(&self, layer: Layer, us: u64, trace_id: u64) {
        if let Some(h) = self.inner.stages.get(layer as usize) {
            h.record_us_traced(us, trace_id);
        }
    }

    /// Bumps an op counter by one.
    #[inline]
    pub fn incr(&self, op: Op) {
        self.incr_by(op, 1);
    }

    /// Bumps an op counter by `n`. Also attributes the ops to the
    /// thread's active trace (if any), so per-query op counts ride on
    /// trace segments without extra call sites.
    #[inline]
    pub fn incr_by(&self, op: Op, n: u64) {
        #[cfg(not(feature = "noop"))]
        {
            self.inner.ops[op as usize].fetch_add(n, Ordering::Relaxed);
            trace::record_op(op, n);
        }
        #[cfg(feature = "noop")]
        let _ = (op, n);
    }

    /// Current value of an op counter.
    pub fn op_count(&self, op: Op) -> u64 {
        self.inner.ops[op as usize].load(Ordering::Relaxed)
    }

    /// Samples recorded against a layer (0 for a layer that keeps no
    /// histogram).
    pub fn stage_count(&self, layer: Layer) -> u64 {
        self.inner
            .stages
            .get(layer as usize)
            .map_or(0, Histogram::count)
    }

    /// Sets a gauge to its current point-in-time value.
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        self.inner.gauges[gauge as usize].store(value, Ordering::Relaxed);
    }

    /// Current value of a gauge.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.inner.gauges[gauge as usize].load(Ordering::Relaxed)
    }

    /// Zeroes every histogram, counter, and gauge. Meant for loadgen
    /// warmup discard and test isolation; concurrent recorders may land
    /// either side of the reset.
    pub fn reset(&self) {
        for h in &self.inner.stages {
            h.reset();
        }
        for c in &self.inner.ops {
            c.store(0, Ordering::Relaxed);
        }
        for g in &self.inner.gauges {
            g.store(0, Ordering::Relaxed);
        }
    }

    /// Aggregates everything into one [`TelemetrySnapshot`]. Every
    /// histogram layer and op counter appears, including zero-count
    /// ones, so consumers can distinguish "not exercised" from "not
    /// reported".
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            stages: Layer::histograms()
                .map(|l| self.inner.stages[l as usize].snapshot(l.name()))
                .collect(),
            counters: Op::ALL
                .iter()
                .map(|&o| CounterSnapshot::new(o.name(), self.op_count(o)))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| CounterSnapshot::new(g.name(), self.gauge(g)))
                .collect(),
        }
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry every instrumented crate reports into.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Enters `layer` on this thread: the one way code is instrumented.
///
/// When the returned guard drops, the elapsed time lands in the layer's
/// histogram in the [`global`] registry (histogram layers), and the
/// layer's span closes on the thread's trace (traced layers, when a
/// sampled trace was active at entry). The thread's trace slot is read
/// once, at entry. Under the `noop` feature the guard is empty and the
/// call compiles to nothing.
#[inline]
pub fn enter(layer: Layer) -> LayerGuard {
    #[cfg(not(feature = "noop"))]
    {
        let (trace_id, span) = trace::open_span(layer);
        LayerGuard {
            layer,
            start: Instant::now(),
            trace_id,
            span,
        }
    }
    #[cfg(feature = "noop")]
    {
        let _ = layer;
        LayerGuard {}
    }
}

/// One extent of one layer, returned by [`enter`]; records on drop.
#[must_use = "dropping the guard immediately closes the layer"]
pub struct LayerGuard {
    #[cfg(not(feature = "noop"))]
    layer: Layer,
    #[cfg(not(feature = "noop"))]
    start: Instant,
    /// The trace active at entry (0: none), the histogram exemplar.
    #[cfg(not(feature = "noop"))]
    trace_id: u64,
    /// Whether entry opened a span, which the drop closes.
    #[cfg(not(feature = "noop"))]
    span: bool,
}

impl LayerGuard {
    /// Attaches a redacted attribute (closed key set, `u64` value) to
    /// this layer's span; inert when entry opened no span.
    pub fn attr(&self, key: trace::AttrKey, value: u64) {
        #[cfg(not(feature = "noop"))]
        if self.span {
            trace::attr(key, value);
        }
        #[cfg(feature = "noop")]
        let _ = (key, value);
    }
}

impl Drop for LayerGuard {
    fn drop(&mut self) {
        #[cfg(not(feature = "noop"))]
        {
            let us = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            global().record_exemplar(self.layer, us, self.trace_id);
            if self.span {
                trace::close_span();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot types
// ---------------------------------------------------------------------------

/// Aggregated view of one layer histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stable metric name ([`Layer::name`]).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, microseconds.
    pub total_us: u64,
    /// Worst sample, microseconds.
    pub max_us: u64,
    /// Median, microseconds (bucket midpoint clamped to `max_us`,
    /// ≤ 12.5 % error).
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Trace id of the last sampled trace in the p50 bucket (0 = none).
    pub p50_exemplar: u64,
    /// Trace id of the last sampled trace in the p95 bucket (0 = none).
    pub p95_exemplar: u64,
    /// Trace id of the last sampled trace in the p99 bucket (0 = none).
    pub p99_exemplar: u64,
}

impl StageSnapshot {
    /// The JSON value of this stage aggregate.
    pub fn to_json(&self) -> String {
        let mut obj = json::Obj::new();
        obj.field_str("name", &self.name);
        obj.field_u64("count", self.count);
        obj.field_u64("total_us", self.total_us);
        obj.field_u64("max_us", self.max_us);
        obj.field_u64("p50_us", self.p50_us);
        obj.field_u64("p95_us", self.p95_us);
        obj.field_u64("p99_us", self.p99_us);
        obj.field_str("p50_exemplar", &trace::hex_id(self.p50_exemplar));
        obj.field_str("p95_exemplar", &trace::hex_id(self.p95_exemplar));
        obj.field_str("p99_exemplar", &trace::hex_id(self.p99_exemplar));
        obj.finish()
    }
}

/// One named counter or gauge value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Stable metric name.
    pub name: String,
    /// Current value.
    pub value: u64,
}

impl CounterSnapshot {
    /// A named value.
    pub fn new(name: &str, value: u64) -> Self {
        let name = name.to_string();
        CounterSnapshot { name, value }
    }

    /// The JSON value of this counter.
    pub fn to_json(&self) -> String {
        let mut obj = json::Obj::new();
        obj.field_str("name", &self.name);
        obj.field_u64("value", self.value);
        obj.finish()
    }
}

/// The unified telemetry snapshot: every stage histogram aggregate,
/// every monotone counter, every gauge — the payload of the `Stats` wire
/// reply, `--stats-json`, and the `stages`/`counters` sections of
/// `BENCH_server.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Per-stage latency aggregates.
    pub stages: Vec<StageSnapshot>,
    /// Monotone counters (op counters plus embedder counters).
    pub counters: Vec<CounterSnapshot>,
    /// Point-in-time gauges.
    pub gauges: Vec<CounterSnapshot>,
}

/// Decode failure for the binary snapshot encodings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDecodeError(pub &'static str);

impl std::fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot decode: {}", self.0)
    }
}

impl std::error::Error for SnapshotDecodeError {}

/// Hard caps on the wire decoding, so a hostile `StatsReply` cannot make
/// the client allocate unboundedly.
const MAX_WIRE_ENTRIES: usize = 1024;
const MAX_WIRE_NAME: usize = 64;

pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotDecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapshotDecodeError("truncated"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotDecodeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, SnapshotDecodeError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotDecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotDecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn name(&mut self) -> Result<String, SnapshotDecodeError> {
        let len = self.u8()? as usize;
        if len == 0 || len > MAX_WIRE_NAME {
            return Err(SnapshotDecodeError("bad name length"));
        }
        let raw = self.take(len)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|_| SnapshotDecodeError("name not utf-8"))
    }

    pub(crate) fn done(&self) -> Result<(), SnapshotDecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotDecodeError("trailing bytes"))
        }
    }
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    debug_assert!(!bytes.is_empty() && bytes.len() <= MAX_WIRE_NAME);
    out.push(bytes.len().min(MAX_WIRE_NAME) as u8);
    out.extend_from_slice(&bytes[..bytes.len().min(MAX_WIRE_NAME)]);
}

fn put_counters(out: &mut Vec<u8>, entries: &[CounterSnapshot]) {
    out.extend_from_slice(&(entries.len().min(MAX_WIRE_ENTRIES) as u16).to_be_bytes());
    for c in entries.iter().take(MAX_WIRE_ENTRIES) {
        put_name(out, &c.name);
        out.extend_from_slice(&c.value.to_be_bytes());
    }
}

fn get_counters(cur: &mut Cursor<'_>) -> Result<Vec<CounterSnapshot>, SnapshotDecodeError> {
    let n = cur.u16()? as usize;
    if n > MAX_WIRE_ENTRIES {
        return Err(SnapshotDecodeError("too many entries"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(CounterSnapshot {
            name: cur.name()?,
            value: cur.u64()?,
        });
    }
    Ok(out)
}

fn upsert(entries: &mut Vec<CounterSnapshot>, name: &str, value: u64) {
    match entries.iter_mut().find(|c| c.name == name) {
        Some(c) => c.value = value,
        None => entries.push(CounterSnapshot::new(name, value)),
    }
}

impl TelemetrySnapshot {
    /// Looks up a stage aggregate by name.
    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Sample count for a stage, 0 when absent.
    pub fn stage_count(&self, name: &str) -> u64 {
        self.stage(name).map(|s| s.count).unwrap_or(0)
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Appends (or overwrites) a named counter.
    pub fn push_counter(&mut self, name: &str, value: u64) {
        upsert(&mut self.counters, name, value);
    }

    /// Appends (or overwrites) a named gauge.
    pub fn push_gauge(&mut self, name: &str, value: u64) {
        upsert(&mut self.gauges, name, value);
    }

    /// Fills stages that are absent-or-empty here from `other` — used by
    /// loadgen against a *remote* server to overlay client-side stages
    /// onto the server's snapshot without double-counting shared ones.
    pub fn fill_missing_stages_from(&mut self, other: &TelemetrySnapshot) {
        for theirs in &other.stages {
            match self.stages.iter_mut().find(|s| s.name == theirs.name) {
                Some(mine) if mine.count == 0 && theirs.count > 0 => *mine = theirs.clone(),
                Some(_) => {}
                None => self.stages.push(theirs.clone()),
            }
        }
    }

    /// Names from `required` whose stage count is zero or missing.
    pub fn missing_stages(&self, required: &[&str]) -> Vec<String> {
        required
            .iter()
            .filter(|name| self.stage_count(name) == 0)
            .map(|name| name.to_string())
            .collect()
    }

    /// The JSON value of this snapshot (the `--stats-json` /
    /// `BENCH_server.json` encoding). Hand-rolled against the stable
    /// schema so emission never depends on a serde runtime.
    pub fn to_json(&self) -> String {
        let mut obj = json::Obj::new();
        obj.field_raw(
            "stages",
            &json::arr(self.stages.iter().map(|s| s.to_json())),
        );
        obj.field_raw(
            "counters",
            &json::arr(self.counters.iter().map(CounterSnapshot::to_json)),
        );
        obj.field_raw(
            "gauges",
            &json::arr(self.gauges.iter().map(CounterSnapshot::to_json)),
        );
        obj.finish()
    }

    /// Compact binary encoding (the `StatsReply` payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 * self.stages.len() + 24 * self.counters.len());
        out.extend_from_slice(&(self.stages.len().min(MAX_WIRE_ENTRIES) as u16).to_be_bytes());
        for s in self.stages.iter().take(MAX_WIRE_ENTRIES) {
            put_name(&mut out, &s.name);
            for v in [
                s.count,
                s.total_us,
                s.max_us,
                s.p50_us,
                s.p95_us,
                s.p99_us,
                s.p50_exemplar,
                s.p95_exemplar,
                s.p99_exemplar,
            ] {
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        put_counters(&mut out, &self.counters);
        put_counters(&mut out, &self.gauges);
        out
    }

    /// Inverse of [`TelemetrySnapshot::to_bytes`]; rejects truncation,
    /// trailing bytes, oversized tables, and malformed names.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, SnapshotDecodeError> {
        let mut cur = Cursor { buf, pos: 0 };
        let n_stages = cur.u16()? as usize;
        if n_stages > MAX_WIRE_ENTRIES {
            return Err(SnapshotDecodeError("too many entries"));
        }
        let mut stages = Vec::with_capacity(n_stages);
        for _ in 0..n_stages {
            let name = cur.name()?;
            let mut vals = [0u64; 9];
            for v in &mut vals {
                *v = cur.u64()?;
            }
            stages.push(StageSnapshot {
                name,
                count: vals[0],
                total_us: vals[1],
                max_us: vals[2],
                p50_us: vals[3],
                p95_us: vals[4],
                p99_us: vals[5],
                p50_exemplar: vals[6],
                p95_exemplar: vals[7],
                p99_exemplar: vals[8],
            });
        }
        let counters = get_counters(&mut cur)?;
        let gauges = get_counters(&mut cur)?;
        cur.done()?;
        Ok(TelemetrySnapshot {
            stages,
            counters,
            gauges,
        })
    }
}

// ---------------------------------------------------------------------------
// Health snapshot (the Pong payload)
// ---------------------------------------------------------------------------

/// The compact health probe the server returns in `Pong`: live load
/// gauges plus the admission-control counters, fixed-width on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Jobs queued behind the worker pool.
    pub queue_depth: u32,
    /// Queries currently being evaluated.
    pub inflight: u32,
    /// Live worker threads.
    pub live_workers: u32,
    /// Live sessions in the registry.
    pub sessions: u32,
    /// Worker panics since start.
    pub worker_panics: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Successfully answered queries.
    pub queries_ok: u64,
    /// Sessions evicted idle.
    pub sessions_evicted: u64,
    /// Sessions refused (table full).
    pub sessions_rejected: u64,
    /// Protocol violations counted by the validation gate.
    pub violations: u64,
    /// Requests shed by the per-connection rate limiter.
    pub rate_limited: u64,
    /// Connections dropped after exhausting their strike budget.
    pub strike_disconnects: u64,
    /// Slowloris connections reaped by the read deadline.
    pub slow_reaped: u64,
    /// Undecodable frames dropped at the transport.
    pub frame_garbage: u64,
    /// Latency-SLO burn rate over the fast window, in permille of the
    /// error budget (1000 = burning exactly the budget; 0 when no SLO
    /// is configured or the window is empty).
    pub slo_latency_fast_burn_pm: u32,
    /// Latency-SLO burn rate over the slow window, permille of budget.
    pub slo_latency_slow_burn_pm: u32,
    /// Error-rate-SLO burn rate over the fast window, permille of budget.
    pub slo_error_fast_burn_pm: u32,
    /// Error-rate-SLO burn rate over the slow window, permille of budget.
    pub slo_error_slow_burn_pm: u32,
}

/// Wire width in bytes of each [`HealthSnapshot::fields`] entry: the
/// load gauges and burn rates are `u32`, the counters and uptime `u64`.
const HEALTH_FIELD_WIDTHS: [usize; 18] = [4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 4, 4, 4, 4];

/// Encoded size of a [`HealthSnapshot`].
pub const HEALTH_SNAPSHOT_BYTES: usize = 4 * 4 + 8 * 10 + 4 * 4;

impl HealthSnapshot {
    /// Builds the probe from one server's metric values, read through
    /// the [`ServerMetric`] table (load gauges saturate at `u32::MAX`).
    pub fn from_metrics(value: impl Fn(ServerMetric) -> u64) -> Self {
        use ServerMetric as M;
        let narrow = |m| value(m).min(u64::from(u32::MAX)) as u32;
        HealthSnapshot {
            queue_depth: narrow(M::QueueDepth),
            inflight: narrow(M::Inflight),
            live_workers: narrow(M::LiveWorkers),
            sessions: narrow(M::Sessions),
            worker_panics: value(M::WorkerPanics),
            uptime_ms: value(M::UptimeMs),
            queries_ok: value(M::QueriesOk),
            sessions_evicted: value(M::SessionsEvicted),
            sessions_rejected: value(M::SessionsRejected),
            violations: value(M::Violations),
            rate_limited: value(M::RateLimited),
            strike_disconnects: value(M::StrikeDisconnects),
            slow_reaped: value(M::SlowReaped),
            frame_garbage: value(M::FrameGarbage),
            slo_latency_fast_burn_pm: narrow(M::SloLatencyFastBurnPm),
            slo_latency_slow_burn_pm: narrow(M::SloLatencySlowBurnPm),
            slo_error_fast_burn_pm: narrow(M::SloErrorFastBurnPm),
            slo_error_slow_burn_pm: narrow(M::SloErrorSlowBurnPm),
        }
    }

    /// Every field with the metric it carries, in wire order.
    pub fn fields(&self) -> [(ServerMetric, u64); 18] {
        use ServerMetric as M;
        let wide = |v: u32| u64::from(v);
        [
            (M::QueueDepth, wide(self.queue_depth)),
            (M::Inflight, wide(self.inflight)),
            (M::LiveWorkers, wide(self.live_workers)),
            (M::Sessions, wide(self.sessions)),
            (M::WorkerPanics, self.worker_panics),
            (M::UptimeMs, self.uptime_ms),
            (M::QueriesOk, self.queries_ok),
            (M::SessionsEvicted, self.sessions_evicted),
            (M::SessionsRejected, self.sessions_rejected),
            (M::Violations, self.violations),
            (M::RateLimited, self.rate_limited),
            (M::StrikeDisconnects, self.strike_disconnects),
            (M::SlowReaped, self.slow_reaped),
            (M::FrameGarbage, self.frame_garbage),
            (M::SloLatencyFastBurnPm, wide(self.slo_latency_fast_burn_pm)),
            (M::SloLatencySlowBurnPm, wide(self.slo_latency_slow_burn_pm)),
            (M::SloErrorFastBurnPm, wide(self.slo_error_fast_burn_pm)),
            (M::SloErrorSlowBurnPm, wide(self.slo_error_slow_burn_pm)),
        ]
    }

    /// Fixed-width big-endian encoding (112 bytes): [`Self::fields`]
    /// in order, each [`HEALTH_FIELD_WIDTHS`] bytes wide.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEALTH_SNAPSHOT_BYTES);
        for ((_, value), width) in self.fields().into_iter().zip(HEALTH_FIELD_WIDTHS) {
            out.extend_from_slice(&value.to_be_bytes()[8 - width..]);
        }
        out
    }

    /// Inverse of [`HealthSnapshot::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self, SnapshotDecodeError> {
        let mut cur = Cursor { buf, pos: 0 };
        let mut values = [0u64; ServerMetric::COUNT];
        let layout = HealthSnapshot::default().fields();
        for ((metric, _), width) in layout.into_iter().zip(HEALTH_FIELD_WIDTHS) {
            values[metric as usize] = match width {
                4 => u64::from(cur.u32()?),
                _ => cur.u64()?,
            };
        }
        cur.done()?;
        Ok(HealthSnapshot::from_metrics(|metric| {
            values[metric as usize]
        }))
    }

    /// The JSON value of this probe — the `/healthz` body, keyed by the
    /// snake_case metric names. Integer-only by construction (the
    /// closed-enum redaction argument in DESIGN.md §18 relies on every
    /// export face being float-free).
    pub fn to_json(&self) -> String {
        let mut obj = json::Obj::new();
        for (metric, value) in self.fields() {
            obj.field_u64(&metric.name().replace('-', "_"), value);
        }
        obj.finish()
    }
}

// ---------------------------------------------------------------------------
// Raw-sample aggregation (formerly ppgnn-server::metrics)
// ---------------------------------------------------------------------------

/// Aggregated latency/throughput figures over one run of raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Completed queries.
    pub count: usize,
    /// Queries per second over the wall-clock window.
    pub throughput_qps: f64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: u64,
    /// Worst latency, microseconds.
    pub max_us: u64,
}

impl LatencySummary {
    /// The JSON value of this summary.
    pub fn to_json(&self) -> String {
        let mut obj = json::Obj::new();
        obj.field_u64("count", self.count as u64);
        obj.field_f64("throughput_qps", self.throughput_qps);
        obj.field_u64("p50_us", self.p50_us);
        obj.field_u64("p95_us", self.p95_us);
        obj.field_u64("p99_us", self.p99_us);
        obj.field_u64("mean_us", self.mean_us);
        obj.field_u64("max_us", self.max_us);
        obj.finish()
    }
}

/// Nearest-rank percentile over a sorted sample set.
pub fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    debug_assert!((0.0..=100.0).contains(&p));
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// Summarizes raw per-query latencies over a wall-clock window.
pub fn summarize(mut samples_us: Vec<u64>, elapsed: Duration) -> LatencySummary {
    samples_us.sort_unstable();
    let count = samples_us.len();
    let sum: u64 = samples_us.iter().sum();
    LatencySummary {
        count,
        throughput_qps: if elapsed.as_secs_f64() > 0.0 {
            count as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        p50_us: percentile(&samples_us, 50.0),
        p95_us: percentile(&samples_us, 95.0),
        p99_us: percentile(&samples_us, 99.0),
        mean_us: if count > 0 { sum / count as u64 } else { 0 },
        max_us: samples_us.last().copied().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        for us in 0..100_000u64 {
            let i = bucket_index(us);
            assert!(i < NUM_BUCKETS);
            assert!(i >= last, "bucket index regressed at {us}");
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_value_lands_in_own_bucket() {
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_value(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for us in [20u64, 100, 999, 5_000, 123_456, 9_999_999] {
            let mid = bucket_value(bucket_index(us));
            let err = (mid as f64 - us as f64).abs() / us as f64;
            assert!(err <= 0.125 + 1e-9, "us={us} mid={mid} err={err}");
        }
    }

    #[test]
    fn histogram_exact_in_linear_range() {
        let h = Histogram::new();
        for us in [1u64, 2, 2, 3, 15] {
            h.record_us(us);
        }
        let s = h.snapshot("test");
        assert_eq!(s.count, 5);
        assert_eq!(s.p50_us, 2);
        assert_eq!(s.max_us, 15);
        assert_eq!(s.total_us, 23);
    }

    #[test]
    fn percentiles_never_exceed_the_recorded_max() {
        // 1067 µs lands in the [1024, 1280) bucket, whose midpoint is
        // 1152 µs: unclamped, every percentile would read above max.
        let h = Histogram::new();
        h.record_us(1067);
        let s = h.snapshot("wal-append");
        assert_eq!(s.max_us, 1067);
        for p in [s.p50_us, s.p95_us, s.p99_us] {
            assert!(p <= s.max_us, "percentile {p} above max {}", s.max_us);
        }
        assert_eq!(s.p99_us, 1067);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn registry_records_and_snapshots() {
        let reg = MetricsRegistry::new();
        reg.record_us(Layer::Validate, 100);
        reg.record_us(Layer::Validate, 200);
        reg.incr(Op::PaillierDot);
        reg.incr_by(Op::PaillierAdd, 5);
        reg.set_gauge(Gauge::PoolDepth, 3);
        let snap = reg.snapshot();
        assert_eq!(snap.stage_count("validate"), 2);
        assert_eq!(snap.stage_count("sanitation"), 0);
        assert_eq!(snap.counter("paillier-dot-ops"), Some(1));
        assert_eq!(snap.counter("paillier-add-ops"), Some(5));
        assert_eq!(snap.gauge("pool-depth"), Some(3));
        assert_eq!(snap.stages.len(), Layer::HISTOGRAMS);
        reg.reset();
        assert_eq!(reg.snapshot().stage_count("validate"), 0);
        assert_eq!(reg.op_count(Op::PaillierAdd), 0);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn guard_records_its_histogram_on_drop() {
        // No other test in this crate enters `checkpoint` or records
        // into the global registry's `checkpoint` histogram.
        let before = global().stage_count(Layer::Checkpoint);
        {
            let _g = enter(Layer::Checkpoint);
            assert_eq!(global().stage_count(Layer::Checkpoint), before);
        }
        assert_eq!(global().stage_count(Layer::Checkpoint), before + 1);
        // A span-only layer keeps no histogram: entering it records
        // nothing, and neither does a direct sample.
        drop(enter(Layer::SanitationPrefix));
        global().record_us(Layer::ServerQuery, 5);
        assert_eq!(global().stage_count(Layer::SanitationPrefix), 0);
        assert_eq!(global().stage_count(Layer::ServerQuery), 0);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn registry_is_thread_safe() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = reg.clone();
                s.spawn(move || {
                    for i in 0..1_000 {
                        reg.record_us(Layer::PaillierDot, i);
                        reg.incr(Op::PaillierDot);
                    }
                });
            }
        });
        assert_eq!(reg.stage_count(Layer::PaillierDot), 4_000);
        assert_eq!(reg.op_count(Op::PaillierDot), 4_000);
    }

    /// Pins the one layer table: every histogram name and order (the
    /// `Stats`, `--stats-json`, `BENCH_server.json` and `/metrics`
    /// faces) and every span wire tag (`TraceReply`).
    #[test]
    fn layer_table_is_golden() {
        for (i, (layer, name, histogram, tag)) in Layer::TABLE.into_iter().enumerate() {
            assert_eq!(layer as usize, i, "{name} is out of place");
            assert_eq!(
                (layer.name(), layer.keeps_histogram(), layer.tag()),
                (name, histogram, tag)
            );
            assert_eq!(histogram, i < Layer::HISTOGRAMS, "{name}");
        }
        let report_order = "client-plan client-encode wire-encode wire-decode validate \
            candidate-eval paillier-encrypt paillier-decrypt paillier-dot private-selection \
            sanitation end-to-end serve-query index-mutate invalidate-scan fanout-notify \
            wal-append checkpoint recover-replay shape-pad latency-hold";
        let histograms: Vec<&str> = Layer::histograms().map(Layer::name).collect();
        assert_eq!(
            histograms,
            report_order.split_whitespace().collect::<Vec<_>>()
        );
        // Span tags 1..=20 in order; no other tag names a layer (the
        // decoder refuses them: `trace::tests::decode_refuses_unassigned_tags`).
        let tag_order = "client-query client-plan client-encode wire-encode wire-decode \
            server-query validate candidate-eval paillier-encrypt paillier-decrypt \
            paillier-dot private-selection sanitation sanitation-prefix index-mutate \
            invalidate-scan fanout-notify wal-append checkpoint recover-replay";
        let spans: Vec<&str> = (0..=u8::MAX)
            .filter_map(|tag| Layer::from_tag(tag).map(Layer::name))
            .collect();
        assert_eq!(spans, tag_order.split_whitespace().collect::<Vec<_>>());
        for (i, name) in spans.iter().enumerate() {
            assert_eq!(Layer::from_tag(i as u8 + 1).map(Layer::name), Some(*name));
        }
        // Layer names never collide with the op counters or per-server
        // metrics that share a snapshot with them.
        for (layer, name, _, _) in Layer::TABLE {
            assert!(Op::ALL.iter().all(|o| o.name() != name), "{layer:?}");
            assert!(ServerMetric::TABLE.iter().all(|m| m.1 != name), "{layer:?}");
            assert!(Gauge::ALL.iter().all(|g| g.name() != name), "{layer:?}");
        }
    }

    #[test]
    fn snapshot_binary_round_trip() {
        let reg = MetricsRegistry::new();
        reg.record_us(Layer::EndToEnd, 12_345);
        reg.incr_by(Op::PaillierScalarMul, 7);
        let mut snap = reg.snapshot();
        snap.push_counter(ServerMetric::QueriesOk.name(), 42);
        snap.push_gauge(ServerMetric::QueueDepth.name(), 9);
        let bytes = snap.to_bytes();
        let back = TelemetrySnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_json_has_stable_schema() {
        let mut snap = MetricsRegistry::new().snapshot();
        snap.push_counter("accepted", 17);
        let json = snap.to_json();
        assert!(json.starts_with(r#"{"stages":["#));
        for layer in Layer::histograms() {
            assert!(json.contains(&format!(r#""name":"{}""#, layer.name())));
        }
        assert!(json.contains(r#"{"name":"accepted","value":17}"#));
        assert!(json.contains(r#""gauges":["#));
        assert!(json.contains(r#""p99_us":"#));
    }

    #[test]
    fn snapshot_decode_rejects_garbage() {
        let snap = MetricsRegistry::new().snapshot();
        let bytes = snap.to_bytes();
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(TelemetrySnapshot::from_bytes(&bytes[..cut]).is_err());
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(TelemetrySnapshot::from_bytes(&padded).is_err());
        assert!(TelemetrySnapshot::from_bytes(&[0xff; 4]).is_err());
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn fill_missing_overlays_only_empty_stages() {
        let local = MetricsRegistry::new();
        local.record_us(Layer::ClientPlan, 10);
        let remote = MetricsRegistry::new();
        remote.record_us(Layer::Validate, 20);
        remote.record_us(Layer::ClientPlan, 999);
        let mut merged = remote.snapshot();
        merged.fill_missing_stages_from(&local.snapshot());
        // Remote's validate kept, remote's client-plan NOT overwritten.
        assert_eq!(merged.stage_count("validate"), 1);
        assert_eq!(merged.stage("client-plan").unwrap().max_us, 999);
        assert_eq!(
            merged.missing_stages(&["validate", "sanitation"]),
            vec!["sanitation".to_string()]
        );
    }

    #[test]
    fn server_metric_table_is_indexed_by_variant() {
        for (i, (metric, name)) in ServerMetric::TABLE.into_iter().enumerate() {
            assert_eq!(metric as usize, i, "{name} is out of place");
            assert_eq!(metric.name(), name);
            assert_eq!(metric.is_gauge(), i >= ServerMetric::QueueDepth as usize);
        }
        // Op and process-gauge names never collide with the per-server
        // names that share a snapshot with them (layers: see the layer
        // table's golden test).
        for (_, name) in ServerMetric::TABLE {
            assert!(Op::ALL.iter().all(|o| o.name() != name));
            assert!(Gauge::ALL.iter().all(|g| g.name() != name));
        }
    }

    #[test]
    fn health_snapshot_round_trips_the_metrics_it_is_built_from() {
        let h = HealthSnapshot::from_metrics(|m| m as u64 + 1);
        for (metric, value) in h.fields() {
            assert_eq!(value, metric as u64 + 1, "{}", metric.name());
        }
        let bytes = h.encode();
        assert_eq!(bytes.len(), HEALTH_SNAPSHOT_BYTES);
        assert_eq!(
            HEALTH_FIELD_WIDTHS.iter().sum::<usize>(),
            HEALTH_SNAPSHOT_BYTES
        );
        // The first field is a u32 gauge, the fifth a u64 counter.
        assert_eq!(
            bytes[..4],
            (ServerMetric::QueueDepth as u32 + 1).to_be_bytes()
        );
        let panics = ServerMetric::WorkerPanics as u64 + 1;
        assert_eq!(bytes[16..24], panics.to_be_bytes());
        assert_eq!(HealthSnapshot::decode(&bytes).unwrap(), h);
        assert!(HealthSnapshot::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(HealthSnapshot::decode(&padded).is_err());
        let json = h.to_json();
        assert!(json.starts_with(r#"{"queue_depth":"#), "{json}");
        assert!(json.contains(r#""slo_error_slow_burn_pm":"#), "{json}");
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        let mut state = 0u64;
        assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut state), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(state, SPLITMIX64_GAMMA.wrapping_mul(2));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 95.0), 95);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[42], 99.0), 42);
    }

    #[test]
    fn summary_over_window() {
        let s = summarize(vec![300, 100, 200, 400], Duration::from_secs(2));
        assert_eq!(s.count, 4);
        assert_eq!(s.p50_us, 200);
        assert_eq!(s.max_us, 400);
        assert_eq!(s.mean_us, 250);
        assert!((s.throughput_qps - 2.0).abs() < 1e-9);
    }

    #[cfg(feature = "noop")]
    #[test]
    fn noop_records_nothing() {
        let reg = MetricsRegistry::new();
        reg.record_us(Layer::Validate, 100);
        reg.incr(Op::PaillierDot);
        {
            let _g = enter(Layer::Validate);
        }
        assert_eq!(reg.stage_count(Layer::Validate), 0);
        assert_eq!(global().stage_count(Layer::Validate), 0);
        assert_eq!(reg.op_count(Op::PaillierDot), 0);
        // Snapshots stay well-formed: every layer present, all zero.
        assert_eq!(reg.snapshot().stages.len(), Layer::HISTOGRAMS);
    }
}
