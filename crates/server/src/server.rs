//! The networked LSP: TCP acceptor, bounded worker pool, backpressure,
//! deadlines, supervision, and graceful drain.
//!
//! Threading model:
//!
//! * one **acceptor** thread polls a non-blocking listener and spawns a
//!   connection thread per socket, refusing (with a `Busy` frame) past
//!   `max_connections`;
//! * each **connection** thread parses frames, resolves the group's
//!   [`SessionParams`] from the registry, decodes the wire messages, and
//!   enqueues a job on a bounded channel — a full queue sheds the
//!   request with `Busy` instead of queueing unboundedly;
//! * a fixed pool of **worker** threads shares one `Arc<Lsp>` (the
//!   engine is `Send + Sync`), drops jobs whose deadline expired while
//!   queued, and replies through a per-request channel. A panic inside
//!   the engine is caught per request: the client gets a typed
//!   `Internal` error, and the worker then exits (its state is suspect
//!   after an unwind) for the supervisor to replace;
//! * a **supervisor** thread watches the pool and respawns any worker
//!   that died, so a poison-pill query degrades one request, not the
//!   service.
//!
//! Retried queries are idempotent: each session keeps a bounded answer
//! cache keyed by request ID, and a request the server already answered
//! is replayed byte-identically without touching the engine or the
//! query counter (see [`SessionRegistry::record_answer`]).
//!
//! When [`ServerConfig::fault`] is set, every accepted connection is
//! wrapped in a [`FaultyStream`] with a seed-derived schedule — the
//! chaos harness used by `tests/server_chaos.rs` and `loadgen
//! --chaos-*`.
//!
//! Shutdown: the flag stops the acceptor and makes connection threads
//! say `Goodbye` at their next idle poll; requests already enqueued are
//! still processed and answered (the workers drain the channel before
//! exiting), so no accepted query is lost.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppgnn_core::messages::{AnswerMessage, LocationSetMessage, QueryMessage};
use ppgnn_core::{expand_candidates, DynamicLsp, Lsp, PpgnnConfig};
use ppgnn_geo::{Poi, PoiOp, Rect};
use ppgnn_sim::CostLedger;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ppgnn_telemetry::trace::{self, TraceHandle};
use ppgnn_telemetry::window::WindowedSnapshot;
use ppgnn_telemetry::{
    self as telemetry, splitmix64, HealthSnapshot, Layer, ServerMetric, TelemetrySnapshot,
    SPLITMIX64_GAMMA,
};

use crate::error::{ErrorCode, ServerError};
use crate::fault::{FaultConfig, FaultyStream, Transport};
use crate::frame::{
    read_frame_with_lead, write_frame, write_frame_padded, AnswerPayload, BusyPayload,
    ErrorPayload, FrameType, HelloAckPayload, HelloPayload, PoiUpdateAckPayload, PoiUpdatePayload,
    PongPayload, QueryPayload, StatsReplyPayload, SubscriptionKind, SubscriptionUpdatePayload,
    TraceReplyPayload, UnsubscribePayload, DEFAULT_MAX_PAYLOAD,
};
use crate::metrics::{self, Observability, SloConfig};
use crate::registry::{RegistryLimits, SessionParams, SessionRegistry};
use crate::shape::{Lane, ShapePolicy};
use crate::subscription::{compute_regions, Outbox, Subscription, SubscriptionRegistry};
use crate::validate::{
    validate_hello, validate_query, validate_set_count, HelloPolicy, ProtocolViolation, TokenBucket,
};
use crate::wal::{self, DurabilityConfig, Wal};

/// How often an idle connection thread checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);
/// Suggested client backoff carried in `Busy` frames — the *center* of
/// the jittered hint: each shed draws a seeded value in ±25% of this,
/// so a thundering herd of synchronized clients fans out instead of
/// retrying in lockstep (clients honor the hint as a backoff floor).
const RETRY_AFTER_MS: u32 = 50;
/// Grace added to a request deadline while waiting for the worker reply.
const REPLY_GRACE: Duration = Duration::from_secs(5);
/// How often the supervisor sweeps the pool for dead workers.
const SUPERVISOR_SWEEP: Duration = Duration::from_millis(50);

/// Tunables for [`serve_world`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads processing queries.
    pub workers: usize,
    /// Accepted connections at once; more are refused with `Busy`.
    pub max_connections: usize,
    /// Bounded depth of the job queue — the max in-flight backpressure
    /// limit; a full queue sheds with `Busy`.
    pub queue_depth: usize,
    /// Deadline applied when a query carries `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// Largest accepted frame payload.
    pub max_payload: usize,
    /// Seed for the workers' randomizer RNGs.
    pub rng_seed: u64,
    /// Whole-frame read deadline: once a frame's first byte arrives,
    /// the *entire* frame must be in within this window. Enforced by
    /// re-arming a shrinking socket timeout on every partial read, so
    /// a slowloris peer dribbling one byte per poll interval cannot
    /// hold the connection open indefinitely.
    pub frame_read_timeout: Duration,
    /// Per-write socket deadline; a peer that never drains its side
    /// loses the connection instead of wedging a connection thread.
    pub write_timeout: Duration,
    /// Most sessions held in the registry at once; `Hello`s past the
    /// cap (after idle eviction) are refused with `QuotaExceeded`.
    pub max_sessions: usize,
    /// Sessions idle longer than this are evicted.
    pub session_idle_ttl: Duration,
    /// Handshake policy floors (minimum δ and key size).
    pub hello_policy: HelloPolicy,
    /// Token-bucket burst per connection (Hello/Query frames).
    pub rate_limit_burst: u32,
    /// Token-bucket refill rate per connection; 0 disables limiting.
    pub rate_limit_per_sec: f64,
    /// Violations (per session or per connection, whichever is higher)
    /// tolerated before the connection is dropped.
    pub max_strikes: u32,
    /// Fault-injection schedule wrapped around every accepted
    /// connection; `None` (the default) serves on the bare socket.
    pub fault: Option<FaultConfig>,
    /// Shared-secret token that unlocks the `PoiUpdate` admin lane;
    /// `None` (the default) disables the lane entirely — every
    /// mutation attempt is a typed violation.
    pub admin_token: Option<u64>,
    /// Standing-query registry cap: each subscription costs an
    /// invalidation scan per mutation, so the table is bounded. 0
    /// refuses every `Subscribe`.
    pub max_subscriptions: usize,
    /// Durability for the live world: `Some` makes a
    /// [`WorldSeed::Durable`] deployment write-ahead-log every admitted
    /// `PoiUpdate` batch and checkpoint periodically; `None` (the
    /// default) keeps the world in-memory only. [`serve_world`]
    /// requires the seed and this knob to agree.
    pub durability: Option<DurabilityConfig>,
    /// Response-shape policy (DESIGN.md §16): off (the default) sends
    /// responses as-is; padded stretches every `Answer`/`Busy`/`Error`/
    /// `SubscriptionUpdate` frame to a policy-wide constant size and
    /// releases responses only on latency-quantum boundaries.
    pub shape: ShapePolicy,
    /// Per-query crypto parallelism — threads fanning out candidate
    /// evaluation and private-selection rows (DESIGN.md §17). Applied
    /// to worlds the server builds itself ([`WorldSeed::Durable`]);
    /// in-memory seeds carry their own tuning on the `Lsp` /
    /// `DynamicLsp` they wrap. Peak thread demand is
    /// `workers × selection_parallelism`, so size it against the
    /// worker budget.
    pub selection_parallelism: usize,
    /// Route private selection through the naive per-entry modpow path
    /// instead of Straus multi-exponentiation (A/B benchmarking only;
    /// both paths are bit-identical). Scoped like
    /// [`ServerConfig::selection_parallelism`].
    pub naive_crypto: bool,
    /// Address for the operator metrics listener (`GET /metrics`
    /// OpenMetrics text, `GET /healthz` health JSON); `None` (the
    /// default) binds no second socket. Kept separate from the query
    /// port so scrapers never share a lane with clients and the
    /// endpoint can be firewalled independently.
    pub metrics_addr: Option<String>,
    /// Service-level objectives; `Some` turns on the four burn-rate
    /// fields in every `Pong` health snapshot, the `slo-*` gauges in
    /// `Stats`, and the `ppgnn_slo_burn_permille` scrape family.
    /// `None` (the default) reports zero burn everywhere.
    pub slo: Option<SloConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_connections: 64,
            queue_depth: 32,
            default_deadline: Duration::from_secs(30),
            max_payload: DEFAULT_MAX_PAYLOAD,
            rng_seed: 0x5eed_cafe,
            frame_read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_sessions: 1024,
            session_idle_ttl: Duration::from_secs(15 * 60),
            hello_policy: HelloPolicy::default(),
            rate_limit_burst: 256,
            rate_limit_per_sec: 128.0,
            max_strikes: 8,
            fault: None,
            admin_token: None,
            max_subscriptions: 64,
            durability: None,
            shape: ShapePolicy::off(),
            selection_parallelism: 1,
            naive_crypto: false,
            metrics_addr: None,
            slo: None,
        }
    }
}

impl ServerConfig {
    /// Starts a validated [`ServerConfigBuilder`] seeded with the
    /// defaults. Prefer this over mutating fields directly when the
    /// values come from user input (CLI flags, config files): `build()`
    /// rejects configurations `serve` would otherwise silently clamp or
    /// choke on.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }
}

/// A [`ServerConfigBuilder`] rejected an inconsistent configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid server config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`ServerConfig`] that validates the knobs as a set.
///
/// Every setter mirrors a [`ServerConfig`] field; [`build`] checks the
/// combination — zero-sized pools, a payload cap smaller than a frame
/// header, a rate limiter with refill but no burst — and returns a
/// [`ConfigError`] naming the first offending knob instead of letting
/// the server run degenerate.
///
/// [`build`]: ServerConfigBuilder::build
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Worker threads processing queries.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Accepted connections at once.
    pub fn max_connections(mut self, max_connections: usize) -> Self {
        self.config.max_connections = max_connections;
        self
    }

    /// Bounded depth of the job queue.
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.config.queue_depth = queue_depth;
        self
    }

    /// Deadline applied when a query carries `deadline_ms == 0`.
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.config.default_deadline = deadline;
        self
    }

    /// Largest accepted frame payload.
    pub fn max_payload(mut self, max_payload: usize) -> Self {
        self.config.max_payload = max_payload;
        self
    }

    /// Seed for the workers' randomizer RNGs.
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.config.rng_seed = seed;
        self
    }

    /// Whole-frame read deadline.
    pub fn frame_read_timeout(mut self, timeout: Duration) -> Self {
        self.config.frame_read_timeout = timeout;
        self
    }

    /// Per-write socket deadline.
    pub fn write_timeout(mut self, timeout: Duration) -> Self {
        self.config.write_timeout = timeout;
        self
    }

    /// Most sessions held in the registry at once.
    pub fn max_sessions(mut self, max_sessions: usize) -> Self {
        self.config.max_sessions = max_sessions;
        self
    }

    /// Idle TTL after which sessions are evicted.
    pub fn session_idle_ttl(mut self, ttl: Duration) -> Self {
        self.config.session_idle_ttl = ttl;
        self
    }

    /// Handshake policy floors.
    pub fn hello_policy(mut self, policy: HelloPolicy) -> Self {
        self.config.hello_policy = policy;
        self
    }

    /// Token-bucket burst per connection.
    pub fn rate_limit_burst(mut self, burst: u32) -> Self {
        self.config.rate_limit_burst = burst;
        self
    }

    /// Token-bucket refill rate per connection; 0 disables limiting.
    pub fn rate_limit_per_sec(mut self, per_sec: f64) -> Self {
        self.config.rate_limit_per_sec = per_sec;
        self
    }

    /// Strikes tolerated before a disconnect.
    pub fn max_strikes(mut self, strikes: u32) -> Self {
        self.config.max_strikes = strikes;
        self
    }

    /// Fault-injection schedule for chaos runs.
    pub fn fault(mut self, fault: Option<FaultConfig>) -> Self {
        self.config.fault = fault;
        self
    }

    /// Admin token unlocking the `PoiUpdate` lane; `None` disables it.
    pub fn admin_token(mut self, token: Option<u64>) -> Self {
        self.config.admin_token = token;
        self
    }

    /// Standing-query registry cap; 0 refuses every `Subscribe`.
    pub fn max_subscriptions(mut self, cap: usize) -> Self {
        self.config.max_subscriptions = cap;
        self
    }

    /// Durability config for [`WorldSeed::Durable`]; `None` disables it.
    pub fn durability(mut self, durability: Option<DurabilityConfig>) -> Self {
        self.config.durability = durability;
        self
    }

    /// Response-shape policy; [`ShapePolicy::off`] disables shaping.
    pub fn shape(mut self, shape: ShapePolicy) -> Self {
        self.config.shape = shape;
        self
    }

    /// Per-query crypto parallelism for server-built worlds.
    pub fn selection_parallelism(mut self, threads: usize) -> Self {
        self.config.selection_parallelism = threads;
        self
    }

    /// Forces the naive selection path (A/B benchmarking only).
    pub fn naive_crypto(mut self, naive: bool) -> Self {
        self.config.naive_crypto = naive;
        self
    }

    /// Metrics listener address; `None` binds no second socket.
    pub fn metrics_addr(mut self, addr: Option<String>) -> Self {
        self.config.metrics_addr = addr;
        self
    }

    /// Service-level objectives; `None` reports zero burn everywhere.
    pub fn slo(mut self, slo: Option<SloConfig>) -> Self {
        self.config.slo = slo;
        self
    }

    /// Validates the combination and returns the config, or a
    /// [`ConfigError`] naming the first bad knob.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        let c = &self.config;
        if c.workers == 0 {
            return Err(ConfigError("workers must be at least 1".into()));
        }
        if c.max_connections == 0 {
            return Err(ConfigError(
                "max_connections of 0 would refuse every client".into(),
            ));
        }
        if c.queue_depth == 0 {
            return Err(ConfigError("queue_depth must be at least 1".into()));
        }
        if c.default_deadline.is_zero() {
            return Err(ConfigError(
                "default_deadline of 0 expires every unstamped query immediately".into(),
            ));
        }
        if c.max_payload < 64 {
            return Err(ConfigError(format!(
                "max_payload of {} bytes cannot carry even a handshake frame",
                c.max_payload
            )));
        }
        if c.frame_read_timeout.is_zero() || c.write_timeout.is_zero() {
            return Err(ConfigError(
                "frame_read_timeout and write_timeout must be non-zero".into(),
            ));
        }
        if c.max_sessions == 0 {
            return Err(ConfigError(
                "max_sessions of 0 would reject every Hello".into(),
            ));
        }
        if c.session_idle_ttl.is_zero() {
            return Err(ConfigError(
                "session_idle_ttl of 0 evicts sessions before their first query".into(),
            ));
        }
        if !c.rate_limit_per_sec.is_finite() || c.rate_limit_per_sec < 0.0 {
            return Err(ConfigError(format!(
                "rate_limit_per_sec of {} is not a valid refill rate",
                c.rate_limit_per_sec
            )));
        }
        if c.rate_limit_per_sec > 0.0 && c.rate_limit_burst == 0 {
            return Err(ConfigError(
                "rate limiting enabled (rate_limit_per_sec > 0) with a zero \
                 rate_limit_burst would shed every frame"
                    .into(),
            ));
        }
        if c.max_strikes == 0 {
            return Err(ConfigError(
                "max_strikes must be at least 1 (one violation always counts)".into(),
            ));
        }
        if let Some(d) = &c.durability {
            if d.checkpoint_every_ops == 0 {
                return Err(ConfigError(
                    "durability.checkpoint_every_ops must be at least 1".into(),
                ));
            }
        }
        if c.selection_parallelism == 0 {
            return Err(ConfigError(
                "selection_parallelism must be at least 1 (1 = sequential)".into(),
            ));
        }
        if let Some(slo) = &c.slo {
            if slo.latency_target_us == 0 {
                return Err(ConfigError(
                    "slo.latency_target_us of 0 counts every query as a violation".into(),
                ));
            }
            if slo.latency_budget_ppm == 0 || slo.latency_budget_ppm > 1_000_000 {
                return Err(ConfigError(format!(
                    "slo.latency_budget_ppm of {} is not a fraction in (0, 1_000_000]",
                    slo.latency_budget_ppm
                )));
            }
            if slo.error_budget_ppm == 0 || slo.error_budget_ppm > 1_000_000 {
                return Err(ConfigError(format!(
                    "slo.error_budget_ppm of {} is not a fraction in (0, 1_000_000]",
                    slo.error_budget_ppm
                )));
            }
            if slo.fast_window.is_zero() || slo.fast_window > slo.slow_window {
                return Err(ConfigError(
                    "slo.fast_window must be non-zero and no longer than slo.slow_window".into(),
                ));
            }
            let ring_span = ppgnn_telemetry::window::DEFAULT_INTERVAL
                * ppgnn_telemetry::window::DEFAULT_CAPACITY as u32;
            if slo.slow_window > ring_span {
                return Err(ConfigError(format!(
                    "slo.slow_window of {:?} exceeds the {:?} telemetry ring — the burn \
                     rate would silently measure a shorter window",
                    slo.slow_window, ring_span
                )));
            }
        }
        if c.shape.is_padded() {
            if c.shape.max_key_bits < c.hello_policy.min_key_bits {
                return Err(ConfigError(format!(
                    "shape.max_key_bits of {} is below hello_policy.min_key_bits {}: \
                     a padded server would refuse every admissible handshake",
                    c.shape.max_key_bits, c.hello_policy.min_key_bits
                )));
            }
            if c.shape.max_k == 0 {
                return Err(ConfigError(
                    "shape.max_k of 0 would refuse every query under a padded policy".into(),
                ));
            }
            if c.shape.latency_quantum.is_zero() {
                return Err(ConfigError(
                    "shape.latency_quantum of 0 quantizes nothing; use ShapePolicy::off \
                     to disable shaping"
                        .into(),
                ));
            }
            if c.shape.answer_target() > c.max_payload {
                return Err(ConfigError(format!(
                    "shape answer target of {} bytes exceeds max_payload {}; padded \
                     answers would be rejected by the client's own frame cap",
                    c.shape.answer_target(),
                    c.max_payload
                )));
            }
        }
        Ok(self.config)
    }
}

/// Monotonic service counters (plus three gauges): the storage behind
/// this server's [`ServerMetric`] table, which the server's one
/// name-to-value mapping reads these fields through.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections refused over `max_connections`.
    pub refused: AtomicU64,
    /// Queries answered fresh (replays not included).
    pub queries_ok: AtomicU64,
    /// Queries failed (malformed, protocol error, internal).
    pub queries_err: AtomicU64,
    /// Queries shed with `Busy` because the queue was full.
    pub busy_shed: AtomicU64,
    /// Queries dropped because their deadline expired in the queue.
    pub deadline_expired: AtomicU64,
    /// Jobs currently enqueued or being processed (gauge).
    pub inflight: AtomicU64,
    /// Jobs sitting in the queue, not yet picked up by a worker
    /// (gauge). Tracked here (not via the channel) so a detached
    /// [`StatsProbe`] can read it without holding a queue sender open,
    /// which would block worker drain at shutdown.
    pub queued: AtomicU64,
    /// Retried queries answered from the session answer cache.
    pub replayed: AtomicU64,
    /// Worker panics caught and surfaced as typed `Internal` errors.
    pub worker_panics: AtomicU64,
    /// Workers the supervisor respawned after a death.
    pub workers_respawned: AtomicU64,
    /// Worker threads currently alive (gauge).
    pub live_workers: AtomicU64,
    /// Frames shed by the per-connection token bucket.
    pub rate_limited: AtomicU64,
    /// Connections dropped after reaching the strike limit.
    pub strike_disconnects: AtomicU64,
    /// Connections reaped for dribbling a frame past the deadline.
    pub slow_reaped: AtomicU64,
    /// Frame-layer garbage (bad magic/version/type, CRC, oversize)
    /// answered with a typed error and a close.
    pub frame_garbage: AtomicU64,
    /// Faults injected by the chaos wrapper across all connections
    /// (behind an `Arc` so [`FaultyStream`]s can share the counter).
    pub faults_injected: Arc<AtomicU64>,
    /// `PoiUpdate` batches applied through the admin lane.
    pub poi_updates: AtomicU64,
    /// Individual POI mutations applied (sum of batch sizes).
    pub poi_ops: AtomicU64,
    /// Subscriptions granted (fresh registrations and replacements).
    pub subscribes_ok: AtomicU64,
    /// Subscriptions refused (registry cap).
    pub subscribe_rejected: AtomicU64,
    /// Safe regions invalidated by POI mutations.
    pub invalidations: AtomicU64,
    /// `SubscriptionUpdate` frames actually written to sockets.
    pub notifications_sent: AtomicU64,
    /// Standing queries dropped by an explicit `Unsubscribe`.
    pub unsubscribes: AtomicU64,
    /// `PoiUpdate` batches acknowledged from the WAL's idempotency
    /// window without re-applying (admin retries across a restart).
    pub poi_update_replays: AtomicU64,
    /// Checkpoints cut by the durability subsystem since boot.
    pub checkpoints: AtomicU64,
}

/// The POI database the server answers from: either one immutable
/// [`Lsp`] for the classic static deployment, or a versioned
/// [`DynamicLsp`] whose snapshots queries pin at dispatch time.
pub enum World {
    /// A fixed database; the `PoiUpdate` lane is a protocol error.
    Static(Arc<Lsp>),
    /// A live database behind versioned snapshots.
    Dynamic(Arc<DynamicLsp>),
}

impl World {
    /// The snapshot queries dispatched now should answer from, plus
    /// its version (0 for a static world, which never changes).
    fn snapshot(&self) -> (Arc<Lsp>, u64) {
        match self {
            World::Static(lsp) => (Arc::clone(lsp), 0),
            World::Dynamic(d) => d.snapshot(),
        }
    }

    /// The live version (0 for a static world).
    fn version(&self) -> u64 {
        match self {
            World::Static(_) => 0,
            World::Dynamic(d) => d.version(),
        }
    }

    /// Live POI count.
    fn database_size(&self) -> usize {
        match self {
            World::Static(lsp) => lsp.database_size(),
            World::Dynamic(d) => d.database_size(),
        }
    }
}

struct Job {
    group_id: u64,
    request_id: u32,
    query: QueryMessage,
    location_sets: Vec<LocationSetMessage>,
    /// The snapshot this query answers from, pinned at dispatch: a
    /// concurrent `PoiUpdate` can publish a newer version without the
    /// in-flight query ever seeing a half-applied batch.
    lsp: Arc<Lsp>,
    enqueued: Instant,
    deadline: Duration,
    reply: SyncSender<Reply>,
    /// The query's in-flight server trace segment, resumed from the
    /// frame header on the connection thread and finished by the worker.
    trace: Option<TraceHandle>,
}

enum Reply {
    Answer {
        request_id: u32,
        two_phase: bool,
        answer: Vec<u8>,
    },
    Failure {
        request_id: u32,
        code: ErrorCode,
        message: String,
    },
}

/// Runtime durability state. Its mutex serializes every admitted
/// mutation end to end (predict version → WAL append → apply →
/// maybe checkpoint), which is what makes the predicted version and
/// the checkpoint snapshot consistent with the log.
struct DurableState {
    wal: Wal,
    /// (request-id, batch-id) → (version, applied, invalidated): the
    /// idempotent re-admission window. A batch the crash swallowed the
    /// ack for is re-sent by the admin and answered from here with its
    /// original ack. Keying on the request id too means a plain hash
    /// collision between unrelated requests can never alias batches.
    acked: HashMap<(u32, u64), (u64, u32, u32)>,
    /// Insertion order for bounded eviction of `acked`.
    acked_order: VecDeque<(u32, u64)>,
    ops_since_checkpoint: u64,
    checkpoint_every_ops: u64,
}

/// Most batch ids remembered for idempotent re-acks. Retries arrive
/// within a handful of batches of the original; the window is generous.
const ACKED_WINDOW: usize = 8192;

impl DurableState {
    fn remember(&mut self, key: (u32, u64), version: u64, applied: u32, invalidated: u32) {
        if self
            .acked
            .insert(key, (version, applied, invalidated))
            .is_none()
        {
            self.acked_order.push_back(key);
            while self.acked_order.len() > ACKED_WINDOW {
                if let Some(old) = self.acked_order.pop_front() {
                    self.acked.remove(&old);
                }
            }
        }
    }
}

/// What startup recovery found, frozen for the stats surface.
#[derive(Debug, Clone, Copy, Default)]
struct RecoveryFacts {
    checkpoint_version: u64,
    replayed_batches: u64,
    torn_bytes: u64,
    corrupt_checkpoints: u64,
}

pub(crate) struct Shared {
    world: World,
    pub(crate) config: ServerConfig,
    pub(crate) registry: SessionRegistry,
    subscriptions: SubscriptionRegistry,
    pub(crate) stats: ServerStats,
    pub(crate) shutdown: AtomicBool,
    connections: AtomicU64,
    started: Instant,
    /// Windowed telemetry and SLO burn state (the [`metrics`] module's
    /// slice of the server).
    pub(crate) obs: Observability,
    /// Restart epoch: fresh per process start, surfaced in `HelloAck`
    /// and `Pong` so clients detect a crash/recovery cycle.
    epoch: u64,
    /// `Some` only under [`serve_durable`].
    durable: Option<Mutex<DurableState>>,
    /// `Some` when this process recovered a pre-existing data dir.
    recovery: Option<RecoveryFacts>,
    /// Sequence behind the seeded `Busy` retry-hint jitter: each shed
    /// draws the next value of the SplitMix64 stream seeded with
    /// `rng_seed`, so hints are deterministic per seed yet distinct
    /// per shed.
    busy_seq: AtomicU64,
}

impl Shared {
    /// The next jittered `retry_after_ms` hint: `RETRY_AFTER_MS` ±25%,
    /// drawn from the seeded per-server stream. Clients treat the hint
    /// as a backoff floor, so the spread directly desynchronizes
    /// lockstep retry herds.
    fn retry_after_hint(&self) -> u32 {
        let seq = self.busy_seq.fetch_add(1, Ordering::Relaxed);
        // Step `seq` of the stream: the same generator backoff.rs uses
        // for client-side jitter.
        let z = splitmix64(
            &mut self
                .config
                .rng_seed
                .wrapping_add(seq.wrapping_mul(SPLITMIX64_GAMMA)),
        );
        // Map to [-25%, +25%] around the center, never below 1ms.
        let span = (RETRY_AFTER_MS / 2).max(1);
        let offset = (z % (span as u64 + 1)) as u32;
        (RETRY_AFTER_MS - span / 2 + offset).max(1)
    }
}

/// The job queue's receiving end, shared by every worker.
type JobQueue = Arc<Mutex<Receiver<Job>>>;

/// Handle to a running server; dropping it shuts the server down.
pub struct ServerHandle {
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    job_tx: Option<SyncSender<Job>>,
    acceptor: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
    metrics_listener: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound metrics-listener address, when
    /// [`ServerConfig::metrics_addr`] was set (useful with port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Service counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// The session registry.
    pub fn registry(&self) -> &SessionRegistry {
        &self.shared.registry
    }

    /// The full telemetry snapshot — the same payload a wire `Stats`
    /// request is answered with: every pipeline-stage histogram and
    /// crypto op counter plus the service counters and load gauges.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        full_snapshot(&self.shared)
    }

    /// The compact health snapshot — the same payload `Pong` carries.
    pub fn health(&self) -> HealthSnapshot {
        health_snapshot(&self.shared)
    }

    /// The windowed telemetry snapshot over the newest `intervals`
    /// ticks of the 1 Hz observability ring (DESIGN.md §18).
    pub fn windowed_snapshot(&self, intervals: usize) -> WindowedSnapshot {
        self.shared.obs.windowed(intervals)
    }

    /// Forces one observability tick *now*: captures an interval
    /// delta and recomputes the SLO burn rates. Tests and short
    /// benchmark runs call this instead of sleeping out the 1 s ticker
    /// cadence.
    pub fn flush_windows(&self) {
        metrics::observability_tick(&self.shared);
    }

    /// A detached, cloneable probe for reading the same snapshots from
    /// another thread (the `--stats-json` dump loop) without owning the
    /// handle.
    pub fn stats_probe(&self) -> StatsProbe {
        StatsProbe {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Signals shutdown and blocks until every thread exits. Queries
    /// already enqueued are processed and answered before workers stop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // The ticker and the metrics listener just stop.
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics_listener.take() {
            let _ = h.join();
        }
        // Connection threads notice the flag at their next poll, finish
        // any request they are waiting on, say Goodbye, and exit —
        // dropping their job senders.
        let conns = std::mem::take(&mut *lock_list(&self.conn_threads));
        for h in conns {
            let _ = h.join();
        }
        // With every sender gone the channel disconnects; workers drain
        // whatever is still queued, then exit, and the supervisor
        // collects them.
        drop(self.job_tx.take());
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() || self.supervisor.is_some() {
            self.shutdown_inner();
        }
    }
}

/// A cloneable, detached view of a running server's telemetry for
/// side threads (periodic `--stats-json` dumps, test assertions).
///
/// Holds only the shared state — deliberately *not* a job-queue sender,
/// which would keep the worker channel connected and block the drain at
/// shutdown. A probe outliving its [`ServerHandle`] keeps reading
/// frozen final counters; it never wedges the server.
#[derive(Clone)]
pub struct StatsProbe {
    shared: Arc<Shared>,
}

impl StatsProbe {
    /// Same payload as a wire `Stats` request.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        full_snapshot(&self.shared)
    }

    /// This server's own metrics as `name=value` pairs in table order
    /// (metrics it does not carry left out) — the exit summary the
    /// binaries print.
    pub fn metrics_line(&self) -> String {
        let values = ServerMetric::TABLE.iter().zip(read_metrics(&self.shared));
        let pairs: Vec<String> = values
            .filter_map(|((_, name), value)| Some(format!("{name}={}", value?)))
            .collect();
        pairs.join(" ")
    }
}

/// Recovers the connection-thread list from a poisoned lock: pushes and
/// takes are single operations that cannot leave the vec inconsistent.
fn lock_list(list: &Mutex<Vec<JoinHandle<()>>>) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
    list.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The deployment shape handed to [`serve_world`]: which POI world the
/// server boots, and — for the durable variant — what seeds the data
/// dir on first boot.
///
/// `From` impls cover the in-memory shapes, so call sites pass an
/// `Arc<Lsp>` or `Arc<DynamicLsp>` directly.
pub enum WorldSeed {
    /// A fixed database; the `PoiUpdate` lane is a protocol error.
    Static(Arc<Lsp>),
    /// A live database behind versioned snapshots, in-memory only.
    Dynamic(Arc<DynamicLsp>),
    /// A crash-safe live world, recovered from (or bootstrapped into)
    /// the data dir named by [`ServerConfig::durability`] — which must
    /// be set. The seed fields are used only when the data dir has no
    /// checkpoint yet (first boot).
    Durable {
        initial_pois: Vec<Poi>,
        protocol: PpgnnConfig,
        space: Rect,
    },
}

impl From<Arc<Lsp>> for WorldSeed {
    fn from(lsp: Arc<Lsp>) -> Self {
        WorldSeed::Static(lsp)
    }
}

impl From<Arc<DynamicLsp>> for WorldSeed {
    fn from(world: Arc<DynamicLsp>) -> Self {
        WorldSeed::Dynamic(world)
    }
}

/// Binds `addr` and serves the world described by `seed` under
/// `config` — the single serving entrypoint (the pre-0.9 `serve` /
/// `serve_dynamic` / `serve_durable` trio is gone).
///
/// The world shape and [`ServerConfig::durability`] must agree: a
/// [`WorldSeed::Durable`] seed without a durability config, or a
/// durability config paired with an in-memory seed, fails with
/// [`ServerError::Recovery`] — never a silent downgrade to a world
/// that forgets on crash.
///
/// For [`WorldSeed::Durable`], boot order is: load the newest valid
/// checkpoint, replay the WAL tail (torn tail truncated, dropped bytes
/// logged), republish at the exact pre-crash version, *then* bind the
/// socket — a recovered server answers byte-identically to one that
/// never died.
///
/// Startup failures (bind, thread spawn) surface as
/// [`ServerError::Io`] instead of panicking.
pub fn serve_world(
    seed: impl Into<WorldSeed>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> Result<ServerHandle, ServerError> {
    let world = match seed.into() {
        WorldSeed::Durable {
            initial_pois,
            protocol,
            space,
        } => return serve_durable_inner(initial_pois, protocol, space, addr, config),
        WorldSeed::Static(lsp) => World::Static(lsp),
        WorldSeed::Dynamic(d) => World::Dynamic(d),
    };
    if config.durability.is_some() {
        return Err(ServerError::Recovery(
            "ServerConfig::durability is set but the world seed is in-memory; \
             pass WorldSeed::Durable so the world survives a crash"
                .into(),
        ));
    }
    serve_world_inner(world, addr, config, None, None)
}

fn serve_durable_inner(
    initial_pois: Vec<Poi>,
    protocol: PpgnnConfig,
    space: Rect,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> Result<ServerHandle, ServerError> {
    let Some(dur) = config.durability.clone() else {
        return Err(ServerError::Recovery(
            "WorldSeed::Durable requires ServerConfig::durability".into(),
        ));
    };
    let dir = dur.data_dir.clone();
    let (world, recovery, replayed, ops_since_checkpoint) = match wal::recover(&dir)? {
        None => {
            // First boot: seed the dir so the world is durable from
            // version 1 on.
            wal::bootstrap(&dir, &initial_pois)?;
            let world = DynamicLsp::with_space(initial_pois, protocol, space)
                .with_parallelism(config.selection_parallelism)
                .with_naive_crypto(config.naive_crypto);
            (world, None, Vec::new(), 0)
        }
        Some(rec) => {
            eprintln!("[ppgnn-server] {}", rec.summary());
            let facts = RecoveryFacts {
                checkpoint_version: rec.checkpoint_version,
                replayed_batches: rec.batches.len() as u64,
                torn_bytes: rec.torn_bytes,
                corrupt_checkpoints: rec.corrupt_checkpoints,
            };
            let world = DynamicLsp::restore(rec.pois, protocol, space, rec.checkpoint_version)
                .with_parallelism(config.selection_parallelism)
                .with_naive_crypto(config.naive_crypto);
            let mut replayed = Vec::with_capacity(rec.batches.len());
            for b in &rec.batches {
                let (applied, version) = world.apply(&b.ops);
                debug_assert_eq!(version, b.version, "replay must track the log versions");
                replayed.push(((b.request_id, b.batch_id), version, applied as u32));
            }
            // The replayed tail is not in any checkpoint yet: it counts
            // toward the next one, or a server restarted more often than
            // every `checkpoint_every_ops` ops would never cut one.
            let pending = rec.batches.iter().map(|b| checkpoint_weight(&b.ops)).sum();
            (world, Some(facts), replayed, pending)
        }
    };
    // The WAL continues at the version recovery resumed at — after a
    // checkpoint fall-back that is a *later* file than the loaded
    // checkpoint's, and appending anywhere else would break the chain.
    let wal_file = Wal::open(&dir, world.version(), dur.fsync)?;
    let mut state = DurableState {
        wal: wal_file,
        acked: HashMap::new(),
        acked_order: VecDeque::new(),
        ops_since_checkpoint,
        checkpoint_every_ops: dur.checkpoint_every_ops,
    };
    for (key, version, applied) in replayed {
        // Invalidation count 0 is truthful for a replayed ack: no
        // standing queries exist at boot, so a post-restart re-send
        // genuinely invalidates nothing.
        state.remember(key, version, applied, 0);
    }
    serve_world_inner(
        World::Dynamic(Arc::new(world)),
        addr,
        config,
        Some(Mutex::new(state)),
        recovery,
    )
}

/// How much one `PoiUpdate` batch counts toward the next checkpoint: its
/// op count, and at least one, so empty batches still advance it.
fn checkpoint_weight(ops: &[PoiOp]) -> u64 {
    (ops.len() as u64).max(1)
}

/// A per-process restart epoch: wall-clock nanos mixed with the pid,
/// so two boots of the same data dir (even in quick succession, even
/// as respawned children of one harness) never collide.
fn fresh_epoch() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    (nanos ^ ((std::process::id() as u64) << 48)) | 1
}

fn serve_world_inner(
    world: World,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
    durable: Option<Mutex<DurableState>>,
    recovery: Option<RecoveryFacts>,
) -> Result<ServerHandle, ServerError> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;

    let (job_tx, job_rx) = sync_channel::<Job>(config.queue_depth.max(1));
    let job_rx: JobQueue = Arc::new(Mutex::new(job_rx));
    let registry = SessionRegistry::with_limits(RegistryLimits {
        max_sessions: config.max_sessions.max(1),
        idle_ttl: config.session_idle_ttl,
    });
    let shared = Arc::new(Shared {
        world,
        config: config.clone(),
        registry,
        subscriptions: SubscriptionRegistry::new(config.max_subscriptions),
        stats: ServerStats::default(),
        shutdown: AtomicBool::new(false),
        connections: AtomicU64::new(0),
        started: Instant::now(),
        obs: Observability::new(config.slo),
        epoch: fresh_epoch(),
        durable,
        recovery,
        busy_seq: AtomicU64::new(0),
    });

    let mut workers = Vec::with_capacity(config.workers.max(1));
    for i in 0..config.workers.max(1) {
        workers.push(spawn_worker(&shared, &job_rx, i as u64)?);
    }

    let supervisor = {
        let shared = Arc::clone(&shared);
        let rx = Arc::clone(&job_rx);
        std::thread::Builder::new()
            .name("ppgnn-supervisor".into())
            .spawn(move || supervisor_loop(shared, rx, workers))?
    };
    drop(job_rx);

    let conn_threads = Arc::new(Mutex::new(Vec::new()));
    let acceptor = {
        let shared = Arc::clone(&shared);
        let job_tx = job_tx.clone();
        let conn_threads = Arc::clone(&conn_threads);
        std::thread::Builder::new()
            .name("ppgnn-acceptor".into())
            .spawn(move || accept_loop(listener, shared, job_tx, conn_threads))?
    };

    let ticker = metrics::spawn_ticker(Arc::clone(&shared))?;
    let (metrics_addr, metrics_listener) = match &config.metrics_addr {
        Some(addr) => {
            let (bound, handle) = metrics::spawn_metrics_listener(addr, Arc::clone(&shared))?;
            (Some(bound), Some(handle))
        }
        None => (None, None),
    };

    Ok(ServerHandle {
        local_addr,
        metrics_addr,
        shared,
        job_tx: Some(job_tx),
        acceptor: Some(acceptor),
        supervisor: Some(supervisor),
        ticker: Some(ticker),
        metrics_listener,
        conn_threads,
    })
}

fn spawn_worker(
    shared: &Arc<Shared>,
    job_rx: &JobQueue,
    index: u64,
) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    let rx = Arc::clone(job_rx);
    std::thread::Builder::new()
        .name(format!("ppgnn-worker-{index}"))
        .spawn(move || worker_loop(shared, rx, index))
}

/// Watches the pool; a worker that died (panic escape, or the
/// deliberate exit after a caught panic) is replaced as long as the
/// server is running. Exits once shutdown is signaled and every worker
/// has drained and stopped.
fn supervisor_loop(shared: Arc<Shared>, job_rx: JobQueue, mut workers: Vec<JoinHandle<()>>) {
    let mut next_index = workers.len() as u64;
    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        // Idle sessions age out even when no new Hello arrives to
        // trigger eviction on the registration path.
        shared.registry.sweep_idle();
        let mut alive = Vec::with_capacity(workers.len());
        for handle in workers {
            if handle.is_finished() {
                let _ = handle.join();
                // A spawn failure (out of threads) leaves the pool
                // degraded; the next sweep retries as long as any pool
                // slot is missing.
                if !shutting_down {
                    if let Ok(h) = spawn_worker(&shared, &job_rx, next_index) {
                        next_index += 1;
                        shared
                            .stats
                            .workers_respawned
                            .fetch_add(1, Ordering::Relaxed);
                        alive.push(h);
                    }
                }
            } else {
                alive.push(handle);
            }
        }
        // Top back up to the configured size if a respawn failed earlier.
        if !shutting_down {
            while alive.len() < shared.config.workers.max(1) {
                match spawn_worker(&shared, &job_rx, next_index) {
                    Ok(h) => {
                        next_index += 1;
                        shared
                            .stats
                            .workers_respawned
                            .fetch_add(1, Ordering::Relaxed);
                        alive.push(h);
                    }
                    Err(_) => break,
                }
            }
        }
        workers = alive;
        if shutting_down && workers.is_empty() {
            return;
        }
        std::thread::sleep(SUPERVISOR_SWEEP);
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    job_tx: SyncSender<Job>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut conn_index: u64 = 0;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let active = shared.connections.load(Ordering::SeqCst);
                if active >= shared.config.max_connections as u64 {
                    shared.stats.refused.fetch_add(1, Ordering::Relaxed);
                    refuse(&shared, stream);
                    continue;
                }
                shared.connections.fetch_add(1, Ordering::SeqCst);
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                let index = conn_index;
                conn_index += 1;
                let shared2 = Arc::clone(&shared);
                let tx = job_tx.clone();
                let spawned =
                    std::thread::Builder::new()
                        .name("ppgnn-conn".into())
                        .spawn(move || {
                            let fault_plan = shared2
                                .config
                                .fault
                                .as_ref()
                                .filter(|f| f.is_active())
                                .map(|f| f.plan_for(index));
                            match fault_plan {
                                Some(plan) => {
                                    let counter = Arc::clone(&shared2.stats.faults_injected);
                                    let faulty = FaultyStream::new(stream, plan, counter);
                                    let _ = connection_loop(&shared2, faulty, tx, index);
                                }
                                None => {
                                    let _ = connection_loop(&shared2, stream, tx, index);
                                }
                            }
                            // Standing queries die with their socket —
                            // there is nowhere left to push to.
                            shared2.subscriptions.remove_conn(index);
                            shared2.connections.fetch_sub(1, Ordering::SeqCst);
                        });
                match spawned {
                    Ok(handle) => lock_list(&conn_threads).push(handle),
                    Err(_) => {
                        // Could not spawn a thread: undo the slot and
                        // shed the connection instead of crashing.
                        shared.connections.fetch_sub(1, Ordering::SeqCst);
                        shared.stats.refused.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn refuse(shared: &Shared, mut stream: TcpStream) {
    let payload = BusyPayload {
        request_id: 0,
        retry_after_ms: shared.retry_after_hint(),
    }
    .encode();
    // Pad-only: a refusal has no request to hold against, and sleeping
    // here would block the acceptor thread for every other client.
    let _ = send_shaped_unheld(
        &shared.config.shape,
        &mut stream,
        FrameType::Busy,
        &payload,
        Lane::Control,
    );
    let _ = stream.flush();
}

/// One request's response-shaping context: the server-wide policy plus
/// the instant the request's frame finished arriving, so held responses
/// release exactly on latency-quantum boundaries measured from arrival.
#[derive(Clone, Copy)]
struct ResponseShaper {
    policy: ShapePolicy,
    started: Instant,
}

impl ResponseShaper {
    /// Holds to the next quantum boundary, then writes the frame padded
    /// to its lane target. Every request-triggered response (`Answer`,
    /// `Busy`, `Error`, `SubscriptionUpdate`) goes through here; with
    /// shaping off this is exactly [`write_frame`].
    fn send(
        &self,
        stream: &mut impl std::io::Write,
        frame_type: FrameType,
        payload: &[u8],
        lane: Lane,
    ) -> Result<(), ServerError> {
        if !self.policy.is_padded() {
            return write_frame(stream, frame_type, payload);
        }
        let hold = self.policy.hold_for(self.started.elapsed());
        if !hold.is_zero() {
            let _hold = telemetry::enter(Layer::LatencyHold);
            std::thread::sleep(hold);
        }
        let pad = self.policy.pad_for(lane, payload.len());
        let _pad = telemetry::enter(Layer::ShapePad);
        write_frame_padded(stream, frame_type, payload, pad)
    }
}

/// Pad-only shaped write for lanes with no request to hold against
/// (subscription pushes from the outbox, connection refusals). Their
/// release timing is governed elsewhere — pushes by the poll interval,
/// refusals by the accept loop — so only the size channel is closed
/// here.
fn send_shaped_unheld(
    policy: &ShapePolicy,
    stream: &mut impl std::io::Write,
    frame_type: FrameType,
    payload: &[u8],
    lane: Lane,
) -> Result<(), ServerError> {
    if !policy.is_padded() {
        return write_frame(stream, frame_type, payload);
    }
    let pad = policy.pad_for(lane, payload.len());
    let _pad = telemetry::enter(Layer::ShapePad);
    write_frame_padded(stream, frame_type, payload, pad)
}

/// Per-connection admission state: the token bucket and the strike
/// count this connection has accumulated (session strikes live in the
/// registry; the connection is dropped when either reaches the limit).
struct ConnGuard {
    bucket: TokenBucket,
    strikes: u32,
}

/// What a frame handler tells the connection loop to do next.
#[derive(PartialEq, Eq)]
enum ConnAction {
    Continue,
    Close,
}

/// Enforces the whole-frame read deadline: every partial read re-arms
/// the socket timeout with the time *remaining*, so the total wall
/// clock a peer can spend dribbling one frame is bounded no matter how
/// many one-byte reads it splits the frame into.
struct FrameDeadline<'a, S: Transport> {
    inner: &'a mut S,
    deadline: Instant,
}

impl<S: Transport> std::io::Read for FrameDeadline<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "whole-frame read deadline exhausted",
            ));
        }
        self.inner.set_read_timeout(Some(remaining))?;
        self.inner.read(buf)
    }
}

/// Writes every queued subscription push to the owning socket.
fn flush_outbox(
    shared: &Shared,
    stream: &mut impl std::io::Write,
    outbox: &Outbox,
) -> Result<(), ServerError> {
    for update in outbox.drain() {
        send_shaped_unheld(
            &shared.config.shape,
            stream,
            FrameType::SubscriptionUpdate,
            &update.encode(),
            Lane::Control,
        )?;
        shared
            .stats
            .notifications_sent
            .fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}

/// Serves one connection until the peer leaves or shutdown is signaled.
fn connection_loop<S: Transport>(
    shared: &Shared,
    mut stream: S,
    job_tx: SyncSender<Job>,
    conn_id: u64,
) -> Result<(), ServerError> {
    stream.set_nodelay(true).ok();
    stream
        .set_write_timeout(Some(shared.config.write_timeout))
        .ok();
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut conn = ConnGuard {
        bucket: TokenBucket::new(
            shared.config.rate_limit_burst,
            shared.config.rate_limit_per_sec,
        ),
        strikes: 0,
    };
    // This connection's subscription mailbox: the invalidation scan
    // (running wherever the `PoiUpdate` landed) pushes here, and the
    // flushes below put it on the wire within one poll interval.
    let outbox = Arc::new(Outbox::new());
    loop {
        // The first byte is the idle poll point: a timeout here leaves
        // the stream exactly at a frame boundary.
        let mut lead = [0u8; 1];
        match stream.read(&mut lead) {
            Ok(0) => return Ok(()),
            Ok(_) => {
                let frame = {
                    let mut guarded = FrameDeadline {
                        deadline: Instant::now() + shared.config.frame_read_timeout,
                        inner: &mut stream,
                    };
                    read_frame_with_lead(&mut guarded, lead[0], shared.config.max_payload)
                };
                stream.set_read_timeout(Some(POLL_INTERVAL))?;
                // The latency-quantization clock starts the moment the
                // frame finished arriving: every response this request
                // triggers releases on a quantum boundary from here.
                let shaper = ResponseShaper {
                    policy: shared.config.shape,
                    started: Instant::now(),
                };
                let frame = match frame {
                    Ok(f) => f,
                    Err(ServerError::ConnectionClosed) => return Ok(()),
                    Err(ServerError::Io(e))
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        // A slowloris peer: the frame did not complete
                        // within the whole-frame deadline. Reap it.
                        shared.stats.slow_reaped.fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                    Err(ServerError::Io(e)) => return Err(ServerError::Io(e)),
                    Err(e) => {
                        // Frame-layer garbage (bad magic/version/type,
                        // oversized length, CRC mismatch): framing sync
                        // is gone, so give the peer a typed error and a
                        // clean close rather than a silent reset.
                        shared.stats.frame_garbage.fetch_add(1, Ordering::Relaxed);
                        shared.registry.count_violation();
                        let code = match e {
                            ServerError::FrameTooLarge { .. } => ErrorCode::Violation,
                            _ => ErrorCode::MalformedPayload,
                        };
                        let _ = send_error(&shaper, &mut stream, 0, code, &e.to_string());
                        return Ok(());
                    }
                };
                // Work-carrying frames pay a token; liveness traffic
                // (Ping, Goodbye) stays free so health probes see
                // through load.
                if matches!(
                    frame.frame_type,
                    FrameType::Hello
                        | FrameType::Query
                        | FrameType::Subscribe
                        | FrameType::PoiUpdate
                        | FrameType::Unsubscribe
                ) {
                    if let Err(wait) = conn.bucket.try_take() {
                        shared.stats.rate_limited.fetch_add(1, Ordering::Relaxed);
                        let request_id = match frame.frame_type {
                            // request_id sits after a u64 (group_id, or
                            // the admin token) in all three payloads.
                            FrameType::Query | FrameType::Subscribe | FrameType::PoiUpdate => frame
                                .payload
                                .get(8..12)
                                .and_then(|b| b.try_into().ok())
                                .map(u32::from_le_bytes)
                                .unwrap_or(0),
                            _ => 0,
                        };
                        let busy = BusyPayload {
                            request_id,
                            retry_after_ms: (wait.as_millis() as u32).max(1),
                        };
                        shaper.send(&mut stream, FrameType::Busy, &busy.encode(), Lane::Control)?;
                        continue;
                    }
                }
                let action = match frame.frame_type {
                    FrameType::Hello => {
                        handle_hello(shared, &mut conn, &shaper, &mut stream, &frame.payload)?
                    }
                    // Queries accepted before the signal drain; ones
                    // arriving after it are refused.
                    FrameType::Query | FrameType::Subscribe
                        if shared.shutdown.load(Ordering::SeqCst) =>
                    {
                        let request_id = QueryPayload::decode(&frame.payload)
                            .map(|q| q.request_id)
                            .unwrap_or(0);
                        send_error(
                            &shaper,
                            &mut stream,
                            request_id,
                            ErrorCode::ShuttingDown,
                            "server is draining",
                        )?;
                        ConnAction::Continue
                    }
                    FrameType::Query => handle_query(
                        shared,
                        &mut conn,
                        &shaper,
                        &mut stream,
                        &frame.payload,
                        &job_tx,
                        None,
                    )?,
                    FrameType::Subscribe => handle_query(
                        shared,
                        &mut conn,
                        &shaper,
                        &mut stream,
                        &frame.payload,
                        &job_tx,
                        Some(SubscribeLane {
                            conn_id,
                            outbox: &outbox,
                        }),
                    )?,
                    FrameType::PoiUpdate => {
                        handle_poi_update(shared, &mut conn, &shaper, &mut stream, &frame.payload)?
                    }
                    FrameType::Unsubscribe => {
                        handle_unsubscribe(shared, &shaper, &mut stream, &frame.payload)?
                    }
                    FrameType::Ping => {
                        let pong = PongPayload {
                            health: health_snapshot(shared),
                            epoch: shared.epoch,
                        };
                        write_frame(&mut stream, FrameType::Pong, &pong.encode())?;
                        ConnAction::Continue
                    }
                    // Stats rides the liveness lane (no rate-limit
                    // token): operators probing a loaded server should
                    // see through the load, not queue behind it.
                    FrameType::Stats => {
                        let reply = StatsReplyPayload {
                            snapshot: full_snapshot(shared),
                        };
                        write_frame(&mut stream, FrameType::StatsReply, &reply.encode())?;
                        ConnAction::Continue
                    }
                    // Traces share the liveness lane: fetch-and-clear of
                    // the kept-segment ring, bounded by the frame cap.
                    FrameType::TraceFetch => {
                        let reply = TraceReplyPayload {
                            segments: trace::global().drain(),
                        };
                        let payload = reply.encode(shared.config.max_payload);
                        write_frame(&mut stream, FrameType::TraceReply, &payload)?;
                        ConnAction::Continue
                    }
                    FrameType::Goodbye => return Ok(()),
                    other => {
                        send_error(
                            &shaper,
                            &mut stream,
                            0,
                            ErrorCode::MalformedPayload,
                            &format!("unexpected {other:?} frame"),
                        )?;
                        ConnAction::Continue
                    }
                };
                // Invalidations that landed while this frame was being
                // handled go out right behind the reply.
                flush_outbox(shared, &mut stream, &outbox)?;
                if action == ConnAction::Close {
                    let _ = write_frame(&mut stream, FrameType::Goodbye, &[]);
                    return Ok(());
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    let _ = write_frame(&mut stream, FrameType::Goodbye, &[]);
                    return Ok(());
                }
                // The idle poll is the push path: a quiet subscriber
                // still hears about invalidations within POLL_INTERVAL.
                flush_outbox(shared, &mut stream, &outbox)?;
            }
            Err(e) => return Err(ServerError::Io(e)),
        }
    }
}

/// The one mapping from this server's [`ServerMetric`] name table to
/// live values: every face (`Stats`, `Pong`, `/healthz`, `/metrics`,
/// the window ring, the exit summaries) reads per-server numbers
/// through here, never through the process-global registry. `None`
/// marks a metric this server does not carry (no recovery ran, no SLO
/// is configured).
fn read_metric(shared: &Shared, metric: ServerMetric) -> Option<u64> {
    use ServerMetric as M;
    let s = &shared.stats;
    let atomic = |a: &AtomicU64| Some(a.load(Ordering::SeqCst));
    let recovered = |f: fn(&RecoveryFacts) -> u64| shared.recovery.as_ref().map(f);
    match metric {
        M::Accepted => atomic(&s.accepted),
        M::Refused => atomic(&s.refused),
        M::QueriesOk => atomic(&s.queries_ok),
        M::QueriesErr => atomic(&s.queries_err),
        M::BusyShed => atomic(&s.busy_shed),
        M::DeadlineExpired => atomic(&s.deadline_expired),
        M::Replayed => atomic(&s.replayed),
        M::WorkerPanics => atomic(&s.worker_panics),
        M::WorkersRespawned => atomic(&s.workers_respawned),
        M::RateLimited => atomic(&s.rate_limited),
        M::StrikeDisconnects => atomic(&s.strike_disconnects),
        M::SlowReaped => atomic(&s.slow_reaped),
        M::FrameGarbage => atomic(&s.frame_garbage),
        M::FaultsInjected => atomic(&s.faults_injected),
        M::SessionsEvicted => Some(shared.registry.evicted()),
        M::SessionsRejected => Some(shared.registry.rejected()),
        M::Violations => Some(shared.registry.violations()),
        M::PoiUpdates => atomic(&s.poi_updates),
        M::PoiOps => atomic(&s.poi_ops),
        M::SubscribesOk => atomic(&s.subscribes_ok),
        M::SubscribeRejected => atomic(&s.subscribe_rejected),
        M::Invalidations => atomic(&s.invalidations),
        M::NotificationsSent => atomic(&s.notifications_sent),
        M::Unsubscribes => atomic(&s.unsubscribes),
        M::PoiUpdateReplays => atomic(&s.poi_update_replays),
        M::Checkpoints => atomic(&s.checkpoints),
        M::QueueDepth => atomic(&s.queued),
        M::Inflight => atomic(&s.inflight),
        M::LiveWorkers => atomic(&s.live_workers),
        M::Sessions => Some(shared.registry.len() as u64),
        M::UptimeMs => Some(shared.started.elapsed().as_millis() as u64),
        M::Subscriptions => Some(shared.subscriptions.len() as u64),
        M::IndexVersion => Some(shared.world.version()),
        M::RecoveredCheckpointVersion => recovered(|r| r.checkpoint_version),
        M::RecoveredBatches => recovered(|r| r.replayed_batches),
        M::RecoveredTornBytes => recovered(|r| r.torn_bytes),
        M::RecoveredCorruptCheckpoints => recovered(|r| r.corrupt_checkpoints),
        M::SloLatencyFastBurnPm => shared.obs.burn(0),
        M::SloLatencySlowBurnPm => shared.obs.burn(1),
        M::SloErrorFastBurnPm => shared.obs.burn(2),
        M::SloErrorSlowBurnPm => shared.obs.burn(3),
    }
}

/// Every per-server metric at once, indexed like [`ServerMetric::TABLE`].
pub(crate) fn read_metrics(shared: &Shared) -> [Option<u64>; ServerMetric::COUNT] {
    ServerMetric::TABLE.map(|(metric, _)| read_metric(shared, metric))
}

/// Compact load-and-health snapshot carried in every `Pong` reply.
pub(crate) fn health_snapshot(shared: &Shared) -> HealthSnapshot {
    HealthSnapshot::from_metrics(|metric| read_metric(shared, metric).unwrap_or(0))
}

/// The full snapshot answered to a `Stats` request: every pipeline
/// stage histogram and crypto op counter from the global [`telemetry`]
/// registry, plus this server's own counters and gauges.
pub(crate) fn full_snapshot(shared: &Shared) -> TelemetrySnapshot {
    let mut snap = telemetry::global().snapshot();
    for ((metric, name), value) in ServerMetric::TABLE.iter().zip(read_metrics(shared)) {
        match value {
            Some(v) if metric.is_gauge() => snap.push_gauge(name, v),
            Some(v) => snap.push_counter(name, v),
            None => {}
        }
    }
    snap
}

/// Sends the typed `Violation` reply, counts the strike against both
/// the session and the connection, and decides whether the strike
/// limit escalates to a disconnect.
fn reject_violation(
    shared: &Shared,
    conn: &mut ConnGuard,
    shaper: &ResponseShaper,
    stream: &mut impl std::io::Write,
    group_id: u64,
    request_id: u32,
    violation: ProtocolViolation,
) -> Result<ConnAction, ServerError> {
    let session_strikes = shared.registry.strike(group_id);
    conn.strikes = conn.strikes.saturating_add(1);
    send_error(
        shaper,
        stream,
        request_id,
        ErrorCode::Violation,
        &violation.to_string(),
    )?;
    if session_strikes.max(conn.strikes) >= shared.config.max_strikes.max(1) {
        shared
            .stats
            .strike_disconnects
            .fetch_add(1, Ordering::Relaxed);
        // The penalty is this disconnect, not a permanent ban: the
        // session starts its next connection with a clean count.
        shared.registry.reset_strikes(group_id);
        let _ = send_error(
            shaper,
            stream,
            0,
            ErrorCode::QuotaExceeded,
            "strike limit reached; disconnecting",
        );
        return Ok(ConnAction::Close);
    }
    Ok(ConnAction::Continue)
}

fn handle_hello(
    shared: &Shared,
    conn: &mut ConnGuard,
    shaper: &ResponseShaper,
    stream: &mut impl std::io::Write,
    payload: &[u8],
) -> Result<ConnAction, ServerError> {
    let hello = match HelloPayload::decode(payload) {
        Ok(h) => h,
        Err(e) => {
            send_error(
                shaper,
                stream,
                0,
                ErrorCode::MalformedPayload,
                &e.to_string(),
            )?;
            return Ok(ConnAction::Continue);
        }
    };
    if let Err(v) = validate_hello(&hello, &shared.config.hello_policy) {
        return reject_violation(shared, conn, shaper, stream, hello.group_id, 0, v);
    }
    // A padded server only admits sessions its shape envelope covers: a
    // session the targets cannot contain would burst the constant and
    // hand the observer back the very channel padding closes.
    let shape = &shared.config.shape;
    if !shape.admits(hello.key_bits as usize, hello.k as usize) {
        let v = if hello.key_bits as usize > shape.max_key_bits {
            ProtocolViolation::ShapeBoundExceeded {
                what: "key_bits",
                got: hello.key_bits as usize,
                max: shape.max_key_bits,
            }
        } else {
            ProtocolViolation::ShapeBoundExceeded {
                what: "k",
                got: hello.k as usize,
                max: shape.max_k,
            }
        };
        return reject_violation(shared, conn, shaper, stream, hello.group_id, 0, v);
    }
    if shared
        .registry
        .register(hello.group_id, SessionParams::from_hello(&hello))
        .is_err()
    {
        send_error(
            shaper,
            stream,
            0,
            ErrorCode::QuotaExceeded,
            &format!(
                "session table full ({} live sessions); retry later",
                shared.registry.len()
            ),
        )?;
        return Ok(ConnAction::Continue);
    }
    let ack = HelloAckPayload {
        group_id: hello.group_id,
        database_size: shared.world.database_size() as u64,
        max_payload: shared.config.max_payload as u32,
        workers: shared.config.workers as u32,
        epoch: shared.epoch,
        shape_mode: shape.mode.to_u8(),
        answer_target: shape.answer_target() as u32,
        control_target: shape.control_target() as u32,
        latency_quantum_ms: shape.latency_quantum.as_millis() as u32,
    };
    write_frame(stream, FrameType::HelloAck, &ack.encode())?;
    Ok(ConnAction::Continue)
}

/// What turns a `Query` into a `Subscribe`: the connection identity
/// and mailbox the resulting standing query is registered under.
struct SubscribeLane<'a> {
    conn_id: u64,
    outbox: &'a Arc<Outbox>,
}

fn handle_query(
    shared: &Shared,
    conn: &mut ConnGuard,
    shaper: &ResponseShaper,
    stream: &mut impl std::io::Write,
    payload: &[u8],
    job_tx: &SyncSender<Job>,
    subscribe: Option<SubscribeLane<'_>>,
) -> Result<ConnAction, ServerError> {
    let q = match QueryPayload::decode(payload) {
        Ok(q) => q,
        Err(e) => {
            shared.stats.queries_err.fetch_add(1, Ordering::Relaxed);
            send_error(
                shaper,
                stream,
                0,
                ErrorCode::MalformedPayload,
                &e.to_string(),
            )?;
            return Ok(ConnAction::Continue);
        }
    };
    // Pin the snapshot (and its version) this request will be served
    // from: the answer, and for subscriptions the safe regions too, are
    // all computed against this one consistent view of the index.
    let (snapshot, pinned_version) = shared.world.snapshot();
    // A full standing-query table turns `Subscribe`s away before any
    // worker time is spent on them.
    if subscribe.is_some() && shared.subscriptions.would_reject(q.group_id) {
        shared
            .stats
            .subscribe_rejected
            .fetch_add(1, Ordering::Relaxed);
        let v = ProtocolViolation::SubscriptionLimit {
            max: shared.subscriptions.cap(),
        };
        return reject_violation(shared, conn, shaper, stream, q.group_id, q.request_id, v);
    }
    // Resume the client's trace context: from here to the early returns
    // below, dropping `tracing` without finish commits the server
    // segment with the error flag — rejected queries stay visible.
    let mut tracing = trace::global().resume(&q.trace);
    let active = tracing.as_ref().map(|h| h.activate());
    let Some(params) = shared.registry.get(q.group_id) else {
        shared.stats.queries_err.fetch_add(1, Ordering::Relaxed);
        send_error(
            shaper,
            stream,
            q.request_id,
            ErrorCode::NoSession,
            &format!("group {} has no negotiated session", q.group_id),
        )?;
        return Ok(ConnAction::Continue);
    };
    // An idempotent retry: the request was already answered, so replay
    // the cached ciphertext without re-running the query or moving the
    // counters. This check is cheap (one map lookup) and happens before
    // the expensive wire decode.
    if let Some(hit) = shared.registry.cached_answer(q.group_id, q.request_id) {
        shared.stats.replayed.fetch_add(1, Ordering::Relaxed);
        let payload = AnswerPayload {
            request_id: q.request_id,
            two_phase: hit.two_phase,
            replayed: true,
            answer: hit.answer,
        };
        shaper.send(stream, FrameType::Answer, &payload.encode(), Lane::Answer)?;
        // A replay is a success: finish the segment instead of letting
        // the drop-path flag it as an error.
        drop(active);
        if let Some(h) = tracing.take() {
            h.finish();
        }
        return Ok(ConnAction::Continue);
    }
    // --- the validation gate: everything below is checked against the
    // session's own handshake before a worker spends a microsecond. The
    // set count is visible pre-decode; a rewound request ID is caught
    // next (replays of *cached* requests were already served above);
    // the full shape and ciphertext checks (`validate_query`, the
    // `validate` layer) run after the wire decode (`wire-decode`).
    if let Err(v) = validate_set_count(&params, q.location_sets.len()) {
        shared.stats.queries_err.fetch_add(1, Ordering::Relaxed);
        return reject_violation(shared, conn, shaper, stream, q.group_id, q.request_id, v);
    }
    if let Err(high_water) = shared.registry.admit_request_id(q.group_id, q.request_id) {
        shared.stats.queries_err.fetch_add(1, Ordering::Relaxed);
        let v = ProtocolViolation::RequestIdRewind {
            high_water,
            got: q.request_id,
        };
        return reject_violation(shared, conn, shaper, stream, q.group_id, q.request_id, v);
    }
    let ctx = params.wire_context();
    let query = match QueryMessage::from_wire(&q.query, &ctx) {
        Ok(m) => m,
        Err(e) => {
            shared.stats.queries_err.fetch_add(1, Ordering::Relaxed);
            send_error(
                shaper,
                stream,
                q.request_id,
                ErrorCode::MalformedPayload,
                &e.to_string(),
            )?;
            return Ok(ConnAction::Continue);
        }
    };
    let mut location_sets = Vec::with_capacity(q.location_sets.len());
    for set in &q.location_sets {
        match LocationSetMessage::from_wire(set) {
            Ok(m) => location_sets.push(m),
            Err(e) => {
                shared.stats.queries_err.fetch_add(1, Ordering::Relaxed);
                send_error(
                    shaper,
                    stream,
                    q.request_id,
                    ErrorCode::MalformedPayload,
                    &e.to_string(),
                )?;
                return Ok(ConnAction::Continue);
            }
        }
    }
    if let Err(v) = validate_query(&params, &query, &location_sets) {
        shared.stats.queries_err.fetch_add(1, Ordering::Relaxed);
        return reject_violation(shared, conn, shaper, stream, q.group_id, q.request_id, v);
    }
    // For a subscription the candidate expansion is needed twice: the
    // worker runs it inside `process_query`, and the safe regions are
    // computed over the same candidate list after the answer lands.
    // Expand here, before the messages move into the job, so a query
    // the engine would reject is caught with a typed error up front.
    let candidates = match &subscribe {
        Some(_) => match expand_candidates(&query, &location_sets) {
            Ok(c) => Some(c),
            Err(e) => {
                shared.stats.queries_err.fetch_add(1, Ordering::Relaxed);
                send_error(
                    shaper,
                    stream,
                    q.request_id,
                    ErrorCode::Protocol,
                    &e.to_string(),
                )?;
                return Ok(ConnAction::Continue);
            }
        },
        None => None,
    };
    let deadline = if q.deadline_ms == 0 {
        shared.config.default_deadline
    } else {
        Duration::from_millis(q.deadline_ms as u64)
    };
    let (reply_tx, reply_rx) = sync_channel::<Reply>(1);
    // Park the segment so the worker thread can activate it; from here
    // on the handle travels with the job.
    drop(active);
    let query_k = query.k;
    let job = Job {
        group_id: q.group_id,
        request_id: q.request_id,
        query,
        location_sets,
        lsp: Arc::clone(&snapshot),
        enqueued: Instant::now(),
        deadline,
        reply: reply_tx,
        trace: tracing.take(),
    };
    // The queued gauge rises *before* the send so a worker's decrement
    // (which can only follow a successful send) never underflows it.
    shared.stats.queued.fetch_add(1, Ordering::SeqCst);
    match job_tx.try_send(job) {
        Ok(()) => {
            shared.stats.inflight.fetch_add(1, Ordering::SeqCst);
        }
        Err(TrySendError::Full(job)) => {
            shared.stats.queued.fetch_sub(1, Ordering::SeqCst);
            shared.stats.busy_shed.fetch_add(1, Ordering::Relaxed);
            // The bounced job still owns the trace handle: flag the
            // segment as shed before the drop commits it.
            if let Some(h) = &job.trace {
                let _a = h.activate();
                trace::mark_shed();
            }
            let busy = BusyPayload {
                request_id: q.request_id,
                retry_after_ms: shared.retry_after_hint(),
            };
            shaper.send(stream, FrameType::Busy, &busy.encode(), Lane::Control)?;
            return Ok(ConnAction::Continue);
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.stats.queued.fetch_sub(1, Ordering::SeqCst);
            send_error(
                shaper,
                stream,
                q.request_id,
                ErrorCode::ShuttingDown,
                "server is draining",
            )?;
            return Ok(ConnAction::Continue);
        }
    }
    // Wait for the worker; grace past the deadline covers processing
    // time after a last-moment dequeue.
    let reply = reply_rx.recv_timeout(deadline + REPLY_GRACE);
    shared.stats.inflight.fetch_sub(1, Ordering::SeqCst);
    match reply {
        Ok(Reply::Answer {
            request_id,
            two_phase,
            answer,
        }) => {
            // Cache before replying; `record_answer` also dedups the
            // query counter if a duplicate raced us.
            let fresh = shared
                .registry
                .record_answer(q.group_id, request_id, two_phase, &answer);
            if fresh {
                shared.stats.queries_ok.fetch_add(1, Ordering::Relaxed);
                // A served honest query clears the session's slate.
                shared.registry.reset_strikes(q.group_id);
            } else {
                shared.stats.replayed.fetch_add(1, Ordering::Relaxed);
            }
            let payload = AnswerPayload {
                request_id,
                two_phase,
                replayed: !fresh,
                answer,
            };
            let encoded = payload.encode();
            telemetry::global().incr_by(telemetry::Op::AnswerBytes, encoded.len() as u64);
            shaper.send(stream, FrameType::Answer, &encoded, Lane::Answer)?;
            if let (Some(lane), Some(candidates)) = (subscribe, candidates) {
                return grant_subscription(
                    shared,
                    conn,
                    shaper,
                    stream,
                    &q,
                    &snapshot,
                    pinned_version,
                    query_k,
                    candidates,
                    lane,
                );
            }
            Ok(ConnAction::Continue)
        }
        Ok(Reply::Failure {
            request_id,
            code,
            message,
        }) => {
            if code == ErrorCode::DeadlineExceeded {
                shared
                    .stats
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                shared.stats.queries_err.fetch_add(1, Ordering::Relaxed);
            }
            send_error(shaper, stream, request_id, code, &message)?;
            Ok(ConnAction::Continue)
        }
        Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
            shared
                .stats
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            send_error(
                shaper,
                stream,
                q.request_id,
                ErrorCode::DeadlineExceeded,
                "no worker reply within the deadline",
            )?;
            Ok(ConnAction::Continue)
        }
    }
}

/// Registers the standing query once its answer is on the wire, sends
/// the `Granted` push with the safe-region token, and self-invalidates
/// if a mutation raced the registration.
#[allow(clippy::too_many_arguments)]
fn grant_subscription(
    shared: &Shared,
    conn: &mut ConnGuard,
    shaper: &ResponseShaper,
    stream: &mut impl std::io::Write,
    q: &QueryPayload,
    snapshot: &Lsp,
    pinned_version: u64,
    k: usize,
    candidates: Vec<Vec<ppgnn_geo::Point>>,
    lane: SubscribeLane<'_>,
) -> Result<ConnAction, ServerError> {
    let (regions, topk, token) = compute_regions(snapshot, &candidates, k);
    let sub = Subscription {
        group_id: q.group_id,
        request_id: q.request_id,
        conn_id: lane.conn_id,
        version: pinned_version,
        agg: snapshot.config().aggregate,
        margin: token.margin,
        drift_scale: token.drift_scale,
        regions,
        topk,
        outbox: Arc::clone(lane.outbox),
        stale: false,
    };
    if shared.subscriptions.register(sub).is_err() {
        // Lost the race to the cap since the pre-enqueue check.
        shared
            .stats
            .subscribe_rejected
            .fetch_add(1, Ordering::Relaxed);
        let v = ProtocolViolation::SubscriptionLimit {
            max: shared.subscriptions.cap(),
        };
        return reject_violation(shared, conn, shaper, stream, q.group_id, q.request_id, v);
    }
    shared.stats.subscribes_ok.fetch_add(1, Ordering::Relaxed);
    let granted = SubscriptionUpdatePayload {
        request_id: q.request_id,
        kind: SubscriptionKind::Granted,
        version: pinned_version,
        margin: token.margin,
        drift_scale: token.drift_scale,
    };
    // The `Granted` push follows the answer on the same lane; pad-only
    // (the answer's own hold already quantized this request's release).
    send_shaped_unheld(
        &shared.config.shape,
        stream,
        FrameType::SubscriptionUpdate,
        &granted.encode(),
        Lane::Control,
    )?;
    // A mutation can land between snapshot pinning and registration —
    // its invalidation scan ran before this subscription existed. The
    // version gap detects exactly that window; self-invalidating turns
    // a potential missed invalidation into a spurious one.
    let live = shared.world.version();
    if live != pinned_version
        && shared
            .subscriptions
            .invalidate_now(q.group_id, q.request_id, live)
    {
        shared.stats.invalidations.fetch_add(1, Ordering::Relaxed);
    }
    Ok(ConnAction::Continue)
}

/// The admin lane: applies a mutation batch to a dynamic world, scans
/// the standing queries for invalidated safe regions, and acks with
/// the new index version.
fn handle_poi_update(
    shared: &Shared,
    conn: &mut ConnGuard,
    shaper: &ResponseShaper,
    stream: &mut impl std::io::Write,
    payload: &[u8],
) -> Result<ConnAction, ServerError> {
    let p = match PoiUpdatePayload::decode(payload) {
        Ok(p) => p,
        Err(e) => {
            send_error(
                shaper,
                stream,
                0,
                ErrorCode::MalformedPayload,
                &e.to_string(),
            )?;
            return Ok(ConnAction::Continue);
        }
    };
    // The token check runs first: whether the lane even exists is not
    // something an unauthenticated peer gets to probe.
    if shared.config.admin_token.is_none() || shared.config.admin_token != Some(p.admin_token) {
        return reject_violation(
            shared,
            conn,
            shaper,
            stream,
            0,
            p.request_id,
            ProtocolViolation::AdminUnauthorized,
        );
    }
    let World::Dynamic(dyn_lsp) = &shared.world else {
        send_error(
            shaper,
            stream,
            p.request_id,
            ErrorCode::Protocol,
            "server runs a static world; there is no index to mutate",
        )?;
        return Ok(ConnAction::Continue);
    };
    let (applied, version, invalidated) = match &shared.durable {
        // The durable path: predict the version, log, then apply — all
        // under the durability lock, which serializes every mutation
        // (queries only read published snapshots and never take it).
        Some(durable) => {
            let mut st = durable.lock().unwrap_or_else(|poison| poison.into_inner());
            let key = (p.request_id, wal::batch_id(p.request_id, &p.ops));
            if let Some(&(version, applied, invalidated)) = st.acked.get(&key) {
                // The admin re-sent a batch we already admitted —
                // typically because a crash swallowed the original
                // ack. Re-ack exactly what the original said (for a
                // batch replayed from the WAL at boot the remembered
                // invalidation count is 0, which is truthful: the
                // restart orphaned every standing query), no re-apply.
                shared
                    .stats
                    .poi_update_replays
                    .fetch_add(1, Ordering::Relaxed);
                let ack = PoiUpdateAckPayload {
                    request_id: p.request_id,
                    version,
                    applied,
                    invalidated,
                };
                write_frame(stream, FrameType::PoiUpdateAck, &ack.encode())?;
                return Ok(ConnAction::Continue);
            }
            let current = dyn_lsp.version();
            let version = current + 1;
            let weight = checkpoint_weight(&p.ops);
            if st.ops_since_checkpoint > 0
                && st.ops_since_checkpoint + weight >= st.checkpoint_every_ops
            {
                // Cut the checkpoint *before* logging the batch that
                // brings the tail to the threshold: that batch opens the
                // fresh WAL, so the newest acked batch is always one a
                // boot replays, and its redelivery after a crash is
                // re-acked instead of re-applied. The snapshot is
                // consistent with the current version: this lock is the
                // only mutation path.
                match st.wal.checkpoint(&dyn_lsp.live_pois(), current) {
                    Ok(()) => {
                        shared.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
                        st.ops_since_checkpoint = 0;
                    }
                    Err(e) => {
                        // Durability degrades to the WAL alone; the
                        // next batch retries the checkpoint.
                        eprintln!("[ppgnn-server] checkpoint at v{current} failed: {e}");
                    }
                }
            }
            // Log-before-apply: a batch that cannot reach the platter
            // is refused outright, never half-admitted.
            if let Err(e) = st.wal.append(version, p.request_id, key.1, &p.ops) {
                send_error(
                    shaper,
                    stream,
                    p.request_id,
                    ErrorCode::Internal,
                    &format!("wal append failed; batch refused: {e}"),
                )?;
                return Ok(ConnAction::Continue);
            }
            // `DynamicLsp::apply` spans/times `index-mutate` itself.
            let (applied, published) = dyn_lsp.apply(&p.ops);
            debug_assert_eq!(published, version, "wal and index versions must agree");
            // Invalidate inside the lock so the remembered count is
            // the one this batch's ack carries — a later replayed ack
            // must echo it verbatim.
            let invalidated = shared.subscriptions.invalidate_for_ops(&p.ops, published);
            st.remember(key, published, applied as u32, invalidated as u32);
            st.ops_since_checkpoint += weight;
            (applied, published, invalidated)
        }
        None => {
            // `DynamicLsp::apply` spans/times `index-mutate` itself.
            let (applied, version) = dyn_lsp.apply(&p.ops);
            let invalidated = shared.subscriptions.invalidate_for_ops(&p.ops, version);
            (applied, version, invalidated)
        }
    };
    shared.stats.poi_updates.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .poi_ops
        .fetch_add(p.ops.len() as u64, Ordering::Relaxed);
    shared
        .stats
        .invalidations
        .fetch_add(invalidated as u64, Ordering::Relaxed);
    let ack = PoiUpdateAckPayload {
        request_id: p.request_id,
        version,
        applied: applied as u32,
        invalidated: invalidated as u32,
    };
    write_frame(stream, FrameType::PoiUpdateAck, &ack.encode())?;
    Ok(ConnAction::Continue)
}

/// Drops a standing query; idempotent — the confirming `Ended` push is
/// sent whether or not the subscription still existed.
fn handle_unsubscribe(
    shared: &Shared,
    shaper: &ResponseShaper,
    stream: &mut impl std::io::Write,
    payload: &[u8],
) -> Result<ConnAction, ServerError> {
    let u = match UnsubscribePayload::decode(payload) {
        Ok(u) => u,
        Err(e) => {
            send_error(
                shaper,
                stream,
                0,
                ErrorCode::MalformedPayload,
                &e.to_string(),
            )?;
            return Ok(ConnAction::Continue);
        }
    };
    if shared.subscriptions.remove(u.group_id, u.request_id) {
        shared.stats.unsubscribes.fetch_add(1, Ordering::Relaxed);
    }
    let ended = SubscriptionUpdatePayload {
        request_id: u.request_id,
        kind: SubscriptionKind::Ended,
        version: shared.world.version(),
        margin: 0.0,
        drift_scale: 1,
    };
    shaper.send(
        stream,
        FrameType::SubscriptionUpdate,
        &ended.encode(),
        Lane::Control,
    )?;
    Ok(ConnAction::Continue)
}

fn send_error(
    shaper: &ResponseShaper,
    stream: &mut impl std::io::Write,
    request_id: u32,
    code: ErrorCode,
    message: &str,
) -> Result<(), ServerError> {
    let payload = ErrorPayload {
        request_id,
        code,
        message: to_owned_capped(message),
    };
    shaper.send(stream, FrameType::Error, &payload.encode(), Lane::Control)
}

fn to_owned_capped(message: &str) -> String {
    const CAP: usize = 512;
    if message.len() <= CAP {
        message.to_owned()
    } else {
        let mut end = CAP;
        while !message.is_char_boundary(end) {
            end -= 1;
        }
        message[..end].to_owned()
    }
}

/// Decrements the live-worker gauge however the thread exits — normal
/// drain, deliberate post-panic exit, or an unwind escaping the loop.
struct LiveWorkerGuard<'a>(&'a ServerStats);

impl Drop for LiveWorkerGuard<'_> {
    fn drop(&mut self) {
        self.0.live_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(shared: Arc<Shared>, rx: JobQueue, index: u64) {
    shared.stats.live_workers.fetch_add(1, Ordering::SeqCst);
    let _guard = LiveWorkerGuard(&shared.stats);
    let mut rng = StdRng::seed_from_u64(shared.config.rng_seed.wrapping_add(index));
    loop {
        // The queue lock is held only while waiting: the guard drops at
        // the end of this statement. `recv` cannot panic, so a poisoned
        // lock still guards a sound receiver. `recv` returns Err only
        // when every sender is dropped AND the queue is empty — exactly
        // the drain semantics shutdown needs.
        let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(mut job) = next else { break };
        shared.stats.queued.fetch_sub(1, Ordering::SeqCst);
        if job.enqueued.elapsed() >= job.deadline {
            // Dropping the handle with the shed flag set commits the
            // segment as shed — always kept by tail sampling.
            if let Some(h) = &job.trace {
                let _a = h.activate();
                trace::mark_shed();
            }
            // An expired query still burns the latency SLO: it spent at
            // least a full deadline in the queue.
            telemetry::global().record_duration(Layer::ServeQuery, job.enqueued.elapsed());
            let _ = job.reply.send(Reply::Failure {
                request_id: job.request_id,
                code: ErrorCode::DeadlineExceeded,
                message: "deadline expired while queued".into(),
            });
            continue;
        }
        // Spans opened inside the engine (candidate-eval, crypto
        // batches, sanitation) land in this query's server segment.
        let active = job.trace.as_ref().map(|h| h.activate());
        // Engine panics must not take the reply channel down with them:
        // catch the unwind, turn it into a typed failure, then let this
        // worker die for the supervisor to replace — after an unwind
        // the engine's internal state is not worth trusting.
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut ledger = CostLedger::new();
            job.lsp
                .process_query(&job.query, &job.location_sets, &mut ledger, &mut rng)
        }));
        let reply = match caught {
            Ok(Ok(answer)) => Reply::Answer {
                request_id: job.request_id,
                two_phase: matches!(answer, AnswerMessage::TwoPhase(_)),
                answer: answer.to_wire(&job.query.pk),
            },
            Ok(Err(e)) => {
                trace::mark_error();
                Reply::Failure {
                    request_id: job.request_id,
                    code: ErrorCode::Protocol,
                    message: e.to_string(),
                }
            }
            Err(panic) => {
                trace::mark_error();
                shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                let detail = panic_message(&panic);
                let reply = Reply::Failure {
                    request_id: job.request_id,
                    code: ErrorCode::Internal,
                    message: format!(
                        "worker panicked processing request {} of group {}: {detail}",
                        job.request_id, job.group_id
                    ),
                };
                let _ = job.reply.send(reply);
                return; // the supervisor respawns a clean replacement
            }
        };
        // The segment finishes here: error flags set above survive
        // `finish`, which runs the tail-sampling keep decision.
        drop(active);
        if let Some(h) = job.trace.take() {
            h.finish();
        }
        telemetry::global().record_duration(Layer::ServeQuery, job.enqueued.elapsed());
        // A gone receiver means the connection died or timed out; the
        // query result is simply dropped.
        let _ = job.reply.send(reply);
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_default_passes_validation() {
        let built = ServerConfig::builder().build().unwrap();
        let default = ServerConfig::default();
        assert_eq!(built.workers, default.workers);
        assert_eq!(built.queue_depth, default.queue_depth);
        assert_eq!(built.max_payload, default.max_payload);
    }

    #[test]
    fn builder_setters_reach_the_config() {
        let c = ServerConfig::builder()
            .workers(7)
            .queue_depth(3)
            .max_connections(9)
            .default_deadline(Duration::from_millis(1234))
            .max_payload(4096)
            .rng_seed(0xfeed)
            .max_sessions(5)
            .session_idle_ttl(Duration::from_secs(60))
            .rate_limit_per_sec(10.0)
            .rate_limit_burst(20)
            .max_strikes(2)
            .build()
            .unwrap();
        assert_eq!(c.workers, 7);
        assert_eq!(c.queue_depth, 3);
        assert_eq!(c.max_connections, 9);
        assert_eq!(c.default_deadline, Duration::from_millis(1234));
        assert_eq!(c.max_payload, 4096);
        assert_eq!(c.rng_seed, 0xfeed);
        assert_eq!(c.max_sessions, 5);
        assert_eq!(c.session_idle_ttl, Duration::from_secs(60));
        assert_eq!(c.rate_limit_per_sec, 10.0);
        assert_eq!(c.rate_limit_burst, 20);
        assert_eq!(c.max_strikes, 2);
    }

    #[test]
    fn builder_rejects_degenerate_knobs() {
        // Each case names the offending knob in its error message.
        let cases: [(ServerConfigBuilder, &str); 8] = [
            (ServerConfig::builder().workers(0), "workers"),
            (
                ServerConfig::builder().max_connections(0),
                "max_connections",
            ),
            (ServerConfig::builder().queue_depth(0), "queue_depth"),
            (
                ServerConfig::builder().default_deadline(Duration::ZERO),
                "default_deadline",
            ),
            (ServerConfig::builder().max_payload(63), "max_payload"),
            (ServerConfig::builder().max_sessions(0), "max_sessions"),
            (
                ServerConfig::builder().session_idle_ttl(Duration::ZERO),
                "session_idle_ttl",
            ),
            (ServerConfig::builder().max_strikes(0), "max_strikes"),
        ];
        for (builder, knob) in cases {
            let err = builder.build().unwrap_err();
            assert!(
                err.to_string().contains(knob),
                "error {err} does not name {knob}"
            );
        }
    }

    #[test]
    fn builder_rejects_inconsistent_rate_limiting() {
        let err = ServerConfig::builder()
            .rate_limit_per_sec(5.0)
            .rate_limit_burst(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("rate_limit_burst"));

        let err = ServerConfig::builder()
            .rate_limit_per_sec(f64::NAN)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("rate_limit_per_sec"));

        // Zero per-sec disables limiting entirely; burst is then moot.
        assert!(ServerConfig::builder()
            .rate_limit_per_sec(0.0)
            .rate_limit_burst(0)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_zero_timeouts() {
        for builder in [
            ServerConfig::builder().frame_read_timeout(Duration::ZERO),
            ServerConfig::builder().write_timeout(Duration::ZERO),
        ] {
            let err = builder.build().unwrap_err();
            assert!(err.to_string().contains("timeout"));
        }
    }

    #[test]
    fn builder_rejects_degenerate_shape_policies() {
        // Envelope below the Hello admission floor: every handshake
        // the server would otherwise accept bursts the padding.
        let err = ServerConfig::builder()
            .shape(ShapePolicy::padded(16, 4, Duration::from_millis(200)))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("min_key_bits"), "{err}");

        let err = ServerConfig::builder()
            .shape(ShapePolicy::padded(128, 0, Duration::from_millis(200)))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("max_k"), "{err}");

        let err = ServerConfig::builder()
            .shape(ShapePolicy::padded(128, 4, Duration::ZERO))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("latency_quantum"), "{err}");

        // Answer target past the frame cap: clients would reject every
        // padded answer against their own max_payload.
        let err = ServerConfig::builder()
            .shape(ShapePolicy::padded(4096, 64, Duration::from_millis(200)))
            .max_payload(1024)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("max_payload"), "{err}");
    }

    #[test]
    fn builder_accepts_a_sound_padded_policy() {
        let policy = ShapePolicy::padded(128, 8, Duration::from_millis(200));
        let c = ServerConfig::builder().shape(policy).build().unwrap();
        assert_eq!(c.shape, policy);
        assert!(c.shape.answer_target() > 0);
    }

    #[test]
    fn retry_hints_jitter_within_the_advertised_band() {
        let config = ServerConfig::builder().rng_seed(7).build().unwrap();
        let shared = Shared {
            world: World::Static(Arc::new(Lsp::new(Vec::new(), PpgnnConfig::fast_test()))),
            config,
            registry: SessionRegistry::new(),
            subscriptions: SubscriptionRegistry::new(16),
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            started: Instant::now(),
            obs: Observability::new(None),
            epoch: 0,
            durable: None,
            recovery: None,
            busy_seq: AtomicU64::new(0),
        };
        let lo = RETRY_AFTER_MS - (RETRY_AFTER_MS / 2).max(1) / 2;
        let hi = lo + (RETRY_AFTER_MS / 2).max(1);
        let hints: Vec<u32> = (0..64).map(|_| shared.retry_after_hint()).collect();
        assert!(
            hints.iter().all(|&h| (lo..=hi).contains(&h)),
            "hint outside [{lo}, {hi}]: {hints:?}"
        );
        // Jitter actually jitters: a constant stream would re-create
        // the synchronized retry herd the hint exists to break up.
        assert!(hints.iter().any(|&h| h != hints[0]), "{hints:?}");
    }
}
