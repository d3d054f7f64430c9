//! # ppgnn-server — the networked LSP
//!
//! The rest of the workspace runs the PPGNN protocols in-process with a
//! byte-exact cost ledger; this crate puts the LSP (Algorithm 2) behind
//! a real TCP service and gives groups a client for the coordinator
//! side (Algorithm 1):
//!
//! * [`frame`] — the length-prefixed, versioned frame layer wrapping
//!   the [`ppgnn_core::wire`] encodings; decoding never panics;
//! * [`registry`] — negotiated public session parameters per group ID,
//!   so frames decode against the right [`ppgnn_core::wire::WireContext`];
//! * [`server`] — acceptor + supervised bounded worker pool sharing one
//!   `Arc<Lsp>`, with per-request deadlines, `Busy` load shedding,
//!   per-session answer replay for idempotent retries, and graceful
//!   drain on shutdown;
//! * [`client`] — [`client::GroupClient`], one group's connection, with
//!   budgeted retry, backoff, and reconnect-resume built in;
//! * [`backoff`] — the client's jittered exponential retry schedule;
//! * [`fault`] — seeded fault injection ([`fault::FaultyStream`]) for
//!   chaos testing the whole stack;
//! * [`validate`] — the hostile-client validation gate (typed
//!   [`validate::ProtocolViolation`]s) and the per-connection
//!   [`validate::TokenBucket`] rate limiter;
//! * [`mallory`] — the seeded adversarial attack catalog driven by the
//!   `mallory` binary and the hostile soak tests;
//! * [`shape`] — the constant-shape response policy: frame padding to
//!   policy-bound targets and latency quantization (DESIGN.md §16);
//! * [`observer`] — the passive network adversary behind the
//!   `observer` binary: records (size, latency) distributions across
//!   known-different workloads and runs a permutation
//!   Kolmogorov–Smirnov distinguishability test against them;
//! * [`soak`] — the moving-world soak: standing queries over a churning
//!   world, checked against a plaintext oracle, on an in-process server
//!   or on a child `ppgnn-server` it SIGKILLs and restarts at fixed
//!   ticks;
//! * [`wal`] — crash durability for the live world: a CRC-framed
//!   write-ahead log of admitted `PoiOp` batches, atomic checkpoints,
//!   and torn-tail-tolerant recovery replay;
//! * [`metrics`] — latency percentiles for the `loadgen` binary
//!   (re-exported from [`ppgnn_telemetry`], the shared observability
//!   crate that also backs the `Stats`/`Pong` snapshots).
//!
//! ```no_run
//! use std::sync::Arc;
//! use ppgnn_core::{Lsp, PpgnnConfig};
//! use ppgnn_geo::{Point, Poi, Rect};
//! use ppgnn_server::{serve_world, GroupClient, ServerConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let config = PpgnnConfig { k: 2, d: 3, delta: 6, sanitize: false, ..PpgnnConfig::fast_test() };
//! let pois: Vec<Poi> = (0..100)
//!     .map(|i| Poi::new(i, Point::new((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0)))
//!     .collect();
//! let lsp = Arc::new(Lsp::new(pois, config.clone()));
//! let handle = serve_world(lsp, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut client =
//!     GroupClient::connect(handle.local_addr(), 1, config, Rect::UNIT, 2, &mut rng).unwrap();
//! let answer = client
//!     .query(&[Point::new(0.2, 0.2), Point::new(0.4, 0.3)], &mut rng)
//!     .unwrap();
//! assert!(!answer.is_empty());
//! handle.shutdown();
//! ```

pub mod backoff;
pub mod client;
pub mod error;
pub mod fault;
pub mod frame;
pub mod mallory;
pub mod metrics;
pub mod observer;
pub mod registry;
pub mod server;
pub mod shape;
pub mod soak;
pub mod subscription;
pub mod validate;
pub mod wal;

pub use backoff::{BackoffSchedule, RetryPolicy};
pub use client::{
    session_params_for, sessionless_exchange, ClientStats, GroupClient, SafeRegionToken,
    WireObservation,
};
pub use error::{ErrorCode, ServerError};
pub use fault::{FaultAction, FaultConfig, FaultPlan, FaultyStream, Transport};
pub use frame::{
    Frame, FrameType, PoiUpdateAckPayload, PoiUpdatePayload, PongPayload, StatsReplyPayload,
    SubscriptionKind, SubscriptionUpdatePayload, TraceReplyPayload, UnsubscribePayload,
};
pub use mallory::{Attack, AttackContext, MalloryOutcome, MalloryReport, ATTACK_CATALOG};
pub use metrics::{percentile, summarize, LatencySummary, SloConfig};
pub use observer::{run_observer, ChannelVerdict, ObserverConfig, ObserverReport, ScenarioResult};
pub use ppgnn_telemetry::{HealthSnapshot, StageSnapshot, TelemetrySnapshot};
pub use registry::{
    CachedAnswer, RegistryLimits, SessionParams, SessionRegistry, SessionTableFull,
};
pub use server::{
    serve_world, ConfigError, ServerConfig, ServerConfigBuilder, ServerHandle, ServerStats,
    StatsProbe, World, WorldSeed,
};
pub use shape::{Lane, ShapeMode, ShapePolicy};
pub use soak::{run_soak, SoakConfig, SoakReport, SoakServer};
pub use subscription::{
    compute_regions, CandidateRegion, SafeRegionSummary, Subscription, SubscriptionRegistry,
};
pub use validate::{HelloPolicy, ProtocolViolation, TokenBucket};
pub use wal::{DurabilityConfig, FsyncPolicy, Recovered, ReplayBatch, Wal, WalError};
