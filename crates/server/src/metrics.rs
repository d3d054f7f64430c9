//! Server-side observability: windowed telemetry, SLO burn
//! accounting, and the OpenMetrics scrape endpoint (DESIGN.md §18).
//!
//! The cumulative registry in [`ppgnn_telemetry`] answers "what has
//! this process done since boot"; this module adds the time dimension
//! and the operator-facing faces on top:
//!
//! * a **ticker thread** drives a [`WindowRing`] at 1 Hz on a
//!   deadline-anchored schedule, feeding it this server's own metrics
//!   read through its [`ServerMetric`] name table;
//! * each tick recomputes the four **SLO burn rates** (latency and
//!   error budget, fast and slow window) that ride every `Pong`;
//! * a second listener serves `GET /metrics` (OpenMetrics text, with
//!   the per-op cost constants computed from the window at render time)
//!   and `GET /healthz` (the health snapshot as JSON). Both faces emit
//!   only closed-enum names and integer magnitudes — never
//!   coordinates, POI ids, group ids, or any other per-session data —
//!   enforced by `tests/metrics_redaction.rs`.
//!
//! The legacy latency-percentile helpers for `loadgen` are re-exported
//! unchanged from the shared telemetry crate.

pub use ppgnn_telemetry::{percentile, summarize, LatencySummary};

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppgnn_telemetry::openmetrics::{self, SloBurn};
use ppgnn_telemetry::window::{WindowRing, WindowedSnapshot, DEFAULT_CAPACITY, DEFAULT_INTERVAL};
use ppgnn_telemetry::{self as telemetry, Layer, ServerMetric};

use crate::server::{full_snapshot, health_snapshot, read_metrics, Shared};

/// Declarative service-level objectives: the latency and error budgets
/// the burn rates in [`ppgnn_telemetry::HealthSnapshot`] are measured
/// against.
///
/// A burn rate of 1000 permille means the service is consuming its
/// error budget exactly as fast as the objective allows; sustained
/// values above 1000 on the slow window mean the objective will be
/// missed. The fast window catches sharp regressions (page), the slow
/// window catches slow leaks (ticket) — the standard multi-window
/// burn-rate alerting shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloConfig {
    /// A query slower than this burns the latency budget. Measured on
    /// [`Layer::ServeQuery`] (enqueue → reply, queue wait included).
    pub latency_target_us: u64,
    /// Fraction of queries allowed over the latency target, in parts
    /// per million (50_000 = 5 %).
    pub latency_budget_ppm: u32,
    /// Fraction of queries allowed to fail, in parts per million.
    pub error_budget_ppm: u32,
    /// Short burn window (sharp-regression signal).
    pub fast_window: Duration,
    /// Long burn window (slow-leak signal). Must fit the telemetry
    /// ring: at most [`DEFAULT_CAPACITY`] × [`DEFAULT_INTERVAL`].
    pub slow_window: Duration,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            latency_target_us: 100_000,
            latency_budget_ppm: 50_000,
            error_budget_ppm: 10_000,
            fast_window: Duration::from_secs(10),
            slow_window: Duration::from_secs(60),
        }
    }
}

/// Burn-rate atomics: latency-fast, latency-slow, error-fast,
/// error-slow — the order of the `slo-*` entries in the server's
/// metric table.
const BURN_SLOTS: usize = 4;

/// The server's windowed-observability state, one per [`Shared`].
pub(crate) struct Observability {
    windows: Mutex<WindowRing>,
    slo: Option<SloConfig>,
    burns: [AtomicU32; BURN_SLOTS],
}

/// Recovers from a poisoned observability lock: every critical section
/// leaves the ring structurally consistent (worst case a lost tick), so
/// serving stale telemetry beats wedging the scrape path.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl Observability {
    /// Fresh state with an empty window ring.
    pub(crate) fn new(slo: Option<SloConfig>) -> Self {
        Observability {
            windows: Mutex::new(WindowRing::new(DEFAULT_INTERVAL, DEFAULT_CAPACITY)),
            slo,
            burns: [const { AtomicU32::new(0) }; BURN_SLOTS],
        }
    }

    /// One observation cycle: capture an interval delta of the global
    /// registry plus this server's metrics, and recompute the SLO burn
    /// rates. Driven by the ticker thread and by
    /// [`crate::ServerHandle::flush_windows`]. The metrics are `read`
    /// under the ring lock, so two racing ticks cannot store their
    /// counter readings out of order.
    fn tick(&self, read: impl FnOnce() -> [Option<u64>; ServerMetric::COUNT]) {
        let mut ring = lock(&self.windows);
        ring.tick(telemetry::global(), &read());
        let Some(slo) = self.slo else { return };
        // Slots 0/1 burn the latency budget, 2/3 the error budget, each
        // over the fast then the slow window.
        for (i, window) in [slo.fast_window, slo.slow_window].into_iter().enumerate() {
            let iv = ring.interval().as_millis().max(1);
            let n = window.as_millis().div_ceil(iv).max(1) as usize;
            let (over, total) =
                ring.stage_over_threshold(Layer::ServeQuery, n, slo.latency_target_us);
            let err = ring.server_delta(ServerMetric::QueriesErr, n);
            let ok = ring.server_delta(ServerMetric::QueriesOk, n);
            let latency = burn_permille(over, total, slo.latency_budget_ppm);
            self.burns[i].store(latency, Ordering::Relaxed);
            let errors = burn_permille(err, err + ok, slo.error_budget_ppm);
            self.burns[2 + i].store(errors, Ordering::Relaxed);
        }
    }

    /// The windowed snapshot over the newest `intervals` ticks.
    pub(crate) fn windowed(&self, intervals: usize) -> WindowedSnapshot {
        lock(&self.windows).windowed(intervals)
    }

    /// Burn rate `slot` (latency-fast, latency-slow, error-fast,
    /// error-slow); `None` without an SLO, when burns mean nothing.
    pub(crate) fn burn(&self, slot: usize) -> Option<u64> {
        self.slo
            .map(|_| u64::from(self.burns[slot].load(Ordering::Relaxed)))
    }

    /// Burn samples for the scrape body; empty without an SLO.
    fn slo_burns(&self) -> Vec<SloBurn> {
        [
            ("latency", "fast"),
            ("latency", "slow"),
            ("errors", "fast"),
            ("errors", "slow"),
        ]
        .into_iter()
        .enumerate()
        .filter_map(|(slot, (objective, window))| {
            Some(SloBurn {
                objective,
                window,
                burn_pm: self.burn(slot)?,
            })
        })
        .collect()
    }
}

/// `over/total` as a permille of the budget: 1000 = burning exactly at
/// the allowed rate. 0 when nothing happened (no traffic burns no
/// budget); saturates at `u32::MAX` instead of overflowing when the
/// budget is tiny and everything violates.
fn burn_permille(over: u64, total: u64, budget_ppm: u32) -> u32 {
    if total == 0 || budget_ppm == 0 {
        return 0;
    }
    let num = (over as u128) * 1_000_000_000u128;
    let den = (total as u128) * (budget_ppm as u128);
    (num / den).min(u32::MAX as u128) as u32
}

/// One observation cycle against the server's live metrics — the
/// single entry point both the ticker and `flush_windows` share.
pub(crate) fn observability_tick(shared: &Shared) {
    shared.obs.tick(|| read_metrics(shared));
}

/// Spawns the 1 Hz observability ticker. Ticks are anchored to a
/// deadline schedule (`next += interval`) so a slow tick does not
/// shift every later one; a tick delayed past a full interval skips
/// the missed deadlines instead of bursting to catch up.
pub(crate) fn spawn_ticker(shared: Arc<Shared>) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("ppgnn-obs-ticker".into())
        .spawn(move || {
            let interval = DEFAULT_INTERVAL;
            let mut next = Instant::now() + interval;
            while !shared.shutdown.load(Ordering::SeqCst) {
                let now = Instant::now();
                if now < next {
                    // Short naps so shutdown is noticed within ~50 ms.
                    std::thread::sleep((next - now).min(Duration::from_millis(50)));
                    continue;
                }
                next += interval;
                if next < Instant::now() {
                    next = Instant::now() + interval;
                }
                observability_tick(&shared);
            }
        })
}

/// Largest accepted scrape request head; `/metrics` needs ~20 bytes,
/// anything bigger is not a scraper.
const MAX_REQUEST_BYTES: usize = 4096;
/// Socket deadlines on the scrape listener: a stuck scraper loses its
/// connection, never a listener slot.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Binds the metrics listener and serves `GET /metrics` and
/// `GET /healthz` until shutdown. Single-threaded by design: scrape
/// bodies are built in microseconds, scrapers poll at ≥1 s intervals,
/// and one thread bounds the blast radius of a misbehaving scraper.
pub(crate) fn spawn_metrics_listener(
    addr: &str,
    shared: Arc<Shared>,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("ppgnn-metrics".into())
        .spawn(move || {
            while !shared.shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = serve_scrape(stream, &shared);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        })?;
    Ok((local_addr, handle))
}

/// The `/metrics` scrape body: cumulative + windowed + cost + burn
/// families, rendered by the shared [`openmetrics`] module. The cost
/// constants are the whole ring's window means, labelled with the
/// dominant session key size.
pub(crate) fn render_scrape(shared: &Shared) -> String {
    let snap = full_snapshot(shared);
    let windowed = {
        let ring = lock(&shared.obs.windows);
        (!ring.is_empty()).then(|| ring.windowed(ring.len()))
    };
    let key_bits = shared.registry.dominant_key_bits();
    let burns = shared.obs.slo_burns();
    openmetrics::render(&snap, windowed.as_ref(), key_bits, &burns)
}

/// Answers one scrape connection: reads the request head under a
/// deadline, routes GET `/metrics` / `/healthz`, writes one response,
/// closes. No keep-alive — scrapers reconnect per poll and a closed
/// connection can never wedge the listener.
fn serve_scrape(mut stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(SCRAPE_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_TIMEOUT))?;
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = match (method, path) {
        ("GET", "/metrics") => (
            "200 OK",
            "application/openmetrics-text; version=1.0.0; charset=utf-8",
            render_scrape(shared),
        ),
        ("GET", "/healthz") => {
            let health = health_snapshot(shared);
            let status = if health.live_workers > 0 {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            (status, "application/json", health.to_json())
        }
        ("GET", _) => ("404 Not Found", "text/plain", "not found\n".into()),
        _ => (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".into(),
        ),
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
