//! # Per-query distributed tracing with privacy redaction.
//!
//! Aggregate histograms (the rest of this crate) answer "how slow is the
//! pipeline"; this module answers "why was *this* query slow". One query
//! yields one **trace**: a [`TraceContext`] minted client-side, carried
//! in the frame v5 query header, and resumed server-side, so the spans
//! recorded in both processes share a trace id and assemble into a
//! single cross-process tree.
//!
//! ## Redaction is structural
//!
//! Traces of a *privacy-preserving* system are themselves a leak vector:
//! a span named after a POI, or an attribute holding a coordinate, would
//! undo the protocol's guarantees for anyone who can read the trace
//! buffer. Redaction is therefore enforced at span-creation time by the
//! type system, not by a scrubbing pass: spans open only through
//! [`crate::enter`] and are named by the closed [`Layer`] table,
//! attribute keys come from the closed [`AttrKey`] enum, and attribute
//! values are bare `u64` sizes/counts/durations. There is no API through
//! which a coordinate, POI id, dummy index, or plaintext distance can
//! enter a trace.
//!
//! ## Tail-based sampling
//!
//! Every traced query records spans while in flight; whether the
//! finished segment is *kept* is decided at the end (tail-based):
//! error/shed segments and segments slower than the configured
//! threshold are always kept, the rest are kept with a probability
//! derived deterministically from the trace id — so the client half and
//! the server half of one query always agree on the probabilistic
//! decision. Kept segments go into a fixed-capacity ring buffer
//! (oldest evicted first) and slow ones can additionally be emitted as
//! one-line JSON on stderr (the slow-query log).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json;
use crate::{splitmix64, Cursor, Layer, Op, SnapshotDecodeError};

// ---------------------------------------------------------------------------
// TraceContext — the 16-byte wire header
// ---------------------------------------------------------------------------

/// Encoded size of a [`TraceContext`] in the frame v5 query header.
pub const TRACE_CONTEXT_BYTES: usize = 16;

/// The sampling bit, folded into the top bit of the trace id on the
/// wire (trace ids proper are 63-bit).
const SAMPLED_BIT: u64 = 1 << 63;

/// The per-query trace identity carried across the wire: a 63-bit trace
/// id, the client's root span id (so server spans attach under it), and
/// the sampling decision, folded into 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Trace id with the sampled flag in the top bit.
    id_and_flag: u64,
    /// Span id of the client-side root span; server segments parent here.
    parent_span: u64,
}

/// Typed decode failure for a [`TraceContext`] header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceWireError {
    /// Fewer than [`TRACE_CONTEXT_BYTES`] bytes.
    Truncated,
    /// The 63-bit trace id is zero (reserved as "no trace").
    ZeroTraceId,
    /// The parent span id is zero (the client always mints a root span).
    ZeroParentSpan,
}

impl TraceWireError {
    /// Stable short description (used for `Malformed` frame errors).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceWireError::Truncated => "trace context truncated",
            TraceWireError::ZeroTraceId => "zero trace id",
            TraceWireError::ZeroParentSpan => "zero parent span id",
        }
    }
}

impl std::fmt::Display for TraceWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::error::Error for TraceWireError {}

impl TraceContext {
    /// Builds a context from its parts. `trace_id` is masked to 63 bits
    /// and must be nonzero, as must `parent_span`.
    pub fn new(trace_id: u64, parent_span: u64, sampled: bool) -> TraceContext {
        let id = trace_id & !SAMPLED_BIT;
        debug_assert!(id != 0, "trace id must be nonzero");
        debug_assert!(parent_span != 0, "parent span must be nonzero");
        TraceContext {
            id_and_flag: id | if sampled { SAMPLED_BIT } else { 0 },
            parent_span,
        }
    }

    /// The 63-bit trace id (sampling flag stripped).
    pub fn trace_id(&self) -> u64 {
        self.id_and_flag & !SAMPLED_BIT
    }

    /// Whether the minting client decided to record spans for this query.
    pub fn sampled(&self) -> bool {
        self.id_and_flag & SAMPLED_BIT != 0
    }

    /// The client root span id server-side spans attach under.
    pub fn parent_span(&self) -> u64 {
        self.parent_span
    }

    /// Fixed 16-byte little-endian encoding.
    pub fn to_wire(&self) -> [u8; TRACE_CONTEXT_BYTES] {
        let mut out = [0u8; TRACE_CONTEXT_BYTES];
        out[..8].copy_from_slice(&self.id_and_flag.to_le_bytes());
        out[8..].copy_from_slice(&self.parent_span.to_le_bytes());
        out
    }

    /// Inverse of [`TraceContext::to_wire`]; typed errors, never panics.
    pub fn from_wire(buf: &[u8]) -> Result<TraceContext, TraceWireError> {
        if buf.len() < TRACE_CONTEXT_BYTES {
            return Err(TraceWireError::Truncated);
        }
        let id_and_flag = u64::from_le_bytes(buf[..8].try_into().unwrap());
        let parent_span = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        if id_and_flag & !SAMPLED_BIT == 0 {
            return Err(TraceWireError::ZeroTraceId);
        }
        if parent_span == 0 {
            return Err(TraceWireError::ZeroParentSpan);
        }
        Ok(TraceContext {
            id_and_flag,
            parent_span,
        })
    }
}

// ---------------------------------------------------------------------------
// Redacted attribute vocabulary
// ---------------------------------------------------------------------------

/// The closed set of span attribute keys. Values are always bare
/// `u64` sizes, counts, or durations — never identifiers of user data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AttrKey {
    /// Candidate location-set count evaluated.
    Candidates = 1,
    /// Users (location sets) in the group query.
    Users = 2,
    /// Per-user location-set length δ′.
    SetLen = 3,
    /// Payload bytes encoded/decoded.
    Bytes = 4,
    /// Prefix length under test in sanitation.
    PrefixLen = 5,
    /// Targets (POIs) surviving a sanitation pass.
    Survivors = 6,
    /// Ciphertexts touched by a crypto batch.
    Ciphertexts = 7,
    /// Client retry attempts consumed.
    Retries = 8,
    /// Live subscriptions scanned after a mutation.
    Subscriptions = 9,
    /// Subscriptions whose safe region a mutation invalidated.
    Invalidated = 10,
    /// POI mutations in an update batch.
    PoiOps = 11,
    /// WAL records appended, replayed, or dropped.
    Records = 12,
}

impl AttrKey {
    /// Every attribute key, in tag order.
    pub const ALL: [AttrKey; 12] = [
        AttrKey::Candidates,
        AttrKey::Users,
        AttrKey::SetLen,
        AttrKey::Bytes,
        AttrKey::PrefixLen,
        AttrKey::Survivors,
        AttrKey::Ciphertexts,
        AttrKey::Retries,
        AttrKey::Subscriptions,
        AttrKey::Invalidated,
        AttrKey::PoiOps,
        AttrKey::Records,
    ];

    /// The stable kebab-case key.
    pub fn name(self) -> &'static str {
        match self {
            AttrKey::Candidates => "candidates",
            AttrKey::Users => "users",
            AttrKey::SetLen => "set-len",
            AttrKey::Bytes => "bytes",
            AttrKey::PrefixLen => "prefix-len",
            AttrKey::Survivors => "survivors",
            AttrKey::Ciphertexts => "ciphertexts",
            AttrKey::Retries => "retries",
            AttrKey::Subscriptions => "subscriptions",
            AttrKey::Invalidated => "invalidated",
            AttrKey::PoiOps => "poi-ops",
            AttrKey::Records => "records",
        }
    }

    /// Wire tag → attribute key.
    pub fn from_tag(tag: u8) -> Option<AttrKey> {
        AttrKey::ALL.into_iter().find(|k| *k as u8 == tag)
    }
}

/// Which process recorded a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SegmentOrigin {
    /// The group coordinator (`GroupClient`).
    Client = 0,
    /// The LSP server.
    Server = 1,
}

impl SegmentOrigin {
    /// The stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            SegmentOrigin::Client => "client",
            SegmentOrigin::Server => "server",
        }
    }
}

// ---------------------------------------------------------------------------
// Finished spans and segments
// ---------------------------------------------------------------------------

/// One finished span: a named, timed slice of the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub span_id: u64,
    /// Parent span id within this segment; 0 marks the segment root.
    pub parent_id: u64,
    /// Redacted name: always a traced layer ([`Layer::tag`] is set).
    pub name: Layer,
    /// Start, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Redacted attributes (sizes, counts — never user data).
    pub attrs: Vec<(AttrKey, u64)>,
}

/// One process's half of a trace: every span the process recorded for
/// one query, plus the per-query op counts and outcome flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSegment {
    /// 63-bit trace id shared with the other process's segment.
    pub trace_id: u64,
    /// Which side recorded this segment.
    pub origin: SegmentOrigin,
    /// For server segments: the client span id to attach under (the
    /// context's parent span). 0 for client segments.
    pub parent_span: u64,
    /// The query errored (typed failure, panic, or abandoned trace).
    pub error: bool,
    /// The query was shed (deadline exceeded, queue full, rate limited).
    pub shed: bool,
    /// The segment root exceeded the slow threshold.
    pub slow: bool,
    /// Finished spans, in completion order (root last).
    pub spans: Vec<SpanRecord>,
    /// Spans discarded once the per-segment cap was hit.
    pub spans_dropped: u32,
    /// Op counts attributed to this query, indexed like [`Op::ALL`].
    pub ops: [u64; Op::COUNT],
}

impl TraceSegment {
    /// The segment's root span (parent id 0), if any survived the cap.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().rev().find(|s| s.parent_id == 0)
    }

    /// Root duration in microseconds (0 when the root was dropped).
    pub fn dur_us(&self) -> u64 {
        self.root().map(|r| r.dur_us).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Thread-local active trace
// ---------------------------------------------------------------------------

struct OpenSpan {
    span_id: u64,
    parent_id: u64,
    name: Layer,
    start_us: u64,
    start: Instant,
    attrs: Vec<(AttrKey, u64)>,
}

struct ActiveTrace {
    tracer: Tracer,
    trace_id: u64,
    origin: SegmentOrigin,
    parent_span: u64,
    open: Vec<OpenSpan>,
    spans: Vec<SpanRecord>,
    spans_dropped: u32,
    ops: [u64; Op::COUNT],
    error: bool,
    shed: bool,
}

impl ActiveTrace {
    fn close_top(&mut self) {
        let Some(top) = self.open.pop() else { return };
        let max = self.tracer.inner.max_spans.load(Ordering::Relaxed) as usize;
        if self.spans.len() >= max {
            self.spans_dropped += 1;
            return;
        }
        self.spans.push(SpanRecord {
            span_id: top.span_id,
            parent_id: top.parent_id,
            name: top.name,
            start_us: top.start_us,
            dur_us: top.start.elapsed().as_micros().min(u64::MAX as u128) as u64,
            attrs: top.attrs,
        });
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// Tracer knobs; applied with [`Tracer::configure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracerConfig {
    /// Master switch. Off (the default) makes minting return unsampled
    /// contexts and every span call a no-op.
    pub enabled: bool,
    /// Tail-sampling slow threshold: a segment whose root span is at
    /// least this many microseconds is always kept.
    pub slow_us: u64,
    /// Keep probability (per mille) for segments that are neither slow
    /// nor error/shed. Derived from the trace id, so both halves of a
    /// query agree.
    pub keep_permille: u32,
    /// Ring-buffer capacity in kept segments (oldest evicted first).
    pub capacity: usize,
    /// Emit one JSON line on stderr per kept slow segment.
    pub slow_log: bool,
    /// Per-segment span cap; further spans are counted, not stored.
    pub max_spans: usize,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            enabled: false,
            slow_us: 100_000,
            keep_permille: 100,
            capacity: 256,
            slow_log: false,
            max_spans: 192,
        }
    }
}

/// Cumulative tail-sampling counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TracerCounters {
    /// Segments finished (kept + dropped).
    pub finished: u64,
    /// Segments kept in the ring.
    pub kept: u64,
    /// Kept segments that were over the slow threshold.
    pub kept_slow: u64,
    /// Kept segments with the error or shed flag.
    pub kept_error: u64,
    /// Segments dropped by the probabilistic tail decision.
    pub dropped: u64,
}

struct TracerInner {
    enabled: AtomicBool,
    slow_us: AtomicU64,
    keep_permille: AtomicU64,
    slow_log: AtomicBool,
    max_spans: AtomicU64,
    capacity: AtomicU64,
    ring: Mutex<std::collections::VecDeque<TraceSegment>>,
    finished: AtomicU64,
    kept: AtomicU64,
    kept_slow: AtomicU64,
    kept_error: AtomicU64,
    dropped: AtomicU64,
}

/// The lock-light trace collector: mints/resumes contexts, owns the
/// kept-segment ring buffer, and applies the tail-sampling policy.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static ID_SEED: OnceLock<u64> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn id_seed() -> u64 {
    *ID_SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0x5eed);
        // Mix in an ASLR-dependent address so two processes started the
        // same nanosecond still diverge.
        nanos ^ (&NEXT_ID as *const _ as u64)
    })
}

/// Process-unique nonzero id (span ids; trace ids mask to 63 bits).
fn next_id() -> u64 {
    loop {
        let n = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(&mut id_seed().wrapping_add(n));
        if id != 0 {
            return id;
        }
    }
}

/// Microseconds since the process trace epoch.
fn epoch_us() -> u64 {
    EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_micros()
        .min(u64::MAX as u128) as u64
}

impl Tracer {
    /// A fresh, disabled tracer with default knobs.
    pub fn new() -> Tracer {
        let d = TracerConfig::default();
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(d.enabled),
                slow_us: AtomicU64::new(d.slow_us),
                keep_permille: AtomicU64::new(d.keep_permille as u64),
                slow_log: AtomicBool::new(d.slow_log),
                max_spans: AtomicU64::new(d.max_spans as u64),
                capacity: AtomicU64::new(d.capacity as u64),
                ring: Mutex::new(std::collections::VecDeque::new()),
                finished: AtomicU64::new(0),
                kept: AtomicU64::new(0),
                kept_slow: AtomicU64::new(0),
                kept_error: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Applies `config`; safe to call while traffic is flowing.
    pub fn configure(&self, config: &TracerConfig) {
        let i = &self.inner;
        i.slow_us.store(config.slow_us, Ordering::Relaxed);
        i.keep_permille
            .store(config.keep_permille as u64, Ordering::Relaxed);
        i.slow_log.store(config.slow_log, Ordering::Relaxed);
        i.max_spans
            .store(config.max_spans as u64, Ordering::Relaxed);
        i.capacity
            .store(config.capacity.max(1) as u64, Ordering::Relaxed);
        i.enabled.store(config.enabled, Ordering::Relaxed);
        let mut ring = self.lock_ring();
        while ring.len() > config.capacity.max(1) {
            ring.pop_front();
        }
    }

    /// Whether span recording is on.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    fn lock_ring(&self) -> std::sync::MutexGuard<'_, std::collections::VecDeque<TraceSegment>> {
        self.inner.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mints a fresh context for one client query and, when tracing is
    /// on, the [`TraceHandle`] that will record its client segment. The
    /// context is always returned — frame v5 carries one per query —
    /// but it is unsampled when tracing is off.
    pub fn start(&self) -> (TraceContext, Option<TraceHandle>) {
        let trace_id = loop {
            let id = next_id() & !SAMPLED_BIT;
            if id != 0 {
                break id;
            }
        };
        let root_span = next_id();
        let sampled = self.enabled() && cfg!(not(feature = "noop"));
        let ctx = TraceContext::new(trace_id, root_span, sampled);
        if !sampled {
            return (ctx, None);
        }
        let handle = self.open_segment(
            trace_id,
            SegmentOrigin::Client,
            0,
            Layer::ClientQuery,
            root_span,
        );
        (ctx, Some(handle))
    }

    /// Resumes a client-minted context server-side: returns the handle
    /// that records this query's server segment, or `None` when the
    /// context is unsampled or tracing is off here.
    pub fn resume(&self, ctx: &TraceContext) -> Option<TraceHandle> {
        if !ctx.sampled() || !self.enabled() || cfg!(feature = "noop") {
            return None;
        }
        Some(self.open_segment(
            ctx.trace_id(),
            SegmentOrigin::Server,
            ctx.parent_span(),
            Layer::ServerQuery,
            next_id(),
        ))
    }

    fn open_segment(
        &self,
        trace_id: u64,
        origin: SegmentOrigin,
        parent_span: u64,
        root_name: Layer,
        root_span: u64,
    ) -> TraceHandle {
        let root = OpenSpan {
            span_id: root_span,
            parent_id: 0,
            name: root_name,
            start_us: epoch_us(),
            start: Instant::now(),
            attrs: Vec::new(),
        };
        let at = ActiveTrace {
            tracer: self.clone(),
            trace_id,
            origin,
            parent_span,
            open: vec![root],
            spans: Vec::new(),
            spans_dropped: 0,
            ops: [0; Op::COUNT],
            error: false,
            shed: false,
        };
        TraceHandle {
            slot: Arc::new(Mutex::new(Some(at))),
        }
    }

    /// Tail decision + commit of one finished segment.
    fn commit(&self, mut at: ActiveTrace, implicit_error: bool) {
        // Close any span left open (the root at minimum).
        while !at.open.is_empty() {
            at.close_top();
        }
        let error = at.error || implicit_error;
        let slow_us = self.inner.slow_us.load(Ordering::Relaxed);
        let mut seg = TraceSegment {
            trace_id: at.trace_id,
            origin: at.origin,
            parent_span: at.parent_span,
            error,
            shed: at.shed,
            slow: false,
            spans: at.spans,
            spans_dropped: at.spans_dropped,
            ops: at.ops,
        };
        seg.slow = seg.dur_us() >= slow_us;
        self.inner.finished.fetch_add(1, Ordering::Relaxed);
        let keep_permille = self.inner.keep_permille.load(Ordering::Relaxed);
        // The deterministic keep hash: one SplitMix64 step from the id.
        let hash_keep = splitmix64(&mut { seg.trace_id }) % 1000 < keep_permille;
        if !(seg.error || seg.shed || seg.slow || hash_keep) {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.inner.kept.fetch_add(1, Ordering::Relaxed);
        if seg.slow {
            self.inner.kept_slow.fetch_add(1, Ordering::Relaxed);
        }
        if seg.error || seg.shed {
            self.inner.kept_error.fetch_add(1, Ordering::Relaxed);
        }
        if seg.slow && self.inner.slow_log.load(Ordering::Relaxed) {
            eprintln!("{}", slow_log_line(&seg));
        }
        let capacity = self.inner.capacity.load(Ordering::Relaxed) as usize;
        let mut ring = self.lock_ring();
        while ring.len() >= capacity.max(1) {
            ring.pop_front();
        }
        ring.push_back(seg);
    }

    /// Copies every kept segment out of the ring (oldest first).
    pub fn segments(&self) -> Vec<TraceSegment> {
        self.lock_ring().iter().cloned().collect()
    }

    /// Removes and returns every kept segment (the `TraceFetch`
    /// semantics: fetch-and-clear, so repeated polls see only new ones).
    pub fn drain(&self) -> Vec<TraceSegment> {
        self.lock_ring().drain(..).collect()
    }

    /// Cumulative tail-sampling counters.
    pub fn counters(&self) -> TracerCounters {
        let i = &self.inner;
        TracerCounters {
            finished: i.finished.load(Ordering::Relaxed),
            kept: i.kept.load(Ordering::Relaxed),
            kept_slow: i.kept_slow.load(Ordering::Relaxed),
            kept_error: i.kept_error.load(Ordering::Relaxed),
            dropped: i.dropped.load(Ordering::Relaxed),
        }
    }
}

static GLOBAL_TRACER: OnceLock<Tracer> = OnceLock::new();

/// The process-wide tracer, mirror of [`crate::global`] for metrics.
pub fn global() -> &'static Tracer {
    GLOBAL_TRACER.get_or_init(Tracer::new)
}

// ---------------------------------------------------------------------------
// TraceHandle / ActiveScope / layer spans
// ---------------------------------------------------------------------------

/// Owner of one in-flight segment. `Send`, so the server can carry it
/// from the connection thread into the worker pool. Dropping it without
/// [`TraceHandle::finish`] commits the segment with the error flag set —
/// abandoned queries are exactly the traces tail sampling must keep.
pub struct TraceHandle {
    slot: Arc<Mutex<Option<ActiveTrace>>>,
}

impl TraceHandle {
    /// Installs the segment as this thread's active trace; recording
    /// APIs ([`crate::enter`], [`mark_error`], op attribution) apply to it until
    /// the returned scope drops, which parks the segment back in the
    /// handle so it can move to another thread or finish.
    pub fn activate(&self) -> ActiveScope {
        let taken = self.slot.lock().unwrap_or_else(|e| e.into_inner()).take();
        let Some(at) = taken else {
            return ActiveScope { slot: None };
        };
        let installed = ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            if a.is_some() {
                return false;
            }
            *a = Some(at);
            true
        });
        if !installed {
            // Another trace is already active on this thread (should not
            // happen in practice); leave ours parked.
            return ActiveScope { slot: None };
        }
        ActiveScope {
            slot: Some(self.slot.clone()),
        }
    }

    /// Commits the segment through tail sampling as a normal completion
    /// (error/shed flags previously set via [`mark_error`]/[`mark_shed`]
    /// still apply).
    pub fn finish(self) {
        if let Some(at) = self.slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
            at.tracer.clone().commit(at, false);
        }
        // Drop now finds the slot empty and does nothing.
    }
}

impl Drop for TraceHandle {
    fn drop(&mut self) {
        if let Some(at) = self.slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
            at.tracer.clone().commit(at, true);
        }
    }
}

/// Guard returned by [`TraceHandle::activate`]; on drop the segment is
/// parked back into its handle.
#[must_use = "dropping the scope immediately deactivates the trace"]
pub struct ActiveScope {
    slot: Option<Arc<Mutex<Option<ActiveTrace>>>>,
}

impl Drop for ActiveScope {
    fn drop(&mut self) {
        let Some(slot) = self.slot.take() else { return };
        let at = ACTIVE.with(|a| a.borrow_mut().take());
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = at;
    }
}

/// Opens `layer`'s span under the thread's active trace, for a traced
/// layer. Returns the active trace id (0: none) and whether a span was
/// opened — one thread-local access, the entry half of [`crate::enter`].
#[cfg(not(feature = "noop"))]
pub(crate) fn open_span(layer: Layer) -> (u64, bool) {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let Some(at) = a.as_mut() else {
            return (0, false);
        };
        let traced = layer.tag().is_some();
        if traced {
            let parent_id = at.open.last().map(|o| o.span_id).unwrap_or(0);
            at.open.push(OpenSpan {
                span_id: next_id(),
                parent_id,
                name: layer,
                start_us: epoch_us(),
                start: Instant::now(),
                attrs: Vec::new(),
            });
        }
        (at.trace_id, traced)
    })
}

/// Closes the innermost open span — the exit half of [`crate::enter`]
/// for a guard that opened one.
#[cfg(not(feature = "noop"))]
pub(crate) fn close_span() {
    ACTIVE.with(|a| {
        if let Some(at) = a.borrow_mut().as_mut() {
            at.close_top();
        }
    });
}

/// Attaches a redacted attribute to the innermost open span of the
/// thread's active trace — the segment root when no child span is open.
/// Inert without an active trace.
pub fn attr(key: AttrKey, value: u64) {
    ACTIVE.with(|a| {
        if let Some(at) = a.borrow_mut().as_mut() {
            if let Some(top) = at.open.last_mut() {
                top.attrs.push((key, value));
            }
        }
    });
}

/// Flags the thread's active trace as errored.
pub fn mark_error() {
    ACTIVE.with(|a| {
        if let Some(at) = a.borrow_mut().as_mut() {
            at.error = true;
        }
    });
}

/// Flags the thread's active trace as shed (deadline, queue, quota).
pub fn mark_shed() {
    ACTIVE.with(|a| {
        if let Some(at) = a.borrow_mut().as_mut() {
            at.shed = true;
        }
    });
}

/// Attributes `n` occurrences of `op` to the thread's active trace (the
/// per-query op counts exported on the segment). Called from
/// [`crate::MetricsRegistry::incr_by`], so instrumented crates get
/// per-trace op attribution for free.
#[inline]
#[cfg_attr(feature = "noop", allow(dead_code))] // caller compiled out
pub(crate) fn record_op(op: Op, n: u64) {
    ACTIVE.with(|a| {
        if let Some(at) = a.borrow_mut().as_mut() {
            at.ops[op as usize] += n;
        }
    });
}

/// The 63-bit id of the thread's active sampled trace, or 0. Histogram
/// exemplars use this to link percentile buckets to traces.
#[inline]
#[cfg_attr(feature = "noop", allow(dead_code))] // caller compiled out
pub(crate) fn current_trace_id() -> u64 {
    ACTIVE.with(|a| a.borrow().as_ref().map(|at| at.trace_id).unwrap_or(0))
}

// ---------------------------------------------------------------------------
// Wire encoding (the TraceReply payload)
// ---------------------------------------------------------------------------

/// Hard caps for hostile `TraceReply` payloads.
const MAX_WIRE_SEGMENTS: usize = 1024;
const MAX_WIRE_SPANS: usize = 1024;
const MAX_WIRE_ATTRS: usize = 32;

const FLAG_ERROR: u8 = 1;
const FLAG_SHED: u8 = 2;
const FLAG_SLOW: u8 = 4;

fn encode_segment(out: &mut Vec<u8>, seg: &TraceSegment) {
    out.extend_from_slice(&seg.trace_id.to_be_bytes());
    out.extend_from_slice(&seg.parent_span.to_be_bytes());
    out.push(seg.origin as u8);
    let mut flags = 0u8;
    if seg.error {
        flags |= FLAG_ERROR;
    }
    if seg.shed {
        flags |= FLAG_SHED;
    }
    if seg.slow {
        flags |= FLAG_SLOW;
    }
    out.push(flags);
    out.extend_from_slice(&seg.spans_dropped.to_be_bytes());
    for v in seg.ops {
        out.extend_from_slice(&v.to_be_bytes());
    }
    let n_spans = seg.spans.len().min(MAX_WIRE_SPANS);
    out.extend_from_slice(&(n_spans as u16).to_be_bytes());
    for s in seg.spans.iter().take(n_spans) {
        out.extend_from_slice(&s.span_id.to_be_bytes());
        out.extend_from_slice(&s.parent_id.to_be_bytes());
        // A recorded span always names a traced layer; 0 is no tag.
        out.push(s.name.tag().unwrap_or(0));
        // The span error byte: spans carry no outcome of their own (the
        // segment does), so it is always 0.
        out.push(0);
        out.extend_from_slice(&s.start_us.to_be_bytes());
        out.extend_from_slice(&s.dur_us.to_be_bytes());
        let n_attrs = s.attrs.len().min(MAX_WIRE_ATTRS);
        out.push(n_attrs as u8);
        for &(k, v) in s.attrs.iter().take(n_attrs) {
            out.push(k as u8);
            out.extend_from_slice(&v.to_be_bytes());
        }
    }
}

/// Encodes segments for the wire, keeping the payload under
/// `max_bytes`: segments that would overflow are dropped from the tail
/// (newest kept first is the ring's job; here oldest-first order is
/// preserved, later segments dropped). Returns the encoded payload.
pub fn encode_segments(segments: &[TraceSegment], max_bytes: usize) -> Vec<u8> {
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    let mut total = 2usize;
    for seg in segments.iter().take(MAX_WIRE_SEGMENTS) {
        let mut body = Vec::new();
        encode_segment(&mut body, seg);
        if total + body.len() > max_bytes {
            break;
        }
        total += body.len();
        bodies.push(body);
    }
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&(bodies.len() as u16).to_be_bytes());
    for b in bodies {
        out.extend_from_slice(&b);
    }
    out
}

/// Inverse of [`encode_segments`]; typed errors on truncation, bad
/// tags, oversized tables, or trailing bytes — never panics.
pub fn decode_segments(buf: &[u8]) -> Result<Vec<TraceSegment>, SnapshotDecodeError> {
    let mut cur = Cursor { buf, pos: 0 };
    let n_segs = cur.u16()? as usize;
    if n_segs > MAX_WIRE_SEGMENTS {
        return Err(SnapshotDecodeError("too many segments"));
    }
    let mut segments = Vec::with_capacity(n_segs.min(64));
    for _ in 0..n_segs {
        let trace_id = cur.u64()?;
        if trace_id == 0 || trace_id & SAMPLED_BIT != 0 {
            return Err(SnapshotDecodeError("bad segment trace id"));
        }
        let parent_span = cur.u64()?;
        let origin = match cur.u8()? {
            0 => SegmentOrigin::Client,
            1 => SegmentOrigin::Server,
            _ => return Err(SnapshotDecodeError("bad segment origin")),
        };
        let flags = cur.u8()?;
        if flags & !(FLAG_ERROR | FLAG_SHED | FLAG_SLOW) != 0 {
            return Err(SnapshotDecodeError("bad segment flags"));
        }
        let spans_dropped = cur.u32()?;
        let mut ops = [0u64; Op::COUNT];
        for v in &mut ops {
            *v = cur.u64()?;
        }
        let n_spans = cur.u16()? as usize;
        if n_spans > MAX_WIRE_SPANS {
            return Err(SnapshotDecodeError("too many spans"));
        }
        let mut spans = Vec::with_capacity(n_spans.min(64));
        for _ in 0..n_spans {
            let span_id = cur.u64()?;
            let parent_id = cur.u64()?;
            let name =
                Layer::from_tag(cur.u8()?).ok_or(SnapshotDecodeError("bad span name tag"))?;
            if cur.u8()? > 1 {
                return Err(SnapshotDecodeError("bad span error flag"));
            }
            let start_us = cur.u64()?;
            let dur_us = cur.u64()?;
            let n_attrs = cur.u8()? as usize;
            if n_attrs > MAX_WIRE_ATTRS {
                return Err(SnapshotDecodeError("too many attrs"));
            }
            let mut attrs = Vec::with_capacity(n_attrs);
            for _ in 0..n_attrs {
                let key =
                    AttrKey::from_tag(cur.u8()?).ok_or(SnapshotDecodeError("bad attr key tag"))?;
                attrs.push((key, cur.u64()?));
            }
            spans.push(SpanRecord {
                span_id,
                parent_id,
                name,
                start_us,
                dur_us,
                attrs,
            });
        }
        segments.push(TraceSegment {
            trace_id,
            origin,
            parent_span,
            error: flags & FLAG_ERROR != 0,
            shed: flags & FLAG_SHED != 0,
            slow: flags & FLAG_SLOW != 0,
            spans,
            spans_dropped,
            ops,
        });
    }
    cur.done()?;
    Ok(segments)
}

// ---------------------------------------------------------------------------
// Export faces: slow-query log and Chrome trace_event JSON
// ---------------------------------------------------------------------------

/// Zero-padded hex rendering of a trace/span id.
pub fn hex_id(id: u64) -> String {
    format!("{id:016x}")
}

/// One-line JSON for the slow-query log (stderr, one object per kept
/// slow segment).
pub fn slow_log_line(seg: &TraceSegment) -> String {
    let mut obj = json::Obj::new();
    obj.field_str("kind", "slow-trace");
    obj.field_str("trace", &hex_id(seg.trace_id));
    obj.field_str("origin", seg.origin.name());
    obj.field_u64("dur_us", seg.dur_us());
    obj.field_u64("spans", seg.spans.len() as u64);
    obj.field_bool("error", seg.error);
    obj.field_bool("shed", seg.shed);
    let mut ops = json::Obj::new();
    for op in Op::ALL {
        let v = seg.ops[op as usize];
        if v > 0 {
            ops.field_u64(op.name(), v);
        }
    }
    obj.field_raw("ops", &ops.finish());
    obj.finish()
}

/// Renders segments as Chrome `trace_event` JSON, loadable in
/// `chrome://tracing` or Perfetto. Each trace id becomes one "process"
/// with a client lane and a server lane; spans are complete (`"X"`)
/// events with integer microsecond timestamps. Only redacted span
/// names, attribute keys, counts, and durations appear.
pub fn chrome_trace_json(segments: &[TraceSegment]) -> String {
    let mut pids: Vec<u64> = Vec::new();
    let mut events: Vec<String> = Vec::new();
    for seg in segments {
        let pid = match pids.iter().position(|&t| t == seg.trace_id) {
            Some(i) => i + 1,
            None => {
                pids.push(seg.trace_id);
                let pid = pids.len();
                let mut meta = json::Obj::new();
                meta.field_str("name", "process_name");
                meta.field_str("ph", "M");
                meta.field_u64("pid", pid as u64);
                meta.field_raw(
                    "args",
                    &format!(r#"{{"name":"trace {}"}}"#, hex_id(seg.trace_id)),
                );
                events.push(meta.finish());
                for (tid, lane) in [(1u64, "client"), (2u64, "server")] {
                    let mut t = json::Obj::new();
                    t.field_str("name", "thread_name");
                    t.field_str("ph", "M");
                    t.field_u64("pid", pid as u64);
                    t.field_u64("tid", tid);
                    t.field_raw("args", &format!(r#"{{"name":"{lane}"}}"#));
                    events.push(t.finish());
                }
                pid
            }
        };
        let tid = match seg.origin {
            SegmentOrigin::Client => 1u64,
            SegmentOrigin::Server => 2u64,
        };
        for s in &seg.spans {
            let mut ev = json::Obj::new();
            ev.field_str("name", s.name.name());
            ev.field_str("cat", "ppgnn");
            ev.field_str("ph", "X");
            ev.field_u64("pid", pid as u64);
            ev.field_u64("tid", tid);
            ev.field_u64("ts", s.start_us);
            ev.field_u64("dur", s.dur_us);
            let mut args = json::Obj::new();
            args.field_str("trace", &hex_id(seg.trace_id));
            for &(k, v) in &s.attrs {
                args.field_u64(k.name(), v);
            }
            if s.parent_id == 0 {
                // Root span: per-query op counts and outcome flags.
                for op in Op::ALL {
                    let v = seg.ops[op as usize];
                    if v > 0 {
                        args.field_u64(op.name(), v);
                    }
                }
                if seg.slow {
                    args.field_bool("slow", true);
                }
                if seg.shed {
                    args.field_bool("shed", true);
                }
                if seg.spans_dropped > 0 {
                    args.field_u64("spans-dropped", seg.spans_dropped as u64);
                }
            }
            ev.field_raw("args", &args.finish());
            events.push(ev.finish());
        }
    }
    let mut top = json::Obj::new();
    top.field_str("displayTimeUnit", "ms");
    top.field_raw("traceEvents", &json::arr(events.into_iter()));
    top.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(not(feature = "noop"))]
    use crate::enter;

    #[cfg(not(feature = "noop"))]
    fn enabled_tracer(keep_permille: u32, slow_us: u64) -> Tracer {
        let t = Tracer::new();
        t.configure(&TracerConfig {
            enabled: true,
            slow_us,
            keep_permille,
            capacity: 8,
            slow_log: false,
            max_spans: 16,
        });
        t
    }

    #[test]
    fn context_wire_round_trip() {
        let ctx = TraceContext::new(0xdead_beef_cafe, 0x1234, true);
        let back = TraceContext::from_wire(&ctx.to_wire()).unwrap();
        assert_eq!(back, ctx);
        assert!(back.sampled());
        assert_eq!(back.trace_id(), 0xdead_beef_cafe);
        assert_eq!(back.parent_span(), 0x1234);
        let un = TraceContext::new(7, 9, false);
        assert!(!TraceContext::from_wire(&un.to_wire()).unwrap().sampled());
    }

    #[test]
    fn context_wire_rejects_garbage() {
        assert_eq!(
            TraceContext::from_wire(&[0u8; 15]),
            Err(TraceWireError::Truncated)
        );
        assert_eq!(
            TraceContext::from_wire(&[0u8; 16]),
            Err(TraceWireError::ZeroTraceId)
        );
        // Sampled bit set but 63-bit id zero is still a zero trace id.
        let mut only_flag = [0u8; 16];
        only_flag[7] = 0x80;
        only_flag[8] = 1;
        assert_eq!(
            TraceContext::from_wire(&only_flag),
            Err(TraceWireError::ZeroTraceId)
        );
        let mut no_parent = [0u8; 16];
        no_parent[0] = 1;
        assert_eq!(
            TraceContext::from_wire(&no_parent),
            Err(TraceWireError::ZeroParentSpan)
        );
    }

    #[test]
    fn tag_round_trips() {
        for (layer, _, _, tag) in Layer::TABLE {
            if let Some(tag) = tag {
                assert_eq!(Layer::from_tag(tag), Some(layer));
            }
        }
        assert_eq!(Layer::from_tag(0), None);
        assert_eq!(Layer::from_tag(0xff), None);
        for k in AttrKey::ALL {
            assert_eq!(AttrKey::from_tag(k as u8), Some(k));
        }
        assert_eq!(AttrKey::from_tag(0), None);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn decode_refuses_unassigned_tags() {
        let t = enabled_tracer(1000, u64::MAX);
        let (_, h) = t.start();
        h.unwrap().finish();
        let mut bytes = encode_segments(&t.segments(), usize::MAX);
        // The root span is the last record: its tag precedes the error
        // flag, start, duration and (empty) attribute count.
        let at = bytes.len() - (1 + 1 + 8 + 8 + 1);
        assert_eq!(bytes[at], 1, "client-query");
        for tag in 0..=u8::MAX {
            bytes[at] = tag;
            match Layer::from_tag(tag) {
                Some(layer) => assert_eq!(decode_segments(&bytes).unwrap()[0].spans[0].name, layer),
                None => assert!(decode_segments(&bytes).is_err(), "tag {tag} decoded"),
            }
        }
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn spans_nest_and_commit() {
        let t = enabled_tracer(1000, u64::MAX);
        let (ctx, handle) = t.start();
        assert!(ctx.sampled());
        let handle = handle.unwrap();
        {
            let _active = handle.activate();
            let outer = enter(Layer::CandidateEval);
            outer.attr(AttrKey::Candidates, 42);
            {
                let _inner = enter(Layer::PaillierDot);
                // A histogram-only layer opens no span, so its attrs
                // land nowhere.
                let hold = enter(Layer::LatencyHold);
                hold.attr(AttrKey::Bytes, 7);
            }
            drop(outer);
        }
        handle.finish();
        let segs = t.segments();
        assert_eq!(segs.len(), 1);
        let seg = &segs[0];
        assert_eq!(seg.trace_id, ctx.trace_id());
        assert_eq!(seg.origin, SegmentOrigin::Client);
        assert!(!seg.error);
        // Completion order: inner, outer, root.
        let names: Vec<_> = seg.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![Layer::PaillierDot, Layer::CandidateEval, Layer::ClientQuery]
        );
        let root = seg.root().unwrap();
        assert_eq!(root.name, Layer::ClientQuery);
        assert_eq!(root.parent_id, 0);
        let outer = &seg.spans[1];
        assert_eq!(outer.parent_id, root.span_id);
        assert_eq!(outer.attrs, vec![(AttrKey::Candidates, 42)]);
        assert_eq!(seg.spans[0].parent_id, outer.span_id);
        assert!(seg.spans[0].attrs.is_empty());
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn guard_links_its_histogram_sample_to_the_trace() {
        let t = enabled_tracer(1000, u64::MAX);
        let (ctx, handle) = t.start();
        let handle = handle.unwrap();
        {
            let _active = handle.activate();
            // Only this test enters `recover-replay` in this crate.
            let _g = enter(Layer::RecoverReplay);
        }
        handle.finish();
        let seg = &t.segments()[0];
        assert_eq!(seg.spans[0].name, Layer::RecoverReplay);
        let snap = crate::global().snapshot();
        let hist = snap.stage("recover-replay").unwrap();
        assert_eq!(hist.count, 1);
        assert_eq!(hist.p50_exemplar, ctx.trace_id());
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn resume_links_server_segment_to_client_root() {
        let t = enabled_tracer(1000, u64::MAX);
        let (ctx, client) = t.start();
        let server = t.resume(&ctx).unwrap();
        {
            let _active = server.activate();
            let _v = enter(Layer::Validate);
        }
        server.finish();
        client.unwrap().finish();
        let segs = t.segments();
        assert_eq!(segs.len(), 2);
        let srv = segs
            .iter()
            .find(|s| s.origin == SegmentOrigin::Server)
            .unwrap();
        let cli = segs
            .iter()
            .find(|s| s.origin == SegmentOrigin::Client)
            .unwrap();
        assert_eq!(srv.trace_id, cli.trace_id);
        assert_eq!(srv.parent_span, cli.root().unwrap().span_id);
        assert_eq!(srv.root().unwrap().name, Layer::ServerQuery);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn abandoned_handle_is_kept_as_error() {
        let t = enabled_tracer(0, u64::MAX); // keep nothing probabilistically
        let (_ctx, handle) = t.start();
        drop(handle.unwrap()); // early-return path: no explicit finish
        let segs = t.segments();
        assert_eq!(segs.len(), 1);
        assert!(segs[0].error);
        assert_eq!(t.counters().kept_error, 1);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn tail_sampling_keeps_slow_and_drops_fast() {
        let t = enabled_tracer(0, 0); // slow threshold 0: everything slow
        let (_, h) = t.start();
        h.unwrap().finish();
        assert_eq!(t.counters().kept_slow, 1);

        let t2 = enabled_tracer(0, u64::MAX); // nothing slow, keep 0‰
        let (_, h2) = t2.start();
        h2.unwrap().finish();
        assert_eq!(t2.counters().kept, 0);
        assert_eq!(t2.counters().dropped, 1);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn probabilistic_keep_is_deterministic_per_trace() {
        let t = enabled_tracer(500, u64::MAX);
        for _ in 0..64 {
            let (ctx, h) = t.start();
            let srv = t.resume(&ctx).unwrap();
            srv.finish();
            h.unwrap().finish();
        }
        // Both halves of each query agree: segments come in trace pairs.
        let mut by_trace = std::collections::HashMap::new();
        for seg in t.segments() {
            *by_trace.entry(seg.trace_id).or_insert(0u32) += 1;
        }
        for (_, n) in by_trace {
            assert_eq!(n, 2, "client and server halves must agree on keep");
        }
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn ring_evicts_oldest() {
        let t = Tracer::new();
        t.configure(&TracerConfig {
            enabled: true,
            slow_us: 0,
            keep_permille: 1000,
            capacity: 4,
            slow_log: false,
            max_spans: 16,
        });
        for _ in 0..10 {
            let (_, h) = t.start();
            h.unwrap().finish();
        }
        assert_eq!(t.segments().len(), 4);
        assert_eq!(t.counters().kept, 10);
        assert_eq!(t.drain().len(), 4);
        assert!(t.segments().is_empty());
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn span_cap_counts_dropped() {
        let t = Tracer::new();
        t.configure(&TracerConfig {
            enabled: true,
            slow_us: 0,
            keep_permille: 1000,
            capacity: 4,
            slow_log: false,
            max_spans: 2,
        });
        let (_, h) = t.start();
        let h = h.unwrap();
        {
            let _active = h.activate();
            for _ in 0..5 {
                let _s = enter(Layer::SanitationPrefix);
            }
        }
        h.finish();
        let seg = &t.segments()[0];
        assert_eq!(seg.spans.len(), 2);
        assert_eq!(seg.spans_dropped, 4); // 3 prefix spans + the root
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn ops_attribute_to_active_trace() {
        let t = enabled_tracer(1000, u64::MAX);
        let (_, h) = t.start();
        let h = h.unwrap();
        {
            let _active = h.activate();
            record_op(Op::PaillierDot, 3);
            record_op(Op::SanitationZTest, 2);
        }
        record_op(Op::PaillierDot, 99); // outside the scope: not attributed
        h.finish();
        let seg = &t.segments()[0];
        assert_eq!(seg.ops[Op::PaillierDot as usize], 3);
        assert_eq!(seg.ops[Op::SanitationZTest as usize], 2);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn unsampled_and_disabled_record_nothing() {
        let t = Tracer::new(); // disabled
        let (ctx, h) = t.start();
        assert!(!ctx.sampled());
        assert!(h.is_none());
        let on = enabled_tracer(1000, 0);
        assert!(on.resume(&ctx).is_none());
        let _inert = enter(Layer::Validate); // no active trace: no span
        assert!(on.segments().is_empty());
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn segments_wire_round_trip() {
        let t = enabled_tracer(1000, 0);
        let (ctx, client) = t.start();
        let server = t.resume(&ctx).unwrap();
        {
            let _active = server.activate();
            let s = enter(Layer::Sanitation);
            s.attr(AttrKey::PrefixLen, 3);
            s.attr(AttrKey::Survivors, 2);
            drop(s);
            mark_error();
            record_op(Op::SanitationZTest, 5);
            mark_shed();
        }
        server.finish();
        client.unwrap().finish();
        let segs = t.segments();
        let bytes = encode_segments(&segs, usize::MAX);
        let back = decode_segments(&bytes).unwrap();
        assert_eq!(back, segs);
        // Truncations and garbage are typed errors.
        for cut in [0, 1, 3, bytes.len() - 1] {
            assert!(decode_segments(&bytes[..cut]).is_err());
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_segments(&padded).is_err());
        let mut bad_tag = bytes.clone();
        // Flip the first span-name tag to an invalid value: find it by
        // re-encoding a single empty-segment prefix is fragile, so just
        // check fully garbage input too.
        bad_tag[0] = 0xff;
        assert!(decode_segments(&bad_tag).is_err());
        assert!(decode_segments(&[0xff; 16]).is_err());
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn segment_byte_budget_is_respected() {
        let t = enabled_tracer(1000, 0);
        for _ in 0..6 {
            let (_, h) = t.start();
            h.unwrap().finish();
        }
        let segs = t.segments();
        let full = encode_segments(&segs, usize::MAX);
        let bounded = encode_segments(&segs, full.len() - 1);
        assert!(bounded.len() < full.len());
        let back = decode_segments(&bounded).unwrap();
        assert!(back.len() < segs.len());
        assert_eq!(back.as_slice(), &segs[..back.len()]);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn chrome_export_and_slow_log_are_redacted() {
        let t = enabled_tracer(1000, 0);
        let (ctx, client) = t.start();
        let server = t.resume(&ctx).unwrap();
        {
            let _active = server.activate();
            let s = enter(Layer::CandidateEval);
            s.attr(AttrKey::Candidates, 12);
            drop(s);
            record_op(Op::PaillierDot, 12);
        }
        server.finish();
        client.unwrap().finish();
        let segs = t.segments();
        let json = chrome_trace_json(&segs);
        assert!(json.contains(r#""traceEvents":["#));
        assert!(json.contains(r#""name":"candidate-eval""#));
        assert!(json.contains(r#""name":"server-query""#));
        assert!(json.contains(r#""candidates":12"#));
        assert!(json.contains(r#""slow":true"#));
        // Integer timestamps only: a decimal point would mean a float
        // (coordinates/distances are floats — none may appear).
        assert!(!json.chars().any(|c| c == '.'));
        let slow = slow_log_line(&segs[0]);
        assert!(slow.contains(r#""kind":"slow-trace""#));
        assert!(slow.contains(r#""paillier-dot-ops":12"#));
    }

    #[test]
    fn span_names_and_attr_keys_are_benign() {
        // The redaction allowlist: names are kebab-case layer/op words,
        // no digits, no user-data-shaped tokens.
        for n in Layer::TABLE.iter().map(|row| row.1) {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
        for k in AttrKey::ALL.iter().map(|k| k.name()) {
            assert!(k.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }
}
