//! The group-side client: one TCP connection driving the coordinator's
//! side of the protocol (Algorithm 1) against a remote LSP.
//!
//! The client is resilient by default: a query plans (and counts
//! against the session) **once**, and the resulting bytes are retried
//! under a [`RetryPolicy`] — jittered exponential backoff that honors
//! the server's `retry_after_ms` hint as a floor, a per-query
//! wall-clock budget, and a bounded attempt count. Transport failures
//! reconnect and resend the *same* request ID without re-running the
//! handshake (the server's session registry survives reconnects), so a
//! request the server already answered is replayed from its answer
//! cache instead of being recomputed or double-counted.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use ppgnn_core::messages::AnswerMessage;
use ppgnn_core::partition_cache::solve_partition_cached;
use ppgnn_core::{opt_split, PpgnnConfig, PpgnnSession, Variant};
use ppgnn_geo::{PoiOp, Point, Rect};
use ppgnn_telemetry::trace::{self, AttrKey, SpanName, TraceContext, TraceSegment};
use ppgnn_telemetry::{self as telemetry, TelemetrySnapshot};
use rand::Rng;

use crate::backoff::{BackoffSchedule, RetryPolicy};
use crate::error::{ErrorCode, ServerError};
use crate::frame::{
    read_frame, write_frame, AnswerPayload, BusyPayload, ErrorPayload, Frame, FrameType,
    HelloAckPayload, HelloPayload, PoiUpdateAckPayload, PoiUpdatePayload, PongPayload,
    QueryPayload, StatsReplyPayload, SubscriptionKind, SubscriptionUpdatePayload,
    TraceReplyPayload, UnsubscribePayload, DEFAULT_MAX_PAYLOAD, HEADER_BYTES,
};
use crate::registry::SessionParams;
use crate::shape::ShapeMode;

/// Ceiling on one attempt's blocking read (the per-query budget usually
/// binds first).
const READ_TIMEOUT: Duration = Duration::from_secs(120);
/// Smallest read timeout worth arming (0 would disable the timeout).
const MIN_READ_TIMEOUT: Duration = Duration::from_millis(10);

/// One sessionless exchange on the liveness lane: writes an empty
/// `request` frame (`Ping`, `Stats` or `TraceFetch`) and returns the
/// payload of the single reply, which must be that request's answer
/// type. It needs no session and spends no rate-limit token, so it works
/// on any connection, with or without a `Hello`.
pub fn sessionless_exchange(
    stream: &mut TcpStream,
    request: FrameType,
    max_payload: usize,
) -> Result<Vec<u8>, ServerError> {
    let (reply, expected) = match request {
        FrameType::Ping => (FrameType::Pong, "Pong"),
        FrameType::Stats => (FrameType::StatsReply, "StatsReply"),
        FrameType::TraceFetch => (FrameType::TraceReply, "TraceReply"),
        _ => return Err(ServerError::Malformed("not a sessionless request")),
    };
    write_frame(stream, request, &[])?;
    let frame = read_frame(stream, max_payload)?;
    if frame.frame_type != reply {
        return Err(ServerError::UnexpectedFrame {
            expected,
            got: frame.frame_type,
        });
    }
    Ok(frame.payload)
}

/// Client-side resilience counters for one [`GroupClient`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientStats {
    /// Send attempts beyond the first, across all queries.
    pub retries: u64,
    /// Fresh TCP connections established after the initial one.
    pub reconnects: u64,
    /// Answers served from the server's replay cache.
    pub replayed_answers: u64,
    /// `Busy` sheds observed (each one backed off and retried).
    pub busy_sheds: u64,
}

/// One response frame as a passive network observer would see it:
/// nothing here requires the session keys — only the bytes on the wire
/// and a clock. The `observer` binary builds its (size, latency)
/// distributions from exactly these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireObservation {
    /// Frame-type byte (plaintext on the wire either way).
    pub frame_type: FrameType,
    /// Total on-wire bytes: header + payload + pad.
    pub total_bytes: usize,
    /// Request write → response frame fully read.
    pub latency: Duration,
}

/// The server's promise about a granted subscription: the group's
/// answer cannot change while every user stays within
/// [`SafeRegionToken::drift_radius`] of their subscribed location.
/// The server pushes a `SubscriptionUpdate` the moment a POI mutation
/// threatens the region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafeRegionToken {
    /// The request the subscription was granted under.
    pub request_id: u32,
    /// Index version the answer and region were computed against.
    pub version: u64,
    /// Safe-region margin M (aggregate-cost gap, min over candidates).
    pub margin: f64,
    /// Aggregate scale: `n` for Sum, 1 for Max/Min.
    pub drift_scale: u32,
}

impl SafeRegionToken {
    /// Per-user drift radius: the answer provably holds while every
    /// user stays within this distance of their subscribed location.
    /// `M/(4s)`: each user's drift moves the group's aggregate cost to
    /// any POI by at most `s·r`, so top-k costs rise by at most `M/4`
    /// and runner-up costs fall by at most `M/4` — the gap `M` cannot
    /// close.
    pub fn drift_radius(&self) -> f64 {
        self.margin / (4.0 * self.drift_scale.max(1) as f64)
    }
}

/// A connected group: holds the TCP stream, the [`PpgnnSession`] (keys
/// + query counter), and the negotiated public parameters.
pub struct GroupClient {
    stream: TcpStream,
    addr: SocketAddr,
    session: PpgnnSession,
    config: PpgnnConfig,
    space: Rect,
    group_id: u64,
    next_request_id: u32,
    /// Per-request deadline sent to the server; 0 uses the server default.
    pub deadline_ms: u32,
    /// Retry pacing and budget for [`GroupClient::query`].
    pub retry: RetryPolicy,
    max_payload: usize,
    negotiated: Option<SessionParams>,
    server_info: HelloAckPayload,
    /// The connection is known dead and must be re-established before
    /// the next attempt.
    broken: bool,
    stats: ClientStats,
    /// Server pushes (invalidations, endings) received while waiting
    /// for something else; drained by [`GroupClient::take_notifications`].
    pending_updates: Vec<SubscriptionUpdatePayload>,
    /// The standing query this client holds, if any — what a detected
    /// server restart must surface an invalidation for.
    standing: Option<SafeRegionToken>,
    /// When enabled, every query-lane response frame is recorded as a
    /// [`WireObservation`]; drained by
    /// [`GroupClient::take_wire_observations`].
    wire_tap: bool,
    wire_observations: Vec<WireObservation>,
}

fn variant_tag(v: Variant) -> u8 {
    match v {
        Variant::Plain => 0,
        Variant::Opt => 1,
        Variant::Naive => 2,
    }
}

/// Derives the session parameters a group of `n_users` will need under
/// `config`: for PPGNN-OPT the indicator splits into ω blocks, and ω is
/// a deterministic function of the (cached) partition solution.
pub fn session_params_for(
    config: &PpgnnConfig,
    n_users: usize,
) -> Result<SessionParams, ServerError> {
    let two_phase_omega = match config.variant {
        Variant::Opt => {
            let partition = solve_partition_cached(n_users, config.d, config.delta)?;
            let delta_prime = partition.delta_prime();
            let delta_prime = usize::try_from(delta_prime)
                .map_err(|_| ServerError::Malformed("delta_prime overflows usize"))?;
            Some(opt_split(delta_prime).0)
        }
        Variant::Plain | Variant::Naive => None,
    };
    Ok(SessionParams {
        key_bits: config.keysize,
        variant: variant_tag(config.variant),
        two_phase_omega,
        has_partition: !matches!(config.variant, Variant::Naive),
        n_users,
        delta: config.delta,
        k: config.k,
        // Naive ships the whole candidate set per user; the
        // partitioned variants ship d dummy slots.
        d: effective_set_len(config),
    })
}

/// Locations per user set under `config` — what the server's gate will
/// hold every query to.
fn effective_set_len(config: &PpgnnConfig) -> usize {
    match config.variant {
        Variant::Naive => config.delta,
        Variant::Plain | Variant::Opt => config.d,
    }
}

/// What the retry loop should do about one failed attempt.
struct Recovery {
    /// Whether retrying can help at all.
    retryable: bool,
    /// Server-suggested backoff floor, if any.
    retry_after_ms: Option<u32>,
    /// The stream is desynced or dead: reconnect before retrying.
    reconnect: bool,
    /// The server lost the session: re-handshake before retrying.
    rehandshake: bool,
}

/// Classifies an attempt failure. Transport-level failures (dead or
/// desynced streams) reconnect; typed remote failures retry in place;
/// deterministic failures (bad input, local protocol errors, a
/// deliberately draining server) surface immediately. A remote
/// `Violation` is deterministic by construction — the server's gate
/// rejects the same bytes the same way every time — so it must fail
/// fast instead of burning the wall-clock budget on backoff.
fn classify(e: &ServerError) -> Recovery {
    let (retryable, retry_after_ms, reconnect, rehandshake) = match e {
        ServerError::Io(_)
        | ServerError::ConnectionClosed
        | ServerError::BadMagic(_)
        | ServerError::BadVersion(_)
        | ServerError::UnknownFrameType(_)
        | ServerError::ChecksumMismatch { .. }
        | ServerError::Malformed(_)
        | ServerError::UnexpectedFrame { .. } => (true, None, true, false),
        // An oversized frame is deterministic in both directions: our
        // payload will not shrink on retry, and a server reply past
        // the cap will be past it again.
        ServerError::FrameTooLarge { .. } => (false, None, false, false),
        ServerError::ServerBusy { retry_after_ms } => (true, Some(*retry_after_ms), false, false),
        ServerError::Remote { code, .. } => match code {
            ErrorCode::NoSession => (true, None, false, true),
            ErrorCode::DeadlineExceeded | ErrorCode::Internal => (true, None, false, false),
            // Quota pressure (full session table, strike disconnect)
            // may drain; give the backoff a chance.
            ErrorCode::QuotaExceeded => (true, None, false, false),
            ErrorCode::ShuttingDown
            | ErrorCode::MalformedPayload
            | ErrorCode::Protocol
            | ErrorCode::Violation => (false, None, false, false),
        },
        ServerError::Protocol(_)
        | ServerError::Violation(_)
        | ServerError::Recovery(_)
        | ServerError::StaleDataDir(_) => (false, None, false, false),
    };
    Recovery {
        retryable,
        retry_after_ms,
        reconnect,
        rehandshake,
    }
}

impl GroupClient {
    /// Connects, generating a fresh keypair of `config.keysize` bits,
    /// and negotiates the session for a group of `n_users`.
    pub fn connect<A: ToSocketAddrs, R: Rng + ?Sized>(
        addr: A,
        group_id: u64,
        config: PpgnnConfig,
        space: Rect,
        n_users: usize,
        rng: &mut R,
    ) -> Result<Self, ServerError> {
        let session = PpgnnSession::new(config.keysize, rng);
        Self::with_session(addr, group_id, config, space, n_users, session)
    }

    /// Connects with an existing session (restored keys).
    pub fn with_session<A: ToSocketAddrs>(
        addr: A,
        group_id: u64,
        config: PpgnnConfig,
        space: Rect,
        n_users: usize,
        session: PpgnnSession,
    ) -> Result<Self, ServerError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let addr = stream.peer_addr()?;
        let mut client = GroupClient {
            stream,
            addr,
            session,
            config,
            space,
            group_id,
            next_request_id: 1,
            deadline_ms: 0,
            retry: RetryPolicy::default(),
            max_payload: DEFAULT_MAX_PAYLOAD,
            negotiated: None,
            server_info: HelloAckPayload {
                group_id,
                database_size: 0,
                max_payload: 0,
                workers: 0,
                epoch: 0,
                shape_mode: 0,
                answer_target: 0,
                control_target: 0,
                latency_quantum_ms: 0,
            },
            broken: false,
            stats: ClientStats::default(),
            pending_updates: Vec::new(),
            standing: None,
            wire_tap: false,
            wire_observations: Vec::new(),
        };
        let params = session_params_for(&client.config, n_users)?;
        client.handshake(params)?;
        Ok(client)
    }

    /// Server facts from the last `HelloAck`.
    pub fn server_info(&self) -> &HelloAckPayload {
        &self.server_info
    }

    /// The response-shape mode the server negotiated in its `HelloAck`.
    pub fn shape_mode(&self) -> ShapeMode {
        ShapeMode::from_u8(self.server_info.shape_mode).unwrap_or(ShapeMode::Off)
    }

    /// Turns the passive wire tap on or off. While on, every
    /// query-lane response frame is recorded (type, total on-wire
    /// bytes, request→response latency) exactly as a network observer
    /// would see it.
    pub fn set_wire_tap(&mut self, enabled: bool) {
        self.wire_tap = enabled;
    }

    /// Drains the recorded [`WireObservation`]s.
    pub fn take_wire_observations(&mut self) -> Vec<WireObservation> {
        std::mem::take(&mut self.wire_observations)
    }

    /// Validates a response frame against the negotiated shape: under
    /// a padded server, every `Answer` must arrive at exactly the
    /// answer target and every `Busy`/`Error`/`SubscriptionUpdate` at
    /// exactly the control target — a deviation means the envelope
    /// burst (a server-side policy bug) and is surfaced, not ignored.
    fn check_shape(&self, frame: &Frame) -> Result<(), ServerError> {
        if self.server_info.shape_mode != ShapeMode::Padded.to_u8() {
            return Ok(());
        }
        let expected = match frame.frame_type {
            FrameType::Answer => self.server_info.answer_target as usize,
            FrameType::Busy | FrameType::Error | FrameType::SubscriptionUpdate => {
                self.server_info.control_target as usize
            }
            _ => return Ok(()),
        };
        if frame.payload.len() + frame.pad != expected {
            return Err(ServerError::Malformed(
                "response frame does not match the negotiated shape target",
            ));
        }
        Ok(())
    }

    /// Records a response frame on the wire tap, if enabled.
    fn observe_wire(&mut self, frame: &Frame, latency: Duration) {
        if self.wire_tap {
            self.wire_observations.push(WireObservation {
                frame_type: frame.frame_type,
                total_bytes: HEADER_BYTES + frame.payload.len() + frame.pad,
                latency,
            });
        }
    }

    /// The restart epoch last observed from the server (0 before the
    /// first handshake).
    pub fn server_epoch(&self) -> u64 {
        self.server_info.epoch
    }

    /// Folds in an epoch observed on the wire (`HelloAck` or `Pong`).
    /// A changed epoch means the server restarted since we last spoke:
    /// its subscription registry is gone, so the standing query (if
    /// any) gets a synthetic `Invalidated` push — the caller's normal
    /// invalidation handling then re-subscribes. A crash can only
    /// degrade to a spurious re-grant, never to silent staleness.
    fn observe_epoch(&mut self, epoch: u64) -> bool {
        let prev = std::mem::replace(&mut self.server_info.epoch, epoch);
        let restarted = prev != 0 && epoch != prev;
        if restarted {
            self.queue_standing_invalidated();
        }
        restarted
    }

    /// Queues the synthetic `Invalidated` push for the standing query,
    /// if any. Deduplicated against pushes already pending, so a
    /// reconnect followed by a restart detection yields one push, not
    /// two.
    fn queue_standing_invalidated(&mut self) {
        let Some(standing) = &self.standing else {
            return;
        };
        let request_id = standing.request_id;
        if self
            .pending_updates
            .iter()
            .any(|u| u.request_id == request_id && u.kind == SubscriptionKind::Invalidated)
        {
            return;
        }
        self.pending_updates.push(SubscriptionUpdatePayload {
            request_id,
            kind: SubscriptionKind::Invalidated,
            version: 0,
            margin: 0.0,
            drift_scale: 1,
        });
    }

    /// Reconnects (if the connection is broken) and re-handshakes,
    /// detecting a server restart via the `HelloAck` epoch. Returns
    /// `true` when the server restarted since this client last spoke
    /// to it. Whenever this had to reconnect — restart or not — a
    /// synthetic `Invalidated` push is queued for the standing query
    /// (a reconnect alone destroys the server-side subscription),
    /// retrievable via [`Self::take_notifications`]. Idempotent:
    /// resuming against a live server over a healthy connection is a
    /// cheap re-`Hello`.
    pub fn resume(&mut self) -> Result<bool, ServerError> {
        self.ensure_connected()?;
        let before = self.server_info.epoch;
        if let Err(first) = self.refresh_epoch() {
            // A crashed server kills the socket without this side
            // noticing until the next read; one reconnect-and-retry
            // covers exactly that window.
            self.broken = true;
            self.ensure_connected().map_err(|_| first)?;
            self.refresh_epoch()?;
        }
        Ok(before != 0 && self.server_info.epoch != before)
    }

    /// Re-learns the server's epoch: a re-`Hello` when parameters were
    /// already negotiated (restoring the session registry entry too),
    /// a bare `Ping` otherwise.
    fn refresh_epoch(&mut self) -> Result<(), ServerError> {
        match self.negotiated {
            Some(params) => self.handshake(params),
            None => self.ping().map(|_| ()),
        }
    }

    /// Queries issued by the underlying session (successful plans).
    /// Retries of one query never move this counter.
    pub fn queries_issued(&self) -> u64 {
        self.session.queries_issued()
    }

    /// Resilience counters for this client.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The session's public key.
    pub fn public_key(&self) -> &ppgnn_paillier::PublicKey {
        self.session.public_key()
    }

    /// Re-establishes the TCP connection if the last attempt killed it.
    /// Deliberately does **not** re-handshake: the server's registry
    /// keeps the session across reconnects.
    fn ensure_connected(&mut self) -> Result<(), ServerError> {
        if !self.broken {
            return Ok(());
        }
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        self.stream = stream;
        self.broken = false;
        self.stats.reconnects += 1;
        // The session survives a reconnect, but the standing query
        // does not: the server reaps a connection's subscriptions
        // with the connection itself, even when it never restarted
        // (network reset, slow-consumer disconnect). The token this
        // client holds is therefore dead the moment a reconnect was
        // needed — queue the synthetic push here, not only on an
        // epoch change, or a same-epoch reconnect would leave the
        // caller trusting a safe region nobody watches any more.
        self.queue_standing_invalidated();
        Ok(())
    }

    fn handshake(&mut self, params: SessionParams) -> Result<(), ServerError> {
        let hello = HelloPayload {
            group_id: self.group_id,
            key_bits: params.key_bits as u32,
            variant: params.variant,
            omega: params.two_phase_omega.unwrap_or(0) as u32,
            has_partition: params.has_partition,
            n_users: params.n_users as u32,
            delta: params.delta as u32,
            k: params.k as u32,
            d: params.d as u32,
        };
        write_frame(&mut self.stream, FrameType::Hello, &hello.encode())?;
        let frame = read_frame(&mut self.stream, self.max_payload)?;
        match frame.frame_type {
            FrameType::HelloAck => {
                let ack = HelloAckPayload::decode(&frame.payload)?;
                if ack.group_id != self.group_id {
                    return Err(ServerError::Malformed("hello_ack for a different group"));
                }
                // A padded server must advertise a usable envelope; a
                // zero target would make every later shape check fail
                // in a confusing place, so reject the handshake here.
                if ack.shape_mode == ShapeMode::Padded.to_u8()
                    && (ack.answer_target == 0 || ack.control_target == 0)
                {
                    return Err(ServerError::Malformed(
                        "padded shape negotiated with an empty target",
                    ));
                }
                // Adopt the server's advertised frame cap so an
                // oversized query fails fast client-side instead of
                // earning a strike at the server's gate.
                if ack.max_payload > 0 {
                    self.max_payload = ack.max_payload as usize;
                }
                self.observe_epoch(ack.epoch);
                self.server_info = ack;
                self.negotiated = Some(params);
                Ok(())
            }
            FrameType::Busy => {
                let busy = BusyPayload::decode(&frame.payload)?;
                Err(ServerError::ServerBusy {
                    retry_after_ms: busy.retry_after_ms,
                })
            }
            FrameType::Error => {
                let err = ErrorPayload::decode(&frame.payload)?;
                Err(ServerError::Remote {
                    code: err.code,
                    message: err.message,
                })
            }
            other => Err(ServerError::UnexpectedFrame {
                expected: "HelloAck",
                got: other,
            }),
        }
    }

    /// [`sessionless_exchange`] on this client's connection; a
    /// transport or framing failure marks the connection broken.
    fn sessionless(&mut self, request: FrameType) -> Result<Vec<u8>, ServerError> {
        self.ensure_connected()?;
        sessionless_exchange(&mut self.stream, request, self.max_payload).inspect_err(|e| {
            if !matches!(e, ServerError::UnexpectedFrame { .. }) {
                self.broken = true;
            }
        })
    }

    /// Checks server liveness and returns its health snapshot.
    pub fn ping(&mut self) -> Result<PongPayload, ServerError> {
        let pong = PongPayload::decode(&self.sessionless(FrameType::Ping)?)?;
        self.observe_epoch(pong.epoch);
        Ok(pong)
    }

    /// Fetches the server's full telemetry snapshot with a `Stats`
    /// request: every pipeline-stage histogram, crypto op counter,
    /// service counter, and load gauge — the wire face of
    /// [`ServerHandle::telemetry_snapshot`].
    ///
    /// [`ServerHandle::telemetry_snapshot`]:
    /// crate::server::ServerHandle::telemetry_snapshot
    pub fn server_stats(&mut self) -> Result<TelemetrySnapshot, ServerError> {
        Ok(StatsReplyPayload::decode(&self.sessionless(FrameType::Stats)?)?.snapshot)
    }

    /// Fetches-and-clears the server's kept trace segments with a
    /// sessionless `TraceFetch` request (same liveness lane as `Ping`
    /// and `Stats`). Segments already shipped are removed server-side,
    /// so repeated polls see only new traces.
    pub fn server_traces(&mut self) -> Result<Vec<TraceSegment>, ServerError> {
        Ok(TraceReplyPayload::decode(&self.sessionless(FrameType::TraceFetch)?)?.segments)
    }

    /// Runs one full group query: plans locally (Algorithm 1), ships
    /// the wire messages, and decrypts the answer.
    ///
    /// The plan (and the session's query counter) happens exactly once;
    /// the encoded bytes are then attempted under [`Self::retry`]:
    /// `Busy` sheds and transient failures back off and resend the same
    /// request ID, reconnecting if the connection died, until the
    /// wall-clock budget or attempt count runs out — at which point the
    /// last error surfaces. Deterministic failures surface immediately.
    ///
    /// Every query mints a [`TraceContext`] that rides in the frame v5
    /// header; when tracing is enabled the client half of the query is
    /// recorded under it (see `ppgnn_telemetry::trace`).
    pub fn query<R: Rng + ?Sized>(
        &mut self,
        real_locations: &[Point],
        rng: &mut R,
    ) -> Result<Vec<Point>, ServerError> {
        self.issue(real_locations, rng, false)
            .map(|(answer, _)| answer)
    }

    /// Like [`Self::query`], but registers a *standing* query: along
    /// with the `k` answers the server returns a [`SafeRegionToken`],
    /// and pushes a `SubscriptionUpdate` the moment a POI mutation
    /// could change the answer (poll with [`Self::poll_notifications`]).
    ///
    /// Internally the query asks for `k+1` answers: the extra one is a
    /// runner-up *sentinel* that never leaves this method. Its cost gap
    /// to the k-th answer is the true safe-region margin, computed
    /// right here from the decrypted answers — so the token's margin is
    /// exact for *this* group's query, with zero extra disclosure from
    /// the server (Privacy III), and no dependence on the server's
    /// conservative min-over-candidates bound.
    ///
    /// A group holds at most one subscription — re-subscribing
    /// replaces the previous standing query. If the grant is lost to a
    /// retried attempt (the server replays the cached answer but a
    /// replay never re-registers), this fails fast; re-subscribe to
    /// recover.
    pub fn subscribe<R: Rng + ?Sized>(
        &mut self,
        real_locations: &[Point],
        rng: &mut R,
    ) -> Result<(Vec<Point>, SafeRegionToken), ServerError> {
        let (mut answer, token) = self.issue(real_locations, rng, true)?;
        let mut token = token.ok_or(ServerError::Malformed(
            "subscribe returned no safe-region token",
        ))?;
        let k = self.config.k;
        let agg = self.config.aggregate;
        if answer.len() > k {
            // The sentinel gap, on this client's own decrypted costs.
            let c_prot = agg.eval(&answer[k - 1], real_locations);
            let c_sent = agg.eval(&answer[k], real_locations);
            token.margin = (c_sent - c_prot).max(0.0);
            answer.truncate(k);
        } else {
            // Fewer answers than asked: the database itself is smaller
            // than k+1, so the answer set cannot change without a
            // mutation — and every mutation near a free slot notifies.
            token.margin = f64::INFINITY;
        }
        self.standing = Some(token);
        Ok((answer, token))
    }

    /// Shared driver behind [`Self::query`] and [`Self::subscribe`].
    fn issue<R: Rng + ?Sized>(
        &mut self,
        real_locations: &[Point],
        rng: &mut R,
        subscribe: bool,
    ) -> Result<(Vec<Point>, Option<SafeRegionToken>), ServerError> {
        let (tctx, tracing) = trace::global().start();
        // Activate before any stage timer is armed so timer drops still
        // see the active trace and record their bucket exemplars.
        let active = tracing.as_ref().map(|h| h.activate());
        trace::attr(AttrKey::Users, real_locations.len() as u64);
        let retries_before = self.stats.retries;
        let result = self.query_attempts(tctx, real_locations, rng, subscribe);
        let retries = self.stats.retries - retries_before;
        if retries > 0 {
            trace::attr(AttrKey::Retries, retries);
        }
        if result.is_err() {
            trace::mark_error();
        }
        drop(active);
        if let Some(handle) = tracing {
            match &result {
                Ok(_) => handle.finish(),
                // Dropping without finish commits the segment with the
                // error flag — exactly what tail sampling must keep.
                Err(_) => drop(handle),
            }
        }
        result
    }

    /// The body of [`Self::query`], run under its trace segment.
    fn query_attempts<R: Rng + ?Sized>(
        &mut self,
        tctx: TraceContext,
        real_locations: &[Point],
        rng: &mut R,
        subscribe: bool,
    ) -> Result<(Vec<Point>, Option<SafeRegionToken>), ServerError> {
        // End-to-end covers plan, encode, every wire attempt (including
        // backoff sleeps), and the final decrypt — the latency a group
        // member actually experiences.
        let _e2e = telemetry::global().time(telemetry::Stage::EndToEnd);
        // A subscription asks for one extra answer — the runner-up
        // sentinel `subscribe` turns into the safe-region margin.
        let config = if subscribe {
            PpgnnConfig {
                k: self.config.k + 1,
                ..self.config.clone()
            }
        } else {
            self.config.clone()
        };
        let plan = self
            .session
            .plan(&config, self.space, real_locations, rng)?;
        let ctx = plan.wire_context();
        // Re-negotiate if this plan's decode context drifted (e.g. the
        // group size changed, shifting ω — or `k` shifting by the
        // sentinel when a client alternates queries and subscribes).
        let params = SessionParams {
            key_bits: ctx.key_bits,
            variant: variant_tag(config.variant),
            two_phase_omega: ctx.two_phase_omega,
            has_partition: ctx.has_partition,
            n_users: real_locations.len(),
            delta: config.delta,
            k: config.k,
            d: effective_set_len(&config),
        };
        let request_id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1).max(1);
        // Encoded once: every retry resends these exact bytes, so the
        // server sees the identical ciphertexts and request ID.
        let payload = {
            let sp = trace::span(SpanName::ClientEncode);
            let _t = telemetry::global().time(telemetry::Stage::ClientEncode);
            let bytes = QueryPayload {
                group_id: self.group_id,
                request_id,
                deadline_ms: self.deadline_ms,
                trace: tctx,
                location_sets: plan.location_sets.iter().map(|s| s.to_wire()).collect(),
                query: plan.query.to_wire(),
            }
            .encode();
            sp.attr(AttrKey::Bytes, bytes.len() as u64);
            bytes
        };

        let started = Instant::now();
        let mut schedule = BackoffSchedule::new(
            self.retry.clone(),
            self.group_id ^ ((request_id as u64) << 32),
        );
        let frame_type = if subscribe {
            FrameType::Subscribe
        } else {
            FrameType::Query
        };
        loop {
            let remaining = self.retry.budget.saturating_sub(started.elapsed());
            let result = self.attempt(frame_type, params, &payload, request_id, remaining);
            let err = match result {
                Ok(ans) => {
                    if ans.replayed {
                        self.stats.replayed_answers += 1;
                    }
                    if ans.two_phase != plan.two_phase {
                        return Err(ServerError::Malformed("answer encryption level mismatch"));
                    }
                    let msg = AnswerMessage::from_wire(
                        &ans.answer,
                        self.session.public_key(),
                        ans.two_phase,
                    )?;
                    let answer = self.session.decode(config.k, &msg)?;
                    if !subscribe {
                        return Ok((answer, None));
                    }
                    // A replayed answer comes from the server's cache;
                    // the replay path never registers a subscription,
                    // so no `Granted` will follow. Fail fast —
                    // re-subscribing mints a fresh request ID.
                    if ans.replayed {
                        return Err(ServerError::Malformed(
                            "subscription grant lost in answer replay; re-subscribe",
                        ));
                    }
                    let token = self.wait_granted(request_id)?;
                    return Ok((answer, Some(token)));
                }
                Err(e) => e,
            };
            let recovery = classify(&err);
            if matches!(err, ServerError::ServerBusy { .. }) {
                self.stats.busy_sheds += 1;
                trace::mark_shed();
            }
            if recovery.reconnect {
                self.broken = true;
            }
            if recovery.rehandshake {
                self.negotiated = None;
            }
            if !recovery.retryable || !schedule.attempts_left() {
                return Err(err);
            }
            let delay = schedule.next_delay(recovery.retry_after_ms);
            if started.elapsed() + delay >= self.retry.budget {
                return Err(err);
            }
            std::thread::sleep(delay);
            self.stats.retries += 1;
        }
    }

    /// One send/receive attempt for an already-encoded query.
    fn attempt(
        &mut self,
        frame_type: FrameType,
        params: SessionParams,
        payload: &[u8],
        request_id: u32,
        remaining: Duration,
    ) -> Result<AnswerPayload, ServerError> {
        if remaining.is_zero() {
            return Err(ServerError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "query retry budget exhausted",
            )));
        }
        self.ensure_connected()?;
        if self.negotiated != Some(params) {
            self.handshake(params)?;
        }
        // Bound the wait for this attempt by what is left of the
        // budget, so a lost reply cannot stall past it.
        self.stream
            .set_read_timeout(Some(remaining.min(READ_TIMEOUT).max(MIN_READ_TIMEOUT)))?;
        // Fail fast on a query the server's frame cap would reject
        // anyway; shipping it would only earn us a strike.
        if payload.len() > self.max_payload {
            return Err(ServerError::FrameTooLarge {
                len: payload.len(),
                max: self.max_payload,
            });
        }
        write_frame(&mut self.stream, frame_type, payload)?;
        // The tap clock starts when the request hits the wire: what an
        // on-path observer would measure as this request's latency.
        let sent = Instant::now();
        loop {
            let frame = read_frame(&mut self.stream, self.max_payload)?;
            self.check_shape(&frame)?;
            self.observe_wire(&frame, sent.elapsed());
            match frame.frame_type {
                // An earlier subscription's push can land while this
                // query's answer is in flight; stash it, don't desync.
                FrameType::SubscriptionUpdate => {
                    let update = SubscriptionUpdatePayload::decode(&frame.payload)?;
                    self.pending_updates.push(update);
                }
                FrameType::Answer => {
                    let ans = AnswerPayload::decode(&frame.payload)?;
                    if ans.request_id != request_id {
                        return Err(ServerError::Malformed("answer for a different request"));
                    }
                    return Ok(ans);
                }
                FrameType::Busy => {
                    let busy = BusyPayload::decode(&frame.payload)?;
                    return Err(ServerError::ServerBusy {
                        retry_after_ms: busy.retry_after_ms,
                    });
                }
                FrameType::Error => {
                    let err = ErrorPayload::decode(&frame.payload)?;
                    return Err(ServerError::Remote {
                        code: err.code,
                        message: err.message,
                    });
                }
                // A server draining mid-request says Goodbye; surface it.
                FrameType::Goodbye => {
                    return Err(ServerError::Remote {
                        code: ErrorCode::ShuttingDown,
                        message: "server said goodbye".into(),
                    });
                }
                FrameType::Pong => continue,
                other => {
                    return Err(ServerError::UnexpectedFrame {
                        expected: "Answer",
                        got: other,
                    })
                }
            }
        }
    }

    /// Waits for the `Granted` push that follows a `Subscribe` answer.
    fn wait_granted(&mut self, request_id: u32) -> Result<SafeRegionToken, ServerError> {
        loop {
            let frame = read_frame(&mut self.stream, self.max_payload).inspect_err(|_| {
                self.broken = true;
            })?;
            match frame.frame_type {
                FrameType::SubscriptionUpdate => {
                    let update = SubscriptionUpdatePayload::decode(&frame.payload)?;
                    if update.request_id == request_id && update.kind == SubscriptionKind::Granted {
                        return Ok(SafeRegionToken {
                            request_id,
                            version: update.version,
                            margin: update.margin,
                            drift_scale: update.drift_scale,
                        });
                    }
                    self.pending_updates.push(update);
                }
                FrameType::Pong => continue,
                FrameType::Error => {
                    let err = ErrorPayload::decode(&frame.payload)?;
                    return Err(ServerError::Remote {
                        code: err.code,
                        message: err.message,
                    });
                }
                other => {
                    return Err(ServerError::UnexpectedFrame {
                        expected: "SubscriptionUpdate",
                        got: other,
                    })
                }
            }
        }
    }

    /// Drains pushes already received (stashed while waiting for other
    /// replies) without touching the network.
    pub fn take_notifications(&mut self) -> Vec<SubscriptionUpdatePayload> {
        std::mem::take(&mut self.pending_updates)
    }

    /// Waits up to `wait` for subscription pushes. Returns whatever
    /// arrived (possibly none): stashed pushes immediately, otherwise
    /// whatever the server sends before the deadline. A quiet wire is
    /// not an error.
    pub fn poll_notifications(
        &mut self,
        wait: Duration,
    ) -> Result<Vec<SubscriptionUpdatePayload>, ServerError> {
        if !self.pending_updates.is_empty() {
            return Ok(self.take_notifications());
        }
        self.ensure_connected()?;
        self.stream
            .set_read_timeout(Some(wait.min(READ_TIMEOUT).max(MIN_READ_TIMEOUT)))?;
        loop {
            match read_frame(&mut self.stream, self.max_payload) {
                Ok(frame) => match frame.frame_type {
                    FrameType::SubscriptionUpdate => {
                        let update = SubscriptionUpdatePayload::decode(&frame.payload)?;
                        self.pending_updates.push(update);
                        // Drain whatever else is already in flight,
                        // but don't wait the full deadline again.
                        self.stream.set_read_timeout(Some(MIN_READ_TIMEOUT))?;
                    }
                    FrameType::Pong => continue,
                    other => {
                        self.broken = true;
                        return Err(ServerError::UnexpectedFrame {
                            expected: "SubscriptionUpdate",
                            got: other,
                        });
                    }
                },
                // A clean timeout means "nothing pushed" — the frame
                // header is read in one piece, so no bytes were lost.
                Err(ServerError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    break;
                }
                Err(e) => {
                    // A dead wire mid-poll is how a subscriber
                    // experiences a server crash *or* a plain network
                    // reset. Try one resume: the reconnect itself
                    // queues the synthetic invalidation the caller
                    // re-subscribes on (the server reaped the standing
                    // query with the old connection whether or not it
                    // restarted). If the server is still down, surface
                    // the original transport error.
                    self.broken = true;
                    return match self.resume() {
                        Ok(_) => Ok(self.take_notifications()),
                        Err(_) => Err(e),
                    };
                }
            }
        }
        self.stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(self.take_notifications())
    }

    /// Cancels the standing query granted under `token`. Idempotent:
    /// the server confirms with an `Ended` push either way.
    pub fn unsubscribe(&mut self, token: &SafeRegionToken) -> Result<(), ServerError> {
        self.ensure_connected()?;
        let payload = UnsubscribePayload {
            group_id: self.group_id,
            request_id: token.request_id,
        };
        write_frame(&mut self.stream, FrameType::Unsubscribe, &payload.encode()).inspect_err(
            |_| {
                self.broken = true;
            },
        )?;
        loop {
            let frame = read_frame(&mut self.stream, self.max_payload).inspect_err(|_| {
                self.broken = true;
            })?;
            match frame.frame_type {
                FrameType::SubscriptionUpdate => {
                    let update = SubscriptionUpdatePayload::decode(&frame.payload)?;
                    if update.request_id == token.request_id
                        && update.kind == SubscriptionKind::Ended
                    {
                        if self.standing.map(|s| s.request_id) == Some(token.request_id) {
                            self.standing = None;
                        }
                        return Ok(());
                    }
                    self.pending_updates.push(update);
                }
                FrameType::Pong => continue,
                FrameType::Error => {
                    let err = ErrorPayload::decode(&frame.payload)?;
                    return Err(ServerError::Remote {
                        code: err.code,
                        message: err.message,
                    });
                }
                other => {
                    return Err(ServerError::UnexpectedFrame {
                        expected: "SubscriptionUpdate",
                        got: other,
                    })
                }
            }
        }
    }

    /// The admin lane: ships a POI mutation batch. Requires the
    /// server's shared-secret `admin_token`; a wrong token earns a
    /// protocol-violation strike, exactly like any hostile frame.
    pub fn poi_update(
        &mut self,
        admin_token: u64,
        ops: &[PoiOp],
    ) -> Result<PoiUpdateAckPayload, ServerError> {
        let request_id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1).max(1);
        self.poi_update_with_id(admin_token, request_id, ops)
    }

    /// As [`Self::poi_update`], but with a caller-chosen `request_id` —
    /// the at-least-once redelivery path. Re-sending a previously acked
    /// batch verbatim (same id, same ops) is safe against a durable
    /// server: it recognizes the batch and acks the *original* version
    /// without applying it twice.
    pub fn poi_update_with_id(
        &mut self,
        admin_token: u64,
        request_id: u32,
        ops: &[PoiOp],
    ) -> Result<PoiUpdateAckPayload, ServerError> {
        self.ensure_connected()?;
        let payload = PoiUpdatePayload {
            admin_token,
            request_id,
            ops: ops.to_vec(),
        };
        write_frame(&mut self.stream, FrameType::PoiUpdate, &payload.encode()).inspect_err(
            |_| {
                self.broken = true;
            },
        )?;
        loop {
            let frame = read_frame(&mut self.stream, self.max_payload).inspect_err(|_| {
                self.broken = true;
            })?;
            match frame.frame_type {
                FrameType::PoiUpdateAck => {
                    let ack = PoiUpdateAckPayload::decode(&frame.payload)?;
                    if ack.request_id != request_id {
                        return Err(ServerError::Malformed("ack for a different request"));
                    }
                    return Ok(ack);
                }
                FrameType::SubscriptionUpdate => {
                    let update = SubscriptionUpdatePayload::decode(&frame.payload)?;
                    self.pending_updates.push(update);
                }
                FrameType::Busy => {
                    let busy = BusyPayload::decode(&frame.payload)?;
                    return Err(ServerError::ServerBusy {
                        retry_after_ms: busy.retry_after_ms,
                    });
                }
                FrameType::Error => {
                    let err = ErrorPayload::decode(&frame.payload)?;
                    return Err(ServerError::Remote {
                        code: err.code,
                        message: err.message,
                    });
                }
                FrameType::Pong => continue,
                other => {
                    return Err(ServerError::UnexpectedFrame {
                        expected: "PoiUpdateAck",
                        got: other,
                    })
                }
            }
        }
    }

    /// Closes the connection cleanly.
    pub fn goodbye(mut self) {
        let _ = write_frame(&mut self.stream, FrameType::Goodbye, &[]);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}
