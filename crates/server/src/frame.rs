//! The length-prefixed frame layer.
//!
//! Every message on the socket is one frame:
//!
//! ```text
//! +------+---------+------+----------------+------------+-------------+---------+---------+
//! | PPGN | version | type | payload length | pad length | payload crc | payload | padding |
//! | 4 B  | 1 B     | 1 B  | u32 LE         | u32 LE     | u32 LE      | N bytes | P bytes |
//! +------+---------+------+----------------+------------+-------------+---------+---------+
//! ```
//!
//! The payload of `Query`/`Answer` frames wraps the byte-exact
//! [`ppgnn_core::wire`] encodings; the frame layer itself only does
//! framing, typing, length policing, and integrity (version 2 added a
//! CRC-32 of the payload: a flipped ciphertext byte would otherwise
//! decrypt to a plausible-but-wrong answer with no way to tell).
//! Version 8 added the pad-length field: under a padded
//! [`ShapePolicy`](crate::shape::ShapePolicy) the server stretches every
//! response frame to one policy-wide size by appending `P` zero bytes
//! that the reader discards. The CRC covers the real payload only — the
//! padding carries no information by construction, so there is nothing
//! to protect. Decoding never panics: every truncated, oversized,
//! corrupted, or garbage input maps to a typed [`ServerError`].

use std::io::{Read, Write};

use ppgnn_geo::{Poi, PoiOp, Point};
use ppgnn_telemetry::trace::{self, TraceContext, TraceSegment, TRACE_CONTEXT_BYTES};
use ppgnn_telemetry::{HealthSnapshot, TelemetrySnapshot};

use crate::error::{ErrorCode, ServerError};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"PPGN";
/// Frame-layer version this build speaks (2 added a payload CRC in the
/// header; 3 widened `Hello` with the session shape — n/δ/k/d — that
/// the server's validation gate holds every query to, and `Pong` with
/// the admission-control counters; 4 added the `Stats`/`StatsReply`
/// telemetry exchange and rebased `Pong` on the fixed-width
/// [`HealthSnapshot`] encoding; 5 added the 16-byte [`TraceContext`]
/// to the `Query` header and the sessionless `TraceFetch`/`TraceReply`
/// exchange for pulling kept trace segments; 6 added the dynamic-world
/// lanes: `PoiUpdate`/`PoiUpdateAck` admin mutations of the POI index
/// and the `Subscribe`/`SubscriptionUpdate`/`Unsubscribe` standing-query
/// exchange for moving groups; 7 added the server's restart `epoch` to
/// `HelloAck` and `Pong` so clients detect a crash/recovery cycle and
/// idempotently re-subscribe their standing queries; 8 added the u32
/// pad-length header field and the shape facts in `HelloAck` so a
/// padded server can stretch every response lane to one constant size
/// that clients strip transparently; 9 widened [`HealthSnapshot`] — and
/// therefore `Pong` — with the four SLO burn-rate fields, permille of
/// the configured error budget over the fast and slow windows).
pub const VERSION: u8 = 9;
/// Fixed header width: magic + version + type + u32 length + u32 pad
/// length + u32 crc.
pub const HEADER_BYTES: usize = 18;
/// Default cap on a single frame payload (16 MiB).
pub const DEFAULT_MAX_PAYLOAD: usize = 16 << 20;
/// Cap on location sets per query (one per user; groups are small).
pub const MAX_LOCATION_SETS: usize = 4096;
/// Cap on mutations per `PoiUpdate` frame — bounds both decode memory
/// and the time the admin lane can hold the index's writer lock.
pub const MAX_POI_OPS: usize = 4096;

/// The frame type tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Client → server: negotiate a group session.
    Hello,
    /// Server → client: session accepted, server facts attached.
    HelloAck,
    /// Client → server: one group query (sets + query message).
    Query,
    /// Server → client: the encrypted answer.
    Answer,
    /// Server → client: load shed, retry later.
    Busy,
    /// Server → client: typed failure for one request.
    Error,
    /// Either side: clean connection close.
    Goodbye,
    /// Liveness probe.
    Ping,
    /// Liveness reply.
    Pong,
    /// Client → server: request a full telemetry snapshot.
    Stats,
    /// Server → client: the telemetry snapshot.
    StatsReply,
    /// Client → server: drain the kept trace segments.
    TraceFetch,
    /// Server → client: the drained trace segments.
    TraceReply,
    /// Admin → server: a batch of POI insert/remove mutations.
    PoiUpdate,
    /// Server → admin: mutation batch applied, new index version.
    PoiUpdateAck,
    /// Client → server: a standing group query (payload is a
    /// [`QueryPayload`]); answered once, then watched for invalidation.
    Subscribe,
    /// Server → client: a subscription life-cycle push (granted /
    /// invalidated / ended) with the safe-region token.
    SubscriptionUpdate,
    /// Client → server: drop a standing query.
    Unsubscribe,
}

impl FrameType {
    /// Wire tag.
    pub fn to_u8(self) -> u8 {
        match self {
            FrameType::Hello => 0x01,
            FrameType::HelloAck => 0x02,
            FrameType::Query => 0x03,
            FrameType::Answer => 0x04,
            FrameType::Busy => 0x05,
            FrameType::Error => 0x06,
            FrameType::Goodbye => 0x07,
            FrameType::Ping => 0x08,
            FrameType::Pong => 0x09,
            FrameType::Stats => 0x0a,
            FrameType::StatsReply => 0x0b,
            FrameType::TraceFetch => 0x0c,
            FrameType::TraceReply => 0x0d,
            FrameType::PoiUpdate => 0x0e,
            FrameType::PoiUpdateAck => 0x0f,
            FrameType::Subscribe => 0x10,
            FrameType::SubscriptionUpdate => 0x11,
            FrameType::Unsubscribe => 0x12,
        }
    }

    /// Parses a wire tag.
    pub fn from_u8(v: u8) -> Result<Self, ServerError> {
        Ok(match v {
            0x01 => FrameType::Hello,
            0x02 => FrameType::HelloAck,
            0x03 => FrameType::Query,
            0x04 => FrameType::Answer,
            0x05 => FrameType::Busy,
            0x06 => FrameType::Error,
            0x07 => FrameType::Goodbye,
            0x08 => FrameType::Ping,
            0x09 => FrameType::Pong,
            0x0a => FrameType::Stats,
            0x0b => FrameType::StatsReply,
            0x0c => FrameType::TraceFetch,
            0x0d => FrameType::TraceReply,
            0x0e => FrameType::PoiUpdate,
            0x0f => FrameType::PoiUpdateAck,
            0x10 => FrameType::Subscribe,
            0x11 => FrameType::SubscriptionUpdate,
            0x12 => FrameType::Unsubscribe,
            other => return Err(ServerError::UnknownFrameType(other)),
        })
    }
}

/// One decoded frame: its type and raw payload bytes.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The type tag.
    pub frame_type: FrameType,
    /// The raw payload (still to be parsed by the payload structs).
    pub payload: Vec<u8>,
    /// Shape-padding bytes that followed the payload (already read and
    /// discarded). `payload.len() + pad` is what an on-path observer
    /// sees past the fixed header.
    pub pad: usize,
}

fn map_eof(e: std::io::Error) -> ServerError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        ServerError::ConnectionClosed
    } else {
        ServerError::Io(e)
    }
}

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) of `data`, as carried in the frame header.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = u32::MAX;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Writes one frame as a single `write_all`.
pub fn write_frame(
    w: &mut impl Write,
    frame_type: FrameType,
    payload: &[u8],
) -> Result<(), ServerError> {
    write_frame_padded(w, frame_type, payload, 0)
}

/// Writes one frame with `pad` trailing zero bytes, as a single
/// `write_all` — the shaped-response path. The CRC covers the real
/// payload only; the padding is pure filler the reader discards.
pub fn write_frame_padded(
    w: &mut impl Write,
    frame_type: FrameType,
    payload: &[u8],
    pad: usize,
) -> Result<(), ServerError> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len() + pad);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(frame_type.to_u8());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(pad as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.resize(buf.len() + payload.len() + pad, 0);
    let payload_at = HEADER_BYTES;
    buf[payload_at..payload_at + payload.len()].copy_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, rejecting payloads larger than `max_payload`.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<Frame, ServerError> {
    let mut lead = [0u8; 1];
    r.read_exact(&mut lead).map_err(map_eof)?;
    read_frame_with_lead(r, lead[0], max_payload)
}

/// Completes a frame whose first byte was already consumed.
///
/// The server reads the first byte separately (with a short timeout, as
/// its shutdown poll point) and only then commits to a blocking read of
/// the rest — so a read timeout can never strand a half-consumed header.
pub fn read_frame_with_lead(
    r: &mut impl Read,
    lead: u8,
    max_payload: usize,
) -> Result<Frame, ServerError> {
    let mut rest = [0u8; HEADER_BYTES - 1];
    r.read_exact(&mut rest).map_err(map_eof)?;
    let magic = [lead, rest[0], rest[1], rest[2]];
    if magic != MAGIC {
        return Err(ServerError::BadMagic(magic));
    }
    if rest[3] != VERSION {
        return Err(ServerError::BadVersion(rest[3]));
    }
    let frame_type = FrameType::from_u8(rest[4])?;
    let len = u32::from_le_bytes([rest[5], rest[6], rest[7], rest[8]]) as usize;
    let pad = u32::from_le_bytes([rest[9], rest[10], rest[11], rest[12]]) as usize;
    let expected_crc = u32::from_le_bytes([rest[13], rest[14], rest[15], rest[16]]);
    // Payload and padding count against the cap together: the cap
    // bounds what one frame makes this side read, not just parse.
    let total = len.saturating_add(pad);
    if total > max_payload {
        return Err(ServerError::FrameTooLarge {
            len: total,
            max: max_payload,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(map_eof)?;
    let actual_crc = crc32(&payload);
    if actual_crc != expected_crc {
        return Err(ServerError::ChecksumMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    // Drain the padding. Its content is discarded by design (all-zero
    // on the wire, but nothing downstream may depend on that).
    let mut remaining = pad;
    let mut sink = [0u8; 4096];
    while remaining > 0 {
        let chunk = remaining.min(sink.len());
        r.read_exact(&mut sink[..chunk]).map_err(map_eof)?;
        remaining -= chunk;
    }
    Ok(Frame {
        frame_type,
        payload,
        pad,
    })
}

// ---- payload primitives -------------------------------------------------

fn take<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    width: usize,
    what: &'static str,
) -> Result<&'a [u8], ServerError> {
    let end = pos.checked_add(width).ok_or(ServerError::Malformed(what))?;
    let slice = buf.get(*pos..end).ok_or(ServerError::Malformed(what))?;
    *pos = end;
    Ok(slice)
}

fn get_u8(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u8, ServerError> {
    Ok(take(buf, pos, 1, what)?[0])
}

fn get_u16(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u16, ServerError> {
    // `take` returned exactly 2 bytes, so the conversion cannot fail.
    let b: [u8; 2] = take(buf, pos, 2, what)?
        .try_into()
        .map_err(|_| ServerError::Malformed(what))?;
    Ok(u16::from_le_bytes(b))
}

fn get_u32(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u32, ServerError> {
    let b: [u8; 4] = take(buf, pos, 4, what)?
        .try_into()
        .map_err(|_| ServerError::Malformed(what))?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, ServerError> {
    let b: [u8; 8] = take(buf, pos, 8, what)?
        .try_into()
        .map_err(|_| ServerError::Malformed(what))?;
    Ok(u64::from_le_bytes(b))
}

fn expect_consumed(buf: &[u8], pos: usize, what: &'static str) -> Result<(), ServerError> {
    if pos != buf.len() {
        return Err(ServerError::Malformed(what));
    }
    Ok(())
}

// ---- payload structs ----------------------------------------------------

/// `Hello`: the public session parameters a decoder needs, keyed by
/// group ID in the server's registry.
///
/// Version 3 added the session *shape* — group size, δ, k, d. The
/// server pins every later query of the session to these numbers: a
/// query whose vectors disagree with its own handshake is a protocol
/// violation, not an honest decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloPayload {
    /// The group's stable identifier.
    pub group_id: u64,
    /// Negotiated Paillier key size in bits.
    pub key_bits: u32,
    /// Protocol variant tag (0 = Plain, 1 = Opt, 2 = Naive) — for
    /// observability; decoding is driven by `omega`/`has_partition`.
    pub variant: u8,
    /// Two-phase outer block count ω; 0 means a plain indicator.
    pub omega: u32,
    /// Whether queries carry a partition block (absent for Naive).
    pub has_partition: bool,
    /// Number of users in the group (= location sets per query).
    pub n_users: u32,
    /// Candidate-set size δ the group committed to.
    pub delta: u32,
    /// Neighbors requested per query.
    pub k: u32,
    /// Per-user dummy-set size d (Plain/Opt); equals δ for Naive.
    pub d: u32,
}

impl HelloPayload {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(34);
        buf.extend_from_slice(&self.group_id.to_le_bytes());
        buf.extend_from_slice(&self.key_bits.to_le_bytes());
        buf.push(self.variant);
        buf.extend_from_slice(&self.omega.to_le_bytes());
        buf.push(self.has_partition as u8);
        buf.extend_from_slice(&self.n_users.to_le_bytes());
        buf.extend_from_slice(&self.delta.to_le_bytes());
        buf.extend_from_slice(&self.k.to_le_bytes());
        buf.extend_from_slice(&self.d.to_le_bytes());
        buf
    }

    /// Parses the payload.
    pub fn decode(buf: &[u8]) -> Result<Self, ServerError> {
        let mut pos = 0;
        let group_id = get_u64(buf, &mut pos, "hello.group_id")?;
        let key_bits = get_u32(buf, &mut pos, "hello.key_bits")?;
        let variant = get_u8(buf, &mut pos, "hello.variant")?;
        let omega = get_u32(buf, &mut pos, "hello.omega")?;
        let has_partition = match get_u8(buf, &mut pos, "hello.has_partition")? {
            0 => false,
            1 => true,
            _ => return Err(ServerError::Malformed("hello.has_partition")),
        };
        let n_users = get_u32(buf, &mut pos, "hello.n_users")?;
        let delta = get_u32(buf, &mut pos, "hello.delta")?;
        let k = get_u32(buf, &mut pos, "hello.k")?;
        let d = get_u32(buf, &mut pos, "hello.d")?;
        expect_consumed(buf, pos, "hello trailing bytes")?;
        if key_bits == 0 || key_bits > 1 << 16 {
            return Err(ServerError::Malformed("hello.key_bits out of range"));
        }
        if n_users == 0 || n_users as usize > MAX_LOCATION_SETS {
            return Err(ServerError::Malformed("hello.n_users out of range"));
        }
        Ok(HelloPayload {
            group_id,
            key_bits,
            variant,
            omega,
            has_partition,
            n_users,
            delta,
            k,
            d,
        })
    }
}

/// `HelloAck`: server facts echoed back on session acceptance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAckPayload {
    /// Echo of the accepted group ID.
    pub group_id: u64,
    /// Number of POIs in the LSP's database.
    pub database_size: u64,
    /// Largest frame payload the server will accept.
    pub max_payload: u32,
    /// Worker threads serving queries.
    pub workers: u32,
    /// The server's restart epoch: a fresh value per process start that
    /// survives nothing. A client that sees the epoch change between
    /// handshakes knows the server crashed (or was restarted) and must
    /// re-subscribe its standing queries.
    pub epoch: u64,
    /// Shape mode tag (version 8): 0 = off, 1 = padded. Under `padded`
    /// the client can hold the server to the advertised targets below.
    pub shape_mode: u8,
    /// Constant on-wire size (payload + pad) of every `Answer` frame
    /// under `padded`; 0 when shaping is off.
    pub answer_target: u32,
    /// Constant on-wire size of every control-lane response
    /// (`Busy`/`Error`/`SubscriptionUpdate`) under `padded`; 0 when off.
    pub control_target: u32,
    /// Latency quantum in milliseconds: responses release only on
    /// multiples of this boundary; 0 when shaping is off.
    pub latency_quantum_ms: u32,
}

impl HelloAckPayload {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(45);
        buf.extend_from_slice(&self.group_id.to_le_bytes());
        buf.extend_from_slice(&self.database_size.to_le_bytes());
        buf.extend_from_slice(&self.max_payload.to_le_bytes());
        buf.extend_from_slice(&self.workers.to_le_bytes());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.push(self.shape_mode);
        buf.extend_from_slice(&self.answer_target.to_le_bytes());
        buf.extend_from_slice(&self.control_target.to_le_bytes());
        buf.extend_from_slice(&self.latency_quantum_ms.to_le_bytes());
        buf
    }

    /// Parses the payload.
    pub fn decode(buf: &[u8]) -> Result<Self, ServerError> {
        let mut pos = 0;
        let group_id = get_u64(buf, &mut pos, "hello_ack.group_id")?;
        let database_size = get_u64(buf, &mut pos, "hello_ack.database_size")?;
        let max_payload = get_u32(buf, &mut pos, "hello_ack.max_payload")?;
        let workers = get_u32(buf, &mut pos, "hello_ack.workers")?;
        let epoch = get_u64(buf, &mut pos, "hello_ack.epoch")?;
        let shape_mode = get_u8(buf, &mut pos, "hello_ack.shape_mode")?;
        if shape_mode > 1 {
            return Err(ServerError::Malformed("hello_ack.shape_mode out of range"));
        }
        let answer_target = get_u32(buf, &mut pos, "hello_ack.answer_target")?;
        let control_target = get_u32(buf, &mut pos, "hello_ack.control_target")?;
        let latency_quantum_ms = get_u32(buf, &mut pos, "hello_ack.latency_quantum_ms")?;
        expect_consumed(buf, pos, "hello_ack trailing bytes")?;
        Ok(HelloAckPayload {
            group_id,
            database_size,
            max_payload,
            workers,
            epoch,
            shape_mode,
            answer_target,
            control_target,
            latency_quantum_ms,
        })
    }
}

/// `Query`: one group query — the coordinator's query message plus every
/// user's location set, each as its own length-prefixed `wire` blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPayload {
    /// The session (group) this query decodes under.
    pub group_id: u64,
    /// Client-chosen request identifier, echoed in the reply.
    pub request_id: u32,
    /// Per-request deadline in milliseconds; 0 means the server default.
    pub deadline_ms: u32,
    /// The query's trace identity (version 5). Always present; the
    /// sampling bit says whether either side records spans for it.
    pub trace: TraceContext,
    /// `n` encoded [`ppgnn_core::messages::LocationSetMessage`]s.
    pub location_sets: Vec<Vec<u8>>,
    /// The encoded [`ppgnn_core::messages::QueryMessage`].
    pub query: Vec<u8>,
}

impl QueryPayload {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let sets: usize = self.location_sets.iter().map(|s| 4 + s.len()).sum();
        let mut buf = Vec::with_capacity(20 + TRACE_CONTEXT_BYTES + sets + 4 + self.query.len());
        buf.extend_from_slice(&self.group_id.to_le_bytes());
        buf.extend_from_slice(&self.request_id.to_le_bytes());
        buf.extend_from_slice(&self.deadline_ms.to_le_bytes());
        buf.extend_from_slice(&self.trace.to_wire());
        buf.extend_from_slice(&(self.location_sets.len() as u32).to_le_bytes());
        for set in &self.location_sets {
            buf.extend_from_slice(&(set.len() as u32).to_le_bytes());
            buf.extend_from_slice(set);
        }
        buf.extend_from_slice(&(self.query.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.query);
        buf
    }

    /// Parses the payload. Inner blobs stay raw — they are decoded
    /// against the session's `WireContext` by the connection handler.
    pub fn decode(buf: &[u8]) -> Result<Self, ServerError> {
        let mut pos = 0;
        let group_id = get_u64(buf, &mut pos, "query.group_id")?;
        let request_id = get_u32(buf, &mut pos, "query.request_id")?;
        let deadline_ms = get_u32(buf, &mut pos, "query.deadline_ms")?;
        let trace =
            TraceContext::from_wire(take(buf, &mut pos, TRACE_CONTEXT_BYTES, "query.trace")?)
                .map_err(|e| ServerError::Malformed(e.as_str()))?;
        let set_count = get_u32(buf, &mut pos, "query.set_count")? as usize;
        if set_count > MAX_LOCATION_SETS {
            return Err(ServerError::Malformed("query.set_count out of range"));
        }
        let mut location_sets = Vec::with_capacity(set_count);
        for _ in 0..set_count {
            let len = get_u32(buf, &mut pos, "query.set_len")? as usize;
            location_sets.push(take(buf, &mut pos, len, "query.set_bytes")?.to_vec());
        }
        let qlen = get_u32(buf, &mut pos, "query.query_len")? as usize;
        let query = take(buf, &mut pos, qlen, "query.query_bytes")?.to_vec();
        expect_consumed(buf, pos, "query trailing bytes")?;
        Ok(QueryPayload {
            group_id,
            request_id,
            deadline_ms,
            trace,
            location_sets,
            query,
        })
    }
}

/// `Answer`: the LSP's encrypted answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerPayload {
    /// Echo of the request identifier.
    pub request_id: u32,
    /// Whether the answer is doubly encrypted (PPGNN-OPT).
    pub two_phase: bool,
    /// Whether this answer was replayed from the session's answer cache
    /// (an idempotent retry of an already-served request).
    pub replayed: bool,
    /// The encoded [`ppgnn_core::messages::AnswerMessage`].
    pub answer: Vec<u8>,
}

impl AnswerPayload {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(6 + self.answer.len());
        buf.extend_from_slice(&self.request_id.to_le_bytes());
        buf.push(self.two_phase as u8);
        buf.push(self.replayed as u8);
        buf.extend_from_slice(&self.answer);
        buf
    }

    /// Parses the payload.
    pub fn decode(buf: &[u8]) -> Result<Self, ServerError> {
        let mut pos = 0;
        let request_id = get_u32(buf, &mut pos, "answer.request_id")?;
        let two_phase = match get_u8(buf, &mut pos, "answer.two_phase")? {
            0 => false,
            1 => true,
            _ => return Err(ServerError::Malformed("answer.two_phase")),
        };
        let replayed = match get_u8(buf, &mut pos, "answer.replayed")? {
            0 => false,
            1 => true,
            _ => return Err(ServerError::Malformed("answer.replayed")),
        };
        let answer = buf[pos..].to_vec();
        Ok(AnswerPayload {
            request_id,
            two_phase,
            replayed,
            answer,
        })
    }
}

/// `Busy`: backpressure shed for one request (or a refused connection,
/// with `request_id == 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyPayload {
    /// Echo of the shed request identifier (0 when refusing a connect).
    pub request_id: u32,
    /// Suggested client backoff.
    pub retry_after_ms: u32,
}

impl BusyPayload {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8);
        buf.extend_from_slice(&self.request_id.to_le_bytes());
        buf.extend_from_slice(&self.retry_after_ms.to_le_bytes());
        buf
    }

    /// Parses the payload.
    pub fn decode(buf: &[u8]) -> Result<Self, ServerError> {
        let mut pos = 0;
        let request_id = get_u32(buf, &mut pos, "busy.request_id")?;
        let retry_after_ms = get_u32(buf, &mut pos, "busy.retry_after_ms")?;
        expect_consumed(buf, pos, "busy trailing bytes")?;
        Ok(BusyPayload {
            request_id,
            retry_after_ms,
        })
    }
}

/// `Error`: a typed failure for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorPayload {
    /// Echo of the failed request identifier (0 for session-level errors).
    pub request_id: u32,
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail (truncated to 64 KiB on the wire).
    pub message: String,
}

impl ErrorPayload {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let msg = self.message.as_bytes();
        let len = msg.len().min(u16::MAX as usize);
        let mut buf = Vec::with_capacity(8 + len);
        buf.extend_from_slice(&self.request_id.to_le_bytes());
        buf.extend_from_slice(&self.code.to_u16().to_le_bytes());
        buf.extend_from_slice(&(len as u16).to_le_bytes());
        buf.extend_from_slice(&msg[..len]);
        buf
    }

    /// Parses the payload.
    pub fn decode(buf: &[u8]) -> Result<Self, ServerError> {
        let mut pos = 0;
        let request_id = get_u32(buf, &mut pos, "error.request_id")?;
        let code = ErrorCode::from_u16(get_u16(buf, &mut pos, "error.code")?)
            .ok_or(ServerError::Malformed("error.code"))?;
        let len = get_u16(buf, &mut pos, "error.msg_len")? as usize;
        let bytes = take(buf, &mut pos, len, "error.message")?;
        let message = String::from_utf8_lossy(bytes).into_owned();
        expect_consumed(buf, pos, "error trailing bytes")?;
        Ok(ErrorPayload {
            request_id,
            code,
            message,
        })
    }
}

/// `Pong`: the health probe reply — a liveness check that carries the
/// server's compact [`HealthSnapshot`] (load gauges plus the
/// admission-control counters), so clients and operators can see queue
/// pressure and worker health without a side channel.
///
/// The payload is the snapshot's fixed-width encoding; `Deref` keeps
/// `pong.live_workers`-style field access working.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PongPayload {
    /// The server's health snapshot.
    pub health: HealthSnapshot,
    /// The server's restart epoch (see [`HelloAckPayload::epoch`]) —
    /// carried on every pong so a long-lived connection notices a
    /// restart without re-handshaking.
    pub epoch: u64,
}

impl std::ops::Deref for PongPayload {
    type Target = HealthSnapshot;

    fn deref(&self) -> &HealthSnapshot {
        &self.health
    }
}

impl std::ops::DerefMut for PongPayload {
    fn deref_mut(&mut self) -> &mut HealthSnapshot {
        &mut self.health
    }
}

impl PongPayload {
    /// Serializes the payload: the snapshot's fixed-width encoding
    /// followed by the epoch.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = self.health.encode();
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf
    }

    /// Parses the payload.
    pub fn decode(buf: &[u8]) -> Result<Self, ServerError> {
        if buf.len() < 8 {
            return Err(ServerError::Malformed("pong health snapshot"));
        }
        let (snap, tail) = buf.split_at(buf.len() - 8);
        let mut epoch_bytes = [0u8; 8];
        epoch_bytes.copy_from_slice(tail);
        HealthSnapshot::decode(snap)
            .map(|health| PongPayload {
                health,
                epoch: u64::from_le_bytes(epoch_bytes),
            })
            .map_err(|_| ServerError::Malformed("pong health snapshot"))
    }
}

/// `StatsReply`: the full [`TelemetrySnapshot`] in its compact binary
/// encoding. The `Stats` request itself has an empty payload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReplyPayload {
    /// The server's full registry snapshot.
    pub snapshot: TelemetrySnapshot,
}

impl StatsReplyPayload {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        self.snapshot.to_bytes()
    }

    /// Parses the payload.
    pub fn decode(buf: &[u8]) -> Result<Self, ServerError> {
        TelemetrySnapshot::from_bytes(buf)
            .map(|snapshot| StatsReplyPayload { snapshot })
            .map_err(|_| ServerError::Malformed("stats snapshot"))
    }
}

/// `TraceReply`: the kept trace segments, drained from the server's
/// ring buffer. The `TraceFetch` request itself has an empty payload;
/// like `Stats`, the exchange lives on the sessionless liveness lane.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReplyPayload {
    /// Drained segments, oldest first.
    pub segments: Vec<TraceSegment>,
}

impl TraceReplyPayload {
    /// Serializes the payload, keeping it under `max_bytes` (segments
    /// that would overflow are left out).
    pub fn encode(&self, max_bytes: usize) -> Vec<u8> {
        trace::encode_segments(&self.segments, max_bytes)
    }

    /// Parses the payload.
    pub fn decode(buf: &[u8]) -> Result<Self, ServerError> {
        trace::decode_segments(buf)
            .map(|segments| TraceReplyPayload { segments })
            .map_err(|_| ServerError::Malformed("trace segments"))
    }
}

/// `PoiUpdate`: the admin lane's mutation batch against the live POI
/// index. Only a session presenting the server's admin token may send
/// it; everyone else gets a typed violation (the index is the LSP's
/// asset — a client that could move POIs could trivially defeat the
/// sanitizer by planting answers).
#[derive(Debug, Clone, PartialEq)]
pub struct PoiUpdatePayload {
    /// Shared-secret admin token (compared in the clear; the threat
    /// model here is hostile *clients*, not a network MITM).
    pub admin_token: u64,
    /// Client-chosen request identifier, echoed in the ack.
    pub request_id: u32,
    /// The mutations, applied in order as one atomic batch.
    pub ops: Vec<PoiOp>,
}

impl PoiUpdatePayload {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.ops.len() * 21);
        buf.extend_from_slice(&self.admin_token.to_le_bytes());
        buf.extend_from_slice(&self.request_id.to_le_bytes());
        buf.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            match *op {
                PoiOp::Insert(poi) => {
                    buf.push(1);
                    buf.extend_from_slice(&poi.id.to_le_bytes());
                    buf.extend_from_slice(&poi.location.x.to_bits().to_le_bytes());
                    buf.extend_from_slice(&poi.location.y.to_bits().to_le_bytes());
                }
                PoiOp::Remove(id) => {
                    buf.push(2);
                    buf.extend_from_slice(&id.to_le_bytes());
                }
            }
        }
        buf
    }

    /// Parses the payload, rejecting oversized batches, unknown op tags
    /// and non-finite coordinates.
    pub fn decode(buf: &[u8]) -> Result<Self, ServerError> {
        let mut pos = 0;
        let admin_token = get_u64(buf, &mut pos, "poi_update.admin_token")?;
        let request_id = get_u32(buf, &mut pos, "poi_update.request_id")?;
        let count = get_u32(buf, &mut pos, "poi_update.op_count")? as usize;
        if count > MAX_POI_OPS {
            return Err(ServerError::Malformed("poi_update.op_count out of range"));
        }
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            match get_u8(buf, &mut pos, "poi_update.op_tag")? {
                1 => {
                    let id = get_u32(buf, &mut pos, "poi_update.insert_id")?;
                    let x = f64::from_bits(get_u64(buf, &mut pos, "poi_update.insert_x")?);
                    let y = f64::from_bits(get_u64(buf, &mut pos, "poi_update.insert_y")?);
                    if !x.is_finite() || !y.is_finite() {
                        return Err(ServerError::Malformed("poi_update.insert not finite"));
                    }
                    ops.push(PoiOp::Insert(Poi::new(id, Point::new(x, y))));
                }
                2 => {
                    let id = get_u32(buf, &mut pos, "poi_update.remove_id")?;
                    ops.push(PoiOp::Remove(id));
                }
                _ => return Err(ServerError::Malformed("poi_update.op_tag")),
            }
        }
        expect_consumed(buf, pos, "poi_update trailing bytes")?;
        Ok(PoiUpdatePayload {
            admin_token,
            request_id,
            ops,
        })
    }
}

/// `PoiUpdateAck`: the mutation batch landed; the new index version is
/// what freshly pinned snapshots answer from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoiUpdateAckPayload {
    /// Echo of the request identifier.
    pub request_id: u32,
    /// Index version published by this batch.
    pub version: u64,
    /// Operations that actually changed the live set.
    pub applied: u32,
    /// Standing subscriptions this batch invalidated.
    pub invalidated: u32,
}

impl PoiUpdateAckPayload {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(20);
        buf.extend_from_slice(&self.request_id.to_le_bytes());
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.extend_from_slice(&self.applied.to_le_bytes());
        buf.extend_from_slice(&self.invalidated.to_le_bytes());
        buf
    }

    /// Parses the payload.
    pub fn decode(buf: &[u8]) -> Result<Self, ServerError> {
        let mut pos = 0;
        let request_id = get_u32(buf, &mut pos, "poi_update_ack.request_id")?;
        let version = get_u64(buf, &mut pos, "poi_update_ack.version")?;
        let applied = get_u32(buf, &mut pos, "poi_update_ack.applied")?;
        let invalidated = get_u32(buf, &mut pos, "poi_update_ack.invalidated")?;
        expect_consumed(buf, pos, "poi_update_ack trailing bytes")?;
        Ok(PoiUpdateAckPayload {
            request_id,
            version,
            applied,
            invalidated,
        })
    }
}

/// Life-cycle tag of a [`SubscriptionUpdatePayload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscriptionKind {
    /// The subscription is registered; the safe-region token rides
    /// along with the `Answer` frame that precedes this push.
    Granted,
    /// A POI mutation may have changed the group's answer — re-query.
    Invalidated,
    /// The server dropped the subscription (unsubscribe, disconnect,
    /// or registry eviction).
    Ended,
}

impl SubscriptionKind {
    /// Wire tag.
    pub fn to_u8(self) -> u8 {
        match self {
            SubscriptionKind::Granted => 1,
            SubscriptionKind::Invalidated => 2,
            SubscriptionKind::Ended => 3,
        }
    }

    /// Parses a wire tag.
    pub fn from_u8(v: u8) -> Result<Self, ServerError> {
        Ok(match v {
            1 => SubscriptionKind::Granted,
            2 => SubscriptionKind::Invalidated,
            3 => SubscriptionKind::Ended,
            _ => return Err(ServerError::Malformed("subscription_update.kind")),
        })
    }
}

/// `SubscriptionUpdate`: a server push on a standing query. `Granted`
/// carries the safe-region token (margin + drift scale) the client
/// turns into a per-user drift radius; `Invalidated` tells the group
/// its cached answer may be stale as of `version`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubscriptionUpdatePayload {
    /// Echo of the subscribing request identifier.
    pub request_id: u32,
    /// Which life-cycle edge this push is.
    pub kind: SubscriptionKind,
    /// Index version this push was computed against.
    pub version: u64,
    /// Safe-region margin M: the aggregate-cost gap between the last
    /// *protected* answer and the runner-up sentinel (a subscription
    /// for `k` wire answers protects the top-`k−1`; the k-th is the
    /// sentinel). On a grant the client recomputes the true M from its
    /// own decrypted answers — zero extra disclosure — and the
    /// protected set provably cannot change while every user stays
    /// within `M / (4 · drift_scale)` of their subscribed location.
    pub margin: f64,
    /// Aggregate scale: `n` for Sum (every user's drift adds up), 1
    /// for Max/Min.
    pub drift_scale: u32,
}

impl SubscriptionUpdatePayload {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(25);
        buf.extend_from_slice(&self.request_id.to_le_bytes());
        buf.push(self.kind.to_u8());
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.extend_from_slice(&self.margin.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.drift_scale.to_le_bytes());
        buf
    }

    /// Parses the payload. The margin may be infinite (fewer than k+1
    /// POIs: the answer can never change) but not NaN.
    pub fn decode(buf: &[u8]) -> Result<Self, ServerError> {
        let mut pos = 0;
        let request_id = get_u32(buf, &mut pos, "subscription_update.request_id")?;
        let kind = SubscriptionKind::from_u8(get_u8(buf, &mut pos, "subscription_update.kind")?)?;
        let version = get_u64(buf, &mut pos, "subscription_update.version")?;
        let margin = f64::from_bits(get_u64(buf, &mut pos, "subscription_update.margin")?);
        if margin.is_nan() || margin < 0.0 {
            return Err(ServerError::Malformed("subscription_update.margin"));
        }
        let drift_scale = get_u32(buf, &mut pos, "subscription_update.drift_scale")?;
        expect_consumed(buf, pos, "subscription_update trailing bytes")?;
        Ok(SubscriptionUpdatePayload {
            request_id,
            kind,
            version,
            margin,
            drift_scale,
        })
    }
}

/// `Unsubscribe`: drop the group's standing query. The server confirms
/// with a `SubscriptionUpdate` of kind `Ended`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsubscribePayload {
    /// The subscribed group.
    pub group_id: u64,
    /// The request identifier the subscription was granted under.
    pub request_id: u32,
}

impl UnsubscribePayload {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(12);
        buf.extend_from_slice(&self.group_id.to_le_bytes());
        buf.extend_from_slice(&self.request_id.to_le_bytes());
        buf
    }

    /// Parses the payload.
    pub fn decode(buf: &[u8]) -> Result<Self, ServerError> {
        let mut pos = 0;
        let group_id = get_u64(buf, &mut pos, "unsubscribe.group_id")?;
        let request_id = get_u32(buf, &mut pos, "unsubscribe.request_id")?;
        expect_consumed(buf, pos, "unsubscribe trailing bytes")?;
        Ok(UnsubscribePayload {
            group_id,
            request_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let payload = vec![7u8; 100];
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Query, &payload).unwrap();
        assert_eq!(buf.len(), HEADER_BYTES + 100);
        let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(frame.frame_type, FrameType::Query);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Ping, &[]).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(ServerError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Ping, &[]).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(ServerError::BadVersion(99))
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Ping, &[]).unwrap();
        buf[5] = 0x7f;
        assert!(matches!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(ServerError::UnknownFrameType(0x7f))
        ));
    }

    #[test]
    fn oversize_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Query, &[]).unwrap();
        buf[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024),
            Err(ServerError::FrameTooLarge { .. })
        ));
        // A hostile pad-length claim is policed by the same cap: the
        // padding is read bytes too, even though it is discarded.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Query, &[]).unwrap();
        buf[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024),
            Err(ServerError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn padded_frame_round_trip() {
        let payload = vec![7u8; 100];
        let mut buf = Vec::new();
        write_frame_padded(&mut buf, FrameType::Answer, &payload, 412).unwrap();
        // The wire carries exactly header + payload + pad — what an
        // observer sees is total length, independent of payload split.
        assert_eq!(buf.len(), HEADER_BYTES + 100 + 412);
        let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(frame.frame_type, FrameType::Answer);
        assert_eq!(frame.payload, payload);
        assert_eq!(frame.pad, 412);
    }

    #[test]
    fn padded_frame_truncated_in_pad_is_connection_closed() {
        let mut buf = Vec::new();
        write_frame_padded(&mut buf, FrameType::Answer, &[1, 2, 3], 64).unwrap();
        for cut in 0..buf.len() {
            let err = read_frame(&mut &buf[..cut], DEFAULT_MAX_PAYLOAD).unwrap_err();
            assert!(
                matches!(err, ServerError::ConnectionClosed),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn zero_pad_is_the_unpadded_wire_image() {
        let payload = vec![9u8; 33];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        write_frame(&mut a, FrameType::Answer, &payload).unwrap();
        write_frame_padded(&mut b, FrameType::Answer, &payload, 0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_frame_is_connection_closed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Query, &[1, 2, 3, 4]).unwrap();
        for cut in 0..buf.len() {
            let err = read_frame(&mut &buf[..cut], DEFAULT_MAX_PAYLOAD).unwrap_err();
            assert!(
                matches!(err, ServerError::ConnectionClosed),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn hello_round_trip() {
        let hello = HelloPayload {
            group_id: 42,
            key_bits: 128,
            variant: 1,
            omega: 7,
            has_partition: true,
            n_users: 5,
            delta: 12,
            k: 2,
            d: 4,
        };
        assert_eq!(HelloPayload::decode(&hello.encode()).unwrap(), hello);
    }

    #[test]
    fn hello_zero_or_huge_group_size_rejected() {
        let mut hello = HelloPayload {
            group_id: 42,
            key_bits: 128,
            variant: 0,
            omega: 0,
            has_partition: true,
            n_users: 0,
            delta: 12,
            k: 2,
            d: 4,
        };
        assert!(HelloPayload::decode(&hello.encode()).is_err());
        hello.n_users = MAX_LOCATION_SETS as u32 + 1;
        assert!(HelloPayload::decode(&hello.encode()).is_err());
        hello.n_users = MAX_LOCATION_SETS as u32;
        assert!(HelloPayload::decode(&hello.encode()).is_ok());
    }

    #[test]
    fn hello_ack_round_trip() {
        let ack = HelloAckPayload {
            group_id: 42,
            database_size: 10_000,
            max_payload: 1 << 20,
            workers: 8,
            epoch: 0xdead_beef_cafe_f00d,
            shape_mode: 1,
            answer_target: 4096,
            control_target: 576,
            latency_quantum_ms: 200,
        };
        let wire = ack.encode();
        assert_eq!(HelloAckPayload::decode(&wire).unwrap(), ack);
        for cut in 0..wire.len() {
            assert!(
                HelloAckPayload::decode(&wire[..cut]).is_err(),
                "hello_ack cut {cut}"
            );
        }
        // Unknown shape-mode tags are a typed rejection, not a guess.
        let mut bad = wire.clone();
        bad[32] = 2;
        assert!(HelloAckPayload::decode(&bad).is_err());
    }

    #[test]
    fn query_round_trip() {
        let q = QueryPayload {
            group_id: 3,
            request_id: 9,
            deadline_ms: 2500,
            trace: TraceContext::new(0x1234_5678_9abc, 0xfeed, true),
            location_sets: vec![vec![1, 2, 3], vec![], vec![5; 40]],
            query: vec![0xab; 17],
        };
        let back = QueryPayload::decode(&q.encode()).unwrap();
        assert_eq!(back, q);
        assert!(back.trace.sampled());
        assert_eq!(back.trace.trace_id(), 0x1234_5678_9abc);
    }

    #[test]
    fn query_with_corrupt_trace_context_rejected() {
        let q = QueryPayload {
            group_id: 3,
            request_id: 9,
            deadline_ms: 0,
            trace: TraceContext::new(7, 11, false),
            location_sets: vec![],
            query: vec![],
        };
        let mut wire = q.encode();
        // Zero out the trace id (bytes 16..24): typed error, no panic.
        wire[16..24].copy_from_slice(&[0u8; 8]);
        assert!(matches!(
            QueryPayload::decode(&wire),
            Err(ServerError::Malformed("zero trace id"))
        ));
        // Zero out the parent span id (bytes 24..32).
        let mut wire2 = q.encode();
        wire2[24..32].copy_from_slice(&[0u8; 8]);
        assert!(matches!(
            QueryPayload::decode(&wire2),
            Err(ServerError::Malformed("zero parent span id"))
        ));
    }

    #[test]
    fn corrupted_payload_byte_fails_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Answer, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        for i in HEADER_BYTES..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(
                    read_frame(&mut bad.as_slice(), DEFAULT_MAX_PAYLOAD),
                    Err(ServerError::ChecksumMismatch { .. })
                ),
                "flip at {i} not caught"
            );
        }
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn pong_round_trip() {
        let p = PongPayload {
            health: HealthSnapshot {
                queue_depth: 3,
                inflight: 5,
                live_workers: 4,
                worker_panics: 1,
                uptime_ms: 123_456,
                queries_ok: 42,
                sessions: 17,
                sessions_evicted: 6,
                sessions_rejected: 2,
                violations: 9,
                rate_limited: 31,
                strike_disconnects: 7,
                slow_reaped: 3,
                frame_garbage: 11,
                slo_latency_fast_burn_pm: 1500,
                slo_latency_slow_burn_pm: 800,
                slo_error_fast_burn_pm: 0,
                slo_error_slow_burn_pm: 12,
            },
            epoch: 0x0123_4567_89ab_cdef,
        };
        let wire = p.encode();
        assert_eq!(PongPayload::decode(&wire).unwrap(), p);
        // Deref keeps the old field access working.
        assert_eq!(p.live_workers, 4);
        for cut in 0..wire.len() {
            assert!(PongPayload::decode(&wire[..cut]).is_err(), "pong cut {cut}");
        }
    }

    #[test]
    fn stats_reply_round_trip() {
        let reg = ppgnn_telemetry::MetricsRegistry::new();
        reg.record_us(ppgnn_telemetry::Layer::Validate, 17);
        let mut snapshot = reg.snapshot();
        snapshot.push_counter(ppgnn_telemetry::ServerMetric::QueriesOk.name(), 3);
        let p = StatsReplyPayload { snapshot };
        let wire = p.encode();
        let back = StatsReplyPayload::decode(&wire).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.snapshot.stage_count("validate"), 1);
        assert!(StatsReplyPayload::decode(&wire[..wire.len() - 2]).is_err());
    }

    #[test]
    fn stale_version_frames_rejected() {
        // The trace-context query header is a version-5 wire change (as
        // Stats was for v4, the restart epoch for v7, and the pad-length
        // header field for v8); a stale peer must get a typed rejection,
        // never a silently misparsed payload.
        for stale in [3u8, 4, 5, 6, 7] {
            let mut buf = Vec::new();
            write_frame(&mut buf, FrameType::Ping, &[]).unwrap();
            buf[4] = stale;
            assert!(matches!(
                read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD),
                Err(ServerError::BadVersion(v)) if v == stale
            ));
        }
    }

    #[test]
    fn trace_reply_round_trip() {
        // Segments produced by a real tracer survive the payload codec.
        let tracer = ppgnn_telemetry::trace::Tracer::new();
        tracer.configure(&ppgnn_telemetry::trace::TracerConfig {
            enabled: true,
            slow_us: 0,
            keep_permille: 1000,
            capacity: 8,
            slow_log: false,
            max_spans: 16,
        });
        let (ctx, client) = tracer.start();
        let server = tracer.resume(&ctx).unwrap();
        server.finish();
        if let Some(h) = client {
            h.finish();
        }
        let p = TraceReplyPayload {
            segments: tracer.segments(),
        };
        let wire = p.encode(DEFAULT_MAX_PAYLOAD);
        let back = TraceReplyPayload::decode(&wire).unwrap();
        assert_eq!(back, p);
        assert!(TraceReplyPayload::decode(&wire[..wire.len() - 1]).is_err());
        assert!(TraceReplyPayload::decode(&[0xff; 8]).is_err());
        // The empty reply is valid too.
        let empty = TraceReplyPayload::default();
        assert_eq!(
            TraceReplyPayload::decode(&empty.encode(1024)).unwrap(),
            empty
        );
    }

    #[test]
    fn answer_busy_error_round_trips() {
        let a = AnswerPayload {
            request_id: 1,
            two_phase: true,
            replayed: true,
            answer: vec![9; 96],
        };
        assert_eq!(AnswerPayload::decode(&a.encode()).unwrap(), a);
        let b = BusyPayload {
            request_id: 2,
            retry_after_ms: 50,
        };
        assert_eq!(BusyPayload::decode(&b.encode()).unwrap(), b);
        let e = ErrorPayload {
            request_id: 3,
            code: ErrorCode::DeadlineExceeded,
            message: "too slow".into(),
        };
        assert_eq!(ErrorPayload::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn payload_decoders_reject_all_truncations() {
        let hello = HelloPayload {
            group_id: 42,
            key_bits: 128,
            variant: 1,
            omega: 7,
            has_partition: true,
            n_users: 5,
            delta: 12,
            k: 2,
            d: 4,
        }
        .encode();
        let q = QueryPayload {
            group_id: 1,
            request_id: 9,
            deadline_ms: 0,
            trace: TraceContext::new(5, 6, false),
            location_sets: vec![vec![1, 2, 3]],
            query: vec![4; 8],
        }
        .encode();
        for cut in 0..hello.len() {
            assert!(
                HelloPayload::decode(&hello[..cut]).is_err(),
                "hello cut {cut}"
            );
        }
        for cut in 0..q.len() {
            assert!(QueryPayload::decode(&q[..cut]).is_err(), "query cut {cut}");
        }
    }

    #[test]
    fn oversized_set_count_rejected() {
        let mut q = QueryPayload {
            group_id: 1,
            request_id: 1,
            deadline_ms: 0,
            trace: TraceContext::new(5, 6, false),
            location_sets: vec![],
            query: vec![],
        }
        .encode();
        // set_count sits after group_id (8) + request_id (4) + deadline
        // (4) + trace context (16).
        q[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            QueryPayload::decode(&q),
            Err(ServerError::Malformed("query.set_count out of range"))
        ));
    }

    #[test]
    fn poi_update_round_trip() {
        let p = PoiUpdatePayload {
            admin_token: 0xdead_beef_cafe_f00d,
            request_id: 77,
            ops: vec![
                PoiOp::Insert(Poi::new(12, Point::new(0.25, 0.75))),
                PoiOp::Remove(9),
                PoiOp::Insert(Poi::new(13, Point::new(0.0, 1.0))),
            ],
        };
        let wire = p.encode();
        assert_eq!(PoiUpdatePayload::decode(&wire).unwrap(), p);
        for cut in 0..wire.len() {
            assert!(
                PoiUpdatePayload::decode(&wire[..cut]).is_err(),
                "poi_update cut {cut}"
            );
        }
        // The empty batch is legal on the wire (server acks it with a
        // version bump but no changes).
        let empty = PoiUpdatePayload {
            admin_token: 1,
            request_id: 0,
            ops: vec![],
        };
        assert_eq!(PoiUpdatePayload::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn poi_update_rejects_hostile_encodings() {
        let p = PoiUpdatePayload {
            admin_token: 5,
            request_id: 1,
            ops: vec![PoiOp::Insert(Poi::new(1, Point::new(0.5, 0.5)))],
        };
        // Oversized op count claims more than MAX_POI_OPS.
        let mut wire = p.encode();
        wire[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            PoiUpdatePayload::decode(&wire),
            Err(ServerError::Malformed("poi_update.op_count out of range"))
        ));
        // Unknown op tag.
        let mut wire = p.encode();
        wire[16] = 3;
        assert!(matches!(
            PoiUpdatePayload::decode(&wire),
            Err(ServerError::Malformed("poi_update.op_tag"))
        ));
        // Non-finite coordinate (NaN x).
        let mut wire = p.encode();
        wire[21..29].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            PoiUpdatePayload::decode(&wire),
            Err(ServerError::Malformed("poi_update.insert not finite"))
        ));
        // Infinite y.
        let mut wire = p.encode();
        wire[29..37].copy_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
        assert!(PoiUpdatePayload::decode(&wire).is_err());
        // Trailing garbage.
        let mut wire = p.encode();
        wire.push(0);
        assert!(matches!(
            PoiUpdatePayload::decode(&wire),
            Err(ServerError::Malformed("poi_update trailing bytes"))
        ));
    }

    #[test]
    fn poi_update_ack_round_trip() {
        let a = PoiUpdateAckPayload {
            request_id: 77,
            version: 12,
            applied: 3,
            invalidated: 2,
        };
        let wire = a.encode();
        assert_eq!(PoiUpdateAckPayload::decode(&wire).unwrap(), a);
        for cut in 0..wire.len() {
            assert!(PoiUpdateAckPayload::decode(&wire[..cut]).is_err());
        }
    }

    #[test]
    fn subscription_update_round_trip() {
        for kind in [
            SubscriptionKind::Granted,
            SubscriptionKind::Invalidated,
            SubscriptionKind::Ended,
        ] {
            let s = SubscriptionUpdatePayload {
                request_id: 4,
                kind,
                version: 9,
                margin: 0.03125,
                drift_scale: 3,
            };
            let wire = s.encode();
            assert_eq!(SubscriptionUpdatePayload::decode(&wire).unwrap(), s);
            for cut in 0..wire.len() {
                assert!(SubscriptionUpdatePayload::decode(&wire[..cut]).is_err());
            }
        }
        // Infinite margin is legal (fewer than k+1 POIs)...
        let inf = SubscriptionUpdatePayload {
            request_id: 1,
            kind: SubscriptionKind::Granted,
            version: 1,
            margin: f64::INFINITY,
            drift_scale: 1,
        };
        assert_eq!(
            SubscriptionUpdatePayload::decode(&inf.encode()).unwrap(),
            inf
        );
        // ...NaN and negative margins are not.
        let mut wire = inf.encode();
        wire[13..21].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(SubscriptionUpdatePayload::decode(&wire).is_err());
        let mut wire = inf.encode();
        wire[13..21].copy_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        assert!(SubscriptionUpdatePayload::decode(&wire).is_err());
        // Unknown kind tag.
        let mut wire = inf.encode();
        wire[4] = 9;
        assert!(matches!(
            SubscriptionUpdatePayload::decode(&wire),
            Err(ServerError::Malformed("subscription_update.kind"))
        ));
    }

    #[test]
    fn unsubscribe_round_trip() {
        let u = UnsubscribePayload {
            group_id: 88,
            request_id: 5,
        };
        let wire = u.encode();
        assert_eq!(UnsubscribePayload::decode(&wire).unwrap(), u);
        for cut in 0..wire.len() {
            assert!(UnsubscribePayload::decode(&wire[..cut]).is_err());
        }
    }

    #[test]
    fn v6_frame_tags_round_trip() {
        for ft in [
            FrameType::PoiUpdate,
            FrameType::PoiUpdateAck,
            FrameType::Subscribe,
            FrameType::SubscriptionUpdate,
            FrameType::Unsubscribe,
        ] {
            assert_eq!(FrameType::from_u8(ft.to_u8()).unwrap(), ft);
            let mut buf = Vec::new();
            write_frame(&mut buf, ft, &[1, 2, 3]).unwrap();
            let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
            assert_eq!(frame.frame_type, ft);
        }
    }
}
