//! Typed errors for the transport and the service.

use std::fmt;

use ppgnn_core::PpgnnError;

use crate::frame::FrameType;
use crate::validate::ProtocolViolation;

/// Machine-readable error codes carried by `Error` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The query referenced a group ID with no negotiated session.
    NoSession,
    /// The frame payload did not parse.
    MalformedPayload,
    /// The protocol layer rejected the query (typed [`PpgnnError`]).
    Protocol,
    /// The request spent longer than its deadline in the queue.
    DeadlineExceeded,
    /// The server is draining and accepts no new queries.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
    /// The validation gate rejected the request: it broke a session
    /// invariant (see [`ProtocolViolation`]). Deterministic — a retry
    /// of the same bytes will be rejected again.
    Violation,
    /// An admission-control quota (session cap, strike limit) refused
    /// the request; retrying later may succeed once load drains.
    QuotaExceeded,
}

impl ErrorCode {
    /// Wire representation.
    pub fn to_u16(self) -> u16 {
        match self {
            ErrorCode::NoSession => 1,
            ErrorCode::MalformedPayload => 2,
            ErrorCode::Protocol => 3,
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::ShuttingDown => 5,
            ErrorCode::Internal => 6,
            ErrorCode::Violation => 7,
            ErrorCode::QuotaExceeded => 8,
        }
    }

    /// Parses a wire code; unknown codes map to `None`.
    pub fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::NoSession,
            2 => ErrorCode::MalformedPayload,
            3 => ErrorCode::Protocol,
            4 => ErrorCode::DeadlineExceeded,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::Internal,
            7 => ErrorCode::Violation,
            8 => ErrorCode::QuotaExceeded,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::NoSession => "no session",
            ErrorCode::MalformedPayload => "malformed payload",
            ErrorCode::Protocol => "protocol error",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::Internal => "internal error",
            ErrorCode::Violation => "protocol violation",
            ErrorCode::QuotaExceeded => "quota exceeded",
        };
        f.write_str(s)
    }
}

/// Everything that can go wrong on either side of the connection.
///
/// Decoding never panics: every malformed frame maps to a variant here.
#[derive(Debug)]
pub enum ServerError {
    /// Transport-level I/O failure.
    Io(std::io::Error),
    /// The peer closed the connection (EOF inside or between frames).
    ConnectionClosed,
    /// The frame did not start with the `PPGN` magic.
    BadMagic([u8; 4]),
    /// Unsupported frame-layer version.
    BadVersion(u8),
    /// Unknown frame type tag.
    UnknownFrameType(u8),
    /// Declared payload length exceeds the negotiated maximum. Raised
    /// from the frame header alone, before any payload buffer is
    /// allocated, so a hostile length field cannot drive allocation.
    FrameTooLarge { len: usize, max: usize },
    /// The payload failed its header CRC — bytes were corrupted in
    /// transit; nothing in the frame can be trusted.
    ChecksumMismatch { expected: u32, actual: u32 },
    /// A frame payload failed structural validation.
    Malformed(&'static str),
    /// The protocol layer rejected a message.
    Protocol(PpgnnError),
    /// The validation gate rejected a decoded request before it
    /// reached a worker.
    Violation(ProtocolViolation),
    /// The peer answered with an `Error` frame.
    Remote { code: ErrorCode, message: String },
    /// The peer shed the request (or connection) with a `Busy` frame.
    ServerBusy { retry_after_ms: u32 },
    /// A frame arrived out of protocol order.
    UnexpectedFrame {
        expected: &'static str,
        got: FrameType,
    },
    /// Startup recovery refused to serve: the data dir's durable state
    /// failed validation (e.g. every checkpoint is corrupt). Typed so a
    /// crashed-and-corrupted server fails loudly at boot instead of
    /// silently serving stale state.
    Recovery(String),
    /// A soak's data dir already holds a checkpoint or WAL. The soak
    /// bootstraps its own world there; booting on an earlier run's
    /// state would check the server against the wrong oracle.
    StaleDataDir(std::path::PathBuf),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "i/o error: {e}"),
            ServerError::ConnectionClosed => write!(f, "connection closed by peer"),
            ServerError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ServerError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            ServerError::UnknownFrameType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            ServerError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds maximum {max}")
            }
            ServerError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "frame payload crc mismatch: header says {expected:#010x}, got {actual:#010x}"
                )
            }
            ServerError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
            ServerError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServerError::Violation(v) => write!(f, "protocol violation: {v}"),
            ServerError::Remote { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            ServerError::ServerBusy { retry_after_ms } => {
                write!(f, "server busy, retry after {retry_after_ms} ms")
            }
            ServerError::UnexpectedFrame { expected, got } => {
                write!(f, "expected {expected} frame, got {got:?}")
            }
            ServerError::Recovery(what) => write!(f, "recovery failed: {what}"),
            ServerError::StaleDataDir(dir) => write!(
                f,
                "data dir {} already holds a checkpoint or WAL; give the soak an empty or missing dir",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<PpgnnError> for ServerError {
    fn from(e: PpgnnError) -> Self {
        ServerError::Protocol(e)
    }
}

impl From<ProtocolViolation> for ServerError {
    fn from(v: ProtocolViolation) -> Self {
        ServerError::Violation(v)
    }
}
