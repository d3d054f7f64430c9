//! The hostile-client validation gate and admission-control primitives.
//!
//! Privacy III (§3) makes the LSP compute `A ⨂ [v]` on whatever
//! ciphertexts the coordinator sent — expensive Paillier arithmetic
//! that PR 2's fault tolerance protects from *accidents* but not from
//! *adversaries*. This module is the byzantine-client counterpart:
//! every decoded request is checked against the session's own handshake
//! before it can reach a worker, so a hostile client can neither feed
//! garbage into the engine (where shape mismatches become panics, e.g.
//! `PartitionParams::subgroup_of` on a lying user index) nor burn
//! worker time on ciphertexts that were never going to decrypt.
//!
//! The checks are deliberately cheap relative to a query: length
//! comparisons, one subgroup/segment sum, and one gcd per ciphertext —
//! all linear in the message, while the query itself is `O(δ′)` big-int
//! exponentiations.
//!
//! [`TokenBucket`] is the per-connection rate limiter; the registry
//! (session caps, TTL eviction, strike counters) and the whole-frame
//! read deadline live in `registry.rs` / `server.rs`.

use std::fmt;
use std::time::{Duration, Instant};

use ppgnn_core::messages::{IndicatorPayload, LocationSetMessage, QueryMessage};
use ppgnn_core::opt_split;
use ppgnn_telemetry as telemetry;

use crate::frame::HelloPayload;
use crate::registry::SessionParams;

/// Everything the validation gate can reject a request for. Each
/// variant is deterministic: the same bytes are rejected the same way
/// every time, so clients must treat these as fatal, not retryable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolViolation {
    /// The handshake asked for a candidate set smaller than server
    /// policy allows (a tiny δ collapses the privacy guarantee the
    /// server is paid to uphold).
    DeltaBelowPolicy { delta: usize, min: usize },
    /// The handshake asked for a key shorter than server policy.
    KeyBelowPolicy { key_bits: usize, min: usize },
    /// A handshake shape field is degenerate (zero k or d, ω too
    /// large, δ below the per-user set size it must cover, …).
    BadHelloShape { what: &'static str },
    /// The query carried a different number of location sets than the
    /// group declared at handshake.
    GroupSizeMismatch { expected: usize, got: usize },
    /// One user's location set has the wrong length.
    SetLengthMismatch {
        user: usize,
        expected: usize,
        got: usize,
    },
    /// A location set's user index disagrees with its position (the
    /// LSP rebuilds subgroups positionally; a lying index would panic
    /// or silently mis-partition).
    UserIndexMismatch { position: usize, got: usize },
    /// The query's `k` differs from the handshake.
    KMismatch { expected: usize, got: usize },
    /// The partition block is inconsistent with the session (sizes do
    /// not sum to n/d, a zero part, δ′ below the promised δ, …).
    PartitionMismatch { what: &'static str },
    /// An indicator vector's length disagrees with the δ′/ω the
    /// session's partition implies.
    IndicatorLengthMismatch {
        which: &'static str,
        expected: usize,
        got: usize,
    },
    /// An indicator ciphertext is structurally invalid for the
    /// session's Damgård–Jurik parameters: zero, out of `[0, n^{s+1})`,
    /// or sharing a factor with the modulus.
    InvalidCiphertext { which: &'static str, index: usize },
    /// The request ID rewound below the session's high-water mark.
    RequestIdRewind { high_water: u32, got: u32 },
    /// A `PoiUpdate` presented a wrong (or missing) admin token — only
    /// the LSP's operator may mutate the POI database.
    AdminUnauthorized,
    /// A `Subscribe` would exceed the server's standing-query registry
    /// cap (each subscription costs an invalidation scan per mutation).
    SubscriptionLimit { max: usize },
    /// Under a padded shape policy the handshake asked for a session
    /// the padding envelope cannot cover: its answers would burst the
    /// constant frame size and re-open the side channel for everyone.
    ShapeBoundExceeded {
        what: &'static str,
        got: usize,
        max: usize,
    },
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolViolation::DeltaBelowPolicy { delta, min } => {
                write!(f, "delta {delta} below server policy minimum {min}")
            }
            ProtocolViolation::KeyBelowPolicy { key_bits, min } => {
                write!(f, "key size {key_bits} below server policy minimum {min}")
            }
            ProtocolViolation::BadHelloShape { what } => {
                write!(f, "degenerate handshake shape: {what}")
            }
            ProtocolViolation::GroupSizeMismatch { expected, got } => {
                write!(
                    f,
                    "query carries {got} location sets, session has {expected} users"
                )
            }
            ProtocolViolation::SetLengthMismatch {
                user,
                expected,
                got,
            } => {
                write!(
                    f,
                    "user {user} sent {got} locations, session fixes {expected}"
                )
            }
            ProtocolViolation::UserIndexMismatch { position, got } => {
                write!(
                    f,
                    "location set at position {position} claims user index {got}"
                )
            }
            ProtocolViolation::KMismatch { expected, got } => {
                write!(f, "query k {got} differs from session k {expected}")
            }
            ProtocolViolation::PartitionMismatch { what } => {
                write!(f, "partition inconsistent with session: {what}")
            }
            ProtocolViolation::IndicatorLengthMismatch {
                which,
                expected,
                got,
            } => {
                write!(
                    f,
                    "{which} indicator has {got} ciphertexts, session implies {expected}"
                )
            }
            ProtocolViolation::InvalidCiphertext { which, index } => {
                write!(
                    f,
                    "{which} indicator ciphertext {index} is not a valid unit mod n^(s+1)"
                )
            }
            ProtocolViolation::RequestIdRewind { high_water, got } => {
                write!(
                    f,
                    "request id {got} rewinds below session high-water mark {high_water}"
                )
            }
            ProtocolViolation::AdminUnauthorized => {
                write!(
                    f,
                    "poi update rejected: admin token invalid or lane disabled"
                )
            }
            ProtocolViolation::SubscriptionLimit { max } => {
                write!(f, "subscription registry full (cap {max})")
            }
            ProtocolViolation::ShapeBoundExceeded { what, got, max } => {
                write!(f, "{what} {got} exceeds padded shape policy maximum {max}")
            }
        }
    }
}

/// Server policy floors applied at handshake time.
#[derive(Debug, Clone, Copy)]
pub struct HelloPolicy {
    /// Smallest candidate-set size δ the server will serve.
    pub min_delta: usize,
    /// Smallest Paillier modulus the server will do arithmetic under.
    pub min_key_bits: usize,
}

impl Default for HelloPolicy {
    fn default() -> Self {
        HelloPolicy {
            min_delta: 2,
            min_key_bits: 32,
        }
    }
}

/// Widest ω the gate accepts — far beyond any real split (`ω ≈ √(δ′/2)`
/// and δ′ is bounded by the frame cap anyway), small enough that ω
/// cannot be used to size anything dangerous.
const MAX_OMEGA: usize = 1 << 20;

/// Checks a decoded `Hello` against server policy before it can claim
/// a registry slot.
pub fn validate_hello(hello: &HelloPayload, policy: &HelloPolicy) -> Result<(), ProtocolViolation> {
    if (hello.key_bits as usize) < policy.min_key_bits {
        return Err(ProtocolViolation::KeyBelowPolicy {
            key_bits: hello.key_bits as usize,
            min: policy.min_key_bits,
        });
    }
    if (hello.delta as usize) < policy.min_delta {
        return Err(ProtocolViolation::DeltaBelowPolicy {
            delta: hello.delta as usize,
            min: policy.min_delta,
        });
    }
    if hello.k == 0 {
        return Err(ProtocolViolation::BadHelloShape { what: "k is zero" });
    }
    if hello.d == 0 {
        return Err(ProtocolViolation::BadHelloShape { what: "d is zero" });
    }
    if hello.omega as usize > MAX_OMEGA {
        return Err(ProtocolViolation::BadHelloShape {
            what: "omega out of range",
        });
    }
    // δ candidates are drawn from the users' d-slot sets: a δ the sets
    // cannot cover is not a shape any honest planner produces.
    if hello.has_partition && hello.delta < hello.d {
        return Err(ProtocolViolation::BadHelloShape {
            what: "delta below per-user set size d",
        });
    }
    Ok(())
}

/// Cheap pre-decode check: the set *count* is visible in the frame
/// payload before any expensive wire decode of the inner blobs.
pub fn validate_set_count(
    params: &SessionParams,
    set_count: usize,
) -> Result<(), ProtocolViolation> {
    if set_count != params.n_users {
        return Err(ProtocolViolation::GroupSizeMismatch {
            expected: params.n_users,
            got: set_count,
        });
    }
    Ok(())
}

/// The full gate over a decoded query: shape against the handshake,
/// partition consistency, indicator lengths against δ′/ω, and the
/// structural validity of every ciphertext.
pub fn validate_query(
    params: &SessionParams,
    query: &QueryMessage,
    location_sets: &[LocationSetMessage],
) -> Result<(), ProtocolViolation> {
    let gate = telemetry::enter(telemetry::Layer::Validate);
    gate.attr(telemetry::trace::AttrKey::Users, location_sets.len() as u64);
    if query.k != params.k {
        return Err(ProtocolViolation::KMismatch {
            expected: params.k,
            got: query.k,
        });
    }
    validate_set_count(params, location_sets.len())?;
    for (position, set) in location_sets.iter().enumerate() {
        if set.user_index != position {
            return Err(ProtocolViolation::UserIndexMismatch {
                position,
                got: set.user_index,
            });
        }
        if set.locations.len() != params.d {
            return Err(ProtocolViolation::SetLengthMismatch {
                user: position,
                expected: params.d,
                got: set.locations.len(),
            });
        }
    }
    let delta_prime = match &query.partition {
        Some(p) => {
            let n_sum: usize = p.subgroup_sizes.iter().sum();
            if n_sum != params.n_users || p.subgroup_sizes.contains(&0) {
                return Err(ProtocolViolation::PartitionMismatch {
                    what: "subgroup sizes do not partition the group",
                });
            }
            let d_sum: usize = p.segment_sizes.iter().sum();
            if d_sum != params.d || p.segment_sizes.contains(&0) {
                return Err(ProtocolViolation::PartitionMismatch {
                    what: "segment sizes do not partition the location sets",
                });
            }
            let dp = p.delta_prime();
            if dp < params.delta as u128 {
                return Err(ProtocolViolation::PartitionMismatch {
                    what: "delta_prime below the session's delta",
                });
            }
            // δ′ sizes the indicator the session already shipped, so a
            // value past the frame cap cannot match any real vector —
            // reject before the `as usize` below could even matter.
            usize::try_from(dp).map_err(|_| ProtocolViolation::PartitionMismatch {
                what: "delta_prime overflows",
            })?
        }
        None => params.delta,
    };
    let pk = &query.pk;
    let n = pk.n();
    match &query.indicator {
        IndicatorPayload::Plain(v) => {
            if v.len() != delta_prime {
                return Err(ProtocolViolation::IndicatorLengthMismatch {
                    which: "plain",
                    expected: delta_prime,
                    got: v.len(),
                });
            }
            let n2 = n * n;
            for (index, c) in v.elements().iter().enumerate() {
                c.validate_in(n, &n2)
                    .map_err(|_| ProtocolViolation::InvalidCiphertext {
                        which: "plain",
                        index,
                    })?;
            }
        }
        IndicatorPayload::TwoPhase { inner, outer } => {
            let (omega, block_size) = opt_split(delta_prime);
            if outer.len() != omega {
                return Err(ProtocolViolation::IndicatorLengthMismatch {
                    which: "outer",
                    expected: omega,
                    got: outer.len(),
                });
            }
            if inner.len() != block_size {
                return Err(ProtocolViolation::IndicatorLengthMismatch {
                    which: "inner",
                    expected: block_size,
                    got: inner.len(),
                });
            }
            let n2 = n * n;
            let n3 = &n2 * n;
            for (index, c) in inner.elements().iter().enumerate() {
                c.validate_in(n, &n2)
                    .map_err(|_| ProtocolViolation::InvalidCiphertext {
                        which: "inner",
                        index,
                    })?;
            }
            for (index, c) in outer.elements().iter().enumerate() {
                c.validate_in(n, &n3)
                    .map_err(|_| ProtocolViolation::InvalidCiphertext {
                        which: "outer",
                        index,
                    })?;
            }
        }
    }
    Ok(())
}

/// A classic token bucket: `burst` tokens of capacity refilled at
/// `refill_per_sec`, one token per admitted frame. Time is passed in
/// so tests drive it deterministically; a refill rate of zero disables
/// the limiter entirely.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: f64,
    tokens: f64,
    refill_per_sec: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket starting full.
    pub fn new(burst: u32, refill_per_sec: f64) -> Self {
        let capacity = f64::from(burst.max(1));
        TokenBucket {
            capacity,
            tokens: capacity,
            refill_per_sec,
            last: Instant::now(),
        }
    }

    /// Whether the limiter can ever refuse.
    pub fn is_active(&self) -> bool {
        self.refill_per_sec > 0.0
    }

    /// Takes one token at `now`, or reports how long until one refills.
    pub fn try_take_at(&mut self, now: Instant) -> Result<(), Duration> {
        if !self.is_active() {
            return Ok(());
        }
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.refill_per_sec).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            Err(Duration::from_secs_f64(
                (1.0 - self.tokens) / self.refill_per_sec,
            ))
        }
    }

    /// Takes one token now.
    pub fn try_take(&mut self) -> Result<(), Duration> {
        self.try_take_at(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello(delta: u32, d: u32) -> HelloPayload {
        HelloPayload {
            group_id: 1,
            key_bits: 128,
            variant: 0,
            omega: 0,
            has_partition: true,
            n_users: 3,
            delta,
            k: 2,
            d,
        }
    }

    #[test]
    fn hello_policy_floors() {
        let policy = HelloPolicy {
            min_delta: 4,
            min_key_bits: 64,
        };
        assert!(validate_hello(&hello(8, 4), &policy).is_ok());
        assert_eq!(
            validate_hello(&hello(3, 2), &policy),
            Err(ProtocolViolation::DeltaBelowPolicy { delta: 3, min: 4 })
        );
        let mut weak = hello(8, 4);
        weak.key_bits = 32;
        assert_eq!(
            validate_hello(&weak, &policy),
            Err(ProtocolViolation::KeyBelowPolicy {
                key_bits: 32,
                min: 64
            })
        );
    }

    #[test]
    fn hello_degenerate_shapes() {
        let policy = HelloPolicy::default();
        let mut h = hello(8, 4);
        h.k = 0;
        assert!(matches!(
            validate_hello(&h, &policy),
            Err(ProtocolViolation::BadHelloShape { .. })
        ));
        let mut h = hello(8, 4);
        h.d = 0;
        assert!(matches!(
            validate_hello(&h, &policy),
            Err(ProtocolViolation::BadHelloShape { .. })
        ));
        // δ < d with a partition cannot come from an honest planner.
        assert!(matches!(
            validate_hello(&hello(3, 4), &policy),
            Err(ProtocolViolation::BadHelloShape { .. })
        ));
        // ...but is fine without one (Naive uses d = δ anyway).
        let mut h = hello(3, 3);
        h.has_partition = false;
        assert!(validate_hello(&h, &policy).is_ok());
        let mut h = hello(8, 4);
        h.omega = (MAX_OMEGA + 1) as u32;
        assert!(matches!(
            validate_hello(&h, &policy),
            Err(ProtocolViolation::BadHelloShape { .. })
        ));
    }

    #[test]
    fn token_bucket_burst_then_throttle() {
        let start = Instant::now();
        let mut bucket = TokenBucket::new(3, 10.0);
        assert!(bucket.try_take_at(start).is_ok());
        assert!(bucket.try_take_at(start).is_ok());
        assert!(bucket.try_take_at(start).is_ok());
        let wait = bucket.try_take_at(start).unwrap_err();
        assert!(wait > Duration::ZERO && wait <= Duration::from_millis(100));
        // After a tenth of a second one token is back.
        assert!(bucket
            .try_take_at(start + Duration::from_millis(150))
            .is_ok());
        assert!(bucket
            .try_take_at(start + Duration::from_millis(150))
            .is_err());
    }

    #[test]
    fn token_bucket_caps_at_capacity_and_can_be_disabled() {
        let start = Instant::now();
        let mut bucket = TokenBucket::new(2, 5.0);
        // A long idle stretch refills to capacity, not beyond.
        let later = start + Duration::from_secs(60);
        assert!(bucket.try_take_at(later).is_ok());
        assert!(bucket.try_take_at(later).is_ok());
        assert!(bucket.try_take_at(later).is_err());
        let mut off = TokenBucket::new(1, 0.0);
        assert!(!off.is_active());
        for _ in 0..1000 {
            assert!(off.try_take_at(start).is_ok());
        }
    }
}
