//! Wire serialization of the protocol messages.
//!
//! The cost ledger charges `byte_len()` per message; this module is the
//! proof those numbers are honest: every message actually serializes to
//! exactly `byte_len()` bytes and round-trips. Decoding needs the
//! session context (key size, variant, split ω) — all public protocol
//! parameters negotiated before the query, never secret.

use ppgnn_bigint::BigUint;
use ppgnn_geo::Point;
use ppgnn_paillier::{Ciphertext, EncryptedVector, PublicKey};
use ppgnn_sim::{LOCATION_BYTES, SCALAR_BYTES};
use ppgnn_telemetry as telemetry;

use crate::error::PpgnnError;
use crate::messages::{AnswerMessage, IndicatorPayload, LocationSetMessage, QueryMessage};
use crate::partition::PartitionParams;

/// Public session context a decoder needs.
#[derive(Debug, Clone, Copy)]
pub struct WireContext {
    /// The negotiated Paillier key size in bits.
    pub key_bits: usize,
    /// Whether the indicator is two-phase, and if so its block count ω.
    pub two_phase_omega: Option<usize>,
    /// Whether a partition block is present (absent for Naive).
    pub has_partition: bool,
}

/// Largest accepted `k` in a wire query.
pub const MAX_WIRE_K: usize = 1 << 20;
/// Largest accepted subgroup count α / segment count β. The paper's
/// grid tops out at n = 32, d = 50; this bound is generous while
/// keeping a garbage frame from forcing huge allocations.
pub const MAX_WIRE_PARTITION: usize = 1 << 16;
/// Largest accepted single subgroup/segment size.
pub const MAX_WIRE_PARTITION_SIZE: usize = 1 << 20;
/// Largest accepted user index in a location set.
pub const MAX_WIRE_USER_INDEX: usize = 1 << 20;

fn put_u32(buf: &mut Vec<u8>, v: usize) {
    buf.extend_from_slice(&(v as u32).to_le_bytes());
}

fn take<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    width: usize,
    field: &'static str,
) -> Result<&'a [u8], PpgnnError> {
    let end = pos.checked_add(width).ok_or(PpgnnError::TruncatedMessage {
        field,
        needed: width,
        have: buf.len().saturating_sub(*pos),
    })?;
    let slice = buf.get(*pos..end).ok_or(PpgnnError::TruncatedMessage {
        field,
        needed: width,
        have: buf.len().saturating_sub(*pos),
    })?;
    *pos = end;
    Ok(slice)
}

fn get_u32(buf: &[u8], pos: &mut usize, field: &'static str) -> Result<usize, PpgnnError> {
    let bytes: [u8; 4] = take(buf, pos, 4, field)?.try_into().expect("slice of 4");
    Ok(u32::from_le_bytes(bytes) as usize)
}

fn get_u32_bounded(
    buf: &[u8],
    pos: &mut usize,
    field: &'static str,
    max: usize,
) -> Result<usize, PpgnnError> {
    let v = get_u32(buf, pos, field)?;
    if v > max {
        return Err(PpgnnError::FieldOutOfRange {
            field,
            value: v as u64,
            max: max as u64,
        });
    }
    Ok(v)
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_f64(buf: &[u8], pos: &mut usize, field: &'static str) -> Result<f64, PpgnnError> {
    let bytes: [u8; 8] = take(buf, pos, 8, field)?.try_into().expect("slice of 8");
    Ok(f64::from_le_bytes(bytes))
}

/// Writes a big integer left-padded to exactly `width` bytes.
fn put_big(buf: &mut Vec<u8>, v: &BigUint, width: usize) {
    let bytes = v.to_bytes_be();
    assert!(bytes.len() <= width, "value wider than its wire slot");
    buf.extend(std::iter::repeat_n(0u8, width - bytes.len()));
    buf.extend_from_slice(&bytes);
}

fn get_big(
    buf: &[u8],
    pos: &mut usize,
    width: usize,
    field: &'static str,
) -> Result<BigUint, PpgnnError> {
    Ok(BigUint::from_bytes_be(take(buf, pos, width, field)?))
}

/// Rejects a frame whose decoder did not consume every byte: the
/// declared frame length must agree with the message's `byte_len()`.
fn expect_consumed(buf: &[u8], pos: usize) -> Result<(), PpgnnError> {
    if pos != buf.len() {
        return Err(PpgnnError::TrailingBytes {
            consumed: pos,
            total: buf.len(),
        });
    }
    Ok(())
}

impl LocationSetMessage {
    /// Serializes to exactly [`LocationSetMessage::byte_len`] bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        let sp = telemetry::enter(telemetry::Layer::WireEncode);
        let mut buf = Vec::with_capacity(self.byte_len());
        put_u32(&mut buf, self.user_index);
        for l in &self.locations {
            put_f64(&mut buf, l.x);
            put_f64(&mut buf, l.y);
        }
        debug_assert_eq!(buf.len(), self.byte_len());
        sp.attr(telemetry::trace::AttrKey::Bytes, buf.len() as u64);
        buf
    }

    /// Parses a wire location set (count inferred from the length).
    pub fn from_wire(buf: &[u8]) -> Result<Self, PpgnnError> {
        if (buf.len() < SCALAR_BYTES) || !(buf.len() - SCALAR_BYTES).is_multiple_of(LOCATION_BYTES)
        {
            return Err(PpgnnError::BadAnswerEncoding(
                "bad location-set framing".into(),
            ));
        }
        let sp = telemetry::enter(telemetry::Layer::WireDecode);
        sp.attr(telemetry::trace::AttrKey::Bytes, buf.len() as u64);
        let mut pos = 0;
        let user_index = get_u32_bounded(buf, &mut pos, "user_index", MAX_WIRE_USER_INDEX)?;
        let count = (buf.len() - SCALAR_BYTES) / LOCATION_BYTES;
        let mut locations = Vec::with_capacity(count);
        for _ in 0..count {
            let x = get_f64(buf, &mut pos, "location.x")?;
            let y = get_f64(buf, &mut pos, "location.y")?;
            locations.push(Point::new(x, y));
        }
        expect_consumed(buf, pos)?;
        Ok(LocationSetMessage {
            user_index,
            locations,
        })
    }
}

fn put_vector(buf: &mut Vec<u8>, v: &EncryptedVector, width: usize) {
    for c in v.elements() {
        put_big(buf, c.value(), width);
    }
}

fn get_vector(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    width: usize,
    level: usize,
) -> Result<EncryptedVector, PpgnnError> {
    let mut elements = Vec::with_capacity(count);
    for _ in 0..count {
        elements.push(Ciphertext::from_parts(
            get_big(buf, pos, width, "ciphertext")?,
            level,
        ));
    }
    Ok(EncryptedVector::from_ciphertexts(elements))
}

impl QueryMessage {
    /// Serializes to exactly [`QueryMessage::byte_len`] bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        let sp = telemetry::enter(telemetry::Layer::WireEncode);
        sp.attr(telemetry::trace::AttrKey::Bytes, self.byte_len() as u64);
        let mut buf = Vec::with_capacity(self.byte_len());
        put_u32(&mut buf, self.k);
        put_big(&mut buf, self.pk.n(), self.pk.key_bits().div_ceil(8));
        if let Some(p) = &self.partition {
            put_u32(&mut buf, p.alpha());
            put_u32(&mut buf, p.beta());
            for &s in &p.subgroup_sizes {
                put_u32(&mut buf, s);
            }
            for &s in &p.segment_sizes {
                put_u32(&mut buf, s);
            }
        }
        let w1 = self.pk.ciphertext_bytes(1);
        let w2 = self.pk.ciphertext_bytes(2);
        match &self.indicator {
            IndicatorPayload::Plain(v) => put_vector(&mut buf, v, w1),
            IndicatorPayload::TwoPhase { inner, outer } => {
                put_vector(&mut buf, inner, w1);
                put_vector(&mut buf, outer, w2);
            }
        }
        put_f64(&mut buf, self.theta0);
        debug_assert_eq!(buf.len(), self.byte_len());
        buf
    }

    /// Parses a wire query under the session context.
    ///
    /// Every malformed input — truncated, oversized counts, trailing
    /// garbage — returns a typed [`PpgnnError`]; this function never
    /// panics on attacker-controlled bytes.
    pub fn from_wire(buf: &[u8], ctx: &WireContext) -> Result<Self, PpgnnError> {
        let sp = telemetry::enter(telemetry::Layer::WireDecode);
        sp.attr(telemetry::trace::AttrKey::Bytes, buf.len() as u64);
        let mut pos = 0;
        let k = get_u32_bounded(buf, &mut pos, "k", MAX_WIRE_K)?;
        let n_width = ctx.key_bits.div_ceil(8);
        let pk = PublicKey::from_modulus(get_big(buf, &mut pos, n_width, "pk modulus")?);
        // An honest modulus N = p·q of a `key_bits` session has exactly
        // `key_bits` bits and is odd. Anything else desyncs every
        // ciphertext width derived from `pk` below — and a zero modulus
        // would make those widths zero, turning the length-inferred
        // element counts into divisions by zero.
        if pk.key_bits() != ctx.key_bits || !pk.n().bit(0) {
            return Err(PpgnnError::FieldOutOfRange {
                field: "pk modulus bits",
                value: pk.key_bits() as u64,
                max: ctx.key_bits as u64,
            });
        }
        let partition = if ctx.has_partition {
            let alpha = get_u32_bounded(buf, &mut pos, "alpha", MAX_WIRE_PARTITION)?;
            let beta = get_u32_bounded(buf, &mut pos, "beta", MAX_WIRE_PARTITION)?;
            // A count that cannot fit in the remaining bytes is rejected
            // before the allocation it sizes.
            let declared = (alpha + beta) * SCALAR_BYTES;
            if declared > buf.len().saturating_sub(pos) {
                return Err(PpgnnError::TruncatedMessage {
                    field: "partition sizes",
                    needed: declared,
                    have: buf.len().saturating_sub(pos),
                });
            }
            let mut subgroup_sizes = Vec::with_capacity(alpha);
            for _ in 0..alpha {
                subgroup_sizes.push(get_u32_bounded(
                    buf,
                    &mut pos,
                    "subgroup size",
                    MAX_WIRE_PARTITION_SIZE,
                )?);
            }
            let mut segment_sizes = Vec::with_capacity(beta);
            for _ in 0..beta {
                segment_sizes.push(get_u32_bounded(
                    buf,
                    &mut pos,
                    "segment size",
                    MAX_WIRE_PARTITION_SIZE,
                )?);
            }
            Some(PartitionParams {
                subgroup_sizes,
                segment_sizes,
            })
        } else {
            None
        };
        let w1 = pk.ciphertext_bytes(1);
        let w2 = pk.ciphertext_bytes(2);
        // θ0 trails the indicator; a buffer too short to even hold it is
        // truncated, not a zero-length indicator.
        let remaining = buf
            .len()
            .checked_sub(pos + 8)
            .ok_or(PpgnnError::TruncatedMessage {
                field: "theta0",
                needed: 8,
                have: buf.len().saturating_sub(pos),
            })?;
        let indicator = match ctx.two_phase_omega {
            None => {
                if !remaining.is_multiple_of(w1) {
                    return Err(PpgnnError::BadAnswerEncoding(
                        "bad indicator framing".into(),
                    ));
                }
                IndicatorPayload::Plain(get_vector(buf, &mut pos, remaining / w1, w1, 1)?)
            }
            Some(omega) => {
                let outer_bytes = omega.checked_mul(w2).ok_or(PpgnnError::FieldOutOfRange {
                    field: "omega",
                    value: omega as u64,
                    max: (usize::MAX / w2.max(1)) as u64,
                })?;
                if remaining < outer_bytes || !(remaining - outer_bytes).is_multiple_of(w1) {
                    return Err(PpgnnError::BadAnswerEncoding(
                        "bad two-phase framing".into(),
                    ));
                }
                let inner = get_vector(buf, &mut pos, (remaining - outer_bytes) / w1, w1, 1)?;
                let outer = get_vector(buf, &mut pos, omega, w2, 2)?;
                IndicatorPayload::TwoPhase { inner, outer }
            }
        };
        let theta0 = get_f64(buf, &mut pos, "theta0")?;
        expect_consumed(buf, pos)?;
        Ok(QueryMessage {
            k,
            pk,
            partition,
            indicator,
            theta0,
        })
    }
}

impl AnswerMessage {
    /// Serializes to exactly [`AnswerMessage::byte_len`] bytes.
    pub fn to_wire(&self, pk: &PublicKey) -> Vec<u8> {
        let sp = telemetry::enter(telemetry::Layer::WireEncode);
        sp.attr(telemetry::trace::AttrKey::Bytes, self.byte_len(pk) as u64);
        let mut buf = Vec::with_capacity(self.byte_len(pk));
        match self {
            AnswerMessage::Plain(v) => put_vector(&mut buf, v, pk.ciphertext_bytes(1)),
            AnswerMessage::TwoPhase(v) => put_vector(&mut buf, v, pk.ciphertext_bytes(2)),
        }
        debug_assert_eq!(buf.len(), self.byte_len(pk));
        buf
    }

    /// Parses a wire answer under the session context.
    pub fn from_wire(buf: &[u8], pk: &PublicKey, two_phase: bool) -> Result<Self, PpgnnError> {
        let sp = telemetry::enter(telemetry::Layer::WireDecode);
        sp.attr(telemetry::trace::AttrKey::Bytes, buf.len() as u64);
        let mut pos = 0;
        if two_phase {
            let w = pk.ciphertext_bytes(2);
            if !buf.len().is_multiple_of(w) {
                return Err(PpgnnError::BadAnswerEncoding("bad answer framing".into()));
            }
            Ok(AnswerMessage::TwoPhase(get_vector(
                buf,
                &mut pos,
                buf.len() / w,
                w,
                2,
            )?))
        } else {
            let w = pk.ciphertext_bytes(1);
            if !buf.len().is_multiple_of(w) {
                return Err(PpgnnError::BadAnswerEncoding("bad answer framing".into()));
            }
            Ok(AnswerMessage::Plain(get_vector(
                buf,
                &mut pos,
                buf.len() / w,
                w,
                1,
            )?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgnn_paillier::{generate_keypair, DjContext};

    /// Same call shape as the retired free function, built on the
    /// unified `Encryptor` API.
    fn encrypt_indicator<R: rand::Rng + ?Sized>(
        len: usize,
        pos: usize,
        ctx: &DjContext,
        rng: &mut R,
    ) -> ppgnn_paillier::EncryptedVector {
        use ppgnn_paillier::{Encryptor, FreshEncryptor};
        use rand::SeedableRng;
        FreshEncryptor::with_rng(ctx.clone(), rand::rngs::StdRng::seed_from_u64(rng.gen()))
            .encrypt_indicator(len, pos)
            .unwrap()
    }

    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (PublicKey, DjContext, DjContext, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (pk, _) = generate_keypair(128, &mut rng);
        let c1 = DjContext::new(&pk, 1);
        let c2 = DjContext::new(&pk, 2);
        (pk, c1, c2, rng)
    }

    #[test]
    fn location_set_roundtrip_and_exact_length() {
        let msg = LocationSetMessage {
            user_index: 3,
            locations: vec![Point::new(0.25, 0.75), Point::new(1.0, 0.0)],
        };
        let wire = msg.to_wire();
        assert_eq!(wire.len(), msg.byte_len());
        let back = LocationSetMessage::from_wire(&wire).unwrap();
        assert_eq!(back.user_index, 3);
        assert_eq!(back.locations, msg.locations);
    }

    #[test]
    fn query_plain_roundtrip_exact_length() {
        let (pk, c1, _, mut rng) = setup();
        let msg = QueryMessage {
            k: 8,
            pk: pk.clone(),
            partition: Some(PartitionParams {
                subgroup_sizes: vec![2, 2],
                segment_sizes: vec![3, 1],
            }),
            indicator: IndicatorPayload::Plain(encrypt_indicator(10, 7, &c1, &mut rng)),
            theta0: 0.05,
        };
        let wire = msg.to_wire();
        assert_eq!(wire.len(), msg.byte_len(), "ledger bytes must be honest");
        let ctx = WireContext {
            key_bits: 128,
            two_phase_omega: None,
            has_partition: true,
        };
        let back = QueryMessage::from_wire(&wire, &ctx).unwrap();
        assert_eq!(back.k, 8);
        assert_eq!(back.pk, pk);
        assert_eq!(back.partition, msg.partition);
        assert_eq!(back.theta0, 0.05);
        let IndicatorPayload::Plain(v) = back.indicator else {
            panic!()
        };
        let IndicatorPayload::Plain(orig) = msg.indicator else {
            panic!()
        };
        assert_eq!(v.elements(), orig.elements());
    }

    #[test]
    fn query_two_phase_roundtrip() {
        let (pk, c1, c2, mut rng) = setup();
        let msg = QueryMessage {
            k: 4,
            pk: pk.clone(),
            partition: None,
            indicator: IndicatorPayload::TwoPhase {
                inner: encrypt_indicator(5, 2, &c1, &mut rng),
                outer: encrypt_indicator(3, 1, &c2, &mut rng),
            },
            theta0: 0.1,
        };
        let wire = msg.to_wire();
        assert_eq!(wire.len(), msg.byte_len());
        let ctx = WireContext {
            key_bits: 128,
            two_phase_omega: Some(3),
            has_partition: false,
        };
        let back = QueryMessage::from_wire(&wire, &ctx).unwrap();
        let IndicatorPayload::TwoPhase { inner, outer } = back.indicator else {
            panic!()
        };
        assert_eq!(inner.len(), 5);
        assert_eq!(outer.len(), 3);
        let IndicatorPayload::TwoPhase {
            inner: oi,
            outer: oo,
        } = msg.indicator
        else {
            panic!()
        };
        assert_eq!(inner.elements(), oi.elements());
        assert_eq!(outer.elements(), oo.elements());
    }

    #[test]
    fn answer_roundtrip_both_levels() {
        let (pk, c1, c2, mut rng) = setup();
        let plain = AnswerMessage::Plain(encrypt_indicator(4, 1, &c1, &mut rng));
        let wire = plain.to_wire(&pk);
        assert_eq!(wire.len(), plain.byte_len(&pk));
        let back = AnswerMessage::from_wire(&wire, &pk, false).unwrap();
        let (AnswerMessage::Plain(a), AnswerMessage::Plain(b)) = (&plain, &back) else {
            panic!()
        };
        assert_eq!(a.elements(), b.elements());

        let two = AnswerMessage::TwoPhase(encrypt_indicator(2, 0, &c2, &mut rng));
        let wire = two.to_wire(&pk);
        assert_eq!(wire.len(), two.byte_len(&pk));
        assert!(AnswerMessage::from_wire(&wire, &pk, true).is_ok());
    }

    #[test]
    fn truncated_buffers_rejected() {
        let (pk, c1, _, mut rng) = setup();
        let msg = QueryMessage {
            k: 2,
            pk: pk.clone(),
            partition: None,
            indicator: IndicatorPayload::Plain(encrypt_indicator(3, 0, &c1, &mut rng)),
            theta0: 0.05,
        };
        let wire = msg.to_wire();
        let ctx = WireContext {
            key_bits: 128,
            two_phase_omega: None,
            has_partition: false,
        };
        // Chop bytes off: either framing or trailing-f64 reads must fail.
        assert!(QueryMessage::from_wire(&wire[..wire.len() - 3], &ctx).is_err());
        assert!(LocationSetMessage::from_wire(&[1, 2, 3]).is_err());
        assert!(AnswerMessage::from_wire(&wire[..5], &pk, false).is_err());
    }

    #[test]
    fn every_truncation_prefix_is_rejected_not_panicking() {
        // Chop the valid query at every length: the decoder must return a
        // typed error (or, for a few lucky prefixes, a shorter-but-valid
        // message) — never panic or accept trailing garbage.
        let (pk, c1, _, mut rng) = setup();
        let msg = QueryMessage {
            k: 2,
            pk,
            partition: Some(PartitionParams {
                subgroup_sizes: vec![1, 1],
                segment_sizes: vec![2, 2],
            }),
            indicator: IndicatorPayload::Plain(encrypt_indicator(4, 1, &c1, &mut rng)),
            theta0: 0.05,
        };
        let wire = msg.to_wire();
        let ctx = WireContext {
            key_bits: 128,
            two_phase_omega: None,
            has_partition: true,
        };
        for cut in 0..wire.len() {
            let _ = QueryMessage::from_wire(&wire[..cut], &ctx);
        }
        for cut in 0..wire.len() {
            let _ = LocationSetMessage::from_wire(&wire[..cut]);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (pk, c1, _, mut rng) = setup();
        let msg = QueryMessage {
            k: 2,
            pk,
            partition: None,
            indicator: IndicatorPayload::Plain(encrypt_indicator(3, 0, &c1, &mut rng)),
            theta0: 0.05,
        };
        let wire = msg.to_wire();
        let ctx = WireContext {
            key_bits: 128,
            two_phase_omega: None,
            has_partition: false,
        };
        // Trailing garbage that misaligns the ε₁ ciphertext framing must
        // be rejected, whatever the amount.
        for pad in [1usize, 7, 31, 33] {
            let mut padded = wire.clone();
            padded.extend(std::iter::repeat_n(0u8, pad));
            assert!(matches!(
                QueryMessage::from_wire(&padded, &ctx),
                Err(PpgnnError::BadAnswerEncoding(_)) | Err(PpgnnError::TrailingBytes { .. })
            ));
        }
        // Exactly one ciphertext width of padding is indistinguishable at
        // this layer — the indicator count is length-inferred — so it
        // decodes as one extra element, which the protocol layer rejects
        // against δ′. What matters here: no panic, and nothing silently
        // dropped.
        let mut padded = wire;
        padded.extend(std::iter::repeat_n(0u8, 32));
        let back = QueryMessage::from_wire(&padded, &ctx).unwrap();
        let IndicatorPayload::Plain(v) = back.indicator else {
            panic!()
        };
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn oversized_partition_counts_rejected_without_allocation() {
        // A frame declaring α = u32::MAX must be rejected before the
        // decoder sizes any allocation from it.
        let mut wire = Vec::new();
        put_u32(&mut wire, 2); // k
        wire.extend_from_slice(&[0xFF; 16]); // pk modulus (128-bit ctx)
        wire.extend_from_slice(&u32::MAX.to_le_bytes()); // alpha
        wire.extend_from_slice(&u32::MAX.to_le_bytes()); // beta
        let ctx = WireContext {
            key_bits: 128,
            two_phase_omega: None,
            has_partition: true,
        };
        assert!(matches!(
            QueryMessage::from_wire(&wire, &ctx),
            Err(PpgnnError::FieldOutOfRange { field: "alpha", .. })
        ));
    }

    #[test]
    fn plausible_partition_counts_still_need_the_bytes() {
        // Counts within bounds but larger than the buffer are truncation,
        // not allocation.
        let mut wire = Vec::new();
        put_u32(&mut wire, 2);
        wire.extend_from_slice(&[0xFF; 16]);
        put_u32(&mut wire, 4096); // alpha, in bounds
        put_u32(&mut wire, 4096); // beta, in bounds
        let ctx = WireContext {
            key_bits: 128,
            two_phase_omega: None,
            has_partition: true,
        };
        assert!(matches!(
            QueryMessage::from_wire(&wire, &ctx),
            Err(PpgnnError::TruncatedMessage {
                field: "partition sizes",
                ..
            })
        ));
    }

    #[test]
    fn degenerate_pk_modulus_rejected_not_divide_by_zero() {
        // A query whose modulus slot is all zeros once drove
        // `ciphertext_bytes` to 0 and the length-inferred indicator
        // count into `0 / 0`. Every degenerate modulus (zero, undersized,
        // even) must now map to a typed error.
        let ctx = WireContext {
            key_bits: 128,
            two_phase_omega: None,
            has_partition: false,
        };
        // k + 16 zero bytes of modulus + θ0 and nothing else.
        let mut wire = Vec::new();
        put_u32(&mut wire, 2);
        wire.extend_from_slice(&[0u8; 16]);
        put_f64(&mut wire, 0.05);
        assert!(matches!(
            QueryMessage::from_wire(&wire, &ctx),
            Err(PpgnnError::FieldOutOfRange {
                field: "pk modulus bits",
                ..
            })
        ));
        // Same shape under a two-phase context: also typed, no panic.
        let ctx2 = WireContext {
            key_bits: 128,
            two_phase_omega: Some(3),
            has_partition: false,
        };
        assert!(QueryMessage::from_wire(&wire, &ctx2).is_err());
        // An even modulus of the right width is still not an RSA modulus.
        let mut wire = Vec::new();
        put_u32(&mut wire, 2);
        let mut modulus = [0xFFu8; 16];
        modulus[15] = 0xFE; // even
        wire.extend_from_slice(&modulus);
        put_f64(&mut wire, 0.05);
        assert!(matches!(
            QueryMessage::from_wire(&wire, &ctx),
            Err(PpgnnError::FieldOutOfRange { .. })
        ));
    }

    #[test]
    fn decrypted_after_wire_roundtrip() {
        // Ciphertexts must survive serialization functionally, not just
        // byte-for-byte: decrypt after the roundtrip.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let (pk, sk) = generate_keypair(128, &mut rng);
        let c1 = DjContext::new(&pk, 1);
        let v = encrypt_indicator(4, 2, &c1, &mut rng);
        let msg = AnswerMessage::Plain(v);
        let back = AnswerMessage::from_wire(&msg.to_wire(&pk), &pk, false).unwrap();
        let AnswerMessage::Plain(v2) = back else {
            panic!()
        };
        let values = ppgnn_paillier::decrypt_vector(&v2, &c1, &sk);
        assert_eq!(values[2], BigUint::one());
        assert!(values[0].is_zero() && values[1].is_zero() && values[3].is_zero());
    }
}
