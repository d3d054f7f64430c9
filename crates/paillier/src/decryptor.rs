//! Accelerated decryption: a reusable [`Decryptor`] that precomputes the
//! per-key constants plain [`DjContext::decrypt`] derives on every call
//! (`λ⁻¹ mod N^s`), and performs the dominating exponentiation `c^λ mod
//! N^{s+1}` by CRT over the prime-power factors `p^{s+1}`, `q^{s+1}` —
//! the same trick libhcs/GMP deployments use, worth ~3–4× on the
//! coordinator's answer-decryption step.

use ppgnn_bigint::{BigUint, MontgomeryCtx};
use ppgnn_telemetry as telemetry;

use crate::context::{Ciphertext, DjContext};
use crate::keys::SecretKey;

/// A decryption context bound to one `(SecretKey, s)` pair.
#[derive(Debug, Clone)]
pub struct Decryptor {
    /// λ = lcm(p−1, q−1).
    lambda: BigUint,
    /// λ⁻¹ mod N^s.
    lambda_inv: BigUint,
    /// Montgomery context modulo p^{s+1}.
    mont_p: MontgomeryCtx,
    /// Montgomery context modulo q^{s+1}.
    mont_q: MontgomeryCtx,
    /// CRT coefficient: (q^{s+1})⁻¹ mod p^{s+1}.
    q_inv_p: BigUint,
    /// q^{s+1} (the other CRT modulus).
    q_pow: BigUint,
}

impl Decryptor {
    /// Precomputes the constants for decrypting ε_s ciphertexts.
    pub fn new(ctx: &DjContext, sk: &SecretKey) -> Self {
        let s = ctx.level();
        let (p, q) = sk.primes();
        let p_pow = p.pow((s + 1) as u32);
        let q_pow = q.pow((s + 1) as u32);
        let q_inv_p = q_pow
            .mod_inverse(&p_pow)
            .expect("p, q are distinct primes, so q^{s+1} is a unit mod p^{s+1}");
        let lambda_inv = sk
            .lambda()
            .mod_inverse(ctx.plaintext_modulus())
            .expect("gcd(lambda, N) = 1 enforced at keygen");
        Decryptor {
            lambda: sk.lambda().clone(),
            lambda_inv,
            mont_p: MontgomeryCtx::new(p_pow),
            mont_q: MontgomeryCtx::new(q_pow.clone()),
            q_inv_p,
            q_pow,
        }
    }

    /// `c^λ mod N^{s+1}` via CRT: two half-size exponentiations plus a
    /// Garner recombination.
    fn pow_lambda_crt(&self, c: &BigUint) -> BigUint {
        let xp = self.mont_p.modpow(c, &self.lambda);
        let xq = self.mont_q.modpow(c, &self.lambda);
        // Garner: x = xq + q^{s+1} · ((xp − xq)·q_inv mod p^{s+1}).
        let p_pow = self.mont_p.modulus();
        let diff = if xp >= xq {
            &xp - &(&xq % p_pow)
        } else {
            // xp − xq mod p^{s+1}
            let xq_mod = &xq % p_pow;
            if xp >= xq_mod {
                &xp - &xq_mod
            } else {
                &(&xp + p_pow) - &xq_mod
            }
        };
        let t = (&diff % p_pow).mod_mul(&self.q_inv_p, p_pow);
        &xq + &(&t * &self.q_pow)
    }

    /// Decrypts using the precomputed constants and CRT exponentiation.
    ///
    /// # Panics
    /// Panics if the ciphertext level differs from the context's.
    pub fn decrypt(&self, ctx: &DjContext, c: &Ciphertext) -> BigUint {
        assert_eq!(c.level(), ctx.level(), "ciphertext level mismatch");
        telemetry::global().incr(telemetry::Op::PaillierDecrypt);
        let c_lambda = self.pow_lambda_crt(c.value());
        let x = ctx.dj_log_public(&c_lambda);
        x.mod_mul(&self.lambda_inv, ctx.plaintext_modulus())
    }

    /// Decrypts a whole vector: one `paillier-decrypt` batch.
    pub fn decrypt_vector(&self, ctx: &DjContext, v: &crate::EncryptedVector) -> Vec<BigUint> {
        let batch = telemetry::enter(telemetry::Layer::PaillierDecrypt);
        batch.attr(telemetry::trace::AttrKey::Ciphertexts, v.len() as u64);
        v.elements().iter().map(|c| self.decrypt(ctx, c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::generate_keypair;
    use ppgnn_bigint::UniformBigUint;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn matches_plain_decryption_s1_s2() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (pk, sk) = generate_keypair(128, &mut rng);
        for s in [1usize, 2] {
            let ctx = DjContext::new(&pk, s);
            let dec = Decryptor::new(&ctx, &sk);
            for _ in 0..10 {
                let m = rng.gen_biguint_below(ctx.plaintext_modulus());
                let c = ctx.encrypt_core(&m, &mut rng).unwrap();
                assert_eq!(dec.decrypt(&ctx, &c), ctx.decrypt(&c, &sk), "s={s}");
                assert_eq!(dec.decrypt(&ctx, &c), m);
            }
        }
    }

    #[test]
    fn crt_pow_matches_direct() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (pk, sk) = generate_keypair(128, &mut rng);
        let ctx = DjContext::new(&pk, 1);
        let dec = Decryptor::new(&ctx, &sk);
        for _ in 0..20 {
            let c = rng.gen_biguint_below(ctx.ciphertext_modulus());
            let direct = c.modpow(sk.lambda(), ctx.ciphertext_modulus());
            assert_eq!(dec.pow_lambda_crt(&c) % ctx.ciphertext_modulus(), direct);
        }
    }

    #[test]
    fn vector_decryption() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (pk, sk) = generate_keypair(128, &mut rng);
        let ctx = DjContext::new(&pk, 1);
        let dec = Decryptor::new(&ctx, &sk);
        let values: Vec<BigUint> = (0..5).map(|i| BigUint::from(i as u64 * 111)).collect();
        let enc = crate::EncryptedVector::from_ciphertexts(
            values
                .iter()
                .map(|v| ctx.encrypt_core(v, &mut rng).unwrap())
                .collect(),
        );
        assert_eq!(dec.decrypt_vector(&ctx, &enc), values);
    }

    #[test]
    fn crt_is_faster_than_plain() {
        // Not a strict benchmark, but CRT must not be slower by more than
        // noise; on 256-bit keys the speedup is already evident.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (pk, sk) = generate_keypair(256, &mut rng);
        let ctx = DjContext::new(&pk, 1);
        let dec = Decryptor::new(&ctx, &sk);
        let c = ctx.encrypt_core(&BigUint::from(42u64), &mut rng).unwrap();

        let t0 = std::time::Instant::now();
        for _ in 0..20 {
            let _ = ctx.decrypt(&c, &sk);
        }
        let plain = t0.elapsed();
        let t0 = std::time::Instant::now();
        for _ in 0..20 {
            let _ = dec.decrypt(&ctx, &c);
        }
        let crt = t0.elapsed();
        assert!(
            crt < plain * 2,
            "CRT path unexpectedly slow: {crt:?} vs plain {plain:?}"
        );
    }
}
