//! The ε_s encryption/decryption context and the homomorphisms of §3.1.
//!
//! `DjContext::new(&pk, s)` precomputes the powers `N^j`, a Montgomery
//! context for the ciphertext ring `Z_{N^{s+1}}`, and the factorial
//! inverses needed by both the binomial expansion of `(1+N)^m` and the
//! Damgård–Jurik logarithm extraction used in decryption.

use rand::Rng;

use ppgnn_bigint::{BigUint, MontgomeryCtx, UniformBigUint};
use ppgnn_telemetry as telemetry;

use crate::error::PaillierError;
use crate::keys::{PublicKey, SecretKey};

/// A ciphertext of ε_s: an element of `Z^*_{N^{s+1}}` tagged with its level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    value: BigUint,
    s: usize,
}

impl Ciphertext {
    /// The raw ring element.
    pub fn value(&self) -> &BigUint {
        &self.value
    }

    /// The ε_s level this ciphertext belongs to.
    pub fn level(&self) -> usize {
        self.s
    }

    /// Reconstructs a ciphertext from its raw parts (deserialization).
    pub fn from_parts(value: BigUint, s: usize) -> Self {
        Ciphertext { value, s }
    }

    /// Serialized size in bytes under the given key.
    pub fn byte_len(&self, pk: &PublicKey) -> usize {
        pk.ciphertext_bytes(self.s)
    }

    /// Structural validity of an untrusted ciphertext under `pk`.
    ///
    /// A well-formed ε_s ciphertext is a **unit** of `Z^*_{N^{s+1}}`:
    /// strictly inside `[1, N^{s+1})` and coprime to the modulus. Every
    /// honest encryption satisfies this by construction; bytes arriving
    /// off the network do not, so a server must check before feeding
    /// them into modular exponentiation (a zero or out-of-range value
    /// silently degrades the private selection of Theorem 3.1, and a
    /// non-unit would leak a factor of `N` on decryption).
    pub fn validate(&self, pk: &PublicKey) -> Result<(), PaillierError> {
        let modulus = pk.n().pow(self.s as u32 + 1);
        self.validate_in(pk.n(), &modulus)
    }

    /// [`Ciphertext::validate`] with the moduli precomputed — the batch
    /// form for validating whole vectors without re-deriving `N^{s+1}`
    /// per element.
    pub fn validate_in(
        &self,
        n: &BigUint,
        ciphertext_modulus: &BigUint,
    ) -> Result<(), PaillierError> {
        if self.value.is_zero() || &self.value >= ciphertext_modulus || !self.value.gcd(n).is_one()
        {
            return Err(PaillierError::MalformedCiphertext);
        }
        Ok(())
    }

    /// Reinterprets this ε_s ciphertext as an ε_{s+1} *plaintext*
    /// (an element of `Z_{N^{s+1}}`). This is the layering trick of §6:
    /// the second selection phase of PPGNN-OPT encrypts ε₁ ciphertexts
    /// under ε₂.
    pub fn as_plaintext(&self) -> BigUint {
        self.value.clone()
    }
}

/// Encryption/homomorphic-operation context for a fixed `(pk, s)`.
#[derive(Debug, Clone)]
pub struct DjContext {
    pk: PublicKey,
    s: usize,
    /// `N^j` for `j = 0..=s+1` (so `n_pow[s]` is the plaintext modulus and
    /// `n_pow[s+1]` the ciphertext modulus).
    n_pow: Vec<BigUint>,
    /// Montgomery context modulo `N^{s+1}`.
    mont: MontgomeryCtx,
    /// `inv(k!) mod N^{s+1}` for `k = 0..=s`.
    fact_inv: Vec<BigUint>,
}

impl DjContext {
    /// Builds a context for level `s ≥ 1`.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(pk: &PublicKey, s: usize) -> Self {
        assert!(s >= 1, "Damgård–Jurik level s must be >= 1");
        let n = pk.n();
        let mut n_pow = Vec::with_capacity(s + 2);
        n_pow.push(BigUint::one());
        for j in 1..=s + 1 {
            let prev: &BigUint = &n_pow[j - 1];
            n_pow.push(prev * n);
        }
        let mont = MontgomeryCtx::new(n_pow[s + 1].clone());
        let modulus = n_pow[s + 1].clone();
        let mut fact_inv = Vec::with_capacity(s + 1);
        let mut fact = BigUint::one();
        fact_inv.push(BigUint::one()); // 0! = 1
        for k in 1..=s {
            fact = fact.mul_limb(k as u64);
            fact_inv.push(
                fact.mod_inverse(&modulus)
                    .expect("k! is coprime to N for k << p, q"),
            );
        }
        DjContext {
            pk: pk.clone(),
            s,
            n_pow,
            mont,
            fact_inv,
        }
    }

    /// The public key this context encrypts under.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// The level `s`.
    pub fn level(&self) -> usize {
        self.s
    }

    /// The plaintext modulus `N^s`.
    pub fn plaintext_modulus(&self) -> &BigUint {
        &self.n_pow[self.s]
    }

    /// The ciphertext modulus `N^{s+1}`.
    pub fn ciphertext_modulus(&self) -> &BigUint {
        &self.n_pow[self.s + 1]
    }

    /// The Montgomery context over the ciphertext ring `Z_{N^{s+1}}` —
    /// shared with the vector/matrix layer so multi-exponentiation can
    /// hoist window tables across rows.
    pub(crate) fn mont(&self) -> &MontgomeryCtx {
        &self.mont
    }

    /// `(1+N)^m mod N^{s+1}` by the binomial theorem: only the first
    /// `s+1` terms survive because `N^{s+1} ≡ 0`.
    fn one_plus_n_pow(&self, m: &BigUint) -> BigUint {
        let modulus = self.ciphertext_modulus();
        let mut acc = BigUint::one();
        // numerator accumulates m·(m−1)·…·(m−k+1) mod N^{s+1}; it becomes
        // exactly zero when m < k, matching C(m, k) = 0.
        let mut numerator = BigUint::one();
        for k in 1..=self.s {
            let factor = match m.checked_sub(&BigUint::from((k - 1) as u64)) {
                Some(f) => f,
                None => break, // m < k-1 ⇒ all further binomials are zero
            };
            numerator = numerator.mod_mul(&factor, modulus);
            if numerator.is_zero() {
                break;
            }
            let term = numerator
                .mod_mul(&self.fact_inv[k], modulus)
                .mod_mul(&self.n_pow[k], modulus);
            acc = acc.mod_add(&term, modulus);
        }
        acc
    }

    /// Draws a random `r ∈ Z^*_N`.
    pub(crate) fn random_unit<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        let n = self.pk.n();
        loop {
            let r = rng.gen_biguint_range(&BigUint::one(), n);
            if r.gcd(n).is_one() {
                return r;
            }
        }
    }

    /// Rejects plaintexts outside `Z_{N^s}`.
    pub(crate) fn check_plaintext_range(&self, m: &BigUint) -> Result<(), PaillierError> {
        if m >= self.plaintext_modulus() {
            return Err(PaillierError::PlaintextOutOfRange {
                plaintext_bits: m.bit_length(),
                capacity_bits: self.plaintext_modulus().bit_length(),
            });
        }
        Ok(())
    }

    /// Fresh-randomness encryption `c = (1+N)^m · r^{N^s} mod N^{s+1}`,
    /// drawing `r` from `rng`. Counts one `paillier-encrypt-ops`; the
    /// `paillier-encrypt` layer times the whole batch
    /// ([`crate::Encryptor::encrypt_vector`]).
    pub(crate) fn encrypt_core<R: Rng + ?Sized>(
        &self,
        m: &BigUint,
        rng: &mut R,
    ) -> Result<Ciphertext, PaillierError> {
        self.check_plaintext_range(m)?;
        telemetry::global().incr(telemetry::Op::PaillierEncrypt);
        let r = self.random_unit(rng);
        Ok(self.encrypt_with_randomness_core(m, &r))
    }

    /// Deterministic encryption under caller-chosen `r ∈ Z^*_N`. Not
    /// telemetered: this is the reference/test path, never the hot one.
    pub(crate) fn encrypt_with_randomness_core(&self, m: &BigUint, r: &BigUint) -> Ciphertext {
        let gm = self.one_plus_n_pow(m);
        let rn = self.pow_n_s(r);
        Ciphertext {
            value: gm.mod_mul(&rn, self.ciphertext_modulus()),
            s: self.s,
        }
    }

    /// The fast online step: one binomial + one mulmod, given the
    /// precomputed randomizer `rn = r^{N^s} mod N^{s+1}`. Counts one
    /// `paillier-encrypt-ops`, like [`Self::encrypt_core`].
    pub(crate) fn encrypt_with_randomizer_core(
        &self,
        m: &BigUint,
        rn: &BigUint,
    ) -> Result<Ciphertext, PaillierError> {
        self.check_plaintext_range(m)?;
        telemetry::global().incr(telemetry::Op::PaillierEncrypt);
        let gm = self.one_plus_n_pow(m);
        Ok(Ciphertext {
            value: gm.mod_mul(rn, self.ciphertext_modulus()),
            s: self.s,
        })
    }

    /// The randomizer exponentiation `r^{N^s} mod N^{s+1}` — the
    /// plaintext-independent (pre-computable) half of an encryption.
    pub fn pow_n_s(&self, r: &BigUint) -> BigUint {
        self.mont.modpow(r, &self.n_pow[self.s])
    }

    /// Decrypts a ciphertext with the matching secret key.
    ///
    /// # Panics
    /// Panics if the ciphertext's level differs from the context's.
    pub fn decrypt(&self, c: &Ciphertext, sk: &SecretKey) -> BigUint {
        assert_eq!(c.s, self.s, "ciphertext level mismatch");
        telemetry::global().incr(telemetry::Op::PaillierDecrypt);
        // c^λ = (1+N)^{λ·m mod N^s} in Z_{N^{s+1}}.
        let c_lambda = self.mont.modpow(&c.value, sk.lambda());
        let x = self.dj_log(&c_lambda); // λ·m mod N^s
        let lambda_inv = sk
            .lambda()
            .mod_inverse(self.plaintext_modulus())
            .expect("gcd(lambda, N) = 1 enforced at keygen");
        x.mod_mul(&lambda_inv, self.plaintext_modulus())
    }

    /// Public wrapper over the Damgård–Jurik logarithm for the
    /// CRT-accelerated [`crate::Decryptor`].
    pub(crate) fn dj_log_public(&self, a: &BigUint) -> BigUint {
        self.dj_log(a)
    }

    /// Damgård–Jurik logarithm: given `a = (1+N)^x mod N^{s+1}`, recovers
    /// `x mod N^s` (the paper's `L`-function generalized to `s > 1`).
    fn dj_log(&self, a: &BigUint) -> BigUint {
        let n = self.pk.n();
        let mut i = BigUint::zero();
        for j in 1..=self.s {
            let nj = &self.n_pow[j];
            let nj1 = &self.n_pow[j + 1];
            // t1 = L(a mod N^{j+1}) = (a mod N^{j+1} − 1) / N, an element of Z_{N^j}.
            let reduced = a % nj1;
            debug_assert!(!reduced.is_zero(), "ciphertext ≡ 0 is malformed");
            let mut t1 = (&reduced - &BigUint::one()) / n;
            let mut t2 = i.clone();
            let mut i_run = i.clone();
            for k in 2..=j {
                // i_run := i_run − 1 (mod N^j)
                i_run = if i_run.is_zero() {
                    nj - &BigUint::one()
                } else {
                    &i_run - &BigUint::one()
                };
                t2 = t2.mod_mul(&i_run, nj);
                // t1 := t1 − t2 · N^{k−1} / k!  (mod N^j)
                let term = t2
                    .mod_mul(&self.n_pow[k - 1], nj)
                    .mod_mul(&(&self.fact_inv[k] % nj), nj);
                t1 = (&t1 % nj).mod_sub(&term, nj);
            }
            i = &t1 % nj;
        }
        i
    }

    /// Homomorphic addition (the paper's Eqn 2): `Enc(x₁) ⊕ Enc(x₂) =
    /// Enc(x₁ + x₂)` via ciphertext multiplication.
    pub fn add(&self, c1: &Ciphertext, c2: &Ciphertext) -> Ciphertext {
        assert_eq!(c1.s, self.s, "ciphertext level mismatch");
        assert_eq!(c2.s, self.s, "ciphertext level mismatch");
        telemetry::global().incr(telemetry::Op::PaillierAdd);
        Ciphertext {
            value: c1.value.mod_mul(&c2.value, self.ciphertext_modulus()),
            s: self.s,
        }
    }

    /// Homomorphic plaintext multiplication (Eqn 3): `x ⊗ Enc(y) =
    /// Enc(x·y)` via exponentiation.
    pub fn scalar_mul(&self, x: &BigUint, c: &Ciphertext) -> Ciphertext {
        assert_eq!(c.s, self.s, "ciphertext level mismatch");
        telemetry::global().incr(telemetry::Op::PaillierScalarMul);
        Ciphertext {
            value: self.mont.modpow(&c.value, x),
            s: self.s,
        }
    }

    /// Homomorphic negation: `⊖Enc(x) = Enc(N^s − x)`.
    pub fn neg(&self, c: &Ciphertext) -> Ciphertext {
        let minus_one = self.plaintext_modulus() - &BigUint::one();
        self.scalar_mul(&minus_one, c)
    }

    /// Homomorphic subtraction: `Enc(x₁) ⊖ Enc(x₂) = Enc(x₁ − x₂ mod N^s)`.
    pub fn sub(&self, c1: &Ciphertext, c2: &Ciphertext) -> Ciphertext {
        self.add(c1, &self.neg(c2))
    }

    /// Re-randomizes a ciphertext (multiplies by a fresh `Enc(0)`),
    /// leaving the plaintext unchanged.
    pub fn rerandomize<R: Rng + ?Sized>(&self, c: &Ciphertext, rng: &mut R) -> Ciphertext {
        let r = self.random_unit(rng);
        let rn = self.mont.modpow(&r, &self.n_pow[self.s]);
        Ciphertext {
            value: c.value.mod_mul(&rn, self.ciphertext_modulus()),
            s: self.s,
        }
    }

    /// An encryption of zero with randomness 1 — the multiplicative
    /// identity of the ⊕ operation. Deterministic, so **not** semantically
    /// secure; used only as an accumulator seed.
    pub fn one_ciphertext(&self) -> Ciphertext {
        Ciphertext {
            value: BigUint::one(),
            s: self.s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::generate_keypair;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(s: usize) -> (DjContext, SecretKey, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(42 + s as u64);
        let (pk, sk) = generate_keypair(128, &mut rng);
        (DjContext::new(&pk, s), sk, rng)
    }

    /// Fresh-randomness encryption for tests, via the crate-internal core
    /// (the public path is the `Encryptor` trait, covered in encryptor.rs).
    trait TestEncrypt {
        fn enc<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> Ciphertext;
    }
    impl TestEncrypt for DjContext {
        fn enc<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> Ciphertext {
            self.encrypt_core(m, rng).expect("plaintext out of range")
        }
    }

    #[test]
    fn roundtrip_s1() {
        let (ctx, sk, mut rng) = setup(1);
        for m in [0u64, 1, 2, 42, u64::MAX] {
            let m = BigUint::from(m);
            let c = ctx.enc(&m, &mut rng);
            assert_eq!(ctx.decrypt(&c, &sk), m);
        }
    }

    #[test]
    fn roundtrip_s2() {
        let (ctx, sk, mut rng) = setup(2);
        // Plaintexts larger than N (but < N^2) must roundtrip at s=2.
        let big = ctx.public_key().n() + &BigUint::from(12345u64);
        for m in [BigUint::zero(), BigUint::one(), big] {
            let c = ctx.enc(&m, &mut rng);
            assert_eq!(ctx.decrypt(&c, &sk), m);
        }
    }

    #[test]
    fn roundtrip_s3() {
        let (ctx, sk, mut rng) = setup(3);
        let m = ctx.public_key().n().pow(2).mul_limb(3);
        let c = ctx.enc(&m, &mut rng);
        assert_eq!(ctx.decrypt(&c, &sk), m);
    }

    #[test]
    fn roundtrip_max_plaintext() {
        let (ctx, sk, mut rng) = setup(1);
        let m = ctx.plaintext_modulus() - &BigUint::one();
        let c = ctx.enc(&m, &mut rng);
        assert_eq!(ctx.decrypt(&c, &sk), m);
    }

    #[test]
    fn out_of_range_plaintext_rejected() {
        let (ctx, _, mut rng) = setup(1);
        let m = ctx.plaintext_modulus().clone();
        assert!(matches!(
            ctx.encrypt_core(&m, &mut rng),
            Err(PaillierError::PlaintextOutOfRange { .. })
        ));
    }

    #[test]
    fn probabilistic_encryption() {
        let (ctx, _, mut rng) = setup(1);
        let m = BigUint::from(7u64);
        let c1 = ctx.enc(&m, &mut rng);
        let c2 = ctx.enc(&m, &mut rng);
        assert_ne!(c1, c2, "same plaintext must yield different ciphertexts");
    }

    #[test]
    fn homomorphic_addition() {
        let (ctx, sk, mut rng) = setup(1);
        let a = BigUint::from(1234u64);
        let b = BigUint::from(8766u64);
        let c = ctx.add(&ctx.enc(&a, &mut rng), &ctx.enc(&b, &mut rng));
        assert_eq!(ctx.decrypt(&c, &sk), BigUint::from(10000u64));
    }

    #[test]
    fn homomorphic_addition_wraps_mod_ns() {
        let (ctx, sk, mut rng) = setup(1);
        let a = ctx.plaintext_modulus() - &BigUint::one();
        let b = BigUint::from(2u64);
        let c = ctx.add(&ctx.enc(&a, &mut rng), &ctx.enc(&b, &mut rng));
        assert_eq!(ctx.decrypt(&c, &sk), BigUint::one());
    }

    #[test]
    fn homomorphic_scalar_mul() {
        let (ctx, sk, mut rng) = setup(1);
        let m = BigUint::from(111u64);
        let k = BigUint::from(9u64);
        let c = ctx.scalar_mul(&k, &ctx.enc(&m, &mut rng));
        assert_eq!(ctx.decrypt(&c, &sk), BigUint::from(999u64));
    }

    #[test]
    fn scalar_mul_by_zero_gives_zero() {
        let (ctx, sk, mut rng) = setup(1);
        let c = ctx.scalar_mul(&BigUint::zero(), &ctx.enc(&BigUint::from(5u64), &mut rng));
        assert_eq!(ctx.decrypt(&c, &sk), BigUint::zero());
    }

    #[test]
    fn homomorphic_sub_and_neg() {
        let (ctx, sk, mut rng) = setup(1);
        let a = ctx.enc(&BigUint::from(50u64), &mut rng);
        let b = ctx.enc(&BigUint::from(8u64), &mut rng);
        assert_eq!(ctx.decrypt(&ctx.sub(&a, &b), &sk), BigUint::from(42u64));
        let neg = ctx.neg(&ctx.enc(&BigUint::one(), &mut rng));
        assert_eq!(
            ctx.decrypt(&neg, &sk),
            ctx.plaintext_modulus() - &BigUint::one()
        );
    }

    #[test]
    fn rerandomize_preserves_plaintext() {
        let (ctx, sk, mut rng) = setup(1);
        let m = BigUint::from(77u64);
        let c = ctx.enc(&m, &mut rng);
        let c2 = ctx.rerandomize(&c, &mut rng);
        assert_ne!(c, c2);
        assert_eq!(ctx.decrypt(&c2, &sk), m);
    }

    #[test]
    fn layered_encryption_roundtrip() {
        // ε₁ ciphertext as ε₂ plaintext: Dec₂ then Dec₁ recovers m (§6).
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (pk, sk) = generate_keypair(128, &mut rng);
        let ctx1 = DjContext::new(&pk, 1);
        let ctx2 = DjContext::new(&pk, 2);
        let m = BigUint::from(123456u64);
        let inner = ctx1.enc(&m, &mut rng);
        let outer = ctx2.enc(&inner.as_plaintext(), &mut rng);
        let recovered_inner = ctx2.decrypt(&outer, &sk);
        let recovered = ctx1.decrypt(&Ciphertext::from_parts(recovered_inner, 1), &sk);
        assert_eq!(recovered, m);
    }

    #[test]
    fn dot_of_add_and_scalar_matches_affine() {
        // k1*a + k2*b homomorphically.
        let (ctx, sk, mut rng) = setup(1);
        let (a, b) = (BigUint::from(13u64), BigUint::from(29u64));
        let (k1, k2) = (BigUint::from(3u64), BigUint::from(5u64));
        let ca = ctx.enc(&a, &mut rng);
        let cb = ctx.enc(&b, &mut rng);
        let combo = ctx.add(&ctx.scalar_mul(&k1, &ca), &ctx.scalar_mul(&k2, &cb));
        assert_eq!(ctx.decrypt(&combo, &sk), BigUint::from(3 * 13 + 5 * 29u64));
    }

    #[test]
    fn validate_accepts_honest_ciphertexts() {
        let (ctx, _, mut rng) = setup(1);
        let pk = ctx.public_key().clone();
        for m in [0u64, 1, 42, u64::MAX] {
            let c = ctx.enc(&BigUint::from(m), &mut rng);
            assert!(c.validate(&pk).is_ok());
        }
        // ε₂ ciphertexts validate against N³.
        let (ctx2, _, mut rng2) = setup(2);
        let c2 = ctx2.enc(&BigUint::from(7u64), &mut rng2);
        assert!(c2.validate(ctx2.public_key()).is_ok());
    }

    #[test]
    fn validate_rejects_zero_oversize_and_nonunit() {
        let (ctx, _, mut rng) = setup(1);
        let pk = ctx.public_key().clone();
        // Zero is never a unit.
        let zero = Ciphertext::from_parts(BigUint::zero(), 1);
        assert_eq!(zero.validate(&pk), Err(PaillierError::MalformedCiphertext));
        // Values at or past N² are out of the ring.
        let n2 = pk.n().pow(2);
        let at = Ciphertext::from_parts(n2.clone(), 1);
        assert_eq!(at.validate(&pk), Err(PaillierError::MalformedCiphertext));
        let past = Ciphertext::from_parts(&n2 + &BigUint::from(5u64), 1);
        assert_eq!(past.validate(&pk), Err(PaillierError::MalformedCiphertext));
        // A multiple of N shares a factor with the modulus: not a unit.
        let non_unit = Ciphertext::from_parts(pk.n().mul_limb(3), 1);
        assert_eq!(
            non_unit.validate(&pk),
            Err(PaillierError::MalformedCiphertext)
        );
        // An honest ciphertext tagged with the wrong level fails the
        // range check against the smaller ring with overwhelming
        // probability only at higher levels; the level-1 check against
        // N² still accepts it — level agreement is the wire layer's
        // job. What must hold: validation never panics.
        let c = ctx.enc(&BigUint::from(9u64), &mut rng);
        let retagged = Ciphertext::from_parts(c.value().clone(), 2);
        let _ = retagged.validate(&pk);
    }

    #[test]
    #[should_panic(expected = "level mismatch")]
    fn level_mismatch_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let (pk, _sk) = generate_keypair(64, &mut rng);
        let ctx1 = DjContext::new(&pk, 1);
        let ctx2 = DjContext::new(&pk, 2);
        let c = ctx1.enc(&BigUint::one(), &mut rng);
        let _ = ctx2.scalar_mul(&BigUint::one(), &c);
    }
}
