//! The unified encryption API: one [`Encryptor`] trait over every way a
//! plaintext becomes a ciphertext, replacing the seven ad-hoc
//! `encrypt_*` entry points that had accreted around [`DjContext`].
//!
//! * [`FreshEncryptor`] — draws fresh randomness per encryption and pays
//!   the full `r^{N^s}` exponentiation online. The reference path.
//! * [`PooledEncryptor`] — takes precomputed randomizers from a
//!   [`RandomizerPool`], so online `Enc` is one binomial + one mulmod.
//!   The pool can be prefilled synchronously (the paper's mobile-user
//!   offline phase) or refilled by a background thread below a low
//!   watermark (the server/session form). Exhaustion **never** blocks or
//!   errors: the encryptor falls back to fresh randomness and counts a
//!   `pool-miss`.
//!
//! Both implementations are `Send + Sync` and object-safe, so call sites
//! take `&dyn Encryptor` and stay agnostic of the randomness strategy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use ppgnn_bigint::BigUint;
use ppgnn_telemetry as telemetry;

use crate::context::{Ciphertext, DjContext};
use crate::error::PaillierError;
use crate::vector::EncryptedVector;

/// Draws `capacity` random units of `Z^*_N` and raises each to `N^s` —
/// the slow, plaintext-independent offline half of encryption.
pub(crate) fn generate_randomizers<R: rand::Rng + ?Sized>(
    ctx: &DjContext,
    capacity: usize,
    rng: &mut R,
) -> Vec<BigUint> {
    (0..capacity)
        .map(|_| ctx.pow_n_s(&ctx.random_unit(rng)))
        .collect()
}

/// The private RNG of one encryptor, pool refill thread or fallback,
/// seeded from a full 256-bit draw on the caller's `rng`. A 64-bit seed
/// would let every randomizer it ever draws take at most 2^64 values,
/// far below the key's security level.
pub fn encryptor_rng<R: rand::Rng + ?Sized>(rng: &mut R) -> StdRng {
    let mut seed = [0u8; 32];
    rng.fill_bytes(&mut seed);
    StdRng::from_seed(seed)
}

/// A strategy for encrypting under one fixed `(pk, s)` context.
///
/// Object-safe: call sites hold `&dyn Encryptor` / `Box<dyn Encryptor>`
/// and never care whether randomness is fresh or pooled.
pub trait Encryptor: Send + Sync {
    /// The `(pk, s)` context this encryptor targets.
    fn context(&self) -> &DjContext;

    /// Encrypts `m ∈ Z_{N^s}` with implementation-chosen randomness.
    fn encrypt(&self, m: &BigUint) -> Result<Ciphertext, PaillierError>;

    /// Deterministic encryption under caller-chosen randomness
    /// `r ∈ Z^*_N` — the reference path for equality proofs and
    /// re-randomization tests. Identical across implementations.
    fn encrypt_with_randomness(
        &self,
        m: &BigUint,
        r: &BigUint,
    ) -> Result<Ciphertext, PaillierError> {
        let ctx = self.context();
        ctx.check_plaintext_range(m)?;
        Ok(ctx.encrypt_with_randomness_core(m, r))
    }

    /// Encrypts a plaintext vector element-wise: one `paillier-encrypt`
    /// batch.
    fn encrypt_vector(&self, values: &[BigUint]) -> Result<EncryptedVector, PaillierError> {
        let batch = telemetry::enter(telemetry::Layer::PaillierEncrypt);
        batch.attr(telemetry::trace::AttrKey::Ciphertexts, values.len() as u64);
        let elements: Result<Vec<_>, _> = values.iter().map(|v| self.encrypt(v)).collect();
        Ok(EncryptedVector::from_ciphertexts(elements?))
    }

    /// Builds and encrypts an indicator vector of length `len` with a
    /// single 1 at `position` (the paper's Eqn 5 / Algorithm 1 lines
    /// 9–10).
    ///
    /// # Panics
    /// Panics if `position >= len`.
    fn encrypt_indicator(
        &self,
        len: usize,
        position: usize,
    ) -> Result<EncryptedVector, PaillierError> {
        assert!(
            position < len,
            "indicator position {position} out of range {len}"
        );
        let values: Vec<BigUint> = (0..len)
            .map(|i| {
                if i == position {
                    BigUint::one()
                } else {
                    BigUint::zero()
                }
            })
            .collect();
        self.encrypt_vector(&values)
    }
}

/// Fresh randomness per encryption: the full `r^{N^s}` exponentiation on
/// every call. Thread-safe via an internal RNG lock.
pub struct FreshEncryptor {
    ctx: DjContext,
    rng: Mutex<Box<dyn RngCore + Send>>,
}

impl FreshEncryptor {
    /// A deterministically seeded encryptor (tests, reproducible runs).
    pub fn seeded(ctx: DjContext, seed: u64) -> Self {
        Self::with_rng(ctx, StdRng::seed_from_u64(seed))
    }

    /// An encryptor drawing randomness from the given RNG.
    pub fn with_rng(ctx: DjContext, rng: impl RngCore + Send + 'static) -> Self {
        FreshEncryptor {
            ctx,
            rng: Mutex::new(Box::new(rng)),
        }
    }
}

impl Encryptor for FreshEncryptor {
    fn context(&self) -> &DjContext {
        &self.ctx
    }

    fn encrypt(&self, m: &BigUint) -> Result<Ciphertext, PaillierError> {
        let mut rng = self.rng.lock().expect("encryptor rng poisoned");
        self.ctx.encrypt_core(m, &mut **rng)
    }
}

/// Shared state between a [`RandomizerPool`]'s consumers and its refill
/// thread.
struct PoolInner {
    ctx: DjContext,
    capacity: usize,
    /// Refill triggers when depth drops below this (background pools).
    low_watermark: usize,
    stack: Mutex<Vec<BigUint>>,
    need_refill: Condvar,
    shutdown: AtomicBool,
}

impl PoolInner {
    fn publish_depth(&self, depth: usize) {
        telemetry::global().set_gauge(telemetry::Gauge::PoolDepth, depth as u64);
    }
}

/// A pool of precomputed `r^{N^s} mod N^{s+1}` randomizers, shareable
/// across threads.
///
/// Two forms:
/// * [`RandomizerPool::prefilled`] — filled synchronously by the caller
///   (the paper's offline phase; cost attributable to a ledger), never
///   refilled.
/// * [`RandomizerPool::with_background_refill`] — a refill thread
///   precomputes randomizers off the query path and tops the pool back up
///   to capacity whenever depth drops below the low watermark.
///
/// [`RandomizerPool::take`] never blocks: an empty pool returns `None`
/// and the caller (see [`PooledEncryptor`]) falls back to fresh
/// randomness. Depth is published on the `pool-depth` telemetry gauge.
pub struct RandomizerPool {
    inner: Arc<PoolInner>,
    refill: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for RandomizerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandomizerPool")
            .field("capacity", &self.inner.capacity)
            .field("low_watermark", &self.inner.low_watermark)
            .field("remaining", &self.remaining())
            .field("background", &self.refill.is_some())
            .finish()
    }
}

impl RandomizerPool {
    /// Fills the pool synchronously with `capacity` randomizers drawn
    /// from `rng`. No refill thread: once drained, consumers fall back to
    /// fresh randomness.
    pub fn prefilled<R: rand::Rng + ?Sized>(ctx: &DjContext, capacity: usize, rng: &mut R) -> Self {
        let stack = generate_randomizers(ctx, capacity, rng);
        let inner = Arc::new(PoolInner {
            ctx: ctx.clone(),
            capacity,
            low_watermark: 0,
            stack: Mutex::new(stack),
            need_refill: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        inner.publish_depth(capacity);
        RandomizerPool {
            inner,
            refill: None,
        }
    }

    /// Starts a background-refilled pool: a low-priority thread fills to
    /// `capacity`, then sleeps until depth drops below `low_watermark`
    /// and tops back up — precomputation always happens off the query
    /// path. The refill thread draws from `rng` (see [`encryptor_rng`]).
    ///
    /// # Panics
    /// Panics unless `1 <= low_watermark <= capacity`.
    pub fn with_background_refill(
        ctx: DjContext,
        capacity: usize,
        low_watermark: usize,
        rng: StdRng,
    ) -> Self {
        assert!(
            (1..=capacity).contains(&low_watermark),
            "low watermark must be in 1..=capacity"
        );
        let inner = Arc::new(PoolInner {
            ctx,
            capacity,
            low_watermark,
            stack: Mutex::new(Vec::with_capacity(capacity)),
            need_refill: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let thread_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("randomizer-refill".into())
            .spawn(move || refill_loop(&thread_inner, rng))
            .expect("spawn refill thread");
        RandomizerPool {
            inner,
            refill: Some(handle),
        }
    }

    /// The `(pk, s)` context the randomizers belong to.
    pub fn context(&self) -> &DjContext {
        &self.inner.ctx
    }

    /// Pops one precomputed randomizer, or `None` when empty — never
    /// blocks. Signals the refill thread when depth crosses the low
    /// watermark.
    pub fn take(&self) -> Option<BigUint> {
        let (rn, depth) = {
            let mut stack = self.inner.stack.lock().expect("pool lock poisoned");
            (stack.pop(), stack.len())
        };
        self.inner.publish_depth(depth);
        if rn.is_some() && depth < self.inner.low_watermark {
            self.inner.need_refill.notify_one();
        }
        rn
    }

    /// Randomizers currently available.
    pub fn remaining(&self) -> usize {
        self.inner.stack.lock().expect("pool lock poisoned").len()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Blocks until the pool is filled to capacity (tests/benchmarks that
    /// must separate offline warm-up from online measurement).
    pub fn wait_until_full(&self) {
        loop {
            if self.remaining() >= self.inner.capacity || self.refill.is_none() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

impl Drop for RandomizerPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.need_refill.notify_all();
        if let Some(handle) = self.refill.take() {
            let _ = handle.join();
        }
    }
}

/// The background refill loop: wait below the low watermark, fill to
/// capacity. Each randomizer is computed **outside** the lock so takers
/// never wait on a modular exponentiation.
fn refill_loop(inner: &PoolInner, mut rng: StdRng) {
    loop {
        {
            let mut stack = inner.stack.lock().expect("pool lock poisoned");
            // Sleep while healthy: above the watermark after the initial
            // fill, or at capacity during it.
            while !inner.shutdown.load(Ordering::Acquire) && stack.len() >= inner.capacity {
                stack = inner.need_refill.wait(stack).expect("pool lock poisoned");
            }
        }
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Fill to capacity, one randomizer per lock acquisition.
        loop {
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            let rn = inner.ctx.pow_n_s(&inner.ctx.random_unit(&mut rng));
            let depth = {
                let mut stack = inner.stack.lock().expect("pool lock poisoned");
                if stack.len() >= inner.capacity {
                    break;
                }
                stack.push(rn);
                stack.len()
            };
            inner.publish_depth(depth);
            if depth >= inner.capacity {
                break;
            }
        }
    }
}

/// Pool-backed encryption: one binomial + one mulmod online, with a
/// never-block fresh-randomness fallback when the pool is dry.
///
/// Hits and misses are counted on the `pool-hit` / `pool-miss` telemetry
/// counters; pool depth rides the `pool-depth` gauge.
pub struct PooledEncryptor {
    pool: Arc<RandomizerPool>,
    fallback: Mutex<Box<dyn RngCore + Send>>,
}

impl PooledEncryptor {
    /// Wraps a pool with a deterministically seeded fallback RNG.
    pub fn seeded(pool: Arc<RandomizerPool>, seed: u64) -> Self {
        Self::with_fallback_rng(pool, StdRng::seed_from_u64(seed))
    }

    /// Wraps a pool with a caller-supplied fallback RNG.
    pub fn with_fallback_rng(
        pool: Arc<RandomizerPool>,
        rng: impl RngCore + Send + 'static,
    ) -> Self {
        PooledEncryptor {
            pool,
            fallback: Mutex::new(Box::new(rng)),
        }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &RandomizerPool {
        &self.pool
    }
}

impl Encryptor for PooledEncryptor {
    fn context(&self) -> &DjContext {
        self.pool.context()
    }

    fn encrypt(&self, m: &BigUint) -> Result<Ciphertext, PaillierError> {
        match self.pool.take() {
            Some(rn) => {
                telemetry::global().incr(telemetry::Op::PoolHit);
                self.context().encrypt_with_randomizer_core(m, &rn)
            }
            None => {
                telemetry::global().incr(telemetry::Op::PoolMiss);
                let mut rng = self.fallback.lock().expect("fallback rng poisoned");
                self.context().encrypt_core(m, &mut **rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::generate_keypair;
    use crate::SecretKey;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (DjContext, SecretKey, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let (pk, sk) = generate_keypair(128, &mut rng);
        (DjContext::new(&pk, 1), sk, rng)
    }

    #[test]
    fn encryptor_rng_is_seeded_from_32_bytes() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut replay = ChaCha8Rng::seed_from_u64(3);
        let mut seed = [0u8; 32];
        replay.fill_bytes(&mut seed);
        let mut derived = encryptor_rng(&mut rng);
        assert_eq!(derived.next_u64(), StdRng::from_seed(seed).next_u64());
        assert_eq!(rng.next_u64(), replay.next_u64());
    }

    #[test]
    fn fresh_encryptor_roundtrip_and_probabilistic() {
        let (ctx, sk, _) = setup();
        let enc = FreshEncryptor::seeded(ctx.clone(), 7);
        let m = BigUint::from(424242u64);
        let c1 = enc.encrypt(&m).unwrap();
        let c2 = enc.encrypt(&m).unwrap();
        assert_ne!(c1, c2, "fresh randomness per call");
        assert_eq!(ctx.decrypt(&c1, &sk), m);
        assert_eq!(ctx.decrypt(&c2, &sk), m);
    }

    #[test]
    fn pooled_encryptor_roundtrip_with_prefilled_pool() {
        let (ctx, sk, mut rng) = setup();
        let pool = Arc::new(RandomizerPool::prefilled(&ctx, 4, &mut rng));
        let enc = PooledEncryptor::seeded(pool, 8);
        for i in 0..4u64 {
            let m = BigUint::from(i * 77);
            let c = enc.encrypt(&m).unwrap();
            assert_eq!(ctx.decrypt(&c, &sk), m);
        }
        assert_eq!(enc.pool().remaining(), 0);
    }

    #[test]
    fn pooled_exhaustion_falls_back_to_fresh() {
        let (ctx, sk, mut rng) = setup();
        let pool = Arc::new(RandomizerPool::prefilled(&ctx, 1, &mut rng));
        let enc = PooledEncryptor::seeded(pool, 9);
        let m = BigUint::from(5u64);
        let c1 = enc.encrypt(&m).unwrap();
        // Pool is now dry: this must still succeed, never error or block.
        let c2 = enc.encrypt(&m).unwrap();
        assert_ne!(c1, c2);
        assert_eq!(ctx.decrypt(&c1, &sk), m);
        assert_eq!(ctx.decrypt(&c2, &sk), m);
        assert_eq!(enc.pool().remaining(), 0);
    }

    #[test]
    fn background_pool_refills_below_watermark() {
        let (ctx, sk, _) = setup();
        let pool = Arc::new(RandomizerPool::with_background_refill(
            ctx.clone(),
            8,
            4,
            StdRng::seed_from_u64(13),
        ));
        pool.wait_until_full();
        assert_eq!(pool.remaining(), 8);
        let enc = PooledEncryptor::seeded(Arc::clone(&pool), 14);
        // Drain until we *observe* depth below the watermark (the refill
        // thread may race us and top up mid-drain, so a fixed number of
        // takes is not enough). The take that crosses the watermark
        // signals the refill thread, which must then fill to capacity.
        let mut i = 0u64;
        while pool.remaining() >= 4 {
            let m = BigUint::from(i % 1000);
            let c = enc.encrypt(&m).unwrap();
            assert_eq!(ctx.decrypt(&c, &sk), m);
            i += 1;
            assert!(i < 10_000, "drain never outpaced refill");
        }
        pool.wait_until_full();
        assert_eq!(pool.remaining(), 8, "refilled to capacity");
    }

    #[test]
    fn background_pool_shutdown_is_clean() {
        let (ctx, _, _) = setup();
        let pool = RandomizerPool::with_background_refill(ctx, 4, 2, StdRng::seed_from_u64(21));
        pool.wait_until_full();
        drop(pool); // Drop must join the refill thread without hanging.
    }

    #[test]
    fn trait_object_usability() {
        // The whole point of the redesign: call sites hold `&dyn
        // Encryptor` and swap strategies freely.
        let (ctx, sk, mut rng) = setup();
        let pool = Arc::new(RandomizerPool::prefilled(&ctx, 8, &mut rng));
        let encryptors: Vec<Box<dyn Encryptor>> = vec![
            Box::new(FreshEncryptor::seeded(ctx.clone(), 31)),
            Box::new(PooledEncryptor::seeded(pool, 32)),
        ];
        let m = BigUint::from(12345u64);
        for enc in &encryptors {
            let c = enc.encrypt(&m).unwrap();
            assert_eq!(enc.context().decrypt(&c, &sk), m);
            let v = enc
                .encrypt_vector(&[BigUint::one(), BigUint::from(2u64)])
                .unwrap();
            assert_eq!(v.len(), 2);
            let ind = enc.encrypt_indicator(3, 1).unwrap();
            assert_eq!(ind.len(), 3);
        }
    }

    #[test]
    fn same_randomness_is_bit_identical_across_impls() {
        // Enc(m; r) is a deterministic function of (m, r): fresh and
        // pooled implementations must agree bit for bit.
        let (ctx, _, mut rng) = setup();
        let pool = Arc::new(RandomizerPool::prefilled(&ctx, 1, &mut rng));
        let fresh = FreshEncryptor::seeded(ctx.clone(), 41);
        let pooled = PooledEncryptor::seeded(pool, 42);
        let m = BigUint::from(987654321u64);
        let r = BigUint::from(0xDEADBEEFu64);
        let c1 = fresh.encrypt_with_randomness(&m, &r).unwrap();
        let c2 = pooled.encrypt_with_randomness(&m, &r).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn out_of_range_plaintext_rejected_by_both() {
        let (ctx, _, mut rng) = setup();
        let too_big = ctx.plaintext_modulus().clone();
        let fresh = FreshEncryptor::seeded(ctx.clone(), 51);
        assert!(matches!(
            fresh.encrypt(&too_big),
            Err(PaillierError::PlaintextOutOfRange { .. })
        ));
        let pool = Arc::new(RandomizerPool::prefilled(&ctx, 1, &mut rng));
        let pooled = PooledEncryptor::seeded(pool, 52);
        assert!(matches!(
            pooled.encrypt(&too_big),
            Err(PaillierError::PlaintextOutOfRange { .. })
        ));
    }

    #[test]
    fn concurrent_takers_never_block_or_double_spend() {
        let (ctx, sk, _) = setup();
        let pool = Arc::new(RandomizerPool::with_background_refill(
            ctx.clone(),
            16,
            8,
            StdRng::seed_from_u64(61),
        ));
        pool.wait_until_full();
        let enc = Arc::new(PooledEncryptor::seeded(Arc::clone(&pool), 62));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let enc = Arc::clone(&enc);
                std::thread::spawn(move || {
                    (0..8u64)
                        .map(|i| enc.encrypt(&BigUint::from(t * 100 + i)).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for (t, h) in handles.into_iter().enumerate() {
            for (i, c) in h.join().unwrap().into_iter().enumerate() {
                assert_eq!(
                    ctx.decrypt(&c, &sk),
                    BigUint::from(t as u64 * 100 + i as u64)
                );
                all.push(c);
            }
        }
        // Every ciphertext must be distinct (no randomizer reuse).
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j], "randomizer double-spend");
            }
        }
    }
}
