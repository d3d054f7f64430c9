//! The full protocol driver: Algorithm 1 (query generation), the LSP
//! round (Algorithm 2), and answer decryption — for all three variants
//! (PPGNN §4.2, PPGNN-OPT §6, Naive §4).
//!
//! The driver simulates every party on one machine while the
//! [`CostLedger`] records exactly what each party computed and every byte
//! each message would occupy on the wire.

use std::sync::Arc;

use ppgnn_geo::{Point, Rect};
use ppgnn_paillier::{
    encryptor_rng, generate_keypair, Ciphertext, Decryptor, DjContext, Encryptor, FreshEncryptor,
    Keypair, PooledEncryptor, PublicKey, RandomizerPool,
};
use ppgnn_sim::{CostLedger, CostReport, Party, SCALAR_BYTES};
use ppgnn_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::Rng;

use crate::candidate::query_index;
use crate::encoding::AnswerCodec;
use crate::error::PpgnnError;
use crate::lsp::Lsp;
use crate::messages::{AnswerMessage, IndicatorPayload, LocationSetMessage, QueryMessage};
use crate::params::{PpgnnConfig, Variant};
use crate::partition::PartitionParams;
use crate::partition_cache::solve_partition_cached;
use crate::wire::WireContext;

/// The outcome of one protocol run.
#[derive(Debug, Clone)]
pub struct ProtocolRun {
    /// The decrypted answer: the (sanitized) top-`t` POI locations,
    /// best first.
    pub answer: Vec<Point>,
    /// `t`: POIs actually returned (≤ k after sanitation — Figure 7).
    pub pois_returned: usize,
    /// `δ′`: candidate queries the LSP evaluated.
    pub delta_prime: usize,
    /// The aggregated cost report.
    pub report: CostReport,
    /// The ordered message transcript (who sent what, in order).
    pub transcript: ppgnn_sim::Transcript,
}

/// Runs the configured protocol variant end to end, generating a fresh
/// keypair (Algorithm 1 line 8).
pub fn run_ppgnn<R: Rng + ?Sized>(
    lsp: &Lsp,
    real_locations: &[Point],
    rng: &mut R,
) -> Result<ProtocolRun, PpgnnError> {
    run_ppgnn_with_keys(lsp, real_locations, None, rng)
}

/// Everything the coordinator (Algorithm 1) produces for one query: the
/// wire-ready messages, plus the public facts the querying side needs to
/// frame the request and decode the reply.
///
/// This is the unit a *remote* client sends to a networked LSP
/// (`ppgnn-server`); [`run_ppgnn_with_keys`] drives the same plan against
/// an in-process [`Lsp`].
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The coordinator's query message (Algorithm 1 line 11).
    pub query: QueryMessage,
    /// One location set per user, real locations planted (line 15).
    pub location_sets: Vec<LocationSetMessage>,
    /// Whether the answer comes back doubly encrypted (PPGNN-OPT).
    pub two_phase: bool,
    /// `δ′`: candidate queries the LSP will evaluate.
    pub delta_prime: usize,
}

impl QueryPlan {
    /// The public decode context a receiver needs for this query.
    pub fn wire_context(&self) -> WireContext {
        let omega = match &self.query.indicator {
            IndicatorPayload::Plain(_) => None,
            IndicatorPayload::TwoPhase { outer, .. } => Some(outer.len()),
        };
        WireContext {
            key_bits: self.query.pk.key_bits(),
            two_phase_omega: omega,
            has_partition: self.query.partition.is_some(),
        }
    }
}

/// Session-long client crypto: background-refilled randomizer pools for
/// the ε₁ (and, under PPGNN-OPT, ε₂) contexts, sized so that one query's
/// indicator encryptions are a pool hit and the refill thread tops the
/// pools back up *between* queries — the server/session form of the
/// paper's mobile-user offline phase.
///
/// Capacity is 2× the per-query randomizer need with the low watermark at
/// one query's worth, so back-to-back queries overlap refill with query
/// work and a dry pool degrades to fresh randomness (a `pool-miss`)
/// instead of stalling.
pub struct SessionCrypto {
    enc1: PooledEncryptor,
    enc2: Option<PooledEncryptor>,
    /// Group size the pools were sized for.
    users: usize,
}

impl std::fmt::Debug for SessionCrypto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCrypto")
            .field("users", &self.users)
            .field("pool1", self.enc1.pool())
            .field("pool2", &self.enc2.as_ref().map(|e| e.pool()))
            .finish()
    }
}

impl SessionCrypto {
    /// Builds the pools for `config` and a group of `n` users. Each
    /// pool's refill thread and fallback draw their own 256-bit seed from
    /// `rng` (see [`encryptor_rng`]).
    pub fn new(
        config: &PpgnnConfig,
        n: usize,
        pk: &PublicKey,
        mut rng: StdRng,
    ) -> Result<Self, PpgnnError> {
        let delta_prime = match config.variant {
            Variant::Plain | Variant::Opt => {
                solve_partition_cached(n, config.d, config.delta)?.delta_prime() as usize
            }
            Variant::Naive => config.delta,
        };
        let mut make = |ctx: DjContext, need: usize| {
            let need = need.max(1);
            // Watermark `need + 1`: any query's drain (`need` takes) is
            // guaranteed to cross below it from any starting depth, so
            // every query wakes the refill thread and the pool converges
            // back to capacity between queries.
            let pool = Arc::new(RandomizerPool::with_background_refill(
                ctx,
                2 * need,
                need + 1,
                encryptor_rng(&mut rng),
            ));
            PooledEncryptor::with_fallback_rng(pool, encryptor_rng(&mut rng))
        };
        let ctx1 = DjContext::new(pk, 1);
        Ok(match config.variant {
            Variant::Opt => {
                let (omega, block_size) = opt_split(delta_prime);
                let ctx2 = DjContext::new(pk, 2);
                SessionCrypto {
                    enc1: make(ctx1, block_size),
                    enc2: Some(make(ctx2, omega)),
                    users: n,
                }
            }
            Variant::Plain | Variant::Naive => SessionCrypto {
                enc1: make(ctx1, delta_prime),
                enc2: None,
                users: n,
            },
        })
    }

    /// The group size these pools were sized for.
    pub fn users(&self) -> usize {
        self.users
    }

    /// Blocks until every pool is filled to capacity — for benchmarks
    /// that must separate offline warm-up from online measurement.
    pub fn wait_until_ready(&self) {
        self.enc1.pool().wait_until_full();
        if let Some(e2) = &self.enc2 {
            e2.pool().wait_until_full();
        }
    }
}

/// Algorithm 1, the coordinator/user side only: partition the location
/// sets, plant the real locations, and build the encrypted indicator(s).
///
/// CPU time is charged to [`Party::Coordinator`] / [`Party::User`] on
/// `ledger` and the intra-group position broadcast plus the outbound
/// query/location-set messages are recorded, exactly as in the
/// single-process driver — so a remote client's ledger matches the
/// simulation byte for byte.
pub fn plan_query<R: Rng + ?Sized>(
    config: &PpgnnConfig,
    space: Rect,
    real_locations: &[Point],
    keys: &Keypair,
    ledger: &mut CostLedger,
    rng: &mut R,
) -> Result<QueryPlan, PpgnnError> {
    plan_query_with(config, space, real_locations, keys, ledger, rng, None)
}

/// [`plan_query`], optionally drawing indicator randomizers from
/// session-long background-refilled pools ([`SessionCrypto`]) instead of
/// per-query offline pools.
pub fn plan_query_with<R: Rng + ?Sized>(
    config: &PpgnnConfig,
    space: Rect,
    real_locations: &[Point],
    keys: &Keypair,
    ledger: &mut CostLedger,
    rng: &mut R,
    session: Option<&SessionCrypto>,
) -> Result<QueryPlan, PpgnnError> {
    let n = real_locations.len();
    config.validate(n)?;
    let plan = telemetry::enter(telemetry::Layer::ClientPlan);
    plan.attr(telemetry::trace::AttrKey::Users, n as u64);

    // ---- Coordinator: partition parameters, positions, query index ----
    let coordinator_plan = ledger.time(Party::Coordinator, || -> Result<_, PpgnnError> {
        match config.variant {
            Variant::Plain | Variant::Opt => {
                // §4.1: partition parameters for frequent (n, d, δ) are
                // precomputed once; the memo realizes that assumption.
                let params = solve_partition_cached(n, config.d, config.delta)?;
                // Eqn 11: pick the segment with probability d̄_i / d.
                let seg = weighted_segment(&params, config.d, rng);
                let seg_size = params.segment_sizes[seg];
                let x: Vec<usize> = (0..params.alpha())
                    .map(|_| rng.gen_range(0..seg_size))
                    .collect();
                let qi = query_index(&params, seg, &x);
                let offset = params.segment_offset(seg);
                let positions: Vec<usize> =
                    (0..n).map(|u| offset + x[params.subgroup_of(u)]).collect();
                Ok((Some(params), positions, qi, config.d))
            }
            Variant::Naive => {
                // Every user sends δ locations; reals share one position.
                let pos = rng.gen_range(0..config.delta);
                Ok((None, vec![pos; n], pos, config.delta))
            }
        }
    })?;
    let (partition, positions, qi, set_len) = coordinator_plan;
    let delta_prime = partition
        .as_ref()
        .map(|p| p.delta_prime() as usize)
        .unwrap_or(config.delta);

    // Broadcast pos_j to the other users (Algorithm 1 line 7).
    for u in 1..n {
        ledger.record_msg_labeled(
            Party::Coordinator,
            Party::User(u as u32),
            SCALAR_BYTES,
            "pos broadcast",
        );
    }

    // ---- Coordinator: encrypted indicator(s) under the session key ----
    let pk = keys.0.clone();
    let ctx1 = DjContext::new(&pk, 1);
    let needs_eps2 = matches!(config.variant, Variant::Opt);
    let per_query_need = if needs_eps2 {
        let (omega, block_size) = opt_split(delta_prime);
        (omega + block_size) as u64
    } else {
        delta_prime as u64
    };

    // Offline phase (not charged to the per-query user cost): session
    // pools when supplied, per-query prefilled pools under
    // `offline_randomness`, fresh randomness otherwise.
    type QueryEncryptors = (Box<dyn Encryptor>, Option<Box<dyn Encryptor>>);
    let owned_crypto: Option<QueryEncryptors> = match (session, config.offline_randomness) {
        (Some(_), true) => {
            ledger.count("offline_randomizers", per_query_need);
            None
        }
        (_, true) => {
            ledger.count("offline_randomizers", per_query_need);
            let pooled = |ctx: &DjContext, need: usize, rng: &mut R| -> Box<dyn Encryptor> {
                let pool = Arc::new(RandomizerPool::prefilled(ctx, need, rng));
                Box::new(PooledEncryptor::with_fallback_rng(pool, encryptor_rng(rng)))
            };
            if needs_eps2 {
                let (omega, block_size) = opt_split(delta_prime);
                let ctx2 = DjContext::new(&pk, 2);
                Some((
                    pooled(&ctx1, block_size, rng),
                    Some(pooled(&ctx2, omega, rng)),
                ))
            } else {
                Some((pooled(&ctx1, delta_prime, rng), None))
            }
        }
        (_, false) => {
            let fresh = |ctx: DjContext, rng: &mut R| -> Box<dyn Encryptor> {
                Box::new(FreshEncryptor::with_rng(ctx, encryptor_rng(rng)))
            };
            let e2 = needs_eps2.then(|| fresh(DjContext::new(&pk, 2), rng));
            Some((fresh(ctx1.clone(), rng), e2))
        }
    };
    let (enc1, enc2): (&dyn Encryptor, Option<&dyn Encryptor>) = match (&owned_crypto, session) {
        (Some((e1, e2)), _) => (e1.as_ref(), e2.as_deref()),
        (None, Some(sc)) => (&sc.enc1, sc.enc2.as_ref().map(|e| e as &dyn Encryptor)),
        (None, None) => unreachable!("owned_crypto is built whenever no session is supplied"),
    };
    let indicator = ledger.time(Party::Coordinator, || match config.variant {
        Variant::Plain | Variant::Naive => IndicatorPayload::Plain(
            enc1.encrypt_indicator(delta_prime, qi)
                .expect("indicator plaintexts are 0/1"),
        ),
        Variant::Opt => {
            let (omega, block_size) = opt_split(delta_prime);
            let e2 = enc2.expect("OPT always builds an ε₂ encryptor");
            IndicatorPayload::TwoPhase {
                inner: enc1
                    .encrypt_indicator(block_size, qi % block_size)
                    .expect("indicator plaintexts are 0/1"),
                outer: e2
                    .encrypt_indicator(omega, qi / block_size)
                    .expect("indicator plaintexts are 0/1"),
            }
        }
    });

    let query = QueryMessage {
        k: config.k,
        pk: pk.clone(),
        partition,
        indicator,
        theta0: config.theta0,
    };
    ledger.record_msg_labeled(Party::Coordinator, Party::Lsp, query.byte_len(), "query");

    // ---- Every user: location set with the real location planted ----
    let mut location_sets = Vec::with_capacity(n);
    for (u, (&real, &pos)) in real_locations.iter().zip(&positions).enumerate() {
        let party = Party::User(u as u32);
        let msg = ledger.time(party, || {
            let mut locations: Vec<Point> = (0..set_len - 1)
                .map(|_| crate::attack::sample_point(&space, rng))
                .collect();
            locations.insert(pos, real);
            LocationSetMessage {
                user_index: u,
                locations,
            }
        });
        ledger.record_msg_labeled(party, Party::Lsp, msg.byte_len(), "location set");
        location_sets.push(msg);
    }

    Ok(QueryPlan {
        two_phase: matches!(query.indicator, IndicatorPayload::TwoPhase { .. }),
        query,
        location_sets,
        delta_prime,
    })
}

/// Decrypts and unpacks the LSP's reply (CRT-accelerated), charging the
/// CPU time to [`Party::Coordinator`].
pub fn decode_answer(
    keys: &Keypair,
    k: usize,
    answer_msg: &AnswerMessage,
    ledger: &mut CostLedger,
) -> Result<Vec<Point>, PpgnnError> {
    let (pk, sk) = (&keys.0, &keys.1);
    let ctx1 = DjContext::new(pk, 1);
    let codec = AnswerCodec::new(pk.key_bits(), 1, k);
    ledger.time(Party::Coordinator, || match answer_msg {
        AnswerMessage::Plain(enc) => {
            let dec1 = Decryptor::new(&ctx1, sk);
            codec.decode(&dec1.decrypt_vector(&ctx1, enc))
        }
        AnswerMessage::TwoPhase(enc) => {
            let ctx2 = DjContext::new(pk, 2);
            let dec1 = Decryptor::new(&ctx1, sk);
            let dec2 = Decryptor::new(&ctx2, sk);
            // Both decryption levels of the answer are one batch.
            let batch = telemetry::enter(telemetry::Layer::PaillierDecrypt);
            batch.attr(telemetry::trace::AttrKey::Ciphertexts, enc.len() as u64);
            let inner_values: Vec<_> = enc
                .elements()
                .iter()
                .map(|c| {
                    let inner = dec2.decrypt(&ctx2, c);
                    dec1.decrypt(&ctx1, &Ciphertext::from_parts(inner, 1))
                })
                .collect();
            drop(batch);
            codec.decode(&inner_values)
        }
    })
}

/// Runs the protocol, optionally reusing a pre-generated keypair.
///
/// Key generation is part of Algorithm 1 and is timed as coordinator
/// work when performed here; benchmarks that sweep hundreds of queries
/// pass a shared keypair instead (and say so — see EXPERIMENTS.md).
pub fn run_ppgnn_with_keys<R: Rng + ?Sized>(
    lsp: &Lsp,
    real_locations: &[Point],
    keys: Option<&Keypair>,
    rng: &mut R,
) -> Result<ProtocolRun, PpgnnError> {
    let config = lsp.config().clone();
    let n = real_locations.len();
    config.validate(n)?;
    let mut ledger = CostLedger::new();

    // ---- Coordinator: session keys (Algorithm 1 line 8) ----
    let owned_keys;
    let keys = match keys {
        Some(k) => k,
        None => {
            owned_keys = ledger.time(Party::Coordinator, || generate_keypair(config.keysize, rng));
            &owned_keys
        }
    };
    let pk = keys.0.clone();

    // ---- Coordinator + users: Algorithm 1 ----
    let plan = plan_query(&config, lsp.space(), real_locations, keys, &mut ledger, rng)?;
    let delta_prime = plan.delta_prime;

    // ---- LSP: Algorithm 2 ----
    let answer_msg = lsp.process_query(&plan.query, &plan.location_sets, &mut ledger, rng)?;
    ledger.record_msg_labeled(
        Party::Lsp,
        Party::Coordinator,
        answer_msg.byte_len(&pk),
        "answer",
    );

    // ---- Coordinator: decryption ----
    let answer = decode_answer(keys, config.k, &answer_msg, &mut ledger)?;

    // Broadcast the answer to the other users.
    let answer_bytes = SCALAR_BYTES + 8 * answer.len();
    for u in 1..n {
        ledger.record_msg_labeled(
            Party::Coordinator,
            Party::User(u as u32),
            answer_bytes,
            "answer broadcast",
        );
    }

    let pois_returned = answer.len();
    ledger.count("pois_returned", pois_returned as u64);
    Ok(ProtocolRun {
        answer,
        pois_returned,
        delta_prime,
        report: ledger.report(),
        transcript: ledger.transcript().clone(),
    })
}

/// Eqn 11: sample a segment with probability `d̄_i / d`.
fn weighted_segment<R: Rng + ?Sized>(params: &PartitionParams, d: usize, rng: &mut R) -> usize {
    let mut pick = rng.gen_range(0..d);
    for (i, &size) in params.segment_sizes.iter().enumerate() {
        if pick < size {
            return i;
        }
        pick -= size;
    }
    unreachable!("segment sizes sum to d")
}

/// §6: the communication-optimal split. `ω` is the nearest integer to
/// `√(δ′/2)`; the inner vector covers `⌈δ′/ω⌉` columns per block.
pub fn opt_split(delta_prime: usize) -> (usize, usize) {
    let omega = ((delta_prime as f64 / 2.0).sqrt().round() as usize).max(1);
    let block_size = delta_prime.div_ceil(omega);
    (omega, block_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PpgnnConfig;
    use ppgnn_geo::Poi;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn grid_db(side: u32) -> Vec<Poi> {
        (0..side * side)
            .map(|i| {
                Poi::new(
                    i,
                    Point::new(
                        (i % side) as f64 / side as f64,
                        (i / side) as f64 / side as f64,
                    ),
                )
            })
            .collect()
    }

    fn base_config(variant: Variant) -> PpgnnConfig {
        PpgnnConfig {
            k: 3,
            d: 4,
            delta: 8,
            keysize: 128,
            sanitize: false,
            variant,
            ..PpgnnConfig::fast_test()
        }
    }

    fn check_answer_correct(run: &ProtocolRun, lsp: &Lsp, users: &[Point]) {
        let expected = lsp.plaintext_answer(users, lsp.config().k);
        assert_eq!(run.answer.len(), expected.len());
        for (got, want) in run.answer.iter().zip(&expected) {
            assert!(got.dist(&want.location) < 1e-6, "answer mismatch");
        }
    }

    #[test]
    fn plain_variant_exact_answer() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let lsp = Lsp::new(grid_db(10), base_config(Variant::Plain));
        let users = vec![
            Point::new(0.2, 0.3),
            Point::new(0.4, 0.1),
            Point::new(0.3, 0.5),
        ];
        let run = run_ppgnn(&lsp, &users, &mut rng).unwrap();
        check_answer_correct(&run, &lsp, &users);
        assert!(run.delta_prime >= 8);
        assert!(run.report.comm_bytes_total > 0);
        assert!(run.report.user_cpu_secs > 0.0);
        assert!(run.report.lsp_cpu_secs > 0.0);
    }

    #[test]
    fn opt_variant_exact_answer() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let lsp = Lsp::new(grid_db(10), base_config(Variant::Opt));
        let users = vec![Point::new(0.8, 0.8), Point::new(0.6, 0.9)];
        let run = run_ppgnn(&lsp, &users, &mut rng).unwrap();
        check_answer_correct(&run, &lsp, &users);
    }

    /// The Paillier layers sample once per batch on the two-phase path
    /// too: the indicator's two encryptions, one selection per block
    /// plus the outer one, and the answer's two-level decryption.
    #[test]
    fn two_phase_query_enters_each_paillier_layer_per_batch() {
        use telemetry::trace::{Tracer, TracerConfig};
        use telemetry::Layer;
        let tracer = Tracer::new();
        tracer.configure(&TracerConfig {
            enabled: true,
            keep_permille: 1000,
            ..TracerConfig::default()
        });
        let decrypts = telemetry::global().stage_count(Layer::PaillierDecrypt);
        let (_, handle) = tracer.start();
        let handle = handle.expect("tracing is on");
        {
            let _active = handle.activate();
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let lsp = Lsp::new(grid_db(10), base_config(Variant::Opt));
            let users = vec![Point::new(0.8, 0.8), Point::new(0.6, 0.9)];
            let run = run_ppgnn(&lsp, &users, &mut rng).unwrap();
            check_answer_correct(&run, &lsp, &users);
        }
        handle.finish();
        let segment = &tracer.segments()[0];
        let spans = |layer| segment.spans.iter().filter(|s| s.name == layer).count();
        assert_eq!(spans(Layer::PaillierEncrypt), 2);
        assert!(spans(Layer::PaillierDot) >= 2);
        assert_eq!(spans(Layer::PaillierDecrypt), 1);
        assert!(telemetry::global().stage_count(Layer::PaillierDecrypt) > decrypts);
    }

    #[test]
    fn naive_variant_exact_answer() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let lsp = Lsp::new(grid_db(10), base_config(Variant::Naive));
        let users = vec![Point::new(0.1, 0.9), Point::new(0.2, 0.8)];
        let run = run_ppgnn(&lsp, &users, &mut rng).unwrap();
        check_answer_correct(&run, &lsp, &users);
        assert_eq!(run.delta_prime, 8); // Naive evaluates exactly δ columns
    }

    #[test]
    fn single_user_reduces_to_section_3() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut cfg = base_config(Variant::Plain);
        cfg.delta = cfg.d; // δ = d when n = 1
        let lsp = Lsp::new(grid_db(10), cfg);
        let users = vec![Point::new(0.55, 0.55)];
        let run = run_ppgnn(&lsp, &users, &mut rng).unwrap();
        check_answer_correct(&run, &lsp, &users);
        assert_eq!(run.delta_prime, 4);
    }

    #[test]
    fn shared_keys_accepted() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let keys = generate_keypair(128, &mut rng);
        let lsp = Lsp::new(grid_db(10), base_config(Variant::Plain));
        let users = vec![Point::new(0.3, 0.3), Point::new(0.5, 0.5)];
        let run = run_ppgnn_with_keys(&lsp, &users, Some(&keys), &mut rng).unwrap();
        check_answer_correct(&run, &lsp, &users);
    }

    #[test]
    fn many_random_runs_always_correct() {
        // The planted position, segment choice and query index are random;
        // hammer the protocol to cover many (seg, x) combinations.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let keys = generate_keypair(128, &mut rng);
        let lsp = Lsp::new(grid_db(8), base_config(Variant::Plain));
        for i in 0..10 {
            let users: Vec<Point> = (0..4)
                .map(|j| Point::new(((i * 4 + j) % 7) as f64 / 7.0, ((i + j) % 5) as f64 / 5.0))
                .collect();
            let run = run_ppgnn_with_keys(&lsp, &users, Some(&keys), &mut rng).unwrap();
            check_answer_correct(&run, &lsp, &users);
        }
    }

    #[test]
    fn offline_randomness_still_exact_and_cheaper_online() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let keys = generate_keypair(256, &mut rng);
        let users = vec![Point::new(0.2, 0.3), Point::new(0.7, 0.1)];
        let pois = grid_db(10);
        let mut online = Vec::new();
        for offline_randomness in [false, true] {
            let cfg = PpgnnConfig {
                keysize: 256,
                offline_randomness,
                d: 5,
                delta: 25,
                ..base_config(Variant::Plain)
            };
            let lsp = Lsp::new(pois.clone(), cfg);
            let run = run_ppgnn_with_keys(&lsp, &users, Some(&keys), &mut rng).unwrap();
            check_answer_correct(&run, &lsp, &users);
            if offline_randomness {
                assert_eq!(run.report.counters["offline_randomizers"], 25);
            }
            online.push(run.report.user_cpu_secs);
        }
        assert!(
            online[1] < online[0],
            "pooled online cost {} must undercut full encryption {}",
            online[1],
            online[0]
        );
    }

    #[test]
    fn offline_randomness_with_opt_variant() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let keys = generate_keypair(128, &mut rng);
        let users = vec![Point::new(0.4, 0.4), Point::new(0.5, 0.6)];
        let cfg = PpgnnConfig {
            offline_randomness: true,
            ..base_config(Variant::Opt)
        };
        let lsp = Lsp::new(grid_db(10), cfg);
        let run = run_ppgnn_with_keys(&lsp, &users, Some(&keys), &mut rng).unwrap();
        check_answer_correct(&run, &lsp, &users);
        assert!(run.report.counters["offline_randomizers"] > 0);
    }

    #[test]
    fn fresh_indicator_encryptors_draw_a_256_bit_seed() {
        // Same stream, same plan, except that the session path draws no
        // indicator randomness: the fresh path must end exactly one
        // 32-byte seed per encryptor further along the stream.
        let keys = generate_keypair(128, &mut ChaCha8Rng::seed_from_u64(21));
        let users = vec![Point::new(0.2, 0.3), Point::new(0.7, 0.1)];
        for (variant, encryptors) in [(Variant::Plain, 1), (Variant::Opt, 2)] {
            let fresh = base_config(variant);
            let pooled = PpgnnConfig {
                offline_randomness: true,
                ..fresh.clone()
            };
            let session =
                SessionCrypto::new(&pooled, users.len(), &keys.0, StdRng::seed_from_u64(5))
                    .unwrap();
            let mut with_session = ChaCha8Rng::seed_from_u64(22);
            let mut with_fresh = ChaCha8Rng::seed_from_u64(22);
            for (cfg, rng, session) in [
                (&pooled, &mut with_session, Some(&session)),
                (&fresh, &mut with_fresh, None),
            ] {
                let mut ledger = CostLedger::new();
                plan_query_with(cfg, Rect::UNIT, &users, &keys, &mut ledger, rng, session).unwrap();
            }
            for _ in 0..encryptors {
                with_session.fill_bytes(&mut [0u8; 32]);
            }
            assert_eq!(
                with_session.gen::<u64>(),
                with_fresh.gen::<u64>(),
                "{variant:?}: one 256-bit seed per fresh encryptor"
            );
        }
    }

    #[test]
    fn opt_split_is_near_sqrt() {
        for dp in [1usize, 2, 8, 50, 100, 200] {
            let (omega, block) = opt_split(dp);
            assert!(omega * block >= dp, "grid must cover δ′ = {dp}");
            assert!(omega >= 1 && block >= 1);
        }
        assert_eq!(opt_split(8).0, 2); // √(8/2) = 2 exactly (Figure 4)
        assert_eq!(opt_split(8).1, 4);
    }

    #[test]
    fn invalid_config_rejected_before_any_crypto() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut cfg = base_config(Variant::Plain);
        cfg.delta = 100; // > d^n for n=2, d=4 ⇒ 16
        let lsp = Lsp::new(grid_db(5), cfg);
        let users = vec![Point::ORIGIN, Point::new(0.5, 0.5)];
        assert!(matches!(
            run_ppgnn(&lsp, &users, &mut rng),
            Err(PpgnnError::DeltaUnreachable { .. })
        ));
    }

    #[test]
    fn sanitation_reduces_or_keeps_answer_length() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut cfg = base_config(Variant::Plain);
        cfg.sanitize = true;
        cfg.theta0 = 0.3; // aggressive: expect truncation
        cfg.k = 6;
        let lsp = Lsp::new(grid_db(10), cfg);
        let users = vec![Point::new(0.3, 0.4), Point::new(0.6, 0.5)];
        let run = run_ppgnn(&lsp, &users, &mut rng).unwrap();
        assert!(run.pois_returned <= 6);
        assert!(run.pois_returned >= 1);
        // The returned prefix must equal the head of the plaintext answer.
        let expected = lsp.plaintext_answer(&users, 6);
        for (got, want) in run.answer.iter().zip(&expected) {
            assert!(got.dist(&want.location) < 1e-6);
        }
    }
}
