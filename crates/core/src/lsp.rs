//! The LSP side: Algorithm 2 (query processing).
//!
//! LSP expands the users' location sets into the candidate query list,
//! answers every candidate with the plaintext black box, sanitizes every
//! answer for Privacy IV, encodes the answers into the matrix `A`, and
//! privately selects the real answer with the encrypted indicator(s).

use ppgnn_bigint::BigUint;
use ppgnn_geo::{Poi, Point, Rect};
use ppgnn_paillier::{
    matrix_select_with, DjContext, EncryptedVector, SelectOptions, SelectStrategy,
};
use ppgnn_sim::{CostLedger, Party};
use ppgnn_telemetry as telemetry;
use rand::{Rng, SeedableRng};

use crate::candidate::{candidate_queries, CandidateQuery};
use crate::encoding::AnswerCodec;
use crate::engine::{MbmEngine, QueryEngine};
use crate::error::PpgnnError;
use crate::messages::{AnswerMessage, IndicatorPayload, LocationSetMessage, QueryMessage};
use crate::params::PpgnnConfig;
use crate::sanitize::Sanitizer;

/// The location-based service provider.
///
/// One `Lsp` instance is shared by every worker thread of the networked
/// service (`ppgnn-server`), so it must stay `Send + Sync`: the engine
/// box inherits both bounds from the [`QueryEngine`] supertraits and the
/// remaining fields are plain data. The assertion below keeps that true
/// as fields evolve.
pub struct Lsp {
    engine: Box<dyn QueryEngine>,
    config: PpgnnConfig,
    space: Rect,
    /// Worker threads for candidate evaluation (1 = sequential). The
    /// candidates of Algorithm 2 are embarrassingly parallel: LSP is the
    /// well-provisioned party the paper is happy to load (§1's "some
    /// reasonable overhead on LSP"), and parallelism shrinks its
    /// wall-clock without touching any privacy property. The same
    /// budget fans out the private-selection rows.
    parallelism: usize,
    /// Route private selection through the naive per-entry modpow path
    /// instead of Straus multi-exponentiation (A/B benchmarking only;
    /// both paths are bit-identical).
    naive_crypto: bool,
}

const _: () = {
    const fn shareable_across_threads<T: Send + Sync>() {}
    shareable_across_threads::<Lsp>();
};

/// Expands a query's location sets into the plaintext candidate query
/// list (§4.1) — Cartesian subgroup combinations under a partition, or
/// aligned columns for Naive. This is the view LSP actually evaluates:
/// the real group position is one of these candidates, and LSP cannot
/// tell which (Privacy II). The dynamic-world subscription registry
/// reuses the same expansion to compute per-candidate safe regions.
pub fn expand_candidates(
    query: &QueryMessage,
    location_sets: &[LocationSetMessage],
) -> Result<Vec<CandidateQuery>, PpgnnError> {
    // Rebuild the ordered location sets from the user-indexed messages.
    let mut sets: Vec<(usize, &Vec<Point>)> = location_sets
        .iter()
        .map(|m| (m.user_index, &m.locations))
        .collect();
    sets.sort_by_key(|(i, _)| *i);
    let ordered: Vec<Vec<Point>> = sets.into_iter().map(|(_, l)| l.clone()).collect();

    match &query.partition {
        Some(params) => candidate_queries(&ordered, params),
        None => {
            let len = ordered.first().map(|s| s.len()).unwrap_or(0);
            for (i, s) in ordered.iter().enumerate() {
                if s.len() != len {
                    return Err(PpgnnError::BadLocationSet {
                        user: i,
                        expected: len,
                        got: s.len(),
                    });
                }
            }
            Ok((0..len)
                .map(|t| ordered.iter().map(|s| s[t]).collect())
                .collect())
        }
    }
}

impl Lsp {
    /// Creates an LSP over a POI database with the default MBM engine.
    pub fn new(pois: Vec<Poi>, config: PpgnnConfig) -> Self {
        Self::with_engine(Box::new(MbmEngine::new(pois)), config, Rect::UNIT)
    }

    /// Creates an LSP with a custom query black box and data space.
    pub fn with_engine(engine: Box<dyn QueryEngine>, config: PpgnnConfig, space: Rect) -> Self {
        Lsp {
            engine,
            config,
            space,
            parallelism: 1,
            naive_crypto: false,
        }
    }

    /// Sets the number of worker threads for candidate evaluation and
    /// private-selection rows.
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }

    /// Forces the naive (per-entry modpow) selection path — for A/B
    /// benchmarks against the Straus multi-exponentiation default.
    pub fn with_naive_crypto(mut self, naive: bool) -> Self {
        self.naive_crypto = naive;
        self
    }

    /// The selection tuning derived from this LSP's knobs.
    fn select_options(&self) -> SelectOptions {
        SelectOptions {
            parallelism: self.parallelism,
            strategy: if self.naive_crypto {
                SelectStrategy::Naive
            } else {
                SelectStrategy::Straus
            },
        }
    }

    /// The public protocol configuration (shared with users).
    pub fn config(&self) -> &PpgnnConfig {
        &self.config
    }

    /// The normalized data space.
    pub fn space(&self) -> Rect {
        self.space
    }

    /// Number of POIs in the database.
    pub fn database_size(&self) -> usize {
        self.engine.database_size()
    }

    /// Answers one plaintext group query directly (no privacy) — the
    /// black box itself, exposed for oracles and baselines.
    pub fn plaintext_answer(&self, query: &[Point], k: usize) -> Vec<Poi> {
        self.engine.answer(query, k, self.config.aggregate)
    }

    /// Algorithm 2: full query processing.
    ///
    /// All CPU time is attributed to [`Party::Lsp`] on the ledger;
    /// counters `kgnn_queries`, `candidate_queries` and
    /// `sanitation_removed` are updated.
    pub fn process_query<R: Rng + ?Sized>(
        &self,
        query: &QueryMessage,
        location_sets: &[LocationSetMessage],
        ledger: &mut CostLedger,
        rng: &mut R,
    ) -> Result<AnswerMessage, PpgnnError> {
        let start = std::time::Instant::now();
        let result = self.process_inner(query, location_sets, ledger, rng);
        ledger.record_cpu(Party::Lsp, start.elapsed());
        result
    }

    fn process_inner<R: Rng + ?Sized>(
        &self,
        query: &QueryMessage,
        location_sets: &[LocationSetMessage],
        ledger: &mut CostLedger,
        rng: &mut R,
    ) -> Result<AnswerMessage, PpgnnError> {
        let candidates = expand_candidates(query, location_sets)?;
        let n = location_sets.len();
        ledger.count("candidate_queries", candidates.len() as u64);

        // Answer + sanitize + encode every candidate (Algorithm 2 lines 2–6),
        // sequentially or fanned out over worker threads.
        let sanitizer = Sanitizer::new(query.theta0, &self.config.hypothesis, self.space);
        let codec = AnswerCodec::new(query.pk.key_bits(), 1, query.k);
        let sanitize = self.config.sanitize && n > 1;
        let eval = telemetry::enter(telemetry::Layer::CandidateEval);
        eval.attr(
            telemetry::trace::AttrKey::Candidates,
            candidates.len() as u64,
        );
        eval.attr(telemetry::trace::AttrKey::Users, n as u64);
        telemetry::global().incr_by(telemetry::Op::CandidatesEvaluated, candidates.len() as u64);
        let mut columns: Vec<Vec<BigUint>>;
        if self.parallelism <= 1 || candidates.len() < 2 {
            columns = Vec::with_capacity(candidates.len());
            for cand in &candidates {
                let full = self.engine.answer(cand, query.k, self.config.aggregate);
                ledger.count("kgnn_queries", 1);
                let kept = if sanitize {
                    let t = sanitizer.safe_prefix_len(&full, cand, self.config.aggregate, rng);
                    ledger.count("sanitation_removed", (full.len() - t) as u64);
                    t
                } else {
                    full.len()
                };
                columns.push(codec.encode(&full[..kept]));
            }
        } else {
            // Each worker gets an independent seed from the main RNG so
            // the run stays deterministic for a fixed candidate order.
            let chunk = candidates.len().div_ceil(self.parallelism);
            let seeds: Vec<u64> = (0..self.parallelism).map(|_| rng.gen()).collect();
            let mut removed_total = 0u64;
            let results: Vec<Vec<Vec<BigUint>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = candidates
                    .chunks(chunk)
                    .zip(&seeds)
                    .map(|(chunk_cands, &seed)| {
                        let sanitizer = &sanitizer;
                        let codec = &codec;
                        let engine = &self.engine;
                        let agg = self.config.aggregate;
                        let k = query.k;
                        scope.spawn(move || {
                            let mut local_rng = rand::rngs::StdRng::seed_from_u64(seed);
                            let mut cols = Vec::with_capacity(chunk_cands.len());
                            let mut removed = 0u64;
                            for cand in chunk_cands {
                                let full = engine.answer(cand, k, agg);
                                let kept = if sanitize {
                                    let t =
                                        sanitizer.safe_prefix_len(&full, cand, agg, &mut local_rng);
                                    removed += (full.len() - t) as u64;
                                    t
                                } else {
                                    full.len()
                                };
                                cols.push(codec.encode(&full[..kept]));
                            }
                            (cols, removed)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        let (cols, removed) = h.join().expect("LSP worker panicked");
                        removed_total += removed;
                        cols
                    })
                    .collect()
            });
            columns = results.into_iter().flatten().collect();
            ledger.count("kgnn_queries", candidates.len() as u64);
            ledger.count("sanitation_removed", removed_total);
        }

        drop(eval);

        // Private selection (Theorem 3.1 / §6 two-phase).
        let select = telemetry::enter(telemetry::Layer::PrivateSelection);
        select.attr(telemetry::trace::AttrKey::SetLen, columns.len() as u64);
        let ctx1 = DjContext::new(&query.pk, 1);
        let opts = self.select_options();
        match &query.indicator {
            IndicatorPayload::Plain(v) => {
                if v.len() != columns.len() {
                    return Err(PpgnnError::BadIndicator {
                        expected: columns.len(),
                        got: v.len(),
                    });
                }
                let selected = matrix_select_with(&columns, v, &ctx1, &opts)
                    .map_err(|e| PpgnnError::BadAnswerEncoding(e.to_string()))?;
                Ok(AnswerMessage::Plain(selected))
            }
            IndicatorPayload::TwoPhase { inner, outer } => {
                let block_size = inner.len();
                let omega = outer.len();
                if block_size * omega < columns.len() {
                    return Err(PpgnnError::BadIndicator {
                        expected: columns.len(),
                        got: block_size * omega,
                    });
                }
                // Zero-pad to a full ω × block grid ("padding 0's at the
                // end of v if necessary", §6).
                let m = codec.column_height();
                columns.resize(block_size * omega, vec![BigUint::zero(); m]);

                // Phase 1: select within every block with [v₁] (ε₁).
                let mut block_results: Vec<EncryptedVector> = Vec::with_capacity(omega);
                for b in 0..omega {
                    let block = &columns[b * block_size..(b + 1) * block_size];
                    let sel = matrix_select_with(block, inner, &ctx1, &opts)
                        .map_err(|e| PpgnnError::BadAnswerEncoding(e.to_string()))?;
                    block_results.push(sel);
                }

                // Phase 2: select the block with [[v₂]] (ε₂), treating the
                // ε₁ ciphertexts as ε₂ plaintexts. Row r of the answer is
                // Π_b outer[b]^{block_results[b][r]} — i.e. the transposed
                // matrix select, which shares the per-block ε₂ window
                // tables across all m rows and parallelizes them.
                let ctx2 = DjContext::new(&query.pk, 2);
                let cols2: Vec<Vec<BigUint>> = block_results
                    .iter()
                    .map(|bres| bres.elements().iter().map(|c| c.as_plaintext()).collect())
                    .collect();
                let selected = matrix_select_with(&cols2, outer, &ctx2, &opts)
                    .map_err(|e| PpgnnError::BadAnswerEncoding(e.to_string()))?;
                Ok(AnswerMessage::TwoPhase(selected))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Variant;
    use ppgnn_paillier::{decrypt_vector, generate_keypair, Encryptor, FreshEncryptor};
    use rand::SeedableRng;
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

    fn config() -> PpgnnConfig {
        PpgnnConfig {
            k: 3,
            d: 4,
            delta: 8,
            keysize: 128,
            sanitize: false,
            variant: Variant::Plain,
            ..PpgnnConfig::fast_test()
        }
    }

    #[test]
    fn plaintext_answer_is_black_box() {
        let lsp = Lsp::new(grid_db(10), config());
        let ans = lsp.plaintext_answer(&[Point::new(0.0, 0.0)], 3);
        assert_eq!(ans.len(), 3);
        assert_eq!(ans[0].id, 0);
    }

    #[test]
    fn naive_processing_selects_real_column() {
        // Naive variant: no partitioning, indicator picks an aligned column.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let lsp = Lsp::new(grid_db(10), config());
        let (pk, sk) = generate_keypair(128, &mut rng);
        let ctx1 = DjContext::new(&pk, 1);
        let codec = AnswerCodec::new(128, 1, 3);

        // Two users, 4 aligned columns; the real query is column 2.
        let sets = vec![
            LocationSetMessage {
                user_index: 0,
                locations: vec![
                    Point::new(0.9, 0.9),
                    Point::new(0.8, 0.1),
                    Point::new(0.1, 0.1),
                    Point::new(0.5, 0.9),
                ],
            },
            LocationSetMessage {
                user_index: 1,
                locations: vec![
                    Point::new(0.7, 0.2),
                    Point::new(0.3, 0.8),
                    Point::new(0.2, 0.2),
                    Point::new(0.6, 0.4),
                ],
            },
        ];
        let query = QueryMessage {
            k: 3,
            pk: pk.clone(),
            partition: None,
            indicator: IndicatorPayload::Plain(
                FreshEncryptor::seeded(ctx1.clone(), 91)
                    .encrypt_indicator(4, 2)
                    .unwrap(),
            ),
            theta0: 0.05,
        };
        let mut ledger = CostLedger::new();
        let answer = lsp
            .process_query(&query, &sets, &mut ledger, &mut rng)
            .unwrap();
        let AnswerMessage::Plain(enc) = answer else {
            panic!("expected plain")
        };
        let decoded = codec.decode(&decrypt_vector(&enc, &ctx1, &sk)).unwrap();

        let expected = lsp.plaintext_answer(&[Point::new(0.1, 0.1), Point::new(0.2, 0.2)], 3);
        assert_eq!(decoded.len(), 3);
        for (got, want) in decoded.iter().zip(&expected) {
            assert!(got.dist(&want.location) < 1e-6);
        }
        assert_eq!(ledger.counter("kgnn_queries"), 4);
        assert!(ledger.lsp_cpu().as_nanos() > 0);
    }

    #[test]
    fn parallel_lsp_matches_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut cfg = config();
        cfg.sanitize = true; // exercise the threaded sanitation path too
        cfg.theta0 = 0.05;
        let sequential = Lsp::new(grid_db(10), cfg.clone());
        let parallel = Lsp::new(grid_db(10), cfg).with_parallelism(4);

        let (pk, sk) = generate_keypair(128, &mut rng);
        let ctx1 = DjContext::new(&pk, 1);
        let codec = AnswerCodec::new(128, 1, 3);
        let sets = vec![
            LocationSetMessage {
                user_index: 0,
                locations: vec![
                    Point::new(0.9, 0.9),
                    Point::new(0.8, 0.1),
                    Point::new(0.1, 0.1),
                    Point::new(0.5, 0.9),
                ],
            },
            LocationSetMessage {
                user_index: 1,
                locations: vec![
                    Point::new(0.7, 0.2),
                    Point::new(0.3, 0.8),
                    Point::new(0.2, 0.2),
                    Point::new(0.6, 0.4),
                ],
            },
        ];
        let query = QueryMessage {
            k: 3,
            pk: pk.clone(),
            partition: None,
            indicator: IndicatorPayload::Plain(
                FreshEncryptor::seeded(ctx1.clone(), 92)
                    .encrypt_indicator(4, 2)
                    .unwrap(),
            ),
            theta0: 0.05,
        };
        let decode = |lsp: &Lsp, rng: &mut ChaCha8Rng| {
            let mut ledger = CostLedger::new();
            let AnswerMessage::Plain(enc) =
                lsp.process_query(&query, &sets, &mut ledger, rng).unwrap()
            else {
                panic!("plain expected")
            };
            (
                codec.decode(&decrypt_vector(&enc, &ctx1, &sk)).unwrap(),
                ledger.counter("kgnn_queries"),
            )
        };
        let (seq_ans, seq_count) = decode(&sequential, &mut rng);
        let (par_ans, par_count) = decode(&parallel, &mut rng);
        assert_eq!(seq_count, par_count);
        // Sanitation sampling differs per thread, but both must return a
        // prefix of the same plaintext answer.
        let shorter = seq_ans.len().min(par_ans.len());
        for i in 0..shorter {
            assert!(seq_ans[i].dist(&par_ans[i]) < 1e-9);
        }
    }

    #[test]
    fn naive_crypto_selection_is_bit_identical() {
        // Straus + parallel selection vs the naive reference: same
        // indicator, same columns, identical ciphertext bytes.
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let fast = Lsp::new(grid_db(10), config()).with_parallelism(4);
        let naive = Lsp::new(grid_db(10), config()).with_naive_crypto(true);
        let (pk, _) = generate_keypair(128, &mut rng);
        let ctx1 = DjContext::new(&pk, 1);
        let sets = vec![
            LocationSetMessage {
                user_index: 0,
                locations: vec![
                    Point::new(0.9, 0.9),
                    Point::new(0.8, 0.1),
                    Point::new(0.1, 0.1),
                    Point::new(0.5, 0.9),
                ],
            },
            LocationSetMessage {
                user_index: 1,
                locations: vec![
                    Point::new(0.7, 0.2),
                    Point::new(0.3, 0.8),
                    Point::new(0.2, 0.2),
                    Point::new(0.6, 0.4),
                ],
            },
        ];
        let query = QueryMessage {
            k: 3,
            pk: pk.clone(),
            partition: None,
            indicator: IndicatorPayload::Plain(
                FreshEncryptor::seeded(ctx1.clone(), 95)
                    .encrypt_indicator(4, 1)
                    .unwrap(),
            ),
            theta0: 0.05,
        };
        let run = |lsp: &Lsp| {
            let mut ledger = CostLedger::new();
            let AnswerMessage::Plain(enc) = lsp
                .process_query(
                    &query,
                    &sets,
                    &mut ledger,
                    &mut ChaCha8Rng::seed_from_u64(1),
                )
                .unwrap()
            else {
                panic!("plain expected")
            };
            enc
        };
        let a = run(&fast);
        let b = run(&naive);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.elements().iter().zip(b.elements()) {
            assert_eq!(x, y, "selection paths must be bit-identical");
        }
    }

    #[test]
    fn one_lsp_shared_across_threads() {
        // The server worker pool holds one `Arc<Lsp>`; concurrent
        // processing from plain threads must work and agree with the
        // sequential answer.
        use std::sync::Arc;
        let lsp = Arc::new(Lsp::new(grid_db(10), config()));
        let expected = lsp.plaintext_answer(&[Point::new(0.15, 0.2)], 3);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lsp = Arc::clone(&lsp);
                std::thread::spawn(move || lsp.plaintext_answer(&[Point::new(0.15, 0.2)], 3))
            })
            .collect();
        for h in handles {
            let got = h.join().unwrap();
            assert_eq!(
                got.iter().map(|p| p.id).collect::<Vec<_>>(),
                expected.iter().map(|p| p.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn wrong_indicator_length_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let lsp = Lsp::new(grid_db(5), config());
        let (pk, _) = generate_keypair(128, &mut rng);
        let ctx1 = DjContext::new(&pk, 1);
        let sets = vec![LocationSetMessage {
            user_index: 0,
            locations: vec![Point::ORIGIN; 4],
        }];
        let query = QueryMessage {
            k: 3,
            pk,
            partition: None,
            indicator: IndicatorPayload::Plain(
                FreshEncryptor::seeded(ctx1.clone(), 93)
                    .encrypt_indicator(3, 0)
                    .unwrap(),
            ),
            theta0: 0.05,
        };
        let mut ledger = CostLedger::new();
        assert!(matches!(
            lsp.process_query(&query, &sets, &mut ledger, &mut rng),
            Err(PpgnnError::BadIndicator {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn ragged_naive_location_sets_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let lsp = Lsp::new(grid_db(5), config());
        let (pk, _) = generate_keypair(128, &mut rng);
        let ctx1 = DjContext::new(&pk, 1);
        let sets = vec![
            LocationSetMessage {
                user_index: 0,
                locations: vec![Point::ORIGIN; 4],
            },
            LocationSetMessage {
                user_index: 1,
                locations: vec![Point::ORIGIN; 3],
            },
        ];
        let query = QueryMessage {
            k: 3,
            pk,
            partition: None,
            indicator: IndicatorPayload::Plain(
                FreshEncryptor::seeded(ctx1.clone(), 94)
                    .encrypt_indicator(4, 0)
                    .unwrap(),
            ),
            theta0: 0.05,
        };
        let mut ledger = CostLedger::new();
        assert!(matches!(
            lsp.process_query(&query, &sets, &mut ledger, &mut rng),
            Err(PpgnnError::BadLocationSet { user: 1, .. })
        ));
    }
}
