//! Vector and matrix homomorphisms: element-wise encryption, the dot
//! product `⊙` (Eqn 4), and the private-selection matrix product `A ⨂ [v]`
//! of Theorem 3.1 — the core LSP-side primitive of the whole paper.
//!
//! The hot path here is multi-exponentiation: every selected row is
//! `Π_i c_i^{a_i} mod N^{s+1}`. Two structural facts make it fast:
//! the bases (the indicator ciphertexts) are shared across **every** row
//! of the matrix, so their window tables are built once and hoisted
//! ([`ppgnn_bigint::MontWindowTable`]); and within one row the squaring
//! chain is shared across all bases (Straus–Shamir,
//! [`ppgnn_bigint::multi_modpow`]). Rows are independent, so
//! [`matrix_select_with`] can additionally fan them out across worker
//! threads. All of this is exact integer arithmetic: the optimized paths
//! return **bit-identical** ciphertexts to the naive path.

use ppgnn_bigint::{multi_modpow, BigUint, MontWindowTable};
use ppgnn_telemetry as telemetry;

use crate::context::{Ciphertext, DjContext};
use crate::error::PaillierError;
use crate::keys::SecretKey;

/// An element-wise encrypted vector `[v] = ([v₁], …, [v_m])`.
#[derive(Debug, Clone)]
pub struct EncryptedVector {
    elements: Vec<Ciphertext>,
}

/// How [`matrix_select_with`] and [`EncryptedVector::dot`] evaluate the
/// multi-exponentiation inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectStrategy {
    /// One full-width `modpow` per nonzero matrix entry (the reference
    /// path; kept for property tests and A/B benchmarks).
    Naive,
    /// Straus–Shamir interleaving with hoisted per-base window tables.
    Straus,
}

/// Tuning knobs for the private-selection product.
#[derive(Debug, Clone, Copy)]
pub struct SelectOptions {
    /// Worker threads for row evaluation (1 = sequential).
    pub parallelism: usize,
    /// Inner-loop evaluation strategy.
    pub strategy: SelectStrategy,
}

impl Default for SelectOptions {
    fn default() -> Self {
        SelectOptions {
            parallelism: 1,
            strategy: SelectStrategy::Straus,
        }
    }
}

impl SelectOptions {
    /// The reference configuration: sequential, naive modpow per entry.
    pub fn naive() -> Self {
        SelectOptions {
            parallelism: 1,
            strategy: SelectStrategy::Naive,
        }
    }
}

impl EncryptedVector {
    /// Wraps pre-built ciphertexts.
    pub fn from_ciphertexts(elements: Vec<Ciphertext>) -> Self {
        EncryptedVector { elements }
    }

    /// The component ciphertexts.
    pub fn elements(&self) -> &[Ciphertext] {
        &self.elements
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// `true` iff the vector has no components.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Homomorphic dot product with a plaintext vector (the paper's `⊙`):
    /// returns `Enc(x · v)`.
    ///
    /// Evaluated as one Straus–Shamir multi-exponentiation — bit-identical
    /// to [`EncryptedVector::dot_naive`], with the squaring chain paid
    /// once instead of once per nonzero component.
    pub fn dot(&self, x: &[BigUint], ctx: &DjContext) -> Result<Ciphertext, PaillierError> {
        if x.len() != self.elements.len() {
            return Err(PaillierError::LengthMismatch {
                left: x.len(),
                right: self.elements.len(),
            });
        }
        telemetry::global().incr(telemetry::Op::PaillierDot);
        // Tables only for components with nonzero coefficients: 0 ⊗ [v]
        // contributes Enc(0) and is skipped entirely.
        let nonzero: Vec<(&Ciphertext, &BigUint)> = self
            .elements
            .iter()
            .zip(x.iter())
            .filter(|(_, xi)| !xi.is_zero())
            .collect();
        record_dot_ops(nonzero.len());
        if nonzero.is_empty() {
            return Ok(ctx.one_ciphertext());
        }
        let tables: Vec<MontWindowTable> = nonzero
            .iter()
            .map(|(ci, _)| MontWindowTable::build_default(ctx.mont(), ci.value()))
            .collect();
        let table_refs: Vec<&MontWindowTable> = tables.iter().collect();
        let exps: Vec<&BigUint> = nonzero.iter().map(|(_, xi)| *xi).collect();
        let value = multi_modpow(ctx.mont(), &table_refs, &exps);
        Ok(Ciphertext::from_parts(value, ctx.level()))
    }

    /// The reference dot product: one `scalar_mul` + `add` per nonzero
    /// component. Kept as the oracle the optimized path is proven
    /// bit-identical against.
    pub fn dot_naive(&self, x: &[BigUint], ctx: &DjContext) -> Result<Ciphertext, PaillierError> {
        if x.len() != self.elements.len() {
            return Err(PaillierError::LengthMismatch {
                left: x.len(),
                right: self.elements.len(),
            });
        }
        telemetry::global().incr(telemetry::Op::PaillierDot);
        let nonzero = x.iter().filter(|xi| !xi.is_zero()).count();
        telemetry::global().incr_by(telemetry::Op::PaillierDotElements, nonzero as u64);
        let mut acc = ctx.one_ciphertext();
        for (xi, ci) in x.iter().zip(&self.elements) {
            if xi.is_zero() {
                continue;
            }
            acc = ctx.add(&acc, &ctx.scalar_mul(xi, ci));
        }
        Ok(acc)
    }

    /// Total serialized size in bytes.
    pub fn byte_len(&self, ctx: &DjContext) -> usize {
        self.elements.len() * ctx.public_key().ciphertext_bytes(ctx.level())
    }
}

/// Op accounting for one multi-exponentiated dot: keeps the homomorphic
/// op counters comparable with the naive path (one scalar-mul and one
/// accumulator add per nonzero entry).
fn record_dot_ops(nonzero: usize) {
    if nonzero > 0 {
        telemetry::global().incr_by(telemetry::Op::PaillierScalarMul, nonzero as u64);
        telemetry::global().incr_by(telemetry::Op::PaillierAdd, nonzero as u64);
        telemetry::global().incr_by(telemetry::Op::PaillierDotElements, nonzero as u64);
    }
}

/// Theorem 3.1: homomorphic matrix product `A ⨂ [v]`, tunable.
///
/// `columns[j]` is the answer vector `a_j` (length `m`, entries `< N^s`);
/// `[v]` is the encrypted indicator with `columns.len()` components.
/// Returns the encrypted selected column `[a_i]` (length `m`).
///
/// Columns may have differing lengths; shorter columns are implicitly
/// zero-padded to the longest (`m`), mirroring the paper's padding of
/// answers to a common `m`.
///
/// With [`SelectStrategy::Straus`], per-base window tables are built once
/// and hoisted across all `m` rows, and rows are evaluated on up to
/// `opts.parallelism` worker threads. Results are bit-identical to the
/// naive strategy in either case.
pub fn matrix_select_with(
    columns: &[Vec<BigUint>],
    v: &EncryptedVector,
    ctx: &DjContext,
    opts: &SelectOptions,
) -> Result<EncryptedVector, PaillierError> {
    if columns.len() != v.len() {
        return Err(PaillierError::LengthMismatch {
            left: columns.len(),
            right: v.len(),
        });
    }
    let m = columns.iter().map(|c| c.len()).max().unwrap_or(0);
    // One `paillier-dot` extent for the whole A ⨂ [v] batch: a guard
    // per dot would swamp the per-segment span cap, and the per-dot cost
    // stays exact in the op counters.
    let batch = telemetry::enter(telemetry::Layer::PaillierDot);
    batch.attr(telemetry::trace::AttrKey::Ciphertexts, (m * v.len()) as u64);
    let zero = BigUint::zero();

    if matches!(opts.strategy, SelectStrategy::Naive) {
        let mut rows = Vec::with_capacity(m);
        for row in 0..m {
            let x: Vec<BigUint> = columns
                .iter()
                .map(|col| col.get(row).unwrap_or(&zero).clone())
                .collect();
            rows.push(v.dot_naive(&x, ctx)?);
        }
        return Ok(EncryptedVector { elements: rows });
    }

    // Straus: the bases are the same for every row — build each base's
    // window table once and share it across the whole δ′×m matrix.
    let tables: Vec<MontWindowTable> = v
        .elements
        .iter()
        .map(|c| MontWindowTable::build_default(ctx.mont(), c.value()))
        .collect();

    let eval_row = |row: usize| -> Ciphertext {
        telemetry::global().incr(telemetry::Op::PaillierDot);
        let mut table_refs = Vec::with_capacity(columns.len());
        let mut exps = Vec::with_capacity(columns.len());
        for (table, col) in tables.iter().zip(columns) {
            let xi = col.get(row).unwrap_or(&zero);
            if xi.is_zero() {
                continue;
            }
            table_refs.push(table);
            exps.push(xi);
        }
        record_dot_ops(exps.len());
        let value = multi_modpow(ctx.mont(), &table_refs, &exps);
        Ciphertext::from_parts(value, ctx.level())
    };

    let threads = opts.parallelism.max(1).min(m.max(1));
    let rows: Vec<Ciphertext> = if threads <= 1 || m < 2 {
        (0..m).map(eval_row).collect()
    } else {
        // Rows are independent; chunk them across the worker budget.
        // Telemetry rides the global registry (thread-safe); the batch
        // trace span stays on the caller thread, matching the existing
        // candidate-eval parallelism.
        let chunk = m.div_ceil(threads);
        let row_ids: Vec<usize> = (0..m).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = row_ids
                .chunks(chunk)
                .map(|ids| {
                    let eval_row = &eval_row;
                    scope.spawn(move || ids.iter().map(|&r| eval_row(r)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("selection worker panicked"))
                .collect()
        })
    };
    Ok(EncryptedVector { elements: rows })
}

/// Theorem 3.1 with default options (Straus tables, sequential rows).
pub fn matrix_select(
    columns: &[Vec<BigUint>],
    v: &EncryptedVector,
    ctx: &DjContext,
) -> Result<EncryptedVector, PaillierError> {
    matrix_select_with(columns, v, ctx, &SelectOptions::default())
}

/// Decrypts a vector element-wise: one `paillier-decrypt` batch.
pub fn decrypt_vector(v: &EncryptedVector, ctx: &DjContext, sk: &SecretKey) -> Vec<BigUint> {
    let batch = telemetry::enter(telemetry::Layer::PaillierDecrypt);
    batch.attr(telemetry::trace::AttrKey::Ciphertexts, v.len() as u64);
    v.elements.iter().map(|c| ctx.decrypt(c, sk)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encryptor::{Encryptor, FreshEncryptor};
    use crate::keys::generate_keypair;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (DjContext, SecretKey, FreshEncryptor) {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let (pk, sk) = generate_keypair(128, &mut rng);
        let ctx = DjContext::new(&pk, 1);
        let enc = FreshEncryptor::with_rng(ctx.clone(), rng);
        (ctx, sk, enc)
    }

    fn nums(vals: &[u64]) -> Vec<BigUint> {
        vals.iter().map(|&v| BigUint::from(v)).collect()
    }

    #[test]
    fn encrypt_decrypt_vector_roundtrip() {
        let (ctx, sk, enc) = setup();
        let vals = nums(&[0, 1, 99, 12345]);
        let v = enc.encrypt_vector(&vals).unwrap();
        assert_eq!(decrypt_vector(&v, &ctx, &sk), vals);
    }

    #[test]
    fn dot_product_matches_plain() {
        let (ctx, sk, enc) = setup();
        let v = nums(&[3, 0, 7]);
        let x = nums(&[2, 100, 5]);
        let ev = enc.encrypt_vector(&v).unwrap();
        let dot = ev.dot(&x, &ctx).unwrap();
        assert_eq!(ctx.decrypt(&dot, &sk), BigUint::from(3 * 2 + 7 * 5u64));
    }

    #[test]
    fn straus_dot_is_bit_identical_to_naive() {
        let (ctx, _, enc) = setup();
        let v = nums(&[3, 0, 7, 11, 255]);
        let x = nums(&[2, 100, 5, 0, 1_000_000]);
        let ev = enc.encrypt_vector(&v).unwrap();
        let fast = ev.dot(&x, &ctx).unwrap();
        let naive = ev.dot_naive(&x, &ctx).unwrap();
        assert_eq!(fast, naive, "same integers, same product, same bits");
    }

    #[test]
    fn dot_length_mismatch_rejected() {
        let (ctx, _, enc) = setup();
        let ev = enc.encrypt_vector(&nums(&[1, 2])).unwrap();
        assert!(matches!(
            ev.dot(&nums(&[1]), &ctx),
            Err(PaillierError::LengthMismatch { .. })
        ));
        assert!(matches!(
            ev.dot_naive(&nums(&[1]), &ctx),
            Err(PaillierError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn all_zero_dot_is_identity() {
        let (ctx, sk, enc) = setup();
        let ev = enc.encrypt_vector(&nums(&[5, 6])).unwrap();
        let dot = ev.dot(&nums(&[0, 0]), &ctx).unwrap();
        assert_eq!(ctx.decrypt(&dot, &sk), BigUint::zero());
    }

    #[test]
    fn indicator_selects_element() {
        let (ctx, sk, enc) = setup();
        let x = nums(&[10, 20, 30, 40]);
        for pos in 0..4 {
            let ind = enc.encrypt_indicator(4, pos).unwrap();
            let sel = ind.dot(&x, &ctx).unwrap();
            assert_eq!(ctx.decrypt(&sel, &sk), x[pos]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indicator_position_out_of_range() {
        let (_, _, enc) = setup();
        let _ = enc.encrypt_indicator(3, 3);
    }

    #[test]
    fn matrix_select_returns_chosen_column() {
        let (ctx, sk, enc) = setup();
        let columns = vec![nums(&[1, 2, 3]), nums(&[4, 5, 6]), nums(&[7, 8, 9])];
        for pick in 0..3 {
            let ind = enc.encrypt_indicator(3, pick).unwrap();
            let sel = matrix_select(&columns, &ind, &ctx).unwrap();
            assert_eq!(decrypt_vector(&sel, &ctx, &sk), columns[pick]);
        }
    }

    #[test]
    fn strategies_and_parallelism_are_bit_identical() {
        let (ctx, _, enc) = setup();
        let columns = vec![
            nums(&[1, 2, 3, 400, 5]),
            nums(&[6, 0, 8, 9, 10]),
            nums(&[11, 12, 0, 14, 15]),
            nums(&[16, 17, 18, 19, 1 << 30]),
        ];
        let ind = enc.encrypt_indicator(4, 2).unwrap();
        let naive = matrix_select_with(&columns, &ind, &ctx, &SelectOptions::naive()).unwrap();
        for parallelism in [1, 2, 4, 16] {
            let opts = SelectOptions {
                parallelism,
                strategy: SelectStrategy::Straus,
            };
            let fast = matrix_select_with(&columns, &ind, &ctx, &opts).unwrap();
            assert_eq!(fast.len(), naive.len());
            for (a, b) in fast.elements().iter().zip(naive.elements()) {
                assert_eq!(a, b, "parallel Straus must be bit-identical to naive");
            }
        }
    }

    #[test]
    fn matrix_select_pads_ragged_columns() {
        let (ctx, sk, enc) = setup();
        let columns = vec![nums(&[1, 2, 3]), nums(&[9])];
        let ind = enc.encrypt_indicator(2, 1).unwrap();
        let sel = matrix_select(&columns, &ind, &ctx).unwrap();
        assert_eq!(decrypt_vector(&sel, &ctx, &sk), nums(&[9, 0, 0]));
    }

    #[test]
    fn matrix_select_dimension_mismatch() {
        let (ctx, _, enc) = setup();
        let ind = enc.encrypt_indicator(2, 0).unwrap();
        let columns = vec![nums(&[1])];
        assert!(matrix_select(&columns, &ind, &ctx).is_err());
    }

    #[test]
    fn matrix_select_empty_matrix() {
        let (ctx, _, enc) = setup();
        let ind = enc.encrypt_indicator(2, 0).unwrap();
        let columns = vec![vec![], vec![]];
        let sel = matrix_select(&columns, &ind, &ctx).unwrap();
        assert!(sel.is_empty());
    }

    #[test]
    fn byte_len_matches_key() {
        let (ctx, _, enc) = setup();
        let v = enc.encrypt_vector(&nums(&[1, 2, 3])).unwrap();
        // 128-bit key, s=1 ⇒ 32 bytes per ciphertext.
        assert_eq!(v.byte_len(&ctx), 3 * 32);
    }
}
