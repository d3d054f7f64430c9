//! A versioned, incrementally mutable LSP (§1's dynamic-database claim
//! as a live subsystem).
//!
//! Consistency model: one *master* [`DynamicRTree`] receives mutations
//! under a writer mutex; after every batch the master is cloned, frozen
//! into a [`SnapshotEngine`], and *published* as an immutable
//! `Arc<Lsp>` tagged with a monotonically increasing version. The clone
//! shares the master's bulk-loaded tree and copies only its insert
//! buffer and tombstones, so a publish costs O(buffer + tombstones),
//! not O(database). Queries pin the published snapshot at dispatch time
//! and never observe a half-applied batch; writers never wait for
//! in-flight queries.

use std::sync::{Arc, Mutex, RwLock};

use ppgnn_geo::{DynamicRTree, Poi, PoiOp, Rect};
use ppgnn_telemetry as telemetry;

use crate::engine::SnapshotEngine;
use crate::lsp::Lsp;
use crate::params::PpgnnConfig;

/// The first published version. 0 is reserved as "no version" on the
/// wire (e.g. a subscription that predates any mutation).
const INITIAL_VERSION: u64 = 1;

/// A handle to a dynamic POI database behind versioned LSP snapshots.
pub struct DynamicLsp {
    /// The mutable source of truth. Held only while applying a batch.
    master: Mutex<DynamicRTree>,
    /// The current published snapshot and its version.
    published: RwLock<(Arc<Lsp>, u64)>,
    config: PpgnnConfig,
    space: Rect,
    parallelism: usize,
    naive_crypto: bool,
}

impl DynamicLsp {
    /// Bulk-loads the initial database and publishes version 1.
    pub fn new(pois: Vec<Poi>, config: PpgnnConfig) -> Self {
        Self::with_space(pois, config, Rect::UNIT)
    }

    /// As [`DynamicLsp::new`] with an explicit data space.
    pub fn with_space(pois: Vec<Poi>, config: PpgnnConfig, space: Rect) -> Self {
        Self::restore(pois, config, space, INITIAL_VERSION)
    }

    /// Rebuilds a database at an exact version — the recovery path.
    ///
    /// A crashed server reloads its newest checkpoint (`pois` at some
    /// version `V`), constructs the index here, then replays the WAL
    /// tail through [`DynamicLsp::apply`] so the republished version
    /// lands exactly where the pre-crash server left off. `version` is
    /// clamped to [`INITIAL_VERSION`]; 0 is reserved as "no version"
    /// on the wire.
    pub fn restore(pois: Vec<Poi>, config: PpgnnConfig, space: Rect, version: u64) -> Self {
        let version = version.max(INITIAL_VERSION);
        let master = DynamicRTree::new(pois);
        let lsp = publish(&master, &config, space, 1, false);
        DynamicLsp {
            master: Mutex::new(master),
            published: RwLock::new((lsp, version)),
            config,
            space,
            parallelism: 1,
            naive_crypto: false,
        }
    }

    /// Sets candidate-evaluation parallelism for snapshots published
    /// from now on (including the current one, which is republished).
    pub fn with_parallelism(self, threads: usize) -> Self {
        let this = DynamicLsp {
            parallelism: threads.max(1),
            ..self
        };
        this.republish()
    }

    /// Forces the naive (per-entry modpow) selection path on snapshots
    /// published from now on — for A/B benchmarks against the Straus
    /// multi-exponentiation default. Both paths are bit-identical.
    pub fn with_naive_crypto(self, naive: bool) -> Self {
        let this = DynamicLsp {
            naive_crypto: naive,
            ..self
        };
        this.republish()
    }

    /// Republishes the current snapshot with the current tuning.
    fn republish(mut self) -> Self {
        let master = self.master.get_mut().unwrap_or_else(|p| p.into_inner());
        let lsp = publish(
            master,
            &self.config,
            self.space,
            self.parallelism,
            self.naive_crypto,
        );
        let published = self.published.get_mut().unwrap_or_else(|p| p.into_inner());
        published.0 = lsp;
        self
    }

    /// The current snapshot and its version. The returned `Arc<Lsp>`
    /// stays valid (and consistent) for as long as the caller holds it,
    /// regardless of concurrent mutations.
    pub fn snapshot(&self) -> (Arc<Lsp>, u64) {
        let guard = self.published.read().unwrap_or_else(|p| p.into_inner());
        (guard.0.clone(), guard.1)
    }

    /// The currently published version.
    pub fn version(&self) -> u64 {
        self.published.read().unwrap_or_else(|p| p.into_inner()).1
    }

    /// Live POI count of the published snapshot.
    pub fn database_size(&self) -> usize {
        self.snapshot().0.database_size()
    }

    /// The live POI set of the master index, unordered — the payload a
    /// durable checkpoint serializes. Taken under the writer mutex, so
    /// a caller that also serializes its mutations (the WAL lock does)
    /// gets a set that exactly matches [`DynamicLsp::version`].
    pub fn live_pois(&self) -> Vec<Poi> {
        self.master
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .live_pois()
    }

    /// The protocol configuration shared by all snapshots.
    pub fn config(&self) -> &PpgnnConfig {
        &self.config
    }

    /// The normalized data space.
    pub fn space(&self) -> Rect {
        self.space
    }

    /// Applies a mutation batch and publishes a new snapshot version.
    ///
    /// Returns `(changed, new_version)` where `changed` counts the ops
    /// that altered the live POI set. The batch is atomic from the
    /// readers' perspective: no query ever sees part of it.
    pub fn apply(&self, ops: &[PoiOp]) -> (usize, u64) {
        let mutate = telemetry::enter(telemetry::Layer::IndexMutate);
        mutate.attr(telemetry::trace::AttrKey::PoiOps, ops.len() as u64);
        let mut master = self.master.lock().unwrap_or_else(|p| p.into_inner());
        let changed = master.apply(ops);
        let lsp = publish(
            &master,
            &self.config,
            self.space,
            self.parallelism,
            self.naive_crypto,
        );
        let mut published = self.published.write().unwrap_or_else(|p| p.into_inner());
        published.0 = lsp;
        published.1 += 1;
        (changed, published.1)
    }
}

/// Freezes the master index into a fresh immutable snapshot (sharing its
/// bulk-loaded tree).
fn publish(
    master: &DynamicRTree,
    config: &PpgnnConfig,
    space: Rect,
    parallelism: usize,
    naive_crypto: bool,
) -> Arc<Lsp> {
    Arc::new(
        Lsp::with_engine(
            Box::new(SnapshotEngine::new(master.clone())),
            config.clone(),
            space,
        )
        .with_parallelism(parallelism)
        .with_naive_crypto(naive_crypto),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgnn_geo::{Aggregate, Point};

    fn db() -> Vec<Poi> {
        (0..100)
            .map(|i| {
                Poi::new(
                    i,
                    Point::new((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0),
                )
            })
            .collect()
    }

    fn config() -> PpgnnConfig {
        PpgnnConfig {
            k: 3,
            d: 3,
            delta: 6,
            keysize: 128,
            sanitize: false,
            ..PpgnnConfig::paper_defaults()
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_mutations() {
        let dyn_lsp = DynamicLsp::new(db(), config());
        let (snap, v1) = dyn_lsp.snapshot();
        assert_eq!(v1, 1);
        let q = vec![Point::new(0.31, 0.31)];
        let before = snap.plaintext_answer(&q, 1)[0];

        let (changed, v2) = dyn_lsp.apply(&[PoiOp::Insert(Poi::new(9999, q[0]))]);
        assert_eq!((changed, v2), (1, 2));

        // The pinned snapshot still answers from version 1...
        assert_eq!(snap.plaintext_answer(&q, 1)[0].id, before.id);
        // ...while a fresh snapshot sees the insert.
        let (fresh, v) = dyn_lsp.snapshot();
        assert_eq!(v, 2);
        assert_eq!(fresh.plaintext_answer(&q, 1)[0].id, 9999);
    }

    #[test]
    fn apply_batches_are_atomic_and_versioned() {
        let dyn_lsp = DynamicLsp::new(db(), config());
        let ops = vec![
            PoiOp::Remove(0),
            PoiOp::Remove(1),
            PoiOp::Insert(Poi::new(500, Point::new(0.05, 0.05))),
        ];
        let (changed, v) = dyn_lsp.apply(&ops);
        assert_eq!(changed, 3);
        assert_eq!(v, 2);
        assert_eq!(dyn_lsp.database_size(), 99);
        let (_, v3) = dyn_lsp.apply(&[]);
        assert_eq!(v3, 3, "even empty batches bump the version");
    }

    #[test]
    fn restore_resumes_at_the_exact_version() {
        let restored = DynamicLsp::restore(db(), config(), Rect::UNIT, 17);
        assert_eq!(restored.version(), 17);
        let (_, v) = restored.apply(&[PoiOp::Remove(3)]);
        assert_eq!(v, 18, "replay continues the pre-crash sequence");
        // Version 0 is reserved; restore clamps to the first version.
        assert_eq!(
            DynamicLsp::restore(db(), config(), Rect::UNIT, 0).version(),
            1
        );
        let mut live = restored.live_pois();
        live.sort_by_key(|p| p.id);
        assert_eq!(live.len(), 99);
        assert!(live.iter().all(|p| p.id != 3));
    }

    #[test]
    fn matches_rebuilt_from_scratch_index() {
        let dyn_lsp = DynamicLsp::new(db(), config());
        let mut mirror = db();
        let updates = vec![
            PoiOp::Insert(Poi::new(700, Point::new(0.42, 0.87))),
            PoiOp::Remove(55),
            PoiOp::Insert(Poi::new(701, Point::new(0.13, 0.29))),
        ];
        dyn_lsp.apply(&updates);
        mirror.retain(|p| p.id != 55);
        mirror.push(Poi::new(700, Point::new(0.42, 0.87)));
        mirror.push(Poi::new(701, Point::new(0.13, 0.29)));
        let rebuilt = Lsp::new(mirror, config());
        let q = vec![Point::new(0.4, 0.8), Point::new(0.2, 0.3)];
        let (snap, _) = dyn_lsp.snapshot();
        for agg_q in [1usize, 4, 9] {
            assert_eq!(
                snap.plaintext_answer(&q, agg_q)
                    .iter()
                    .map(|p| p.id)
                    .collect::<Vec<_>>(),
                rebuilt
                    .plaintext_answer(&q, agg_q)
                    .iter()
                    .map(|p| p.id)
                    .collect::<Vec<_>>()
            );
        }
        let _ = Aggregate::Sum;
    }
}
