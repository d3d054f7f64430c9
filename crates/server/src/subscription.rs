//! The standing-query registry: server-side safe regions and the
//! one-mutation→many-sessions invalidation fanout.
//!
//! A `Subscribe` is a PPGNN query the group intends to keep: the server
//! answers it once (through the normal encrypted pipeline), then keeps
//! watching the POI index on the group's behalf. Because Privacy II
//! hides the group's true query among its δ′ candidates, the server
//! cannot know *which* candidate the group cares about — so it tracks a
//! safe region **per candidate** and invalidates when a mutation
//! threatens *any* of them. That makes invalidations conservative
//! (spurious pushes are possible) but never missed: the oracle-checked
//! soak in `tests/server_moving.rs` holds the subsystem to exactly that
//! contract.
//!
//! ## The safe-region math — sentinel semantics
//!
//! A `Subscribe` asking for `k` answers protects the **top-(k−1)** set;
//! the k-th answer is a *runner-up sentinel*. This convention exists
//! for Privacy III: the margin both sides need is the cost gap between
//! the last two answers, `M = C_k − C_{k−1}`, which the client can
//! compute **from its own decrypted answers** — no plaintext cost gap
//! beyond the requested answer ever crosses the wire. (The naive
//! alternative, disclosing the gap *above* the k-th answer, would leak
//! database structure the answer does not contain; and minimizing that
//! gap over all δ′ candidates — the only way to disclose it without
//! breaking Privacy II — yields margins orders of magnitude too small
//! to be useful, since the minimum of δ′ near-tie gaps collapses.)
//! [`crate::client::GroupClient::subscribe`] hides the convention:
//! it plans for `k+1` answers and hands back `k` plus the token.
//!
//! * **Client side**: each user may drift up to `r = M / (4·s)` from
//!   the subscribed location, where `s = n` for `Sum` (all drifts add)
//!   and `s = 1` for `Max`/`Min`. Any single cost then moves by at most
//!   `M/4`, so the gap `C_k − C_{k−1} ≥ M/2 > 0` survives and the
//!   protected top-(k−1) set is provably unchanged.
//! * **Server side**: an inserted POI `p` can only enter a candidate's
//!   protected set if `F(p, Q) ≤ C_{k−1} + M/2` (the client may have
//!   drifted, so `M/2` of slack is kept); a removed POI only matters if
//!   it *was* in some candidate's protected set (removing anything else
//!   cannot promote costs). An insert that reuses a live protected id
//!   is a move and always invalidates.
//!
//! The `Granted` push still carries a server-side margin — the minimum
//! over every candidate's gap — as a conservative public bound; clients
//! prefer their self-computed true margin, which is sharper and free.
//!
//! Versions make the check race-free: a subscription records the index
//! version its regions were computed on; `Subscribe` handlers compare
//! against the live version after registering and self-invalidate if a
//! mutation slipped between snapshot and registration.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use ppgnn_core::Lsp;
use ppgnn_geo::{Aggregate, PoiId, PoiOp, Point};
use ppgnn_telemetry::trace::AttrKey;
use ppgnn_telemetry::{self as telemetry, Layer};

use crate::frame::{SubscriptionKind, SubscriptionUpdatePayload};

/// A per-connection mailbox of subscription pushes. The invalidation
/// scan (running on whatever connection thread carried the `PoiUpdate`)
/// pushes here; the owning connection thread drains it after every
/// frame and at every idle poll, so a notification reaches the wire
/// within one poll interval without any cross-thread socket sharing.
#[derive(Debug, Default)]
pub struct Outbox {
    pending: Mutex<Vec<SubscriptionUpdatePayload>>,
}

impl Outbox {
    /// An empty mailbox.
    pub fn new() -> Self {
        Outbox::default()
    }

    /// Queues one push for the owning connection.
    pub fn push(&self, update: SubscriptionUpdatePayload) {
        self.pending
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(update);
    }

    /// Takes everything queued so far, oldest first.
    pub fn drain(&self) -> Vec<SubscriptionUpdatePayload> {
        std::mem::take(&mut *self.pending.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// One candidate's safe region: its locations and the cost gap a
/// mutation must close to threaten its protected top-(k−1) set.
#[derive(Debug, Clone)]
pub struct CandidateRegion {
    /// The candidate's query locations.
    pub points: Vec<Point>,
    /// Aggregate cost of the last *protected* answer, `C_{k−1}`
    /// (infinite when the database holds fewer than `k` POIs — any
    /// insert then fills a free slot; negative-infinite when `k < 2`
    /// and there is nothing to protect).
    pub k_cost: f64,
    /// The sentinel gap `C_k − C_{k−1}` (infinite when no sentinel
    /// exists).
    pub margin: f64,
}

/// One registered standing query.
#[derive(Debug)]
pub struct Subscription {
    /// The subscribed group.
    pub group_id: u64,
    /// The request the subscription was granted under (echoed in every
    /// push about it).
    pub request_id: u32,
    /// The connection that owns the outbox (subscriptions die with it).
    pub conn_id: u64,
    /// Index version the regions were computed on.
    pub version: u64,
    /// Aggregate the safe regions were computed under.
    pub agg: Aggregate,
    /// Minimum margin across regions — the token the client received.
    pub margin: f64,
    /// Drift scale `s` of the token (`n` for Sum, 1 for Max/Min).
    pub drift_scale: u32,
    /// Per-candidate safe regions.
    pub regions: Vec<CandidateRegion>,
    /// Union of every candidate's *protected* POI ids (sentinels
    /// excluded — losing a sentinel cannot shrink any protected set).
    pub topk: HashSet<PoiId>,
    /// The owning connection's mailbox.
    pub outbox: Arc<Outbox>,
    /// Set once invalidated: the regions are meaningless until the
    /// group re-subscribes, so the scan skips stale entries.
    pub stale: bool,
}

/// The safe-region token pushed with `Granted`, plus everything the
/// registry needs to watch the subscription.
#[derive(Debug, Clone, Copy)]
pub struct SafeRegionSummary {
    /// Minimum margin across all candidate regions.
    pub margin: f64,
    /// Drift scale `s` (`n` users for Sum, 1 for Max/Min).
    pub drift_scale: u32,
}

/// Computes every candidate's safe region on one pinned snapshot,
/// under the sentinel convention: a `k`-answer subscription protects
/// the top-(k−1) ids, and the margin is the gap `C_k − C_{k−1}`
/// between the sentinel and the last protected answer.
///
/// Returns the regions, the protected-id union, and the token summary.
pub fn compute_regions(
    snapshot: &Lsp,
    candidates: &[Vec<Point>],
    k: usize,
) -> (Vec<CandidateRegion>, HashSet<PoiId>, SafeRegionSummary) {
    let agg = snapshot.config().aggregate;
    let mut regions = Vec::with_capacity(candidates.len());
    let mut topk = HashSet::new();
    let mut min_margin = f64::INFINITY;
    for cand in candidates {
        let answers = snapshot.plaintext_answer(cand, k);
        let (k_cost, margin) = if k < 2 {
            // No protected set at all — nothing can invalidate.
            (f64::NEG_INFINITY, f64::INFINITY)
        } else if answers.len() < k {
            // A free slot: any insert joins the answer unconditionally.
            (f64::INFINITY, f64::INFINITY)
        } else {
            let c_prot = agg.eval(&answers[k - 2].location, cand);
            let c_sent = agg.eval(&answers[k - 1].location, cand);
            (c_prot, (c_sent - c_prot).max(0.0))
        };
        // Protected ids: everything but the sentinel. When the database
        // is smaller than `k` every answered id is protected (the set
        // *is* the database).
        let protected = if answers.len() < k {
            answers.len()
        } else {
            k.saturating_sub(1)
        };
        for poi in answers.iter().take(protected) {
            topk.insert(poi.id);
        }
        min_margin = min_margin.min(margin);
        regions.push(CandidateRegion {
            points: cand.clone(),
            k_cost,
            margin,
        });
    }
    let drift_scale = match agg {
        Aggregate::Sum => candidates.first().map(|c| c.len()).unwrap_or(1).max(1) as u32,
        Aggregate::Max | Aggregate::Min => 1,
    };
    (
        regions,
        topk,
        SafeRegionSummary {
            margin: min_margin,
            drift_scale,
        },
    )
}

/// Whether one mutation threatens one subscription's answer.
fn op_invalidates(sub: &Subscription, op: &PoiOp) -> bool {
    match op {
        PoiOp::Insert(poi) => {
            // Moving a POI that is already protected always counts.
            if sub.topk.contains(&poi.id) {
                return true;
            }
            sub.regions.iter().any(|r| {
                let cost = sub.agg.eval(&poi.location, &r.points);
                // `M/2` of slack covers the client's allowed drift.
                let slack = if r.margin.is_finite() {
                    r.margin / 2.0
                } else {
                    0.0
                };
                cost <= r.k_cost + slack
            })
        }
        PoiOp::Remove(id) => sub.topk.contains(id),
    }
}

/// The bounded standing-query table, shared by every connection thread.
#[derive(Debug)]
pub struct SubscriptionRegistry {
    inner: Mutex<Vec<Subscription>>,
    cap: usize,
}

impl SubscriptionRegistry {
    /// An empty registry holding at most `cap` subscriptions.
    pub fn new(cap: usize) -> Self {
        SubscriptionRegistry {
            inner: Mutex::new(Vec::new()),
            cap,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Subscription>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The registry cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Live (non-stale and stale) subscription count.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a fresh registration for `group_id` would be refused —
    /// the cheap pre-query check, so a flood of `Subscribe`s is turned
    /// away before it can burn worker time on answers.
    pub fn would_reject(&self, group_id: u64) -> bool {
        let subs = self.lock();
        subs.len() >= self.cap && !subs.iter().any(|s| s.group_id == group_id)
    }

    /// Registers (or, for a re-subscribing group, replaces) a standing
    /// query. `Err(cap)` when the table is full.
    pub fn register(&self, sub: Subscription) -> Result<(), usize> {
        let mut subs = self.lock();
        if let Some(existing) = subs.iter_mut().find(|s| s.group_id == sub.group_id) {
            *existing = sub;
            return Ok(());
        }
        if subs.len() >= self.cap {
            return Err(self.cap);
        }
        subs.push(sub);
        Ok(())
    }

    /// Drops the subscription granted to `group_id` under `request_id`.
    pub fn remove(&self, group_id: u64, request_id: u32) -> bool {
        let mut subs = self.lock();
        let before = subs.len();
        subs.retain(|s| !(s.group_id == group_id && s.request_id == request_id));
        subs.len() != before
    }

    /// Immediately invalidates one just-granted subscription — used
    /// when a mutation races the grant, so the scan for that mutation
    /// ran before this entry existed and could never have flagged it.
    pub fn invalidate_now(&self, group_id: u64, request_id: u32, version: u64) -> bool {
        let mut subs = self.lock();
        match subs
            .iter_mut()
            .find(|s| s.group_id == group_id && s.request_id == request_id && !s.stale)
        {
            Some(s) => {
                s.stale = true;
                s.outbox.push(SubscriptionUpdatePayload {
                    request_id: s.request_id,
                    kind: SubscriptionKind::Invalidated,
                    version,
                    margin: s.margin,
                    drift_scale: s.drift_scale,
                });
                true
            }
            None => false,
        }
    }

    /// Drops every subscription owned by a closed connection.
    pub fn remove_conn(&self, conn_id: u64) -> usize {
        let mut subs = self.lock();
        let before = subs.len();
        subs.retain(|s| s.conn_id != conn_id);
        before - subs.len()
    }

    /// The invalidation scan: checks every live subscription against a
    /// just-applied mutation batch and pushes an `Invalidated` to each
    /// threatened group's outbox. Returns how many were invalidated.
    pub fn invalidate_for_ops(&self, ops: &[PoiOp], new_version: u64) -> usize {
        let mut subs = self.lock();
        let scan = telemetry::enter(Layer::InvalidateScan);
        scan.attr(AttrKey::Subscriptions, subs.len() as u64);
        scan.attr(AttrKey::PoiOps, ops.len() as u64);
        let hit: Vec<usize> = subs
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.stale && ops.iter().any(|op| op_invalidates(s, op)))
            .map(|(i, _)| i)
            .collect();
        scan.attr(AttrKey::Invalidated, hit.len() as u64);
        drop(scan);
        if !hit.is_empty() {
            let fanout = telemetry::enter(Layer::FanoutNotify);
            fanout.attr(AttrKey::Invalidated, hit.len() as u64);
            for &i in &hit {
                let sub = &mut subs[i];
                sub.stale = true;
                sub.outbox.push(SubscriptionUpdatePayload {
                    request_id: sub.request_id,
                    kind: SubscriptionKind::Invalidated,
                    version: new_version,
                    margin: sub.margin,
                    drift_scale: sub.drift_scale,
                });
            }
        }
        hit.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgnn_core::PpgnnConfig;
    use ppgnn_geo::Poi;

    fn snapshot() -> Lsp {
        let pois: Vec<Poi> = (0..100)
            .map(|i| {
                Poi::new(
                    i,
                    Point::new((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0),
                )
            })
            .collect();
        Lsp::new(
            pois,
            PpgnnConfig {
                k: 3,
                d: 3,
                delta: 6,
                keysize: 128,
                sanitize: false,
                ..PpgnnConfig::paper_defaults()
            },
        )
    }

    fn sub_for(candidates: &[Vec<Point>], outbox: Arc<Outbox>) -> Subscription {
        let snap = snapshot();
        let (regions, topk, token) = compute_regions(&snap, candidates, 3);
        Subscription {
            group_id: 7,
            request_id: 1,
            conn_id: 0,
            version: 1,
            agg: snap.config().aggregate,
            margin: token.margin,
            drift_scale: token.drift_scale,
            regions,
            topk,
            outbox,
            stale: false,
        }
    }

    #[test]
    fn margin_is_the_sentinel_gap() {
        let snap = snapshot();
        let q = vec![Point::new(0.21, 0.31), Point::new(0.39, 0.29)];
        let (regions, topk, token) = compute_regions(&snap, std::slice::from_ref(&q), 3);
        assert_eq!(regions.len(), 1);
        assert_eq!(topk.len(), 2, "the sentinel answer is not protected");
        let answers = snap.plaintext_answer(&q, 3);
        let agg = snap.config().aggregate;
        let expected = agg.eval(&answers[2].location, &q) - agg.eval(&answers[1].location, &q);
        assert!((regions[0].margin - expected).abs() < 1e-12);
        assert!(!topk.contains(&answers[2].id), "sentinel excluded");
        assert_eq!(token.drift_scale, 2, "Sum scales with group size");
        assert!(token.margin <= regions[0].margin);
    }

    #[test]
    fn sentinel_removal_does_not_invalidate() {
        let outbox = Arc::new(Outbox::new());
        let reg = SubscriptionRegistry::new(8);
        let snap = snapshot();
        let q = vec![Point::new(0.21, 0.31), Point::new(0.39, 0.29)];
        let sentinel = snap.plaintext_answer(&q, 3)[2].id;
        reg.register(sub_for(std::slice::from_ref(&q), Arc::clone(&outbox)))
            .unwrap();
        // Losing the runner-up cannot shrink the protected set; the
        // client's margin only grows.
        assert_eq!(reg.invalidate_for_ops(&[PoiOp::Remove(sentinel)], 2), 0);
        assert!(outbox.drain().is_empty());
    }

    #[test]
    fn tiny_database_margin_is_infinite() {
        let pois = vec![Poi::new(1, Point::new(0.5, 0.5))];
        let snap = Lsp::new(
            pois,
            PpgnnConfig {
                k: 3,
                d: 3,
                delta: 6,
                keysize: 128,
                sanitize: false,
                ..PpgnnConfig::paper_defaults()
            },
        );
        let (regions, topk, token) = compute_regions(&snap, &[vec![Point::new(0.1, 0.1)]], 3);
        assert!(regions[0].margin.is_infinite());
        assert!(
            regions[0].k_cost.is_infinite(),
            "free slots: any insert hits"
        );
        assert_eq!(topk.len(), 1);
        assert!(token.margin.is_infinite());
    }

    #[test]
    fn far_insert_does_not_invalidate_near_insert_does() {
        let outbox = Arc::new(Outbox::new());
        let reg = SubscriptionRegistry::new(8);
        let q = vec![Point::new(0.21, 0.31), Point::new(0.39, 0.29)];
        reg.register(sub_for(std::slice::from_ref(&q), Arc::clone(&outbox)))
            .unwrap();

        // An insert on the far corner threatens nothing.
        let far = vec![PoiOp::Insert(Poi::new(9000, Point::new(0.99, 0.99)))];
        assert_eq!(reg.invalidate_for_ops(&far, 2), 0);
        assert!(outbox.drain().is_empty());

        // An insert right on the centroid beats every current answer.
        let near = vec![PoiOp::Insert(Poi::new(9001, Point::new(0.3, 0.3)))];
        assert_eq!(reg.invalidate_for_ops(&near, 3), 1);
        let pushed = outbox.drain();
        assert_eq!(pushed.len(), 1);
        assert_eq!(pushed[0].kind, SubscriptionKind::Invalidated);
        assert_eq!(pushed[0].version, 3);

        // Stale subscriptions are not re-notified.
        assert_eq!(reg.invalidate_for_ops(&near, 4), 0);
        assert!(outbox.drain().is_empty());
    }

    #[test]
    fn removing_a_topk_poi_invalidates() {
        let outbox = Arc::new(Outbox::new());
        let reg = SubscriptionRegistry::new(8);
        let q = vec![Point::new(0.21, 0.31)];
        let sub = sub_for(std::slice::from_ref(&q), Arc::clone(&outbox));
        let victim = *sub.topk.iter().next().unwrap();
        reg.register(sub).unwrap();
        // Removing a POI no candidate holds is harmless.
        assert_eq!(reg.invalidate_for_ops(&[PoiOp::Remove(99)], 2), 0);
        assert_eq!(reg.invalidate_for_ops(&[PoiOp::Remove(victim)], 3), 1);
        assert_eq!(outbox.drain().len(), 1);
    }

    #[test]
    fn cap_enforced_but_resubscribe_replaces() {
        let outbox = Arc::new(Outbox::new());
        let reg = SubscriptionRegistry::new(2);
        let q = vec![Point::new(0.5, 0.5)];
        for gid in [1u64, 2] {
            let mut s = sub_for(std::slice::from_ref(&q), Arc::clone(&outbox));
            s.group_id = gid;
            reg.register(s).unwrap();
        }
        let mut third = sub_for(std::slice::from_ref(&q), Arc::clone(&outbox));
        third.group_id = 3;
        assert!(reg.would_reject(3));
        assert_eq!(reg.register(third), Err(2));
        // Group 2 re-subscribing replaces its own slot, no cap hit.
        assert!(!reg.would_reject(2));
        let mut again = sub_for(std::slice::from_ref(&q), Arc::clone(&outbox));
        again.group_id = 2;
        again.request_id = 9;
        reg.register(again).unwrap();
        assert_eq!(reg.len(), 2);
        // Cleanup paths.
        assert!(reg.remove(2, 9));
        assert!(!reg.remove(2, 9));
        assert_eq!(reg.remove_conn(0), 1);
        assert!(reg.is_empty());
    }
}
