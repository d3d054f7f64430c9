//! `observer` — the passive network adversary.
//!
//! Where [`crate::mallory`] attacks the server *actively*, this module
//! never sends a malformed byte: it plays an on-path eavesdropper who
//! only records what any network element between a group and the LSP
//! can record — the **size** of each response frame and the **latency**
//! between a request hitting the wire and its response arriving. The
//! question it asks is the one DESIGN.md §16 poses: *can those two
//! observables alone tell workloads apart?*
//!
//! The harness runs matched workload pairs that differ in exactly one
//! protocol parameter an adversary should not learn:
//!
//! * `delta` — candidate-set size δ′ 6 vs 12 (more LSP work per query);
//! * `k` — answers per query 2 vs 8 (more ciphertext per answer);
//! * `sanitize` — answer sanitation off vs on (extra per-candidate CPU).
//!
//! Each pair runs twice, against a [`ShapeMode::Off`] server and a
//! [`ShapeMode::Padded`] one, and every (scenario, mode, channel) cell
//! gets a two-sample Kolmogorov–Smirnov statistic whose p-value comes
//! from a seeded permutation test — exact, assumption-free, and
//! reproducible for a fixed seed and sample set.
//!
//! The CI gate then demands **both directions**: the off-mode server
//! must be distinguishable (the harness has real statistical power — a
//! null result against `padded` would otherwise be vacuous), and the
//! padded server must not be (the defense holds against the very test
//! that just proved its own sharpness).
//!
//! Latencies are quantized to [`ObserverConfig::latency_bin`] buckets
//! *before* the test, in both modes. This is what makes the padded
//! verdict deterministic instead of a 5%-per-cell coin flip: a padded
//! server releases every response on the same quantum boundary, so all
//! its samples collapse into one bucket and the KS statistic is exactly
//! zero — scheduling noise cannot fake a leak. The flip side is honest
//! too: an off-mode latency difference smaller than one bucket goes
//! uncounted, and the off-mode gate then rests on the size channel
//! (which uses raw byte counts and needs no binning).

use std::sync::Arc;
use std::time::Duration;

use ppgnn_core::{Lsp, PpgnnConfig};
use ppgnn_geo::{Poi, Point, Rect};
use ppgnn_telemetry::{json, percentile};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::client::GroupClient;
use crate::error::ServerError;
use crate::frame::FrameType;
use crate::server::{serve_world, ServerConfig};
use crate::shape::{ShapeMode, ShapePolicy};

/// Off-mode gate: a channel must separate at this level for the
/// harness to claim the unshaped server leaks.
pub const ALPHA_DISTINGUISH: f64 = 0.01;
/// Padded-mode gate: any channel separating at this (looser) level
/// fails the defense.
pub const ALPHA_LEAK: f64 = 0.05;

/// Tunables for one observer run.
#[derive(Debug, Clone, Copy)]
pub struct ObserverConfig {
    /// Seeds the POI world, every client keypair, the query positions,
    /// and the permutation test — one seed reproduces the whole run.
    pub seed: u64,
    /// Recorded queries per workload arm (after warmup).
    pub samples_per_arm: usize,
    /// Unrecorded queries per arm before sampling starts (first-query
    /// lazy-initialization cost would otherwise skew arm A).
    pub warmup_per_arm: usize,
    /// Permutation-test resamples per channel.
    pub permutations: usize,
    /// The padded server's latency quantum.
    pub quantum: Duration,
    /// Latency quantization applied before the KS test (see module
    /// docs); must be well below `quantum` and above loopback jitter.
    pub latency_bin: Duration,
    /// POIs in the seeded world.
    pub pois: usize,
}

impl Default for ObserverConfig {
    fn default() -> Self {
        ObserverConfig {
            seed: 7,
            samples_per_arm: 30,
            warmup_per_arm: 2,
            permutations: 1000,
            quantum: Duration::from_millis(200),
            latency_bin: Duration::from_millis(25),
            pois: 200,
        }
    }
}

/// One channel's verdict: the observed KS statistic over the gate's
/// (binned for latency, raw for size) samples and its permutation
/// p-value, plus the per-arm means for the human reading the report.
#[derive(Debug, Clone, Copy)]
pub struct ChannelVerdict {
    /// KS statistic of the gate samples.
    pub ks_stat: f64,
    /// Permutation p-value of `ks_stat` (seeded; ≥ 1/(R+1)).
    pub p_value: f64,
    /// Arm means of the *raw* samples (bytes, or microseconds).
    pub mean_a: f64,
    /// See [`ChannelVerdict::mean_a`].
    pub mean_b: f64,
}

impl ChannelVerdict {
    /// Whether this channel separates the arms at `alpha`.
    pub fn distinguishable_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// One (scenario, mode) cell of the run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name (`delta`, `k`, `sanitize`).
    pub scenario: &'static str,
    /// Which server shape the pair ran against.
    pub mode: ShapeMode,
    /// Response-size channel (raw total on-wire bytes).
    pub size: ChannelVerdict,
    /// Response-latency channel (bucketed; see module docs).
    pub latency: ChannelVerdict,
}

impl ScenarioResult {
    /// Whether either channel separates the arms at `alpha`.
    pub fn distinguishable_at(&self, alpha: f64) -> bool {
        self.size.distinguishable_at(alpha) || self.latency.distinguishable_at(alpha)
    }
}

/// The whole run: every cell plus the two-direction gate and the
/// padded-mode overhead numbers recorded into `BENCH_server.json`.
#[derive(Debug, Clone)]
pub struct ObserverReport {
    /// The seed the run derived everything from.
    pub seed: u64,
    /// Recorded samples per arm.
    pub samples_per_arm: usize,
    /// Permutation resamples per channel.
    pub permutations: usize,
    /// The padded server's latency quantum, in ms.
    pub quantum_ms: u64,
    /// Every (scenario, mode) cell.
    pub scenarios: Vec<ScenarioResult>,
    /// Off-mode answer p50 latency (µs) pooled over every off arm.
    pub off_p50_us: u64,
    /// Padded-mode answer p50 latency (µs) pooled over every padded arm.
    pub padded_p50_us: u64,
    /// Off-mode answer frame size (bytes) of the largest off arm.
    pub off_answer_bytes: u64,
    /// Padded-mode answer frame size (constant across arms).
    pub padded_answer_bytes: u64,
}

impl ObserverReport {
    /// Whether any off-mode cell separates at [`ALPHA_DISTINGUISH`] —
    /// the harness's proof of statistical power.
    pub fn off_distinguishable(&self) -> bool {
        self.scenarios
            .iter()
            .filter(|s| s.mode == ShapeMode::Off)
            .any(|s| s.distinguishable_at(ALPHA_DISTINGUISH))
    }

    /// Whether any padded-mode cell separates at [`ALPHA_LEAK`] — a
    /// leak through the defense.
    pub fn padded_distinguishable(&self) -> bool {
        self.scenarios
            .iter()
            .filter(|s| s.mode == ShapeMode::Padded)
            .any(|s| s.distinguishable_at(ALPHA_LEAK))
    }

    /// The CI gate: off leaks, padded does not.
    pub fn gate_passed(&self) -> bool {
        self.off_distinguishable() && !self.padded_distinguishable()
    }

    /// The full run as a JSON document (the CI artifact).
    pub fn to_json(&self) -> String {
        let mut o = json::Obj::new();
        o.field_u64("seed", self.seed);
        o.field_u64("samples_per_arm", self.samples_per_arm as u64);
        o.field_u64("permutations", self.permutations as u64);
        o.field_u64("quantum_ms", self.quantum_ms);
        o.field_bool("off_distinguishable", self.off_distinguishable());
        o.field_bool("padded_distinguishable", self.padded_distinguishable());
        o.field_bool("gate_passed", self.gate_passed());
        o.field_raw("shape", &self.shape_json());
        let cells = self.scenarios.iter().map(|s| {
            let mut c = json::Obj::new();
            c.field_str("scenario", s.scenario);
            c.field_str("mode", s.mode.name());
            for (name, ch) in [("size", &s.size), ("latency", &s.latency)] {
                let mut v = json::Obj::new();
                v.field_f64("ks_stat", ch.ks_stat);
                v.field_f64("p_value", ch.p_value);
                v.field_f64("mean_a", ch.mean_a);
                v.field_f64("mean_b", ch.mean_b);
                c.field_raw(name, &v.finish());
            }
            c.finish()
        });
        o.field_raw("cells", &json::arr(cells));
        o.finish()
    }

    /// The padded-mode overhead: the report's `"shape"` section.
    fn shape_json(&self) -> String {
        let mut o = json::Obj::new();
        o.field_u64("quantum_ms", self.quantum_ms);
        o.field_u64("off_p50_us", self.off_p50_us);
        o.field_u64("padded_p50_us", self.padded_p50_us);
        o.field_u64(
            "padded_overhead_us",
            self.padded_p50_us.saturating_sub(self.off_p50_us),
        );
        o.field_u64("off_answer_bytes", self.off_answer_bytes);
        o.field_u64("padded_answer_bytes", self.padded_answer_bytes);
        o.finish()
    }
}

/// One workload pair: two configs differing in a single parameter.
struct Scenario {
    name: &'static str,
    config_a: PpgnnConfig,
    config_b: PpgnnConfig,
}

/// The raw recordings of one arm.
struct ArmSamples {
    /// Total on-wire `Answer` frame bytes per query.
    sizes: Vec<f64>,
    /// Request→answer latency per query, in microseconds.
    latency_us: Vec<f64>,
}

fn scenarios() -> Vec<Scenario> {
    let base = PpgnnConfig {
        k: 2,
        d: 5,
        delta: 6,
        sanitize: false,
        keysize: 1024,
        ..PpgnnConfig::fast_test()
    };
    vec![
        Scenario {
            name: "delta",
            config_a: base.clone(),
            config_b: PpgnnConfig {
                delta: 24,
                ..base.clone()
            },
        },
        Scenario {
            name: "k",
            // 512-bit keys here: at that size k 2 vs k 8 packs to
            // different answer lengths, so this pair exercises the size
            // channel (the delta pair above exercises latency).
            config_a: PpgnnConfig {
                delta: 9,
                keysize: 512,
                ..base.clone()
            },
            config_b: PpgnnConfig {
                k: 8,
                delta: 9,
                keysize: 512,
                ..base.clone()
            },
        },
        Scenario {
            name: "sanitize",
            config_a: base.clone(),
            config_b: PpgnnConfig {
                sanitize: true,
                ..base
            },
        },
    ]
}

/// The seeded POI world every arm queries (same world, different
/// parameters — the only difference the observer could be detecting is
/// the one the scenario plants).
fn seeded_pois(count: usize, rng: &mut impl Rng) -> Vec<Poi> {
    (0..count)
        .map(|i| Poi::new(i as u32, Point::new(rng.gen::<f64>(), rng.gen::<f64>())))
        .collect()
}

/// Runs one arm: its own in-process server (so LSP-side parameters
/// like `sanitize` genuinely differ) and one client with the wire tap
/// on. Returns the recorded `Answer` observations.
fn run_arm(
    config: &PpgnnConfig,
    policy: ShapePolicy,
    pois: Vec<Poi>,
    oc: &ObserverConfig,
    arm_seed: u64,
) -> Result<ArmSamples, ServerError> {
    let server_config = ServerConfig::builder()
        .workers(2)
        .rng_seed(arm_seed)
        .shape(policy)
        // The distinguishability gate runs with the metrics endpoint
        // and SLO accounting live: an observability regression that
        // leaks workload shape onto the wire fails this test, not
        // just the redaction grep.
        .metrics_addr(Some("127.0.0.1:0".into()))
        .slo(Some(crate::metrics::SloConfig::default()))
        .build()
        .map_err(|e| ServerError::Recovery(e.0))?;
    let lsp = Arc::new(Lsp::new(pois, config.clone()));
    let handle = serve_world(lsp, "127.0.0.1:0", server_config)?;
    let mut rng = ChaCha8Rng::seed_from_u64(arm_seed);
    let result = (|| {
        let mut client = GroupClient::connect(
            handle.local_addr(),
            1,
            config.clone(),
            Rect::UNIT,
            2,
            &mut rng,
        )?;
        client.set_wire_tap(true);
        let mut sizes = Vec::with_capacity(oc.samples_per_arm);
        let mut latency_us = Vec::with_capacity(oc.samples_per_arm);
        for i in 0..oc.warmup_per_arm + oc.samples_per_arm {
            let users = [
                Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
                Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
            ];
            client.query(&users, &mut rng)?;
            let observations = client.take_wire_observations();
            if i < oc.warmup_per_arm {
                continue;
            }
            for obs in observations {
                if obs.frame_type == FrameType::Answer {
                    sizes.push(obs.total_bytes as f64);
                    latency_us.push(obs.latency.as_micros() as f64);
                }
            }
        }
        Ok(ArmSamples { sizes, latency_us })
    })();
    handle.shutdown();
    result
}

/// Two-sample KS statistic: max CDF gap over the pooled support.
/// Handles ties (the whole point of the binning) exactly.
fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    let mut sa: Vec<f64> = a.to_vec();
    let mut sb: Vec<f64> = b.to_vec();
    sa.sort_unstable_by(f64::total_cmp);
    sb.sort_unstable_by(f64::total_cmp);
    let (mut i, mut j, mut d) = (0usize, 0usize, 0.0f64);
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        let gap = (i as f64 / sa.len() as f64 - j as f64 / sb.len() as f64).abs();
        d = d.max(gap);
    }
    d
}

/// Exact-style permutation p-value for the observed KS statistic:
/// shuffles the pooled samples `rounds` times and counts permutations
/// at least as extreme. The `+1` on both sides keeps the estimate
/// valid (never zero) and the seeded RNG keeps it reproducible.
fn permutation_p(a: &[f64], b: &[f64], rounds: usize, rng: &mut impl Rng) -> f64 {
    let observed = ks_statistic(a, b);
    let mut pool: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
    let mut hits = 0usize;
    for _ in 0..rounds {
        // Fisher–Yates over the pool, then split at |a|.
        for k in (1..pool.len()).rev() {
            pool.swap(k, rng.gen_range(0..=k));
        }
        if ks_statistic(&pool[..a.len()], &pool[a.len()..]) >= observed - 1e-12 {
            hits += 1;
        }
    }
    (hits + 1) as f64 / (rounds + 1) as f64
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Quantizes latencies to `bin`-sized buckets (nearest boundary).
fn binned(latency_us: &[f64], bin: Duration) -> Vec<f64> {
    let bin_us = (bin.as_micros() as f64).max(1.0);
    latency_us.iter().map(|t| (t / bin_us).round()).collect()
}

fn channel_verdict(
    raw_a: &[f64],
    raw_b: &[f64],
    gate_a: &[f64],
    gate_b: &[f64],
    rounds: usize,
    rng: &mut impl Rng,
) -> ChannelVerdict {
    ChannelVerdict {
        ks_stat: ks_statistic(gate_a, gate_b),
        p_value: permutation_p(gate_a, gate_b, rounds, rng),
        mean_a: mean(raw_a),
        mean_b: mean(raw_b),
    }
}

/// Runs the full harness: every scenario against an off server and a
/// padded one, KS + permutation per channel, gate verdicts, and the
/// padded-overhead numbers.
pub fn run_observer(oc: &ObserverConfig) -> Result<ObserverReport, ServerError> {
    let mut world_rng = ChaCha8Rng::seed_from_u64(oc.seed);
    let pois = seeded_pois(oc.pois, &mut world_rng);
    let mut test_rng = ChaCha8Rng::seed_from_u64(oc.seed ^ 0x0b5e_22e2);
    let mut scenarios_out = Vec::new();
    let mut pooled: [(Vec<f64>, Vec<f64>); 2] = Default::default();
    for (mode_idx, mode) in [ShapeMode::Off, ShapeMode::Padded].into_iter().enumerate() {
        let policy = match mode {
            ShapeMode::Off => ShapePolicy::off(),
            ShapeMode::Padded => ShapePolicy::padded(1024, 8, oc.quantum),
        };
        for (s_idx, sc) in scenarios().iter().enumerate() {
            let arm_seed = |arm: u64| {
                oc.seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add((mode_idx as u64) << 32 | (s_idx as u64) << 8 | arm)
            };
            let a = run_arm(&sc.config_a, policy, pois.clone(), oc, arm_seed(0))?;
            let b = run_arm(&sc.config_b, policy, pois.clone(), oc, arm_seed(1))?;
            let lat_gate_a = binned(&a.latency_us, oc.latency_bin);
            let lat_gate_b = binned(&b.latency_us, oc.latency_bin);
            scenarios_out.push(ScenarioResult {
                scenario: sc.name,
                mode,
                size: channel_verdict(
                    &a.sizes,
                    &b.sizes,
                    &a.sizes,
                    &b.sizes,
                    oc.permutations,
                    &mut test_rng,
                ),
                latency: channel_verdict(
                    &a.latency_us,
                    &b.latency_us,
                    &lat_gate_a,
                    &lat_gate_b,
                    oc.permutations,
                    &mut test_rng,
                ),
            });
            pooled[mode_idx].0.extend(a.sizes.iter().chain(&b.sizes));
            pooled[mode_idx]
                .1
                .extend(a.latency_us.iter().chain(&b.latency_us));
        }
    }
    let p50 = |lat: &[f64]| {
        let mut us: Vec<u64> = lat.iter().map(|&t| t as u64).collect();
        us.sort_unstable();
        percentile(&us, 50.0)
    };
    let max_bytes = |sizes: &[f64]| sizes.iter().copied().fold(0.0f64, f64::max) as u64;
    Ok(ObserverReport {
        seed: oc.seed,
        samples_per_arm: oc.samples_per_arm,
        permutations: oc.permutations,
        quantum_ms: oc.quantum.as_millis() as u64,
        scenarios: scenarios_out,
        off_p50_us: p50(&pooled[0].1),
        padded_p50_us: p50(&pooled[1].1),
        off_answer_bytes: max_bytes(&pooled[0].0),
        padded_answer_bytes: max_bytes(&pooled[1].0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ks_of_identical_samples_is_zero() {
        let a = [1.0, 2.0, 3.0, 3.0];
        assert_eq!(ks_statistic(&a, &a), 0.0);
    }

    #[test]
    fn ks_of_disjoint_samples_is_one() {
        let a = [1.0, 1.0, 2.0];
        let b = [5.0, 6.0, 7.0];
        assert_eq!(ks_statistic(&a, &b), 1.0);
    }

    #[test]
    fn ks_handles_ties_across_samples() {
        // F_a jumps to 1 at 1.0; F_b is 0.5 there: D = 0.5.
        let a = [1.0, 1.0];
        let b = [1.0, 2.0];
        assert!((ks_statistic(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn permutation_p_is_one_for_identical_samples() {
        // D_obs = 0, every permutation ties it: p = 1 exactly. This is
        // the determinism the padded gate rests on.
        let a = [3.0; 20];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(permutation_p(&a, &a, 200, &mut rng), 1.0);
    }

    #[test]
    fn permutation_p_is_minimal_for_disjoint_samples() {
        let a: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..20).map(|i| 100.0 + i as f64).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = permutation_p(&a, &b, 999, &mut rng);
        // No permutation of a clean split reproduces D = 1 (any mixed
        // split has D < 1), so only the +1 numerator survives.
        assert!(p <= 1.0 / 1000.0 + 1e-12, "p = {p}");
    }

    #[test]
    fn binning_collapses_quantized_latencies() {
        // Padded-mode latencies: quantum + jitter well inside bin/2.
        let a = [200_100.0, 200_900.0, 200_400.0];
        let b = [200_200.0, 200_700.0, 200_300.0];
        let bin = Duration::from_millis(25);
        assert_eq!(ks_statistic(&binned(&a, bin), &binned(&b, bin)), 0.0);
    }
}
