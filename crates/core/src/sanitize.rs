//! Answer sanitation (§5.2–5.3): LSP returns the longest prefix of the
//! top-k answer that keeps Privacy IV under full user collusion.
//!
//! For every prefix and every possible target user, LSP *simulates* the
//! inequality attack: it samples `N_H` uniform points (Theorem 5.1 fixes
//! `N_H` from `(θ₀, γ, η, φ)`), counts how many satisfy the prefix's
//! inequalities, and accepts the prefix only when the Z-test (Eqn 16)
//! rejects `H₀: θ ≤ θ₀` for *every* target.
//!
//! Implementation note: one call draws one set of `N_H` points and tests
//! every target on it, level by level. Extending a prefix from length
//! `t−1` to `t` adds exactly one inequality `F_i(p_{t−1}) ≤ F_i(p_t)` per
//! target `i`, and `F_i(p, ·)` splits into the colluders' aggregate over
//! `p` (fixed per target, folded by [`InequalitySystem::new`]) and the
//! sample's distance to `p` (shared by every target). So each level
//! computes `dist(p_t, x)` once per sample, then ANDs each target's byte
//! mask of surviving samples with the new inequality, counting survivors
//! without a branch per sample. Every comparison takes the floating-point
//! steps of [`InequalitySystem::satisfies`], so the released prefix is the
//! one that per-target filtering returns on the same points. Work is
//! `O(N_H · k)` distances plus `O(n · N_H · k)` comparisons per answer.
//!
//! Each target's Z-test still sees `N_H` i.i.d. uniform points, so its
//! Type-I error stays ≤ γ (Theorem 5.1). A prefix is released only when
//! every target's test rejects, so the release probability for an exposed
//! target is ≤ γ whatever the dependence between targets' tests.
//!
//! The points are drawn per call, never shared across calls: the
//! sanitizer keeps no state, and a call's result depends only on its
//! arguments and the caller's RNG. `Lsp::process_query` relies on that
//! when it sanitizes candidates one by one on its RNG, and so does any
//! step-by-step replay that must reproduce its answer bit for bit.

use ppgnn_geo::{Aggregate, Poi, Point, Rect};
use ppgnn_telemetry as telemetry;
use rand::Rng;

use crate::attack::{sample_point, InequalitySystem};
use crate::params::HypothesisConfig;
use crate::stats::{reject_h0, sample_size};

/// How the sanitizer draws its `N_H` test points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// Independent uniform pseudo-random samples — the paper's method.
    Pseudo,
    /// A randomly-shifted Halton (2, 3) low-discrepancy sequence: the
    /// same Z-test with quasi-Monte-Carlo error `O(log N / N)` instead
    /// of `O(1/√N)` — an ablation on the §5.3 design choice.
    Halton,
}

/// LSP-side sanitizer for a fixed privacy configuration.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    theta0: f64,
    gamma: f64,
    n_samples: u64,
    space: Rect,
    sampler: SamplerKind,
}

/// The group minus `target`: the locations the colluders pool.
fn colluders(query_locations: &[Point], target: usize) -> Vec<Point> {
    query_locations
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != target)
        .map(|(_, p)| *p)
        .collect()
}

/// Van der Corput radical inverse in the given base.
fn radical_inverse(mut i: u64, base: u64) -> f64 {
    let mut inv = 1.0 / base as f64;
    let mut result = 0.0;
    while i > 0 {
        result += (i % base) as f64 * inv;
        i /= base;
        inv /= base as f64;
    }
    result
}

impl Sanitizer {
    /// Builds a sanitizer; `N_H` is derived from Theorem 5.1.
    pub fn new(theta0: f64, hypothesis: &HypothesisConfig, space: Rect) -> Self {
        let n_samples = sample_size(theta0, hypothesis.gamma, hypothesis.eta, hypothesis.phi);
        Sanitizer {
            theta0,
            gamma: hypothesis.gamma,
            n_samples,
            space,
            sampler: SamplerKind::Pseudo,
        }
    }

    /// Switches the sampling strategy.
    pub fn with_sampler(mut self, sampler: SamplerKind) -> Self {
        self.sampler = sampler;
        self
    }

    /// Draws the `N_H` test points of one call.
    fn draw_samples<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Point> {
        match self.sampler {
            SamplerKind::Pseudo => (0..self.n_samples)
                .map(|_| sample_point(&self.space, rng))
                .collect(),
            SamplerKind::Halton => {
                // Cranley–Patterson rotation keeps the sequence
                // unpredictable to an adversary while preserving the
                // low-discrepancy structure.
                let (sx, sy): (f64, f64) = (rng.gen(), rng.gen());
                (0..self.n_samples)
                    .map(|i| {
                        let x = (radical_inverse(i + 1, 2) + sx).fract();
                        let y = (radical_inverse(i + 1, 3) + sy).fract();
                        Point::new(
                            self.space.min_x + x * self.space.width(),
                            self.space.min_y + y * self.space.height(),
                        )
                    })
                    .collect()
            }
        }
    }

    /// The Monte-Carlo sample size `N_H` in use (Eqn 17).
    pub fn sample_count(&self) -> u64 {
        self.n_samples
    }

    /// The longest safe prefix length `t ∈ [min(1, len), len]` for the
    /// ranked `answer` to the candidate query at `query_locations`.
    ///
    /// A prefix is safe when, for every target user, the Z-test rejects
    /// `H₀: θ ≤ θ₀` — i.e. LSP is confident the target stays hidden in
    /// more than a `θ₀` fraction of the space.
    pub fn safe_prefix_len<R: Rng + ?Sized>(
        &self,
        answer: &[Poi],
        query_locations: &[Point],
        agg: Aggregate,
        rng: &mut R,
    ) -> usize {
        if answer.len() <= 1 {
            return answer.len(); // {p₁} is always safe (§5.2)
        }
        let n = query_locations.len();
        if n <= 1 {
            // Privacy IV only applies to groups (Definition 2.2).
            return answer.len();
        }
        let sanitation = telemetry::enter(telemetry::Layer::Sanitation);
        sanitation.attr(telemetry::trace::AttrKey::Users, n as u64);
        sanitation.attr(telemetry::trace::AttrKey::SetLen, answer.len() as u64);

        // Per target, the colluders' aggregate over each ranked POI.
        let stats: Vec<Vec<f64>> = (0..n)
            .map(|target| {
                InequalitySystem::new(answer, &colluders(query_locations, target), agg)
                    .colluder_stats()
                    .collect()
            })
            .collect();
        let samples = self.draw_samples(rng);
        // Each closure combines (stat, own) as `InequalitySystem::cost`.
        match agg {
            Aggregate::Sum => self.level_pass(answer, &stats, &samples, |stat, own| stat + own),
            Aggregate::Max => self.level_pass(answer, &stats, &samples, f64::max),
            Aggregate::Min => self.level_pass(answer, &stats, &samples, f64::min),
        }
    }

    /// The level-wise pass of [`Self::safe_prefix_len`] over one shared
    /// sample set, monomorphized per aggregate's `cost(stat, own)`.
    fn level_pass(
        &self,
        answer: &[Poi],
        stats: &[Vec<f64>],
        samples: &[Point],
        cost: impl Fn(f64, f64) -> f64,
    ) -> usize {
        let dists_to = |p: &Poi, out: &mut Vec<f64>| {
            out.clear();
            out.extend(samples.iter().map(|x| p.location.dist(x)));
        };
        let (mut prev, mut cur) = (Vec::new(), Vec::new());
        dists_to(&answer[0], &mut prev);
        let mut alive = vec![vec![1u8; samples.len()]; stats.len()];
        for t in 2..=answer.len() {
            // One span per prefix length: only the length under test and
            // the surviving-sample count appear, never sample points.
            let prefix = telemetry::enter(telemetry::Layer::SanitationPrefix);
            prefix.attr(telemetry::trace::AttrKey::PrefixLen, t as u64);
            dists_to(&answer[t - 1], &mut cur);
            let mut min_survivors = u64::MAX;
            let mut all_safe = true;
            for (stat, mask) in stats.iter().zip(&mut alive) {
                // F(p_{t-1}) ≤ F(p_t) for this target.
                let (stat_prev, stat_cur) = (stat[t - 2], stat[t - 1]);
                let mut survivors = 0u64;
                for ((m, &own_prev), &own_cur) in mask.iter_mut().zip(&prev).zip(&cur) {
                    *m &= u8::from(cost(stat_prev, own_prev) <= cost(stat_cur, own_cur));
                    survivors += u64::from(*m);
                }
                min_survivors = min_survivors.min(survivors);
                telemetry::global().incr(telemetry::Op::SanitationZTest);
                if !reject_h0(survivors, self.n_samples, self.theta0, self.gamma) {
                    // Once any target is exposed the prefix is rejected
                    // outright; the other targets need not be tested.
                    all_safe = false;
                    break;
                }
            }
            prefix.attr(telemetry::trace::AttrKey::Survivors, min_survivors);
            if !all_safe {
                return t - 1;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        answer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sanitizer(theta0: f64) -> Sanitizer {
        Sanitizer::new(theta0, &HypothesisConfig::default(), Rect::UNIT)
    }

    /// Builds a correctly-ranked answer for the given group.
    fn ranked_answer(pois: &mut [Poi], query: &[Point], agg: Aggregate) -> Vec<Poi> {
        pois.sort_by(|a, b| {
            agg.eval(&a.location, query)
                .total_cmp(&agg.eval(&b.location, query))
        });
        pois.to_vec()
    }

    /// The reference the level-wise pass must match: every target filters
    /// its own copy of `samples` with `retain`, one inequality per prefix
    /// length, stopping at the first unsafe prefix.
    fn per_target_filtering(
        s: &Sanitizer,
        answer: &[Poi],
        query: &[Point],
        agg: Aggregate,
        samples: &[Point],
    ) -> usize {
        if answer.len() <= 1 || query.len() <= 1 {
            return answer.len();
        }
        let mut targets: Vec<(InequalitySystem, Vec<Point>)> = (0..query.len())
            .map(|target| {
                let system = InequalitySystem::new(answer, &colluders(query, target), agg);
                (system, samples.to_vec())
            })
            .collect();
        for t in 2..=answer.len() {
            for (system, survivors) in &mut targets {
                survivors.retain(|x| system.satisfies(t - 2, x));
                if !reject_h0(survivors.len() as u64, s.n_samples, s.theta0, s.gamma) {
                    return t - 1;
                }
            }
        }
        answer.len()
    }

    #[test]
    fn level_pass_matches_per_target_filtering_on_the_same_points() {
        // N_H = 150 at θ₀ = 0.05 keeps the debug build fast; every 41st
        // case runs at the default N_H (12 116 at θ₀ = 0.05).
        let quick = HypothesisConfig {
            phi: 1.0,
            ..HypothesisConfig::default()
        };
        let mut gen = ChaCha8Rng::seed_from_u64(0x5a17);
        let mut kept = [0u32; 17];
        for case in 0..1200usize {
            let agg = Aggregate::ALL[case % 3];
            let sampler = [SamplerKind::Pseudo, SamplerKind::Halton][case / 3 % 2];
            let full_size = case % 41 == 0;
            let n: usize = gen.gen_range(2..=8);
            let k: usize = gen.gen_range(2..=16);
            let theta0: f64 = if full_size {
                gen.gen_range(0.05..=0.3)
            } else {
                gen.gen_range(0.01..=0.3)
            };
            let mut query: Vec<Point> = (0..n)
                .map(|_| sample_point(&Rect::UNIT, &mut gen))
                .collect();
            let mut pois: Vec<Poi> = (0..k as u32 + gen.gen_range(0..8))
                .map(|i| Poi::new(i, sample_point(&Rect::UNIT, &mut gen)))
                .collect();
            let shape = case / 6 % 4;
            match shape {
                // Colluders on one spot.
                1 => {
                    let spot = query[0];
                    query.iter_mut().skip(1).for_each(|q| *q = spot);
                }
                // A colluder term dominates: a far-off member under Sum
                // and Max, members on POIs under Min.
                2 => match agg {
                    Aggregate::Min => {
                        for (q, p) in query.iter_mut().zip(&pois).skip(1) {
                            *q = p.location;
                        }
                    }
                    _ => query[n - 1] = Point::new(4.0, -3.0),
                },
                // POIs at equal cost for every target location.
                3 => {
                    for i in (1..pois.len()).step_by(2) {
                        pois[i].location = pois[i - 1].location;
                    }
                }
                _ => {}
            }
            let answer = ranked_answer(&mut pois, &query, agg)[..k].to_vec();
            let hypothesis = if full_size {
                HypothesisConfig::default()
            } else {
                quick
            };
            let s = Sanitizer::new(theta0, &hypothesis, Rect::UNIT).with_sampler(sampler);
            let seed: u64 = gen.gen();
            let mut reference_rng = ChaCha8Rng::seed_from_u64(seed);
            let samples = s.draw_samples(&mut reference_rng);
            let want = per_target_filtering(&s, &answer, &query, agg, &samples);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let got = s.safe_prefix_len(&answer, &query, agg, &mut rng);
            assert_eq!(
                got, want,
                "case {case}: n={n} k={k} {agg} {sampler:?} θ0={theta0} shape {shape}"
            );
            // The call drew exactly one sample set from the caller's RNG.
            assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>(), "case {case}");
            kept[got] += 1;
        }
        // The cases cut early, release whole answers, and stop in between.
        assert!(kept[1] > 0 && kept[2..8].iter().all(|&c| c > 0), "{kept:?}");
        assert!(kept[9..].iter().any(|&c| c > 0), "{kept:?}");
    }

    #[test]
    fn sample_size_matches_theorem() {
        let s = sanitizer(0.05);
        assert_eq!(s.sample_count(), sample_size(0.05, 0.05, 0.2, 0.1));
    }

    #[test]
    fn empty_and_singleton_answers_pass_through() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let s = sanitizer(0.05);
        let q = vec![Point::new(0.1, 0.1), Point::new(0.9, 0.9)];
        assert_eq!(s.safe_prefix_len(&[], &q, Aggregate::Sum, &mut rng), 0);
        let one = [Poi::new(0, Point::new(0.5, 0.5))];
        assert_eq!(s.safe_prefix_len(&one, &q, Aggregate::Sum, &mut rng), 1);
    }

    #[test]
    fn single_user_group_skips_sanitation() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let s = sanitizer(0.05);
        let answer: Vec<Poi> = (0..5)
            .map(|i| Poi::new(i, Point::new(i as f64 / 5.0, 0.5)))
            .collect();
        assert_eq!(
            s.safe_prefix_len(&answer, &[Point::new(0.0, 0.5)], Aggregate::Sum, &mut rng),
            5
        );
    }

    #[test]
    fn tight_theta0_permits_longer_prefixes() {
        // A smaller θ0 is a weaker requirement on the attacker's region,
        // so prefixes stay safe longer (Figure 7c's trend).
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let query: Vec<Point> = vec![
            Point::new(0.2, 0.3),
            Point::new(0.7, 0.6),
            Point::new(0.4, 0.8),
            Point::new(0.6, 0.2),
        ];
        let mut pois: Vec<Poi> = (0..16)
            .map(|i| {
                Poi::new(
                    i,
                    Point::new(((i * 7) % 16) as f64 / 16.0, ((i * 5) % 16) as f64 / 16.0),
                )
            })
            .collect();
        let answer = ranked_answer(&mut pois, &query, Aggregate::Sum);

        let loose = sanitizer(0.30).safe_prefix_len(&answer, &query, Aggregate::Sum, &mut rng);
        let tight = sanitizer(0.01).safe_prefix_len(&answer, &query, Aggregate::Sum, &mut rng);
        assert!(tight >= loose, "θ0=0.01 gave {tight}, θ0=0.3 gave {loose}");
    }

    #[test]
    fn full_answer_safe_when_region_stays_large() {
        // POIs clustered in a tiny blob far from the group: their relative
        // order conveys almost nothing about any single user, so the whole
        // answer should survive at a modest θ0.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let query = vec![
            Point::new(0.1, 0.1),
            Point::new(0.12, 0.13),
            Point::new(0.09, 0.14),
        ];
        let mut pois: Vec<Poi> = (0..4)
            .map(|i| Poi::new(i, Point::new(0.9 + (i as f64) * 1e-6, 0.9)))
            .collect();
        let answer = ranked_answer(&mut pois, &query, Aggregate::Sum);
        let len = sanitizer(0.001).safe_prefix_len(&answer, &query, Aggregate::Sum, &mut rng);
        assert_eq!(len, 4);
    }

    #[test]
    fn prefix_shrinks_when_answer_pins_target() {
        // A long, informative ranked answer around a 2-user group at a
        // strict θ0 must be truncated.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let query = vec![Point::new(0.3, 0.5), Point::new(0.7, 0.5)];
        let mut pois: Vec<Poi> = (0..32)
            .map(|i| {
                Poi::new(
                    i,
                    Point::new(((i * 13) % 32) as f64 / 32.0, ((i * 11) % 32) as f64 / 32.0),
                )
            })
            .collect();
        let answer = ranked_answer(&mut pois, &query, Aggregate::Sum);
        let len = sanitizer(0.5).safe_prefix_len(&answer, &query, Aggregate::Sum, &mut rng);
        assert!(len < 32, "a 32-POI ranked answer cannot keep θ > 0.5");
        assert!(len >= 1);
    }

    #[test]
    fn sanitized_prefix_defeats_the_attack() {
        // End-to-end §5.4 check: after sanitation, the colluders' region
        // estimate stays above θ0 for every target.
        use crate::attack::feasible_region_fraction;
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let theta0 = 0.10;
        let query = vec![
            Point::new(0.25, 0.4),
            Point::new(0.65, 0.7),
            Point::new(0.5, 0.15),
        ];
        let mut pois: Vec<Poi> = (0..24)
            .map(|i| {
                Poi::new(
                    i,
                    Point::new(((i * 17) % 24) as f64 / 24.0, ((i * 7) % 24) as f64 / 24.0),
                )
            })
            .collect();
        let answer = ranked_answer(&mut pois, &query, Aggregate::Sum);
        let len = sanitizer(theta0).safe_prefix_len(&answer, &query, Aggregate::Sum, &mut rng);
        let safe = &answer[..len];
        for target in 0..query.len() {
            let colluders: Vec<Point> = query
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != target)
                .map(|(_, p)| *p)
                .collect();
            let theta = feasible_region_fraction(
                safe,
                &colluders,
                Aggregate::Sum,
                &Rect::UNIT,
                20_000,
                &mut rng,
            );
            // γ = 0.05 Type-I error: allow a little statistical slack.
            assert!(theta > theta0 * 0.8, "target {target} exposed: θ = {theta}");
        }
    }

    #[test]
    fn halton_sampler_agrees_with_pseudo() {
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        let query = vec![
            Point::new(0.3, 0.4),
            Point::new(0.7, 0.5),
            Point::new(0.5, 0.8),
        ];
        let mut pois: Vec<Poi> = (0..12)
            .map(|i| {
                Poi::new(
                    i,
                    Point::new(((i * 5) % 12) as f64 / 12.0, ((i * 7) % 12) as f64 / 12.0),
                )
            })
            .collect();
        let answer = ranked_answer(&mut pois, &query, Aggregate::Sum);
        let pseudo = sanitizer(0.05).safe_prefix_len(&answer, &query, Aggregate::Sum, &mut rng);
        let halton = sanitizer(0.05)
            .with_sampler(SamplerKind::Halton)
            .safe_prefix_len(&answer, &query, Aggregate::Sum, &mut rng);
        // The estimators target the same θ; prefixes may differ by at
        // most the boundary step.
        assert!(
            (pseudo as i64 - halton as i64).abs() <= 1,
            "{pseudo} vs {halton}"
        );
    }

    #[test]
    fn halton_estimates_area_more_accurately() {
        // Quasi-MC beats pseudo-MC at equal sample count on a smooth
        // indicator: estimate the area of an axis-aligned box.
        let inside = |p: &Point| p.x < 0.37 && p.y < 0.61;
        let exact = 0.37 * 0.61;
        let n = 4096u64;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let s = Sanitizer {
            theta0: 0.05,
            gamma: 0.05,
            n_samples: n,
            space: Rect::UNIT,
            sampler: SamplerKind::Halton,
        };
        let halton_pts = s.draw_samples(&mut rng);
        let halton_est = halton_pts.iter().filter(|p| inside(p)).count() as f64 / n as f64;
        let mut pseudo_err_sum = 0.0;
        for seed in 0..5 {
            let mut prng = ChaCha8Rng::seed_from_u64(100 + seed);
            let pseudo_pts: Vec<Point> = (0..n)
                .map(|_| crate::attack::sample_point(&Rect::UNIT, &mut prng))
                .collect();
            let est = pseudo_pts.iter().filter(|p| inside(p)).count() as f64 / n as f64;
            pseudo_err_sum += (est - exact).abs();
        }
        let pseudo_err = pseudo_err_sum / 5.0;
        assert!(
            (halton_est - exact).abs() < pseudo_err * 2.0,
            "halton err {} should rival pseudo err {pseudo_err}",
            (halton_est - exact).abs()
        );
    }

    #[test]
    fn radical_inverse_properties() {
        assert_eq!(radical_inverse(0, 2), 0.0);
        assert_eq!(radical_inverse(1, 2), 0.5);
        assert_eq!(radical_inverse(2, 2), 0.25);
        assert_eq!(radical_inverse(3, 2), 0.75);
        assert!((radical_inverse(1, 3) - 1.0 / 3.0).abs() < 1e-12);
        for i in 0..100 {
            let v = radical_inverse(i, 5);
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn monotone_in_prefix_length() {
        // If prefix t is reported safe, every shorter prefix must be safe
        // too — the search stops at the first unsafe extension, so the
        // reported length is well-defined.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let query = vec![Point::new(0.4, 0.4), Point::new(0.6, 0.6)];
        let mut pois: Vec<Poi> = (0..12)
            .map(|i| {
                Poi::new(
                    i,
                    Point::new((i as f64) / 12.0, ((i * 3) % 12) as f64 / 12.0),
                )
            })
            .collect();
        let answer = ranked_answer(&mut pois, &query, Aggregate::Sum);
        let s = sanitizer(0.05);
        let len_full = s.safe_prefix_len(&answer, &query, Aggregate::Sum, &mut rng);
        let len_clipped = s.safe_prefix_len(&answer[..len_full], &query, Aggregate::Sum, &mut rng);
        assert_eq!(len_clipped, len_full);
    }
}
