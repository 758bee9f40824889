//! Host selection policies.
//!
//! The system manager "has functionality to determine the machine with the
//! currently best performance" (§2); [`BestPerformance`] is that policy.
//! The others exist as baselines for the policy ablation benchmark.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The system manager's view of one selectable host, after freshness
/// filtering and reservation accounting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostView {
    /// Host id.
    pub host: u32,
    /// Benchmark speed (work units per second).
    pub speed: f64,
    /// Effective load: reported load average plus outstanding placement
    /// reservations.
    pub eff_load: f64,
    /// Reported CPU utilization in [0, 1].
    pub cpu_util: f64,
}

/// The score [`BestPerformance`] maximizes: expected delivered speed if one
/// more runnable process is placed on the host. With `n` runnable
/// processes, a new arrival gets roughly `speed / (n + 1)`.
pub fn performance_score(v: &HostView) -> f64 {
    v.speed / (1.0 + v.eff_load.max(0.0))
}

/// A pluggable host selection policy.
pub trait SelectionPolicy: Send {
    /// Pick one of the candidate hosts, or `None` if the slice is empty.
    fn select(&mut self, candidates: &[HostView]) -> Option<u32>;

    /// Short policy name for reports.
    fn name(&self) -> &'static str;
}

/// Pick the host with the best expected delivered speed (ties: lowest id,
/// so selection is deterministic).
#[derive(Clone, Copy, Debug, Default)]
pub struct BestPerformance;

impl SelectionPolicy for BestPerformance {
    fn select(&mut self, candidates: &[HostView]) -> Option<u32> {
        candidates
            .iter()
            .max_by(|a, b| {
                performance_score(a)
                    .total_cmp(&performance_score(b))
                    .then(b.host.cmp(&a.host))
            })
            .map(|v| v.host)
    }

    fn name(&self) -> &'static str {
        "best-performance"
    }
}

/// Pick the host with the lowest effective load (ties: fastest, then
/// lowest id). Ignores speed differences until a tie.
#[derive(Clone, Copy, Debug, Default)]
pub struct LeastLoaded;

impl SelectionPolicy for LeastLoaded {
    fn select(&mut self, candidates: &[HostView]) -> Option<u32> {
        candidates
            .iter()
            .min_by(|a, b| {
                a.eff_load
                    .total_cmp(&b.eff_load)
                    .then(b.speed.total_cmp(&a.speed))
                    .then(a.host.cmp(&b.host))
            })
            .map(|v| v.host)
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// Uniform random choice (seeded; deterministic per instance).
#[derive(Clone, Debug)]
pub struct Uniform {
    rng: SmallRng,
}

impl Uniform {
    /// A uniform policy with the given seed.
    pub fn new(seed: u64) -> Self {
        Uniform {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl SelectionPolicy for Uniform {
    fn select(&mut self, candidates: &[HostView]) -> Option<u32> {
        if candidates.is_empty() {
            return None;
        }
        let mut hosts: Vec<u32> = candidates.iter().map(|v| v.host).collect();
        hosts.sort_unstable();
        Some(hosts[self.rng.random_range(0..hosts.len())])
    }

    fn name(&self) -> &'static str {
        "uniform-random"
    }
}

/// Random choice weighted by the performance score: spreads load while
/// still favouring fast idle hosts.
#[derive(Clone, Debug)]
pub struct WeightedRandom {
    rng: SmallRng,
}

impl WeightedRandom {
    /// A weighted-random policy with the given seed.
    pub fn new(seed: u64) -> Self {
        WeightedRandom {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl SelectionPolicy for WeightedRandom {
    fn select(&mut self, candidates: &[HostView]) -> Option<u32> {
        if candidates.is_empty() {
            return None;
        }
        let mut sorted: Vec<&HostView> = candidates.iter().collect();
        sorted.sort_unstable_by_key(|v| v.host);
        let total: f64 = sorted.iter().map(|v| performance_score(v).max(1e-12)).sum();
        let mut pick = self.rng.random_range(0.0..total);
        for v in &sorted {
            let w = performance_score(v).max(1e-12);
            if pick < w {
                return Some(v.host);
            }
            pick -= w;
        }
        Some(sorted[sorted.len() - 1].host)
    }

    fn name(&self) -> &'static str {
        "weighted-random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views() -> Vec<HostView> {
        vec![
            HostView {
                host: 0,
                speed: 1.0,
                eff_load: 1.0, // loaded
                cpu_util: 1.0,
            },
            HostView {
                host: 1,
                speed: 1.0,
                eff_load: 0.0, // idle
                cpu_util: 0.0,
            },
            HostView {
                host: 2,
                speed: 2.0,
                eff_load: 1.0, // fast but loaded
                cpu_util: 1.0,
            },
        ]
    }

    #[test]
    fn best_performance_prefers_idle_host() {
        // score: h0 = 0.5, h1 = 1.0, h2 = 1.0 → tie h1/h2 broken to lower id.
        assert_eq!(BestPerformance.select(&views()), Some(1));
    }

    #[test]
    fn best_performance_prefers_fast_host_when_all_idle() {
        let mut vs = views();
        for v in &mut vs {
            v.eff_load = 0.0;
        }
        assert_eq!(BestPerformance.select(&vs), Some(2));
    }

    #[test]
    fn least_loaded_ignores_speed_until_tie() {
        assert_eq!(LeastLoaded.select(&views()), Some(1));
        let mut vs = views();
        vs[1].eff_load = 1.0; // all tied at 1.0 → fastest wins
        assert_eq!(LeastLoaded.select(&vs), Some(2));
    }

    #[test]
    fn empty_candidates_give_none() {
        assert_eq!(BestPerformance.select(&[]), None);
        assert_eq!(LeastLoaded.select(&[]), None);
        assert_eq!(Uniform::new(1).select(&[]), None);
        assert_eq!(WeightedRandom::new(1).select(&[]), None);
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a: Vec<_> = {
            let mut p = Uniform::new(7);
            (0..10).map(|_| p.select(&views()).unwrap()).collect()
        };
        let b: Vec<_> = {
            let mut p = Uniform::new(7);
            (0..10).map(|_| p.select(&views()).unwrap()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_random_favours_better_hosts() {
        let mut p = WeightedRandom::new(42);
        let mut counts = [0u32; 3];
        for _ in 0..3000 {
            counts[p.select(&views()).unwrap() as usize] += 1;
        }
        // h1 and h2 (score 1.0) should each beat h0 (score 0.5) clearly.
        assert!(counts[1] > counts[0], "{counts:?}");
        assert!(counts[2] > counts[0], "{counts:?}");
    }

    #[test]
    fn performance_score_degrades_with_load() {
        let idle = HostView {
            host: 0,
            speed: 1.0,
            eff_load: 0.0,
            cpu_util: 0.0,
        };
        let busy = HostView {
            eff_load: 1.0,
            ..idle
        };
        assert!(performance_score(&idle) > performance_score(&busy));
        assert!((performance_score(&busy) - 0.5).abs() < 1e-12);
    }
}
