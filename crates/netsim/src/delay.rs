//! Link delay models.
//!
//! The paper's correctness argument must hold for *any* finite message delays
//! (the algorithm is event-driven), while its time-complexity analysis assumes
//! every delay is at most one unit. The delay models below let the experiments
//! cover both readings: unit delays reproduce the analysis, seeded random and
//! adversarial per-link delays stress the asynchrony-tolerance of the
//! protocol (ablation A2).

use mdst_graph::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How long a message spends on a link before delivery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum DelayModel {
    /// Every message takes exactly one time unit — the paper's accounting
    /// assumption, and the configuration under which the measured "time" is
    /// comparable to the claimed `O((k−k*)·n)`.
    #[default]
    Unit,
    /// Every message takes an independent uniformly random delay in
    /// `[min, max]` (inclusive), drawn from a deterministic stream seeded by
    /// `seed` so runs stay reproducible.
    UniformRandom {
        /// Smallest possible delay (≥ 1).
        min: u64,
        /// Largest possible delay.
        max: u64,
        /// RNG seed for the delay stream.
        seed: u64,
    },
    /// Each *directed link* has a fixed delay derived deterministically from
    /// the seed and the endpoints, between `min` and `max`. This creates a
    /// consistently skewed network (some links always slow), the classic
    /// adversarial setting for asynchronous algorithms.
    PerLinkFixed {
        /// Smallest possible delay (≥ 1).
        min: u64,
        /// Largest possible delay.
        max: u64,
        /// Seed mixed into the per-link hash.
        seed: u64,
    },
}

impl DelayModel {
    /// Checks the documented invariants of the ranged models: `min ≥ 1` and
    /// `min ≤ max`. The simulator calls this before a run starts, so
    /// degenerate ranges are rejected up front instead of being silently
    /// clamped deep inside the delay sampler.
    pub fn validate(&self) -> Result<(), String> {
        let (name, min, max) = match *self {
            DelayModel::Unit => return Ok(()),
            DelayModel::UniformRandom { min, max, .. } => ("uniform random", min, max),
            DelayModel::PerLinkFixed { min, max, .. } => ("per-link fixed", min, max),
        };
        if min == 0 {
            return Err(format!(
                "{name} delay model: min delay must be at least 1, got 0"
            ));
        }
        if max < min {
            return Err(format!("{name} delay model: empty range [{min}, {max}]"));
        }
        Ok(())
    }

    /// Builds a stateful sampler for this model.
    ///
    /// The sampler clamps degenerate ranges (`max < min`, `min = 0`) as a
    /// defence in depth; use [`DelayModel::validate`] to reject them with a
    /// proper error instead.
    pub fn sampler(&self) -> DelaySampler {
        match *self {
            DelayModel::Unit => DelaySampler::Unit,
            DelayModel::UniformRandom { min, max, seed } => {
                let min = min.max(1);
                DelaySampler::UniformRandom {
                    min,
                    max: max.max(min),
                    rng: SmallRng::seed_from_u64(seed),
                }
            }
            DelayModel::PerLinkFixed { min, max, seed } => {
                let min = min.max(1);
                DelaySampler::PerLinkFixed {
                    min,
                    max: max.max(min),
                    seed,
                }
            }
        }
    }
}

/// Stateful delay sampler produced by [`DelayModel::sampler`].
#[derive(Debug)]
pub enum DelaySampler {
    /// See [`DelayModel::Unit`].
    Unit,
    /// See [`DelayModel::UniformRandom`].
    UniformRandom {
        /// Smallest possible delay.
        min: u64,
        /// Largest possible delay.
        max: u64,
        /// Underlying deterministic RNG.
        rng: SmallRng,
    },
    /// See [`DelayModel::PerLinkFixed`].
    PerLinkFixed {
        /// Smallest possible delay.
        min: u64,
        /// Largest possible delay.
        max: u64,
        /// Seed mixed into the per-link hash.
        seed: u64,
    },
}

impl DelaySampler {
    /// Delay (≥ 1) of the next message sent on the directed link `from → to`.
    pub fn sample(&mut self, from: NodeId, to: NodeId) -> u64 {
        match self {
            DelaySampler::Unit => 1,
            DelaySampler::UniformRandom { min, max, rng } => rng.gen_range(*min..=*max).max(1),
            DelaySampler::PerLinkFixed { min, max, seed } => {
                // SplitMix64-style mix of (seed, from, to) so the delay is a
                // stable function of the directed link.
                let mut x = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((from.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                    .wrapping_add((to.index() as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                let span = *max - *min + 1;
                (*min + x % span).max(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_delay_is_always_one() {
        let mut s = DelayModel::Unit.sampler();
        for i in 0..10 {
            assert_eq!(s.sample(NodeId(i), NodeId(i + 1)), 1);
        }
    }

    #[test]
    fn uniform_delay_respects_bounds_and_seed() {
        let model = DelayModel::UniformRandom {
            min: 2,
            max: 7,
            seed: 3,
        };
        let mut a = model.sampler();
        let mut b = model.sampler();
        for i in 0..100 {
            let d = a.sample(NodeId(0), NodeId(1));
            assert!((2..=7).contains(&d));
            assert_eq!(
                d,
                b.sample(NodeId(0), NodeId(1)),
                "sample {i} must be reproducible"
            );
        }
    }

    #[test]
    fn per_link_delay_is_stable_per_link_but_varies_across_links() {
        let model = DelayModel::PerLinkFixed {
            min: 1,
            max: 10,
            seed: 9,
        };
        let mut s = model.sampler();
        let d01 = s.sample(NodeId(0), NodeId(1));
        assert_eq!(d01, s.sample(NodeId(0), NodeId(1)));
        // Not all links share the same delay (with overwhelming probability
        // over the fixed hash; these specific links differ for seed 9).
        let all_same = (0..20).all(|i| s.sample(NodeId(i), NodeId(i + 1)) == d01);
        assert!(!all_same);
        for i in 0..20 {
            let d = s.sample(NodeId(i), NodeId(2 * i + 1));
            assert!((1..=10).contains(&d));
        }
    }

    #[test]
    fn degenerate_ranges_are_clamped() {
        let mut s = DelayModel::UniformRandom {
            min: 5,
            max: 3,
            seed: 1,
        }
        .sampler();
        assert_eq!(s.sample(NodeId(0), NodeId(1)), 5);
        // A zero min is raised to 1 at sampler construction, for both ranged
        // models, so no delay of 0 can sneak through even without validation.
        let mut zero_uniform = DelayModel::UniformRandom {
            min: 0,
            max: 0,
            seed: 2,
        }
        .sampler();
        assert_eq!(zero_uniform.sample(NodeId(0), NodeId(1)), 1);
        let mut zero_per_link = DelayModel::PerLinkFixed {
            min: 0,
            max: 3,
            seed: 2,
        }
        .sampler();
        for i in 0..32 {
            assert!(zero_per_link.sample(NodeId(i), NodeId(i + 1)) >= 1);
        }
    }

    #[test]
    fn validate_rejects_degenerate_ranges() {
        assert!(DelayModel::Unit.validate().is_ok());
        for (min, max, ok) in [(1, 1, true), (2, 9, true), (0, 5, false), (5, 3, false)] {
            let uniform = DelayModel::UniformRandom { min, max, seed: 1 };
            let per_link = DelayModel::PerLinkFixed { min, max, seed: 1 };
            assert_eq!(uniform.validate().is_ok(), ok, "uniform [{min}, {max}]");
            assert_eq!(per_link.validate().is_ok(), ok, "per-link [{min}, {max}]");
        }
        let err = DelayModel::UniformRandom {
            min: 0,
            max: 4,
            seed: 0,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }
}
