//! TuRBO's trust-region state machine (Eriksson et al., 2019; one trust
//! region, as used in the paper / the BoTorch implementation).
//!
//! The trust region is a hyper-rectangle centered at the incumbent. Its
//! base side length `L` doubles after `success_tol` consecutive
//! improving cycles and halves after `fail_tol` consecutive
//! non-improving ones; when `L` collapses below `L_min` the region is
//! restarted at full size. Per-dimension side lengths are modulated by
//! the GP's ARD lengthscales, normalized to preserve the total volume
//! `L^d` — the "re-scaling according to the length scale λ_i" the paper
//! describes.

use pbo_opt::Bounds;

/// Trust-region parameters (Eriksson et al. defaults).
#[derive(Debug, Clone)]
pub struct TrustRegionConfig {
    /// Initial and post-restart base length.
    pub l_init: f64,
    /// Minimum base length before a restart.
    pub l_min: f64,
    /// Maximum base length.
    pub l_max: f64,
    /// Consecutive successes before expansion.
    pub success_tol: usize,
    /// Consecutive failures before shrinking.
    pub fail_tol: usize,
}

impl Default for TrustRegionConfig {
    fn default() -> Self {
        TrustRegionConfig {
            l_init: 0.8,
            l_min: 0.5f64.powi(7),
            l_max: 1.6,
            success_tol: 3,
            fail_tol: 4,
        }
    }
}

/// Mutable trust-region state.
#[derive(Debug, Clone)]
pub struct TrustRegion {
    cfg: TrustRegionConfig,
    length: f64,
    successes: usize,
    failures: usize,
    restarts: usize,
}

impl TrustRegion {
    /// Fresh region at the initial length.
    pub fn new(cfg: TrustRegionConfig) -> Self {
        let length = cfg.l_init;
        TrustRegion { cfg, length, successes: 0, failures: 0, restarts: 0 }
    }

    /// Current base side length.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Number of restarts so far.
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// The hyper-rectangle around `center` (unit-cube coordinates) with
    /// per-dimension sides scaled by the ARD lengthscales, clipped to
    /// the unit cube.
    pub fn bounds(&self, center: &[f64], lengthscales: &[f64]) -> Bounds {
        let d = center.len();
        debug_assert_eq!(lengthscales.len(), d);
        // Volume-preserving weights: λ_i / geometric-mean(λ).
        let log_mean: f64 = lengthscales.iter().map(|l| l.max(1e-12).ln()).sum::<f64>() / d as f64;
        let gm = log_mean.exp();
        let mut lo = Vec::with_capacity(d);
        let mut hi = Vec::with_capacity(d);
        for i in 0..d {
            let w = (lengthscales[i].max(1e-12) / gm).clamp(0.1, 10.0);
            let half = 0.5 * self.length * w;
            lo.push((center[i] - half).max(0.0));
            hi.push((center[i] + half).min(1.0).max((center[i] - half).max(0.0)));
        }
        Bounds::new(lo, hi)
    }

    /// Report a cycle outcome: `improved` = the batch improved the
    /// incumbent. Returns `true` if the region was restarted.
    pub fn update(&mut self, improved: bool) -> bool {
        if improved {
            self.successes += 1;
            self.failures = 0;
            if self.successes >= self.cfg.success_tol {
                self.length = (2.0 * self.length).min(self.cfg.l_max);
                self.successes = 0;
            }
        } else {
            self.failures += 1;
            self.successes = 0;
            if self.failures >= self.cfg.fail_tol {
                self.length *= 0.5;
                self.failures = 0;
            }
        }
        if self.length < self.cfg.l_min {
            self.length = self.cfg.l_init;
            self.successes = 0;
            self.failures = 0;
            self.restarts += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expands_after_consecutive_successes() {
        let mut tr = TrustRegion::new(TrustRegionConfig::default());
        let l0 = tr.length();
        for _ in 0..3 {
            tr.update(true);
        }
        assert!((tr.length() - (2.0 * l0).min(1.6)).abs() < 1e-12);
    }

    #[test]
    fn shrinks_after_consecutive_failures() {
        let mut tr = TrustRegion::new(TrustRegionConfig::default());
        let l0 = tr.length();
        for _ in 0..4 {
            tr.update(false);
        }
        assert!((tr.length() - 0.5 * l0).abs() < 1e-12);
    }

    #[test]
    fn success_resets_failure_count() {
        let mut tr = TrustRegion::new(TrustRegionConfig::default());
        let l0 = tr.length();
        for _ in 0..3 {
            tr.update(false);
        }
        tr.update(true);
        for _ in 0..3 {
            tr.update(false);
        }
        assert_eq!(tr.length(), l0, "failure streak must reset on success");
    }

    #[test]
    fn restart_after_collapse() {
        let mut tr = TrustRegion::new(TrustRegionConfig::default());
        let mut restarted = false;
        for _ in 0..200 {
            restarted |= tr.update(false);
            if restarted {
                break;
            }
        }
        assert!(restarted);
        assert_eq!(tr.length(), 0.8);
        assert_eq!(tr.restarts(), 1);
    }

    #[test]
    fn bounds_clip_to_unit_cube_and_follow_lengthscales() {
        let tr = TrustRegion::new(TrustRegionConfig::default());
        let b = tr.bounds(&[0.05, 0.9], &[0.1, 1.0]);
        assert!(b.lo()[0] >= 0.0 && b.hi()[1] <= 1.0);
        // Dimension with the larger lengthscale gets the wider side
        // (before clipping): compare at an interior center.
        let b2 = tr.bounds(&[0.5, 0.5], &[0.1, 1.0]);
        let w = b2.widths();
        assert!(w[1] > w[0], "widths {w:?}");
        // Volume preservation (product of weights = 1): check with a
        // small region so no side is clipped by the cube.
        let small = TrustRegion::new(TrustRegionConfig { l_init: 0.4, ..Default::default() });
        let b3 = small.bounds(&[0.5, 0.5], &[0.5, 0.8]);
        let vol: f64 = b3.widths().iter().product();
        assert!((vol - 0.4 * 0.4).abs() < 1e-9, "vol {vol}");
    }

    #[test]
    fn degenerate_lengthscales_do_not_panic() {
        let tr = TrustRegion::new(TrustRegionConfig::default());
        let b = tr.bounds(&[0.5, 0.5], &[1e-30, 1e30]);
        assert!(b.lo().iter().zip(b.hi()).all(|(l, h)| l <= h));
    }
}
