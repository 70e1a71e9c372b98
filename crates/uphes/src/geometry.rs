//! Reservoir geometry: the nonlinear volume ↔ level maps behind the
//! head effects.
//!
//! The upper reservoir is a surface basin with gently sloped banks
//! (cross-section grows with level); the lower reservoir is a recycled
//! open-pit mine modelled as an inverted cone frustum whose plan area
//! shrinks toward the bottom — so its level reacts strongly to volume
//! changes near empty, which is exactly why Maizeret-class UPHES plants
//! see "important variations of the net hydraulic head" (paper §2.1).

/// A reservoir with a power-law area profile:
/// `A(z) = a_bottom + (a_top − a_bottom) · (z / depth)^shape`,
/// `z` measured from the reservoir floor. `shape = 0` ⇒ prismatic;
/// `shape > 0` ⇒ funnel (pit-like).
#[derive(Debug, Clone)]
pub struct Reservoir {
    /// Plan area at the floor \[m²\].
    pub area_bottom: f64,
    /// Plan area at the rim \[m²\].
    pub area_top: f64,
    /// Water depth at full \[m\].
    pub depth: f64,
    /// Area profile exponent (0 = prismatic walls).
    pub shape: f64,
    /// Elevation of the floor relative to the site datum \[m\].
    pub floor_elevation: f64,
}

impl Reservoir {
    /// Total volume when full \[m³\] (analytic integral of `A(z)`).
    pub fn capacity(&self) -> f64 {
        self.volume_at_level(self.depth)
    }

    /// Volume held when the water level is `z` above the floor.
    pub fn volume_at_level(&self, z: f64) -> f64 {
        let z = z.clamp(0.0, self.depth);
        let da = self.area_top - self.area_bottom;
        self.area_bottom * z
            + da * self.depth / (self.shape + 1.0) * (z / self.depth).powf(self.shape + 1.0)
    }

    /// Water level above the floor for a stored volume (monotone inverse
    /// of [`Self::volume_at_level`], solved by bisection to 1 mm).
    pub fn level_at_volume(&self, v: f64) -> f64 {
        let v = v.clamp(0.0, self.capacity());
        if v <= 0.0 {
            return 0.0;
        }
        if v >= self.capacity() {
            return self.depth;
        }
        let (mut lo, mut hi) = (0.0, self.depth);
        while hi - lo > 1e-3 {
            let mid = 0.5 * (lo + hi);
            if self.volume_at_level(mid) < v {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Absolute water-surface elevation for a stored volume.
    pub fn surface_elevation(&self, v: f64) -> f64 {
        self.floor_elevation + self.level_at_volume(v)
    }
}

/// The Maizeret-like upper basin: shallow surface reservoir, mildly
/// sloped banks, rim at site datum.
pub fn default_upper() -> Reservoir {
    Reservoir {
        area_bottom: 38_000.0,
        area_top: 52_000.0,
        depth: 12.0,
        shape: 1.0,
        floor_elevation: -12.0, // rim at 0 m (datum)
    }
}

/// The recycled open-pit lower basin: deep funnel far underground.
/// Sized so one 3-hour block of full-power operation moves the net head
/// by roughly 5 m — strong head effects without making sustained
/// operation impossible.
pub fn default_lower() -> Reservoir {
    Reservoir {
        area_bottom: 9_000.0,
        area_top: 40_000.0,
        depth: 40.0,
        shape: 2.0,
        floor_elevation: -110.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_of_prism_is_area_times_depth() {
        let r = Reservoir {
            area_bottom: 100.0,
            area_top: 100.0,
            depth: 10.0,
            shape: 0.0,
            floor_elevation: 0.0,
        };
        assert!((r.capacity() - 1000.0).abs() < 1e-9);
        assert!((r.volume_at_level(4.0) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn volume_level_roundtrip() {
        for r in [default_upper(), default_lower()] {
            for frac in [0.05, 0.3, 0.6, 0.95] {
                let v = frac * r.capacity();
                let z = r.level_at_volume(v);
                assert!(
                    (r.volume_at_level(z) - v).abs() < r.area_top * 2e-3,
                    "roundtrip at frac {frac}"
                );
            }
        }
    }

    #[test]
    fn level_is_monotone_in_volume() {
        let r = default_lower();
        let mut prev = -1.0;
        for i in 0..=20 {
            let z = r.level_at_volume(r.capacity() * i as f64 / 20.0);
            assert!(z >= prev);
            prev = z;
        }
    }

    #[test]
    fn pit_level_moves_faster_near_empty() {
        // Funnel shape: the same volume increment raises the level more
        // when the pit is nearly empty than when nearly full.
        let r = default_lower();
        let dv = 0.05 * r.capacity();
        let rise_low = r.level_at_volume(dv) - r.level_at_volume(0.0);
        let rise_high = r.level_at_volume(r.capacity()) - r.level_at_volume(r.capacity() - dv);
        assert!(rise_low > 1.5 * rise_high, "{rise_low} vs {rise_high}");
    }

    #[test]
    fn default_plant_head_is_plausible() {
        // Half-full both: head must be several tens of meters (the site
        // is designed around ~75 m nominal).
        let up = default_upper();
        let lo = default_lower();
        let head =
            up.surface_elevation(0.5 * up.capacity()) - lo.surface_elevation(0.5 * lo.capacity());
        assert!((50.0..110.0).contains(&head), "head {head}");
    }

    #[test]
    fn clamping_out_of_range_inputs() {
        let r = default_upper();
        assert_eq!(r.level_at_volume(-5.0), 0.0);
        assert!((r.volume_at_level(1e9) - r.capacity()).abs() < 1e-6);
    }
}
