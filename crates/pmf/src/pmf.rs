use crate::{PmfError, Prob, Tick};

/// Tolerance used when checking that total probability mass does not exceed 1,
/// and when deciding whether a PMF is (still) normalised.
pub const MASS_EPSILON: f64 = 1e-6;

/// A single probability impulse: `P(X = t) = p`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Impulse {
    /// Time tick at which the impulse sits.
    pub t: Tick,
    /// Probability mass of the impulse (always `> 0` inside a [`Pmf`]).
    pub p: Prob,
}

/// A discrete probability mass function over integer time ticks.
///
/// Invariants maintained by every constructor and operation:
///
/// * impulses are sorted by tick, strictly increasing (no duplicate ticks);
/// * every impulse has finite probability `> 0` (zero-mass impulses are
///   coalesced away);
/// * total mass is at most `1 + MASS_EPSILON`.
///
/// Total mass *may* be below 1: conditioning and pruning produce
/// sub-distributions. The empty PMF (zero mass) is allowed and behaves as the
/// absorbing element of convolution.
#[derive(Debug, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(try_from = "Vec<(Tick, Prob)>", into = "Vec<(Tick, Prob)>"))]
pub struct Pmf {
    pub(crate) impulses: Vec<Impulse>,
}

/// `clone_from` reuses the target's impulse buffer, so hot loops that
/// overwrite one PMF with another allocate only when it must grow.
impl Clone for Pmf {
    fn clone(&self) -> Self {
        Pmf { impulses: self.impulses.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.impulses.clone_from(&source.impulses);
    }
}

impl Pmf {
    /// The empty PMF: no impulses, zero total mass.
    #[must_use]
    pub fn empty() -> Self {
        Pmf { impulses: Vec::new() }
    }

    /// A deterministic (point-mass) PMF: `P(X = t) = 1`.
    #[must_use]
    pub fn point(t: Tick) -> Self {
        Pmf { impulses: vec![Impulse { t, p: 1.0 }] }
    }

    /// Builds a PMF from `(tick, probability)` pairs.
    ///
    /// Pairs may be unsorted and may contain duplicate ticks (masses are
    /// summed). Zero-mass entries are discarded.
    ///
    /// # Errors
    ///
    /// Returns an error if any probability is negative or non-finite, or if
    /// the total mass exceeds `1 + MASS_EPSILON`.
    pub fn from_impulses(pairs: Vec<(Tick, Prob)>) -> Result<Self, PmfError> {
        let mut pairs = pairs;
        for &(t, p) in &pairs {
            if !p.is_finite() {
                return Err(PmfError::NonFiniteProbability { tick: t });
            }
            if p < 0.0 {
                return Err(PmfError::NegativeProbability { tick: t, prob: p });
            }
        }
        pairs.sort_unstable_by_key(|&(t, _)| t);
        let mut impulses: Vec<Impulse> = Vec::with_capacity(pairs.len());
        for (t, p) in pairs {
            if p == 0.0 {
                continue;
            }
            match impulses.last_mut() {
                Some(last) if last.t == t => last.p += p,
                _ => impulses.push(Impulse { t, p }),
            }
        }
        let total: f64 = impulses.iter().map(|i| i.p).sum();
        if total > 1.0 + MASS_EPSILON {
            return Err(PmfError::MassExceedsOne { total });
        }
        Ok(Pmf { impulses })
    }

    /// Builds a PMF from raw weights, normalising them to total mass 1.
    ///
    /// Returns the empty PMF when all weights are zero.
    ///
    /// # Errors
    ///
    /// Returns an error if any weight is negative or non-finite.
    pub fn from_weights(pairs: Vec<(Tick, f64)>) -> Result<Self, PmfError> {
        for &(t, w) in &pairs {
            if !w.is_finite() {
                return Err(PmfError::NonFiniteProbability { tick: t });
            }
            if w < 0.0 {
                return Err(PmfError::NegativeProbability { tick: t, prob: w });
            }
        }
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        if total == 0.0 {
            return Ok(Pmf::empty());
        }
        let scaled = pairs.into_iter().map(|(t, w)| (t, w / total)).collect();
        Pmf::from_impulses(scaled)
    }

    /// Uniform PMF over the inclusive tick range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn uniform(lo: Tick, hi: Tick) -> Self {
        assert!(lo <= hi, "uniform range must satisfy lo <= hi");
        let n = hi - lo + 1;
        let p = 1.0 / n as f64;
        Pmf { impulses: (lo..=hi).map(|t| Impulse { t, p }).collect() }
    }

    /// Internal constructor from already-sorted, coalesced, positive impulses.
    /// Callers must uphold the `Pmf` invariants.
    pub(crate) fn from_sorted_unchecked(impulses: Vec<Impulse>) -> Self {
        debug_assert!(impulses.windows(2).all(|w| w[0].t < w[1].t), "impulses not sorted/unique");
        debug_assert!(impulses.iter().all(|i| i.p > 0.0 && i.p.is_finite()));
        Pmf { impulses }
    }

    /// Number of impulses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.impulses.len()
    }

    /// Whether this PMF carries no mass at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.impulses.is_empty()
    }

    /// Iterator over impulses in increasing tick order.
    pub fn iter(&self) -> impl Iterator<Item = &Impulse> + '_ {
        self.impulses.iter()
    }

    /// The impulses as `(tick, probability)` pairs in increasing tick order.
    #[must_use]
    pub fn to_pairs(&self) -> Vec<(Tick, Prob)> {
        self.impulses.iter().map(|i| (i.t, i.p)).collect()
    }

    /// Total probability mass (1 for a proper distribution).
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.impulses.iter().map(|i| i.p).sum()
    }

    /// Whether total mass is within `MASS_EPSILON` of 1.
    #[must_use]
    pub fn is_normalized(&self) -> bool {
        (self.total_mass() - 1.0).abs() <= MASS_EPSILON
    }

    /// `P(X = t)`, zero if no impulse sits at `t`.
    #[must_use]
    pub fn at(&self, t: Tick) -> Prob {
        match self.impulses.binary_search_by_key(&t, |i| i.t) {
            Ok(idx) => self.impulses[idx].p,
            Err(_) => 0.0,
        }
    }

    /// `P(X < t)` — probability mass strictly before tick `t`.
    ///
    /// This is the paper's Equation (2): the *chance of success* of a task
    /// with completion-time PMF `self` and deadline `t` (completion exactly
    /// at the deadline counts as late, matching Figure 2 of the paper).
    #[must_use]
    pub fn mass_before(&self, t: Tick) -> f64 {
        let idx = self.impulses.partition_point(|i| i.t < t);
        // `+ 0.0` normalises the empty sum, which is -0.0 in Rust.
        self.impulses[..idx].iter().map(|i| i.p).sum::<f64>() + 0.0
    }

    /// `P(X <= t)` — the cumulative distribution function.
    #[must_use]
    pub fn cdf(&self, t: Tick) -> f64 {
        let idx = self.impulses.partition_point(|i| i.t <= t);
        self.impulses[..idx].iter().map(|i| i.p).sum::<f64>() + 0.0
    }

    /// `P(X >= t)` — probability mass at or after tick `t`.
    #[must_use]
    pub fn mass_at_or_after(&self, t: Tick) -> f64 {
        let idx = self.impulses.partition_point(|i| i.t < t);
        self.impulses[idx..].iter().map(|i| i.p).sum::<f64>() + 0.0
    }

    /// Earliest tick carrying mass, `None` for the empty PMF.
    #[must_use]
    pub fn support_min(&self) -> Option<Tick> {
        self.impulses.first().map(|i| i.t)
    }

    /// Latest tick carrying mass, `None` for the empty PMF.
    #[must_use]
    pub fn support_max(&self) -> Option<Tick> {
        self.impulses.last().map(|i| i.t)
    }

    /// Smallest tick `t` such that `P(X <= t) >= q * total_mass`.
    ///
    /// `q` is clamped to `[0, 1]`. Returns `None` for the empty PMF.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<Tick> {
        if self.impulses.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.total_mass();
        let mut acc = 0.0;
        for i in &self.impulses {
            acc += i.p;
            if acc + 1e-15 >= target {
                return Some(i.t);
            }
        }
        self.support_max()
    }

    /// Rescales all impulse masses by `factor` (must be finite and `>= 0`).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the rescaled mass would exceed `1 + MASS_EPSILON`.
    #[must_use]
    pub fn scale_mass(&self, factor: f64) -> Pmf {
        assert!(factor.is_finite() && factor >= 0.0, "scale factor must be finite and >= 0");
        if factor == 0.0 {
            return Pmf::empty();
        }
        let impulses: Vec<Impulse> =
            self.impulses.iter().map(|i| Impulse { t: i.t, p: i.p * factor }).collect();
        debug_assert!(impulses.iter().map(|i| i.p).sum::<f64>() <= 1.0 + MASS_EPSILON);
        Pmf { impulses }
    }

    /// Renormalises to total mass 1. Returns the empty PMF unchanged.
    #[must_use]
    pub fn normalize(&self) -> Pmf {
        let total = self.total_mass();
        if total == 0.0 {
            return Pmf::empty();
        }
        Pmf { impulses: self.impulses.iter().map(|i| Impulse { t: i.t, p: i.p / total }).collect() }
    }

    /// Conditions on `X >= t`: removes mass before `t` and renormalises.
    ///
    /// Returns `None` when no mass lies at or after `t` (the event has
    /// probability zero). This is used by the simulator to update the
    /// completion-time estimate of a task that is already running and has not
    /// finished by the current time.
    #[must_use]
    pub fn condition_at_least(&self, t: Tick) -> Option<Pmf> {
        let idx = self.impulses.partition_point(|i| i.t < t);
        let tail = &self.impulses[idx..];
        let mass: f64 = tail.iter().map(|i| i.p).sum();
        if mass <= 0.0 {
            return None;
        }
        Some(Pmf { impulses: tail.iter().map(|i| Impulse { t: i.t, p: i.p / mass }).collect() })
    }
}

impl TryFrom<Vec<(Tick, Prob)>> for Pmf {
    type Error = PmfError;

    fn try_from(pairs: Vec<(Tick, Prob)>) -> Result<Self, Self::Error> {
        Pmf::from_impulses(pairs)
    }
}

impl From<Pmf> for Vec<(Tick, Prob)> {
    fn from(pmf: Pmf) -> Self {
        pmf.to_pairs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_mass_basics() {
        let p = Pmf::point(7);
        assert_eq!(p.len(), 1);
        assert_eq!(p.at(7), 1.0);
        assert_eq!(p.at(6), 0.0);
        assert!(p.is_normalized());
        assert_eq!(p.support_min(), Some(7));
        assert_eq!(p.support_max(), Some(7));
    }

    #[test]
    fn from_impulses_sorts_and_coalesces() {
        let p = Pmf::from_impulses(vec![(5, 0.25), (3, 0.5), (5, 0.25)]).unwrap();
        assert_eq!(p.to_pairs(), vec![(3, 0.5), (5, 0.5)]);
    }

    #[test]
    fn from_impulses_drops_zero_mass() {
        let p = Pmf::from_impulses(vec![(1, 0.0), (2, 1.0)]).unwrap();
        assert_eq!(p.to_pairs(), vec![(2, 1.0)]);
    }

    #[test]
    fn from_impulses_rejects_negative() {
        let err = Pmf::from_impulses(vec![(1, -0.1)]).unwrap_err();
        assert!(matches!(err, PmfError::NegativeProbability { tick: 1, .. }));
    }

    #[test]
    fn from_impulses_rejects_nan() {
        let err = Pmf::from_impulses(vec![(9, f64::NAN)]).unwrap_err();
        assert!(matches!(err, PmfError::NonFiniteProbability { tick: 9 }));
    }

    #[test]
    fn from_impulses_rejects_excess_mass() {
        let err = Pmf::from_impulses(vec![(1, 0.8), (2, 0.4)]).unwrap_err();
        assert!(matches!(err, PmfError::MassExceedsOne { .. }));
    }

    #[test]
    fn from_weights_normalizes() {
        let p = Pmf::from_weights(vec![(1, 3.0), (2, 1.0)]).unwrap();
        assert!((p.at(1) - 0.75).abs() < 1e-12);
        assert!((p.at(2) - 0.25).abs() < 1e-12);
        assert!(p.is_normalized());
    }

    #[test]
    fn from_weights_all_zero_is_empty() {
        let p = Pmf::from_weights(vec![(1, 0.0), (2, 0.0)]).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn uniform_has_equal_mass() {
        let p = Pmf::uniform(10, 13);
        assert_eq!(p.len(), 4);
        assert!(p.is_normalized());
        assert!((p.at(11) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mass_before_is_strict() {
        let p = Pmf::from_impulses(vec![(10, 0.4), (12, 0.6)]).unwrap();
        assert_eq!(p.mass_before(10), 0.0);
        assert!((p.mass_before(11) - 0.4).abs() < 1e-12);
        assert!((p.mass_before(12) - 0.4).abs() < 1e-12);
        assert!((p.mass_before(13) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_inclusive() {
        let p = Pmf::from_impulses(vec![(10, 0.4), (12, 0.6)]).unwrap();
        assert!((p.cdf(10) - 0.4).abs() < 1e-12);
        assert!((p.cdf(11) - 0.4).abs() < 1e-12);
        assert!((p.cdf(12) - 1.0).abs() < 1e-12);
        assert_eq!(p.cdf(9), 0.0);
    }

    #[test]
    fn mass_at_or_after_complements_mass_before() {
        let p = Pmf::from_impulses(vec![(1, 0.2), (5, 0.3), (9, 0.5)]).unwrap();
        for t in 0..12 {
            let total = p.mass_before(t) + p.mass_at_or_after(t);
            assert!((total - 1.0).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn quantile_median_of_uniform() {
        let p = Pmf::uniform(0, 9);
        assert_eq!(p.quantile(0.5), Some(4));
        assert_eq!(p.quantile(0.0), Some(0));
        assert_eq!(p.quantile(1.0), Some(9));
    }

    #[test]
    fn quantile_empty_is_none() {
        assert_eq!(Pmf::empty().quantile(0.5), None);
    }

    #[test]
    fn condition_at_least_renormalizes() {
        let p = Pmf::from_impulses(vec![(1, 0.5), (3, 0.25), (4, 0.25)]).unwrap();
        let c = p.condition_at_least(2).unwrap();
        assert_eq!(c.to_pairs().len(), 2);
        assert!((c.at(3) - 0.5).abs() < 1e-12);
        assert!((c.at(4) - 0.5).abs() < 1e-12);
        assert!(c.is_normalized());
    }

    #[test]
    fn condition_at_least_past_support_is_none() {
        let p = Pmf::point(5);
        assert!(p.condition_at_least(6).is_none());
        assert!(p.condition_at_least(5).is_some());
    }

    #[test]
    fn scale_mass_produces_subdistribution() {
        let p = Pmf::point(3).scale_mass(0.5);
        assert!((p.total_mass() - 0.5).abs() < 1e-12);
        assert!(!p.is_normalized());
        assert!(p.normalize().is_normalized());
    }

    #[test]
    fn scale_mass_zero_is_empty() {
        assert!(Pmf::point(3).scale_mass(0.0).is_empty());
    }

    #[test]
    fn empty_pmf_queries() {
        let e = Pmf::empty();
        assert_eq!(e.total_mass(), 0.0);
        assert_eq!(e.mass_before(100), 0.0);
        assert_eq!(e.cdf(100), 0.0);
        assert_eq!(e.support_min(), None);
        assert!(e.normalize().is_empty());
    }
}
