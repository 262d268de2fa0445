//! Zero-allocation fused chain stepping — the engine's hot path.
//!
//! One step of a machine-queue completion-time chain is Eq (1) followed by
//! Eq (2) and compaction:
//!
//! 1. deadline-aware convolution of the predecessor completion PMF with the
//!    task's execution PMF ([`crate::deadline_convolve`]);
//! 2. the chance of success — mass strictly before the deadline — read off
//!    the *raw* (uncompacted) result so the deadline boundary is exact;
//! 3. compaction of the result before it feeds the next step.
//!
//! Done naively that is three materialisations per step: a raw pair vector
//! that gets sorted, a coalesced [`Pmf`], and a compacted clone. The
//! [`ChainScratch`] here makes one pass instead: the output support is read
//! off the sorted inputs in O(1), the Eq (1) products are added straight
//! into a reusable **dense tick-indexed buffer** (no pair buffer, no sort),
//! the chance is summed during the sweep, and compaction rebins straight
//! into a ping-pong output buffer that becomes the next step's predecessor.
//! No allocation occurs after the buffers reach their steady-state sizes.
//!
//! # Determinism contract
//!
//! Floating-point addition is not associative, so the *order* in which
//! colliding products are summed is part of the observable behaviour. The
//! canonical order is **generation order**: ascending predecessor tick,
//! then ascending execution tick (the order `deadline_convolve_into`
//! appends). The dense accumulator preserves it by construction, and the
//! sparse fallback (support span above [`crate::DENSE_SPAN_LIMIT`]) is the
//! shared [`coalesce`](crate::ops) path over the generated pairs, so
//! [`crate::deadline_convolve`] and every [`ChainScratch`] method produce
//! **bit-identical** results — `tests/` in `taskdrop_model` enforce this
//! against the naive chain, and this module's proptest pins the kernel
//! against the pair-path reference.

use crate::compact::Compaction;
use crate::ops::{coalesce_into, DENSE_SPAN_LIMIT};
use crate::pmf::{Impulse, Pmf};
use crate::Tick;

/// Where one Eq (1) kernel call left its raw result.
#[derive(Debug, Clone, Copy)]
enum Raw {
    /// In the dense accumulator: cell `k` holds the mass at tick `lo + k`.
    Dense { lo: Tick },
    /// Already coalesced into the impulse buffer (a span above
    /// [`DENSE_SPAN_LIMIT`], or an empty result).
    Coalesced,
}

/// The Eq (1) kernel every entry point shares, with its work buffers: the
/// sparse fallback's product pairs, the dense accumulator and the
/// uncompacted result.
#[derive(Debug, Default, Clone)]
struct Kernel {
    pairs: Vec<(Tick, f64)>,
    acc: Vec<f64>,
    raw: Vec<Impulse>,
}

impl Kernel {
    /// `prev ⊛ exec` under `deadline`.
    ///
    /// The output support comes from the sorted inputs in O(1). With
    /// `split` the first predecessor tick at or past the deadline, products
    /// cover `prev[0].t + exec[0].t ..= prev[split-1].t + exec.last.t` and
    /// pass-through mass covers `prev[split].t ..= prev.last.t`. When that
    /// span fits [`DENSE_SPAN_LIMIT`] — the same choice [`Pmf::convolve`]
    /// makes — products and pass-through masses are added straight into the
    /// zeroed accumulator in generation order. Otherwise the
    /// generation-order pairs go through the sort-based coalesce into `raw`.
    fn scatter(&mut self, prev: &[Impulse], exec: &[Impulse], deadline: Tick) -> Raw {
        let (on_time, late) = prev.split_at(prev.partition_point(|i| i.t < deadline));
        let products = match (on_time.first(), on_time.last(), exec.first(), exec.last()) {
            (Some(p0), Some(pn), Some(e0), Some(en)) => Some((p0.t + e0.t, pn.t + en.t)),
            _ => None,
        };
        let passed = late.first().zip(late.last()).map(|(a, b)| (a.t, b.t));
        let (lo, hi) = match (products, passed) {
            (Some((a, b)), Some((c, d))) => (a.min(c), b.max(d)),
            (Some(range), None) | (None, Some(range)) => range,
            (None, None) => {
                self.raw.clear();
                return Raw::Coalesced;
            }
        };
        let span = hi - lo + 1;
        if span > DENSE_SPAN_LIMIT {
            push_products(prev, exec, deadline, &mut self.pairs);
            coalesce_into(&mut self.pairs, &mut self.raw);
            return Raw::Coalesced;
        }
        let acc = &mut self.acc;
        acc.clear();
        acc.resize(span as usize, 0.0);
        for pi in on_time {
            // Task starts at pi.t; completion = start + execution time.
            for ei in exec {
                acc[(pi.t + ei.t - lo) as usize] += pi.p * ei.p;
            }
        }
        for pi in late {
            // Reactive drop: machine is free at the predecessor's completion.
            // `lo <= pi.t <= hi`, so the cell always exists.
            if let Some(cell) = acc.get_mut((pi.t - lo) as usize) {
                *cell += pi.p;
            }
        }
        Raw::Dense { lo }
    }

    /// Eq (1) into `raw` plus the Eq (2) chance.
    fn convolve_chance(&mut self, prev: &[Impulse], exec: &[Impulse], deadline: Tick) -> f64 {
        match self.scatter(prev, exec, deadline) {
            Raw::Dense { lo } => sweep(&self.acc, lo, deadline, &mut self.raw),
            Raw::Coalesced => chance_before(&self.raw, deadline),
        }
    }

    /// The Eq (2) chance of `prev ⊛ exec` alone: the raw result is never
    /// swept on the dense path.
    fn chance_only(&mut self, prev: &[Impulse], exec: &[Impulse], deadline: Tick) -> f64 {
        match self.scatter(prev, exec, deadline) {
            Raw::Dense { lo } => dense_chance(&self.acc, lo, deadline),
            Raw::Coalesced => chance_before(&self.raw, deadline),
        }
    }
}

/// Accumulator cells strictly before `deadline`.
fn cells_before(acc: &[f64], lo: Tick, deadline: Tick) -> usize {
    usize::try_from(deadline.saturating_sub(lo)).map_or(acc.len(), |cut| cut.min(acc.len()))
}

/// Sweeps the dense accumulator into `raw` (positive cells, ascending tick)
/// and returns the Eq (2) chance summed on the way — the same additions, in
/// the same order, as [`chance_before`] on the swept impulses.
fn sweep(acc: &[f64], lo: Tick, deadline: Tick, raw: &mut Vec<Impulse>) -> f64 {
    raw.clear();
    let (early, late) = acc.split_at(cells_before(acc, lo, deadline));
    let mut chance = 0.0f64;
    for (off, &p) in early.iter().enumerate() {
        if p > 0.0 {
            chance += p;
            raw.push(Impulse { t: lo + off as Tick, p });
        }
    }
    let late_lo = lo + early.len() as Tick;
    for (off, &p) in late.iter().enumerate() {
        if p > 0.0 {
            raw.push(Impulse { t: late_lo + off as Tick, p });
        }
    }
    chance
}

/// [`sweep`]'s chance without materialising any impulse.
fn dense_chance(acc: &[f64], lo: Tick, deadline: Tick) -> f64 {
    acc.iter()
        .take(cells_before(acc, lo, deadline))
        .filter(|&&p| p > 0.0)
        .fold(0.0f64, |sum, &p| sum + p)
}

/// Sum of impulse masses strictly before `deadline`, in ascending tick
/// order — the same summation [`Pmf::mass_before`] performs.
fn chance_before(raw: &[Impulse], deadline: Tick) -> f64 {
    let mut sum = 0.0f64;
    for i in raw {
        if i.t >= deadline {
            break;
        }
        sum += i.p;
    }
    sum
}

/// Appends the raw Eq (1) products of `prev ⊛ exec` under `deadline` into
/// `out` (cleared first), in generation order; slice-level twin of
/// [`crate::deadline_convolve_into`] and the sparse fallback's generator.
pub(crate) fn push_products(
    prev: &[Impulse],
    exec: &[Impulse],
    deadline: Tick,
    out: &mut Vec<(Tick, f64)>,
) {
    out.clear();
    for pi in prev {
        if pi.t < deadline {
            // Task starts at pi.t; completion = start + execution time.
            for ei in exec {
                out.push((pi.t + ei.t, pi.p * ei.p));
            }
        } else {
            // Reactive drop: machine is free at the predecessor's completion.
            out.push((pi.t, pi.p));
        }
    }
}

/// Reusable scratch buffers for fused chain stepping.
///
/// Owns the kernel's work buffers and a ping-pong pair (`cur`/`next`)
/// holding the current and upcoming predecessor completion. All buffers are
/// cleared and refilled per step but never shrink, so a steady-state chain
/// evaluation performs no heap allocation.
///
/// Ownership rule: `cur` (exposed via [`ChainScratch::completion`]) is only
/// valid between [`ChainScratch::begin`]/[`ChainScratch::step`] calls; the
/// one-shot helpers ([`ChainScratch::step_pmf`], [`ChainScratch::chance_of`])
/// and [`ChainScratch::peek`] clobber the internal work buffers but leave
/// `cur` untouched, so they can be interleaved with an in-progress chain.
#[derive(Debug, Default, Clone)]
pub struct ChainScratch {
    kernel: Kernel,
    cur: Vec<Impulse>,
    next: Vec<Impulse>,
}

impl ChainScratch {
    /// Fresh scratch with empty buffers.
    #[must_use]
    pub fn new() -> Self {
        ChainScratch::default()
    }

    /// Starts a chain: the predecessor completion becomes `base`.
    pub fn begin(&mut self, base: &Pmf) {
        self.cur.clear();
        self.cur.extend_from_slice(&base.impulses);
    }

    /// Advances the chain by one task: Eq (1) against the current
    /// predecessor, Eq (2) on the raw result, compaction into the new
    /// predecessor. Returns the chance of success.
    pub fn step(&mut self, exec: &Pmf, deadline: Tick, compaction: Compaction) -> f64 {
        let chance = self.kernel.convolve_chance(&self.cur, &exec.impulses, deadline);
        compaction.apply_into(&self.kernel.raw, &mut self.next);
        std::mem::swap(&mut self.cur, &mut self.next);
        chance
    }

    /// The chance of success one more [`ChainScratch::step`] would return,
    /// without advancing the chain: the last step of a chain whose final
    /// completion is never read needs neither a sweep nor compaction.
    pub fn peek(&mut self, exec: &Pmf, deadline: Tick) -> f64 {
        self.kernel.chance_only(&self.cur, &exec.impulses, deadline)
    }

    /// The current (compacted) predecessor completion.
    #[must_use]
    pub fn completion(&self) -> &[Impulse] {
        &self.cur
    }

    /// Materialises the current predecessor completion as a [`Pmf`].
    #[must_use]
    pub fn completion_pmf(&self) -> Pmf {
        Pmf::from_sorted_unchecked(self.cur.clone())
    }

    /// Copies the current predecessor completion into `out`, reusing its
    /// allocation.
    pub fn completion_into(&self, out: &mut Pmf) {
        out.impulses.clear();
        out.impulses.extend_from_slice(&self.cur);
    }

    /// One-shot fused step from an arbitrary predecessor: returns the
    /// chance of success and the compacted completion, without touching the
    /// chain state set up by [`ChainScratch::begin`]. Bit-identical to
    /// `compaction.apply(&deadline_convolve(prev, exec, deadline))` plus
    /// `raw.mass_before(deadline)`.
    pub fn step_pmf(
        &mut self,
        prev: &Pmf,
        exec: &Pmf,
        deadline: Tick,
        compaction: Compaction,
    ) -> (f64, Pmf) {
        let chance = self.kernel.convolve_chance(&prev.impulses, &exec.impulses, deadline);
        compaction.apply_into(&self.kernel.raw, &mut self.next);
        (chance, Pmf::from_sorted_unchecked(self.next.clone()))
    }

    /// Chance of success of `prev ⊛ exec` under `deadline` (Eq 1 + Eq 2)
    /// without materialising the completion at all — the admission gate's
    /// and the optimal search's bound primitive.
    pub fn chance_of(&mut self, prev: &Pmf, exec: &Pmf, deadline: Tick) -> f64 {
        self.kernel.chance_only(&prev.impulses, &exec.impulses, deadline)
    }
}

/// Computes Eq (1) into a freshly allocated [`Pmf`] via the shared kernel.
/// This is the body of [`crate::deadline_convolve`]; it lives here so the
/// naive entry point and [`ChainScratch`] cannot drift apart.
pub(crate) fn deadline_convolve_impl(prev: &Pmf, exec: &Pmf, deadline: Tick) -> Pmf {
    let mut kernel = Kernel::default();
    kernel.convolve_chance(&prev.impulses, &exec.impulses, deadline);
    Pmf::from_sorted_unchecked(kernel.raw)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline_convolve;

    fn bits(p: &Pmf) -> Vec<(Tick, u64)> {
        p.iter().map(|i| (i.t, i.p.to_bits())).collect()
    }

    #[test]
    fn step_pmf_matches_naive_pipeline_bitwise() {
        let prev = Pmf::from_impulses(vec![(10, 0.6), (11, 0.3), (12, 0.05), (13, 0.05)]).unwrap();
        let exec = Pmf::from_impulses(vec![(1, 0.6), (2, 0.4)]).unwrap();
        let mut scratch = ChainScratch::new();
        for compaction in [Compaction::None, Compaction::MaxImpulses(2), Compaction::BinWidth(3)] {
            let raw = deadline_convolve(&prev, &exec, 13);
            let naive = compaction.apply(&raw);
            let (chance, fused) = scratch.step_pmf(&prev, &exec, 13, compaction);
            assert_eq!(bits(&naive), bits(&fused));
            assert_eq!(chance.to_bits(), raw.mass_before(13).to_bits());
        }
    }

    #[test]
    fn stepping_matches_repeated_naive_steps_bitwise() {
        let base = Pmf::uniform(0, 40);
        let exec = Pmf::from_impulses(vec![(8, 0.5), (16, 0.5)]).unwrap();
        let compaction = Compaction::MaxImpulses(16);
        let mut scratch = ChainScratch::new();
        scratch.begin(&base);
        let mut prev = base;
        for k in 0..5u64 {
            let deadline = 60 + 25 * k;
            let raw = deadline_convolve(&prev, &exec, deadline);
            let naive_chance = raw.mass_before(deadline);
            prev = compaction.apply(&raw);
            let chance = scratch.step(&exec, deadline, compaction);
            assert_eq!(chance.to_bits(), naive_chance.to_bits(), "step {k}");
            assert_eq!(bits(&prev), bits(&scratch.completion_pmf()), "step {k}");
        }
    }

    #[test]
    fn chance_of_matches_mass_before() {
        let prev = Pmf::uniform(5, 60);
        let exec = Pmf::from_impulses(vec![(3, 0.25), (9, 0.75)]).unwrap();
        let mut scratch = ChainScratch::new();
        for d in [0, 10, 35, 70, 200] {
            let naive = deadline_convolve(&prev, &exec, d).mass_before(d);
            assert_eq!(scratch.chance_of(&prev, &exec, d).to_bits(), naive.to_bits());
        }
    }

    #[test]
    fn one_shot_helpers_do_not_disturb_chain_state() {
        let base = Pmf::point(5);
        let exec = Pmf::point(10);
        let mut scratch = ChainScratch::new();
        scratch.begin(&base);
        scratch.step(&exec, 100, Compaction::None);
        let before = scratch.completion_pmf();
        let _ = scratch.step_pmf(&Pmf::uniform(0, 9), &exec, 50, Compaction::MaxImpulses(4));
        let _ = scratch.chance_of(&Pmf::uniform(0, 9), &exec, 50);
        assert_eq!(before, scratch.completion_pmf());
        assert_eq!(scratch.step(&exec, 100, Compaction::None), 1.0);
        assert_eq!(scratch.completion_pmf(), Pmf::point(25));
    }

    #[test]
    fn sparse_fallback_matches_naive() {
        // Span far beyond DENSE_SPAN_LIMIT forces the coalesce path.
        let prev = Pmf::from_impulses(vec![(0, 0.5), (200_000, 0.5)]).unwrap();
        let exec = Pmf::from_impulses(vec![(1, 0.5), (100_000, 0.5)]).unwrap();
        let mut scratch = ChainScratch::new();
        let (chance, fused) = scratch.step_pmf(&prev, &exec, 150_000, Compaction::None);
        let raw = deadline_convolve(&prev, &exec, 150_000);
        assert_eq!(bits(&raw), bits(&fused));
        assert_eq!(chance.to_bits(), raw.mass_before(150_000).to_bits());
    }

    /// The pair-path reference the fused kernel replaced: generate every
    /// `(tick, mass)` pair, take the bounds by scanning them, then scatter
    /// them (dense) or sort-merge them (sparse).
    fn pair_path(prev: &Pmf, exec: &Pmf, deadline: Tick) -> Vec<Impulse> {
        let mut pairs = Vec::new();
        push_products(&prev.impulses, &exec.impulses, deadline, &mut pairs);
        let mut out = Vec::new();
        let Some(lo) = pairs.iter().map(|&(t, _)| t).min() else {
            return out;
        };
        let hi = pairs.iter().map(|&(t, _)| t).max().unwrap_or(lo);
        if hi - lo + 1 > DENSE_SPAN_LIMIT {
            coalesce_into(&mut pairs, &mut out);
            return out;
        }
        let mut acc = vec![0.0f64; (hi - lo + 1) as usize];
        for &(t, p) in &pairs {
            acc[(t - lo) as usize] += p;
        }
        for (off, &p) in acc.iter().enumerate() {
            if p > 0.0 {
                out.push(Impulse { t: lo + off as Tick, p });
            }
        }
        out
    }

    fn impulse_bits(raw: &[Impulse]) -> Vec<(Tick, u64)> {
        raw.iter().map(|i| (i.t, i.p.to_bits())).collect()
    }

    /// A normalised PMF on distinct ticks `lo + k * stride`; no weights
    /// give the empty PMF.
    fn pmf_on(lo: Tick, stride: Tick, weights: &[u32]) -> Pmf {
        let pairs = weights.iter().enumerate().map(|(k, &w)| (lo + k as Tick * stride, w as f64));
        Pmf::from_weights(pairs.collect()).expect("positive weights")
    }

    proptest::proptest! {
        /// The fused kernel equals the pair path bit for bit, through every
        /// entry point: pass-through ticks below the first product tick,
        /// `exec` starting past tick 0 or empty, all mass past the deadline,
        /// and spans on both sides of `DENSE_SPAN_LIMIT`.
        #[test]
        fn fused_kernel_matches_pair_path_bitwise(
            prev_lo in 0u64..400,
            prev_stride in 1u64..40,
            prev_w in proptest::collection::vec(1u32..1000, 1..12),
            exec_lo in 0u64..300,
            exec_stride in 1u64..30,
            exec_w in proptest::collection::vec(1u32..1000, 0..8),
            wide in 0u8..3,
            deadline_off in 0u64..900,
        ) {
            // `wide` stretches exec past the dense span limit (1) or to
            // just under it (2).
            let exec_stride = match wide {
                1 => DENSE_SPAN_LIMIT / 4 + exec_stride,
                2 => (DENSE_SPAN_LIMIT - 1_000) / 8,
                _ => exec_stride,
            };
            let prev = pmf_on(prev_lo, prev_stride, &prev_w);
            let exec = pmf_on(exec_lo, exec_stride, &exec_w);
            // Deadlines below, inside and beyond the predecessor's support.
            let deadline = prev_lo.saturating_sub(50) + deadline_off;
            let reference = pair_path(&prev, &exec, deadline);
            let chance = chance_before(&reference, deadline);

            let fused = deadline_convolve_impl(&prev, &exec, deadline);
            proptest::prop_assert_eq!(impulse_bits(&reference), impulse_bits(&fused.impulses));
            let mut scratch = ChainScratch::new();
            proptest::prop_assert_eq!(
                scratch.chance_of(&prev, &exec, deadline).to_bits(),
                chance.to_bits()
            );
            for compaction in [Compaction::None, Compaction::MaxImpulses(4)] {
                let (c, out) = scratch.step_pmf(&prev, &exec, deadline, compaction);
                proptest::prop_assert_eq!(c.to_bits(), chance.to_bits());
                let want = compaction.apply(&Pmf::from_sorted_unchecked(reference.clone()));
                proptest::prop_assert_eq!(bits(&want), bits(&out));
                scratch.begin(&prev);
                proptest::prop_assert_eq!(scratch.peek(&exec, deadline).to_bits(), chance.to_bits());
                proptest::prop_assert_eq!(
                    scratch.step(&exec, deadline, compaction).to_bits(),
                    chance.to_bits()
                );
                proptest::prop_assert_eq!(bits(&want), bits(&scratch.completion_pmf()));
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let mut scratch = ChainScratch::new();
        let (chance, out) = scratch.step_pmf(&Pmf::empty(), &Pmf::point(1), 10, Compaction::None);
        assert_eq!(chance, 0.0);
        assert!(out.is_empty());
        scratch.begin(&Pmf::empty());
        assert_eq!(scratch.step(&Pmf::point(1), 10, Compaction::None), 0.0);
        assert!(scratch.completion().is_empty());
    }
}
