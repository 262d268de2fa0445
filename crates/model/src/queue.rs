//! Machine-queue completion-time chains — Equations (1)–(7) of the paper.
//!
//! A machine queue holds a *running* task followed by pending tasks served
//! first-come-first-serve. The completion-time PMF of each pending task is
//! obtained by chaining the deadline-aware convolution of Equation (1) from
//! the queue head to the tail; its *chance of success* (Eq 2) is the mass of
//! that PMF strictly before the task's deadline; the queue's *instantaneous
//! robustness* (Eq 3) is the sum of those chances.
//!
//! The same chain evaluated with some positions removed yields Equations
//! (4)–(7): the completion PMFs, chances and robustness under a
//! *provisional drop* — the quantity both the proactive dropping heuristic
//! and the optimal subset search maximise.
//!
//! Terminology from Figure 3 of the paper, for task at position `i`:
//! the **dependence zone** is positions `0..i` (they determine when `i` can
//! start) and the **influence zone** is positions `i+1..` (they are affected
//! if `i` is dropped).

use std::ops::Range;
use taskdrop_pmf::{deadline_convolve, ChainScratch, Compaction, Impulse, Pmf, Tick};

/// One pending task as seen by the chain: its deadline and its
/// execution-time PMF on this machine (a PET matrix cell).
#[derive(Debug, Clone, Copy)]
pub struct ChainTask<'a> {
    /// Hard deadline of the task.
    pub deadline: Tick,
    /// Execution-time PMF on the machine that queues the task.
    pub exec: &'a Pmf,
}

/// Completion PMF and chance of success of one pending position.
#[derive(Debug, Clone)]
pub struct ChainLink {
    /// Completion-time PMF of the position (after compaction).
    pub completion: Pmf,
    /// Chance of success (Eq 2), computed *before* compaction so the
    /// deadline boundary is exact.
    pub chance: f64,
}

/// Applies Equation (1) along the whole queue.
///
/// `base` is the completion-time PMF of whatever occupies the machine ahead
/// of the first pending task: the running task's (conditioned) completion
/// PMF, or a point mass at *now* for an idle machine.
///
/// Returns one [`ChainLink`] per task. Each link's `completion` is compacted
/// per `compaction` before feeding the next convolution (the paper's
/// histogram discretisation keeps impulse counts bounded the same way).
///
/// This is the allocation-per-step *reference* implementation; hot paths
/// use [`ChainEvaluator`], which is bit-identical and reuses its buffers.
#[must_use]
pub fn chain(base: &Pmf, tasks: &[ChainTask<'_>], compaction: Compaction) -> Vec<ChainLink> {
    let mut links = Vec::with_capacity(tasks.len());
    let mut prev = base.clone();
    for t in tasks {
        let raw = deadline_convolve(&prev, t.exec, t.deadline);
        let chance = raw.mass_before(t.deadline);
        let completion = compaction.apply(&raw);
        prev = completion.clone();
        links.push(ChainLink { completion, chance });
    }
    links
}

/// Sum of the chances of success of the first `take` tasks of the chain
/// (Eq 3 restricted to a prefix), without materialising the links.
///
/// This is the hot primitive of the proactive dropping heuristic: evaluating
/// Eq (8) needs only chance sums over the effective depth.
#[must_use]
pub fn chance_sum(base: &Pmf, tasks: &[ChainTask<'_>], take: usize, compaction: Compaction) -> f64 {
    let mut sum = 0.0;
    let mut prev = base.clone();
    for t in tasks.iter().take(take) {
        let raw = deadline_convolve(&prev, t.exec, t.deadline);
        sum += raw.mass_before(t.deadline);
        prev = compaction.apply(&raw);
    }
    sum
}

/// Applies the chain while skipping every position where `dropped[i]` is
/// true (Eqs 4–5 generalised to a subset). Returns `None` for dropped
/// positions, `Some(link)` for survivors.
///
/// # Panics
///
/// Panics if `dropped.len() != tasks.len()`.
#[must_use]
pub fn chain_with_drops(
    base: &Pmf,
    tasks: &[ChainTask<'_>],
    dropped: &[bool],
    compaction: Compaction,
) -> Vec<Option<ChainLink>> {
    assert_eq!(dropped.len(), tasks.len(), "drop mask must match task count");
    let mut links = Vec::with_capacity(tasks.len());
    let mut prev = base.clone();
    for (t, &is_dropped) in tasks.iter().zip(dropped) {
        if is_dropped {
            links.push(None);
            continue;
        }
        let raw = deadline_convolve(&prev, t.exec, t.deadline);
        let chance = raw.mass_before(t.deadline);
        let completion = compaction.apply(&raw);
        prev = completion.clone();
        links.push(Some(ChainLink { completion, chance }));
    }
    links
}

/// Zero-allocation fused evaluator serving [`chain`], [`chance_sum`],
/// [`chain_with_drops`] and queue-tail queries from one reusable set of
/// scratch buffers.
///
/// The free functions above are the *reference* implementations: one
/// [`Pmf`] materialisation per convolution plus a compaction clone per
/// step. The evaluator performs the same arithmetic through
/// [`ChainScratch`] — deadline products accumulated into a dense
/// tick-indexed buffer (no sort), the Eq (2) chance summed in the same
/// sweep, compaction rebinned straight into a ping-pong predecessor buffer
/// — so its outputs are **bit-identical** to the reference
/// (`crates/model/tests/evaluator_equivalence.rs` enforces this under all
/// three [`Compaction`] policies) while doing no steady-state allocation.
///
/// One evaluator is meant to be reused across many queues: buffers grow to
/// the scenario's working-set size and stay there. Methods taking `&mut
/// self` reset the chain state; the incremental API
/// ([`ChainEvaluator::begin`] / [`ChainEvaluator::step`]) is for callers
/// like the proactive dropper that interleave chain extension with
/// decisions.
#[derive(Debug, Default, Clone)]
pub struct ChainEvaluator {
    scratch: ChainScratch,
}

impl ChainEvaluator {
    /// A fresh evaluator with empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        ChainEvaluator::default()
    }

    /// Starts an incremental chain whose predecessor completion is `base`.
    pub fn begin(&mut self, base: &Pmf) {
        self.scratch.begin(base);
    }

    /// Advances the incremental chain by one task, returning its chance of
    /// success (Eq 2, evaluated on the raw pre-compaction completion).
    pub fn step(&mut self, task: ChainTask<'_>, compaction: Compaction) -> f64 {
        self.scratch.step(task.exec, task.deadline, compaction)
    }

    /// The chance of success [`ChainEvaluator::step`] would return for
    /// `task`, without advancing the chain (no sweep, no compaction).
    pub fn peek(&mut self, task: ChainTask<'_>) -> f64 {
        self.scratch.peek(task.exec, task.deadline)
    }

    /// The current predecessor completion of the incremental chain.
    #[must_use]
    pub fn completion(&self) -> &[Impulse] {
        self.scratch.completion()
    }

    /// Copies the current predecessor completion into `out`, reusing its
    /// allocation.
    pub fn completion_into(&self, out: &mut Pmf) {
        self.scratch.completion_into(out);
    }

    /// Materialises the current predecessor completion as a [`Pmf`].
    #[must_use]
    pub fn completion_pmf(&self) -> Pmf {
        self.scratch.completion_pmf()
    }

    /// One-shot step from an arbitrary predecessor `prev`, leaving any
    /// incremental chain state untouched. Returns `(chance, completion)`.
    pub fn step_from(
        &mut self,
        prev: &Pmf,
        task: ChainTask<'_>,
        compaction: Compaction,
    ) -> (f64, Pmf) {
        self.scratch.step_pmf(prev, task.exec, task.deadline, compaction)
    }

    /// Chance of success of `task` queued directly behind `prev`, without
    /// materialising the completion (Eq 1 + Eq 2 fused).
    pub fn chance_from(&mut self, prev: &Pmf, task: ChainTask<'_>) -> f64 {
        self.scratch.chance_of(prev, task.exec, task.deadline)
    }

    /// Fused equivalent of [`chain`].
    pub fn chain(
        &mut self,
        base: &Pmf,
        tasks: &[ChainTask<'_>],
        compaction: Compaction,
    ) -> Vec<ChainLink> {
        self.begin(base);
        let mut links = Vec::with_capacity(tasks.len());
        for &t in tasks {
            let chance = self.step(t, compaction);
            links.push(ChainLink { completion: self.completion_pmf(), chance });
        }
        links
    }

    /// Fused equivalent of [`chance_sum`]. The last task's completion is
    /// never read, so its step is a [`ChainEvaluator::peek`].
    pub fn chance_sum(
        &mut self,
        base: &Pmf,
        tasks: &[ChainTask<'_>],
        take: usize,
        compaction: Compaction,
    ) -> f64 {
        let Some((&last, init)) = tasks.get(..take.min(tasks.len())).and_then(<[_]>::split_last)
        else {
            return 0.0;
        };
        self.begin(base);
        let mut sum = 0.0;
        for &t in init {
            sum += self.step(t, compaction);
        }
        sum + self.peek(last)
    }

    /// Fused equivalent of [`chain_with_drops`].
    ///
    /// # Panics
    ///
    /// Panics if `dropped.len() != tasks.len()`.
    pub fn chain_with_drops(
        &mut self,
        base: &Pmf,
        tasks: &[ChainTask<'_>],
        dropped: &[bool],
        compaction: Compaction,
    ) -> Vec<Option<ChainLink>> {
        assert_eq!(dropped.len(), tasks.len(), "drop mask must match task count");
        self.begin(base);
        let mut links = Vec::with_capacity(tasks.len());
        for (&t, &is_dropped) in tasks.iter().zip(dropped) {
            if is_dropped {
                links.push(None);
                continue;
            }
            let chance = self.step(t, compaction);
            links.push(Some(ChainLink { completion: self.completion_pmf(), chance }));
        }
        links
    }

    /// Completion PMF of the queue tail — where a task appended after
    /// `tasks` would wait. Equivalent to the last link of [`chain`] (or
    /// `base` itself for an empty queue) without materialising the
    /// intermediate links.
    pub fn tail(&mut self, base: &Pmf, tasks: &[ChainTask<'_>], compaction: Compaction) -> Pmf {
        self.begin(base);
        for &t in tasks {
            self.step(t, compaction);
        }
        self.completion_pmf()
    }
}

/// A lazily-extended baseline chain with prefix reuse — the shared
/// machinery of the proactive dropping policies (DESIGN.md §12).
///
/// Holds one [`ChainLink`] per evaluated position plus a watermark:
/// `links()[..valid_to]` reflect the current survivor set; slots at or past
/// the watermark are stale leftovers from before a drop and are always
/// rewritten by [`LazyChain::ensure`] before they can be read. A confirmed
/// drop calls [`LazyChain::rewind`], which re-chains at most the next
/// Eq (8) window on demand instead of the whole `O(q)` suffix.
#[derive(Debug, Default, Clone)]
pub struct LazyChain {
    eval: ChainEvaluator,
    links: Vec<ChainLink>,
    valid_to: usize,
}

impl LazyChain {
    /// A baseline chain whose predecessor completion starts at `base`.
    #[must_use]
    pub fn begin(base: &Pmf) -> Self {
        let mut chain = LazyChain::default();
        chain.eval.begin(base);
        chain
    }

    /// Restarts the chain in place from a new `base`, keeping the link and
    /// evaluator buffers warm — the persistent-context equivalent of
    /// [`LazyChain::begin`]. Every previously evaluated link falls behind
    /// the watermark and is rewritten before it can be read, so decisions
    /// after a reset are bit-identical to those of a fresh chain.
    pub fn reset(&mut self, base: &Pmf) {
        self.valid_to = 0;
        self.eval.begin(base);
    }

    /// Extends the baseline so positions `..upto` are evaluated against the
    /// current survivor set.
    ///
    /// # Panics
    ///
    /// Panics if `upto > tasks.len()`.
    pub fn ensure(&mut self, tasks: &[ChainTask<'_>], upto: usize, compaction: Compaction) {
        while self.valid_to < upto {
            let chance = self.eval.step(tasks[self.valid_to], compaction);
            match self.links.get_mut(self.valid_to) {
                // A stale slot keeps its completion buffer for the new link.
                Some(link) => {
                    link.chance = chance;
                    self.eval.completion_into(&mut link.completion);
                }
                None => {
                    self.links.push(ChainLink { completion: self.eval.completion_pmf(), chance });
                }
            }
            self.valid_to += 1;
        }
    }

    /// The evaluated links. Only `..valid_to` — everything a preceding
    /// [`LazyChain::ensure`] covered — is meaningful; later slots are stale.
    #[must_use]
    pub fn links(&self) -> &[ChainLink] {
        &self.links
    }

    /// Replaces the link at `i` (which must already be evaluated), e.g.
    /// with a degraded-head link.
    pub fn replace(&mut self, i: usize, link: ChainLink) {
        assert!(i < self.valid_to, "cannot replace a link past the watermark");
        self.links[i] = link;
    }

    /// Invalidates positions `to..` and restarts the chain from the
    /// predecessor completion `from` — the prefix-reuse rewind after a
    /// confirmed drop (or degrade) at position `to - 1`.
    pub fn rewind(&mut self, from: &Pmf, to: usize) {
        assert!(to <= self.valid_to, "rewind cannot move the watermark forward");
        self.valid_to = to;
        self.eval.begin(from);
    }
}

/// Instantaneous robustness (Eq 3 / Eq 7): the sum of chances of success of
/// the surviving positions.
#[must_use]
pub fn instantaneous_robustness(links: &[Option<ChainLink>]) -> f64 {
    links.iter().flatten().map(|l| l.chance).sum()
}

/// The influence zone of position `i` in a queue of length `len`
/// (Figure 3): the positions behind `i`, which benefit if `i` is dropped.
#[must_use]
pub fn influence_zone(i: usize, len: usize) -> Range<usize> {
    (i + 1).min(len)..len
}

/// The dependence zone of position `i` (Figure 3): the positions ahead of
/// `i`, which determine when `i` can start.
#[must_use]
pub fn dependence_zone(i: usize) -> Range<usize> {
    0..i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn single_task_chain_matches_direct_convolution() {
        let base = Pmf::point(10);
        let exec = Pmf::from_impulses(vec![(5, 0.5), (10, 0.5)]).unwrap();
        let links = chain(&base, &[ChainTask { deadline: 18, exec: &exec }], Compaction::None);
        assert_eq!(links.len(), 1);
        // Completion: 15 w.p. 0.5 (on time), 20 w.p. 0.5 (late).
        assert!(close(links[0].chance, 0.5));
        assert!(close(links[0].completion.at(15), 0.5));
        assert!(close(links[0].completion.at(20), 0.5));
    }

    #[test]
    fn chain_propagates_completion() {
        let base = Pmf::point(0);
        let exec = Pmf::point(10);
        let tasks = [
            ChainTask { deadline: 100, exec: &exec },
            ChainTask { deadline: 100, exec: &exec },
            ChainTask { deadline: 25, exec: &exec },
        ];
        let links = chain(&base, &tasks, Compaction::None);
        assert_eq!(links[0].completion.to_pairs(), vec![(10, 1.0)]);
        assert_eq!(links[1].completion.to_pairs(), vec![(20, 1.0)]);
        // Third task starts at 20 < 25, completes at 30 >= 25: ran but late.
        assert_eq!(links[2].completion.to_pairs(), vec![(30, 1.0)]);
        assert!(close(links[2].chance, 0.0));
    }

    #[test]
    fn expired_task_passes_mass_through() {
        let base = Pmf::point(50);
        let exec = Pmf::point(10);
        // Deadline 30 is before the machine frees at 50: reactive-drop branch.
        let tasks =
            [ChainTask { deadline: 30, exec: &exec }, ChainTask { deadline: 100, exec: &exec }];
        let links = chain(&base, &tasks, Compaction::None);
        assert!(close(links[0].chance, 0.0));
        assert_eq!(links[0].completion.to_pairs(), vec![(50, 1.0)]);
        // The follower starts right at 50, as if the expired task were absent.
        assert_eq!(links[1].completion.to_pairs(), vec![(60, 1.0)]);
        assert!(close(links[1].chance, 1.0));
    }

    #[test]
    fn chance_sum_matches_chain() {
        let base = Pmf::point(0);
        let e1 = Pmf::from_impulses(vec![(8, 0.5), (16, 0.5)]).unwrap();
        let e2 = Pmf::from_impulses(vec![(4, 0.25), (6, 0.75)]).unwrap();
        let tasks = [
            ChainTask { deadline: 12, exec: &e1 },
            ChainTask { deadline: 20, exec: &e2 },
            ChainTask { deadline: 24, exec: &e1 },
        ];
        let links = chain(&base, &tasks, Compaction::None);
        let total: f64 = links.iter().map(|l| l.chance).sum();
        assert!(close(chance_sum(&base, &tasks, 3, Compaction::None), total));
        let prefix: f64 = links.iter().take(2).map(|l| l.chance).sum();
        assert!(close(chance_sum(&base, &tasks, 2, Compaction::None), prefix));
        assert!(close(chance_sum(&base, &tasks, 0, Compaction::None), 0.0));
    }

    #[test]
    fn chain_with_no_drops_equals_chain() {
        let base = Pmf::point(0);
        let exec = Pmf::from_impulses(vec![(3, 0.5), (9, 0.5)]).unwrap();
        let tasks =
            [ChainTask { deadline: 10, exec: &exec }, ChainTask { deadline: 15, exec: &exec }];
        let plain = chain(&base, &tasks, Compaction::None);
        let masked = chain_with_drops(&base, &tasks, &[false, false], Compaction::None);
        for (a, b) in plain.iter().zip(masked.iter()) {
            let b = b.as_ref().unwrap();
            assert_eq!(a.completion, b.completion);
            assert!(close(a.chance, b.chance));
        }
    }

    #[test]
    fn dropping_head_improves_follower() {
        let base = Pmf::point(0);
        let big = Pmf::point(50);
        let small = Pmf::point(5);
        let tasks =
            [ChainTask { deadline: 60, exec: &big }, ChainTask { deadline: 20, exec: &small }];
        let keep = chain(&base, &tasks, Compaction::None);
        // Follower starts at 50, finishes 55 >= 20: chance 0.
        assert!(close(keep[1].chance, 0.0));
        let drop = chain_with_drops(&base, &tasks, &[true, false], Compaction::None);
        // With the big task dropped the follower finishes at 5 < 20.
        assert!(close(drop[1].as_ref().unwrap().chance, 1.0));
    }

    #[test]
    fn robustness_sums_surviving_chances() {
        let links = vec![
            Some(ChainLink { completion: Pmf::point(1), chance: 0.5 }),
            None,
            Some(ChainLink { completion: Pmf::point(2), chance: 0.25 }),
        ];
        assert!(close(instantaneous_robustness(&links), 0.75));
    }

    #[test]
    fn zones_match_figure3() {
        assert_eq!(influence_zone(2, 6), 3..6);
        assert_eq!(influence_zone(5, 6), 6..6); // last task: empty influence
        assert_eq!(dependence_zone(2), 0..2);
        assert_eq!(dependence_zone(0), 0..0);
    }

    #[test]
    fn empty_base_yields_zero_chances() {
        let exec = Pmf::point(1);
        let links =
            chain(&Pmf::empty(), &[ChainTask { deadline: 10, exec: &exec }], Compaction::None);
        assert!(close(links[0].chance, 0.0));
        assert!(links[0].completion.is_empty());
    }

    #[test]
    fn compaction_bounds_link_sizes() {
        let base = Pmf::uniform(0, 200);
        let exec = Pmf::uniform(10, 120);
        let tasks: Vec<ChainTask<'_>> =
            (0..6).map(|k| ChainTask { deadline: 300 + 100 * k, exec: &exec }).collect();
        let links = chain(&base, &tasks, Compaction::MaxImpulses(32));
        for l in &links {
            assert!(l.completion.len() <= 32);
        }
    }

    /// Compaction introduces only a small chance-of-success error relative
    /// to the exact chain on a realistic-size queue.
    #[test]
    fn compaction_error_is_small() {
        let base = Pmf::uniform(0, 100);
        let exec = Pmf::uniform(50, 150);
        let tasks: Vec<ChainTask<'_>> =
            (0..5).map(|k| ChainTask { deadline: 250 + 150 * k, exec: &exec }).collect();
        let exact = chain(&base, &tasks, Compaction::None);
        let compact = chain(&base, &tasks, Compaction::MaxImpulses(64));
        for (e, c) in exact.iter().zip(compact.iter()) {
            assert!((e.chance - c.chance).abs() < 0.02, "{} vs {}", e.chance, c.chance);
        }
    }
}
