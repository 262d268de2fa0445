//! The proactive task dropping **heuristic** (Section IV-E, Figure 4).
//!
//! A single head-to-tail pass over each machine queue. For each droppable
//! pending task *i* (not the running task; not the last pending task, whose
//! influence zone is empty) the heuristic compares two futures over the
//! *effective depth* η:
//!
//! * **keep**: chances of success `p_n` for `n ∈ {i, …, i+η}` with task *i*
//!   in place;
//! * **drop**: chances `p⁽ⁱ⁾_n` for `n ∈ {i+1, …, i+η}` with task *i*
//!   provisionally removed (Equations 4–6).
//!
//! Task *i* is dropped iff the drop-future strictly beats β times the
//! keep-future (Equation 8):
//!
//! ```text
//!   Σ_{n=i+1}^{i+η} p⁽ⁱ⁾_n  >  β · Σ_{n=i}^{i+η} p_n
//! ```
//!
//! β ≥ 1 is the *robustness improvement factor*: β → 1 drops on any
//! improvement, β → ∞ disables proactive dropping (Figure 6 of the paper
//! finds β = 1 best). One literal consequence of Eq 8: when the keep-future
//! has *zero* total chance, any positive gain exceeds `β · 0`, so a
//! chance-less blocker is dropped at every β — only windows with some
//! retained chance become conservative as β grows. η limits how far into
//! the influence zone gains may be
//! collected, preventing "misleading gains" amortised over many far-away
//! tasks (Figure 5 finds η = 2 best, η = 1 short-sighted).
//!
//! Confirmed drops take effect immediately within the pass: the chain
//! predecessor PMF simply skips dropped tasks, so later decisions see the
//! improved queue — `O(η·q)` convolutions per queue (Section IV-F).
//!
//! Implementation: two fused [`ChainEvaluator`]s (DESIGN.md §12). The
//! *baseline* evaluator extends the no-further-drops chain lazily, only as
//! far as the current keep-window needs — so a confirmed drop invalidates
//! and re-chains at most the next window instead of the whole `O(q)`
//! suffix (prefix reuse: candidate *i+1* starts from the surviving prefix
//! already evaluated for candidate *i*). The *probe* evaluator prices the
//! η-deep drop-window of Eq 8. Decisions are bit-identical to the naive
//! formulation; only allocation and re-chaining are removed.

use crate::{DropDecision, DropPolicy};
use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::view::{DropContext, QueueView};

/// The autonomous proactive dropping heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProactiveDropper {
    beta: f64,
    eta: usize,
}

impl ProactiveDropper {
    /// Creates the heuristic with robustness improvement factor `beta` and
    /// effective depth `eta`.
    ///
    /// # Panics
    ///
    /// Panics if `beta < 1` (Eq 8 requires β ≥ 1) or `eta == 0` (a zero
    /// depth can never observe a gain, so every comparison degenerates).
    #[must_use]
    pub fn new(beta: f64, eta: usize) -> Self {
        assert!(beta.is_finite() && beta >= 1.0, "beta must be >= 1");
        assert!(eta >= 1, "effective depth must be >= 1");
        ProactiveDropper { beta, eta }
    }

    /// The configuration the paper converges on: β = 1, η = 2.
    #[must_use]
    pub fn paper_default() -> Self {
        ProactiveDropper::new(1.0, 2)
    }

    /// The robustness improvement factor β.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The effective depth η.
    #[must_use]
    pub fn eta(&self) -> usize {
        self.eta
    }
}

impl Default for ProactiveDropper {
    fn default() -> Self {
        ProactiveDropper::paper_default()
    }
}

impl DropPolicy for ProactiveDropper {
    fn name(&self) -> &'static str {
        "Heuristic"
    }

    fn select_drops(
        &self,
        queue: &QueueView<'_>,
        ctx: &DropContext,
        scratch: &mut PolicyCtx,
    ) -> DropDecision {
        let tasks = queue.chain_tasks();
        let n = tasks.len();
        if n < 2 {
            // A single pending task is the last task: influence zone empty.
            return DropDecision::none();
        }
        let base = queue.base();
        let mut drops = Vec::new();
        // Baseline chain (no further drops): the keep-future of position i
        // reads straight from it, so each position costs η extra
        // convolutions (the drop-branch) instead of 2η+2 — the O(η·q)
        // bound of Section IV-F. `LazyChain` extends it only as far as the
        // current keep-window needs, so a confirmed drop re-chains at most
        // one window instead of the whole suffix. Both evaluators come from
        // the persistent context: the buffers are warm from previous calls,
        // the arithmetic is untouched.
        let PolicyCtx { baseline, probe, .. } = scratch;
        baseline.reset(&base);
        // Completion PMF of the latest surviving predecessor.
        let mut prev = base;
        for i in 0..n - 1 {
            let window_end = (i + 1 + self.eta).min(n);
            baseline.ensure(&tasks, window_end, ctx.compaction);
            // Keep-future: chances of i and up to η successors, from the
            // baseline chain.
            let keep: f64 = baseline.links()[i..window_end].iter().map(|l| l.chance).sum();
            // Drop-future: chances of up to η successors with i removed.
            let drop = probe.chance_sum(&prev, &tasks[i + 1..], self.eta, ctx.compaction);
            if drop > self.beta * keep + f64::EPSILON {
                drops.push(i);
                // prev unchanged: the chain now skips task i; positions
                // past it re-chain from prev on demand (links[i] now dead,
                // never read again).
                baseline.rewind(&prev, i + 1);
            } else {
                prev.clone_from(&baseline.links()[i].completion);
            }
        }
        DropDecision::drops(drops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{busy_queue, idle_queue, pending, pet};
    use taskdrop_pmf::Compaction;

    fn ctx() -> DropContext {
        DropContext::plain(Compaction::None)
    }

    #[test]
    fn empty_queue_no_drops() {
        let pet = pet();
        let q = idle_queue(&pet, 0, vec![]);
        assert!(ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx()).is_empty());
    }

    #[test]
    fn single_task_never_dropped() {
        let pet = pet();
        // Hopeless deadline, but it is the last task: influence zone empty.
        let q = idle_queue(&pet, 0, vec![pending(1, 1, 5)]);
        assert!(ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx()).is_empty());
    }

    #[test]
    fn drops_doomed_blocker() {
        let pet = pet();
        // Task 1 (type 1, exec 50) has deadline 20: chance 0. Behind it,
        // task 2 (type 0, exec 10) with deadline 30: blocked it completes at
        // 60 (chance 0); alone it completes at 10 (chance 1). Dropping the
        // blocker gains 1.0 > beta * 0.0.
        let q = idle_queue(&pet, 0, vec![pending(1, 1, 20), pending(2, 0, 30)]);
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx());
        assert_eq!(d.drops, vec![0]);
    }

    #[test]
    fn keeps_viable_blocker() {
        let pet = pet();
        // Task 1 (exec 50, deadline 60): chance 1. Task 2 (exec 10,
        // deadline 70): completes at 60 < 70, chance 1. Nothing to gain.
        let q = idle_queue(&pet, 0, vec![pending(1, 1, 60), pending(2, 0, 70)]);
        assert!(ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx()).is_empty());
    }

    #[test]
    fn beta_infinite_disables_dropping() {
        let pet = pet();
        // Blocker of type 2 ({20: .5, 80: .5}) with deadline 45: chance 0.5.
        // Follower (exec 10) with deadline 35: blocked chance = P(done<35)
        // = P(exec branch 20) * P(10 after) = 30 < 35 -> 0.5; alone chance 1.
        // Gain 0.5 vs loss 0.5: beta=1 is indifferent (strict >), huge beta
        // certainly keeps it.
        let q = idle_queue(&pet, 0, vec![pending(1, 2, 45), pending(2, 0, 35)]);
        let conservative = ProactiveDropper::new(1e12, 2);
        assert!(conservative.select_drops_fresh(&q, &ctx()).is_empty());
        // With beta = 1 and a slightly *bigger* gain (tighten the follower
        // deadline to 31 so the blocked chance drops to 0.5 while... keep
        // the construction simple: widen gain by making the blocker's own
        // chance smaller via deadline 25 -> blocker chance 0.5 (20 < 25),
        // hmm same. Direct check: beta=1 drops when gain exceeds loss.)
        let q2 = idle_queue(&pet, 0, vec![pending(1, 2, 85), pending(2, 0, 35)]);
        // Blocker chance: 20<85 and 80<85 -> 1.0; follower blocked: done at
        // 30 (.5) or 90 (.5) -> 0.5; alone -> 1.0. Gain 0.5 < loss 1.0+0.5:
        // no drop at any beta >= 1. Sanity only.
        assert!(ProactiveDropper::new(1.0, 2).select_drops_fresh(&q2, &ctx()).is_empty());
    }

    #[test]
    fn zero_keep_chance_blocker_dropped_at_any_beta() {
        let pet = pet();
        // Literal Eq 8: keep-future chance 0 means any gain wins at any beta.
        let q = idle_queue(&pet, 0, vec![pending(1, 1, 20), pending(2, 0, 30)]);
        let conservative = ProactiveDropper::new(1e12, 2);
        assert_eq!(conservative.select_drops_fresh(&q, &ctx()).drops, vec![0]);
    }

    #[test]
    fn does_not_drop_for_zero_sum_gain() {
        let pet = pet();
        // Both tasks hopeless: dropping the first gains nothing (0 > 0 is
        // false), so Eq 8 keeps it; the engine's reactive dropping will
        // handle them as their deadlines pass.
        let q = idle_queue(&pet, 0, vec![pending(1, 1, 10), pending(2, 1, 10)]);
        assert!(ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx()).is_empty());
    }

    #[test]
    fn eta_one_misses_far_gain() {
        let pet = pet();
        // Queue: A (type 1, exec 50, deadline 55, chance 1 alone),
        //        B (type 0, exec 10, deadline 70): behind A completes at 60,
        //          chance 1? 60 < 70 yes. Make B's deadline 58: 60 >= 58 ->
        //          chance 0; dropped-A chance: completes at 10 < 58 -> 1.
        //        C (type 0, exec 10, deadline 75): behind A+B completes at 70
        //          (or 60 if B reactively dropped...) — construct so that the
        //          gain for dropping A shows only at depth 2.
        // A: chance 1 (50 < 55). Dropping A loses 1.0.
        // eta=1 sees only B: gain = p(B|drop A) - p(B|keep A) = 1 - 0 = 1.
        //   Eq 8: 1 > 1*(p_A + p_B) = 1*(1+0) = 1 -> false, keep A.
        // eta=2 adds C: keep-chain: A done 50, B ran (started 50<58) done 60,
        //   C starts 60, done 70 < 75 -> p_C = 1. keep sum = 1+0+1 = 2.
        //   drop-chain: B done 10, C done 20 -> both 1. drop sum = 2.
        //   2 > 2 false -> keep A. Good: both depths keep A here.
        // Now tighten A's deadline to 45 so p_A = 0 (50 >= 45 means A cannot
        // even start? A starts at 0 < 45, completes 50 >= 45: ran but late:
        // p_A = 0, and it still blocks).
        //   eta=1: drop-sum = p(B) = 1; keep-sum = p_A + p_B = 0 + 0 = 0.
        //     1 > 0 -> drop A. Hmm, also drops. Distinguish eta=1 miss: need
        //     p_B unaffected but p_C affected.
        // Make B tiny with a very loose deadline (succeeds either way), C
        // tight (only succeeds if A dropped):
        //   A: type 1 (exec 50), deadline 45 -> p_A = 0 (runs, finishes late).
        //   B: type 0 (exec 10), deadline 1000 -> p_B = 1 either way.
        //   C: type 0 (exec 10), deadline 25: keep-A -> starts 60, late (0);
        //      drop-A -> B done 10, C done 20 < 25 (1).
        // eta=1: drop-sum = p(B|dropA) = 1; keep-sum = p_A + p_B = 0 + 1 = 1.
        //   1 > 1 false -> A kept (misses C's gain).
        // eta=2: drop-sum = 1 + 1 = 2; keep-sum = 0 + 1 + 0 = 1. 2 > 1 -> drop A.
        let mk = |pet| {
            idle_queue(pet, 0, vec![pending(1, 1, 45), pending(2, 0, 1000), pending(3, 0, 25)])
        };
        let q = mk(&pet);
        let shallow = ProactiveDropper::new(1.0, 1);
        assert!(shallow.select_drops_fresh(&q, &ctx()).is_empty(), "eta=1 misses the depth-2 gain");
        let deep = ProactiveDropper::new(1.0, 2);
        assert_eq!(deep.select_drops_fresh(&q, &ctx()).drops, vec![0], "eta=2 sees it");
    }

    #[test]
    fn last_task_never_dropped() {
        let pet = pet();
        // Three tasks; make the last hopeless. It must survive (its
        // influence zone is empty).
        let q =
            idle_queue(&pet, 0, vec![pending(1, 0, 1000), pending(2, 0, 1000), pending(3, 1, 5)]);
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx());
        assert!(!d.drops.contains(&2));
    }

    #[test]
    fn confirmed_drop_updates_chain_for_later_decisions() {
        let pet = pet();
        // A doomed huge task followed by two viable ones; after dropping the
        // blocker the survivors are fine and must not be dropped.
        let q = idle_queue(&pet, 0, vec![pending(1, 1, 20), pending(2, 0, 40), pending(3, 0, 40)]);
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx());
        assert_eq!(d.drops, vec![0]);
    }

    #[test]
    fn works_behind_running_task() {
        let pet = pet();
        // Machine busy until 100. Pending: X (type 0, deadline 50: doomed,
        // cannot start before 50), Y (type 0, deadline 115: behind X the
        // reactive pass-through means X's slot costs nothing... X passes
        // through (never starts), so Y completes at 110 < 115 either way;
        // no gain, no drop.)
        let q = busy_queue(&pet, 0, 100, 1000, vec![pending(1, 0, 50), pending(2, 0, 115)]);
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx());
        assert!(d.is_empty(), "pass-through already neutralises the doomed task");
        // But with a *stochastic* runner the doomed task can hurt: runner
        // finishes at 40 w.p. 0.5 (X starts, occupying until 50) or at 100.
        // Y deadline 115: keep -> Y completion = 60 w.p. .5 / 110 w.p. .5,
        // all < 115: chance 1 anyway. Tighten Y deadline to 105:
        //   keep: 60 (ok) / 110 (late) -> 0.5. drop X: 50/110 -> 0.5. equal.
        // Tighten to 111: keep: 60 ok, 110 ok -> 1.0; equal again. The case
        // that matters: X *starts* at 40 and runs 10 -> occupies 40..50, Y
        // starts at 50 vs 40. Y deadline 51 (exec 10): keep -> done 60 w.p.
        // .5 (late) or pass-through... runner at 100 >= X deadline 50: X
        // passes; Y starts at 100: late. chance = 0. drop X: Y starts 40,
        // done 50 < 51 w.p. 0.5 -> chance 0.5 > 0. Drop!
        use taskdrop_model::view::RunningView;
        use taskdrop_model::{TaskId, TaskTypeId};
        use taskdrop_pmf::Pmf;
        let q = taskdrop_model::view::QueueView {
            running: Some(RunningView {
                id: TaskId(9),
                type_id: TaskTypeId(0),
                deadline: 1000,
                completion: Pmf::from_impulses(vec![(40, 0.5), (100, 0.5)]).unwrap(),
            }),
            ..q
        };
        let q = taskdrop_model::view::QueueView {
            pending: vec![pending(1, 0, 50), pending(2, 0, 51)],
            ..q
        };
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx());
        assert_eq!(d.drops, vec![0]);
    }

    #[test]
    #[should_panic(expected = "beta must be >= 1")]
    fn rejects_beta_below_one() {
        let _ = ProactiveDropper::new(0.5, 2);
    }

    #[test]
    #[should_panic(expected = "effective depth")]
    fn rejects_zero_eta() {
        let _ = ProactiveDropper::new(1.0, 0);
    }
}
