//! The paper's primary contribution: **autonomous proactive task dropping**.
//!
//! Dropping a task is a double-edged sword (Section IV-A): the dropped task's
//! own chance of success is forfeited, but every task in its *influence zone*
//! (the tasks queued behind it) starts earlier and gains chance. A dropping
//! policy decides, at every mapping event and for every machine queue, which
//! pending tasks to discard so that the queue's *instantaneous robustness* —
//! the sum of the chances of success of its tasks (Eq 3) — is maximised.
//!
//! Three policies are provided, plus the no-op baseline:
//!
//! * [`ProactiveDropper`] — the paper's heuristic (Section IV-E): one pass
//!   per queue, dropping task *i* iff the chance gained within the
//!   *effective depth* η behind it outweighs β times the chance kept
//!   (Equation 8). Autonomous: no user-tuned threshold.
//! * [`OptimalDropper`] — the paper's optimal model (Section IV-D):
//!   exhaustive search over the `2^(q-1)` drop subsets of each queue,
//!   implemented as a shared-prefix DFS so common chain prefixes are
//!   convolved once, with an optional admissible-bound pruning extension.
//! * [`ThresholdDropper`] — the prior-work baseline (Gentry et al. \[2\],
//!   "PAM+Threshold"): drop a task when its chance of success falls below a
//!   user-provided threshold, mildly adapted to the observed
//!   oversubscription pressure at each mapping event.
//! * [`ReactiveOnly`] — no proactive drops at all; only the engine's
//!   reactive dropping (tasks that already missed their deadlines) applies.
//!
//! Policies never see the simulator: they receive a read-only
//! [`QueueView`] per machine queue and
//! return the pending positions to drop. The *running* task is never
//! droppable (the system model forbids preemption), and the *last* pending
//! task is excluded because its influence zone is empty (Section IV-D).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod approx_policy;
mod heuristic;
mod optimal;
mod reactive;
mod threshold;

pub use approx_policy::ApproxDropper;
pub use heuristic::ProactiveDropper;
pub use optimal::OptimalDropper;
pub use reactive::ReactiveOnly;
pub use threshold::ThresholdDropper;

use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::view::{DropContext, QueueView};

/// Outcome of a dropping decision for one machine queue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DropDecision {
    /// Indices into `QueueView::pending` to drop, strictly increasing.
    pub drops: Vec<usize>,
    /// Indices into `QueueView::pending` to *degrade* to their approximate
    /// variants (the future-work extension; see [`ApproxDropper`]), strictly
    /// increasing and disjoint from `drops`. Empty for the paper's policies.
    pub degrades: Vec<usize>,
}

impl DropDecision {
    /// The no-drop decision.
    #[must_use]
    pub fn none() -> Self {
        DropDecision::default()
    }

    /// A drop-only decision.
    #[must_use]
    pub fn drops(drops: Vec<usize>) -> Self {
        DropDecision { drops, degrades: Vec::new() }
    }

    /// Whether the decision changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty() && self.degrades.is_empty()
    }
}

/// A proactive dropping policy, invoked per machine queue at every mapping
/// event (after the engine's reactive dropping, before mapping).
///
/// Policies are stateless values (`&self`): all mutable working state lives
/// in the caller-owned [`PolicyCtx`], which the engine constructs once and
/// threads through every call so scratch buffers stay warm across mapping
/// events. Decisions must not depend on what a previous call left in the
/// context — the differential suite in
/// `crates/model/tests/evaluator_equivalence.rs` pins persistent-context
/// decisions bit-identical to fresh-context ones.
///
/// **Purity contract.** A decision depends on the queue view only through
/// [`QueueView::base`], the pending list and the PET matrices — never on
/// `now` or on task or machine ids — and on the [`DropContext`] only
/// through its compaction, its approximate-computing parameters and, if
/// the policy calls [`DropContext::pressure`], the pressure. The engine
/// relies on this to skip a queue whose last verdict dropped nothing while
/// those inputs are unchanged (the verdict memo, DESIGN.md §13); debug
/// builds re-run the policy on every skip and assert the verdict is still
/// empty.
pub trait DropPolicy: Send + Sync {
    /// Stable identifier used in reports and configs (e.g. `"Heuristic"`).
    fn name(&self) -> &'static str;

    /// Selects pending positions to drop from one machine queue, using
    /// `scratch` for all chain evaluation.
    ///
    /// Returned indices must be strictly increasing and reference
    /// `queue.pending`; the engine validates this.
    fn select_drops(
        &self,
        queue: &QueueView<'_>,
        ctx: &DropContext,
        scratch: &mut PolicyCtx,
    ) -> DropDecision;

    /// One-shot convenience: [`DropPolicy::select_drops`] against a fresh
    /// [`PolicyCtx`]. This is the reference path the differential tests
    /// compare the persistent path against; production drivers should
    /// reuse one context instead.
    fn select_drops_fresh(&self, queue: &QueueView<'_>, ctx: &DropContext) -> DropDecision {
        self.select_drops(queue, ctx, &mut PolicyCtx::new())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use taskdrop_model::view::{PendingView, QueueView, RunningView};
    use taskdrop_model::{MachineId, MachineTypeId, PetMatrix, TaskId, TaskTypeId};
    use taskdrop_pmf::{Pmf, Tick};

    /// A 3-type x 1-machine PET: type 0 = 10 ticks, type 1 = 50 ticks,
    /// type 2 = {20 w.p. 0.5, 80 w.p. 0.5}.
    pub fn pet() -> PetMatrix {
        PetMatrix::new(
            3,
            1,
            vec![
                Pmf::point(10),
                Pmf::point(50),
                Pmf::from_impulses(vec![(20, 0.5), (80, 0.5)]).unwrap(),
            ],
        )
    }

    pub fn pending(id: u64, ttype: u16, deadline: Tick) -> PendingView {
        PendingView::full(TaskId(id), TaskTypeId(ttype), deadline)
    }

    /// Queue on an idle machine at `now`.
    pub fn idle_queue<'a>(
        pet: &'a PetMatrix,
        now: Tick,
        pending: Vec<PendingView>,
    ) -> QueueView<'a> {
        QueueView {
            machine: MachineId(0),
            machine_type: MachineTypeId(0),
            now,
            running: None,
            pending,
            pet,
            approx_pet: None,
        }
    }

    /// Queue with a running task completing deterministically at `done_at`.
    pub fn busy_queue<'a>(
        pet: &'a PetMatrix,
        now: Tick,
        done_at: Tick,
        deadline: Tick,
        pending: Vec<PendingView>,
    ) -> QueueView<'a> {
        QueueView {
            machine: MachineId(0),
            machine_type: MachineTypeId(0),
            now,
            running: Some(RunningView {
                id: TaskId(999),
                type_id: TaskTypeId(0),
                deadline,
                completion: Pmf::point(done_at),
            }),
            pending,
            pet,
            approx_pet: None,
        }
    }
}
