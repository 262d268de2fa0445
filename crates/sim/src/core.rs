//! The resumable simulation core: an explicit-lifecycle state machine.
//!
//! [`SimCore`] owns one trial's complete state — machines, queues, the event
//! heap, and per-task fate accounting — and advances it one *mapping event*
//! at a time via [`SimCore::step`]. This replaces the batch-only
//! `Simulation::run()` entry point (now a thin wrapper) with a lifecycle
//! that production-style drivers need:
//!
//! * [`SimCore::step`] — process the next event timestamp (all simultaneous
//!   events, then one mapping event), returning a [`StepOutcome`];
//! * [`SimCore::run_until`] — step while events at or before a tick remain;
//! * [`SimCore::inject`] — admit a task *after* construction (open-world
//!   arrivals: the paper frames dropping as an online decision made at each
//!   mapping event, so tasks need not be known up front);
//! * [`SimCore::state`] — a read-only snapshot of queues and machines
//!   mid-trial;
//! * [`SimObserver`]s attached with [`SimCore::attach`] — a streaming view
//!   of every map/start/complete/drop/degrade/kill/failure/repair decision.
//!
//! Stepping a core to completion is **byte-identical** to the legacy batch
//! run for the same inputs (enforced by `tests/core_equivalence.rs`):
//! observers are strictly read-only and the event-processing order is
//! exactly the old run loop's. One deliberate exception: a *zero-task*
//! workload (impossible via `Workload::generate`, whose levels require at
//! least one task) drains immediately at t = 0, whereas the pre-redesign
//! loop would first process the earliest failure-timeline event if failure
//! injection was configured.

use crate::checkpoint::{
    Checkpoint, EventEntry, MachineCheckpoint, QueuedCheckpoint, RunningCheckpoint,
    CHECKPOINT_VERSION,
};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::event::{Event, EventQueue};
use crate::metrics::{TaskFate, TrialResult};
use crate::observer::{DropKind, ObserverHub, SimEvent, SimObserver};
use std::collections::VecDeque;
use taskdrop_core::DropPolicy;
use taskdrop_model::ctx::{CacheStats, PolicyCtx};
use taskdrop_model::queue as qchain;
use taskdrop_model::view::{
    DropContext, MachineView, MappingInput, PendingView, QueueView, RunningView, UnmappedView,
};
use taskdrop_model::{Machine, MachineId, PetMatrix, Task, TaskId, TaskTypeId};
use taskdrop_pmf::{Pmf, Tick};
use taskdrop_sched::MappingHeuristic;
use taskdrop_stats::{derive_seed, new_rng};
use taskdrop_workload::{Scenario, Workload};

/// A task currently executing on a machine.
struct RunningTask {
    task: Task,
    start: Tick,
    finish: Tick,
    /// Running the approximate (degraded) variant.
    degraded: bool,
}

/// A task waiting in a machine queue, possibly degraded to its approximate
/// variant by the dropping policy.
#[derive(Debug, Clone, Copy)]
struct QueuedTask {
    task: Task,
    degraded: bool,
}

/// Mutable per-machine state.
struct MachineSt {
    machine: Machine,
    running: Option<RunningTask>,
    pending: VecDeque<QueuedTask>,
    busy_ticks: u64,
    /// Incremented each time a task starts; stamps Completion/DeadlineKill
    /// events so stale ones (for an already-ended execution) are ignored.
    epoch: u64,
    /// Failure injection: the machine is down (cannot start tasks).
    down: bool,
    /// Queue revision: bumped on every mutation that can change the queue
    /// tail — map-in, proactive/reactive drop, degrade, start (pop), and
    /// failure/repair. Part of the [`PolicyCtx`] tail-cache key; **derived
    /// state**, never serialized (a restored core starts at revision 0
    /// with a cold cache and converges to the same bytes).
    queue_rev: u64,
}

impl MachineSt {
    fn occupancy(&self) -> usize {
        usize::from(self.running.is_some()) + self.pending.len()
    }
}

/// Records the single fate of every admitted task and how many are resolved,
/// letting the core report drain as soon as all work is accounted for
/// (important under failure injection, whose repair events extend past the
/// drain).
struct FateBook {
    fates: Vec<Option<TaskFate>>,
    resolved: usize,
}

impl FateBook {
    fn new(n: usize) -> Self {
        FateBook { fates: vec![None; n], resolved: 0 }
    }

    fn set(&mut self, task: TaskId, fate: TaskFate) {
        let slot = &mut self.fates[task.index()];
        debug_assert!(slot.is_none(), "task {task} assigned two fates");
        *slot = Some(fate);
        self.resolved += 1;
    }

    fn push_slot(&mut self) {
        self.fates.push(None);
    }

    fn all_resolved(&self) -> bool {
        self.resolved == self.fates.len()
    }
}

/// What one [`SimCore::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One event timestamp was processed; more events are pending.
    Advanced {
        /// Simulation time after the step.
        now: Tick,
        /// Cumulative PET×tail cache work counters ([`SimCore::cache_stats`]).
        work: CacheStats,
    },
    /// No events are scheduled but admitted tasks remain unresolved. Only
    /// reachable on an [open](SimCore::open) core between injections; the
    /// closed-world invariant (every unresolved task has a pending event)
    /// makes it impossible after [`SimCore::new`].
    Idle {
        /// Current simulation time (unchanged).
        now: Tick,
    },
    /// Every admitted task has a fate; [`SimCore::result`] is available.
    /// Further steps are no-ops until new work is [injected](SimCore::inject).
    Drained {
        /// Simulation time of the final mapping event.
        now: Tick,
        /// Cumulative PET×tail cache work counters ([`SimCore::cache_stats`]).
        work: CacheStats,
    },
}

impl StepOutcome {
    /// Whether the core has resolved every admitted task.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        matches!(self, StepOutcome::Drained { .. })
    }

    /// The simulation time this outcome reports.
    #[must_use]
    pub fn now(&self) -> Tick {
        match *self {
            StepOutcome::Advanced { now, .. }
            | StepOutcome::Idle { now }
            | StepOutcome::Drained { now, .. } => now,
        }
    }

    /// The cumulative cache work counters this outcome carries, if the
    /// step did any work (`Idle` does none).
    #[must_use]
    pub fn work(&self) -> Option<CacheStats> {
        match *self {
            StepOutcome::Advanced { work, .. } | StepOutcome::Drained { work, .. } => Some(work),
            StepOutcome::Idle { .. } => None,
        }
    }
}

/// Read-only snapshot of a queued task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedState {
    /// The waiting task.
    pub task: Task,
    /// Whether the dropping policy degraded it to its approximate variant.
    pub degraded: bool,
}

/// Read-only snapshot of a running execution.
///
/// Deliberately omits the engine's realised finish tick: a driver inspecting
/// state mid-trial faces the same execution-time uncertainty the policies
/// do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningState {
    /// The executing task.
    pub task: Task,
    /// Tick at which it started.
    pub start: Tick,
    /// Whether it runs the approximate (degraded) variant.
    pub degraded: bool,
}

/// Read-only snapshot of one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineState {
    /// The machine.
    pub machine: Machine,
    /// Whether the machine is down (failure injection).
    pub down: bool,
    /// Busy ticks accrued so far.
    pub busy_ticks: u64,
    /// The current execution, if any.
    pub running: Option<RunningState>,
    /// Queued tasks in FCFS order.
    pub pending: Vec<QueuedState>,
}

/// Read-only snapshot of the whole core, from [`SimCore::state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimState {
    /// Current simulation time.
    pub now: Tick,
    /// Tasks admitted so far (initial workload + injected).
    pub total_tasks: usize,
    /// Tasks whose fate is decided.
    pub resolved_tasks: usize,
    /// Mapping events processed so far.
    pub mapping_events: u64,
    /// Unmapped tasks waiting in the batch queue.
    pub batch: Vec<Task>,
    /// Per-machine queue snapshots.
    pub machines: Vec<MachineState>,
}

/// One resumable trial: scenario + policies + mutable trial state.
///
/// ```
/// use taskdrop_sim::{SimConfig, SimCore, StepOutcome};
/// use taskdrop_workload::{OversubscriptionLevel, Scenario, Workload};
/// use taskdrop_sched::Pam;
/// use taskdrop_core::ProactiveDropper;
///
/// let scenario = Scenario::specint(7);
/// let level = OversubscriptionLevel::new("demo", 300, 4_000);
/// let workload = Workload::generate(&scenario, &level, 3.0, 1);
/// let dropper = ProactiveDropper::paper_default();
/// let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
/// let mut core = SimCore::new(&scenario, &workload, &Pam, &dropper, config, 1).unwrap();
/// // Drive the trial event by event.
/// while let StepOutcome::Advanced { .. } = core.step() {}
/// let result = core.result().unwrap();
/// assert!(result.is_conserved());
/// ```
pub struct SimCore<'a, H: ObserverHub = Vec<Box<dyn SimObserver + 'a>>> {
    scenario: &'a Scenario,
    mapper: &'a dyn MappingHeuristic,
    dropper: &'a dyn DropPolicy,
    config: SimConfig,
    exec_seed: u64,
    /// Degraded-variant PET, shared by the policy views and the chain
    /// computations (built once; cells are time-scaled copies).
    approx_pet: Option<PetMatrix>,
    /// Every admitted task, indexed by `TaskId` (dense ids).
    tasks: Vec<Task>,
    machines: Vec<MachineSt>,
    batch: Vec<Task>,
    events: EventQueue,
    fates: FateBook,
    now: Tick,
    mapping_events: u64,
    /// Event delivery backend ([`ObserverHub`]): boxed observers by
    /// default, an [`EventRelay`](crate::EventRelay) buffer for `Send`
    /// cores on fleet worker threads.
    observers: H,
    /// The persistent evaluation context (DESIGN.md §13): policy/mapper
    /// scratch plus the keyed PET×tail cache. Constructed once per core,
    /// reused across steps and serving epochs; derived state that is
    /// rebuilt — never serialized — on checkpoint restore.
    ctx: PolicyCtx,
}

// Manual impl: the mapper/dropper are `&dyn` references whose traits don't
// (and shouldn't) require `Debug`; summarise the trial state instead.
impl<H: ObserverHub> std::fmt::Debug for SimCore<'_, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCore")
            .field("now", &self.now)
            .field("exec_seed", &self.exec_seed)
            .field("tasks", &self.tasks.len())
            .field("batch", &self.batch.len())
            .field("machines", &self.machines.len())
            .field("mapping_events", &self.mapping_events)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'a> SimCore<'a> {
    /// Assembles a trial from a pre-generated workload. `exec_seed` drives
    /// the *actual* execution-time draws; each (task, machine) pair gets an
    /// independent deterministic stream, so different policies facing the
    /// same workload see the same realised execution times.
    ///
    /// # Errors
    ///
    /// [`SimError::ZeroQueueSize`] / [`SimError::DegenerateFailureSpec`] for
    /// an invalid `config`; [`SimError::MisnumberedWorkload`] if the
    /// workload's task ids are not the dense sequence `0..len`.
    pub fn new(
        scenario: &'a Scenario,
        workload: &Workload,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
        config: SimConfig,
        exec_seed: u64,
    ) -> Result<Self, SimError> {
        for (index, task) in workload.tasks.iter().enumerate() {
            if task.id.index() != index {
                return Err(SimError::MisnumberedWorkload { index, id: task.id.0 });
            }
        }
        Self::assemble(scenario, workload.tasks.clone(), mapper, dropper, config, exec_seed)
    }

    /// Assembles an *open-world* core with no initial workload: every task
    /// arrives later through [`SimCore::inject`]. Failure timelines (if
    /// configured) are pre-generated out to the same fixed margin a
    /// zero-horizon workload would get.
    ///
    /// # Errors
    ///
    /// Same configuration errors as [`SimCore::new`].
    pub fn open(
        scenario: &'a Scenario,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
        config: SimConfig,
        exec_seed: u64,
    ) -> Result<Self, SimError> {
        Self::assemble(scenario, Vec::new(), mapper, dropper, config, exec_seed)
    }

    /// Attaches a streaming observer; it receives every subsequent
    /// [`SimEvent`] in simulation order. Observers are read-only and cannot
    /// change the trial's outcome.
    ///
    /// Only the default hub holds boxed observers; a core on an
    /// [`EventRelay`](crate::EventRelay) hub buffers events instead and
    /// its consumers drain them via [`SimCore::hub_mut`].
    pub fn attach(&mut self, observer: impl SimObserver + 'a) {
        self.observers.push(Box::new(observer));
    }

    /// Rebuilds a core from a [`Checkpoint`], picking the trial up exactly
    /// where [`SimCore::snapshot`] left it. The caller re-supplies the
    /// deterministic context a checkpoint only *names*: the scenario
    /// (validated against the recorded name and seed) and the two stateless
    /// policies. Passing a different mapper or dropper than the original
    /// run's is permitted — the state is policy-agnostic — but then the
    /// continuation is a what-if fork, not a byte-identical resume.
    ///
    /// This is [`SimCore::restore_in`] pinned to the default observer hub;
    /// observers are not part of a checkpoint, so attach them afresh.
    ///
    /// # Errors
    ///
    /// See [`SimCore::restore_in`].
    pub fn restore(
        scenario: &'a Scenario,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
        checkpoint: &Checkpoint,
    ) -> Result<Self, SimError> {
        Self::restore_in(scenario, mapper, dropper, checkpoint)
    }
}

impl<'a, H: ObserverHub> SimCore<'a, H> {
    /// [`SimCore::open`] for an explicitly chosen [`ObserverHub`] — the
    /// constructor the parallel fleet uses to build `Send` cores on
    /// [`EventRelay`](crate::EventRelay) hubs
    /// (`SimCore::<EventRelay>::open_in(..)`).
    ///
    /// # Errors
    ///
    /// Same configuration errors as [`SimCore::new`].
    pub fn open_in(
        scenario: &'a Scenario,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
        config: SimConfig,
        exec_seed: u64,
    ) -> Result<Self, SimError> {
        Self::assemble(scenario, Vec::new(), mapper, dropper, config, exec_seed)
    }

    /// The event delivery backend (to drain an
    /// [`EventRelay`](crate::EventRelay) at a fleet epoch barrier).
    pub fn hub_mut(&mut self) -> &mut H {
        &mut self.observers
    }

    fn assemble(
        scenario: &'a Scenario,
        tasks: Vec<Task>,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
        config: SimConfig,
        exec_seed: u64,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let machines: Vec<MachineSt> = scenario
            .machines
            .iter()
            .map(|&machine| MachineSt {
                machine,
                running: None,
                pending: VecDeque::with_capacity(config.queue_size),
                busy_ticks: 0,
                epoch: 0,
                down: false,
                queue_rev: 0,
            })
            .collect();
        let mut events = EventQueue::new();
        for (i, t) in tasks.iter().enumerate() {
            events.push(t.arrival, Event::Arrival(i));
        }
        let approx_pet =
            config.approx.map(|spec| taskdrop_model::approx::degraded_pet(&scenario.pet, spec));
        let fates = FateBook::new(tasks.len());
        let mut core = SimCore {
            scenario,
            mapper,
            dropper,
            config,
            exec_seed,
            approx_pet,
            tasks,
            machines,
            batch: Vec::new(),
            events,
            fates,
            now: 0,
            mapping_events: 0,
            observers: H::default(),
            ctx: PolicyCtx::new(),
        };
        core.schedule_failures();
        Ok(core)
    }

    /// Pre-generates each machine's failure/repair timeline (exponential
    /// up/down durations) out to a horizon comfortably past the last initial
    /// arrival — deadlines are short relative to the window, so the system
    /// drains long before the horizon. Timelines derive from the exec seed,
    /// so a given trial sees the same outages under every policy.
    fn schedule_failures(&mut self) {
        let Some(spec) = self.config.failures else { return };
        let last_arrival = self.tasks.last().map_or(0, |t| t.arrival);
        let horizon = last_arrival.saturating_mul(2) + 120_000;
        let up = taskdrop_stats::ExponentialSampler::new(1.0 / spec.mtbf as f64);
        let repair = taskdrop_stats::ExponentialSampler::new(1.0 / spec.mttr as f64);
        for machine in &self.scenario.machines {
            let mut rng = new_rng(derive_seed(self.exec_seed, 0xFA11_0000 + machine.id.0 as u64));
            let mut t = 0.0f64;
            loop {
                let fail_at = t + up.sample(&mut rng).max(1.0);
                if fail_at >= horizon as f64 {
                    break;
                }
                let up_at = fail_at + repair.sample(&mut rng).max(1.0);
                self.events.push(fail_at.round() as Tick, Event::MachineFailure(machine.id));
                self.events.push(up_at.round() as Tick, Event::MachineRepair(machine.id));
                t = up_at;
            }
        }
    }

    /// Admits a new task mid-trial (open-world arrival). The core assigns
    /// the next dense [`TaskId`] and schedules the arrival; the task behaves
    /// exactly as if it had been part of the initial workload.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownTaskType`] for a type the scenario lacks,
    /// [`SimError::InjectedInPast`] if `arrival` precedes the current
    /// simulation time, [`SimError::InvalidDeadline`] if
    /// `deadline <= arrival`.
    pub fn inject(
        &mut self,
        type_id: TaskTypeId,
        arrival: Tick,
        deadline: Tick,
    ) -> Result<TaskId, SimError> {
        if type_id.index() >= self.scenario.task_type_count() {
            return Err(SimError::UnknownTaskType {
                type_id: type_id.0,
                task_types: self.scenario.task_type_count(),
            });
        }
        if arrival < self.now {
            return Err(SimError::InjectedInPast { now: self.now, arrival });
        }
        if deadline <= arrival {
            return Err(SimError::InvalidDeadline { arrival, deadline });
        }
        let id = TaskId(self.tasks.len() as u64);
        let task = Task { id, type_id, arrival, deadline };
        self.tasks.push(task);
        self.fates.push_slot();
        self.events.push(arrival, Event::Arrival(id.index()));
        Ok(id)
    }

    /// Processes the next event timestamp: every event sharing it, then one
    /// mapping event for the batch (a mapping event is "triggered by
    /// completing or arrival of a task"). Returns where that leaves the
    /// trial. Once [`StepOutcome::Drained`], further calls are no-ops until
    /// new work is [injected](SimCore::inject); remaining failure-timeline
    /// events have nothing left to disturb and stay unprocessed, matching
    /// the legacy batch run.
    pub fn step(&mut self) -> StepOutcome {
        if self.fates.all_resolved() {
            return StepOutcome::Drained { now: self.now, work: self.cache_stats() };
        }
        let Some((t, ev)) = self.events.pop() else {
            return StepOutcome::Idle { now: self.now };
        };
        self.now = t;
        self.handle(ev);
        while self.events.peek_time() == Some(self.now) {
            let (_, ev) = self.events.pop().expect("peeked");
            self.handle(ev);
        }
        self.mapping_event();
        self.mapping_events += 1;
        emit(&mut self.observers, SimEvent::MappingRound { now: self.now });
        if self.fates.all_resolved() {
            StepOutcome::Drained { now: self.now, work: self.cache_stats() }
        } else {
            StepOutcome::Advanced { now: self.now, work: self.cache_stats() }
        }
    }

    /// Steps while events at or before `tick` remain (and the core is not
    /// drained). The clock only moves when events are processed, so after
    /// this returns [`SimCore::now`] is the time of the last event at or
    /// before `tick`, not `tick` itself.
    pub fn run_until(&mut self, tick: Tick) -> StepOutcome {
        while !self.fates.all_resolved() && self.events.peek_time().is_some_and(|t| t <= tick) {
            self.step();
        }
        if self.fates.all_resolved() {
            StepOutcome::Drained { now: self.now, work: self.cache_stats() }
        } else if self.events.peek_time().is_none() {
            StepOutcome::Idle { now: self.now }
        } else {
            StepOutcome::Advanced { now: self.now, work: self.cache_stats() }
        }
    }

    /// Runs the trial to completion and returns its result — the resumable
    /// equivalent of the legacy `Simulation::run()`.
    ///
    /// # Panics
    ///
    /// Panics if the event queue empties with unresolved tasks, which the
    /// closed-world invariant makes unreachable for cores built by
    /// [`SimCore::new`] (every unresolved task always has a pending event).
    #[must_use]
    pub fn run_to_completion(&mut self) -> TrialResult {
        loop {
            match self.step() {
                StepOutcome::Advanced { .. } => {}
                StepOutcome::Drained { .. } => break,
                StepOutcome::Idle { .. } => {
                    unreachable!("event queue exhausted with unresolved tasks")
                }
            }
        }
        debug_assert!(self.batch.is_empty(), "batch tasks leaked past drain");
        debug_assert!(self.machines.iter().all(|m| m.running.is_none() && m.pending.is_empty()));
        self.result().expect("drained above")
    }

    /// The trial's final metrics.
    ///
    /// # Errors
    ///
    /// [`SimError::NotDrained`] while any admitted task is unresolved.
    pub fn result(&self) -> Result<TrialResult, SimError> {
        if !self.fates.all_resolved() {
            return Err(SimError::NotDrained {
                resolved: self.fates.resolved,
                total: self.fates.fates.len(),
            });
        }
        let busy_ticks: Vec<u64> = self.machines.iter().map(|m| m.busy_ticks).collect();
        let prices: Vec<f64> =
            self.machines.iter().map(|m| self.scenario.price_per_hour(m.machine.id)).collect();
        Ok(TrialResult::from_accounting(
            &self.fates.fates,
            self.config.exclude_boundary,
            self.config.approx.map_or(0.0, |a| a.value),
            busy_ticks,
            &prices,
            self.now,
            self.mapping_events,
        ))
    }

    /// Current simulation time (the last processed event timestamp).
    #[must_use]
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Timestamp of the next scheduled event, if any.
    #[must_use]
    pub fn next_event_time(&self) -> Option<Tick> {
        self.events.peek_time()
    }

    /// Tasks admitted so far (initial workload + injections).
    #[must_use]
    pub fn total_tasks(&self) -> usize {
        self.fates.fates.len()
    }

    /// Tasks whose fate is already decided.
    #[must_use]
    pub fn resolved_tasks(&self) -> usize {
        self.fates.resolved
    }

    /// Whether every admitted task has a fate.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.fates.all_resolved()
    }

    /// The fate of a task, or `None` while it is still in flight (or the id
    /// is unknown).
    #[must_use]
    pub fn fate(&self, task: TaskId) -> Option<TaskFate> {
        self.fates.fates.get(task.index()).copied().flatten()
    }

    /// The engine configuration this core runs under.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The scenario this core runs on (machines, PET matrix, truth model).
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// The policy-facing completion-time estimate of `machine`'s queue tail
    /// — where a task appended *right now* would wait before starting. Built
    /// from the learned PET the same way the mapping phase builds its tails
    /// (the engine's realised finish times are not leaked), so serving-layer
    /// admission controllers can reuse the paper's completion-PMF threshold
    /// without reimplementing the chain. Routed through the core's
    /// persistent [`PolicyCtx`]: repeated calls against an unmoved queue
    /// are served from the PET×tail cache (see [`SimCore::cache_stats`])
    /// instead of re-chaining. Note the mapping phase never consults a
    /// *down* machine's tail (it exposes no free slots); callers pricing
    /// placement should skip machines for which [`SimCore::machine_is_down`]
    /// is true. `None` for an unknown machine id.
    pub fn queue_tail_estimate(&mut self, machine: MachineId) -> Option<Pmf> {
        let m = self.machines.get(machine.index())?;
        Some(queue_tail(
            &self.scenario.pet,
            self.approx_pet.as_ref(),
            self.now,
            m,
            self.config,
            &mut self.ctx,
        ))
    }

    /// Cumulative hit/miss counters of the persistent PET×tail cache —
    /// deterministic for a given trial, surfaced per step through
    /// [`StepOutcome`] and recorded in `BENCH_core.json` (CI fails on any
    /// drift at the fixed bench seed).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.ctx.cache_stats()
    }

    /// Whether `machine` is currently down (failure injection): a down
    /// machine cannot start tasks and the mapper gives it no new work.
    /// `None` for an unknown machine id.
    #[must_use]
    pub fn machine_is_down(&self, machine: MachineId) -> Option<bool> {
        self.machines.get(machine.index()).map(|m| m.down)
    }

    /// Forwards an externally produced lifecycle event to this core's
    /// observers, so one observer chain sees the complete task lifecycle
    /// from ingress to fate. The only admissible events are
    /// [`SimEvent::AdmissionDropped`] and [`SimEvent::CascadeForfeited`] —
    /// the lifecycle stages that happen *outside* the core (the serving
    /// layer's refusals and the graph layer's forfeits); every other
    /// variant describes an engine decision, and a forged one (terminal or
    /// not) would corrupt stream-reconstructed accounting such as
    /// [`MetricsObserver`].
    ///
    /// # Panics
    ///
    /// Panics if `ev` is any variant other than
    /// [`SimEvent::AdmissionDropped`], [`SimEvent::CascadeForfeited`], or
    /// [`SimEvent::TaskMigrated`].
    ///
    /// [`MetricsObserver`]: crate::MetricsObserver
    pub fn notify_observers(&mut self, ev: &SimEvent) {
        assert!(
            matches!(
                ev,
                SimEvent::AdmissionDropped { .. }
                    | SimEvent::CascadeForfeited { .. }
                    | SimEvent::TaskMigrated { .. }
            ),
            "only AdmissionDropped/CascadeForfeited/TaskMigrated may be forwarded from outside the engine: {ev:?}"
        );
        emit(&mut self.observers, *ev);
    }

    /// A read-only snapshot of the batch queue and every machine queue.
    /// Running entries omit the engine's realised finish times, so a driver
    /// cannot leak the truth model into a policy.
    #[must_use]
    pub fn state(&self) -> SimState {
        SimState {
            now: self.now,
            total_tasks: self.total_tasks(),
            resolved_tasks: self.resolved_tasks(),
            mapping_events: self.mapping_events,
            batch: self.batch.clone(),
            machines: self
                .machines
                .iter()
                .map(|m| MachineState {
                    machine: m.machine,
                    down: m.down,
                    busy_ticks: m.busy_ticks,
                    running: m.running.as_ref().map(|r| RunningState {
                        task: r.task,
                        start: r.start,
                        degraded: r.degraded,
                    }),
                    pending: m
                        .pending
                        .iter()
                        .map(|qt| QueuedState { task: qt.task, degraded: qt.degraded })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Serializes the complete mutable trial state into a [`Checkpoint`].
    ///
    /// Side-effect free: the core is untouched and can keep stepping.
    /// Together with [`SimCore::restore`], resuming from the snapshot is
    /// byte-identical to an uninterrupted run (see the
    /// [`checkpoint`](crate::checkpoint) module docs for why no RNG state
    /// needs capturing). Observers are *not* part of a checkpoint — attach
    /// them afresh after restoring.
    #[must_use]
    pub fn snapshot(&self) -> Checkpoint {
        let (entries, event_seq) = self.events.snapshot();
        Checkpoint {
            version: CHECKPOINT_VERSION,
            scenario_name: self.scenario.name.clone(),
            scenario_seed: self.scenario.seed,
            config: self.config,
            exec_seed: self.exec_seed,
            now: self.now,
            mapping_events: self.mapping_events,
            tasks: self.tasks.clone(),
            fates: self.fates.fates.clone(),
            batch: self.batch.clone(),
            machines: self
                .machines
                .iter()
                .map(|m| MachineCheckpoint {
                    down: m.down,
                    busy_ticks: m.busy_ticks,
                    epoch: m.epoch,
                    running: m.running.as_ref().map(|r| RunningCheckpoint {
                        task: r.task,
                        start: r.start,
                        finish: r.finish,
                        degraded: r.degraded,
                    }),
                    pending: m
                        .pending
                        .iter()
                        .map(|qt| QueuedCheckpoint { task: qt.task, degraded: qt.degraded })
                        .collect(),
                })
                .collect(),
            events: entries
                .into_iter()
                .map(|(time, seq, event)| EventEntry { time, seq, event })
                .collect(),
            event_seq,
        }
    }

    /// Rebuilds a core from a [`Checkpoint`] on any [`ObserverHub`] —
    /// [`SimCore::restore`] pins this to the default hub; the parallel
    /// fleet restores straight onto [`EventRelay`](crate::EventRelay)
    /// hubs. The restored hub starts empty ([`Default`]): observers and
    /// buffered events are never part of a checkpoint.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointVersion`] for an unknown format version;
    /// [`SimError::CheckpointMismatch`] if the checkpoint fails structural
    /// validation — scenario identity, dense task ids, fate-table sizing,
    /// queue occupancy, task-table membership of every queued entry,
    /// event-heap consistency (sequence counter, payload bounds, no event
    /// before the clock, in-flight executions matched by current-epoch
    /// completion events), and single-placement of every unresolved task;
    /// plus any config validation error.
    pub fn restore_in(
        scenario: &'a Scenario,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
        checkpoint: &Checkpoint,
    ) -> Result<Self, SimError> {
        validate_checkpoint(scenario, checkpoint)?;

        let machines: Vec<MachineSt> = scenario
            .machines
            .iter()
            .zip(&checkpoint.machines)
            .map(|(&machine, mc)| MachineSt {
                machine,
                running: mc.running.map(|r| RunningTask {
                    task: r.task,
                    start: r.start,
                    finish: r.finish,
                    degraded: r.degraded,
                }),
                pending: mc
                    .pending
                    .iter()
                    .map(|qc| QueuedTask { task: qc.task, degraded: qc.degraded })
                    .collect(),
                busy_ticks: mc.busy_ticks,
                epoch: mc.epoch,
                down: mc.down,
                queue_rev: 0,
            })
            .collect();
        let events = EventQueue::from_snapshot(
            checkpoint.events.iter().map(|e| (e.time, e.seq, e.event)).collect(),
            checkpoint.event_seq,
        );
        let approx_pet = checkpoint
            .config
            .approx
            .map(|spec| taskdrop_model::approx::degraded_pet(&scenario.pet, spec));
        Ok(SimCore {
            scenario,
            mapper,
            dropper,
            config: checkpoint.config,
            exec_seed: checkpoint.exec_seed,
            approx_pet,
            tasks: checkpoint.tasks.clone(),
            machines,
            batch: checkpoint.batch.clone(),
            events,
            fates: FateBook {
                resolved: checkpoint.resolved_tasks(),
                fates: checkpoint.fates.clone(),
            },
            now: checkpoint.now,
            mapping_events: checkpoint.mapping_events,
            observers: H::default(),
            // Cache and scratch are derived state: a restored core starts
            // cold and re-derives identical bytes (tests/tail_cache.rs).
            ctx: PolicyCtx::new(),
        })
    }

    fn handle(&mut self, ev: Event) {
        let now = self.now;
        let SimCore { tasks, machines, batch, events, fates, observers, .. } = self;
        match ev {
            Event::Arrival(i) => {
                let task = tasks[i];
                batch.push(task);
                emit(observers, SimEvent::Arrived { task });
            }
            Event::Completion(mid, epoch) => {
                let m = &mut machines[mid.index()];
                if m.epoch != epoch {
                    return; // stale: that execution was killed earlier
                }
                let r = m.running.take().expect("epoch-matched completion");
                debug_assert_eq!(r.finish, now);
                m.epoch += 1; // invalidate any outstanding kill event
                m.busy_ticks += r.finish - r.start;
                resolve(
                    fates,
                    observers,
                    SimEvent::Completed {
                        task: r.task.id,
                        machine: mid,
                        now,
                        on_time: r.finish < r.task.deadline,
                        degraded: r.degraded,
                    },
                );
                start_next(
                    self.scenario,
                    self.config,
                    self.exec_seed,
                    now,
                    m,
                    events,
                    fates,
                    observers,
                );
            }
            Event::DeadlineKill(mid, epoch) => {
                let m = &mut machines[mid.index()];
                if m.epoch != epoch {
                    return; // stale: the execution already ended
                }
                let r = m.running.take().expect("epoch-matched kill");
                debug_assert_eq!(r.task.deadline, now);
                debug_assert!(r.finish >= now, "kill scheduled after completion");
                m.epoch += 1; // invalidate the outstanding completion event
                m.busy_ticks += now - r.start;
                resolve(fates, observers, SimEvent::Killed { task: r.task.id, machine: mid, now });
                start_next(
                    self.scenario,
                    self.config,
                    self.exec_seed,
                    now,
                    m,
                    events,
                    fates,
                    observers,
                );
            }
            Event::MachineFailure(mid) => {
                let m = &mut machines[mid.index()];
                m.down = true;
                m.queue_rev += 1;
                let lost = m.running.take().map(|r| {
                    m.epoch += 1; // invalidate completion/kill events
                    m.busy_ticks += now - r.start;
                    r.task.id
                });
                let ev = SimEvent::MachineFailed { machine: mid, now, lost };
                if lost.is_some() {
                    resolve(fates, observers, ev);
                } else {
                    emit(observers, ev);
                }
            }
            Event::MachineRepair(mid) => {
                let m = &mut machines[mid.index()];
                m.down = false;
                m.queue_rev += 1;
                emit(observers, SimEvent::MachineRepaired { machine: mid, now });
                start_next(
                    self.scenario,
                    self.config,
                    self.exec_seed,
                    now,
                    m,
                    events,
                    fates,
                    observers,
                );
            }
        }
    }

    /// One mapping event: reactive drops, the dropping policy, the mapping
    /// heuristic, then starting idle machines (paper Figure 4 + Mapper).
    fn mapping_event(&mut self) {
        let now = self.now;
        let SimCore {
            scenario,
            mapper,
            dropper,
            config,
            exec_seed,
            approx_pet,
            machines,
            batch,
            events,
            fates,
            observers,
            ctx,
            ..
        } = self;
        let config = *config;
        let exec_seed = *exec_seed;
        let scenario: &Scenario = scenario;
        let approx_pet = approx_pet.as_ref();
        let pet = &scenario.pet;

        // (1) Reactive drops: machine queues and batch queue.
        for m in machines.iter_mut() {
            let before = m.pending.len();
            m.pending.retain(|qt| {
                let keep = !qt.task.expired(now);
                if !keep {
                    resolve(
                        fates,
                        observers,
                        SimEvent::Dropped { task: qt.task.id, now, kind: DropKind::Reactive },
                    );
                }
                keep
            });
            if m.pending.len() != before {
                m.queue_rev += 1;
            }
        }
        batch.retain(|task| {
            let keep = !task.expired(now);
            if !keep {
                resolve(
                    fates,
                    observers,
                    SimEvent::Dropped { task: task.id, now, kind: DropKind::Reactive },
                );
            }
            keep
        });

        // (2) Proactive dropping policy, queue by queue. A queue whose last
        // verdict kept every task is skipped while that verdict's inputs
        // are unchanged (the verdict memo, DESIGN.md §13).
        let capacity = scenario.capacity(config.queue_size);
        let pressure = batch.len() as f64 / capacity as f64;
        let drop_ctx = DropContext::new(config.compaction, pressure, config.approx);
        for m in machines.iter_mut() {
            if m.pending.is_empty() {
                continue;
            }
            let running = running_view(pet, now, m, config);
            let base = running.as_ref().map_or_else(|| Pmf::point(now), |r| r.completion.clone());
            let slot = m.machine.id.index();
            if ctx.verdicts.holds(slot, m.queue_rev, &base, pressure) {
                if cfg!(debug_assertions) {
                    let view = queue_view(pet, approx_pet, now, m, running);
                    let fresh = dropper.select_drops(&view, &drop_ctx, &mut PolicyCtx::new());
                    drop_ctx.take_pressure_read();
                    debug_assert!(
                        fresh.is_empty(),
                        "verdict memo skipped {} but the policy now decides {fresh:?}",
                        m.machine.id
                    );
                }
                continue;
            }
            let view = queue_view(pet, approx_pet, now, m, running);
            let decision = dropper.select_drops(&view, &drop_ctx, ctx);
            let read_pressure = drop_ctx.take_pressure_read();
            if decision.is_empty() {
                ctx.verdicts.record(slot, m.queue_rev, base, read_pressure.then_some(pressure));
                continue;
            }
            // Drops and degrades both change what a tail chain sees.
            m.queue_rev += 1;
            let mut last: Option<usize> = None;
            for &idx in &decision.drops {
                assert!(idx < m.pending.len(), "dropper returned out-of-range index");
                assert!(last.is_none_or(|p| p < idx), "dropper indices must increase");
                last = Some(idx);
            }
            // Degrades: validated, disjoint from drops, not already degraded.
            let mut last_deg: Option<usize> = None;
            for &idx in &decision.degrades {
                assert!(idx < m.pending.len(), "degrade index out of range");
                assert!(last_deg.is_none_or(|p| p < idx), "degrade indices must increase");
                assert!(!decision.drops.contains(&idx), "cannot drop and degrade one task");
                assert!(
                    config.approx.is_some(),
                    "policy degraded a task but approximate computing is disabled"
                );
                assert!(!m.pending[idx].degraded, "task degraded twice");
                m.pending[idx].degraded = true;
                emit(
                    observers,
                    SimEvent::Degraded { task: m.pending[idx].task.id, machine: m.machine.id, now },
                );
                last_deg = Some(idx);
            }
            for &idx in decision.drops.iter().rev() {
                let qt = m.pending.remove(idx).expect("validated index");
                resolve(
                    fates,
                    observers,
                    SimEvent::Dropped { task: qt.task.id, now, kind: DropKind::Proactive },
                );
            }
        }

        // (3) Mapping heuristic fills free slots from the batch queue.
        if !batch.is_empty() {
            let machine_views: Vec<MachineView> = machines
                .iter()
                .map(|m| {
                    // A down machine exposes no free slots: the mapper must
                    // not feed a queue that cannot drain.
                    let free_slots = if m.down {
                        0
                    } else {
                        config.queue_size - m.occupancy().min(config.queue_size)
                    };
                    // Tails are only consulted for machines the mapper can
                    // fill; skipping full queues avoids most of the chain
                    // work in heavy oversubscription. The shared ctx serves
                    // unchanged queues straight from its PET×tail cache.
                    let tail = if free_slots == 0 {
                        Pmf::point(now)
                    } else {
                        queue_tail(pet, approx_pet, now, m, config, ctx)
                    };
                    MachineView {
                        machine: m.machine.id,
                        machine_type: m.machine.type_id,
                        free_slots,
                        tail,
                    }
                })
                .collect();
            let unmapped: Vec<UnmappedView> = batch
                .iter()
                .map(|t| UnmappedView {
                    id: t.id,
                    type_id: t.type_id,
                    arrival: t.arrival,
                    deadline: t.deadline,
                })
                .collect();
            let input = MappingInput {
                now,
                pet,
                machines: machine_views,
                unmapped: &unmapped,
                compaction: config.compaction,
            };
            let assignments = mapper.map(input, ctx);

            let mut taken = vec![false; batch.len()];
            for a in &assignments {
                assert!(a.task_idx < batch.len(), "mapper returned out-of-range task index");
                assert!(!taken[a.task_idx], "mapper assigned a task twice");
                taken[a.task_idx] = true;
                let m = &mut machines[a.machine.index()];
                assert!(
                    m.occupancy() < config.queue_size,
                    "mapper overfilled queue of {}",
                    a.machine
                );
                m.pending.push_back(QueuedTask { task: batch[a.task_idx], degraded: false });
                m.queue_rev += 1;
                emit(
                    observers,
                    SimEvent::Mapped { task: batch[a.task_idx].id, machine: a.machine, now },
                );
            }
            let mut keep_iter = taken.iter();
            batch.retain(|_| !keep_iter.next().expect("mask sized to batch"));
        }

        // (4) Idle machines start their newly queued work immediately.
        for m in machines.iter_mut() {
            if m.running.is_none() && !m.pending.is_empty() {
                start_next(scenario, config, exec_seed, now, m, events, fates, observers);
            }
        }
    }
}

/// Structural validation of a [`Checkpoint`] against the scenario it is
/// being restored onto — the "fail loudly instead of corrupting a trial"
/// half of the checkpoint contract. Checks, in order:
///
/// * format version and config validity;
/// * scenario identity (name + seed) and machine count;
/// * dense task ids, in-range task types, fate-table sizing;
/// * every queued/batched/running task is recorded in the task table
///   *verbatim* (fate accounting and stale-event handling index by id);
/// * machine-queue occupancy within the configured capacity;
/// * event-heap consistency: sequence counter covers every entry, event
///   payloads reference real tasks/machines, and no event is scheduled
///   before the checkpoint clock (the engine never leaves one behind, and
///   replaying it would rewind time);
/// * placement: each unresolved task sits in exactly one of batch /
///   pending / running / an unprocessed `Arrival` event; resolved tasks
///   sit in none (a double-placed task would be resolved twice, a
///   dangling one would strand the drain loop);
/// * in-flight executions line up with the heap: a running task has
///   exactly one current-epoch `Completion` at its recorded finish (and
///   at most one `DeadlineKill`, at its deadline) and started at or
///   before the clock; no `Completion`/`DeadlineKill` carries an epoch
///   the machine has not reached yet.
///
/// # Errors
///
/// [`SimError::CheckpointVersion`], [`SimError::CheckpointMismatch`]
/// (whose `field` names the failed invariant),
/// [`SimError::MisnumberedWorkload`], [`SimError::UnknownTaskType`], or a
/// config validation error.
#[allow(clippy::too_many_lines)] // a flat checklist; splitting would obscure it
fn validate_checkpoint(scenario: &Scenario, checkpoint: &Checkpoint) -> Result<(), SimError> {
    let mismatch = |field: &'static str, expected: String, found: String| {
        Err(SimError::CheckpointMismatch { field, expected, found })
    };
    if checkpoint.version != CHECKPOINT_VERSION {
        return Err(SimError::CheckpointVersion {
            found: checkpoint.version,
            supported: CHECKPOINT_VERSION,
        });
    }
    checkpoint.config.validate()?;
    if checkpoint.scenario_name != scenario.name || checkpoint.scenario_seed != scenario.seed {
        return mismatch(
            "scenario",
            format!("{} (seed {})", scenario.name, scenario.seed),
            format!("{} (seed {})", checkpoint.scenario_name, checkpoint.scenario_seed),
        );
    }
    if checkpoint.machines.len() != scenario.machine_count() {
        return mismatch(
            "machines",
            scenario.machine_count().to_string(),
            checkpoint.machines.len().to_string(),
        );
    }
    if checkpoint.fates.len() != checkpoint.tasks.len() {
        return mismatch(
            "fates",
            format!("{} entries", checkpoint.tasks.len()),
            format!("{} entries", checkpoint.fates.len()),
        );
    }
    for (index, task) in checkpoint.tasks.iter().enumerate() {
        if task.id.index() != index {
            return Err(SimError::MisnumberedWorkload { index, id: task.id.0 });
        }
        if task.type_id.index() >= scenario.task_type_count() {
            return Err(SimError::UnknownTaskType {
                type_id: task.type_id.0,
                task_types: scenario.task_type_count(),
            });
        }
    }
    let known_task = |task: &Task| {
        checkpoint.tasks.get(task.id.index()).is_some_and(|recorded| recorded == task)
    };
    let unknown = |field: &'static str, task: &Task| {
        mismatch(
            field,
            "a task recorded in the checkpoint's task table".to_string(),
            format!("{task:?}"),
        )
    };
    for task in &checkpoint.batch {
        if !known_task(task) {
            return unknown("batch", task);
        }
    }
    for (idx, mc) in checkpoint.machines.iter().enumerate() {
        let occupancy = usize::from(mc.running.is_some()) + mc.pending.len();
        if occupancy > checkpoint.config.queue_size {
            return mismatch(
                "queue occupancy",
                format!("<= {} on m{idx}", checkpoint.config.queue_size),
                occupancy.to_string(),
            );
        }
        if let Some(r) = &mc.running {
            if !known_task(&r.task) {
                return unknown("running", &r.task);
            }
            if r.start > checkpoint.now {
                return mismatch(
                    "running",
                    format!("execution started at or before the clock ({})", checkpoint.now),
                    format!("start {}", r.start),
                );
            }
        }
        for qc in &mc.pending {
            if !known_task(&qc.task) {
                return unknown("pending", &qc.task);
            }
        }
    }
    if let Some(max_seq) = checkpoint.events.iter().map(|e| e.seq).max() {
        if max_seq > checkpoint.event_seq {
            return mismatch(
                "event_seq",
                format!(">= {max_seq}"),
                checkpoint.event_seq.to_string(),
            );
        }
    }
    // Per-machine tallies of events carrying the machine's *current* epoch;
    // anything stale (older epoch) is legitimately ignored by the engine,
    // anything from a not-yet-reached epoch would fire falsely later.
    let mut completions = vec![0usize; checkpoint.machines.len()];
    let mut kills = vec![0usize; checkpoint.machines.len()];
    for entry in &checkpoint.events {
        if entry.time < checkpoint.now {
            return mismatch(
                "events",
                format!("scheduled at or after the checkpoint clock ({})", checkpoint.now),
                format!("{:?} at {}", entry.event, entry.time),
            );
        }
        let bad_event = || {
            mismatch(
                "events",
                "a payload consistent with the checkpoint state".to_string(),
                format!("{:?}", entry.event),
            )
        };
        match entry.event {
            Event::Arrival(i) => {
                if i >= checkpoint.tasks.len() {
                    return bad_event();
                }
            }
            Event::Completion(m, ep) | Event::DeadlineKill(m, ep) => {
                let Some(mc) = checkpoint.machines.get(m.index()) else {
                    return bad_event();
                };
                if ep > mc.epoch {
                    return bad_event();
                }
                if ep == mc.epoch {
                    let Some(r) = &mc.running else { return bad_event() };
                    let is_completion = matches!(entry.event, Event::Completion(..));
                    let expected_time = if is_completion { r.finish } else { r.task.deadline };
                    if entry.time != expected_time {
                        return bad_event();
                    }
                    if is_completion {
                        completions[m.index()] += 1;
                    } else {
                        kills[m.index()] += 1;
                    }
                }
            }
            Event::MachineFailure(m) | Event::MachineRepair(m) => {
                if m.index() >= scenario.machine_count() {
                    return bad_event();
                }
            }
        }
    }
    for (idx, mc) in checkpoint.machines.iter().enumerate() {
        let expected = usize::from(mc.running.is_some());
        if completions[idx] != expected || kills[idx] > expected {
            return mismatch(
                "running",
                format!(
                    "m{idx} with {expected} current-epoch completion event(s) (and at most that many kills)"
                ),
                format!("{} completion(s), {} kill(s)", completions[idx], kills[idx]),
            );
        }
    }
    // Placement consistency: an unresolved task sits in exactly one place
    // (batch, a pending slot, running, or an unprocessed Arrival event); a
    // resolved one sits in none.
    let mut placements = vec![0u32; checkpoint.tasks.len()];
    for task in &checkpoint.batch {
        placements[task.id.index()] += 1;
    }
    for mc in &checkpoint.machines {
        if let Some(r) = &mc.running {
            placements[r.task.id.index()] += 1;
        }
        for qc in &mc.pending {
            placements[qc.task.id.index()] += 1;
        }
    }
    for entry in &checkpoint.events {
        if let Event::Arrival(i) = entry.event {
            placements[i] += 1; // index validated above
        }
    }
    for (index, &count) in placements.iter().enumerate() {
        let expected = u32::from(checkpoint.fates[index].is_none());
        if count != expected {
            return mismatch(
                "placement",
                format!(
                    "task{index} ({}) in {expected} queue/event slot(s)",
                    if expected == 1 { "unresolved" } else { "resolved" },
                ),
                format!("{count} slot(s)"),
            );
        }
    }
    Ok(())
}

/// Delivers one event through the core's hub (boxed observers or a
/// buffering relay — the engine does not care which).
fn emit<H: ObserverHub>(observers: &mut H, ev: SimEvent) {
    observers.deliver(&ev);
}

/// Records the fate a terminal event implies and notifies observers. The
/// event→fate mapping lives in one place — [`SimEvent::resolved`] — so the
/// engine's accounting and the observer stream cannot drift apart.
fn resolve<H: ObserverHub>(fates: &mut FateBook, observers: &mut H, ev: SimEvent) {
    let (task, fate) = ev.resolved().expect("resolve() called with a non-terminal event");
    fates.set(task, fate);
    emit(observers, ev);
}

/// Actual execution time of `task` on `machine`, drawn from the truth
/// model. Deterministic per (exec_seed, task, machine) regardless of
/// event order or policy, so policy comparisons share the same luck.
fn actual_exec(scenario: &Scenario, exec_seed: u64, task: &Task, machine: Machine) -> Tick {
    let stream = task.id.0 * scenario.machine_count() as u64 + machine.id.0 as u64;
    let mut rng = new_rng(derive_seed(exec_seed, stream));
    scenario.truth.sample(task.type_id, machine.type_id, &mut rng)
}

/// Starts the next runnable pending task on an idle machine, reactively
/// dropping heads that can no longer begin before their deadlines.
#[allow(clippy::too_many_arguments)] // split borrows of one SimCore
fn start_next<H: ObserverHub>(
    scenario: &Scenario,
    config: SimConfig,
    exec_seed: u64,
    now: Tick,
    m: &mut MachineSt,
    events: &mut EventQueue,
    fates: &mut FateBook,
    observers: &mut H,
) {
    debug_assert!(m.running.is_none());
    if m.down {
        return; // queue frozen until repair
    }
    while let Some(QueuedTask { task, degraded }) = m.pending.pop_front() {
        m.queue_rev += 1;
        if task.expired(now) {
            resolve(
                fates,
                observers,
                SimEvent::Dropped { task: task.id, now, kind: DropKind::Reactive },
            );
            continue;
        }
        let full_exec = actual_exec(scenario, exec_seed, &task, m.machine);
        let exec = if degraded {
            let factor = config.approx.map_or(1.0, |a| a.time_factor);
            ((full_exec as f64 * factor).round() as Tick).max(1)
        } else {
            full_exec
        };
        let finish = now + exec;
        m.epoch += 1;
        if config.kill_running_at_deadline && finish >= task.deadline {
            // The execution will overshoot (or exactly meet) the
            // deadline; the engine kills it right at the deadline
            // (live-video semantics). Pushed *before* the completion so
            // that on a `finish == deadline` tie the kill wins and the
            // completion goes stale. Scheduling the kill only when it
            // will fire keeps the heap small; the engine's foreknowledge
            // of `finish` is not leaked to any policy.
            events.push(task.deadline, Event::DeadlineKill(m.machine.id, m.epoch));
        }
        events.push(finish, Event::Completion(m.machine.id, m.epoch));
        emit(observers, SimEvent::Started { task: task.id, machine: m.machine.id, now, degraded });
        m.running = Some(RunningTask { task, start: now, finish, degraded });
        return;
    }
}

/// Completion-time view of the running task: the learned execution PMF
/// shifted to its start tick and conditioned on "not finished by now"; falls
/// back to a point mass one tick ahead when the learned support is already
/// exhausted (the actual draw exceeded everything the PET saw). Under
/// kill-at-deadline semantics the machine frees no later than the running
/// task's deadline, so the estimate is clamped there.
fn running_view(
    pet: &PetMatrix,
    now: Tick,
    m: &MachineSt,
    config: SimConfig,
) -> Option<RunningView> {
    let r = m.running.as_ref()?;
    // A degraded runner's estimate scales its learned PMF the same way the
    // engine scales its actual draw.
    let exec_estimate = if r.degraded {
        let factor = config.approx.map_or(1.0, |a| a.time_factor);
        pet.pmf(r.task.type_id, m.machine.type_id).time_scale(factor)
    } else {
        pet.pmf(r.task.type_id, m.machine.type_id).clone()
    };
    let shifted = exec_estimate.shift(r.start);
    let mut completion = shifted.condition_at_least(now + 1).unwrap_or_else(|| Pmf::point(now + 1));
    if self_kill_applies(config, r, now) {
        completion = completion.clamp_max(r.task.deadline.max(now + 1));
    }
    Some(RunningView {
        id: r.task.id,
        type_id: r.task.type_id,
        deadline: r.task.deadline,
        completion,
    })
}

/// The view a drop policy prices for machine `m`, whose running task (if
/// any) is `running`.
fn queue_view<'a>(
    pet: &'a PetMatrix,
    approx_pet: Option<&'a PetMatrix>,
    now: Tick,
    m: &MachineSt,
    running: Option<RunningView>,
) -> QueueView<'a> {
    QueueView {
        machine: m.machine.id,
        machine_type: m.machine.type_id,
        now,
        running,
        pending: m
            .pending
            .iter()
            .map(|qt| PendingView {
                id: qt.task.id,
                type_id: qt.task.type_id,
                deadline: qt.task.deadline,
                degraded: qt.degraded,
            })
            .collect(),
        pet,
        approx_pet,
    }
}

/// The clamp only applies while the kill can still fire (deadline ahead).
fn self_kill_applies(config: SimConfig, r: &RunningTask, now: Tick) -> bool {
    config.kill_running_at_deadline && r.task.deadline > now
}

/// Completion PMF of the queue tail: where a newly appended task would wait.
/// Degraded entries chain with the degraded PET.
///
/// Served through the persistent [`PolicyCtx`]: the cache key is the
/// complete input of the chain — the machine's queue revision (pending
/// content), the predecessor completion `base` (running task + clock) and
/// the compaction policy — so a hit is bit-identical to recomputation.
/// Empty queues return `base` directly without touching the cache (no
/// chain work to save). Misses re-chain with the shared evaluator scratch
/// and refill the entry.
fn queue_tail(
    pet: &PetMatrix,
    approx_pet: Option<&PetMatrix>,
    now: Tick,
    m: &MachineSt,
    config: SimConfig,
    ctx: &mut PolicyCtx,
) -> Pmf {
    let base = match running_view(pet, now, m, config) {
        Some(r) => r.completion,
        None => Pmf::point(now),
    };
    if m.pending.is_empty() {
        return base;
    }
    let key = m.machine.id.index();
    if let Some(tail) = ctx.tails.lookup_tail(key, m.queue_rev, &base, config.compaction) {
        return tail;
    }
    let tasks: Vec<qchain::ChainTask<'_>> = m
        .pending
        .iter()
        .map(|qt| {
            let source = if qt.degraded { approx_pet.unwrap_or(pet) } else { pet };
            qchain::ChainTask {
                deadline: qt.task.deadline,
                exec: source.pmf(qt.task.type_id, m.machine.type_id),
            }
        })
        .collect();
    let tail = ctx.eval.tail(&base, &tasks, config.compaction);
    ctx.tails.store_tail(key, m.queue_rev, base, config.compaction, tail.clone());
    tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use taskdrop_core::{DropDecision, ProactiveDropper, ReactiveOnly, ThresholdDropper};
    use taskdrop_sched::Pam;
    use taskdrop_workload::OversubscriptionLevel;

    fn scenario() -> Scenario {
        Scenario::specint(7)
    }

    fn workload(scenario: &Scenario, tasks: usize, window: Tick) -> Workload {
        let level = OversubscriptionLevel::new("core", tasks, window);
        Workload::generate(scenario, &level, 3.0, 42)
    }

    fn cfg() -> SimConfig {
        SimConfig { exclude_boundary: 0, ..SimConfig::default() }
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let s = scenario();
        let w = workload(&s, 10, 1_000);
        let bad = SimConfig { queue_size: 0, ..cfg() };
        let err = SimCore::new(&s, &w, &Pam, &ReactiveOnly, bad, 1).err();
        assert_eq!(err, Some(SimError::ZeroQueueSize));
    }

    #[test]
    fn misnumbered_workload_rejected() {
        let s = scenario();
        let mut w = workload(&s, 5, 1_000);
        w.tasks[3].id = TaskId(77);
        let err = SimCore::new(&s, &w, &Pam, &ReactiveOnly, cfg(), 1).err();
        assert_eq!(err, Some(SimError::MisnumberedWorkload { index: 3, id: 77 }));
    }

    #[test]
    fn stepping_reaches_drain_and_result() {
        let s = scenario();
        let w = workload(&s, 120, 2_000);
        let dropper = ProactiveDropper::paper_default();
        let mut core = SimCore::new(&s, &w, &Pam, &dropper, cfg(), 1).unwrap();
        assert_eq!(core.result(), Err(SimError::NotDrained { resolved: 0, total: 120 }));
        let mut steps = 0u64;
        while let StepOutcome::Advanced { .. } = core.step() {
            steps += 1;
        }
        let r = core.result().unwrap();
        assert!(r.is_conserved());
        // One mapping event per step (the final step drains).
        assert_eq!(r.mapping_events, steps + 1);
        // Drained cores stay drained.
        assert!(core.step().is_drained());
    }

    #[test]
    fn run_until_respects_the_clock() {
        let s = scenario();
        let w = workload(&s, 200, 4_000);
        let mut core = SimCore::new(&s, &w, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        let outcome = core.run_until(1_000);
        assert!(!outcome.is_drained());
        assert!(core.now() <= 1_000);
        assert!(core.next_event_time().is_some_and(|t| t > 1_000));
        let mid = core.state();
        assert!(mid.resolved_tasks < mid.total_tasks);
        let r = core.run_to_completion();
        assert!(r.is_conserved());
    }

    #[test]
    fn state_snapshot_is_consistent_mid_trial() {
        let s = scenario();
        let w = workload(&s, 300, 2_000);
        let mut core = SimCore::new(&s, &w, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        core.run_until(800);
        let st = core.state();
        assert_eq!(st.machines.len(), s.machine_count());
        assert_eq!(st.now, core.now());
        let queued: usize = st.machines.iter().map(|m| m.pending.len()).sum();
        let running: usize = st.machines.iter().filter(|m| m.running.is_some()).count();
        // Everything is somewhere: resolved, queued, running, batched, or
        // still in the future.
        assert!(st.resolved_tasks + queued + running + st.batch.len() <= st.total_tasks);
        for m in &st.machines {
            assert!(m.pending.len() < core.config().queue_size);
        }
    }

    #[test]
    fn open_core_accepts_injections_and_drains() {
        let s = scenario();
        let mut core = SimCore::open(&s, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        assert!(core.step().is_drained(), "no work yet");
        let mut ids = Vec::new();
        for k in 0..40u64 {
            let id = core.inject(TaskTypeId((k % 12) as u16), 10 * k, 10 * k + 600).unwrap();
            ids.push(id);
        }
        assert_eq!(core.total_tasks(), 40);
        let r = core.run_to_completion();
        assert!(r.is_conserved());
        assert_eq!(r.total_tasks, 40);
        for id in ids {
            assert!(core.fate(id).is_some());
        }
    }

    #[test]
    fn inject_validates_its_arguments() {
        let s = scenario();
        let mut core = SimCore::open(&s, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        assert_eq!(
            core.inject(TaskTypeId(99), 0, 10).err(),
            Some(SimError::UnknownTaskType { type_id: 99, task_types: 12 })
        );
        assert_eq!(
            core.inject(TaskTypeId(0), 5, 5).err(),
            Some(SimError::InvalidDeadline { arrival: 5, deadline: 5 })
        );
        core.inject(TaskTypeId(0), 100, 700).unwrap();
        core.run_until(100);
        let now = core.now();
        assert!(now >= 100);
        assert_eq!(
            core.inject(TaskTypeId(0), now.saturating_sub(1), now + 500).err(),
            Some(SimError::InjectedInPast { now, arrival: now - 1 })
        );
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        let s = scenario();
        let w = workload(&s, 150, 1_800);
        let dropper = ProactiveDropper::paper_default();
        let mut reference = SimCore::new(&s, &w, &Pam, &dropper, cfg(), 9).unwrap();
        let expected = reference.run_to_completion();

        let mut interrupted = SimCore::new(&s, &w, &Pam, &dropper, cfg(), 9).unwrap();
        for _ in 0..40 {
            interrupted.step();
        }
        let cp = interrupted.snapshot();
        // Snapshotting is side-effect free: the interrupted core finishes
        // identically, and so does a core restored from the checkpoint.
        assert_eq!(interrupted.run_to_completion(), expected);
        let mut restored = SimCore::restore(&s, &Pam, &dropper, &cp).unwrap();
        assert_eq!(restored.now(), cp.now);
        assert_eq!(restored.run_to_completion(), expected);
    }

    #[test]
    fn restore_validates_version_and_context() {
        let s = scenario();
        let w = workload(&s, 20, 600);
        let core = SimCore::new(&s, &w, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        let cp = core.snapshot();

        let mut wrong_version = cp.clone();
        wrong_version.version = 99;
        assert_eq!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &wrong_version).err(),
            Some(SimError::CheckpointVersion { found: 99, supported: CHECKPOINT_VERSION })
        );

        let other = Scenario::specint(s.seed + 1);
        assert!(matches!(
            SimCore::restore(&other, &Pam, &ReactiveOnly, &cp).err(),
            Some(SimError::CheckpointMismatch { field: "scenario", .. })
        ));

        let mut missized = cp.clone();
        missized.fates.push(None);
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &missized).err(),
            Some(SimError::CheckpointMismatch { field: "fates", .. })
        ));

        let mut bad_seq = cp.clone();
        bad_seq.event_seq = 0;
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &bad_seq).err(),
            Some(SimError::CheckpointMismatch { field: "event_seq", .. })
        ));

        // Queue/batch/event entries must reference recorded tasks and real
        // machines — a corrupted checkpoint fails restore, not step().
        let alien = Task::new(TaskId(77), TaskTypeId(0), 1, 100);
        let mut bad_batch = cp.clone();
        bad_batch.batch.push(alien);
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &bad_batch).err(),
            Some(SimError::CheckpointMismatch { field: "batch", .. })
        ));

        let mut bad_pending = cp.clone();
        bad_pending.machines[0]
            .pending
            .push(crate::checkpoint::QueuedCheckpoint { task: alien, degraded: false });
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &bad_pending).err(),
            Some(SimError::CheckpointMismatch { field: "pending", .. })
        ));

        // A recorded task whose fields drifted from the task table is just
        // as alien as an out-of-range id.
        let mut drifted = cp.clone();
        let mut twisted = drifted.tasks[3];
        twisted.deadline += 1;
        drifted.batch.push(twisted);
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &drifted).err(),
            Some(SimError::CheckpointMismatch { field: "batch", .. })
        ));

        let mut bad_event = cp.clone();
        bad_event.events.push(crate::checkpoint::EventEntry {
            time: 1,
            seq: bad_event.event_seq,
            event: Event::Arrival(999),
        });
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &bad_event).err(),
            Some(SimError::CheckpointMismatch { field: "events", .. })
        ));

        let mut bad_machine_event = cp.clone();
        bad_machine_event.events.push(crate::checkpoint::EventEntry {
            time: 1,
            seq: bad_machine_event.event_seq,
            event: Event::MachineRepair(taskdrop_model::MachineId(200)),
        });
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &bad_machine_event).err(),
            Some(SimError::CheckpointMismatch { field: "events", .. })
        ));

        // A recorded task placed twice (here: batch + its own pending
        // arrival event) would be resolved twice; restore refuses it.
        let mut double_placed = cp.clone();
        let first = double_placed.tasks[0];
        double_placed.batch.push(first);
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &double_placed).err(),
            Some(SimError::CheckpointMismatch { field: "placement", .. })
        ));
    }

    #[test]
    fn notify_observers_forwards_but_rejects_terminal_events() {
        let s = scenario();
        let seen = std::cell::Cell::new(0usize);
        let mut core = SimCore::open(&s, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        core.attach(|_: &SimEvent| seen.set(seen.get() + 1));
        core.notify_observers(&SimEvent::AdmissionDropped {
            type_id: TaskTypeId(0),
            arrival: 5,
            deadline: 50,
            now: 5,
            kind: crate::observer::AdmissionDropKind::RejectedFull,
        });
        assert_eq!(seen.get(), 1);
        let terminal = SimEvent::Dropped { task: TaskId(0), now: 5, kind: DropKind::Reactive };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            core.notify_observers(&terminal)
        }));
        assert!(panicked.is_err(), "terminal events must be refused");
    }

    #[test]
    fn injection_after_drain_revives_the_core() {
        let s = scenario();
        let mut core = SimCore::open(&s, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        core.inject(TaskTypeId(0), 0, 500).unwrap();
        let _ = core.run_to_completion();
        assert!(core.is_drained());
        let now = core.now();
        core.inject(TaskTypeId(1), now + 50, now + 900).unwrap();
        assert!(!core.is_drained());
        let r = core.run_to_completion();
        assert_eq!(r.total_tasks, 2);
        assert!(r.is_conserved());
    }

    /// Forwards every call to `inner`, counting them — the shape of a
    /// timing or tracing wrapper.
    struct Forwarding<'a> {
        inner: &'a dyn DropPolicy,
        calls: AtomicU64,
    }

    impl DropPolicy for Forwarding<'_> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn select_drops(
            &self,
            queue: &QueueView<'_>,
            ctx: &DropContext,
            scratch: &mut PolicyCtx,
        ) -> DropDecision {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.select_drops(queue, ctx, scratch)
        }
    }

    #[test]
    fn forwarding_wrapper_skips_exactly_what_the_bare_policy_skips() {
        let s = scenario();
        let w = workload(&s, 300, 2_000);
        let heuristic = ProactiveDropper::paper_default();
        let threshold = ThresholdDropper::paper_default();
        for bare in [&heuristic as &dyn DropPolicy, &threshold] {
            let mut plain = SimCore::new(&s, &w, &Pam, bare, cfg(), 1).unwrap();
            let wrapper = Forwarding { inner: bare, calls: AtomicU64::new(0) };
            let mut wrapped = SimCore::new(&s, &w, &Pam, &wrapper, cfg(), 1).unwrap();
            assert_eq!(plain.run_to_completion(), wrapped.run_to_completion());
            let stats = plain.cache_stats();
            assert_eq!(stats, wrapped.cache_stats(), "{}", bare.name());
            assert!(stats.verdict_hits > 0, "{}: the memo never fired", bare.name());
            assert!(wrapper.calls.load(Ordering::Relaxed) > 0);
        }
    }

    fn queue_revs(core: &SimCore<'_>) -> Vec<u64> {
        core.machines.iter().map(|m| m.queue_rev).collect()
    }

    /// Settles a mid-trial core (re-runs the mapping event at the current
    /// tick until no queue changes), then injects one task at the current
    /// tick: its arrival changes the pressure and nothing else a drop
    /// policy sees. Returns how many queues the arrival's mapping event
    /// skipped, and how many were non-empty.
    fn skips_after_pressure_change(dropper: &dyn DropPolicy) -> (u64, u64) {
        let s = scenario();
        let w = workload(&s, 400, 2_000);
        let mut core = SimCore::new(&s, &w, &Pam, dropper, cfg(), 1).unwrap();
        core.run_until(1_000);
        loop {
            let revs = queue_revs(&core);
            core.mapping_event();
            if queue_revs(&core) == revs {
                break;
            }
        }
        let busy = core.machines.iter().filter(|m| !m.pending.is_empty()).count() as u64;
        let hits = core.cache_stats().verdict_hits;
        let now = core.now();
        core.inject(TaskTypeId(0), now, now + 1_000).unwrap();
        core.step();
        assert_eq!(core.now(), now, "the arrival is the only event at this tick");
        (core.cache_stats().verdict_hits - hits, busy)
    }

    #[test]
    fn threshold_is_priced_again_when_pressure_changes() {
        let (skipped, busy) = skips_after_pressure_change(&ThresholdDropper::paper_default());
        assert!(busy > 0);
        assert_eq!(skipped, 0, "a verdict that read pressure must not outlive it");
        let (skipped, busy) = skips_after_pressure_change(&ProactiveDropper::paper_default());
        assert_eq!(skipped, busy, "a pressure-blind verdict survives a pressure change");
    }
}
