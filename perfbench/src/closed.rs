//! `closed_specint`: the paper's own experiment. One core on
//! `Scenario::specint(0xA5)` under PAM and the paper-default proactive
//! dropper, fed the whole generated workload; each task enters through
//! `SimCore::inject` in the epoch holding its arrival tick, which the
//! engine treats exactly as a task of the initial workload (the ledger
//! test in `tests/` pins the counters to `bench_core`'s). Checkpoint and
//! restore are probed along the way, outside the timed epochs.

use crate::trace::{traced, Tracer};
use crate::{record_cache, Iteration, Ops, Policies};
use std::time::Instant;
use taskdrop_model::Task;
use taskdrop_pmf::Tick;
use taskdrop_sim::{SimConfig, SimCore};
use taskdrop_workload::{OversubscriptionLevel, Scenario, Workload, SPECINT_WINDOW};

/// Size of one closed trial.
#[derive(Debug, Clone, Copy)]
pub struct ClosedSpec {
    /// Tasks in the workload.
    pub tasks: usize,
    /// Arrival window in ticks.
    pub window: Tick,
    /// Simulated ticks per timed epoch.
    pub epoch: Tick,
}

/// The paper's 20 000-task level over the SPECint window.
pub const PAPER: ClosedSpec = ClosedSpec { tasks: 20_000, window: SPECINT_WINDOW, epoch: 400 };

/// `bench_core --quick`: 600 tasks over 3 240 ticks.
pub const QUICK: ClosedSpec = ClosedSpec { tasks: 600, window: 3_240, epoch: 200 };

/// The scenario seed `bench_core` uses.
pub const SCENARIO_SEED: u64 = 0xA5;

/// Restores timed together at each probe; `restore_ms` is their mean.
const RESTORES_PER_PROBE: u32 = 10;

/// The pre-generated tasks and how many have been injected: the part of
/// the trial's state that lives outside the engine and must be replayed
/// alongside it.
#[derive(Debug, Clone, PartialEq)]
struct Injector<'w> {
    tasks: &'w [Task],
    next: usize,
}

impl Injector<'_> {
    fn done(&self) -> bool {
        self.next == self.tasks.len()
    }

    /// Injects the tasks due by `epoch_end` and runs the core to it,
    /// charging each injected task the epoch's host time in
    /// `admission_us`.
    fn epoch(
        &mut self,
        core: &mut SimCore<'_>,
        epoch_end: Tick,
        tracer: Option<&Tracer>,
        admission_us: &mut Vec<f64>,
        ops: &mut Ops,
    ) -> Result<(), String> {
        let start = Instant::now();
        let first = self.next;
        while let Some(task) = self.tasks.get(self.next).filter(|t| t.arrival <= epoch_end) {
            let r = traced(tracer, "sim.inject", || {
                core.inject(task.type_id, task.arrival, task.deadline)
            });
            ops.check("SimCore::inject", r)?;
            self.next += 1;
        }
        while !core.is_drained() && core.next_event_time().is_some_and(|t| t <= epoch_end) {
            traced(tracer, "sim.step", || core.step());
        }
        // A task enters with its epoch's injects and its arrival is handled
        // by that epoch's steps, so, as on the fleet, it is charged the
        // whole epoch.
        let waited_us = start.elapsed().as_secs_f64() * 1e6;
        admission_us.extend(std::iter::repeat_n(waited_us, self.next - first));
        Ok(())
    }
}

/// Runs one trial; `seed` generates the workload and the realised
/// execution times.
///
/// # Errors
///
/// The first failed call into the engine.
pub fn run(
    spec: &ClosedSpec,
    seed: u64,
    tracer: Option<&Tracer>,
    ops: &mut Ops,
) -> Result<Iteration, String> {
    let mut it = Iteration::default();
    let setup = Instant::now();
    let scenario = traced(tracer, "workload.scenario", || Scenario::specint(SCENARIO_SEED));
    let level = OversubscriptionLevel::new("paper", spec.tasks, spec.window);
    let workload =
        traced(tracer, "workload.generate", || Workload::generate(&scenario, &level, 1.0, seed));
    let policies = Policies::new(tracer);
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    let core = SimCore::open(&scenario, policies.mapper(), policies.dropper(), config, seed);
    let mut core = ops.check("SimCore::open", core)?;
    it.setup_s = setup.elapsed().as_secs_f64();

    let mut front = Injector { tasks: &workload.tasks, next: 0 };
    let arrival_epochs = spec.window / spec.epoch;
    drive(&mut front, &mut core, &scenario, spec.epoch, arrival_epochs, tracer, &mut it, ops)?;

    let result = ops.check("SimCore::result", core.result())?;
    it.check(result.is_conserved(), || format!("trial not conserved: {result:?}"));
    it.check(result.total_tasks == spec.tasks, || {
        format!("{} of {} tasks reached the core", result.total_tasks, spec.tasks)
    });
    it.resolved = core.resolved_tasks() as u64;
    for (key, value) in [
        ("offered", spec.tasks as u64),
        ("on_time", result.on_time as u64),
        ("mapping_events", result.mapping_events),
        ("makespan", result.makespan),
        ("dropped_proactive", result.dropped_proactive as u64),
        ("dropped_reactive", result.dropped_reactive as u64),
        ("checkpoint_bytes", it.checkpoint_bytes),
    ] {
        it.deterministic.insert(key.into(), value);
    }
    record_cache(&mut it, core.cache_stats());
    policies.drain_into(&mut it);
    if let Some(t) = tracer {
        it.spans.extend(t.take());
    }
    Ok(it)
}

/// Runs `core` epoch by epoch until `front` is done and the core drained.
/// Every tenth of the arrival epochs it probes checkpoint and restore,
/// outside the timed epochs: before the epoch it snapshots and serializes
/// the core (`checkpoint_ms`); after it, it restores a second core from
/// the snapshot (`restore_ms`, the mean of a batch of restores) and
/// replays the epoch untimed, which must reproduce the live state exactly.
/// The two timings are kept per probe, `checkpoint_bytes` is the mean
/// serialized size. Replay is not timed because it is stepping,
/// which the epochs already measure.
///
/// # Errors
///
/// The first failed call into the program.
#[allow(clippy::too_many_arguments)] // one per collaborating piece
fn drive(
    front: &mut Injector<'_>,
    core: &mut SimCore<'_>,
    scenario: &Scenario,
    epoch: Tick,
    arrival_epochs: u64,
    tracer: Option<&Tracer>,
    it: &mut Iteration,
    ops: &mut Ops,
) -> Result<(), String> {
    let probe_every = (arrival_epochs / 10).max(1);
    let mut bytes = Vec::new();
    let mut k = 0;
    while !front.done() || !core.is_drained() {
        if front.done() && core.next_event_time().is_none() {
            return Err("core idle with unresolved tasks".into());
        }
        k += 1;
        let probe = if k % probe_every == 0 {
            let start = Instant::now();
            let checkpoint = traced(tracer, "sim.snapshot", || core.snapshot());
            let json =
                traced(tracer, "sim.checkpoint.serialize", || serde_json::to_string(&checkpoint));
            let json = ops.check("checkpoint serialization", json)?;
            it.checkpoint_ms.push(start.elapsed().as_secs_f64() * 1e3);
            bytes.push(json.len() as f64);
            Some((checkpoint, front.clone()))
        } else {
            None
        };

        let start = Instant::now();
        let r = traced(tracer, "bench.epoch", || {
            front.epoch(core, k * epoch, tracer, &mut it.admission_us, ops)
        });
        let elapsed = start.elapsed().as_secs_f64();
        r?;
        it.epoch_ms.push(elapsed * 1e3);
        it.timed_s += elapsed;

        if let Some((checkpoint, mut replayed)) = probe {
            let policies = Policies::new(None);
            let restore =
                || SimCore::restore(scenario, policies.mapper(), policies.dropper(), &checkpoint);
            // One restore takes tens of microseconds: time a batch.
            let start = Instant::now();
            let restored = traced(tracer, "sim.restore", || {
                for _ in 1..RESTORES_PER_PROBE {
                    drop(restore());
                }
                restore()
            });
            let mut restored = ops.check("SimCore::restore", restored)?;
            it.restore_ms.push(start.elapsed().as_secs_f64() * 1e3 / RESTORES_PER_PROBE as f64);
            traced(tracer, "sim.replay", || {
                replayed.epoch(&mut restored, k * epoch, None, &mut Vec::new(), ops)
            })?;
            it.check(restored.snapshot() == core.snapshot() && replayed == *front, || {
                format!("restoring the checkpoint before epoch {k} did not replay it exactly")
            });
        }
    }
    it.check(!bytes.is_empty(), || format!("the run ended after {k} epochs, before a probe"));
    it.checkpoint_bytes = (bytes.iter().sum::<f64>() / bytes.len().max(1) as f64).round() as u64;
    Ok(())
}
