//! `fleet_day`: a `FleetDriver` with two workers over four SPECint
//! shards. Two shards get diurnal traffic and two get flash crowds,
//! behind a mix of backpressure policies; stealing, periodic checkpoints
//! and telemetry are on, and the diurnal shards are killed and restored
//! at fixed epochs through the day.

use crate::closed::SCENARIO_SEED;
use crate::trace::{traced, Tracer};
use crate::{record_cache, Iteration, Ops, Policies};
use std::time::Instant;
use taskdrop_obs::Telemetry;
use taskdrop_pmf::Tick;
use taskdrop_serve::{
    AdmissionController, BackpressurePolicy, FleetDriver, FleetShard, ShardCheckpoint, StealPolicy,
};
use taskdrop_sim::SimConfig;
use taskdrop_workload::{BurstySource, DiurnalSource, Scenario, TrafficSource};

/// Length of the serving day in simulated ticks: every source offers
/// what it draws before this tick, so every shard is busy all day and
/// the run has the same number of epochs whatever the seed.
pub const DAY: Tick = 44_000;
/// Mean flash-crowd burst length in ticks. The examples use 400-tick
/// bursts; at that length a day holds some twenty bursts per shard, and
/// which seed draws more of them moved `admission_us_p99`,
/// `epoch_ms_*` and `restore_ms` by 0.24–0.56 (quartile spread over five
/// seeds). Bursts a quarter as long, with silences scaled alike, keep
/// each shard's peak and mean rates and give four times the bursts.
pub const BURST: Tick = 100;
/// Simulated ticks per `FleetDriver::advance`: 220 epochs a day, more
/// than the 200 `epoch_ms_p95` needs. `examples/parallel_fleet.rs` uses
/// 400-tick epochs; these are half as long, so the day, and each
/// repetition, is half as long too.
pub const EPOCH: Tick = 200;
/// Simulated ticks between periodic checkpoints, as in
/// `examples/parallel_fleet.rs`: every eighth epoch.
pub const CHECKPOINT_EVERY: Tick = 1_600;
/// Epochs between periodic checkpoints. Right after each one the
/// benchmark takes and serializes every shard's checkpoint again (a
/// checkpoint probe: the state is the one just saved, so the restore
/// points do not move), and [`KILL_AFTER`] epochs later it kills and
/// restores the [`KILLED`] shards (a kill round). Probes and rounds spread
/// over the whole day time the same mix of quiet and busy moments
/// whatever the seed: a single round after epoch 54 read 104–153 ms over
/// five seeds, and back-to-back repeats at one moment moved with the
/// host's spells of a few seconds.
pub const PROBE_EVERY: usize = (CHECKPOINT_EVERY / EPOCH) as usize;
/// Epochs past a checkpoint at which each kill round happens: every
/// restore replays two epochs.
pub const KILL_AFTER: usize = 2;
/// The shards killed and restored: the two diurnal ones.
pub const KILLED: [usize; 2] = [0, 1];
/// The shard whose checkpoint a traced run serializes and parses back,
/// before the first kill round.
pub const PARSED_SHARD: usize = 1;
/// The steal policy of `examples/parallel_fleet.rs`, whose hot shard
/// `flash-reject` copies: donate from half full, receive below nine
/// tenths, at most six tasks per donor per barrier.
pub const STEALING: StealPolicy = StealPolicy { saturation: 0.5, headroom: 0.9, max_per_epoch: 6 };
/// Worker threads of the parallel phase. One: the benchmark's host has
/// two shared vCPUs, and with two workers every epoch waited for the
/// slower of two busy threads, so `tasks_per_s` and the epoch times
/// spread 0.25–0.34 over ten runs when the host was busy. The fleet's
/// outputs do not depend on the worker count (`tests/fleet_determinism.rs`),
/// so one worker runs the same steals, barriers and checkpoints, and
/// leaves only the scoped-thread fan-out unmeasured.
pub const WORKERS: usize = 1;
/// Fewest epochs a run must have, so `epoch_ms_p95` has ten beyond it.
pub const MIN_EPOCHS: usize = 200;
/// Fewest kill rounds and checkpoint probes a run must have.
pub const MIN_PROBES: usize = 25;

/// The four shards: name, source and front door. Every traffic and
/// front-door setting is one the repository already serves:
///
/// - diurnal shards: `DiurnalSource` at a mean 0.12 offers/tick swinging
///   ±90 % over 3 000 ticks with 450 ticks of slack, behind a 64-slot
///   `ShedOldest` door (`examples/service_loop.rs`, full scale) and a
///   64-slot `PreDrop { threshold: 0.2 }` door (the threshold of every
///   `PreDrop` door in the repository);
/// - `flash-predrop`: the flash crowd of `examples/service_loop.rs`,
///   bursts of 0.55 offers/tick between silences three quarters as
///   long, 350 ticks of slack, behind its 150-slot
///   `PreDrop { threshold: 0.2 }` door;
/// - `flash-reject`: the hot shard of `examples/parallel_fleet.rs`,
///   bursts of 0.5 offers/tick between silences 9/4 as long, 350 ticks
///   of slack, behind its 8-slot `Reject` door.
///
/// Only the burst length is the benchmark's own: see [`BURST`].
fn shards(seed: u64) -> Vec<(&'static str, TrafficSource, AdmissionController)> {
    let stream = |k: u64| seed.wrapping_mul(4).wrapping_add(k);
    let diurnal = |k: u64| {
        day(|offers| {
            TrafficSource::Diurnal(DiurnalSource::new(stream(k), 0.12, 0.9, 3_000, 450, 12, offers))
        })
    };
    let flash = |k: u64, rate: f64, silence: Tick| {
        day(|offers| {
            TrafficSource::Bursty(BurstySource::new(
                stream(k),
                rate,
                0.0,
                BURST,
                silence,
                350,
                12,
                offers,
            ))
        })
    };
    let pre_drop = BackpressurePolicy::PreDrop { threshold: 0.2 };
    let reject = BackpressurePolicy::Reject;
    vec![
        ("diurnal-shed", diurnal(0), AdmissionController::new(64, BackpressurePolicy::ShedOldest)),
        ("diurnal-predrop", diurnal(1), AdmissionController::new(64, pre_drop)),
        ("flash-reject", flash(2, 0.5, 9 * BURST / 4), AdmissionController::new(8, reject)),
        ("flash-predrop", flash(3, 0.55, 3 * BURST / 4), AdmissionController::new(150, pre_drop)),
    ]
}

/// The source `make(offers)` builds, cut at the end of the [`DAY`]: an
/// unbounded copy of the stream is drawn to count the offers that
/// arrive before it, and the shard's source makes exactly those.
fn day(make: impl Fn(u64) -> TrafficSource) -> TrafficSource {
    let mut stream = make(u64::MAX);
    let offers = std::iter::from_fn(|| stream.pop()).take_while(|o| o.arrival < DAY).count();
    make(offers as u64)
}

/// Runs one serving day; `seed` draws every shard's traffic and realised
/// execution times.
///
/// # Errors
///
/// The first failed call into the program.
pub fn run(seed: u64, tracer: Option<&Tracer>, ops: &mut Ops) -> Result<Iteration, String> {
    let mut it = Iteration::default();
    let setup = Instant::now();
    let scenario = traced(tracer, "workload.scenario", || Scenario::specint(SCENARIO_SEED));
    let specs = traced(tracer, "workload.generate", || shards(seed));
    let policies: Vec<Policies<'_>> = specs.iter().map(|_| Policies::new(tracer)).collect();
    let telemetry = Telemetry::new();
    let mut fleet = FleetDriver::new()
        .with_workers(WORKERS)
        .with_checkpoint_every(CHECKPOINT_EVERY)
        .with_stealing(STEALING)
        .with_telemetry(&telemetry);
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    for (k, ((name, source, gate), p)) in specs.into_iter().zip(&policies).enumerate() {
        let exec_seed = seed.wrapping_mul(4).wrapping_add(k as u64);
        let shard = FleetShard::new(
            name,
            &scenario,
            p.mapper(),
            p.dropper(),
            config,
            exec_seed,
            source,
            gate,
        );
        fleet.add_shard(ops.check("FleetShard::new", shard)?);
    }
    it.setup_s = setup.elapsed().as_secs_f64();

    let offered_so_far = |fleet: &FleetDriver<'_>| -> u64 {
        fleet.shards().iter().map(|s| s.admission().stats().offered).sum()
    };
    let mut epochs = 0;
    while !fleet.is_idle() {
        let before = offered_so_far(&fleet);
        let start = Instant::now();
        let r = traced(tracer, "serve.advance", || fleet.advance(EPOCH));
        let elapsed = start.elapsed().as_secs_f64();
        ops.check("FleetDriver::advance", r)?;
        epochs += 1;
        it.epoch_ms.push(elapsed * 1e3);
        it.timed_s += elapsed;
        // Offers are decided inside the epoch they arrive in: each waits
        // for that whole `advance` call.
        let decided = offered_so_far(&fleet) - before;
        it.admission_us.extend((0..decided).map(|_| elapsed * 1e6));
        if epochs % PROBE_EVERY == 0 {
            let start = Instant::now();
            checkpoint_probe(&mut fleet, tracer, ops)?;
            it.checkpoint_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        if epochs % PROBE_EVERY == KILL_AFTER && epochs > PROBE_EVERY {
            if tracer.is_some() && it.restore_ms.is_empty() {
                round_trip(&fleet, tracer, &mut it, ops)?;
            }
            // A restored core starts with empty caches and counters:
            // count the lookups the killed ones made first.
            for shard in KILLED.iter().filter_map(|&k| fleet.shards().get(k)) {
                record_cache(&mut it, shard.core().cache_stats());
            }
            let start = Instant::now();
            for k in KILLED {
                let r = traced(tracer, "serve.kill_restore", || fleet.kill_and_restore(k));
                ops.check("FleetDriver::kill_and_restore", r)?;
            }
            it.restore_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    it.check(epochs >= MIN_EPOCHS, || format!("{epochs} epochs; at least {MIN_EPOCHS} needed"));
    let (rounds, probes) = (it.restore_ms.len(), it.checkpoint_ms.len());
    it.check(rounds >= MIN_PROBES && probes >= MIN_PROBES, || {
        format!("{rounds} kill rounds and {probes} checkpoint probes; {MIN_PROBES} of each needed")
    });
    // The run's last checkpoint: the state every shard ends the day with.
    it.checkpoint_bytes = checkpoint_probe(&mut fleet, tracer, ops)?;
    let jsonl = traced(tracer, "obs.jsonl", || telemetry.jsonl());

    let mut totals = [0u64; 7];
    for shard in fleet.shards() {
        let s = shard.admission().stats();
        let result = ops.check("FleetShard::result", shard.result())?;
        it.check(result.is_conserved(), || format!("{} not conserved: {result:?}", shard.name()));
        it.check(s.offered + s.stolen_in == s.admitted + s.turned_away() + s.stolen_out, || {
            format!("{} admission ledger does not balance: {s:?}", shard.name())
        });
        it.check(s.admitted == result.total_tasks as u64, || {
            format!("{}: {} admitted, {} in the core", shard.name(), s.admitted, result.total_tasks)
        });
        record_cache(&mut it, shard.core().cache_stats());
        let row = [
            s.offered,
            s.admitted,
            s.turned_away(),
            s.stolen_in,
            s.stolen_out,
            result.on_time as u64,
            result.mapping_events,
        ];
        for (total, value) in totals.iter_mut().zip(row) {
            *total += value;
        }
    }
    let [offered, admitted, turned_away, stolen_in, stolen_out, on_time, mapping_events] = totals;
    it.check(stolen_in == stolen_out, || format!("{stolen_in} stolen in, {stolen_out} stolen out"));
    it.resolved = offered;
    let det = &mut it.deterministic;
    for (key, value) in [
        ("offered", offered),
        ("admitted", admitted),
        ("turned_away", turned_away),
        ("stolen", stolen_in),
        ("on_time", on_time),
        ("mapping_events", mapping_events),
        ("epochs", epochs as u64),
        ("checkpoint_bytes", it.checkpoint_bytes),
        ("jsonl_bytes", jsonl.len() as u64),
    ] {
        det.insert(key.into(), value);
    }

    let shard_policy_ms: Vec<f64> = policies.iter().map(|p| p.drain_into(&mut it)).collect();
    if let Some(t) = tracer {
        let max = shard_policy_ms.iter().copied().fold(0.0, f64::max);
        let mean = shard_policy_ms.iter().sum::<f64>() / shard_policy_ms.len() as f64;
        it.layers.insert("serve.shard_policy_ms.max".into(), max);
        it.layers.insert("serve.shard_policy_ms.mean".into(), mean);
        it.layers.insert("serve.stolen".into(), stolen_in as f64);
        it.layers
            .insert("serve.turned_away_ratio".into(), turned_away as f64 / offered.max(1) as f64);
        it.layers.insert("obs.jsonl.bytes".into(), jsonl.len() as f64);
        it.spans.extend(t.take());
    }
    Ok(it)
}

/// Takes every shard's checkpoint and serializes each, as a service would
/// before shipping them; returns the serialized bytes.
///
/// # Errors
///
/// A failed serialization.
fn checkpoint_probe(
    fleet: &mut FleetDriver<'_>,
    tracer: Option<&Tracer>,
    ops: &mut Ops,
) -> Result<u64, String> {
    traced(tracer, "serve.checkpoint_all", || fleet.checkpoint_all());
    let mut bytes = 0;
    for shard in fleet.shards() {
        let checkpoint =
            shard.last_checkpoint().ok_or("checkpoint_all left a shard without one")?;
        let json =
            traced(tracer, "serve.checkpoint.serialize", || serde_json::to_string(checkpoint));
        bytes += ops.check("checkpoint serialization", json)?.len() as u64;
    }
    Ok(bytes)
}

/// Serializes the checkpoint shard [`PARSED_SHARD`] is about to be
/// restored from and parses it back, which must give the same checkpoint. Traced
/// runs only: parsing costs far more than the rest of the epoch.
///
/// # Errors
///
/// A failed serialization or parse.
fn round_trip(
    fleet: &FleetDriver<'_>,
    tracer: Option<&Tracer>,
    it: &mut Iteration,
    ops: &mut Ops,
) -> Result<(), String> {
    let shard = fleet.shards().get(PARSED_SHARD).ok_or("the parsed shard is missing")?;
    let checkpoint = shard.last_checkpoint().ok_or("no checkpoint before the kill")?;
    let json = traced(tracer, "serve.checkpoint.serialize", || serde_json::to_string(checkpoint));
    let json = ops.check("checkpoint serialization", json)?;
    let back = traced(tracer, "serve.checkpoint.deserialize", || {
        serde_json::from_str::<ShardCheckpoint>(&json)
    });
    let back = ops.check("checkpoint deserialization", back)?;
    it.check(back == *checkpoint, || {
        format!("shard {PARSED_SHARD}'s checkpoint does not round-trip")
    });
    Ok(())
}
