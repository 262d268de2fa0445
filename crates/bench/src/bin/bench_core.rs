//! `bench_core` — the perf-trajectory seed: steady-state `SimCore`
//! stepping throughput and drop-decision latency at a fixed seed.
//!
//! Runs one closed-world trial of the SPECint scenario under
//! PAM + the paper-default heuristic dropper, timing (a) the whole
//! step-to-drain loop and (b) every `select_drops` call individually (via
//! a timing wrapper around the policy — the engine is not instrumented).
//! Writes the measurements as `BENCH_core.json` at the repo root so
//! successive PRs leave a comparable perf trail; the schema is documented
//! in DESIGN.md ("The core benchmark").
//!
//! Usage:
//! `cargo run -p taskdrop_bench --release --bin bench_core [--quick] [--out PATH]`
//!
//! Numbers are wall-clock on whatever machine runs the bench — they
//! compare builds on one machine, not machines.

// crates/bench is the sanctioned wall-clock scope (taskdrop_lint: wall-clock).
#![allow(clippy::disallowed_methods)]

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use taskdrop_core::{DropDecision, DropPolicy, ProactiveDropper};
use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::view::{DropContext, QueueView};
use taskdrop_sched::Pam;
use taskdrop_sim::{SimConfig, SimCore, StepOutcome};
use taskdrop_workload::{OversubscriptionLevel, Scenario, Workload};

/// Wraps a policy, accumulating per-call wall time. `DropPolicy` takes
/// `&self`, so the counters are atomics (relaxed: single-threaded here).
struct TimedDropper<P> {
    inner: P,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl<P: DropPolicy> TimedDropper<P> {
    fn new(inner: P) -> Self {
        TimedDropper { inner, calls: AtomicU64::new(0), nanos: AtomicU64::new(0) }
    }
}

impl<P: DropPolicy> DropPolicy for TimedDropper<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select_drops(
        &self,
        queue: &QueueView<'_>,
        ctx: &DropContext,
        scratch: &mut PolicyCtx,
    ) -> DropDecision {
        let start = Instant::now();
        let decision = self.inner.select_drops(queue, ctx, scratch);
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        decision
    }
}

/// The schema of `BENCH_core.json` (documented in DESIGN.md).
#[derive(Debug, Serialize)]
struct BenchReport {
    bench: String,
    scale: String,
    scenario: String,
    scenario_seed: u64,
    exec_seed: u64,
    tasks: usize,
    window_ticks: u64,
    steps: u64,
    mapping_events: u64,
    makespan_ticks: u64,
    elapsed_ms: f64,
    throughput_tasks_per_sec: f64,
    steps_per_sec: f64,
    drop_decision: DropDecisionReport,
    robustness_pct: f64,
    work: WorkReport,
}

#[derive(Debug, Serialize)]
struct DropDecisionReport {
    calls: u64,
    total_ms: f64,
    mean_us: f64,
}

/// Deterministic PET×tail cache and verdict-memo work counters
/// (`SimCore::cache_stats`): they must reproduce exactly at the fixed
/// seed, so CI fails on any drift vs the committed quick baseline.
/// `verdict_hits` counts the drop-policy calls the engine skipped, so
/// `drop_decision.calls + verdict_hits` is the number of queues priced.
#[derive(Debug, Serialize)]
struct WorkReport {
    tail_cache_hits: u64,
    tail_cache_misses: u64,
    conv_cache_hits: u64,
    conv_cache_misses: u64,
    verdict_hits: u64,
}

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(args.next().expect("--out needs a path")),
            other => panic!("unknown argument {other}; expected --quick or --out PATH"),
        }
    }
    // The repo root is two levels above this crate's manifest.
    let out =
        out.unwrap_or_else(|| format!("{}/../../BENCH_core.json", env!("CARGO_MANIFEST_DIR")));

    // Fixed seeds; ~2x oversubscription (the paper's 20k band) so the
    // dropper has real work on every mapping event.
    let (tasks, window) = if quick { (600, 3_240) } else { (4_000, 21_600) };
    let scenario = Scenario::specint(0xA5);
    let level = OversubscriptionLevel::new("bench", tasks, window);
    let workload = Workload::generate(&scenario, &level, 1.0, 0xBE);
    let dropper = TimedDropper::new(ProactiveDropper::paper_default());
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    let mut core =
        SimCore::new(&scenario, &workload, &Pam, &dropper, config, 0xBE).expect("valid config");

    let start = Instant::now();
    let mut steps = 0u64;
    while let StepOutcome::Advanced { .. } = core.step() {
        steps += 1;
    }
    let elapsed = start.elapsed();
    let result = core.result().expect("drained");

    let calls = dropper.calls.load(Ordering::Relaxed);
    let drop_nanos = dropper.nanos.load(Ordering::Relaxed);
    let cache = core.cache_stats();
    let report = BenchReport {
        bench: "bench_core".into(),
        scale: if quick { "quick" } else { "full" }.into(),
        scenario: scenario.name.clone(),
        scenario_seed: 0xA5,
        exec_seed: 0xBE,
        tasks,
        window_ticks: window,
        steps: steps + 1, // the draining step also does a mapping event
        mapping_events: result.mapping_events,
        makespan_ticks: result.makespan,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        throughput_tasks_per_sec: tasks as f64 / elapsed.as_secs_f64(),
        steps_per_sec: result.mapping_events as f64 / elapsed.as_secs_f64(),
        drop_decision: DropDecisionReport {
            calls,
            total_ms: drop_nanos as f64 / 1e6,
            mean_us: if calls == 0 { 0.0 } else { drop_nanos as f64 / 1e3 / calls as f64 },
        },
        robustness_pct: result.robustness_pct(),
        work: WorkReport {
            tail_cache_hits: cache.tail_hits,
            tail_cache_misses: cache.tail_misses,
            conv_cache_hits: cache.conv_hits,
            conv_cache_misses: cache.conv_misses,
            verdict_hits: cache.verdict_hits,
        },
    };

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_core.json");
    println!(
        "bench_core [{}]: {} tasks drained in {:.0} ms — {:.0} tasks/s, {:.0} mapping events/s",
        report.scale,
        tasks,
        report.elapsed_ms,
        report.throughput_tasks_per_sec,
        report.steps_per_sec
    );
    println!(
        "drop decisions: {} calls, {:.1} ms total, {:.1} us mean | robustness {:.1} %",
        calls, report.drop_decision.total_ms, report.drop_decision.mean_us, report.robustness_pct
    );
    println!(
        "cache: tail {}/{} hits, conv {}/{} hits, {} no-drop verdicts reused",
        cache.tail_hits,
        cache.tail_hits + cache.tail_misses,
        cache.conv_hits,
        cache.conv_hits + cache.conv_misses,
        cache.verdict_hits
    );
    println!("wrote {out}");
}
