//! The taskdrop benchmark: two workloads driven through the public APIs
//! of the engine (`taskdrop_sim`), the serving layer (`taskdrop_serve`)
//! and telemetry (`taskdrop_obs`), timed from outside the engine. See
//! `README.md` for the metrics, the workloads and how to read the spans.

// The benchmark times calls with the wall clock, which the repository's
// clippy.toml forbids on the simulation path.
#![allow(clippy::disallowed_methods)]

pub mod closed;
pub mod fleet;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use taskdrop_core::{DropPolicy, ProactiveDropper};
use taskdrop_sched::{MappingHeuristic, Pam};
use trace::{self_times, Span, TracedDropper, TracedMapper, Tracer};

/// End-to-end metrics, printed by the untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tasks_per_s", "tasks/s"),
    ("robustness_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("admission_us_p50", "us"),
    ("admission_us_p99", "us"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p95", "ms"),
    ("checkpoint_bytes", "bytes"),
    ("checkpoint_ms", "ms"),
    ("restore_ms", "ms"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`. A layer
/// a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.step.calls", "count"),
    ("sim.step.busy_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("sim.mapping_events", "count"),
    ("core.select_drops.calls", "count"),
    ("core.select_drops.busy_ms", "ms"),
    ("core.select_drops.us_p50", "us"),
    ("core.select_drops.us_p99", "us"),
    ("core.victims", "count"),
    ("core.victims_per_call", "ratio"),
    ("sched.map.calls", "count"),
    ("sched.map.busy_ms", "ms"),
    ("sched.map.us_p50", "us"),
    ("sched.map.us_p99", "us"),
    ("sched.assignments", "count"),
    ("model.tail_cache.hits", "count"),
    ("model.tail_cache.misses", "count"),
    ("model.tail_cache.hit_ratio", "ratio"),
    ("model.conv_cache.hits", "count"),
    ("model.conv_cache.misses", "count"),
    ("model.conv_cache.hit_ratio", "ratio"),
    ("serve.advance.calls", "count"),
    ("serve.advance.busy_ms", "ms"),
    ("serve.shard_policy_ms.max", "ms"),
    ("serve.shard_policy_ms.mean", "ms"),
    ("serve.stolen", "count"),
    ("serve.turned_away_ratio", "ratio"),
    ("serve.checkpoint_all.ms", "ms"),
    ("serve.checkpoint.serialize_ms", "ms"),
    ("serve.checkpoint.deserialize_ms", "ms"),
    ("serve.kill_restore.ms", "ms"),
    ("obs.jsonl.ms", "ms"),
    ("obs.jsonl.bytes", "bytes"),
    ("workload.scenario_ms", "ms"),
    ("workload.generate_ms", "ms"),
    ("trace.tasks_per_s.traced", "tasks/s"),
    ("trace.tasks_per_s.untraced", "tasks/s"),
    ("trace.overhead_pct", "%"),
];

/// The workloads, in the order the all-workload command runs them.
pub const WORKLOADS: &[&str] = &["closed_specint", "fleet_day"];

/// Counts the fallible calls a workload makes into the program.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Calls that can return a `SimError` or `ServeError`.
    pub attempted: u64,
    /// Calls that did.
    pub failed: u64,
}

impl Ops {
    /// Counts one call and turns its error into the iteration's failure.
    ///
    /// # Errors
    ///
    /// The call's own error, formatted with `what`.
    pub fn check<T, E: std::fmt::Debug>(
        &mut self,
        what: &str,
        r: Result<T, E>,
    ) -> Result<T, String> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            format!("{what} failed: {e:?}")
        })
    }
}

/// What one run of a workload measured.
#[derive(Debug, Default, Clone)]
pub struct Iteration {
    /// Scenario/PET build, input generation and core/fleet construction.
    pub setup_s: f64,
    /// Host time of the timed phase: the sum of every epoch.
    pub timed_s: f64,
    /// Offered tasks given a final fate (done, dropped or refused).
    pub resolved: u64,
    /// Host time per fixed simulated epoch.
    pub epoch_ms: Vec<f64>,
    /// Host time of the call that decided each offer.
    pub admission_us: Vec<f64>,
    /// Serialized checkpoint size.
    pub checkpoint_bytes: u64,
    /// Checkpoint capture plus serialization, one per probe.
    pub checkpoint_ms: Vec<f64>,
    /// Restore from a checkpoint, catch-up replay included, one per probe.
    pub restore_ms: Vec<f64>,
    /// `VmHWM` when the repetition ended.
    pub peak_rss_mb: f64,
    /// Outputs that must repeat exactly for a seed, traced or not:
    /// robustness terms, work counters and checkpoint sizes.
    pub deterministic: BTreeMap<String, u64>,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// Traced runs only: per-layer values.
    pub layers: BTreeMap<String, f64>,
    /// Traced runs only: every span, for the spans file.
    pub spans: Vec<Span>,
}

impl Iteration {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Robustness from the deterministic terms: on-time completions over
    /// offered tasks, refused ones included.
    #[must_use]
    pub fn robustness_pct(&self) -> f64 {
        let on_time = self.deterministic.get("on_time").copied().unwrap_or(0);
        let offered = self.deterministic.get("offered").copied().unwrap_or(0);
        if offered == 0 {
            0.0
        } else {
            100.0 * on_time as f64 / offered as f64
        }
    }

    /// Offered tasks resolved per host second of the timed phase.
    #[must_use]
    pub fn tasks_per_s(&self) -> f64 {
        if self.timed_s > 0.0 {
            self.resolved as f64 / self.timed_s
        } else {
            0.0
        }
    }
}

/// Adds a core's PET×tail cache work counters to the deterministic
/// outputs.
pub fn record_cache(it: &mut Iteration, cache: taskdrop_sim::CacheStats) {
    let entries = [
        ("tail_hits", cache.tail_hits),
        ("tail_misses", cache.tail_misses),
        ("conv_hits", cache.conv_hits),
        ("conv_misses", cache.conv_misses),
    ];
    for (key, value) in entries {
        *it.deterministic.entry(key.to_string()).or_default() += value;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fills the per-layer values that come from spans and from the
/// deterministic counters; workload-specific values are already in
/// `it.layers`. Percentiles are reported only for calls that happened.
///
/// # Errors
///
/// A reported percentile with fewer than ten samples beyond it.
pub fn derive_layers(it: &mut Iteration) -> Result<(), String> {
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in &it.spans {
        durations.entry(s.name).or_default().push(s.duration_ns() as f64);
    }
    let calls = |name: &str| durations.get(name).map_or(0, Vec::len) as f64;
    let busy_ms = |name: &str| durations.get(name).map_or(0.0, |d| d.iter().sum::<f64>() / 1e6);
    let layers = &mut it.layers;
    for layer in ["sim.step", "core.select_drops", "sched.map", "serve.advance"] {
        layers.insert(format!("{layer}.calls"), calls(layer));
        layers.insert(format!("{layer}.busy_ms"), busy_ms(layer));
    }
    for (name, metric) in [
        ("serve.checkpoint_all", "serve.checkpoint_all.ms"),
        ("serve.checkpoint.serialize", "serve.checkpoint.serialize_ms"),
        ("serve.checkpoint.deserialize", "serve.checkpoint.deserialize_ms"),
        ("serve.kill_restore", "serve.kill_restore.ms"),
        ("obs.jsonl", "obs.jsonl.ms"),
        ("workload.scenario", "workload.scenario_ms"),
        ("workload.generate", "workload.generate_ms"),
    ] {
        layers.insert(metric.to_string(), busy_ms(name));
    }
    for layer in ["core.select_drops", "sched.map"] {
        if let Some(d) = durations.get(layer) {
            let us: Vec<f64> = d.iter().map(|ns| ns / 1e3).collect();
            layers.insert(format!("{layer}.us_p50"), stats::percentile(&us, 50)?);
            layers.insert(format!("{layer}.us_p99"), stats::percentile(&us, 99)?);
        }
    }
    let own = self_times(&it.spans);
    let sim_self_ns: u64 =
        it.spans.iter().filter(|s| s.name == "sim.step").map(|s| own[&s.id]).sum();
    layers.insert("sim.self_ms".to_string(), sim_self_ns as f64 / 1e6);

    let det = |key: &str| it.deterministic.get(key).copied().unwrap_or(0) as f64;
    layers.insert("sim.mapping_events".to_string(), det("mapping_events"));
    for (cache, hits, misses) in
        [("tail_cache", "tail_hits", "tail_misses"), ("conv_cache", "conv_hits", "conv_misses")]
    {
        let (h, m) = (det(hits), det(misses));
        layers.insert(format!("model.{cache}.hits"), h);
        layers.insert(format!("model.{cache}.misses"), m);
        layers.insert(format!("model.{cache}.hit_ratio"), ratio(h, h + m));
    }
    let victims = layers.get("core.victims").copied().unwrap_or(0.0);
    let drop_calls = layers.get("core.select_drops.calls").copied().unwrap_or(0.0);
    layers.insert("core.victims_per_call".to_string(), ratio(victims, drop_calls));
    Ok(())
}

/// Runs one iteration of `workload`, traced when `tracer` is given.
///
/// # Errors
///
/// An unknown workload name, or the first failed call into the program.
pub fn run_workload(
    workload: &str,
    seed: u64,
    tracer: Option<&trace::Tracer>,
    ops: &mut Ops,
) -> Result<Iteration, String> {
    match workload {
        "closed_specint" => closed::run(&closed::PAPER, seed, tracer, ops),
        "fleet_day" => fleet::run(seed, tracer, ops),
        other => Err(format!("unknown workload {other}; expected one of {WORKLOADS:?}")),
    }
}

/// The policies every workload runs, PAM and the paper-default proactive
/// dropper, wrapped to record spans when tracing. Build one per core so
/// each shard's policy time can be told apart.
#[derive(Debug)]
pub struct Policies<'t> {
    dropper: ProactiveDropper,
    traced: Option<(TracedDropper<'t, ProactiveDropper>, TracedMapper<'t, Pam>)>,
}

impl<'t> Policies<'t> {
    /// Bare policies, or traced ones when `tracer` is given.
    #[must_use]
    pub fn new(tracer: Option<&'t Tracer>) -> Self {
        Policies {
            dropper: ProactiveDropper::paper_default(),
            traced: tracer.map(|t| {
                (
                    TracedDropper::new(ProactiveDropper::paper_default(), t),
                    TracedMapper::new(Pam, t),
                )
            }),
        }
    }

    /// The drop policy to hand to a core.
    #[must_use]
    pub fn dropper(&self) -> &dyn DropPolicy {
        match &self.traced {
            Some((d, _)) => d,
            None => &self.dropper,
        }
    }

    /// The mapping heuristic to hand to a core.
    #[must_use]
    pub fn mapper(&self) -> &dyn MappingHeuristic {
        match &self.traced {
            Some((_, m)) => m,
            None => &Pam,
        }
    }

    /// Moves the wrappers' spans and counts into `it`, returning the
    /// host time spent in the two policies (0 when untraced).
    pub fn drain_into(&self, it: &mut Iteration) -> f64 {
        let Some((d, m)) = &self.traced else { return 0.0 };
        *it.layers.entry("core.victims".into()).or_default() += d.victims() as f64;
        *it.layers.entry("sched.assignments".into()).or_default() += m.assignments() as f64;
        let spans: Vec<Span> = d.take().into_iter().chain(m.take()).collect();
        let busy_ms = spans.iter().map(|s| s.duration_ns() as f64).sum::<f64>() / 1e6;
        it.spans.extend(spans);
        busy_ms
    }
}
