//! One benchmark run:
//!
//! `taskdrop_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]`
//!
//! Repeats the workload for `--seconds` seconds and prints, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. Every
//! repetition runs the same inputs, so an end-to-end timing is taken
//! over each sample's median across the repetitions (each epoch, offer
//! and probe); `setup_s` is the median set-up, and per-layer timings are
//! medians over the traced repetitions. A traced run alternates untraced
//! and traced repetitions, so it also reports the tracing overhead and checks
//! that tracing leaves every simulated output unchanged. Exits 1 if an
//! output check failed.

// The benchmark times calls with the wall clock, which the repository's
// clippy.toml forbids on the simulation path.
#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use taskdrop_perfbench::stats::{mean, median, peak_rss_mb, percentile};
use taskdrop_perfbench::trace::{write_spans, Tracer};
use taskdrop_perfbench::{derive_layers, run_workload, Iteration, Ops, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) = (None, None, 10, false, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? == 1,
            "--spans" => spans = Some(value.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (workload, seed) {
        (Some(workload), Some(seed)) => Ok(Args { workload, seed, seconds, trace, spans }),
        _ => Err("--workload and --seed are required".into()),
    }
}

/// A metric value as JSON; a non-finite value is a failed check.
fn json_number(value: f64, problems: &mut Vec<String>, name: &str) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        problems.push(format!("{name} is not a finite number"));
        "0".into()
    }
}

/// Each sample's median over the repetitions. Every repetition runs the
/// same inputs, so sample `i` is the same epoch, offer or probe in each,
/// and a spell of host slowness that hits it in fewer than half of them
/// is left out.
fn per_sample_median(
    runs: &[&Iteration],
    samples: fn(&Iteration) -> &[f64],
) -> Result<Vec<f64>, String> {
    let n = samples(runs[0]).len();
    if runs.iter().any(|it| samples(it).len() != n) {
        return Err("repetitions took different numbers of samples".into());
    }
    Ok((0..n).map(|i| median(&runs.iter().map(|it| samples(it)[i]).collect::<Vec<_>>())).collect())
}

/// Resolved tasks per host second, over the per-epoch medians.
fn tasks_per_s(runs: &[&Iteration]) -> Result<f64, String> {
    let epoch_ms = per_sample_median(runs, |it| &it.epoch_ms)?;
    Ok(runs[0].resolved as f64 / (epoch_ms.iter().sum::<f64>() / 1e3))
}

fn end_to_end(runs: &[&Iteration]) -> Result<BTreeMap<&'static str, f64>, String> {
    let first = runs[0];
    let admission_us = per_sample_median(runs, |it| &it.admission_us)?;
    let epoch_ms = per_sample_median(runs, |it| &it.epoch_ms)?;
    Ok(BTreeMap::from([
        ("setup_s", median(&runs.iter().map(|it| it.setup_s).collect::<Vec<_>>())),
        ("tasks_per_s", tasks_per_s(runs)?),
        ("robustness_pct", first.robustness_pct()),
        // The peak once the first repetition ends: later ones reuse its
        // memory, and how many fit in the budget depends on the host.
        ("peak_rss_mb", first.peak_rss_mb),
        ("admission_us_p50", percentile(&admission_us, 50)?),
        ("admission_us_p99", percentile(&admission_us, 99)?),
        ("epoch_ms_p50", percentile(&epoch_ms, 50)?),
        ("epoch_ms_p95", percentile(&epoch_ms, 95)?),
        ("checkpoint_bytes", first.checkpoint_bytes as f64),
        ("checkpoint_ms", mean(&per_sample_median(runs, |it| &it.checkpoint_ms)?)),
        ("restore_ms", mean(&per_sample_median(runs, |it| &it.restore_ms)?)),
    ]))
}

fn per_layer(
    untraced: &[&Iteration],
    traced: &[&Iteration],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let (plain, with_spans) = (tasks_per_s(untraced)?, tasks_per_s(traced)?);
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> =
                traced.iter().map(|it| it.layers.get(name).copied().unwrap_or(0.0)).collect();
            (name, median(&values))
        })
        .collect();
    out.insert("trace.tasks_per_s.traced", with_spans);
    out.insert("trace.tasks_per_s.untraced", plain);
    out.insert("trace.overhead_pct", 100.0 * (plain / with_spans - 1.0));
    Ok(out)
}

/// Per-layer counts that must repeat exactly across traced repetitions.
fn traced_counts(it: &Iteration) -> Vec<(&String, &f64)> {
    it.layers
        .iter()
        .filter(|(k, _)| {
            k.ends_with(".calls") || k.ends_with("victims") || k.ends_with("assignments")
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("taskdrop_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut ops = Ops::default();
    let mut problems: Vec<String> = Vec::new();
    let mut runs: Vec<(bool, Iteration)> = Vec::new();
    loop {
        let tracing = args.trace && runs.len() % 2 == 1;
        let tracer = tracing.then(Tracer::new);
        let rep_start = Instant::now();
        match run_workload(&args.workload, args.seed, tracer.as_ref(), &mut ops) {
            Ok(mut it) => {
                it.peak_rss_mb = peak_rss_mb();
                if tracing {
                    if let Err(e) = derive_layers(&mut it) {
                        problems.push(e);
                    }
                }
                eprintln!(
                    "{} seed {} rep {}{}: {:.0} tasks/s, setup {:.3} s, robustness {:.2} %",
                    args.workload,
                    args.seed,
                    runs.len(),
                    if tracing { " (traced)" } else { "" },
                    it.tasks_per_s(),
                    it.setup_s,
                    it.robustness_pct()
                );
                problems.append(&mut it.problems);
                runs.push((tracing, it));
            }
            Err(e) => {
                problems.push(e);
                break;
            }
        }
        // Stop before a repetition that would overrun the budget.
        let enough = runs.len() >= if args.trace { 2 } else { 1 };
        if enough && start.elapsed() + rep_start.elapsed() > budget {
            break;
        }
    }

    if let Some((_, first)) = runs.first() {
        for (i, (tracing, it)) in runs.iter().enumerate().skip(1) {
            if it.deterministic != first.deterministic {
                let kind = if *tracing { "traced" } else { "untraced" };
                problems.push(format!(
                    "repetition {i} ({kind}) changed the simulated outputs: {:?} vs {:?}",
                    it.deterministic, first.deterministic
                ));
            }
        }
    }
    let untraced: Vec<&Iteration> = runs.iter().filter(|(t, _)| !t).map(|(_, it)| it).collect();
    let traced: Vec<&Iteration> = runs.iter().filter(|(t, _)| *t).map(|(_, it)| it).collect();
    if let Some(first) = traced.first() {
        if traced.iter().any(|it| traced_counts(it) != traced_counts(first)) {
            problems.push("per-layer counts differ between traced repetitions".into());
        }
    }

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let units: &[(&str, &str)] = if args.trace { PER_LAYER } else { END_TO_END };
    if !untraced.is_empty() && (!args.trace || !traced.is_empty()) {
        let measured =
            if args.trace { per_layer(&untraced, &traced) } else { end_to_end(&untraced) };
        match measured {
            Ok(m) => metrics = m,
            Err(e) => problems.push(e),
        }
    }
    if let (Some(path), Some(last)) = (&args.spans, traced.last()) {
        if let Err(e) = write_spans(std::path::Path::new(path), &last.spans) {
            problems.push(format!("writing spans to {path}: {e}"));
        }
    }
    if let Some((_, first)) = runs.first() {
        let fields: Vec<String> =
            first.deterministic.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        println!("deterministic {{{}}}", fields.join(", "));
    }

    let mut body = Vec::new();
    for &(name, unit) in units {
        let value = json_number(metrics.get(name).copied().unwrap_or(0.0), &mut problems, name);
        body.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let correct = problems.is_empty();
    eprintln!("{} repetitions; {} of {} calls failed", runs.len(), ops.failed, ops.attempted);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
