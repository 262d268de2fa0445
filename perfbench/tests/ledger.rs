//! Cross-check against the committed `bench_core` ledger: the
//! `closed_specint` harness at `bench_core --quick`'s size (600 tasks
//! over 3 240 ticks, scenario seed 0xA5, workload and execution seed
//! 0xBE) must reproduce every deterministic counter in
//! `BENCH_core_quick.json`.

use taskdrop_perfbench::closed::{self, QUICK, SCENARIO_SEED};
use taskdrop_perfbench::trace::Tracer;
use taskdrop_perfbench::Ops;

/// The number after `"key":` in a flat JSON document (every key the
/// ledger test reads is unique in the file).
fn field(json: &str, key: &str) -> f64 {
    let quoted = format!("\"{key}\":");
    let at = json.find(&quoted).unwrap_or_else(|| panic!("{key} missing from the ledger"));
    let rest = json[at + quoted.len()..].trim_start();
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().unwrap_or_else(|e| panic!("{key}: {e}"))
}

#[test]
fn closed_harness_reproduces_the_quick_ledger() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_core_quick.json");
    let ledger = std::fs::read_to_string(path).expect("BENCH_core_quick.json is committed");
    let want = |key: &str| field(&ledger, key);
    let seed = want("exec_seed") as u64;
    assert_eq!(want("scenario_seed") as u64, SCENARIO_SEED);
    assert_eq!(want("tasks") as usize, QUICK.tasks);
    assert_eq!(want("window_ticks") as u64, QUICK.window);

    let tracer = Tracer::new();
    let traced = closed::run(&QUICK, seed, Some(&tracer), &mut Ops::default()).unwrap();
    assert!(traced.problems.is_empty(), "{:?}", traced.problems);
    let got = |key: &str| traced.deterministic[key] as f64;
    assert_eq!(got("mapping_events"), want("steps"));
    assert_eq!(got("mapping_events"), want("mapping_events"));
    assert_eq!(got("makespan"), want("makespan_ticks"));
    let drop_calls = traced.spans.iter().filter(|s| s.name == "core.select_drops").count();
    assert_eq!(drop_calls as f64, want("calls"));
    for key in ["tail_cache_hits", "tail_cache_misses", "conv_cache_hits", "conv_cache_misses"] {
        let counter = key.replace("_cache", "");
        assert_eq!(got(&counter), want(key), "{key}");
    }
    assert!((traced.robustness_pct() - want("robustness_pct")).abs() < 1e-9);

    // Tracing changes no simulated output.
    let plain = closed::run(&QUICK, seed, None, &mut Ops::default()).unwrap();
    assert!(plain.problems.is_empty(), "{:?}", plain.problems);
    assert_eq!(plain.deterministic, traced.deterministic);
}
