//! `BENCHMARK.json` at the repository root names exactly the metrics the
//! binary prints, with the same units.

use taskdrop_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn benchmark_json_lists_every_printed_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json is committed");
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(spec.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
    for workload in WORKLOADS {
        assert!(spec.contains(&format!("{{\"name\": \"{workload}\", \"why\"")), "{workload}");
    }
    assert_eq!(spec.matches("\"why\"").count(), WORKLOADS.len());
}
