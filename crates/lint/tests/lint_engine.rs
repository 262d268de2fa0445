//! Fixture-driven tests for the lint engine: every rule proves it detects
//! its hazard, pragmas and the ratchet behave, scoping works, and — the
//! gate the whole crate exists for — a seeded violation fails a workspace
//! run while the repo itself stays clean.

use std::path::{Path, PathBuf};

use taskdrop_lint::{check_source, run_workspace, Ratchet, RatchetStatus, Severity, RULES};

/// Lint a fixture as if it lived at `rel_path` in the workspace.
fn lint_at(rel_path: &str, fixture: &str) -> taskdrop_lint::FileReport {
    check_source(rel_path, fixture)
}

fn rules_fired(report: &taskdrop_lint::FileReport) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = report.findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

// --- one firing positive + one silent negative per rule -------------------

#[test]
fn d1_hash_collections_fires_and_clears() {
    let pos = lint_at("crates/sim/src/x.rs", include_str!("fixtures/d1_hash_collections_pos.rs"));
    assert_eq!(rules_fired(&pos), ["hash-collections"]);
    assert!(pos.findings.len() >= 3, "use + 2 sites: {:?}", pos.findings);
    assert!(pos.findings.iter().all(|f| f.severity == Severity::Error));

    let neg = lint_at("crates/sim/src/x.rs", include_str!("fixtures/d1_hash_collections_neg.rs"));
    assert!(neg.findings.is_empty(), "{:?}", neg.findings);
}

#[test]
fn d2_wall_clock_fires_and_clears() {
    let pos = lint_at("crates/model/src/x.rs", include_str!("fixtures/d2_wall_clock_pos.rs"));
    assert_eq!(rules_fired(&pos), ["wall-clock"]);
    assert_eq!(pos.findings.len(), 2, "{:?}", pos.findings);

    let neg = lint_at("crates/model/src/x.rs", include_str!("fixtures/d2_wall_clock_neg.rs"));
    assert!(neg.findings.is_empty(), "{:?}", neg.findings);
}

#[test]
fn d3_entropy_rng_fires_and_clears() {
    let pos = lint_at("crates/stats/src/x.rs", include_str!("fixtures/d3_entropy_rng_pos.rs"));
    assert_eq!(rules_fired(&pos), ["entropy-rng"]);
    assert_eq!(pos.findings.len(), 3, "{:?}", pos.findings);

    let neg = lint_at("crates/stats/src/x.rs", include_str!("fixtures/d3_entropy_rng_neg.rs"));
    assert!(neg.findings.is_empty(), "{:?}", neg.findings);
}

#[test]
fn d4_partial_cmp_fires_and_clears() {
    let pos = lint_at("crates/pmf/src/x.rs", include_str!("fixtures/d4_partial_cmp_pos.rs"));
    assert_eq!(rules_fired(&pos), ["partial-cmp-unwrap"]);
    assert_eq!(pos.findings.len(), 2, "{:?}", pos.findings);

    let neg = lint_at("crates/pmf/src/x.rs", include_str!("fixtures/d4_partial_cmp_neg.rs"));
    assert!(neg.findings.is_empty(), "{:?}", neg.findings);
}

#[test]
fn d5_env_read_fires_and_clears() {
    let pos = lint_at("crates/workload/src/x.rs", include_str!("fixtures/d5_env_read_pos.rs"));
    assert_eq!(rules_fired(&pos), ["env-read"]);
    assert_eq!(pos.findings.len(), 2, "set_var + var: {:?}", pos.findings);

    let neg = lint_at("crates/workload/src/x.rs", include_str!("fixtures/d5_env_read_neg.rs"));
    assert!(neg.findings.is_empty(), "env::args is fine: {:?}", neg.findings);
}

#[test]
fn c1_thread_primitives_fires_and_clears() {
    let pos = lint_at("crates/core/src/x.rs", include_str!("fixtures/c1_thread_primitives_pos.rs"));
    assert_eq!(rules_fired(&pos), ["thread-primitives"]);
    assert!(pos.findings.len() >= 3, "import + spawn + RwLock: {:?}", pos.findings);

    let neg = lint_at("crates/core/src/x.rs", include_str!("fixtures/c1_thread_primitives_neg.rs"));
    assert!(neg.findings.is_empty(), "crossbeam/parking_lot are sanctioned: {:?}", neg.findings);
}

#[test]
fn c2_panic_unwrap_counts_production_sites_only() {
    let r = lint_at("crates/serve/src/x.rs", include_str!("fixtures/c2_serve_unwrap.rs"));
    assert!(r.findings.is_empty(), "ratchet sites are not error findings: {:?}", r.findings);
    let unwraps: Vec<_> = r.ratchet_sites.iter().filter(|f| f.rule == "panic-unwrap").collect();
    assert_eq!(unwraps.len(), 3, "{:?}", r.ratchet_sites);
    assert!(r.ratchet_sites.iter().all(|f| f.severity == Severity::Ratchet));
}

#[test]
fn c2_panic_surface_fixture_counts_all_three_rules() {
    let r = lint_at("crates/dag/src/x.rs", include_str!("fixtures/c2_panic_surface.rs"));
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    let count = |rule: &str| r.ratchet_sites.iter().filter(|f| f.rule == rule).count();
    assert_eq!(count("panic-macro"), 3, "panic! + unreachable! + todo!: {:?}", r.ratchet_sites);
    assert_eq!(count("slice-index"), 2, "{:?}", r.ratchet_sites);
    assert_eq!(count("panic-unwrap"), 1, "{:?}", r.ratchet_sites);
}

#[test]
fn bare_allow_fires_on_reasonless_and_unknown_pragmas() {
    let bare = lint_at("crates/sim/src/x.rs", include_str!("fixtures/pragma_bare.rs"));
    assert_eq!(rules_fired(&bare), ["bare-allow"]);
    assert_eq!(bare.findings.len(), 2, "{:?}", bare.findings);
    assert!(bare.findings.iter().all(|f| f.severity == Severity::Error));

    let unknown = lint_at("crates/sim/src/x.rs", include_str!("fixtures/pragma_unknown.rs"));
    assert_eq!(unknown.findings.len(), 1);
    assert_eq!(unknown.findings[0].rule, "bare-allow");
    assert!(unknown.findings[0].message.contains("unknown rule"));
}

// --- pragma semantics -----------------------------------------------------

#[test]
fn reasoned_pragmas_suppress_own_line_and_next_line_forms() {
    let r = lint_at("crates/sim/src/x.rs", include_str!("fixtures/pragma_good.rs"));
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

#[test]
fn unused_pragma_is_reported_as_warning() {
    let r = lint_at("crates/sim/src/x.rs", include_str!("fixtures/pragma_unused.rs"));
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert_eq!(r.findings[0].rule, "bare-allow");
    assert_eq!(r.findings[0].severity, Severity::Warn);
    assert!(r.findings[0].message.contains("unused"));
}

// --- scoping --------------------------------------------------------------

#[test]
fn scope_exempts_bench_from_wall_clock_and_everyone_from_nothing() {
    let wall = include_str!("fixtures/d2_wall_clock_pos.rs");
    assert!(lint_at("crates/bench/src/x.rs", wall).findings.is_empty());
    assert!(!lint_at("crates/lint/src/x.rs", wall).findings.is_empty());

    // D3 fires even in bench and in test sections.
    let rng = include_str!("fixtures/d3_entropy_rng_pos.rs");
    assert!(!lint_at("crates/bench/src/x.rs", rng).findings.is_empty());
    assert!(!lint_at("crates/bench/benches/x.rs", rng).findings.is_empty());
}

#[test]
fn scope_confines_d1_to_sim_path_and_c1_to_the_core() {
    let hash = include_str!("fixtures/d1_hash_collections_pos.rs");
    assert!(lint_at("crates/bench/src/x.rs", hash).findings.is_empty());
    assert!(lint_at("crates/sim/tests/x.rs", hash).findings.is_empty(), "test code exempt");
    assert!(!lint_at("src/x.rs", hash).findings.is_empty(), "umbrella is sim-path");

    let threads = include_str!("fixtures/c1_thread_primitives_pos.rs");
    // serve joined the concurrency core with the fleet driver: bare thread
    // primitives are errors there too, and only reasoned pragmas (the
    // driver's worker-pool sizing) are let through.
    assert!(!lint_at("crates/serve/src/x.rs", threads).findings.is_empty(), "serve is core");
    assert!(lint_at("crates/stats/src/x.rs", threads).findings.is_empty(), "stats may thread");
    assert!(!lint_at("crates/pmf/src/x.rs", threads).findings.is_empty());
}

#[test]
fn lexer_torture_yields_exactly_the_one_real_finding() {
    let r = lint_at("crates/sim/src/x.rs", include_str!("fixtures/lexer_torture.rs"));
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert_eq!(r.findings[0].rule, "wall-clock");
    assert!(r.findings[0].excerpt.contains("std::time::Instant::now()"));
}

// --- ratchet behaviour ----------------------------------------------------

#[test]
fn ratchet_gates_on_increase_only() {
    let mk = |count, baseline| RatchetStatus {
        rule: "panic-unwrap",
        krate: "serve".to_string(),
        count,
        baseline,
        sites: vec![],
    };
    assert!(mk(4, Some(3)).regressed(), "one new unwrap fails CI");
    assert!(!mk(3, Some(3)).regressed(), "standing debt passes");
    assert!(!mk(2, Some(3)).regressed(), "paying debt passes");
    assert!(mk(2, Some(3)).improvable(), "...and is advertised as tightenable");
    assert!(!mk(0, None).regressed(), "a debt-free crate needs no baseline");
    assert!(mk(1, None).regressed(), "unrecorded debt fails until --update-ratchet");
}

#[test]
fn ratchet_file_roundtrips_and_missing_file_is_empty() {
    let dir = std::env::temp_dir().join(format!("taskdrop-lint-ratchet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ratchet.json");

    let missing = Ratchet::load(&path).unwrap();
    assert!(missing.entries.is_empty());
    assert_eq!(missing.get("panic-unwrap", "serve"), None);

    Ratchet::from_counts(&[("panic-unwrap", "serve", 3), ("slice-index", "pmf", 1)])
        .save(&path)
        .unwrap();
    let loaded = Ratchet::load(&path).unwrap();
    assert_eq!(loaded.get("panic-unwrap", "serve"), Some(3));
    assert_eq!(loaded.get("slice-index", "pmf"), Some(1));
    assert_eq!(loaded.get("panic-unwrap", "pmf"), None, "counts are per crate");

    let malformed = dir.join("bad.json");
    std::fs::write(&malformed, "{not json").unwrap();
    assert!(Ratchet::load(&malformed).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

// --- workspace runs: the CI gate itself -----------------------------------

/// Build a minimal synthetic workspace in a temp dir.
fn synth_tree(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("taskdrop-lint-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    for (rel, content) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, content).unwrap();
    }
    root
}

#[test]
fn seeded_violation_fails_a_workspace_run() {
    // The fixture test standing in for "CI fails on a seeded violation":
    // a tree with one entropy-seeded RNG draw must produce a failing report.
    let root = synth_tree(
        "seeded",
        &[
            ("crates/sim/src/good.rs", "fn ok(seed: u64) -> u64 { seed.wrapping_mul(3) }\n"),
            ("crates/sim/src/bad.rs", "fn draw() -> u64 { rand::thread_rng().next_u64() }\n"),
        ],
    );
    let report = run_workspace(&root, &Ratchet::default()).unwrap();
    assert!(report.failed(), "seeded thread_rng must fail the gate");
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "entropy-rng");
    assert_eq!(report.findings[0].path, "crates/sim/src/bad.rs");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn ratchet_regression_fails_a_workspace_run() {
    let two_unwraps = "fn f(a: Option<u8>, b: Option<u8>) -> u8 { a.unwrap() + b.unwrap() }\n";
    // Not tagged "ratchet": `ratchet_file_roundtrips_and_missing_file_is_empty`
    // owns (and deletes) that directory, and the two run in parallel.
    let root = synth_tree("ratchet-regression", &[("crates/serve/src/x.rs", two_unwraps)]);

    // Baseline 2: standing debt, passes.
    let ok = run_workspace(&root, &Ratchet::from_counts(&[("panic-unwrap", "serve", 2)])).unwrap();
    assert!(!ok.failed(), "{:?}", ok.ratchets);

    // Baseline 1: one new unwrap, fails, and the sites are named.
    let bad = run_workspace(&root, &Ratchet::from_counts(&[("panic-unwrap", "serve", 1)])).unwrap();
    assert!(bad.failed());
    assert_eq!(bad.ratchets.len(), 1);
    assert_eq!(bad.ratchets[0].krate, "serve");
    assert_eq!(bad.ratchets[0].count, 2);
    assert_eq!(bad.ratchets[0].sites.len(), 2);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn fixtures_directory_is_exempt_from_workspace_runs() {
    let root = synth_tree(
        "fixture-skip",
        &[("crates/lint/tests/fixtures/bad.rs", "fn f() { rand::thread_rng(); }\n")],
    );
    let report = run_workspace(&root, &Ratchet::default()).unwrap();
    assert!(!report.failed(), "{:?}", report.findings);
    assert!(report.findings.is_empty());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn the_repo_itself_is_clean() {
    // The same invariant CI enforces, without leaving `cargo test`: the
    // workspace at HEAD has zero error findings and no ratchet regression.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let baseline = Ratchet::load(&root.join("crates/lint/ratchet.json")).unwrap();
    let report = run_workspace(&root, &baseline).unwrap();
    let errors: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(taskdrop_lint::Finding::render)
        .collect();
    assert!(errors.is_empty(), "lint errors in the tree:\n{}", errors.join("\n"));
    for r in &report.ratchets {
        assert!(!r.regressed(), "ratchet {} regressed: {} vs {:?}", r.rule, r.count, r.baseline);
    }
    assert!(report.files_scanned > 50, "walk looks broken: {} files", report.files_scanned);
}

#[test]
fn every_catalogued_rule_has_a_firing_fixture() {
    // Meta-test: keep the fixture set honest as rules are added. The two
    // structural rules are exercised by `tests/structural.rs` (layering +
    // schema drift against synthetic trees); the rest fire in this file.
    let fired: Vec<&str> = vec![
        "hash-collections",
        "wall-clock",
        "entropy-rng",
        "partial-cmp-unwrap",
        "env-read",
        "thread-primitives",
        "panic-unwrap",
        "panic-macro",
        "slice-index",
        "crate-layering", // tests/structural.rs
        "schema-drift",   // tests/structural.rs
        "bare-allow",
    ];
    for rule in RULES {
        assert!(fired.contains(&rule.id), "rule {} has no fixture coverage", rule.id);
    }
}
