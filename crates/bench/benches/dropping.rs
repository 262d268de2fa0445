//! The Section IV-F complexity claim, measured: per-queue decision time of
//! the proactive heuristic (`O(η·q)` convolutions) versus the optimal subset
//! search (`O(q·2^(q-1))`), with the threshold baseline for context, as the
//! queue depth q grows.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use taskdrop_core::{DropPolicy, OptimalDropper, ProactiveDropper, ThresholdDropper};
use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::view::{DropContext, PendingView, QueueView};
use taskdrop_model::{MachineId, MachineTypeId, PetMatrix, TaskId, TaskTypeId};
use taskdrop_pmf::{Compaction, Pmf};

fn pet() -> PetMatrix {
    // Three stochastic task types on one machine type, ~8 impulses each.
    let cell = |lo: u64| {
        Pmf::from_weights((0..8).map(|k| (lo + 12 * k, 1.0 + (k % 3) as f64)).collect()).unwrap()
    };
    PetMatrix::new(3, 1, vec![cell(20), cell(60), cell(110)])
}

fn queue(pet: &PetMatrix, q: usize) -> QueueView<'_> {
    QueueView {
        machine: MachineId(0),
        machine_type: MachineTypeId(0),
        now: 0,
        running: None,
        pending: (0..q)
            .map(|k| PendingView {
                id: TaskId(k as u64),
                type_id: TaskTypeId((k % 3) as u16),
                // Mixed viability so the policies do real work.
                deadline: 80 + 60 * (k as u64 % 4),
                degraded: false,
            })
            .collect(),
        pet,
        approx_pet: None,
    }
}

fn bench_policies(c: &mut Criterion) {
    let pet = pet();
    let ctx = DropContext::new(Compaction::MaxImpulses(64), 1.0, None);
    // Persistent context, as the engine drives policies in production.
    let mut scratch = PolicyCtx::new();
    let mut group = c.benchmark_group("drop_decision");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    for q in [2usize, 4, 6, 8] {
        let view = queue(&pet, q);
        let heuristic = ProactiveDropper::paper_default();
        group.bench_with_input(BenchmarkId::new("heuristic_eta2", q), &q, |b, _| {
            b.iter(|| black_box(heuristic.select_drops(&view, &ctx, &mut scratch)));
        });
        let optimal = OptimalDropper::new();
        group.bench_with_input(BenchmarkId::new("optimal_pruned", q), &q, |b, _| {
            b.iter(|| black_box(optimal.select_drops(&view, &ctx, &mut scratch)));
        });
        let plain = OptimalDropper::without_pruning();
        group.bench_with_input(BenchmarkId::new("optimal_exhaustive", q), &q, |b, _| {
            b.iter(|| black_box(plain.select_drops(&view, &ctx, &mut scratch)));
        });
        let threshold = ThresholdDropper::paper_default();
        group.bench_with_input(BenchmarkId::new("threshold", q), &q, |b, _| {
            b.iter(|| black_box(threshold.select_drops(&view, &ctx, &mut scratch)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
