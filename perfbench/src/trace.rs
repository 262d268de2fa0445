//! Spans recorded from the benchmark's own code, around calls into each
//! layer's public API. The engine itself carries no probes: the drop
//! policy and the mapper are wrapped (as `bench_core`'s `TimedDropper`
//! does), and every other span wraps a call the harness makes.
//!
//! A span is `(id, parent, name, thread, start, end)`. Spans are kept in
//! memory and written out when the benchmark ends. The parent of a span
//! is the innermost harness span open when it started; wrapper spans
//! recorded on fleet worker threads take the harness span open on the
//! driving thread (the `serve.advance` call that spawned them).

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use taskdrop_core::{DropDecision, DropPolicy};
use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::view::{Assignment, DropContext, MappingInput, QueueView};
use taskdrop_sched::MappingHeuristic;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within one [`Tracer`], starting at 1.
    pub id: u64,
    /// The enclosing span's id, 0 for a root span.
    pub parent: u64,
    /// The layer call, e.g. `core.select_drops`.
    pub name: &'static str,
    /// Small per-process thread number.
    pub thread: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_number() -> u32 {
    THREAD.with(|t| *t)
}

/// Collects spans for one workload iteration.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    /// Id of the innermost open harness span on the driving thread.
    open: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            open: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as a harness span that may enclose other spans. Call it
    /// from the driving thread only.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.swap(id, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.open.store(parent, Ordering::Relaxed);
        let span = Span { id, parent, name, thread: thread_number(), start_ns, end_ns };
        self.spans.lock().expect("span buffer poisoned").push(span);
        out
    }

    /// Times `f` as a leaf span into `sink`, a buffer owned by one
    /// wrapper, so worker threads never share a lock.
    fn leaf<R>(&self, sink: &Mutex<Vec<Span>>, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.load(Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let span = Span { id, parent, name, thread: thread_number(), start_ns, end_ns };
        sink.lock().expect("span buffer poisoned").push(span);
        out
    }

    /// Moves every harness span recorded so far out of the tracer.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Runs `f`, as a harness span when tracing.
pub fn traced<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// A drop policy wrapped to record one `core.select_drops` span per call
/// and count the victims it chose.
#[derive(Debug)]
pub struct TracedDropper<'t, P> {
    inner: P,
    tracer: &'t Tracer,
    spans: Mutex<Vec<Span>>,
    victims: AtomicU64,
}

impl<'t, P: DropPolicy> TracedDropper<'t, P> {
    /// Wraps `inner`.
    pub fn new(inner: P, tracer: &'t Tracer) -> Self {
        TracedDropper { inner, tracer, spans: Mutex::new(Vec::new()), victims: AtomicU64::new(0) }
    }

    /// Tasks dropped or degraded on the policy's advice.
    pub fn victims(&self) -> u64 {
        self.victims.load(Ordering::Relaxed)
    }

    /// The spans recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

impl<P: DropPolicy> DropPolicy for TracedDropper<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select_drops(
        &self,
        queue: &QueueView<'_>,
        ctx: &DropContext,
        scratch: &mut PolicyCtx,
    ) -> DropDecision {
        let decision = self.tracer.leaf(&self.spans, "core.select_drops", || {
            self.inner.select_drops(queue, ctx, scratch)
        });
        let victims = decision.drops.len() + decision.degrades.len();
        self.victims.fetch_add(victims as u64, Ordering::Relaxed);
        decision
    }
}

/// A mapping heuristic wrapped to record one `sched.map` span per call
/// and count the assignments it made.
#[derive(Debug)]
pub struct TracedMapper<'t, M> {
    inner: M,
    tracer: &'t Tracer,
    spans: Mutex<Vec<Span>>,
    assignments: AtomicU64,
}

impl<'t, M: MappingHeuristic> TracedMapper<'t, M> {
    /// Wraps `inner`.
    pub fn new(inner: M, tracer: &'t Tracer) -> Self {
        TracedMapper {
            inner,
            tracer,
            spans: Mutex::new(Vec::new()),
            assignments: AtomicU64::new(0),
        }
    }

    /// Task-to-machine assignments made so far.
    pub fn assignments(&self) -> u64 {
        self.assignments.load(Ordering::Relaxed)
    }

    /// The spans recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

impl<M: MappingHeuristic> MappingHeuristic for TracedMapper<'_, M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn map(&self, input: MappingInput<'_>, scratch: &mut PolicyCtx) -> Vec<Assignment> {
        let out = self.tracer.leaf(&self.spans, "sched.map", || self.inner.map(input, scratch));
        self.assignments.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children, as on parallel worker
/// threads, are counted once).
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Writes spans as tab-separated lines under a header row.
///
/// # Errors
///
/// Any I/O error creating or writing `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tthread\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t", thread: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans =
            [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 60), span(4, 2, 12, 20)];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 20 - 10);
        assert_eq!(own[&2], 20 - 8);
        assert_eq!(own[&3], 10);
        assert_eq!(own[&4], 8);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two worker threads inside one epoch: [10,40) and [20,50) cover
        // 40 ns of the parent, not 60.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 20, 50)];
        assert_eq!(self_times(&spans)[&1], 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(1, 0, 10, 20), span(2, 1, 5, 15)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn harness_spans_nest_and_leaves_take_the_open_parent() {
        let tracer = Tracer::new();
        let sink = Mutex::new(Vec::new());
        tracer.span("outer", || {
            tracer.span("inner", || tracer.leaf(&sink, "leaf", || ()));
        });
        let spans = tracer.take();
        let leaf = sink.into_inner().unwrap()[0];
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(leaf.parent, inner.id);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
