//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into the
//! library crates; nothing inside the library is instrumented. Recording is
//! off unless [`set_enabled`] turned it on, so the untraced run pays one relaxed
//! atomic load per call site.
//!
//! The benchmark is a closed loop with one caller, so the operation id and
//! the innermost open span of that caller are process-wide: a span opened
//! on a pool worker (an embedding call inside a study) takes the caller's
//! innermost span as its parent.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::stats::union_len;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (ids start at 1; 0 means "no span").
    pub id: u32,
    /// The span that caused this one, or 0 for a root span.
    pub parent: u32,
    /// The benchmark operation this span belongs to (0 is set-up).
    pub op: u32,
    /// Layer-qualified name, e.g. `core.study`.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start: u64,
    /// End, in nanoseconds since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }

    /// The layer: the part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static CURRENT_OP: AtomicU32 = AtomicU32::new(0);
static CURRENT_PARENT: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on or off for subsequent spans.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the operation id later spans are attributed to (0 is set-up).
pub fn set_op(op: u32) {
    CURRENT_OP.store(op, Ordering::Relaxed);
}

/// The caller's innermost open span (0 if none), for handing to a span
/// opened on another thread with [`leaf_under`].
pub fn current() -> u32 {
    CURRENT_PARENT.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
pub struct Guard {
    id: u32,
    parent: u32,
    op: u32,
    name: &'static str,
    start: u64,
    /// Whether this span is the caller's innermost span while open.
    nests: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        if self.nests {
            CURRENT_PARENT.store(self.parent, Ordering::Relaxed);
        }
        let span =
            Span { id: self.id, parent: self.parent, op: self.op, name: self.name, start: self.start, end };
        // A poisoned recorder only means another span push panicked; the
        // vector itself is still a valid list of spans.
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

fn open(name: &'static str, parent: u32, nests: bool) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    if nests {
        CURRENT_PARENT.store(id, Ordering::Relaxed);
    }
    Some(Guard { id, parent, op: CURRENT_OP.load(Ordering::Relaxed), name, start: now_ns(), nests })
}

/// Opens a span on the calling (benchmark) thread; spans opened while it
/// is open, on any thread, become its children.
pub fn enter(name: &'static str) -> Option<Guard> {
    open(name, current(), true)
}

/// Runs `f` inside a span named `name` on the calling thread.
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = enter(name);
    f()
}

/// Opens a span that cannot have children, under `parent` (captured by
/// [`current`]) — for calls that run on pool workers concurrently with the
/// caller.
pub fn leaf_under(name: &'static str, parent: u32) -> Option<Guard> {
    open(name, parent, false)
}

/// All spans recorded so far, in order of completion.
pub fn spans() -> Vec<Span> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Self time of every span in seconds, indexed like `spans`: its duration
/// minus the union of its children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for c in spans.iter().filter(|c| c.parent != 0) {
        children.entry(c.parent).or_default().push((c.start, c.end));
    }
    spans
        .iter()
        .map(|s| {
            let clipped: Vec<(u64, u64)> = children
                .get(&s.id)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .map(|&(cs, ce)| (cs.max(s.start), ce.min(s.end)))
                .collect();
            (s.end - s.start).saturating_sub(union_len(&clipped)) as f64 * 1e-9
        })
        .collect()
}

/// Union, in seconds, of the intervals of spans named `name` that lie
/// (clipped) inside `within`.
pub fn union_within(spans: &[Span], name: &str, within: &Span) -> f64 {
    let parts: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.start.max(within.start), s.end.min(within.end)))
        .collect();
    union_len(&parts) as f64 * 1e-9
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start, s.end
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span { id, parent, op: 1, name: "x.y", start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (10..40, 30..50) cover 40 of the parent's 100.
        let spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 50), span(4, 2, 12, 14)];
        let st = self_times(&spans);
        assert!((st[0] - 60e-9).abs() < 1e-15);
        assert!((st[1] - 28e-9).abs() < 1e-15);
        assert_eq!(spans[0].layer(), "x");
    }
}
