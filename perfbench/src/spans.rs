//! The benchmark's own span recorder.
//!
//! Spans are recorded only from this crate, around calls into the
//! layers' public functions; the program itself is not instrumented.
//! Recording is off unless [`set_enabled`] turned it on, so the untraced
//! path pays one relaxed load per call site. Spans stay in memory until
//! [`take`], and [`write_out`] saves them as JSON lines when a run ends.
//!
//! A span's parent is the innermost span open on the same thread, so a
//! layer's *self time* is its span time minus the time its child spans
//! cover ([`layer_totals`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    /// Layer, named after the repository module the call enters.
    pub layer: &'static str,
    /// The call inside the layer.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f` inside a span of `layer`/`name` when recording is on.
pub fn span<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    let start_ns = now_ns();
    let r = f();
    let end_ns = now_ns();
    OPEN.with(|open| open.borrow_mut().pop());
    SPANS
        .lock()
        .expect("span store poisoned by a panicking thread")
        .push(Span {
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns,
        });
    r
}

/// Drain every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span store poisoned by a panicking thread"),
    )
}

/// Per-`layer.name` totals over `spans`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// Totals keyed by `"layer.name"`.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<String, Totals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<String, Totals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(format!("{}.{}", s.layer, s.name)).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// A position in the span store, for [`since`].
pub fn mark() -> usize {
    SPANS
        .lock()
        .expect("span store poisoned by a panicking thread")
        .len()
}

/// Copies of the spans closed after `mark`, without draining them.
pub fn since(mark: usize) -> Vec<Span> {
    let spans = SPANS
        .lock()
        .expect("span store poisoned by a panicking thread");
    spans[mark.min(spans.len())..].to_vec()
}

/// Write `spans` as JSON lines to `<dir>/spans-<workload>-<seed>.jsonl`.
pub fn write_out(spans: &[Span], dir: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let file = std::fs::File::create(dir.join(format!("spans-{workload}-{seed}.jsonl")))?;
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_spans() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                layer: "phylo",
                name: "search",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                layer: "adapters",
                name: "score",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: 1,
                layer: "adapters",
                name: "score",
                start_ns: 50,
                end_ns: 70,
            },
        ];
        let t = layer_totals(&spans);
        assert_eq!(t["phylo.search"].total_ns, 100);
        assert_eq!(t["phylo.search"].self_ns, 50);
        assert_eq!(t["adapters.score"].count, 2);
        assert_eq!(t["adapters.score"].self_ns, 50);
    }
}
