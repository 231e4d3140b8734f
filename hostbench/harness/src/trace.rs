//! In-memory span tracer for the traced replays.
//!
//! A span records a layer call: its name, the span that caused it, and
//! its start and end on one monotonic clock. Spans are kept in memory
//! and analysed when the replay ends. With tracing disabled (the
//! untraced runs) [`span`] is one relaxed load and a direct call, so
//! traced and untraced runs execute the same code.
//!
//! Self time is a span's capacity minus the time its child spans
//! cover. An ordinary span's capacity is its duration; a span that
//! fans work out to `n` worker threads (the campaign supervisor) has
//! `n` times its duration, and the workers' top-level spans are its
//! children. When every span nests inside its parent, the self times
//! sum to the root's duration plus the extra worker capacity, so a
//! replay checks them against the same quantity read from clocks
//! outside the spans ([`Analysis::reconcile_err`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Worker threads this span's interval is shared across (1 for an
    /// ordinary call).
    pub fanout: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread, innermost last. A worker thread's
    /// stack starts with the span it was adopted under.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on for the rest of the process.
pub fn enable() {
    now_ns();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Run `f` inside a span named `name`.
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_fanout(name, 1, |_| f())
}

/// Run `f` inside a span whose interval `fanout` worker threads share.
/// `f` receives the span's id (0 when tracing is off) so it can hand it
/// to the workers via [`adopt`].
pub fn span_fanout<R>(name: &'static str, fanout: u64, f: impl FnOnce(u64) -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f(0);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f(id);
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS.lock().unwrap().push(Span {
        id,
        parent,
        name,
        fanout,
        start_ns,
        end_ns,
    });
    out
}

/// Make `parent` the enclosing span of everything this thread records
/// from now on (called once on each campaign worker thread).
pub fn adopt(parent: u64) {
    if parent != 0 {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.clear();
            s.push(parent);
        });
    }
}

/// Every span closed so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap())
}

/// One layer's aggregate over a trace.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: i128,
}

/// The analysed trace.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Per span name.
    pub layers: BTreeMap<&'static str, Layer>,
    /// Sum of every span's self time.
    pub self_sum_ns: i128,
    /// Spans that do not nest: a parent that was never recorded, a
    /// child outside its parent's interval, or children that cover
    /// more than their parent's capacity.
    pub nesting_errors: Vec<String>,
}

impl Analysis {
    pub fn of(spans: &[Span]) -> Analysis {
        let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let mut a = Analysis::default();
        let mut covered: BTreeMap<u64, i128> = BTreeMap::new();
        for s in spans {
            let Some(p) = s.parent else { continue };
            match by_id.get(&p) {
                None => a.nesting_errors.push(format!("{} has no recorded parent", s.name)),
                Some(parent) if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns => a
                    .nesting_errors
                    .push(format!("{} lies outside its parent {}", s.name, parent.name)),
                Some(_) => {}
            }
            *covered.entry(p).or_default() += i128::from(s.dur_ns());
        }
        for s in spans {
            let capacity = i128::from(s.dur_ns()) * i128::from(s.fanout);
            let self_ns = capacity - covered.get(&s.id).copied().unwrap_or(0);
            if self_ns < 0 {
                a.nesting_errors
                    .push(format!("children of {} cover more than its capacity", s.name));
            }
            let layer = a.layers.entry(s.name).or_default();
            layer.calls += 1;
            layer.total_ns += s.dur_ns();
            layer.self_ns += self_ns;
            a.self_sum_ns += self_ns;
        }
        a
    }

    /// Self time of `name` in nanoseconds (0 when the layer is absent).
    pub fn self_ns(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.self_ns as f64)
    }

    /// Total (inclusive) time of `name` in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.total_ns as f64)
    }

    /// Share of `clock_ns` not left to the root span's own self time,
    /// i.e. attributed to a named layer or the supervisor.
    pub fn coverage(&self, root: &str, clock_ns: f64) -> f64 {
        1.0 - self.self_ns(root) / clock_ns
    }

    /// `|sum of self times - clock_ns| / clock_ns`, where `clock_ns` is
    /// the traced work's capacity read from clocks outside the spans:
    /// the replay's wall time plus every extra worker's share of the
    /// campaign's wall time. Work outside the root span, or a fan-out
    /// capacity that does not match the workers, shows up here.
    pub fn reconcile_err(&self, clock_ns: f64) -> f64 {
        (self.self_sum_ns as f64 - clock_ns).abs() / clock_ns
    }

    /// Fail when any span does not nest inside its parent.
    pub fn check_nesting(&self) -> Result<(), String> {
        match self.nesting_errors.first() {
            None => Ok(()),
            Some(e) => Err(format!("trace does not nest ({} errors): {e}", self.nesting_errors.len())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sp(id: u64, parent: Option<u64>, name: &'static str, fanout: u64, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            fanout,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            sp(1, None, "root", 1, 0, 100),
            sp(2, Some(1), "a", 1, 10, 50),
            sp(3, Some(2), "b", 1, 20, 30),
            sp(4, Some(2), "b", 1, 30, 45),
        ];
        let a = Analysis::of(&spans);
        assert_eq!(a.layers["root"].self_ns, 60);
        assert_eq!(a.layers["a"].self_ns, 15);
        assert_eq!(a.layers["b"].self_ns, 25);
        assert_eq!(a.layers["b"].calls, 2);
        assert_eq!(a.layers["b"].total_ns, 25);
        assert_eq!(a.self_sum_ns, 100);
        assert!(a.check_nesting().is_ok());
        assert_eq!(a.reconcile_err(100.0), 0.0);
        assert!((a.coverage("root", 100.0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn fanout_span_owns_idle_worker_capacity() {
        // A campaign of 40 ns on 2 workers: worker blocks cover 30 + 25
        // of the 80 ns of capacity, so the supervisor keeps 25.
        let spans = [
            sp(1, None, "root", 1, 0, 100),
            sp(2, Some(1), "setup", 1, 0, 20),
            sp(3, Some(1), "campaign", 2, 50, 90),
            sp(4, Some(3), "block", 1, 50, 80),
            sp(5, Some(3), "block", 1, 55, 80),
            sp(6, Some(4), "classify", 1, 52, 78),
        ];
        let a = Analysis::of(&spans);
        assert_eq!(a.layers["campaign"].self_ns, 80 - 55);
        assert_eq!(a.layers["block"].self_ns, 55 - 26);
        assert_eq!(a.layers["classify"].self_ns, 26);
        assert_eq!(a.layers["root"].self_ns, 100 - 20 - 40);
        assert!(a.check_nesting().is_ok());
        // The outside clock: 100 ns of wall plus one extra worker's 40.
        assert_eq!(a.self_sum_ns, 140);
        assert_eq!(a.reconcile_err(140.0), 0.0);
    }

    #[test]
    fn work_outside_the_root_span_breaks_reconciliation() {
        // The process ran for 125 ns, but the spans account for 100.
        let spans = [sp(1, None, "root", 1, 0, 100), sp(2, Some(1), "a", 1, 10, 50)];
        let a = Analysis::of(&spans);
        assert!(a.check_nesting().is_ok());
        assert!((a.reconcile_err(125.0) - 0.2).abs() < 1e-12);
        // A fan-out span that claims one worker too many is caught too.
        let spans = [sp(1, None, "root", 1, 0, 100), sp(2, Some(1), "campaign", 3, 0, 50)];
        assert!((Analysis::of(&spans).reconcile_err(150.0) - 50.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn spans_that_do_not_nest_are_reported() {
        // Overlapping children cover more than their parent.
        let overlap = [
            sp(1, None, "root", 1, 0, 10),
            sp(2, Some(1), "x", 1, 0, 8),
            sp(3, Some(1), "x", 1, 2, 10),
        ];
        let a = Analysis::of(&overlap);
        assert_eq!(a.layers["root"].self_ns, -6);
        assert_eq!(a.nesting_errors, ["children of root cover more than its capacity"]);
        // A child that outlives its parent.
        let escaped = [sp(1, None, "root", 1, 0, 10), sp(2, Some(1), "x", 1, 5, 12)];
        assert_eq!(Analysis::of(&escaped).nesting_errors, ["x lies outside its parent root"]);
        // A child whose parent span was never recorded.
        let orphan = [sp(1, None, "root", 1, 0, 10), sp(2, Some(7), "x", 1, 2, 4)];
        let err = Analysis::of(&orphan).check_nesting().unwrap_err();
        assert!(err.contains("x has no recorded parent"), "{err}");
    }

    #[test]
    fn recorded_spans_nest_and_reconcile() {
        let pause = || std::thread::sleep(Duration::from_millis(2));
        enable();
        let start = Instant::now();
        let mut fan_wall = Duration::ZERO;
        span("t.root", || {
            span("t.child", pause);
            span_fanout("t.fan", 2, |id| {
                let t = Instant::now();
                std::thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(move || {
                            adopt(id);
                            span("t.work", pause);
                        });
                    }
                });
                fan_wall = t.elapsed();
            });
        });
        let clock_ns = (start.elapsed() + fan_wall).as_nanos() as f64;
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| s.name.starts_with("t."))
            .collect();
        assert_eq!(spans.len(), 5);
        let fan = spans.iter().find(|s| s.name == "t.fan").unwrap();
        for w in spans.iter().filter(|s| s.name == "t.work") {
            assert_eq!(w.parent, Some(fan.id));
        }
        let a = Analysis::of(&spans);
        assert!(a.check_nesting().is_ok());
        let err = a.reconcile_err(clock_ns);
        assert!(err > 0.0 && err < 0.05, "reconcile_err {err}");
    }
}
