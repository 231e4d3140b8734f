//! Structured observability for the cycle-level simulator.
//!
//! The pipeline, PDU and decoded cache report their per-cycle activity
//! as typed [`PipeEvent`]s through the [`PipeObserver`] trait. The
//! default observer, [`NullObserver`], is a set of empty inlined
//! methods that monomorphize away — the uninstrumented simulator pays
//! nothing. Real observers collect events into a bounded ring
//! ([`EventRing`]), aggregate them per branch site
//! ([`crate::BranchProfiler`]), or both at once (observers compose as
//! tuples).
//!
//! On top of the event stream this module provides three renderings,
//! all write-only (nothing in the simulator reads a trace back):
//!
//! * [`write_jsonl`] — one flat JSON object per event, the
//!   machine-readable trace format, closed by a [`TraceFooter`] line;
//! * [`write_chrome_trace`] — Chrome `trace_event` JSON that opens
//!   directly in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! * [`render_timeline`] — a Konata-style ASCII lane diagram of the
//!   EU stage flow (IR→OR→RR at the default geometry) around a window
//!   of cycles, with squash markers.
//!
//! Event ↔ counter contract: every [`crate::CycleStats`] counter bump
//! has a corresponding event, so an [`EventRing`] large enough to hold
//! the whole run reconciles *exactly* with the end-of-run stats (the
//! `prop_observer` property test enforces this):
//!
//! | counter                  | events                                  |
//! |--------------------------|-----------------------------------------|
//! | `issued`                 | `Issue`                                 |
//! | `program_instrs`         | `Issue` + folded `Issue`                |
//! | `cond_branches`          | `BranchRetire`                          |
//! | `mispredicts_by_stage[s]`| `BranchResolve { stage: s, mispredicted }`|
//! | `resolved_at_fetch`      | `BranchResolve { stage: 0, .. }`        |
//! | `flushed_slots`          | `Squash`                                |
//! | `icache_hits`/`misses`   | `FetchHit` / `FetchMiss`                |
//! | `miss_stall_cycles`      | `StallBegin`/`StallEnd` (kind Miss)     |
//! | `indirect_stall_cycles`  | `StallBegin`/`StallEnd` (kind Indirect) |
//! | `pdu_decodes`            | `Decode`                                |
//! | `cache_inserts` + `cache_refills` | `CacheFill`                    |
//! | `cache_evictions`        | `CacheFill { evicted: Some(_), .. }`    |
//! | `faults_injected`        | `FaultInject`                           |
//! | `parity_invalidates`     | `ParityError`                           |
//!
//! `Commit` events sit outside the counter table: they carry the
//! architectural state at the shared commit point and back the
//! differential oracle (see [`crate::CommitRecord`]).

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;

use crisp_isa::FoldFailure;

use crate::geometry::PipelineGeometry;

/// What the Execution Unit is stalled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Decoded-cache miss: waiting for the PDU to fill the entry.
    Miss,
    /// Waiting for an indirect branch target to resolve at retire.
    Indirect,
}

impl StallKind {
    fn name(self) -> &'static str {
        match self {
            StallKind::Miss => "miss",
            StallKind::Indirect => "indirect",
        }
    }
}

/// One typed observation from the simulator.
///
/// Stage indices follow the mispredict-penalty convention of
/// [`crate::CycleStats::mispredicts_by_stage`]: at the default
/// [`crate::PipelineGeometry`], 0 = cache-read time, 1 = IR, 2 = OR,
/// 3 = RR; at EU depth `D` in general, 0 is still cache-read time and
/// the retire stage carries index `D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeEvent {
    /// EU fetch hit the decoded cache; the entry enters IR this cycle.
    FetchHit {
        /// Cycle of the fetch.
        cycle: u64,
        /// Address of the fetched entry.
        pc: u32,
        /// Whether the entry carries a folded branch.
        folded: bool,
    },
    /// EU fetch missed the decoded cache (counted once per missing
    /// address, like [`crate::CycleStats::icache_misses`]).
    FetchMiss {
        /// Cycle of the first stalled fetch.
        cycle: u64,
        /// The missing address.
        pc: u32,
    },
    /// The PDU decoded one instruction (possibly on the wrong path).
    Decode {
        /// Cycle of the decode.
        cycle: u64,
        /// Address of the decoded instruction.
        pc: u32,
        /// Whether a branch was folded into the entry.
        folded: bool,
    },
    /// The PDU folded the branch at `branch_pc` into the entry at `pc`.
    Fold {
        /// Cycle of the decode.
        cycle: u64,
        /// Host entry address.
        pc: u32,
        /// Address of the absorbed branch.
        branch_pc: u32,
    },
    /// A branch directly followed the entry at `pc` but could not fold.
    FoldFail {
        /// Cycle of the decode.
        cycle: u64,
        /// Host entry address.
        pc: u32,
        /// Address of the branch that stayed separate.
        branch_pc: u32,
        /// Which folding rule blocked it.
        reason: FoldFailure,
    },
    /// The PDU wrote an entry into the decoded cache.
    CacheFill {
        /// Cycle the entry became visible.
        cycle: u64,
        /// Address of the entry.
        pc: u32,
        /// Address of a conflicting entry this fill evicted, if any.
        evicted: Option<u32>,
    },
    /// A valid entry retired from RR (an EU issue).
    Issue {
        /// Cycle of the retirement.
        cycle: u64,
        /// Address of the entry.
        pc: u32,
        /// Whether the entry carried a folded branch.
        folded: bool,
    },
    /// A conditional branch retired, reporting its direction.
    BranchRetire {
        /// Cycle of the retirement.
        cycle: u64,
        /// Address of the branch instruction.
        branch_pc: u32,
        /// The actual direction.
        taken: bool,
        /// The static prediction bit.
        predicted: bool,
        /// Whether the branch was folded with its host.
        folded: bool,
    },
    /// A live dynamic predictor ([`crate::SimConfig::predictor`], any
    /// non-static variant) was consulted for a conditional entry at
    /// cache-read time. Emitted at the guess, before the outcome is
    /// known; together with the [`PipeEvent::BranchRetire`] stream
    /// (the training points) it lets a trace-driven model replay the
    /// pipeline's exact predict/update interleaving — the
    /// cross-validation in `tests/prop_predictor_xval.rs`. Never
    /// emitted under the static bit, which consults no table.
    Predict {
        /// Cycle of the lookup.
        cycle: u64,
        /// Address of the branch instruction (the predictor's key).
        branch_pc: u32,
        /// The predicted direction.
        guess: bool,
        /// Whether the guess was the table's miss default (no resident
        /// entry) rather than a trained direction.
        miss: bool,
    },
    /// A conditional branch's direction became certain.
    BranchResolve {
        /// Cycle of the resolution.
        cycle: u64,
        /// Address of the branch instruction.
        branch_pc: u32,
        /// Where it resolved: 0 = cache read, then one index per EU
        /// stage up to retire (1 = IR, 2 = OR, 3 = RR at the default
        /// geometry). The mispredict penalty equals this index.
        stage: u8,
        /// Whether the followed path was wrong (recovery required).
        mispredicted: bool,
    },
    /// A wrong-path slot was cancelled (valid bit cleared).
    Squash {
        /// Cycle of the cancellation.
        cycle: u64,
        /// Address of the killed entry.
        pc: u32,
        /// The stage holding it, as a resolve index: `1..=depth-1`
        /// (1 = IR, 2 = OR at the default geometry — the retire stage
        /// cannot be squashed).
        stage: u8,
    },
    /// The EU began stalling.
    StallBegin {
        /// First stalled cycle.
        cycle: u64,
        /// What it stalls on.
        kind: StallKind,
    },
    /// The EU stopped stalling; stalled cycles = `cycle` − begin cycle.
    StallEnd {
        /// First non-stalled cycle.
        cycle: u64,
        /// What it was stalling on.
        kind: StallKind,
    },
    /// A transient fault ([`crate::SimConfig::fault_plan`]) flipped
    /// bits in a live decoded-cache entry.
    FaultInject {
        /// Cycle of the strike.
        cycle: u64,
        /// The struck cache slot.
        slot: u32,
        /// Address of the entry that was resident (and corrupted).
        pc: u32,
    },
    /// A parity check caught a corrupted decoded-cache entry at read
    /// time; the entry was invalidated and will be redecoded.
    ParityError {
        /// Cycle of the failed fetch.
        cycle: u64,
        /// The fetch address whose slot failed its check.
        pc: u32,
        /// The invalidated cache slot.
        slot: u32,
    },
    /// `halt` retired; the run is over.
    Halt {
        /// Cycle of the halt.
        cycle: u64,
    },
    /// One entry retired at the shared commit point
    /// ([`crate::Machine::execute_observed`]), carrying the
    /// architectural state the commit produced. Both engines emit an
    /// identical `Commit` stream for the same program — the invariant
    /// the differential oracle ([`crate::run_lockstep`]) checks.
    Commit {
        /// Cycle (cycle engine) or step index (functional engine).
        cycle: u64,
        /// Address of the (host) entry that committed.
        pc: u32,
        /// The architecturally correct next PC.
        next_pc: u32,
        /// Address of the branch the entry carried, if any (folded
        /// branches and standalone branch entries alike).
        branch_pc: Option<u32>,
        /// Whether the entry carried a folded branch.
        folded: bool,
        /// For conditional entries, the actual direction taken.
        taken: Option<bool>,
        /// Accumulator after the commit.
        accum: i32,
        /// Stack pointer after the commit.
        sp: u32,
        /// PSW condition flag after the commit.
        flag: bool,
        /// The memory word this instruction wrote (word-aligned
        /// address, value), if any. The ISA writes at most one word
        /// per instruction.
        mem_write: Option<(u32, i32)>,
        /// Whether this commit was a `halt`.
        halted: bool,
    },
}

impl PipeEvent {
    /// The cycle the event belongs to.
    pub fn cycle(&self) -> u64 {
        match *self {
            PipeEvent::FetchHit { cycle, .. }
            | PipeEvent::FetchMiss { cycle, .. }
            | PipeEvent::Decode { cycle, .. }
            | PipeEvent::Fold { cycle, .. }
            | PipeEvent::FoldFail { cycle, .. }
            | PipeEvent::CacheFill { cycle, .. }
            | PipeEvent::Issue { cycle, .. }
            | PipeEvent::BranchRetire { cycle, .. }
            | PipeEvent::Predict { cycle, .. }
            | PipeEvent::BranchResolve { cycle, .. }
            | PipeEvent::Squash { cycle, .. }
            | PipeEvent::StallBegin { cycle, .. }
            | PipeEvent::StallEnd { cycle, .. }
            | PipeEvent::FaultInject { cycle, .. }
            | PipeEvent::ParityError { cycle, .. }
            | PipeEvent::Halt { cycle }
            | PipeEvent::Commit { cycle, .. } => cycle,
        }
    }
}

/// A sink for pipeline events.
///
/// Implementations should be cheap: the simulator calls [`event`] from
/// its inner loop. Two associated constants let call sites skip event
/// construction at monomorphization: `ENABLED` guards
/// [`PipeEvent::Commit`] and `PIPELINE` guards every other event. With
/// both `false` (the no-op observer) the default-instantiated simulator
/// compiles to exactly the uninstrumented code.
///
/// A commit-only observer (a commit-stream comparator such as
/// [`crate::PrefixCheck`]) sets `PIPELINE = false` and is sent only
/// `Commit`; the simulated machine does the same work either way. Such
/// an observer must ignore every other event, which it still receives
/// in a tuple beside a full observer.
///
/// [`event`]: PipeObserver::event
pub trait PipeObserver {
    /// Whether this observer consumes [`PipeEvent::Commit`]. Call sites
    /// guard its construction on this; when it and
    /// [`PipeObserver::PIPELINE`] are `false` the whole emission path
    /// folds away.
    const ENABLED: bool = true;

    /// Whether this observer consumes any event other than
    /// [`PipeEvent::Commit`]. Call sites guard every non-commit event
    /// on it. Defaults to [`PipeObserver::ENABLED`]; a tuple ORs it
    /// across its members.
    const PIPELINE: bool = Self::ENABLED;

    /// Receive one event.
    fn event(&mut self, ev: PipeEvent);
}

/// The zero-overhead default observer: does nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl PipeObserver for NullObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _ev: PipeEvent) {}
}

/// Observers compose: a tuple forwards every event to both members.
impl<A: PipeObserver, B: PipeObserver> PipeObserver for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const PIPELINE: bool = A::PIPELINE || B::PIPELINE;

    #[inline]
    fn event(&mut self, ev: PipeEvent) {
        self.0.event(ev);
        self.1.event(ev);
    }
}

/// A bounded ring buffer of events: keeps the most recent `capacity`
/// and counts what it had to drop.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: VecDeque<PipeEvent>,
    capacity: usize,
    /// Events discarded because the ring was full (oldest first).
    pub dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing {
            buf: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
            dropped: 0,
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &PipeEvent> {
        self.buf.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the ring into a `Vec`, oldest first.
    pub fn into_vec(self) -> Vec<PipeEvent> {
        self.buf.into()
    }
}

impl PipeObserver for EventRing {
    #[inline]
    fn event(&mut self, ev: PipeEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

// ---------------------------------------------------------------------
// JSONL serialization
// ---------------------------------------------------------------------

impl PipeEvent {
    /// One flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        let _ = match *self {
            PipeEvent::FetchHit { cycle, pc, folded } => write!(
                s,
                r#"{{"ev":"fetch_hit","cycle":{cycle},"pc":{pc},"folded":{folded}}}"#
            ),
            PipeEvent::FetchMiss { cycle, pc } => {
                write!(s, r#"{{"ev":"fetch_miss","cycle":{cycle},"pc":{pc}}}"#)
            }
            PipeEvent::Decode { cycle, pc, folded } => {
                write!(
                    s,
                    r#"{{"ev":"decode","cycle":{cycle},"pc":{pc},"folded":{folded}}}"#
                )
            }
            PipeEvent::Fold {
                cycle,
                pc,
                branch_pc,
            } => write!(
                s,
                r#"{{"ev":"fold","cycle":{cycle},"pc":{pc},"branch_pc":{branch_pc}}}"#
            ),
            PipeEvent::FoldFail {
                cycle,
                pc,
                branch_pc,
                reason,
            } => write!(
                s,
                r#"{{"ev":"fold_fail","cycle":{cycle},"pc":{pc},"branch_pc":{branch_pc},"reason":"{reason}"}}"#
            ),
            PipeEvent::CacheFill { cycle, pc, evicted } => match evicted {
                Some(e) => write!(
                    s,
                    r#"{{"ev":"cache_fill","cycle":{cycle},"pc":{pc},"evicted":{e}}}"#
                ),
                None => write!(
                    s,
                    r#"{{"ev":"cache_fill","cycle":{cycle},"pc":{pc},"evicted":null}}"#
                ),
            },
            PipeEvent::Issue { cycle, pc, folded } => {
                write!(
                    s,
                    r#"{{"ev":"issue","cycle":{cycle},"pc":{pc},"folded":{folded}}}"#
                )
            }
            PipeEvent::BranchRetire {
                cycle,
                branch_pc,
                taken,
                predicted,
                folded,
            } => write!(
                s,
                r#"{{"ev":"branch_retire","cycle":{cycle},"branch_pc":{branch_pc},"taken":{taken},"predicted":{predicted},"folded":{folded}}}"#
            ),
            PipeEvent::Predict {
                cycle,
                branch_pc,
                guess,
                miss,
            } => write!(
                s,
                r#"{{"ev":"predict","cycle":{cycle},"branch_pc":{branch_pc},"guess":{guess},"miss":{miss}}}"#
            ),
            PipeEvent::BranchResolve {
                cycle,
                branch_pc,
                stage,
                mispredicted,
            } => write!(
                s,
                r#"{{"ev":"branch_resolve","cycle":{cycle},"branch_pc":{branch_pc},"stage":{stage},"mispredicted":{mispredicted}}}"#
            ),
            PipeEvent::Squash { cycle, pc, stage } => {
                write!(
                    s,
                    r#"{{"ev":"squash","cycle":{cycle},"pc":{pc},"stage":{stage}}}"#
                )
            }
            PipeEvent::StallBegin { cycle, kind } => write!(
                s,
                r#"{{"ev":"stall_begin","cycle":{cycle},"kind":"{}"}}"#,
                kind.name()
            ),
            PipeEvent::StallEnd { cycle, kind } => write!(
                s,
                r#"{{"ev":"stall_end","cycle":{cycle},"kind":"{}"}}"#,
                kind.name()
            ),
            PipeEvent::FaultInject { cycle, slot, pc } => write!(
                s,
                r#"{{"ev":"fault_inject","cycle":{cycle},"slot":{slot},"pc":{pc}}}"#
            ),
            PipeEvent::ParityError { cycle, pc, slot } => write!(
                s,
                r#"{{"ev":"parity_error","cycle":{cycle},"pc":{pc},"slot":{slot}}}"#
            ),
            PipeEvent::Halt { cycle } => write!(s, r#"{{"ev":"halt","cycle":{cycle}}}"#),
            PipeEvent::Commit {
                cycle,
                pc,
                next_pc,
                branch_pc,
                folded,
                taken,
                accum,
                sp,
                flag,
                mem_write,
                halted,
            } => {
                let opt = |v: Option<u32>| match v {
                    Some(n) => n.to_string(),
                    None => "null".to_string(),
                };
                let (mw_addr, mw_val) = match mem_write {
                    Some((a, v)) => (a.to_string(), v.to_string()),
                    None => ("null".to_string(), "null".to_string()),
                };
                let taken = match taken {
                    Some(b) => b.to_string(),
                    None => "null".to_string(),
                };
                write!(
                    s,
                    r#"{{"ev":"commit","cycle":{cycle},"pc":{pc},"next_pc":{next_pc},"branch_pc":{},"folded":{folded},"taken":{taken},"accum":{accum},"sp":{sp},"flag":{flag},"mw_addr":{mw_addr},"mw_val":{mw_val},"halted":{halted}}}"#,
                    opt(branch_pc)
                )
            }
        };
        s
    }
}

/// Write events as JSON Lines (one object per line).
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_jsonl<'a, W, I>(w: &mut W, events: I) -> io::Result<()>
where
    W: io::Write + ?Sized,
    I: IntoIterator<Item = &'a PipeEvent>,
{
    for ev in events {
        writeln!(w, "{}", ev.to_json())?;
    }
    Ok(())
}

/// End-of-trace summary line written by `crisp-run --trace`: how many
/// events the file holds and how many the capturing [`EventRing`]
/// dropped. A non-zero `dropped` flags the trace as truncated — any
/// attribution derived from its events covers only the captured tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFooter {
    /// Events written to the trace.
    pub events: u64,
    /// Events the ring discarded (oldest first) during capture.
    pub dropped: u64,
}

impl TraceFooter {
    /// The footer as one JSONL line (same flat shape as the events).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"ev":"trace_footer","events":{},"dropped":{}}}"#,
            self.events, self.dropped
        )
    }
}

/// Write the end-of-trace footer line after the events of a JSONL
/// trace.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_trace_footer<W: io::Write + ?Sized>(w: &mut W, footer: TraceFooter) -> io::Result<()> {
    writeln!(w, "{}", footer.to_json())
}

// ---------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------

/// Write a Chrome `trace_event` JSON document for the event stream of
/// a run at geometry `geo`.
///
/// One simulated cycle maps to one microsecond of trace time.
/// Instructions appear as depth-cycle spans (IR→OR→RR on the paper's
/// machine) rotated over depth lanes so overlapping lifetimes stay
/// readable; squashes, mispredict resolutions and stalls get their own
/// lanes. Open the file in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_chrome_trace<W: io::Write + ?Sized>(
    w: &mut W,
    events: &[PipeEvent],
    geo: PipelineGeometry,
) -> io::Result<()> {
    // Lanes (thread ids) of the exported trace: one per EU stage, then
    // branch events / stalls / the PDU.
    let instr_lanes = geo.depth() as u64;
    let lane_events = instr_lanes;
    let lane_stalls = instr_lanes + 1;
    let lane_pdu = instr_lanes + 2;
    let mut items: Vec<String> = Vec::new();
    // The process name carries the geometry and its stage legend, so a
    // non-default depth is visible in the viewer without decoding lane
    // counts by eye.
    items.push(format!(
        r#"{{"ph":"M","name":"process_name","pid":0,"args":{{"name":"crisp EU {geo} ({})"}}}}"#,
        geo.stage_legend()
    ));
    for lane in 0..instr_lanes {
        items.push(format!(
            r#"{{"ph":"M","name":"thread_name","pid":0,"tid":{lane},"args":{{"name":"pipeline lane {lane} of {instr_lanes}"}}}}"#
        ));
    }
    items.push(format!(
        r#"{{"ph":"M","name":"thread_name","pid":0,"tid":{lane_events},"args":{{"name":"branch events"}}}}"#
    ));
    items.push(format!(
        r#"{{"ph":"M","name":"thread_name","pid":0,"tid":{lane_stalls},"args":{{"name":"stalls"}}}}"#
    ));
    items.push(format!(
        r#"{{"ph":"M","name":"thread_name","pid":0,"tid":{lane_pdu},"args":{{"name":"pdu"}}}}"#
    ));

    let mut open_stall: Option<(StallKind, u64)> = None;
    for ev in events {
        match *ev {
            PipeEvent::FetchHit { cycle, pc, folded } => {
                let lane = cycle % instr_lanes;
                let name = if folded {
                    format!("{pc:#x}+fold")
                } else {
                    format!("{pc:#x}")
                };
                items.push(format!(
                    r#"{{"ph":"X","name":"{name}","cat":"instr","pid":0,"tid":{lane},"ts":{cycle},"dur":{}}}"#,
                    geo.depth()
                ));
            }
            PipeEvent::Squash { cycle, pc, stage } => {
                items.push(format!(
                    r#"{{"ph":"i","name":"squash {pc:#x} @{}","cat":"squash","pid":0,"tid":{lane_events},"ts":{cycle},"s":"t"}}"#,
                    geo.stage_name(stage as usize)
                ));
            }
            PipeEvent::BranchResolve {
                cycle,
                branch_pc,
                stage,
                mispredicted,
            } => {
                let verdict = if mispredicted {
                    "MISPREDICT"
                } else {
                    "resolve"
                };
                items.push(format!(
                    r#"{{"ph":"i","name":"{verdict} {branch_pc:#x} @{}","cat":"branch","pid":0,"tid":{lane_events},"ts":{cycle},"s":"t"}}"#,
                    geo.stage_name(stage as usize)
                ));
            }
            PipeEvent::StallBegin { cycle, kind } => open_stall = Some((kind, cycle)),
            PipeEvent::StallEnd { cycle, kind } => {
                if let Some((k, begin)) = open_stall.take() {
                    if k == kind && cycle >= begin {
                        items.push(format!(
                            r#"{{"ph":"X","name":"{} stall","cat":"stall","pid":0,"tid":{lane_stalls},"ts":{begin},"dur":{}}}"#,
                            kind.name(),
                            cycle - begin
                        ));
                    }
                }
            }
            PipeEvent::Decode { cycle, pc, .. } => {
                items.push(format!(
                    r#"{{"ph":"X","name":"decode {pc:#x}","cat":"pdu","pid":0,"tid":{lane_pdu},"ts":{cycle},"dur":1}}"#
                ));
            }
            PipeEvent::Halt { cycle } => {
                items.push(format!(
                    r#"{{"ph":"i","name":"halt","cat":"instr","pid":0,"tid":{lane_events},"ts":{cycle},"s":"g"}}"#
                ));
            }
            _ => {}
        }
    }
    write!(w, r#"{{"displayTimeUnit":"ms","traceEvents":["#)?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        write!(w, "{item}")?;
    }
    write!(w, "]}}")
}

// ---------------------------------------------------------------------
// ASCII timeline
// ---------------------------------------------------------------------

/// Cycles at which a mispredicted branch resolved, oldest first —
/// the interesting centers for [`render_timeline`] windows.
pub fn mispredict_cycles(events: &[PipeEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|ev| match *ev {
            PipeEvent::BranchResolve {
                cycle,
                mispredicted: true,
                ..
            } => Some(cycle),
            _ => None,
        })
        .collect()
}

struct TimelineRow {
    pc: u32,
    fetch: u64,
    folded: bool,
    /// `(cycle, stage)` of the squash, if the instance was killed.
    squashed: Option<(u64, u8)>,
}

/// Render a Konata-style ASCII lane diagram of cycles
/// `[from, to]` for a run at geometry `geo`: one row per fetched
/// instruction, columns per cycle, one glyph per EU stage occupied
/// (`I`/`O`/`R` on the paper's machine), `x` where a squash killed the
/// slot, and a `v` header marking mispredict-resolution cycles.
pub fn render_timeline(events: &[PipeEvent], from: u64, to: u64, geo: PipelineGeometry) -> String {
    let (from, to) = (from.min(to), from.max(to));
    let last_offset = (geo.depth() - 1) as u64;
    let mut rows: Vec<TimelineRow> = Vec::new();
    let mut mispredicts: Vec<u64> = Vec::new();
    for ev in events {
        match *ev {
            PipeEvent::FetchHit { cycle, pc, folded }
                if cycle <= to && cycle + last_offset >= from =>
            {
                rows.push(TimelineRow {
                    pc,
                    fetch: cycle,
                    folded,
                    squashed: None,
                });
            }
            PipeEvent::Squash { cycle, pc, stage } => {
                // The slot in stage s at cycle c was fetched at c - s.
                let fetch = cycle.saturating_sub(u64::from(stage));
                if let Some(row) = rows
                    .iter_mut()
                    .rev()
                    .find(|r| r.pc == pc && r.fetch == fetch && r.squashed.is_none())
                {
                    row.squashed = Some((cycle, stage));
                }
            }
            PipeEvent::BranchResolve {
                cycle,
                mispredicted: true,
                ..
            } if (from..=to).contains(&cycle) => {
                mispredicts.push(cycle);
            }
            _ => {}
        }
    }

    let width = (to - from + 1) as usize;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cycles {from}..{to}  ({} x=squashed v=mispredict)",
        geo.stage_legend()
    );
    let mut header = String::from("            ");
    for c in from..=to {
        header.push(if mispredicts.contains(&c) { 'v' } else { ' ' });
    }
    out.push_str(header.trim_end());
    out.push('\n');
    for row in &rows {
        let mut lane = vec![' '; width];
        let mark = |lane: &mut Vec<char>, cycle: u64, ch: char| {
            if (from..=to).contains(&cycle) {
                lane[(cycle - from) as usize] = ch;
            }
        };
        let end = match row.squashed {
            Some((cycle, _)) => cycle,
            None => row.fetch + last_offset,
        };
        for offset in 0..geo.depth() {
            let ch = geo.stage_char(offset);
            let cycle = row.fetch + offset as u64;
            if cycle < end || (row.squashed.is_none() && cycle == end) {
                mark(&mut lane, cycle, ch);
            }
        }
        if let Some((cycle, _)) = row.squashed {
            mark(&mut lane, cycle, 'x');
        }
        let tag = if row.folded { "+f" } else { "  " };
        let lane: String = lane.into_iter().collect();
        let _ = writeln!(out, "{:#08x}{tag}  {}", row.pc, lane.trim_end());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<PipeEvent> {
        vec![
            PipeEvent::FetchMiss {
                cycle: 0,
                pc: u32::MAX,
            },
            PipeEvent::StallBegin {
                cycle: 0,
                kind: StallKind::Miss,
            },
            PipeEvent::Decode {
                cycle: 1,
                pc: 0,
                folded: true,
            },
            PipeEvent::Fold {
                cycle: 1,
                pc: 0,
                branch_pc: 2,
            },
            PipeEvent::FoldFail {
                cycle: 2,
                pc: 4,
                branch_pc: 8,
                reason: FoldFailure::HostTooLong,
            },
            PipeEvent::CacheFill {
                cycle: 3,
                pc: 0,
                evicted: None,
            },
            PipeEvent::CacheFill {
                cycle: 4,
                pc: 64,
                evicted: Some(0),
            },
            PipeEvent::StallEnd {
                cycle: 4,
                kind: StallKind::Miss,
            },
            PipeEvent::FetchHit {
                cycle: 4,
                pc: 0,
                folded: true,
            },
            PipeEvent::Predict {
                cycle: 4,
                branch_pc: 2,
                guess: true,
                miss: false,
            },
            PipeEvent::Predict {
                cycle: 4,
                branch_pc: 6,
                guess: false,
                miss: true,
            },
            PipeEvent::BranchResolve {
                cycle: 5,
                branch_pc: 2,
                stage: 1,
                mispredicted: true,
            },
            PipeEvent::Squash {
                cycle: 6,
                pc: 12,
                stage: 2,
            },
            PipeEvent::Issue {
                cycle: 7,
                pc: 0,
                folded: true,
            },
            PipeEvent::BranchRetire {
                cycle: 7,
                branch_pc: 2,
                taken: true,
                predicted: false,
                folded: true,
            },
            PipeEvent::StallBegin {
                cycle: 8,
                kind: StallKind::Indirect,
            },
            PipeEvent::StallEnd {
                cycle: 9,
                kind: StallKind::Indirect,
            },
            PipeEvent::FaultInject {
                cycle: 9,
                slot: 1,
                pc: 2,
            },
            PipeEvent::ParityError {
                cycle: 9,
                pc: 2,
                slot: 1,
            },
            PipeEvent::Commit {
                cycle: 7,
                pc: 0,
                next_pc: 12,
                branch_pc: Some(2),
                folded: true,
                taken: Some(true),
                accum: -5,
                sp: 0x3_fffc,
                flag: true,
                mem_write: Some((0x1_0000, -42)),
                halted: false,
            },
            PipeEvent::Commit {
                cycle: 10,
                pc: 12,
                next_pc: 12,
                branch_pc: None,
                folded: false,
                taken: None,
                accum: 0,
                sp: 0x4_0000,
                flag: false,
                mem_write: None,
                halted: true,
            },
            PipeEvent::Halt { cycle: 10 },
        ]
    }

    /// The exact bytes of every variant's line and of the footer: the
    /// trace is write-only, so a format change must show up here, on
    /// purpose, rather than in a downstream consumer. CI also runs
    /// real traces through a strict JSON parser.
    #[test]
    fn jsonl_lines_are_pinned() {
        let events = sample_events();
        let variants: std::collections::HashSet<_> =
            events.iter().map(std::mem::discriminant).collect();
        assert_eq!(variants.len(), 17, "sample_events covers every variant");
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &events).unwrap();
        write_trace_footer(
            &mut buf,
            TraceFooter {
                events: events.len() as u64,
                dropped: 7,
            },
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let want = [
            r#"{"ev":"fetch_miss","cycle":0,"pc":4294967295}"#,
            r#"{"ev":"stall_begin","cycle":0,"kind":"miss"}"#,
            r#"{"ev":"decode","cycle":1,"pc":0,"folded":true}"#,
            r#"{"ev":"fold","cycle":1,"pc":0,"branch_pc":2}"#,
            r#"{"ev":"fold_fail","cycle":2,"pc":4,"branch_pc":8,"reason":"host-too-long"}"#,
            r#"{"ev":"cache_fill","cycle":3,"pc":0,"evicted":null}"#,
            r#"{"ev":"cache_fill","cycle":4,"pc":64,"evicted":0}"#,
            r#"{"ev":"stall_end","cycle":4,"kind":"miss"}"#,
            r#"{"ev":"fetch_hit","cycle":4,"pc":0,"folded":true}"#,
            r#"{"ev":"predict","cycle":4,"branch_pc":2,"guess":true,"miss":false}"#,
            r#"{"ev":"predict","cycle":4,"branch_pc":6,"guess":false,"miss":true}"#,
            r#"{"ev":"branch_resolve","cycle":5,"branch_pc":2,"stage":1,"mispredicted":true}"#,
            r#"{"ev":"squash","cycle":6,"pc":12,"stage":2}"#,
            r#"{"ev":"issue","cycle":7,"pc":0,"folded":true}"#,
            r#"{"ev":"branch_retire","cycle":7,"branch_pc":2,"taken":true,"predicted":false,"folded":true}"#,
            r#"{"ev":"stall_begin","cycle":8,"kind":"indirect"}"#,
            r#"{"ev":"stall_end","cycle":9,"kind":"indirect"}"#,
            r#"{"ev":"fault_inject","cycle":9,"slot":1,"pc":2}"#,
            r#"{"ev":"parity_error","cycle":9,"pc":2,"slot":1}"#,
            r#"{"ev":"commit","cycle":7,"pc":0,"next_pc":12,"branch_pc":2,"folded":true,"taken":true,"accum":-5,"sp":262140,"flag":true,"mw_addr":65536,"mw_val":-42,"halted":false}"#,
            r#"{"ev":"commit","cycle":10,"pc":12,"next_pc":12,"branch_pc":null,"folded":false,"taken":null,"accum":0,"sp":262144,"flag":false,"mw_addr":null,"mw_val":null,"halted":true}"#,
            r#"{"ev":"halt","cycle":10}"#,
            r#"{"ev":"trace_footer","events":22,"dropped":7}"#,
        ];
        assert_eq!(text.lines().collect::<Vec<_>>(), want);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut ring = EventRing::new(2);
        for c in 0..5 {
            ring.event(PipeEvent::Halt { cycle: c });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped, 3);
        let kept: Vec<u64> = ring.events().map(|e| e.cycle()).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn tuple_observer_fans_out() {
        let mut pair = (EventRing::new(8), EventRing::new(8));
        pair.event(PipeEvent::Halt { cycle: 1 });
        assert_eq!(pair.0.len(), 1);
        assert_eq!(pair.1.len(), 1);
        const { assert!(<(EventRing, EventRing)>::ENABLED) };
        const { assert!(!NullObserver::ENABLED) };
    }

    #[test]
    fn chrome_trace_is_json_shaped() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &sample_events(), PipelineGeometry::crisp()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with('{') && text.ends_with('}'));
        assert!(text.contains(r#""traceEvents":["#));
        assert!(text.contains("MISPREDICT"));
        assert!(text.contains("miss stall"));
        // Balanced braces — cheap structural sanity without a parser.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn chrome_trace_tracks_name_the_geometry() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &sample_events(), PipelineGeometry::crisp()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("crisp EU D=3 (I=IR O=OR R=RR)"), "{text}");
        assert!(text.contains("pipeline lane 0 of 3"), "{text}");

        // A deep pipe gets its own lane count, legend, and stage names
        // (a resolve at stage 4 of D=5 is E4, not an out-of-range RR).
        let deep = vec![
            PipeEvent::FetchHit {
                cycle: 0,
                pc: 0,
                folded: false,
            },
            PipeEvent::BranchResolve {
                cycle: 4,
                branch_pc: 0,
                stage: 4,
                mispredicted: true,
            },
        ];
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &deep, PipelineGeometry::new(5)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("crisp EU D=5"), "{text}");
        assert!(text.contains("pipeline lane 4 of 5"), "{text}");
        assert!(text.contains("MISPREDICT 0x0 @E4"), "{text}");
    }

    #[test]
    fn timeline_draws_stages_and_squashes() {
        let events = vec![
            PipeEvent::FetchHit {
                cycle: 4,
                pc: 0,
                folded: false,
            },
            PipeEvent::FetchHit {
                cycle: 5,
                pc: 2,
                folded: true,
            },
            // The pc=2 slot is killed in OR at cycle 7.
            PipeEvent::Squash {
                cycle: 7,
                pc: 2,
                stage: 2,
            },
            PipeEvent::BranchResolve {
                cycle: 7,
                branch_pc: 0,
                stage: 3,
                mispredicted: true,
            },
        ];
        let text = render_timeline(&events, 4, 8, PipelineGeometry::crisp());
        assert!(
            text.contains("I O R".replace(' ', "").as_str()) || text.contains("IOR"),
            "{text}"
        );
        assert!(text.contains('x'), "{text}");
        assert!(text.contains('v'), "{text}");
        assert!(text.contains("+f"), "{text}");
        assert_eq!(mispredict_cycles(&events), vec![7]);
    }
}
