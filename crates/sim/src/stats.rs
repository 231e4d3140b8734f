use std::collections::BTreeMap;
use std::fmt;

use crisp_isa::{BinOp, Decoded, ExecOp, FoldClass};

use crate::accounting::CycleAccounts;
use crate::geometry::StageHistogram;

/// The fixed mnemonic categories, in the index order used by the
/// histogram array (binary operations first, mirroring `BinOp`).
const CATEGORY_NAMES: [&str; NUM_CATEGORIES] = [
    "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "sar", "move", "cmp",
    "enter", "leave", "call", "return", "nop", "halt", "jump", "if-jump",
];
const NUM_CATEGORIES: usize = 21;
const IDX_CMP: usize = 12;
const IDX_ENTER: usize = 13;
const IDX_LEAVE: usize = 14;
const IDX_CALL: usize = 15;
const IDX_RETURN: usize = 16;
const IDX_NOP: usize = 17;
const IDX_HALT: usize = 18;
const IDX_JUMP: usize = 19;
const IDX_IF_JUMP: usize = 20;

/// Dynamic opcode histogram, keyed by mnemonic category.
///
/// The categories mirror the paper's Table 2 ("add", "if-jump", "cmp",
/// "move", "and", "jump", "enter", "return"): a folded entry contributes
/// its host mnemonic *and* its branch mnemonic, because Table 2 counts
/// program instructions, not pipeline slots.
///
/// The category set is closed (every `ExecOp` maps to one of
/// `CATEGORY_NAMES`), so the histogram is a fixed array and the
/// per-retired-instruction [`OpcodeCounts::record`] is two indexed
/// increments — no tree walk on the hot path. Ad-hoc names passed to
/// [`OpcodeCounts::bump`] that fall outside the set land in a cold
/// overflow map, preserving the old accept-anything behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpcodeCounts {
    counts: [u64; NUM_CATEGORIES],
    other: BTreeMap<&'static str, u64>,
}

/// Index of a category name in the fixed set, if it belongs to it.
fn category_index(name: &str) -> Option<usize> {
    CATEGORY_NAMES.iter().position(|&n| n == name)
}

impl OpcodeCounts {
    /// An empty histogram.
    pub fn new() -> OpcodeCounts {
        OpcodeCounts::default()
    }

    /// Record one executed program instruction by category name.
    pub fn bump(&mut self, name: &'static str) {
        match category_index(name) {
            Some(i) => self.counts[i] += 1,
            None => *self.other.entry(name).or_insert(0) += 1,
        }
    }

    /// Record the program instruction(s) represented by one decoded
    /// entry: the host operation plus, when folded, the branch.
    #[inline]
    pub fn record(&mut self, d: &Decoded) {
        self.counts[host_index(d)] += 1;
        if d.folded {
            self.counts[match d.fold {
                FoldClass::Cond { .. } => IDX_IF_JUMP,
                _ => IDX_JUMP,
            }] += 1;
        }
    }

    /// Count for one category.
    pub fn get(&self, name: &str) -> u64 {
        match category_index(name) {
            Some(i) => self.counts[i],
            None => self.other.get(name).copied().unwrap_or(0),
        }
    }

    /// Total across categories.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.other.values().sum::<u64>()
    }

    /// Record `n` occurrences of the fixed category at `idx` — the
    /// replay port for the threaded tier's precomputed per-block
    /// histogram deltas (see [`crate::TranslatedImage`]), which turn
    /// the per-entry [`OpcodeCounts::record`] into a handful of adds
    /// per block.
    #[inline]
    pub(crate) fn bump_index(&mut self, idx: usize, n: u64) {
        self.counts[idx] += n;
    }

    /// The nonzero fixed-category slots as `(index, count)` pairs —
    /// the translation-time inverse of [`OpcodeCounts::bump_index`].
    pub(crate) fn sparse(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Iterate `(name, count)` sorted by descending count (stable by
    /// name for ties) — the paper's table ordering. Categories that
    /// never occurred are omitted.
    pub fn sorted_desc(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = CATEGORY_NAMES
            .iter()
            .zip(self.counts.iter())
            .filter(|(_, &c)| c > 0)
            .map(|(&k, &c)| (k, c))
            .chain(self.other.iter().map(|(&k, &c)| (k, c)))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }
}

impl fmt::Display for OpcodeCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total().max(1);
        for (name, count) in self.sorted_desc() {
            writeln!(
                f,
                "{name:<10} {count:>10}  {:>6.2}%",
                count as f64 * 100.0 / total as f64
            )?;
        }
        Ok(())
    }
}

/// Histogram index of the host operation of a decoded entry.
fn host_index(d: &Decoded) -> usize {
    match d.exec {
        ExecOp::Nop => match d.fold {
            // An unfolded branch decodes to an entry whose ExecOp is Nop;
            // classify it by its control class.
            FoldClass::Uncond if !d.folded => IDX_JUMP,
            FoldClass::Cond { .. } if !d.folded => IDX_IF_JUMP,
            _ => IDX_NOP,
        },
        ExecOp::Halt => IDX_HALT,
        ExecOp::Op2 { op, .. } => binop_index(op),
        ExecOp::Op3 { op, .. } => binop_index(op),
        ExecOp::Cmp { .. } => IDX_CMP,
        ExecOp::Enter { .. } => IDX_ENTER,
        ExecOp::Leave { .. } => IDX_LEAVE,
        ExecOp::CallPush { .. } => IDX_CALL,
        ExecOp::RetPop => IDX_RETURN,
    }
}

/// Binary operations occupy the first twelve histogram slots in
/// declaration order (`BinOp::Mov` is "move").
fn binop_index(op: BinOp) -> usize {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
        BinOp::Sar => 10,
        BinOp::Mov => 11,
    }
}

/// Counters produced by the functional engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Program instructions executed (a folded entry counts as two).
    pub program_instrs: u64,
    /// Decoded entries executed (what the EU pipeline would issue).
    pub entries: u64,
    /// Entries that carried a folded branch.
    pub folded: u64,
    /// Conditional branches executed.
    pub cond_branches: u64,
    /// Conditional branches whose static prediction bit was wrong.
    pub static_mispredicts: u64,
    /// All control transfers (conditional, unconditional, calls, returns).
    pub transfers: u64,
    /// Whether the run ended on the watchdog step limit rather than
    /// `halt` (see [`crate::HaltReason`]).
    pub watchdog: bool,
    /// Basic blocks in the threaded-code translation table the run
    /// executed under (0 on the one-entry interpreter — see
    /// [`crate::ThreadedSim`]).
    pub blocks_translated: u64,
    /// Translated superinstruction blocks dispatched by the threaded
    /// tier (each one retires a whole block with no per-entry decode
    /// or dispatch).
    pub superinstr_dispatches: u64,
    /// Times the threaded tier fell back to the one-entry interpreter:
    /// untranslated/indirect targets, decode-error slots or
    /// watchdog-budget tails.
    pub deopt_falls: u64,
    /// Per-mnemonic dynamic histogram.
    pub opcodes: OpcodeCounts,
}

/// The one named mapping from a branch's resolving stage to its index
/// in [`CycleStats::mispredicts_by_stage`] and in
/// [`crate::PipeEvent::BranchResolve`]/[`crate::PipeEvent::Squash`].
///
/// The index *is* the mispredict penalty in cycles (the paper's
/// schedule): a branch resolved at cache-read time costs 0, at IR 1,
/// at OR 2, and at RR (the folded-compare case) 3. Every bookkeeping
/// site in the pipeline goes through these constants so a mis-indexed
/// stage cannot silently corrupt the Table 3 reproduction.
///
/// These names describe the default [`crate::PipelineGeometry`] (EU
/// depth 3). At depth `D` the schedule generalizes: index 0 is still
/// fetch-time, indices `1..D` are the early-resolve stages, and the
/// retire index — the folded-compare penalty — is `D` (see
/// [`crate::PipelineGeometry::retire_stage`]).
pub mod resolve_stage {
    /// Resolved at cache-read (fetch) time — 0-cycle penalty.
    pub const FETCH: usize = 0;
    /// Resolved from the Instruction Register stage — 1 cycle.
    pub const IR: usize = 1;
    /// Resolved from the Operand Register stage — 2 cycles.
    pub const OR: usize = 2;
    /// Resolved at Result Register retire (folded compare) — 3 cycles
    /// at the default depth-3 geometry.
    pub const RR: usize = 3;
}

/// Version of the flat-JSON schema emitted by [`CycleStats::to_json`]
/// (and `crisp-run --stats-json`). Version 1 (implicit — no
/// `schema_version` field) emitted `mispredicts_by_stage` as a fixed
/// 4-tuple; version 2 emits it at the live pipeline depth (`D + 1`
/// entries) and records this field so consumers can detect the shape;
/// version 3 adds the nested `accounts` object (top-down cycle
/// accounting, see [`crate::CycleAccounts`]) and the `dropped_events`
/// count (event-ring overflow during an observed run); version 4 adds
/// `predicted_by` (the live [`crate::HwPredictor`] label),
/// `static_bit_mispredicts` (the compiler's static bit scored in
/// shadow over the same retired branch stream, giving the
/// per-predictor mispredict split), and the `btb_miss` bucket inside
/// `accounts`; version 5 adds `parity_scrubs` (corrupted BTB entries
/// dropped at the train port) and `degraded_ways` (cache slots / BTB
/// ways taken out of service by [`crate::DegradePolicy`]); version 6
/// extends the functional-run object ([`RunStats::to_json`], which now
/// also announces the version) with the threaded-tier counters
/// `blocks_translated`, `superinstr_dispatches` and `deopt_falls` (see
/// [`crate::ThreadedSim`]).
pub const STATS_SCHEMA_VERSION: u32 = 6;

/// Counters produced by the cycle engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Total clock cycles.
    pub cycles: u64,
    /// Valid entries retired by the EU (pipeline issues).
    pub issued: u64,
    /// Program instructions retired (issued + folded branches).
    pub program_instrs: u64,
    /// Conditional branches retired.
    pub cond_branches: u64,
    /// Mispredicted conditional branches, by the stage distance at which
    /// they resolved — at the default geometry `[at fetch (0 lost),
    /// at IR (1), at OR (2), at RR (3)]`; sized to the configured
    /// pipeline depth in general (one bucket per resolve point).
    pub mispredicts_by_stage: StageHistogram,
    /// Pipeline slots killed by mispredict recovery.
    pub flushed_slots: u64,
    /// Conditional branches resolved with certainty at cache-read time
    /// (the Branch Spreading payoff: no compare in the pipeline).
    pub resolved_at_fetch: u64,
    /// Decoded-cache hits (EU side).
    pub icache_hits: u64,
    /// Decoded-cache misses (EU side).
    pub icache_misses: u64,
    /// Cycles the EU spent stalled waiting for the PDU.
    pub miss_stall_cycles: u64,
    /// Cycles stalled waiting for an indirect target to resolve.
    pub indirect_stall_cycles: u64,
    /// Instructions decoded by the PDU (including wrong-path decodes).
    pub pdu_decodes: u64,
    /// Decoded-cache fills that made a new PC resident (distinct from
    /// same-PC refills — see [`crate::DecodedCache::inserts`]).
    pub cache_inserts: u64,
    /// Decoded-cache fills that re-wrote an already-resident PC.
    pub cache_refills: u64,
    /// Decoded-cache fills that displaced a different PC.
    pub cache_evictions: u64,
    /// Decoded-cache entries invalidated by a parity mismatch at read
    /// time (see [`crate::soft_error`]).
    pub parity_invalidates: u64,
    /// Transient faults actually injected into live front-end state
    /// (cache entries, predictor tables, or PDU fold slots).
    pub faults_injected: u64,
    /// Corrupted BTB entries dropped by the train-port parity scrub
    /// (see [`crate::BtbTable::parity_scrubs`]). Separate from
    /// `parity_invalidates`: a scrub drops hint state without a refill.
    pub parity_scrubs: u64,
    /// Cache slots and BTB ways taken out of service by the degrade
    /// policy ([`crate::DegradePolicy`]); each one also produced a
    /// [`crate::PipeEvent::Degrade`] event.
    pub degraded_ways: u64,
    /// Whether the run ended on a watchdog limit rather than `halt`
    /// (see [`crate::HaltReason`]).
    pub watchdog: bool,
    /// Label of the hardware predictor that drove the fetch guesses
    /// ([`crate::HwPredictor::label`]); empty on a default-constructed
    /// stats block that never ran.
    pub predicted_by: String,
    /// Retired conditional branches the compiler's *static bit* would
    /// have mispredicted, scored in shadow regardless of which
    /// predictor is live. Against `mispredicts` (the live predictor's
    /// score over the same stream) this gives the paper's
    /// static-vs-dynamic comparison from a single run.
    pub static_bit_mispredicts: u64,
    /// Top-down cycle accounting: every cycle attributed to exactly one
    /// cause, with `accounts.total() == cycles` (see
    /// [`crate::accounting`]).
    pub accounts: CycleAccounts,
    /// Pipeline events dropped by a saturated [`crate::EventRing`]
    /// during an observed run. The engine itself never drops events —
    /// drivers copy the ring's overflow count here before exporting, so
    /// event-derived attribution is trusted (0) or flagged (> 0).
    pub dropped_events: u64,
}

impl CycleStats {
    /// Total mispredicted conditional branches.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts_by_stage.total()
    }

    /// Cycles per issued instruction.
    pub fn cycles_per_issued(&self) -> f64 {
        self.cycles as f64 / self.issued.max(1) as f64
    }

    /// Apparent cycles per program instruction — the paper's black-box
    /// metric that drops below 1.0 when folding works.
    pub fn apparent_cpi(&self) -> f64 {
        self.cycles as f64 / self.program_instrs.max(1) as f64
    }

    /// One flat JSON object with every counter and derived ratio —
    /// the machine-readable form behind `crisp-run --stats-json`.
    ///
    /// `mispredicts_by_stage` has one entry per resolve point of the
    /// configured geometry (`D + 1` entries at EU depth `D`), the
    /// nested `accounts` object carries the top-down cycle buckets, and
    /// `schema_version` ([`STATS_SCHEMA_VERSION`]) announces the shape.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                r#"{{"schema_version":{},"#,
                r#""cycles":{},"issued":{},"program_instrs":{},"cond_branches":{},"#,
                r#""mispredicts":{},"mispredicts_by_stage":{},"flushed_slots":{},"#,
                r#""resolved_at_fetch":{},"icache_hits":{},"icache_misses":{},"#,
                r#""miss_stall_cycles":{},"indirect_stall_cycles":{},"pdu_decodes":{},"#,
                r#""cache_inserts":{},"cache_refills":{},"cache_evictions":{},"#,
                r#""parity_invalidates":{},"faults_injected":{},"#,
                r#""parity_scrubs":{},"degraded_ways":{},"watchdog":{},"#,
                r#""predicted_by":"{}","static_bit_mispredicts":{},"#,
                r#""accounts":{},"dropped_events":{},"#,
                r#""cycles_per_issued":{:.6},"apparent_cpi":{:.6}}}"#
            ),
            STATS_SCHEMA_VERSION,
            self.cycles,
            self.issued,
            self.program_instrs,
            self.cond_branches,
            self.mispredicts(),
            self.mispredicts_by_stage.json(),
            self.flushed_slots,
            self.resolved_at_fetch,
            self.icache_hits,
            self.icache_misses,
            self.miss_stall_cycles,
            self.indirect_stall_cycles,
            self.pdu_decodes,
            self.cache_inserts,
            self.cache_refills,
            self.cache_evictions,
            self.parity_invalidates,
            self.faults_injected,
            self.parity_scrubs,
            self.degraded_ways,
            self.watchdog,
            self.predicted_by,
            self.static_bit_mispredicts,
            self.accounts.json(),
            self.dropped_events,
            self.cycles_per_issued(),
            self.apparent_cpi(),
        )
    }

    /// The top-down CPI attribution table behind
    /// `crisp-run --cpi-breakdown`: each accounting bucket with its
    /// cycle count, share of total cycles, and contribution to the
    /// apparent CPI (cycles per program instruction), so the paper's
    /// static-vs-folding comparison reads off as "where did the branch
    /// delay go".
    pub fn cpi_breakdown(&self) -> String {
        use fmt::Write as _;
        let total = self.accounts.total();
        let share_denom = total.max(1) as f64;
        let instrs = self.program_instrs.max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cycle accounting ({} cycles over {} program instructions):",
            self.cycles, self.program_instrs
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>12} {:>8} {:>8}",
            "bucket", "cycles", "share", "CPI"
        );
        for (label, cycles) in self.accounts.rows() {
            let _ = writeln!(
                out,
                "  {label:<24} {cycles:>12} {:>7.2}% {:>8.3}",
                cycles as f64 * 100.0 / share_denom,
                cycles as f64 / instrs,
            );
        }
        let _ = writeln!(
            out,
            "  {:<24} {total:>12} {:>7.2}% {:>8.3}",
            "total",
            100.0,
            total as f64 / instrs,
        );
        if self.watchdog {
            let _ = writeln!(
                out,
                "  (run truncated by watchdog — buckets cover the cycles simulated)"
            );
        }
        out
    }
}

/// The human-readable report `crisp-run --cycles` prints.
impl fmt::Display for CycleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles               : {}", self.cycles)?;
        writeln!(f, "instructions issued  : {}", self.issued)?;
        writeln!(f, "program instructions : {}", self.program_instrs)?;
        writeln!(f, "issued CPI           : {:.3}", self.cycles_per_issued())?;
        writeln!(f, "apparent CPI         : {:.3}", self.apparent_cpi())?;
        writeln!(f, "conditional branches : {}", self.cond_branches)?;
        writeln!(
            f,
            "mispredicts          : {} (by resolve stage {})",
            self.mispredicts(),
            self.mispredicts_by_stage
        )?;
        if !self.predicted_by.is_empty() && self.predicted_by != "static" {
            writeln!(
                f,
                "predictor            : {} (static bit would miss {})",
                self.predicted_by, self.static_bit_mispredicts
            )?;
        }
        writeln!(f, "resolved at fetch    : {}", self.resolved_at_fetch)?;
        writeln!(
            f,
            "decoded cache        : {} hits / {} misses",
            self.icache_hits, self.icache_misses
        )?;
        writeln!(
            f,
            "stall cycles         : {} miss / {} indirect",
            self.miss_stall_cycles, self.indirect_stall_cycles
        )?;
        writeln!(f, "pdu decodes          : {}", self.pdu_decodes)?;
        writeln!(
            f,
            "cache fills          : {} inserts / {} refills / {} evictions",
            self.cache_inserts, self.cache_refills, self.cache_evictions
        )?;
        writeln!(
            f,
            "soft errors          : {} injected / {} parity invalidates",
            self.faults_injected, self.parity_invalidates
        )?;
        if self.parity_scrubs > 0 || self.degraded_ways > 0 {
            writeln!(
                f,
                "degradation          : {} BTB scrubs / {} ways disabled",
                self.parity_scrubs, self.degraded_ways
            )?;
        }
        if self.watchdog {
            writeln!(f, "watchdog             : expired before halt")?;
        }
        Ok(())
    }
}

impl RunStats {
    /// One flat JSON object with every counter, including the opcode
    /// histogram as a nested object. `schema_version`
    /// ([`STATS_SCHEMA_VERSION`]) announces the shape; the threaded
    /// counters are zero on interpreter runs.
    pub fn to_json(&self) -> String {
        let opcodes = self
            .opcodes
            .sorted_desc()
            .into_iter()
            .map(|(name, count)| format!(r#""{name}":{count}"#))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                r#"{{"schema_version":{},"#,
                r#""program_instrs":{},"entries":{},"folded":{},"cond_branches":{},"#,
                r#""static_mispredicts":{},"transfers":{},"watchdog":{},"#,
                r#""blocks_translated":{},"superinstr_dispatches":{},"deopt_falls":{},"#,
                r#""opcodes":{{{}}}}}"#
            ),
            STATS_SCHEMA_VERSION,
            self.program_instrs,
            self.entries,
            self.folded,
            self.cond_branches,
            self.static_mispredicts,
            self.transfers,
            self.watchdog,
            self.blocks_translated,
            self.superinstr_dispatches,
            self.deopt_falls,
            opcodes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_isa::{decode_and_fold, encoding, BranchTarget, FoldPolicy, Instr, Operand};

    fn folded_add_jmp() -> Decoded {
        let mut p = encoding::encode(&Instr::Op2 {
            op: BinOp::Add,
            dst: Operand::SpOff(0),
            src: Operand::Imm(1),
        })
        .unwrap();
        p.extend(
            encoding::encode(&Instr::Jmp {
                target: BranchTarget::PcRel(-2),
            })
            .unwrap(),
        );
        decode_and_fold(&p, 0, 0, FoldPolicy::Host13).unwrap()
    }

    #[test]
    fn folded_entry_counts_two_program_instrs() {
        let mut c = OpcodeCounts::new();
        c.record(&folded_add_jmp());
        assert_eq!(c.get("add"), 1);
        assert_eq!(c.get("jump"), 1);
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn unfolded_branch_classified() {
        let p = encoding::encode(&Instr::Jmp {
            target: BranchTarget::PcRel(-2),
        })
        .unwrap();
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::Host13).unwrap();
        let mut c = OpcodeCounts::new();
        c.record(&d);
        assert_eq!(c.get("jump"), 1);
        assert_eq!(c.total(), 1);

        let p = encoding::encode(&Instr::IfJmp {
            on_true: true,
            predict_taken: true,
            target: BranchTarget::PcRel(-2),
        })
        .unwrap();
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::Host13).unwrap();
        c.record(&d);
        assert_eq!(c.get("if-jump"), 1);
    }

    #[test]
    fn mov_counted_as_move() {
        let p = encoding::encode(&Instr::Op2 {
            op: BinOp::Mov,
            dst: Operand::SpOff(0),
            src: Operand::Imm(1),
        })
        .unwrap();
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::Host13).unwrap();
        let mut c = OpcodeCounts::new();
        c.record(&d);
        assert_eq!(c.get("move"), 1);
    }

    #[test]
    fn sorted_desc_orders_by_count() {
        let mut c = OpcodeCounts::new();
        for _ in 0..3 {
            c.bump("add");
        }
        c.bump("cmp");
        c.bump("cmp");
        c.bump("jump");
        let v = c.sorted_desc();
        assert_eq!(v[0], ("add", 3));
        assert_eq!(v[1], ("cmp", 2));
        assert_eq!(v[2], ("jump", 1));
    }

    #[test]
    fn cycle_stat_ratios() {
        let s = CycleStats {
            cycles: 100,
            issued: 80,
            program_instrs: 120,
            ..CycleStats::default()
        };
        assert!((s.cycles_per_issued() - 1.25).abs() < 1e-9);
        assert!((s.apparent_cpi() - 100.0 / 120.0).abs() < 1e-9);
        assert_eq!(CycleStats::default().cycles_per_issued(), 0.0);
    }

    #[test]
    fn cycle_stats_display_and_json() {
        let s = CycleStats {
            cycles: 100,
            issued: 80,
            program_instrs: 120,
            cond_branches: 10,
            mispredicts_by_stage: [1, 0, 2, 3].into(),
            icache_hits: 90,
            icache_misses: 5,
            miss_stall_cycles: 7,
            indirect_stall_cycles: 2,
            cache_inserts: 5,
            cache_refills: 2,
            cache_evictions: 1,
            ..CycleStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("cycles               : 100"), "{text}");
        assert!(text.contains("mispredicts          : 6"), "{text}");
        assert!(text.contains("90 hits / 5 misses"), "{text}");
        assert!(text.contains("7 miss / 2 indirect"), "{text}");
        assert!(
            text.contains("5 inserts / 2 refills / 1 evictions"),
            "{text}"
        );
        let json = s.to_json();
        assert!(json.contains(r#""cycles":100"#), "{json}");
        assert!(
            json.starts_with(&format!(r#"{{"schema_version":{STATS_SCHEMA_VERSION},"#)),
            "{json}"
        );
        assert!(
            json.contains(r#""mispredicts_by_stage":[1,0,2,3]"#),
            "{json}"
        );
        assert!(
            json.contains(r#""cache_inserts":5,"cache_refills":2,"cache_evictions":1"#),
            "{json}"
        );
        assert!(json.contains(r#""apparent_cpi":0.833333"#), "{json}");
        assert!(
            json.contains(r#""parity_scrubs":0,"degraded_ways":0"#),
            "{json}"
        );
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Degradation counters appear in the report only when nonzero.
        assert!(!text.contains("degradation"), "{text}");
        let degraded = CycleStats {
            parity_scrubs: 4,
            degraded_ways: 2,
            ..CycleStats::default()
        };
        let dtext = degraded.to_string();
        assert!(
            dtext.contains("degradation          : 4 BTB scrubs / 2 ways disabled"),
            "{dtext}"
        );
        let djson = degraded.to_json();
        assert!(
            djson.contains(r#""parity_scrubs":4,"degraded_ways":2"#),
            "{djson}"
        );
    }

    #[test]
    fn stats_json_carries_predictor_split() {
        let s = CycleStats {
            cycles: 10,
            predicted_by: "btb128x4".to_string(),
            static_bit_mispredicts: 7,
            ..CycleStats::default()
        };
        let json = s.to_json();
        assert!(json.contains(r#""predicted_by":"btb128x4""#), "{json}");
        assert!(json.contains(r#""static_bit_mispredicts":7"#), "{json}");
        let text = s.to_string();
        assert!(
            text.contains("predictor            : btb128x4 (static bit would miss 7)"),
            "{text}"
        );
        // The static-bit machine keeps its historical report shape.
        let plain = CycleStats {
            predicted_by: "static".to_string(),
            ..CycleStats::default()
        };
        assert!(!plain.to_string().contains("predictor            :"));
    }

    #[test]
    fn stats_json_carries_accounts_and_dropped_events() {
        use crate::accounting::BubbleCause;

        let mut s = CycleStats {
            cycles: 12,
            issued: 6,
            program_instrs: 8,
            dropped_events: 3,
            ..CycleStats::default()
        };
        s.accounts.useful = 6;
        for _ in 0..3 {
            s.accounts.bubble(BubbleCause::Startup);
        }
        s.accounts.bubble(BubbleCause::Branch(3));
        s.accounts.bubble(BubbleCause::Branch(3));
        s.accounts.bubble(BubbleCause::MissRefill);
        assert_eq!(s.accounts.total(), s.cycles);

        let json = s.to_json();
        assert!(
            json.contains(
                r#""accounts":{"useful":6,"branch_penalty":[0,0,0,2],"miss_refill":1,"parity_recovery":0,"indirect_stall":0,"btb_miss":0,"startup":3}"#
            ),
            "{json}"
        );
        assert!(json.contains(r#""dropped_events":3"#), "{json}");

        let table = s.cpi_breakdown();
        assert!(table.contains("useful issue"), "{table}");
        assert!(table.contains("resolved at RR"), "{table}");
        assert!(table.contains("pipeline startup"), "{table}");
        assert!(table.lines().last().unwrap().contains("total"), "{table}");
        assert!(!table.contains("watchdog"), "{table}");

        s.watchdog = true;
        assert!(s.cpi_breakdown().contains("truncated by watchdog"));
    }

    #[test]
    fn stats_json_emits_live_depth_histogram() {
        // A depth-5 geometry has six resolve points; the export must
        // follow the live depth, not the paper's fixed 4-tuple.
        let s = CycleStats {
            mispredicts_by_stage: [0, 1, 0, 0, 2, 7].into(),
            ..CycleStats::default()
        };
        let json = s.to_json();
        assert!(
            json.contains(r#""mispredicts_by_stage":[0,1,0,0,2,7]"#),
            "{json}"
        );
        assert!(json.contains(r#""mispredicts":10"#), "{json}");
    }

    #[test]
    fn run_stats_json_includes_opcodes() {
        let mut s = RunStats {
            program_instrs: 3,
            entries: 2,
            blocks_translated: 4,
            superinstr_dispatches: 9,
            deopt_falls: 1,
            ..RunStats::default()
        };
        s.opcodes.bump("add");
        s.opcodes.bump("add");
        s.opcodes.bump("cmp");
        let json = s.to_json();
        assert!(
            json.starts_with(&format!(r#"{{"schema_version":{STATS_SCHEMA_VERSION},"#)),
            "{json}"
        );
        assert!(json.contains(r#""program_instrs":3"#), "{json}");
        assert!(
            json.contains(r#""blocks_translated":4,"superinstr_dispatches":9,"deopt_falls":1"#),
            "{json}"
        );
        assert!(json.contains(r#""opcodes":{"add":2,"cmp":1}"#), "{json}");
    }

    #[test]
    fn opcode_sparse_round_trips_through_bump_index() {
        let mut c = OpcodeCounts::new();
        c.record(&folded_add_jmp());
        c.bump("cmp");
        let mut replay = OpcodeCounts::new();
        for (idx, n) in c.sparse() {
            replay.bump_index(idx, n);
        }
        assert_eq!(replay, c);
    }

    #[test]
    fn display_shows_percentages() {
        let mut c = OpcodeCounts::new();
        c.bump("add");
        c.bump("add");
        c.bump("cmp");
        c.bump("cmp");
        let text = c.to_string();
        assert!(text.contains("add"));
        assert!(text.contains("50.00%"), "{text}");
    }
}
