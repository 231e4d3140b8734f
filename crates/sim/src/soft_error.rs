//! Soft-error (transient-fault) model for the whole front end: the
//! Decoded Instruction Cache, the PDU's fold slots, and live dynamic
//! predictor state.
//!
//! The paper's whole mechanism lives in the 192-bit decoded-cache entry:
//! a flipped bit in Next-PC or Alternate Next-PC silently redirects
//! control flow with no EU-visible symptom. Because the decoded cache is
//! *never written back* — it holds pure decode products of instruction
//! memory — the classic defense applies: protect each entry with parity,
//! and on a parity mismatch simply invalidate the slot and redecode from
//! memory. Recovery costs one miss; architecture is untouched.
//!
//! The same redundancy argument covers the rest of the front end, each
//! with its own [`FaultTarget`]:
//!
//! * **PDU fold slots** ([`FaultTarget::Pdu`]): decoded entries latched
//!   in the PIR pipeline on their way to the cache. They carry the same
//!   Next-PC / Alternate Next-PC image as a cache line, so the same
//!   parity word protects them; a corrupted slot is *dropped* before it
//!   can pollute the cache and the demanding fetch redecodes.
//! * **Predictor state** ([`FaultTarget::Predictor`]): BTB tags,
//!   direction counters and valid bits, saturating-counter entries and
//!   jump-trace addresses. These bits only ever steer a *guess* — the
//!   central robustness invariant is that a fault here may change cycle
//!   counts but can never change committed architectural state (the
//!   `prop_fault_arch_safety` suite proves it against the functional
//!   oracle).
//!
//! This module provides the three pieces of that model:
//!
//! 1. **A canonical bit-level encoding** of [`Decoded`] entries
//!    ([`entry_bits`] / [`decode_entry`]): a 256-bit image (four `u64`
//!    words) standing in for the hardware's 192-bit entry. The decoder
//!    is *total* — every bit pattern decodes to some entry, modelling a
//!    hardware decoder's don't-care handling of illegal encodings — so a
//!    single-bit flip always yields a well-formed (if wrong) entry. The
//!    image layout, like each predictor structure's, is stated once in
//!    a `const` row table (`ENTRY`, `BTB_SLOT`, `COUNTER`,
//!    `JUMP_TRACE`) that the encoding and the fault sites derive from.
//! 2. **A fault plan** ([`FaultPlan`] / [`FaultField`]): which bit of
//!    which cache slot flips on which cycle, a site of the target's
//!    [`FaultSpace`]. Set via
//!    [`SimConfig::fault_plan`]; the cycle engine applies it once.
//! 3. **Parity protection** ([`ParityMode`]): 32-bit column parity over
//!    the entry image, checked when the EU reads the slot. On mismatch
//!    the slot is invalidated and the fetch takes the ordinary miss
//!    path, so the PDU redecodes the entry from memory.
//!
//! [`classify_fault`] runs a faulted cycle-engine simulation against the
//! fault-free functional reference and buckets the outcome AVF-style:
//! masked, silent data corruption, control-flow divergence, or hang.
//! The `crisp-fault` CLI drives campaigns of these classifications.

use crisp_isa::{BinOp, Cond, Decoded, ExecOp, FoldClass, NextPc, Operand};

use std::fmt;
use std::sync::Arc;

use crate::config::HwPredictor;
use crate::diff::{judge, CommitLog, CommitRecord, DiffReference, DivergenceKind, PrefixCheck};
use crate::error::HaltReason;
use crate::{
    CycleSim, FunctionalSim, Machine, MachinePool, PredecodedImage, RunEnd, SimConfig, SimError,
    TranslatedImage,
};
use crisp_asm::Image;

/// Whether decoded-cache entries carry a parity word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParityMode {
    /// No protection: a corrupted entry is consumed as-is (the fault
    /// may be masked, corrupt data, divert control flow, or hang).
    #[default]
    Off,
    /// Each fill stores a parity word over the entry image; the EU
    /// checks it at cache-read time and, on mismatch, invalidates the
    /// slot and refetches — the entry is redecoded from memory.
    DetectInvalidate,
}

/// Which front-end structure a planned fault strikes.
///
/// [`FaultPlan::slot`] and [`FaultPlan::field`] are interpreted in the
/// coordinate system of the target: cache slots with cache entry
/// fields, resident predictor entries with predictor fields, or PIR
/// fold slots with the Next-PC / Alternate Next-PC rows of the
/// in-flight entry. [`FaultSpace::of`] enumerates each target's sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultTarget {
    /// A Decoded Instruction Cache slot (the original PR 3 model).
    #[default]
    Cache,
    /// Live dynamic-predictor state: BTB tag/counter/valid bits,
    /// saturating-counter bits, or jump-trace entries.
    Predictor,
    /// A PDU fold slot: the folded next-PC / alternate-next-PC latches
    /// of a decoded entry still in the PIR pipeline.
    Pdu,
}

impl FaultTarget {
    /// All targets, in report order.
    pub const ALL: [FaultTarget; 3] =
        [FaultTarget::Cache, FaultTarget::Predictor, FaultTarget::Pdu];

    /// Stable name, matching the `crisp-fault --target` spelling
    /// (`btb` names the predictor target: every dynamic predictor is a
    /// BTB-like table from the fault model's point of view).
    pub fn name(self) -> &'static str {
        match self {
            FaultTarget::Cache => "cache",
            FaultTarget::Predictor => "btb",
            FaultTarget::Pdu => "pdu",
        }
    }

    /// The target a [`FaultTarget::name`] spells, if any.
    pub fn parse(name: &str) -> Option<FaultTarget> {
        FaultTarget::ALL.into_iter().find(|t| t.name() == name)
    }
}

// --- Layout tables --------------------------------------------------------

/// One row of a faultable structure's layout: `width` bits starting at
/// bit `offset` of word `word` of the structure's bit image.
///
/// Each structure states its layout once, as a `const` table of rows
/// ([`ENTRY`], [`BTB_SLOT`], [`COUNTER`], [`JUMP_TRACE`]). Everything
/// bit-level derives from the tables: the [`entry_bits`] /
/// [`decode_entry`] shifts, each target's [`FaultSpace`],
/// [`FaultField::name`] / [`FaultField::bit`], and the AVF report rows
/// ([`report_rows`]). The tables are `const`, so encoding compiles to
/// fixed shifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Field {
    /// Stable kebab-case name. For a fault-site row it is the AVF report
    /// row key, so rows of one report row share it (`next-pc` is a tag
    /// row plus a payload row).
    pub name: &'static str,
    /// The image word holding the row.
    pub word: usize,
    /// Bit position of the row's least-significant bit in the word.
    pub offset: u32,
    /// Width in bits (at most 32).
    pub width: u32,
}

impl Field {
    const fn mask(self) -> u64 {
        (1 << self.width) - 1
    }

    /// Store `v`, truncated to the row width, into an image whose row
    /// bits are still zero.
    pub(crate) fn put<const N: usize>(self, w: &mut [u64; N], v: u64) {
        w[self.word] |= (v & self.mask()) << self.offset;
    }

    /// The row's value in an image.
    pub(crate) fn get<const N: usize>(self, w: &[u64; N]) -> u64 {
        (w[self.word] >> self.offset) & self.mask()
    }
}

/// Declare layout tables: one crate-visible `const` per row (what the
/// encoders name) and, per table, the list of its rows in order.
macro_rules! layout {
    ($($(#[$doc:meta])* $table:ident {
        $($row:ident = ($name:literal, $word:literal, $offset:literal, $width:literal),)*
    })*) => {
        $(
            $(
                #[allow(dead_code)]
                pub(crate) const $row: Field =
                    Field { name: $name, word: $word, offset: $offset, width: $width };
            )*
            $(#[$doc])*
            pub(crate) const $table: &[Field] = &[$($row),*];
        )*
    };
}

layout! {
    /// The decoded-entry image: the software stand-in for the hardware's
    /// 192-bit entry, four `u64` words that parity is computed over and
    /// faults are injected into. Rows are in fault-site order: the first
    /// 14 are a cache slot's fault sites ([`FaultSpace::CACHE`]) and the
    /// first 5 of those a PDU fold slot's ([`FaultSpace::PDU`]). The
    /// rest are parity-covered but are not fault sites. `valid` is the
    /// slot's valid bit, kept beside the image (word 4), so it has no
    /// parity column; the other rows tile all 256 image bits. `spare`
    /// rows are always zero, and `Enter`/`Leave`/`CallPush` keep their
    /// immediate in `operand` A's payload.
    ENTRY {
        // A PDU fold slot's sites: the Next-PC and Alternate Next-PC
        // latches.
        NEXT_TAG = ("next-pc", 0, 57, 2),
        NEXT_PC = ("next-pc", 1, 0, 32),
        ALT_PRESENT = ("alt-pc", 0, 56, 1),
        ALT_TAG = ("alt-pc", 0, 59, 2),
        ALT_PC = ("alt-pc", 1, 32, 32),
        // The rest of a cache slot's sites.
        PREDICT = ("predict", 0, 54, 1),
        VALID = ("valid", 4, 0, 1),
        EXEC_KIND = ("opcode", 0, 40, 4),
        EXEC_SUB = ("opcode", 0, 44, 4),
        A_TAG = ("operand", 2, 32, 3),
        B_TAG = ("operand", 2, 35, 3),
        A_PAY = ("operand", 3, 0, 32),
        B_PAY = ("operand", 3, 32, 32),
        PC = ("tag", 0, 0, 32),
        // Parity-covered only.
        LEN_BYTES = ("len-bytes", 0, 32, 8),
        MODIFIES_CC = ("modifies-cc", 0, 48, 1),
        MODIFIES_SP = ("modifies-sp", 0, 49, 1),
        FOLDED = ("folded", 0, 50, 1),
        FOLD_CLASS = ("fold-class", 0, 51, 2),
        ON_TRUE = ("on-true", 0, 53, 1),
        BRANCH_PRESENT = ("branch-pc", 0, 55, 1),
        BRANCH_PC = ("branch-pc", 2, 0, 32),
        SPARE_0 = ("spare", 0, 61, 3),
        SPARE_2 = ("spare", 2, 38, 26),
    }

    /// A resident BTB slot: the branch-address tag, the 2-bit direction
    /// counter and the valid bit.
    BTB_SLOT {
        BTB_TAG = ("btb-tag", 0, 0, 32),
        BTB_COUNTER = ("btb-counter", 0, 32, 2),
        BTB_VALID = ("btb-valid", 0, 34, 1),
    }

    /// A saturating direction counter, as wide as the widest counter a
    /// table may configure. A table of `bits`-wide counters exposes the
    /// low `bits` of the row.
    COUNTER {
        COUNTER_BITS = ("counter-bit", 0, 0, 7),
    }

    /// A jump-trace FIFO entry: one taken-branch address.
    JUMP_TRACE {
        JUMP_TRACE_PC = ("jump-trace", 0, 0, 32),
    }
}

/// Words in the [`ENTRY`] image.
const ENTRY_WORDS: usize = 4;

/// The structure a [`FaultField`]'s row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Layout {
    /// A decoded entry ([`ENTRY`]) in a cache slot or a PDU fold slot.
    Entry,
    /// A resident BTB slot ([`BTB_SLOT`]).
    BtbSlot,
    /// A saturating direction counter ([`COUNTER`]).
    Counter,
    /// A jump-trace entry ([`JUMP_TRACE`]).
    JumpTrace,
}

impl Layout {
    /// The structure's layout table.
    const fn rows(self) -> &'static [Field] {
        // Indexed by discriminant, in declaration order.
        [ENTRY, BTB_SLOT, COUNTER, JUMP_TRACE][self as usize]
    }
}

/// One injectable single-bit fault: bit `bit` of a site row of a
/// structure's layout. [`FaultSpace::nth`] enumerates them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultField {
    pub(crate) layout: Layout,
    /// Index of the row in `layout`'s table.
    row: u8,
    pub(crate) bit: u8,
}

impl FaultField {
    /// The struck row.
    pub(crate) fn row(self) -> &'static Field {
        &self.layout.rows()[usize::from(self.row)]
    }

    /// Stable kebab-case row name (the AVF-report row key).
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The `(word, bit)` position of this fault in the [`entry_bits`]
    /// image, or `None` for the slot's valid bit and for predictor
    /// state, which live outside the image.
    pub fn bit(self) -> Option<(usize, u32)> {
        let row = self.row();
        (self.layout == Layout::Entry && row.word < ENTRY_WORDS)
            .then(|| (row.word, row.offset + u32::from(self.bit)))
    }

    /// Flip this fault's bit in an image of its structure.
    pub(crate) fn flip<const N: usize>(self, w: &mut [u64; N]) {
        let row = self.row();
        w[row.word] ^= 1 << (row.offset + u32::from(self.bit));
    }
}

/// `next-pc bit 15`: the report-row name and the bit's index within
/// that report row, counting its table rows in order (`next-pc` bits
/// 0–1 are the tag, 2–33 the payload).
impl fmt::Display for FaultField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.name();
        let before: u32 = self.layout.rows()[..usize::from(self.row)]
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.width)
            .sum();
        write!(f, "{name} bit {}", before + u32::from(self.bit))
    }
}

/// The enumerable fault space of one target: every bit of the leading
/// rows of its layout table, row by row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpace {
    layout: Layout,
    rows: usize,
    size: u64,
}

impl FaultSpace {
    /// The space of the first `rows` rows of `layout`.
    const fn new(layout: Layout, rows: usize) -> FaultSpace {
        let mut size = 0;
        let mut i = 0;
        while i < rows {
            size += layout.rows()[i].width as u64;
            i += 1;
        }
        FaultSpace { layout, rows, size }
    }

    /// A decoded-cache slot's sites: the first 14 `ENTRY` rows.
    pub const CACHE: FaultSpace = FaultSpace::new(Layout::Entry, 14);

    /// A PDU fold slot's sites: the in-flight entry's Next-PC and
    /// Alternate Next-PC latches, the first 5 `ENTRY` rows.
    pub const PDU: FaultSpace = FaultSpace::new(Layout::Entry, 5);

    /// The sites `target` offers under predictor `p`; `None` for the
    /// predictor target of [`HwPredictor::StaticBit`], which has no
    /// hardware state to strike.
    pub fn of(target: FaultTarget, p: HwPredictor) -> Option<FaultSpace> {
        let layout = match (target, p) {
            (FaultTarget::Cache, _) => return Some(FaultSpace::CACHE),
            (FaultTarget::Pdu, _) => return Some(FaultSpace::PDU),
            (_, HwPredictor::StaticBit) => return None,
            (_, HwPredictor::Dynamic { bits, .. }) => {
                let counter = FaultSpace::new(Layout::Counter, 1);
                return Some(FaultSpace {
                    size: u64::from(bits),
                    ..counter
                });
            }
            (_, HwPredictor::Btb { .. }) => Layout::BtbSlot,
            (_, HwPredictor::JumpTrace { .. }) => Layout::JumpTrace,
        };
        Some(FaultSpace::new(layout, layout.rows().len()))
    }

    /// Number of distinct single-bit faults in the space.
    pub fn size(self) -> u64 {
        self.size
    }

    /// The `i`-th site: `nth(i)` for `i` in `0..size()` visits every
    /// site once. Indices are taken modulo the size.
    pub fn nth(self, i: u64) -> FaultField {
        let mut i = i % self.size;
        for (row, field) in self.layout.rows()[..self.rows].iter().enumerate() {
            if i < u64::from(field.width) {
                return FaultField {
                    layout: self.layout,
                    row: row as u8,
                    bit: i as u8,
                };
            }
            i -= u64::from(field.width);
        }
        unreachable!("the rows hold `size` bits");
    }
}

/// Total number of distinct single-bit faults [`nth_field`] enumerates.
pub const FAULT_SPACE: u64 = FaultSpace::CACHE.size;

/// Number of distinct single-bit faults injectable into one PDU fold
/// slot.
pub const PDU_FAULT_SPACE: u64 = FaultSpace::PDU.size;

/// Enumerate the decoded-cache fault space ([`FaultSpace::CACHE`]).
pub fn nth_field(i: u64) -> FaultField {
    FaultSpace::CACHE.nth(i)
}

/// Enumerate the PDU fold-slot fault space ([`FaultSpace::PDU`]).
pub fn nth_pdu_field(i: u64) -> FaultField {
    FaultSpace::PDU.nth(i)
}

/// Number of distinct single-bit predictor-state faults injectable into
/// the given predictor variant (zero for the static bit).
pub fn predictor_fault_space(p: HwPredictor) -> u64 {
    FaultSpace::of(FaultTarget::Predictor, p).map_or(0, FaultSpace::size)
}

/// Enumerate the predictor fault space of the given variant; `None` for
/// [`HwPredictor::StaticBit`], which has no state to strike.
pub fn nth_predictor_field(p: HwPredictor, i: u64) -> Option<FaultField> {
    FaultSpace::of(FaultTarget::Predictor, p).map(|s| s.nth(i))
}

/// Every AVF-report row key, in report order: the distinct site-row
/// names of the cache slot, then of each predictor structure. PDU
/// sites report under the cache's `next-pc` / `alt-pc` rows.
pub fn report_rows() -> Vec<&'static str> {
    let sites = [
        &ENTRY[..FaultSpace::CACHE.rows],
        BTB_SLOT,
        COUNTER,
        JUMP_TRACE,
    ];
    let mut names: Vec<&str> = sites.concat().iter().map(|r| r.name).collect();
    // Rows sharing a name are adjacent in their table.
    names.dedup();
    names
}

/// One planned transient fault: flip `field` of cache slot `slot`
/// (taken modulo the cache size) at the start of cycle `cycle`. The
/// cycle engine applies the plan exactly once; if the slot is empty at
/// that cycle, nothing is corrupted (the fault lands in invalid state
/// and is trivially masked).
///
/// With `target` other than [`FaultTarget::Cache`], `slot` indexes the
/// target structure instead (a resident BTB/counter/jump-trace entry,
/// or an in-flight PDU fold slot, modulo occupancy). Because those
/// structures are often empty at any given instant, the engine *arms*
/// the strike at `cycle` and fires it on the first later cycle where
/// the target holds state — a particle that never finds a victim is a
/// trivially masked run, not an error.
///
/// Until the plan fires, a faulted run *is* the fault-free run, and a
/// fired plan is spent. [`classify_batch`] relies on both: it forks a
/// case off a shared fault-free run on the cycle the strike lands,
/// gives a strike that flips nothing (an empty cache slot, or a
/// structure that stays empty to the end) the fault-free verdict, and
/// gives a fired case whose state has rejoined the fault-free run's,
/// `Δ` cycles late, the fault-free verdict too — except that it is a
/// [`FaultOutcome::Hang`] when the fault-free end cycle + `Δ` exceeds
/// [`SimConfig::max_cycles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Cycle at which the flip occurs.
    pub cycle: u64,
    /// Target cache slot (modulo the configured cache size).
    pub slot: u32,
    /// The bit to flip.
    pub field: FaultField,
    /// Which front-end structure the strike lands in.
    pub target: FaultTarget,
}

// --- Canonical entry encoding -------------------------------------------

fn binop_index(op: BinOp) -> u64 {
    BinOp::ALL.iter().position(|&o| o == op).unwrap_or(0) as u64
}

fn cond_index(c: Cond) -> u64 {
    Cond::ALL.iter().position(|&o| o == c).unwrap_or(0) as u64
}

fn operand_bits(o: Operand) -> (u64, u64) {
    match o {
        Operand::Accum => (0, 0),
        Operand::Imm(v) => (1, u64::from(v as u32)),
        Operand::SpOff(v) => (2, u64::from(v as u32)),
        Operand::Abs(a) => (3, u64::from(a)),
        Operand::SpInd(v) => (4, u64::from(v as u32)),
    }
}

fn decode_operand(tag: u64, pay: u32) -> Operand {
    match tag % 5 {
        0 => Operand::Accum,
        1 => Operand::Imm(pay as i32),
        2 => Operand::SpOff(pay as i32),
        3 => Operand::Abs(pay),
        _ => Operand::SpInd(pay as i32),
    }
}

fn next_pc_bits(n: NextPc) -> (u64, u64) {
    match n {
        NextPc::Known(a) => (0, u64::from(a)),
        NextPc::IndAbs(a) => (1, u64::from(a)),
        NextPc::IndSp(off) => (2, u64::from(off as u32)),
        NextPc::FromRet => (3, 0),
    }
}

fn decode_next_pc(tag: u64, pay: u32) -> NextPc {
    match tag {
        0 => NextPc::Known(pay),
        1 => NextPc::IndAbs(pay),
        2 => NextPc::IndSp(pay as i32),
        _ => NextPc::FromRet,
    }
}

/// The canonical `ENTRY` image of a decoded-cache entry.
///
/// [`decode_entry`] inverts this encoding exactly on canonical images
/// and totally (via don't-care reduction) on all others.
pub fn entry_bits(d: &Decoded) -> [u64; 4] {
    let mut w = [0u64; ENTRY_WORDS];
    PC.put(&mut w, u64::from(d.pc));
    LEN_BYTES.put(&mut w, u64::from(d.len_bytes));
    let (kind, sub): (u64, u64) = match d.exec {
        ExecOp::Nop => (0, 0),
        ExecOp::Halt => (1, 0),
        ExecOp::Op2 { op, .. } => (2, binop_index(op)),
        ExecOp::Op3 { op, .. } => (3, binop_index(op)),
        ExecOp::Cmp { cond, .. } => (4, cond_index(cond)),
        ExecOp::Enter { .. } => (5, 0),
        ExecOp::Leave { .. } => (6, 0),
        ExecOp::CallPush { .. } => (7, 0),
        ExecOp::RetPop => (8, 0),
    };
    EXEC_KIND.put(&mut w, kind);
    EXEC_SUB.put(&mut w, sub);
    MODIFIES_CC.put(&mut w, u64::from(d.modifies_cc));
    MODIFIES_SP.put(&mut w, u64::from(d.modifies_sp));
    FOLDED.put(&mut w, u64::from(d.folded));
    let (ftag, on_true, predict) = match d.fold {
        FoldClass::Sequential => (0u64, false, false),
        FoldClass::Uncond => (1, false, false),
        FoldClass::Cond {
            on_true,
            predict_taken,
        } => (2, on_true, predict_taken),
    };
    FOLD_CLASS.put(&mut w, ftag);
    ON_TRUE.put(&mut w, u64::from(on_true));
    PREDICT.put(&mut w, u64::from(predict));
    BRANCH_PRESENT.put(&mut w, u64::from(d.branch_pc.is_some()));
    BRANCH_PC.put(&mut w, u64::from(d.branch_pc.unwrap_or(0)));
    let (ntag, npay) = next_pc_bits(d.next_pc);
    NEXT_TAG.put(&mut w, ntag);
    NEXT_PC.put(&mut w, npay);
    if let Some(alt) = d.alt_pc {
        let (atag, apay) = next_pc_bits(alt);
        ALT_PRESENT.put(&mut w, 1);
        ALT_TAG.put(&mut w, atag);
        ALT_PC.put(&mut w, apay);
    }
    // Operand-less entries encode as two `Accum` operands: all zeros.
    let (a, b) = match d.exec {
        ExecOp::Op2 { dst, src, .. } => (dst, src),
        ExecOp::Op3 { a, b, .. } | ExecOp::Cmp { a, b, .. } => (a, b),
        _ => (Operand::Accum, Operand::Accum),
    };
    let (at, ap) = operand_bits(a);
    let (bt, bp) = operand_bits(b);
    A_TAG.put(&mut w, at);
    B_TAG.put(&mut w, bt);
    A_PAY.put(&mut w, ap);
    B_PAY.put(&mut w, bp);
    if let ExecOp::Enter { bytes: imm }
    | ExecOp::Leave { bytes: imm }
    | ExecOp::CallPush { ret: imm } = d.exec
    {
        A_PAY.put(&mut w, u64::from(imm));
    }
    w
}

/// Decode a 256-bit `ENTRY` image back into a [`Decoded`] entry.
///
/// Total: every bit pattern decodes. Out-of-range discriminants reduce
/// modulo their variant count (a hardware decoder's don't-care
/// handling), so a single-bit flip of a valid image always produces a
/// well-formed entry — possibly a wrong one, which is the point.
/// Inverse of [`entry_bits`] on canonical images:
/// `decode_entry(entry_bits(d)) == d`.
pub fn decode_entry(w: [u64; 4]) -> Decoded {
    let sub = EXEC_SUB.get(&w);
    let a = || decode_operand(A_TAG.get(&w), A_PAY.get(&w) as u32);
    let b = || decode_operand(B_TAG.get(&w), B_PAY.get(&w) as u32);
    let imm = A_PAY.get(&w) as u32;
    let exec = match EXEC_KIND.get(&w) % 9 {
        0 => ExecOp::Nop,
        1 => ExecOp::Halt,
        2 => ExecOp::Op2 {
            op: BinOp::ALL[(sub % 12) as usize],
            dst: a(),
            src: b(),
        },
        3 => ExecOp::Op3 {
            op: BinOp::ALL[(sub % 12) as usize],
            a: a(),
            b: b(),
        },
        4 => ExecOp::Cmp {
            cond: Cond::ALL[(sub % 10) as usize],
            a: a(),
            b: b(),
        },
        5 => ExecOp::Enter { bytes: imm },
        6 => ExecOp::Leave { bytes: imm },
        7 => ExecOp::CallPush { ret: imm },
        _ => ExecOp::RetPop,
    };
    let fold = match FOLD_CLASS.get(&w) % 3 {
        0 => FoldClass::Sequential,
        1 => FoldClass::Uncond,
        _ => FoldClass::Cond {
            on_true: ON_TRUE.get(&w) != 0,
            predict_taken: PREDICT.get(&w) != 0,
        },
    };
    Decoded {
        pc: PC.get(&w) as u32,
        len_bytes: LEN_BYTES.get(&w) as u32,
        exec,
        modifies_cc: MODIFIES_CC.get(&w) != 0,
        modifies_sp: MODIFIES_SP.get(&w) != 0,
        fold,
        folded: FOLDED.get(&w) != 0,
        branch_pc: (BRANCH_PRESENT.get(&w) != 0).then_some(BRANCH_PC.get(&w) as u32),
        next_pc: decode_next_pc(NEXT_TAG.get(&w), NEXT_PC.get(&w) as u32),
        alt_pc: (ALT_PRESENT.get(&w) != 0)
            .then(|| decode_next_pc(ALT_TAG.get(&w), ALT_PC.get(&w) as u32)),
    }
}

/// 32-bit column parity over an entry image: the XOR of its eight
/// 32-bit lanes. Any single-bit flip of the image flips exactly one bit
/// of the parity word (bit `position mod 32`), so single-bit faults are
/// always detected; an even number of flips in the same column cancels
/// — the standard blind spot of parity, faithfully modelled.
pub fn parity32(w: &[u64; 4]) -> u32 {
    w.iter()
        .fold(0u32, |p, &x| p ^ (x as u32) ^ ((x >> 32) as u32))
}

/// Apply a single-bit fault to a decoded entry in place: re-encode,
/// flip the mapped bit, decode totally. Returns the flipped parity
/// column (the entry's parity delta), or `None` for the slot's valid
/// bit, which is not in the image: the caller drops the entry instead.
pub(crate) fn strike(d: &mut Decoded, field: FaultField) -> Option<u32> {
    let (_, bit) = field.bit()?;
    let mut w = entry_bits(d);
    field.flip(&mut w);
    *d = decode_entry(w);
    Some(1 << (bit % 32))
}

// --- Fault-outcome classification ---------------------------------------

/// AVF-style bucket for one injected fault run without parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The faulted run retired the exact commit stream and final state
    /// of the fault-free reference: the flip had no architectural
    /// effect (overwritten, evicted, in a don't-care field, or the
    /// slot was never read again).
    Masked,
    /// Commit streams and control flow agree but some architectural
    /// value (accumulator, SP, flag, a memory write) differs — silent
    /// data corruption.
    Sdc,
    /// The faulted run took a different path: a commit disagrees on
    /// PC, next-PC, branch identity or direction, or the run halted at
    /// the wrong place, or execution wandered into undecodable bytes.
    ControlDivergence,
    /// The faulted run never halted: the watchdog limit expired with
    /// the commit stream still a clean prefix of the reference.
    Hang,
}

impl FaultOutcome {
    /// All outcomes, in report order.
    pub const ALL: [FaultOutcome; 4] = [
        FaultOutcome::Masked,
        FaultOutcome::Sdc,
        FaultOutcome::ControlDivergence,
        FaultOutcome::Hang,
    ];

    /// Stable kebab-case name (the AVF-report column key).
    pub fn name(self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::Sdc => "sdc",
            FaultOutcome::ControlDivergence => "control-divergence",
            FaultOutcome::Hang => "hang",
        }
    }
}

/// Classify one commit-record disagreement: control-identity fields
/// make it a control divergence, pure value fields an SDC.
fn classify_pair(reference: &CommitRecord, faulted: &CommitRecord) -> FaultOutcome {
    if reference.pc != faulted.pc
        || reference.next_pc != faulted.next_pc
        || reference.branch_pc != faulted.branch_pc
        || reference.folded != faulted.folded
        || reference.taken != faulted.taken
        || reference.halted != faulted.halted
    {
        FaultOutcome::ControlDivergence
    } else {
        FaultOutcome::Sdc
    }
}

/// Run the cycle engine with the fault plan in `cfg` (typically with
/// [`ParityMode::Off`]) and classify the outcome against the fault-free
/// functional reference.
///
/// The faulted run's commit stream is compared record by record with
/// the reference; the first disagreement buckets the fault via
/// `classify_pair`. A clean prefix that ends in the watchdog is a
/// [`FaultOutcome::Hang`]; a clean prefix of different length is a
/// control divergence (the run halted early or late); equal streams
/// with equal final state are [`FaultOutcome::Masked`]. A faulted run
/// that errors maps to control divergence for decode errors (execution
/// left the instruction stream) and to SDC for data errors (a wild
/// address from a corrupted operand).
///
/// This is [`fault_reference`] followed by a one-case
/// [`classify_batch`]; campaign drivers call the two directly so one
/// reference serves every case of a program.
///
/// # Errors
///
/// Only harness-level failures are `Err`: the image does not load, or
/// the *fault-free* run fails to halt within `cfg.max_cycles` — the
/// functional reference in steps, or the cycle engine in cycles (see
/// [`classify_batch`]).
pub fn classify_fault(image: &Image, cfg: SimConfig) -> Result<FaultOutcome, SimError> {
    let mut pool = MachinePool::default();
    let reference = fault_reference(image, cfg, None, None, &mut pool)?;
    Ok(classify_batch(image, &[cfg], None, &reference, 1, &mut pool)?[0])
}

/// The fault-free reference for one program: the commit stream and
/// final architectural state every fault case classifies against.
///
/// Campaign drivers hoist one of these per program — a per-case
/// classifier would re-run the reference for every case (twice: once
/// per parity phase), so hoisting removes ~2·F functional runs from a
/// program's F fault cases. The reference depends only on the image, the fold
/// policy and the step budget, none of which vary within a campaign.
#[derive(Debug)]
pub struct FaultReference(DiffReference);

impl FaultReference {
    /// The fault-free commit stream.
    pub fn log(&self) -> &Arc<CommitLog> {
        self.0.log()
    }

    /// Reclaim the reference's machine buffer (e.g. back into a
    /// [`MachinePool`]).
    pub fn into_machine(self) -> Machine {
        self.0
            .into_machine()
            .expect("a fault reference always halted")
    }
}

/// Run the fault-free reference for [`classify_batch`] on the
/// interpreter, observed by a [`CommitLog`]. The predecode table is
/// `predecoded`, else the one under `translated`, else built here. A
/// `translated` table only ever supplies that predecode table: it is
/// given by the bench harness's replay and by
/// `tests/prop_threaded.rs`, which checks that passing one changes no
/// verdict.
///
/// # Errors
///
/// The image does not load, or the reference does not halt within
/// `cfg.max_cycles` steps ([`SimError::StepLimit`]) — the same
/// harness-level failures as [`classify_fault`].
///
/// # Panics
///
/// If a provided table's fold policy differs from `cfg.fold_policy`,
/// or `cfg` fails [`SimConfig::validate`].
pub fn fault_reference(
    image: &Image,
    cfg: SimConfig,
    predecoded: Option<&Arc<PredecodedImage>>,
    translated: Option<&Arc<TranslatedImage>>,
    pool: &mut MachinePool,
) -> Result<FaultReference, SimError> {
    cfg.validate();
    if let Some(t) = predecoded {
        assert_eq!(
            t.policy(),
            cfg.fold_policy,
            "predecoded table policy must match cfg.fold_policy"
        );
    }
    if let Some(t) = translated {
        assert_eq!(
            t.policy(),
            cfg.fold_policy,
            "translated table policy must match cfg.fold_policy"
        );
    }
    let machine = pool.take(image)?;
    let mut log = CommitLog::default();
    let run = match predecoded.or(translated.map(|t| t.predecoded())) {
        Some(t) => FunctionalSim::with_predecoded(machine, Arc::clone(t)),
        None => FunctionalSim::with_policy(machine, cfg.fold_policy),
    }
    .max_steps(cfg.max_cycles)
    .run_observed(&mut log)?;
    if run.halt_reason != HaltReason::Halted {
        pool.put(run.machine);
        return Err(SimError::StepLimit {
            limit: cfg.max_cycles,
        });
    }
    Ok(FaultReference(DiffReference::halted(log, run.machine)))
}

/// Classify a block of faulted runs against one precomputed reference,
/// returning one [`FaultOutcome`] per config in order.
///
/// Each case runs on a pooled [`CycleSim`] with a [`PrefixCheck`]
/// cursor over the reference stream instead of buffering its own
/// commit log, and stops early ([`CycleSim::run_until`]) once its
/// verdict is fixed. A case whose prefix has diverged stops at the end
/// of the cycle the mismatch retired in: the verdict (`classify_pair`
/// on the divergent records) cannot change, and running on —
/// potentially hundreds of thousands of cycles to a watchdog hang — is
/// pure waste. Every case is judged in the lockstep kernel's verdict
/// order, the one [`crate::run_lockstep`] reports by: divergent
/// prefix, then watchdog hang, then engine error, then final-state
/// SDC, then masked. A case that dies on a [`SimError`] with its
/// prefix still clean classifies by the error kind (decode errors are
/// control divergence, anything else data corruption).
///
/// Parity-protected cases settle early too: under
/// [`ParityMode::DetectInvalidate`] every cache read is parity-checked,
/// so once the planned fault has struck *and* been caught (invalidated
/// or scrubbed — [`CycleSim::parity_settled`]) no corrupted entry can
/// ever execute and the tail of the run is bit-identical to the
/// reference; the case stops as [`FaultOutcome::Masked`] without
/// simulating that tail. The one observable difference from running
/// the tail out: a protected run whose caught-fault refetch would have
/// pushed it past the watchdog budget classifies as the masked fault it
/// provably is rather than a spurious `Hang`.
///
/// No case simulates its fault-free prefix, and a case whose verdict
/// is already the fault-free run's stops as soon as that is proven. The
/// configs are grouped by their configuration without the fault plan,
/// and the strike-ordered cases of a group are cut into windows of
/// `WINDOW` (32) cases, each served by one fault-free *golden*
/// simulator run from cycle 0. A case is settled by the first of these
/// ejects that applies:
///
/// 1. **Empty slot.** A [`FaultTarget::Cache`] strike on a slot that is
///    empty in the golden at the strike cycle flips nothing: the case
///    is the golden run and takes its verdict without forking.
/// 2. **Past the end.** A case that strikes at or after the golden's
///    end, or whose predictor or PDU strike is still armed then (its
///    structure never held state), is the golden run too.
/// 3. **Fork.** Otherwise the case is forked off the golden
///    ([`CycleSim::fork`]) on the cycle its strike lands, which is exact
///    because until then a faulted run is the fault-free one.
/// 4. **Divergence, parity settle.** A fork stops at its first
///    divergent commit, or once parity has caught its fault, as above.
/// 5. **Rejoin.** Every `REJOIN_EVERY` (32) golden commits, each fork is
///    run up to the golden's commit count. A fork whose strike has
///    fired and whose state then equals the golden's in everything that
///    decides behaviour (`CycleSim::same_future`: exact `==`, never a
///    hash) replays the golden's future shifted by Δ, the difference of
///    their cycle counts. It takes the golden's verdict, except that it
///    is [`FaultOutcome::Hang`] exactly when the golden's end cycle + Δ
///    exceeds `max_cycles` (the watchdog stops it first). `max_insns`
///    does not shift: both runs retired the same instructions.
/// 6. **Run out.** Forks still live when the golden ends run on to
///    their own end.
///
/// Apart from the protected hang above, every eject gives the verdict
/// the full run would; `tests/prop_eject.rs` holds the kernel to a
/// full-run classifier.
///
/// `_lanes` is ignored: cases run one at a time, as no measured batch
/// width beat that. It stays so existing callers keep compiling.
///
/// # Errors
///
/// * Image-load failures (`reference` already validated the run).
/// * [`SimError::StepLimit`] when a group's fault-free cycle-engine run
///   does not halt within its `max_cycles`. The reference is screened
///   on its functional *step* count, and the cycle engine needs more
///   cycles than steps, so a tight budget can starve the pipelined run
///   of a program the reference accepted. No case of such a block
///   could tell a fault from the budget, so the block has no verdicts.
///
/// # Panics
///
/// If a config's fold policy differs from the provided table's, or a
/// config fails [`SimConfig::validate`].
pub fn classify_batch(
    image: &Image,
    cfgs: &[SimConfig],
    predecoded: Option<&Arc<PredecodedImage>>,
    reference: &FaultReference,
    _lanes: usize,
    pool: &mut MachinePool,
) -> Result<Vec<FaultOutcome>, SimError> {
    // `None` until classified; a case left `None` takes its golden's
    // verdict.
    let mut outcomes: Vec<Option<FaultOutcome>> = vec![None; cfgs.len()];
    let mut groups: Vec<(SimConfig, Vec<usize>)> = Vec::new();
    for (i, cfg) in cfgs.iter().enumerate() {
        let golden = SimConfig {
            fault_plan: None,
            ..*cfg
        };
        match groups.iter_mut().find(|(g, _)| *g == golden) {
            Some((_, cases)) => cases.push(i),
            None => groups.push((golden, vec![i])),
        }
    }
    for (golden_cfg, mut cases) in groups {
        cases.sort_by_key(|&i| cfgs[i].fault_plan.map_or(u64::MAX, |p| p.cycle));
        for window in cases.chunks(WINDOW) {
            let group = Group {
                image,
                cfg: golden_cfg,
                predecoded,
                reference,
            };
            group.classify(cfgs, window, pool, &mut outcomes)?;
        }
    }
    Ok(outcomes
        .into_iter()
        .map(|o| o.expect("every case classified"))
        .collect())
}

/// Golden commits between two rejoin checks of the live forks. A
/// smaller value rejoins forks sooner but checks them more often; at
/// benchmark seed 1, 16 to 128 tie on wall time and 8 is slower
/// (EXPERIMENTS.md, "State-equivalence eject").
const REJOIN_EVERY: usize = 32;

/// Strike-ordered cases that share one golden run, and so the most
/// forks alive at once. Every window runs a golden of its own from
/// cycle 0, so the bound trades golden cycles for resident forks (about
/// 27 KB each): a `crisp-fault --faults 65536` block would otherwise
/// hold every unfinished fork of a program at once.
const WINDOW: usize = 32;

/// A config group: the fault-free configuration its golden runs, and
/// what its cases are judged against.
struct Group<'a> {
    image: &'a Image,
    cfg: SimConfig,
    predecoded: Option<&'a Arc<PredecodedImage>>,
    reference: &'a FaultReference,
}

impl Group<'_> {
    /// Classify the strike-ordered cases of `window` (indices into
    /// `cfgs`) into `outcomes`; see [`classify_batch`] for the eject
    /// order.
    fn classify(
        &self,
        cfgs: &[SimConfig],
        window: &[usize],
        pool: &mut MachinePool,
        outcomes: &mut [Option<FaultOutcome>],
    ) -> Result<(), SimError> {
        let mut golden = CycleSim::with_observer(
            pool.take(self.image)?,
            self.cfg,
            PrefixCheck::new(Arc::clone(self.reference.log())),
        );
        if let Some(t) = self.predecoded {
            golden.set_predecoded(Arc::clone(t));
        }
        let mut due = window
            .iter()
            .filter_map(|&i| cfgs[i].fault_plan.map(|p| (i, p)))
            .peekable();
        // Strikes waiting for their structure to hold state, forks in
        // flight, and forks that rejoined the golden at a cycle shift.
        let mut armed: Vec<(usize, FaultPlan)> = Vec::new();
        let mut live: Vec<(usize, CycleSim<PrefixCheck>)> = Vec::new();
        let mut rejoined: Vec<(usize, i128)> = Vec::new();
        let mut check_at = REJOIN_EVERY;
        let end = loop {
            if !live.is_empty() && golden.observer().matched() >= check_at {
                check_at = golden.observer().matched() + REJOIN_EVERY;
                self.check(&golden, &mut live, &mut rejoined, pool, outcomes);
            }
            let now = golden.stats.cycles;
            while let Some((i, plan)) = due.next_if(|(_, p)| p.cycle <= now) {
                // A strike on an empty cache slot flips nothing: the
                // case is the golden run.
                if plan.target != FaultTarget::Cache || golden.cache().occupied(plan.slot as usize)
                {
                    armed.push((i, plan));
                }
            }
            // Fork each armed strike as it lands, so a fork always
            // strikes in its first cycle: until then it is the golden.
            let mut k = 0;
            while k < armed.len() {
                let (i, plan) = armed[k];
                if !golden.strike_lands(plan.target) {
                    k += 1;
                    continue;
                }
                armed.swap_remove(k);
                if live.is_empty() {
                    check_at = golden.observer().matched() + REJOIN_EVERY;
                }
                let buf = pool.take_buffer(self.image)?;
                live.push((i, golden.fork(buf, FaultPlan { cycle: now, ..plan })));
            }
            let next = due.peek().map(|(_, p)| p.cycle);
            if next.is_none() && armed.is_empty() && live.is_empty() {
                break golden.run_until(|s| s.observer().decided());
            }
            let watch = !live.is_empty();
            let end = golden.run_until(|s| {
                s.observer().decided()
                    || next.is_some_and(|c| s.stats.cycles >= c)
                    || (watch && s.observer().matched() >= check_at)
                    || armed.iter().any(|(_, p)| s.strike_lands(p.target))
            });
            if end != Ok(RunEnd::Stopped) || golden.observer().decided() {
                break end;
            }
        };
        if end == Ok(RunEnd::Watchdog) {
            pool.put(golden.into_machine());
            for (_, case) in live {
                pool.put(case.into_machine());
            }
            return Err(SimError::StepLimit {
                limit: self.cfg.max_cycles,
            });
        }
        for (i, mut case) in live {
            let end = case.run_until(|s| s.observer().decided() || s.parity_settled());
            outcomes[i] = Some(case_outcome(self.reference, &case, end));
            pool.put(case.into_machine());
        }
        // A rejoined case replays the golden's future `shift` cycles
        // late (early when negative): it ends as the golden did unless
        // the watchdog stops it first. `max_insns` does not shift, as
        // both retired the same instructions.
        let verdict = case_outcome(self.reference, &golden, end);
        let ended = golden.stats.cycles;
        for (i, shift) in rejoined {
            let hang = i128::from(ended) + shift > i128::from(self.cfg.max_cycles);
            outcomes[i] = Some(if hang { FaultOutcome::Hang } else { verdict });
        }
        pool.put(golden.into_machine());
        // Cases that struck nothing, or struck at or past the golden's
        // end, or stayed armed to it, are the golden run.
        for &i in window {
            outcomes[i].get_or_insert(verdict);
        }
        Ok(())
    }

    /// Bring every live fork up to the golden's commit count and settle
    /// the ones whose verdict is fixed: ended or ejected forks by their
    /// own judgement, and forks whose whole future is the golden's
    /// (their strike spent, their state [`CycleSim::same_future`]) by
    /// joining `rejoined` with their cycle shift.
    fn check(
        &self,
        golden: &CycleSim<PrefixCheck>,
        live: &mut Vec<(usize, CycleSim<PrefixCheck>)>,
        rejoined: &mut Vec<(usize, i128)>,
        pool: &mut MachinePool,
        outcomes: &mut [Option<FaultOutcome>],
    ) {
        let commits = golden.observer().matched();
        let mut k = 0;
        while k < live.len() {
            let (i, case) = &mut live[k];
            let end = if case.observer().matched() < commits {
                case.run_until(|s| {
                    s.observer().decided()
                        || s.parity_settled()
                        || s.observer().matched() >= commits
                })
            } else {
                Ok(RunEnd::Stopped)
            };
            if end != Ok(RunEnd::Stopped) || case.observer().decided() || case.parity_settled() {
                outcomes[*i] = Some(case_outcome(self.reference, case, end));
            } else if case.strike_spent()
                && case.observer().matched() == commits
                && case.same_future(golden)
            {
                debug_assert_eq!(case.machine(), golden.machine(), "equal clean prefixes");
                let shift = i128::from(case.stats.cycles) - i128::from(golden.stats.cycles);
                rejoined.push((*i, shift));
            } else {
                k += 1;
                continue;
            }
            let (_, case) = live.swap_remove(k);
            pool.put(case.into_machine());
        }
    }
}

/// The lockstep judgement of one stopped case, as an AVF outcome.
fn case_outcome(
    reference: &FaultReference,
    sim: &CycleSim<PrefixCheck>,
    end: Result<RunEnd, SimError>,
) -> FaultOutcome {
    let Some((_, _, kind)) = judge(&reference.0, sim.observer(), sim, &end) else {
        return FaultOutcome::Masked;
    };
    match kind {
        DivergenceKind::Mismatch { functional, cycle } => classify_pair(&functional, &cycle),
        DivergenceKind::ExtraCommit { .. }
        | DivergenceKind::Error {
            cycle: Some(SimError::Decode { .. }),
            ..
        } => FaultOutcome::ControlDivergence,
        DivergenceKind::Error { .. } | DivergenceKind::FinalState => FaultOutcome::Sdc,
        DivergenceKind::Watchdog { .. } => FaultOutcome::Hang,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParityMode as PM;

    // One entry per ExecOp kind, with varied operand modes, next-PC
    // forms and fold classes.
    fn sample_entries() -> Vec<Decoded> {
        vec![
            Decoded {
                pc: 0x100,
                len_bytes: 2,
                exec: ExecOp::Nop,
                modifies_cc: false,
                modifies_sp: false,
                fold: FoldClass::Sequential,
                folded: false,
                branch_pc: None,
                next_pc: NextPc::Known(0x102),
                alt_pc: None,
            },
            Decoded {
                pc: 0x200,
                len_bytes: 2,
                exec: ExecOp::Halt,
                modifies_cc: false,
                modifies_sp: false,
                fold: FoldClass::Sequential,
                folded: false,
                branch_pc: None,
                next_pc: NextPc::Known(0x202),
                alt_pc: None,
            },
            Decoded {
                pc: 0x304,
                len_bytes: 8,
                exec: ExecOp::Op2 {
                    op: BinOp::Add,
                    dst: Operand::SpOff(8),
                    src: Operand::Imm(-3),
                },
                modifies_cc: true,
                modifies_sp: false,
                fold: FoldClass::Cond {
                    on_true: true,
                    predict_taken: false,
                },
                folded: true,
                branch_pc: Some(0x30A),
                next_pc: NextPc::Known(0x30C),
                alt_pc: Some(NextPc::Known(0x2F0)),
            },
            Decoded {
                pc: 0x400,
                len_bytes: 6,
                exec: ExecOp::Op3 {
                    op: BinOp::Sar,
                    a: Operand::Abs(0x8000),
                    b: Operand::Accum,
                },
                modifies_cc: true,
                modifies_sp: false,
                fold: FoldClass::Uncond,
                folded: true,
                branch_pc: Some(0x404),
                next_pc: NextPc::IndAbs(0x9000),
                alt_pc: None,
            },
            Decoded {
                pc: 0x500,
                len_bytes: 4,
                exec: ExecOp::Cmp {
                    cond: Cond::GeU,
                    a: Operand::SpInd(-8),
                    b: Operand::SpOff(124),
                },
                modifies_cc: true,
                modifies_sp: false,
                fold: FoldClass::Cond {
                    on_true: false,
                    predict_taken: true,
                },
                folded: true,
                branch_pc: Some(0x502),
                next_pc: NextPc::Known(0x480),
                alt_pc: Some(NextPc::Known(0x504)),
            },
            Decoded {
                pc: 0x600,
                len_bytes: 2,
                exec: ExecOp::Enter { bytes: 64 },
                modifies_cc: false,
                modifies_sp: true,
                fold: FoldClass::Sequential,
                folded: false,
                branch_pc: None,
                next_pc: NextPc::Known(0x602),
                alt_pc: None,
            },
            Decoded {
                pc: 0x700,
                len_bytes: 2,
                exec: ExecOp::Leave { bytes: 32 },
                modifies_cc: false,
                modifies_sp: true,
                fold: FoldClass::Sequential,
                folded: false,
                branch_pc: None,
                next_pc: NextPc::IndSp(-4),
                alt_pc: None,
            },
            Decoded {
                pc: 0x800,
                len_bytes: 4,
                exec: ExecOp::CallPush { ret: 0x804 },
                modifies_cc: false,
                modifies_sp: true,
                fold: FoldClass::Uncond,
                folded: false,
                branch_pc: Some(0x800),
                next_pc: NextPc::Known(0x1000),
                alt_pc: None,
            },
            Decoded {
                pc: 0x900,
                len_bytes: 2,
                exec: ExecOp::RetPop,
                modifies_cc: false,
                modifies_sp: true,
                fold: FoldClass::Uncond,
                folded: false,
                branch_pc: Some(0x900),
                next_pc: NextPc::FromRet,
                alt_pc: None,
            },
        ]
    }

    #[test]
    fn round_trip_canonical_entries() {
        for d in sample_entries() {
            let bits = entry_bits(&d);
            assert_eq!(decode_entry(bits), d, "{d}");
        }
    }

    #[test]
    fn decode_is_total_over_flips() {
        // Every single-bit flip of every sample decodes without panic
        // and re-encodes stably (decode∘encode is idempotent).
        for d in sample_entries() {
            let bits = entry_bits(&d);
            for word in 0..4 {
                for bit in 0..64 {
                    let mut flipped = bits;
                    flipped[word] ^= 1u64 << bit;
                    let d2 = decode_entry(flipped);
                    let re = entry_bits(&d2);
                    assert_eq!(decode_entry(re), d2);
                }
            }
        }
    }

    #[test]
    fn parity_flips_exactly_one_column_bit() {
        for d in sample_entries() {
            let bits = entry_bits(&d);
            let p = parity32(&bits);
            for word in 0..4 {
                for bit in 0..64 {
                    let mut flipped = bits;
                    flipped[word] ^= 1u64 << bit;
                    assert_eq!(parity32(&flipped), p ^ (1 << (bit % 32)));
                }
            }
        }
    }

    /// Runs of consecutive fault sites, pinned from the enumeration as
    /// it stood before the layout tables: (row name, image position of
    /// the run's first site or `None` outside the image, run length).
    /// The in-row bits of a `None` run count up from 0.
    type Run = (&'static str, Option<(usize, u32)>, u32);
    type Runs = &'static [Run];

    const PINNED_CACHE: Runs = &[
        ("next-pc", Some((0, 57)), 2),
        ("next-pc", Some((1, 0)), 32),
        ("alt-pc", Some((0, 56)), 1),
        ("alt-pc", Some((0, 59)), 2),
        ("alt-pc", Some((1, 32)), 32),
        ("predict", Some((0, 54)), 1),
        ("valid", None, 1),
        ("opcode", Some((0, 40)), 8),
        ("operand", Some((2, 32)), 6),
        ("operand", Some((3, 0)), 64),
        ("tag", Some((0, 0)), 32),
    ];

    const PINNED_PDU: Runs = &[
        ("next-pc", Some((0, 57)), 2),
        ("next-pc", Some((1, 0)), 32),
        ("alt-pc", Some((0, 56)), 1),
        ("alt-pc", Some((0, 59)), 2),
        ("alt-pc", Some((1, 32)), 32),
    ];

    const PINNED_BTB: Runs = &[
        ("btb-tag", None, 32),
        ("btb-counter", None, 2),
        ("btb-valid", None, 1),
    ];

    const PINNED_JUMP_TRACE: Runs = &[("jump-trace", None, 32)];

    /// A site as the pinned runs describe it: name, image position, and
    /// the in-row bit of a site outside the image.
    type Site = (&'static str, Option<(usize, u32)>, Option<u8>);

    fn expand(runs: &[Run]) -> Vec<Site> {
        runs.iter()
            .flat_map(|&(name, pos, len)| {
                (0..len).map(move |k| match pos {
                    Some((w, b)) => (name, Some((w, b + k)), None),
                    None => (name, None, Some(k as u8)),
                })
            })
            .collect()
    }

    fn sites(space: Option<FaultSpace>) -> Vec<Site> {
        let Some(space) = space else {
            return Vec::new();
        };
        (0..space.size())
            .map(|i| {
                let f = space.nth(i);
                (f.name(), f.bit(), f.bit().is_none().then_some(f.bit))
            })
            .collect()
    }

    /// Every predictor variant with a distinct fault space.
    fn predictors() -> Vec<HwPredictor> {
        let mut ps: Vec<HwPredictor> = ["static", "btb", "btb16x2", "jumptrace8", "jumptrace16"]
            .iter()
            .map(|p| HwPredictor::parse(p).unwrap())
            .collect();
        ps.extend((1..=7).map(|bits| HwPredictor::Dynamic { bits, entries: 8 }));
        ps
    }

    #[test]
    fn enumeration_matches_the_pinned_site_lists() {
        for p in predictors() {
            let of = |t| sites(FaultSpace::of(t, p));
            assert_eq!(of(FaultTarget::Cache), expand(PINNED_CACHE));
            assert_eq!(of(FaultTarget::Pdu), expand(PINNED_PDU));
            let predictor = match p {
                HwPredictor::StaticBit => Vec::new(),
                HwPredictor::Dynamic { bits, .. } => {
                    expand(&[("counter-bit", None, u32::from(bits))])
                }
                HwPredictor::Btb { .. } => expand(PINNED_BTB),
                HwPredictor::JumpTrace { .. } => expand(PINNED_JUMP_TRACE),
            };
            assert_eq!(of(FaultTarget::Predictor), predictor, "{p:?}");
        }
        assert_eq!((FAULT_SPACE, PDU_FAULT_SPACE), (181, 69));
        assert_eq!(
            FaultSpace::of(FaultTarget::Predictor, HwPredictor::StaticBit),
            None
        );
        assert_eq!(
            report_rows(),
            [
                "next-pc",
                "alt-pc",
                "predict",
                "valid",
                "opcode",
                "operand",
                "tag",
                "btb-tag",
                "btb-counter",
                "btb-valid",
                "counter-bit",
                "jump-trace",
            ]
        );
    }

    #[test]
    fn every_site_is_distinct_round_trips_and_flips_one_parity_column() {
        let patterns = [[0; 4], [!0; 4], [0x0123_4567_89AB_CDEF; 4]];
        for p in predictors() {
            for t in FaultTarget::ALL {
                let Some(space) = FaultSpace::of(t, p) else {
                    continue;
                };
                let mut seen = std::collections::HashSet::new();
                for i in 0..space.size() {
                    let f = space.nth(i);
                    assert!(seen.insert(f), "{f:?} enumerated twice");
                    assert_eq!(space.nth(i + space.size()), f, "indices wrap");
                    if f.row().word >= ENTRY_WORDS {
                        // The valid bit: the only site beside the image.
                        assert_eq!((f.name(), f.bit()), ("valid", None));
                        continue;
                    }
                    // The flip lands in its own row and no other.
                    for w in patterns {
                        let mut flipped = w;
                        f.flip(&mut flipped);
                        for row in f.layout.rows().iter().filter(|r| r.word < ENTRY_WORDS) {
                            let delta = if row == f.row() { 1 << f.bit } else { 0 };
                            assert_eq!(row.get(&flipped), row.get(&w) ^ delta, "{f:?}");
                        }
                    }
                    if f.layout != Layout::Entry {
                        continue;
                    }
                    // Image sites: the flip survives decode and
                    // re-encode, and strikes one parity column.
                    for d in sample_entries() {
                        let clean = entry_bits(&d);
                        let mut flipped = clean;
                        f.flip(&mut flipped);
                        let (word, bit) = f.bit().unwrap();
                        assert_eq!(flipped[word], clean[word] ^ (1 << bit));
                        let struck = decode_entry(flipped);
                        assert_eq!(decode_entry(entry_bits(&struck)), struck);
                        let mut d2 = d;
                        let column = strike(&mut d2, f).unwrap();
                        assert_eq!(d2, struck);
                        assert_eq!(column.count_ones(), 1);
                        assert_eq!(parity32(&flipped), parity32(&clean) ^ column);
                    }
                }
            }
        }
    }

    #[test]
    fn entry_rows_tile_the_image() {
        // Every row but the slot's valid bit lies in the image, and
        // together they cover each image bit exactly once.
        let (image, beside): (Vec<&Field>, _) = ENTRY.iter().partition(|r| r.word < ENTRY_WORDS);
        assert_eq!(beside.iter().map(|r| r.name).collect::<Vec<_>>(), ["valid"]);
        let mut covered = [0u64; ENTRY_WORDS];
        for row in image {
            assert!(row.offset + row.width <= 64, "{row:?}");
            let bits = row.mask() << row.offset;
            assert_eq!(covered[row.word] & bits, 0, "{row:?} overlaps");
            covered[row.word] |= bits;
        }
        assert_eq!(covered, [!0; ENTRY_WORDS]);
        // The parity-covered rows that are not fault sites.
        let unsited: u32 = ENTRY[FaultSpace::CACHE.rows..]
            .iter()
            .filter(|r| r.name != "spare")
            .map(|r| r.width)
            .sum();
        assert_eq!(unsited, 47);
    }

    #[test]
    fn fault_fields_display_their_report_row_and_bit() {
        let btb = HwPredictor::parse("btb").unwrap();
        let shown = [
            nth_field(0),
            nth_field(15),
            nth_field(34),
            nth_field(70),
            nth_field(75),
            nth_field(180),
            nth_pdu_field(40),
            nth_predictor_field(btb, 33).unwrap(),
            nth_predictor_field(
                HwPredictor::Dynamic {
                    bits: 2,
                    entries: 8,
                },
                1,
            )
            .unwrap(),
        ]
        .map(|f| f.to_string());
        assert_eq!(
            shown,
            [
                "next-pc bit 0",
                "next-pc bit 15",
                "alt-pc bit 0",
                "valid bit 0",
                "opcode bit 4",
                "tag bit 31",
                "alt-pc bit 6",
                "btb-counter bit 1",
                "counter-bit bit 1",
            ]
        );
    }

    #[test]
    fn fault_target_names_are_stable() {
        assert_eq!(FaultTarget::ALL.len(), 3);
        let names: Vec<_> = FaultTarget::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names, ["cache", "btb", "pdu"]);
        for t in FaultTarget::ALL {
            assert_eq!(FaultTarget::parse(t.name()), Some(t));
        }
        assert_eq!(FaultTarget::parse("all"), None);
        assert_eq!(FaultTarget::default(), FaultTarget::Cache);
    }

    #[test]
    fn strike_changes_targeted_field() {
        let d = sample_entries()[2]; // folded conditional Op2
        let struck = |i| {
            let mut d = d;
            strike(&mut d, nth_field(i)).map(|_| d)
        };
        // Predict bit: flips the predicted direction.
        match (d.fold, struck(69).unwrap().fold) {
            (
                FoldClass::Cond {
                    predict_taken: a, ..
                },
                FoldClass::Cond {
                    predict_taken: b, ..
                },
            ) => assert_ne!(a, b),
            other => panic!("fold class changed: {other:?}"),
        }
        // Tag bit 0: moves the entry's PC by one.
        assert_eq!(struck(149).unwrap().pc, d.pc ^ 1);
        // Next-PC payload bit 0: redirects the next address.
        assert_eq!(struck(2).unwrap().next_pc, NextPc::Known(0x30C ^ 1));
        // Valid faults have no image bit.
        assert_eq!(struck(70), None);
        assert_eq!(nth_field(70).name(), "valid");
    }

    #[test]
    fn outcome_names_are_stable() {
        assert_eq!(
            FaultOutcome::ALL.map(FaultOutcome::name),
            ["masked", "sdc", "control-divergence", "hang"]
        );
        assert_eq!(PM::default(), PM::Off);
    }

    #[test]
    fn pooled_classification_matches_fresh_runs() {
        // Buffer recycling, a shared reference and shared decode tables
        // must not change a single verdict: sweep a slice of the fault
        // space and compare against the unpooled oracle, recycling one
        // pool across every case so stale state would be caught.
        use crisp_isa::FoldPolicy;
        let image = crisp_asm::assemble_text(
            "
                mov 0(sp),$0
            top:
                add 0(sp),$1
                cmp.s< 0(sp),$6
                ifjmpy.t top
                halt
            ",
        )
        .unwrap();
        let mut pool = MachinePool::default();
        for policy in [FoldPolicy::None, FoldPolicy::Host13] {
            let table = crate::PredecodedImage::shared(&image, policy).unwrap();
            let mut cfgs = Vec::new();
            for cycle in [2u64, 5, 9] {
                for slot in [0u32, 3] {
                    // The valid bit, next-pc tag bit 0 and opcode bit 2.
                    for field in [nth_field(70), nth_field(0), nth_field(73)] {
                        cfgs.push(SimConfig {
                            fold_policy: policy,
                            fault_plan: Some(FaultPlan {
                                cycle,
                                slot,
                                field,
                                target: FaultTarget::Cache,
                            }),
                            ..SimConfig::default()
                        });
                    }
                }
            }
            let reference =
                fault_reference(&image, cfgs[0], Some(&table), None, &mut pool).unwrap();
            let pooled =
                classify_batch(&image, &cfgs, Some(&table), &reference, 1, &mut pool).unwrap();
            pool.put(reference.into_machine());
            for (cfg, pooled) in cfgs.iter().zip(pooled) {
                let fresh = classify_fault(&image, *cfg).unwrap();
                assert_eq!(fresh, pooled, "{policy:?} {:?}", cfg.fault_plan);
            }
        }
    }

    #[test]
    fn windows_give_the_verdicts_of_one_case_blocks() {
        // A block several windows long, of cache, PDU and predictor
        // strikes in both parity phases, classifies each case as a block
        // of that case alone does: window boundaries, the forks alive
        // beside a case and the rejoin checks they share change nothing.
        let image = crisp_asm::rand_prog::GenProgram::generate(7, 10)
            .image()
            .unwrap();
        let predictor = HwPredictor::parse("btb16x2").unwrap();
        let mut cfgs = Vec::new();
        for k in 0..(5 * WINDOW as u64 / 2) {
            let target = FaultTarget::ALL[(k % 3) as usize];
            let space = FaultSpace::of(target, predictor).unwrap();
            let plan = FaultPlan {
                cycle: k * 7 % 400,
                slot: (k * 5 % 32) as u32,
                field: space.nth(k * 11),
                target,
            };
            for parity in [PM::DetectInvalidate, PM::Off] {
                cfgs.push(SimConfig {
                    parity,
                    predictor,
                    fault_plan: Some(plan),
                    ..SimConfig::default()
                });
            }
        }
        let mut pool = MachinePool::default();
        let reference = fault_reference(&image, cfgs[0], None, None, &mut pool).unwrap();
        let block = classify_batch(&image, &cfgs, None, &reference, 1, &mut pool).unwrap();
        for (cfg, outcome) in cfgs.iter().zip(block) {
            let alone = classify_batch(&image, &[*cfg], None, &reference, 1, &mut pool).unwrap();
            assert_eq!(alone, [outcome], "{:?} {:?}", cfg.parity, cfg.fault_plan);
        }
    }

    #[test]
    fn opcode_strike_that_halts_a_conditional_entry_classifies() {
        // Regression: `crisp-fault --target all --predictor btb --seed
        // 200006 --programs 1024 --faults 8` quarantined case 2576. A
        // parity-off opcode strike turned a folded conditional entry
        // into `halt`, whose step reports no branch direction, and the
        // retire stage panicked on it instead of classifying the case.
        let image = crisp_asm::rand_prog::GenProgram::generate(200_328, 10)
            .image()
            .unwrap();
        let plan = FaultPlan {
            cycle: 152,
            slot: 21,
            field: nth_field(71), // opcode bit 0
            target: FaultTarget::Cache,
        };
        let protected = SimConfig {
            parity: PM::DetectInvalidate,
            fault_plan: Some(plan),
            predictor: HwPredictor::parse("btb").unwrap(),
            ..SimConfig::default()
        };
        let unprotected = SimConfig {
            parity: PM::Off,
            ..protected
        };
        assert_eq!(classify_fault(&image, protected), Ok(FaultOutcome::Masked));
        // The struck entry halts the run early: the commit that should
        // have branched instead reports a halt the reference never did.
        assert_eq!(
            classify_fault(&image, unprotected),
            Ok(FaultOutcome::ControlDivergence)
        );
    }
}
