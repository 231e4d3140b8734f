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
//!    single-bit flip always yields a well-formed (if wrong) entry.
//! 2. **A fault plan** ([`FaultPlan`] / [`FaultField`]): which bit of
//!    which cache slot flips on which cycle. Set via
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

use std::sync::Arc;

use crate::config::HwPredictor;
use crate::diff::{CommitLog, CommitRecord, PrefixCheck};
use crate::error::HaltReason;
use crate::{
    CycleSim, FunctionalSim, Machine, MachinePool, PredecodedImage, RunEnd, SimConfig, SimError,
    ThreadedSim, TranslatedImage,
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
/// fields, resident predictor entries with predictor fields
/// (enumerated per variant by [`nth_predictor_field`]), or PIR fold
/// slots with the Next-PC / Alternate Next-PC fields of the in-flight
/// entry ([`nth_pdu_field`]).
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
}

/// Which architectural field of a front-end structure a fault hits.
///
/// The first seven variants are the decoded-cache entry fields; the
/// payload is the bit index *within* the field and [`FaultField::bit`]
/// maps it to a position in the [`entry_bits`] image. Their widths sum
/// to [`FAULT_SPACE`], so [`nth_field`] enumerates every single-bit
/// cache fault the model can inject. The remaining variants name
/// predictor-state bits ([`FaultTarget::Predictor`]); they live outside
/// the entry image, so [`FaultField::bit`] returns `None` for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultField {
    /// The Next-PC field: 2 tag bits plus a 32-bit payload.
    NextPc(u8),
    /// The Alternate Next-PC field: presence bit, 2 tag bits, 32-bit
    /// payload.
    AltPc(u8),
    /// The static branch-prediction direction bit.
    Predict,
    /// The slot's valid bit. Faulting it drops the entry (a live entry
    /// can only flip valid→invalid, which is architecturally safe: the
    /// fetch just misses and redecodes).
    Valid,
    /// The 8 opcode bits: execution kind plus sub-operation.
    Opcode(u8),
    /// The operand fields: two 3-bit addressing-mode tags plus two
    /// 32-bit payloads.
    Operand(u8),
    /// The 32-bit cache tag (the entry's PC).
    Tag(u8),
    /// A resident BTB entry's 32-bit branch-address tag.
    BtbTag(u8),
    /// A resident BTB entry's 2-bit direction counter.
    BtbCounter(u8),
    /// A resident BTB entry's valid bit; flipping it drops the entry
    /// (a live valid bit can only flip to invalid).
    BtbValid,
    /// One bit of a saturating direction counter (width = the
    /// configured counter bits, index taken modulo it).
    CounterBit(u8),
    /// One bit of a jump-trace FIFO entry (a 32-bit taken-branch
    /// address).
    JumpTraceBit(u8),
}

/// Width in bits of each [`FaultField`] group, in [`nth_field`] order.
const FIELD_WIDTHS: [(u8, &str); 7] = [
    (34, "next-pc"),
    (35, "alt-pc"),
    (1, "predict"),
    (1, "valid"),
    (8, "opcode"),
    (70, "operand"),
    (32, "tag"),
];

/// Total number of distinct single-bit faults [`nth_field`] enumerates.
pub const FAULT_SPACE: u64 = 181;

/// The stable kebab-case names of the seven fault-field groups, in
/// [`nth_field`] order — the row keys of a `crisp-fault` AVF report.
pub const FIELD_NAMES: [&str; 7] = [
    "next-pc", "alt-pc", "predict", "valid", "opcode", "operand", "tag",
];

impl FaultField {
    /// Enumerate the fault space: `nth_field(i)` for `i` in
    /// `0..FAULT_SPACE` visits every injectable single-bit fault once.
    /// Indices are taken modulo [`FAULT_SPACE`].
    pub fn nth(i: u64) -> FaultField {
        let mut i = (i % FAULT_SPACE) as u8;
        for (group, &(width, _)) in FIELD_WIDTHS.iter().enumerate() {
            if i < width {
                return match group {
                    0 => FaultField::NextPc(i),
                    1 => FaultField::AltPc(i),
                    2 => FaultField::Predict,
                    3 => FaultField::Valid,
                    4 => FaultField::Opcode(i),
                    5 => FaultField::Operand(i),
                    _ => FaultField::Tag(i),
                };
            }
            i -= width;
        }
        unreachable!("FIELD_WIDTHS sums to FAULT_SPACE");
    }

    /// Stable kebab-case group name (the AVF-report row key).
    pub fn name(self) -> &'static str {
        match self {
            FaultField::NextPc(_) => "next-pc",
            FaultField::AltPc(_) => "alt-pc",
            FaultField::Predict => "predict",
            FaultField::Valid => "valid",
            FaultField::Opcode(_) => "opcode",
            FaultField::Operand(_) => "operand",
            FaultField::Tag(_) => "tag",
            FaultField::BtbTag(_) => "btb-tag",
            FaultField::BtbCounter(_) => "btb-counter",
            FaultField::BtbValid => "btb-valid",
            FaultField::CounterBit(_) => "counter-bit",
            FaultField::JumpTraceBit(_) => "jump-trace",
        }
    }

    /// The `(word, bit)` position of this fault in the [`entry_bits`]
    /// image, or `None` for the valid bit (which lives in the slot, not
    /// the entry image) and for predictor-state fields (which live
    /// outside the cache entirely).
    pub fn bit(self) -> Option<(usize, u32)> {
        match self {
            FaultField::NextPc(i) if i < 2 => Some((0, 57 + u32::from(i))),
            FaultField::NextPc(i) => Some((1, u32::from(i) - 2)),
            FaultField::AltPc(0) => Some((0, 56)),
            FaultField::AltPc(i) if i < 3 => Some((0, 59 + u32::from(i) - 1)),
            FaultField::AltPc(i) => Some((1, 32 + u32::from(i) - 3)),
            FaultField::Predict => Some((0, 54)),
            FaultField::Valid => None,
            FaultField::Opcode(i) => Some((0, 40 + u32::from(i))),
            FaultField::Operand(i) if i < 6 => Some((2, 32 + u32::from(i))),
            FaultField::Operand(i) => Some((3, u32::from(i) - 6)),
            FaultField::Tag(i) => Some((0, u32::from(i))),
            FaultField::BtbTag(_)
            | FaultField::BtbCounter(_)
            | FaultField::BtbValid
            | FaultField::CounterBit(_)
            | FaultField::JumpTraceBit(_) => None,
        }
    }
}

/// Enumerate the fault space (free-function form of [`FaultField::nth`]).
pub fn nth_field(i: u64) -> FaultField {
    FaultField::nth(i)
}

/// Number of distinct single-bit predictor-state faults injectable into
/// the given predictor variant. The static bit has no hardware state,
/// so its space is zero; a BTB entry is a 32-bit tag, a 2-bit counter
/// and a valid bit; a counter table exposes its counter width; a jump
/// trace holds 32-bit branch addresses.
pub fn predictor_fault_space(p: HwPredictor) -> u64 {
    match p {
        HwPredictor::StaticBit => 0,
        HwPredictor::Dynamic { bits, .. } => u64::from(bits),
        HwPredictor::Btb { .. } => 35,
        HwPredictor::JumpTrace { .. } => 32,
    }
}

/// Enumerate the predictor fault space for the given variant:
/// `nth_predictor_field(p, i)` for `i` in `0..predictor_fault_space(p)`
/// visits every injectable predictor-state bit once (indices wrap).
/// `None` for [`HwPredictor::StaticBit`], which has no state to strike.
pub fn nth_predictor_field(p: HwPredictor, i: u64) -> Option<FaultField> {
    let space = predictor_fault_space(p);
    if space == 0 {
        return None;
    }
    let i = (i % space) as u8;
    Some(match p {
        HwPredictor::Dynamic { .. } => FaultField::CounterBit(i),
        HwPredictor::Btb { .. } => match i {
            0..=31 => FaultField::BtbTag(i),
            32..=33 => FaultField::BtbCounter(i - 32),
            _ => FaultField::BtbValid,
        },
        HwPredictor::JumpTrace { .. } => FaultField::JumpTraceBit(i),
        HwPredictor::StaticBit => unreachable!("space == 0 returned above"),
    })
}

/// Number of distinct single-bit faults injectable into one PDU fold
/// slot: the folded Next-PC (34 bits) and Alternate Next-PC (35 bits)
/// latches of the in-flight entry — the same sub-fields the cache image
/// carries, so the same parity word covers them.
pub const PDU_FAULT_SPACE: u64 = 69;

/// Enumerate the PDU fold-slot fault space: `nth_pdu_field(i)` for `i`
/// in `0..PDU_FAULT_SPACE` visits every injectable bit of the two
/// next-PC latches once (indices wrap).
pub fn nth_pdu_field(i: u64) -> FaultField {
    let i = (i % PDU_FAULT_SPACE) as u8;
    if i < 34 {
        FaultField::NextPc(i)
    } else {
        FaultField::AltPc(i - 34)
    }
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
    match tag & 3 {
        0 => NextPc::Known(pay),
        1 => NextPc::IndAbs(pay),
        2 => NextPc::IndSp(pay as i32),
        _ => NextPc::FromRet,
    }
}

/// The canonical bit image of a decoded-cache entry: the software stand-in
/// for the hardware's 192-bit word, the domain parity is computed over and
/// faults are injected into.
///
/// Layout (word:bit, little-endian within each `u64`):
///
/// ```text
/// w0:  0..32  pc (the cache tag)        w0: 51..53  fold-class tag
/// w0: 32..40  len_bytes                 w0: 53      Cond on_true
/// w0: 40..44  exec kind                 w0: 54      Cond predict_taken
/// w0: 44..48  exec sub-op               w0: 55      branch_pc present
/// w0: 48      modifies_cc               w0: 56      alt_pc present
/// w0: 49      modifies_sp               w0: 57..59  next_pc tag
/// w0: 50      folded                    w0: 59..61  alt_pc tag
/// w1:  0..32  next_pc payload           w1: 32..64  alt_pc payload
/// w2:  0..32  branch_pc                 w2: 32..38  operand A/B tags
/// w3:  0..32  operand A payload         w3: 32..64  operand B payload
/// ```
///
/// `Enter`/`Leave`/`CallPush` store their immediate in the operand-A
/// payload. [`decode_entry`] inverts this encoding exactly on canonical
/// images and totally (via don't-care reduction) on all others.
pub fn entry_bits(d: &Decoded) -> [u64; 4] {
    let mut w = [0u64; 4];
    w[0] |= u64::from(d.pc);
    w[0] |= (u64::from(d.len_bytes) & 0xFF) << 32;
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
    w[0] |= kind << 40;
    w[0] |= sub << 44;
    w[0] |= u64::from(d.modifies_cc) << 48;
    w[0] |= u64::from(d.modifies_sp) << 49;
    w[0] |= u64::from(d.folded) << 50;
    let (ftag, on_true, predict) = match d.fold {
        FoldClass::Sequential => (0u64, false, false),
        FoldClass::Uncond => (1, false, false),
        FoldClass::Cond {
            on_true,
            predict_taken,
        } => (2, on_true, predict_taken),
    };
    w[0] |= ftag << 51;
    w[0] |= u64::from(on_true) << 53;
    w[0] |= u64::from(predict) << 54;
    w[0] |= u64::from(d.branch_pc.is_some()) << 55;
    w[0] |= u64::from(d.alt_pc.is_some()) << 56;
    let (ntag, npay) = next_pc_bits(d.next_pc);
    w[0] |= ntag << 57;
    w[1] |= npay;
    if let Some(alt) = d.alt_pc {
        let (atag, apay) = next_pc_bits(alt);
        w[0] |= atag << 59;
        w[1] |= apay << 32;
    }
    w[2] |= u64::from(d.branch_pc.unwrap_or(0));
    match d.exec {
        ExecOp::Op2 { dst, src, .. } => {
            let (at, ap) = operand_bits(dst);
            let (bt, bp) = operand_bits(src);
            w[2] |= at << 32;
            w[2] |= bt << 35;
            w[3] |= ap;
            w[3] |= bp << 32;
        }
        ExecOp::Op3 { a, b, .. } | ExecOp::Cmp { a, b, .. } => {
            let (at, ap) = operand_bits(a);
            let (bt, bp) = operand_bits(b);
            w[2] |= at << 32;
            w[2] |= bt << 35;
            w[3] |= ap;
            w[3] |= bp << 32;
        }
        ExecOp::Enter { bytes } | ExecOp::Leave { bytes } => w[3] |= u64::from(bytes),
        ExecOp::CallPush { ret } => w[3] |= u64::from(ret),
        ExecOp::Nop | ExecOp::Halt | ExecOp::RetPop => {}
    }
    w
}

/// Decode a 256-bit entry image back into a [`Decoded`] entry.
///
/// Total: every bit pattern decodes. Out-of-range discriminants reduce
/// modulo their variant count (a hardware decoder's don't-care
/// handling), so a single-bit flip of a valid image always produces a
/// well-formed entry — possibly a wrong one, which is the point.
/// Inverse of [`entry_bits`] on canonical images:
/// `decode_entry(entry_bits(d)) == d`.
pub fn decode_entry(w: [u64; 4]) -> Decoded {
    let pc = w[0] as u32;
    let len_bytes = ((w[0] >> 32) & 0xFF) as u32;
    let kind = ((w[0] >> 40) & 0xF) % 9;
    let sub = (w[0] >> 44) & 0xF;
    let a_tag = (w[2] >> 32) & 0x7;
    let b_tag = (w[2] >> 35) & 0x7;
    let a_pay = w[3] as u32;
    let b_pay = (w[3] >> 32) as u32;
    let exec = match kind {
        0 => ExecOp::Nop,
        1 => ExecOp::Halt,
        2 => ExecOp::Op2 {
            op: BinOp::ALL[(sub % 12) as usize],
            dst: decode_operand(a_tag, a_pay),
            src: decode_operand(b_tag, b_pay),
        },
        3 => ExecOp::Op3 {
            op: BinOp::ALL[(sub % 12) as usize],
            a: decode_operand(a_tag, a_pay),
            b: decode_operand(b_tag, b_pay),
        },
        4 => ExecOp::Cmp {
            cond: Cond::ALL[(sub % 10) as usize],
            a: decode_operand(a_tag, a_pay),
            b: decode_operand(b_tag, b_pay),
        },
        5 => ExecOp::Enter { bytes: a_pay },
        6 => ExecOp::Leave { bytes: a_pay },
        7 => ExecOp::CallPush { ret: a_pay },
        _ => ExecOp::RetPop,
    };
    let fold = match ((w[0] >> 51) & 3) % 3 {
        0 => FoldClass::Sequential,
        1 => FoldClass::Uncond,
        _ => FoldClass::Cond {
            on_true: (w[0] >> 53) & 1 != 0,
            predict_taken: (w[0] >> 54) & 1 != 0,
        },
    };
    Decoded {
        pc,
        len_bytes,
        exec,
        modifies_cc: (w[0] >> 48) & 1 != 0,
        modifies_sp: (w[0] >> 49) & 1 != 0,
        fold,
        folded: (w[0] >> 50) & 1 != 0,
        branch_pc: ((w[0] >> 55) & 1 != 0).then_some(w[2] as u32),
        next_pc: decode_next_pc((w[0] >> 57) & 3, w[1] as u32),
        alt_pc: ((w[0] >> 56) & 1 != 0)
            .then(|| decode_next_pc((w[0] >> 59) & 3, (w[1] >> 32) as u32)),
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

/// Apply a single-bit fault to a decoded entry: re-encode, flip the
/// mapped bit, decode totally. Returns `None` for [`FaultField::Valid`],
/// which lives in the slot rather than the entry image (the caller
/// clears the slot instead).
pub fn apply_fault(d: &Decoded, field: FaultField) -> Option<Decoded> {
    let (word, bit) = field.bit()?;
    let mut bits = entry_bits(d);
    bits[word] ^= 1u64 << bit;
    Some(decode_entry(bits))
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
/// the *fault-free* reference itself fails to halt within
/// `cfg.max_cycles` steps (campaign drivers pre-screen programs so this
/// does not happen).
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
pub struct FaultReference {
    log: Arc<CommitLog>,
    machine: Machine,
}

impl FaultReference {
    /// The fault-free commit stream.
    pub fn log(&self) -> &Arc<CommitLog> {
        &self.log
    }

    /// Reclaim the reference's machine buffer (e.g. back into a
    /// [`MachinePool`]).
    pub fn into_machine(self) -> Machine {
        self.machine
    }
}

/// Run the fault-free reference for [`classify_batch`]: the threaded
/// tier when `translated` is given, the interpreter otherwise.
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
    let run = match translated {
        Some(t) => ThreadedSim::with_translated(machine, Arc::clone(t))
            .max_steps(cfg.max_cycles)
            .run_observed(&mut log)?,
        None => match predecoded {
            Some(t) => FunctionalSim::with_predecoded(machine, Arc::clone(t)),
            None => FunctionalSim::with_policy(machine, cfg.fold_policy),
        }
        .max_steps(cfg.max_cycles)
        .run_observed(&mut log)?,
    };
    if run.halt_reason != HaltReason::Halted {
        pool.put(run.machine);
        return Err(SimError::StepLimit {
            limit: cfg.max_cycles,
        });
    }
    Ok(FaultReference {
        log: Arc::new(log),
        machine: run.machine,
    })
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
/// pure waste. Completed cases keep the full-run verdict order:
/// divergent prefix, then watchdog hang, then stream-length mismatch,
/// then final-state SDC, then masked. A case that dies on a
/// [`SimError`] with its prefix still clean classifies by the error
/// kind (decode errors are control divergence, anything else data
/// corruption).
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
/// `_lanes` is ignored: cases run one at a time, as no measured batch
/// width beat that. It stays so existing callers keep compiling.
///
/// # Errors
///
/// Image-load failures only (`reference` already validated the run).
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
    cfgs.iter()
        .map(|&cfg| {
            let mut sim = CycleSim::with_observer(
                pool.take(image)?,
                cfg,
                PrefixCheck::new(Arc::clone(&reference.log)),
            );
            if let Some(t) = predecoded {
                sim.set_predecoded(Arc::clone(t));
            }
            let end = sim.run_until(|s| s.observer().decided() || s.parity_settled());
            let outcome = case_outcome(reference, &sim, end);
            pool.put(sim.into_machine());
            Ok(outcome)
        })
        .collect()
}

/// The full-run verdict order applied to one stopped case.
fn case_outcome(
    reference: &FaultReference,
    sim: &CycleSim<PrefixCheck>,
    end: Result<RunEnd, SimError>,
) -> FaultOutcome {
    let check = sim.observer();
    if let Some((r, f)) = check.mismatch() {
        return classify_pair(r, f);
    }
    match end {
        // A case stopped with a clean prefix was parity-settled.
        Ok(RunEnd::Stopped) => FaultOutcome::Masked,
        Err(SimError::Decode { .. }) => FaultOutcome::ControlDivergence,
        Err(_) => FaultOutcome::Sdc,
        Ok(RunEnd::Watchdog) => FaultOutcome::Hang,
        Ok(RunEnd::Halted) => {
            if check.extra() > 0 || check.matched() != reference.log.records.len() {
                return FaultOutcome::ControlDivergence;
            }
            let (fm, cm) = (&reference.machine, sim.machine());
            if fm.accum != cm.accum
                || fm.sp != cm.sp
                || fm.psw.flag != cm.psw.flag
                || fm.mem != cm.mem
            {
                return FaultOutcome::Sdc;
            }
            FaultOutcome::Masked
        }
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

    #[test]
    fn fault_space_enumeration_is_exhaustive_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        let mut valid = 0;
        for i in 0..FAULT_SPACE {
            let f = nth_field(i);
            assert!(seen.insert(f), "{f:?} enumerated twice");
            match f.bit() {
                Some((w, b)) => {
                    assert!(w < 4 && b < 64);
                }
                None => valid += 1,
            }
        }
        assert_eq!(valid, 1, "exactly one valid-bit fault");
        // Bit positions are distinct too.
        let bits: std::collections::HashSet<_> = seen.iter().filter_map(|f| f.bit()).collect();
        assert_eq!(bits.len(), FAULT_SPACE as usize - 1);
        // Wraps modulo the space.
        assert_eq!(nth_field(FAULT_SPACE), nth_field(0));
        // Names stay in sync with the width table.
        for (i, (_, name)) in FIELD_WIDTHS.iter().enumerate() {
            assert_eq!(FIELD_NAMES[i], *name);
        }
        assert_eq!(
            FIELD_WIDTHS.iter().map(|(w, _)| u64::from(*w)).sum::<u64>(),
            FAULT_SPACE
        );
    }

    #[test]
    fn predictor_fault_space_enumeration_is_distinct_per_variant() {
        let variants = [
            HwPredictor::StaticBit,
            HwPredictor::Dynamic {
                bits: 2,
                entries: 64,
            },
            HwPredictor::Btb {
                entries: 128,
                ways: 4,
            },
            HwPredictor::JumpTrace { entries: 16 },
        ];
        for p in variants {
            let space = predictor_fault_space(p);
            if space == 0 {
                assert_eq!(p, HwPredictor::StaticBit);
                assert_eq!(nth_predictor_field(p, 0), None);
                continue;
            }
            let mut seen = std::collections::HashSet::new();
            for i in 0..space {
                let f = nth_predictor_field(p, i).expect("in-range index enumerates");
                assert!(seen.insert(f), "{f:?} enumerated twice for {p:?}");
                assert_eq!(f.bit(), None, "predictor fields live outside the image");
            }
            // Wraps modulo the space.
            assert_eq!(nth_predictor_field(p, space), nth_predictor_field(p, 0));
        }
        // Counter space tracks the configured width.
        assert_eq!(
            predictor_fault_space(HwPredictor::Dynamic {
                bits: 3,
                entries: 8
            }),
            3
        );
        // BTB space = 32 tag + 2 counter + 1 valid.
        assert_eq!(
            predictor_fault_space(HwPredictor::Btb {
                entries: 16,
                ways: 2
            }),
            35
        );
    }

    #[test]
    fn pdu_fault_space_covers_both_next_pc_latches() {
        assert_eq!(PDU_FAULT_SPACE, 34 + 35);
        let mut seen = std::collections::HashSet::new();
        for i in 0..PDU_FAULT_SPACE {
            let f = nth_pdu_field(i);
            assert!(seen.insert(f), "{f:?} enumerated twice");
            // Every PDU site maps into the canonical image, so cache
            // parity covers it.
            assert!(f.bit().is_some(), "{f:?} must be parity-visible");
            assert!(matches!(f, FaultField::NextPc(_) | FaultField::AltPc(_)));
        }
        assert_eq!(nth_pdu_field(PDU_FAULT_SPACE), nth_pdu_field(0));
    }

    #[test]
    fn fault_target_names_are_stable() {
        assert_eq!(FaultTarget::ALL.len(), 3);
        let names: Vec<_> = FaultTarget::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names, ["cache", "btb", "pdu"]);
        assert_eq!(FaultTarget::default(), FaultTarget::Cache);
    }

    #[test]
    fn apply_fault_changes_targeted_field() {
        let d = sample_entries()[2]; // folded conditional Op2
                                     // Predict bit: flips the predicted direction.
        let f = apply_fault(&d, FaultField::Predict).unwrap();
        match (d.fold, f.fold) {
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
        let f = apply_fault(&d, FaultField::Tag(0)).unwrap();
        assert_eq!(f.pc, d.pc ^ 1);
        // Next-PC payload bit: redirects the next address.
        let f = apply_fault(&d, FaultField::NextPc(2)).unwrap();
        assert_eq!(f.next_pc, NextPc::Known(0x30C ^ 1));
        // Valid faults have no image bit.
        assert_eq!(apply_fault(&d, FaultField::Valid), None);
        assert_eq!(FaultField::Valid.name(), "valid");
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
                    for field in [
                        FaultField::Valid,
                        FaultField::NextPc(0),
                        FaultField::Opcode(2),
                    ] {
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
            field: FaultField::Opcode(0),
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
