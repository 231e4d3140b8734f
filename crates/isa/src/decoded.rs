//! The canonical decoded-instruction form and the branch-folding rules.
//!
//! In CRISP, the Prefetch and Decode Unit expands variable-length encoded
//! instructions into fixed 192-bit entries of the Decoded Instruction
//! Cache. Each entry carries a **Next-PC** field — "providing a next
//! address field for every instruction in the cache has the same effect
//! as turning every instruction into a branch instruction" — and, for
//! conditional branches, an **Alternate Next-PC** holding the path not
//! predicted. During decode the PDU recognises a non-branching
//! instruction followed by a one-parcel branch and *folds* the two into a
//! single cache entry, so the branch "disappears entirely from the
//! Execution Unit pipeline".
//!
//! [`decode_and_fold`] is the software model of that datapath
//! (the paper's Figure 2): it consumes one or two encoded instructions
//! from a parcel stream and produces one [`Decoded`] entry.

use std::fmt;

use crate::{encoding, BinOp, BranchTarget, Cond, Instr, IsaError, Operand, PARCEL_BYTES};

/// What the Execution Unit does when the entry reaches the result stage.
///
/// Control transfer is *not* part of `ExecOp`: it is expressed by the
/// [`Decoded::next_pc`] / [`Decoded::alt_pc`] fields, exactly as in the
/// hardware (the Next-PC field drives instruction sequencing for every
/// entry alike).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOp {
    /// No architectural effect.
    Nop,
    /// Stop execution.
    Halt,
    /// `dst = dst op src` (or `dst = src` for [`BinOp::Mov`]).
    Op2 {
        /// Operation.
        op: BinOp,
        /// Destination location.
        dst: Operand,
        /// Source value.
        src: Operand,
    },
    /// `Accum = a op b`.
    Op3 {
        /// Operation.
        op: BinOp,
        /// Left source.
        a: Operand,
        /// Right source.
        b: Operand,
    },
    /// Set the PSW flag to `a cond b`.
    Cmp {
        /// Condition.
        cond: Cond,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `SP -= bytes`.
    Enter {
        /// Frame size in bytes.
        bytes: u32,
    },
    /// `SP += bytes`.
    Leave {
        /// Frame size in bytes.
        bytes: u32,
    },
    /// Push a return address: `SP -= 4; mem[SP] = ret`.
    CallPush {
        /// The return address (address of the instruction after the call).
        ret: u32,
    },
    /// Pop the return address: `SP += 4`. The popped word supplies the
    /// next PC via [`NextPc::FromRet`].
    RetPop,
}

/// How the next instruction address is obtained.
///
/// For most entries the address is known at decode time and stored
/// directly in the cache ([`NextPc::Known`]); indirect branches and
/// returns must read it at execute time — the paper: "For the case of
/// indirect jumps, the IR.Next-PC may be loaded from the Stack Cache, or
/// from off-chip via the data_in bus."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NextPc {
    /// Statically known address.
    Known(u32),
    /// The word at the absolute address.
    IndAbs(u32),
    /// The word at `SP + offset` (SP sampled at execute).
    IndSp(i32),
    /// The word at `SP` — the return address about to be popped.
    FromRet,
}

impl NextPc {
    /// The statically known address, if any.
    pub fn known(self) -> Option<u32> {
        match self {
            NextPc::Known(a) => Some(a),
            _ => None,
        }
    }
}

/// The control-flow class of a decoded entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldClass {
    /// Purely sequential: `next_pc` is the fall-through address.
    Sequential,
    /// Unconditional transfer (a `jmp`, `call` or `ret`, folded or not):
    /// `next_pc` is the target, there is no alternate.
    Uncond,
    /// Conditional transfer: `next_pc` is the predicted path and
    /// [`Decoded::alt_pc`] the other one.
    Cond {
        /// Branch taken when the flag equals this value.
        on_true: bool,
        /// The static prediction bit from the branch instruction.
        predict_taken: bool,
    },
}

impl FoldClass {
    /// Whether this entry ends a basic block.
    pub fn is_transfer(self) -> bool {
        !matches!(self, FoldClass::Sequential)
    }
}

/// Which instruction pairs the PDU folds.
///
/// CRISP's shipping policy is [`FoldPolicy::Host13`]: "CRISP's policy is
/// to only fold one and three parcel non-branching instructions with one
/// parcel branches. Doing the remaining cases significantly increases the
/// amount of hardware required, with only a marginal increase in
/// performance." The other variants exist for the ablation study that
/// quantifies that sentence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FoldPolicy {
    /// Never fold (branches always occupy their own pipeline slot).
    None,
    /// Fold only one-parcel hosts with one-parcel branches.
    Host1,
    /// Fold one- and three-parcel hosts with one-parcel branches —
    /// the CRISP policy.
    #[default]
    Host13,
    /// Fold hosts of any length with branches of any length
    /// (the hardware-expensive case CRISP rejected).
    All,
}

impl FoldPolicy {
    /// Whether `host` may absorb a following branch under this policy.
    pub fn host_ok(self, host: &Instr) -> bool {
        if host.is_control() || matches!(host, Instr::Halt) {
            return false;
        }
        let len = match host.parcels() {
            Ok(l) => l,
            Err(_) => return false,
        };
        match self {
            FoldPolicy::None => false,
            FoldPolicy::Host1 => len == 1,
            FoldPolicy::Host13 => len == 1 || len == 3,
            FoldPolicy::All => true,
        }
    }

    /// Whether `branch` may be absorbed under this policy.
    pub fn branch_ok(self, branch: &Instr) -> bool {
        match self {
            FoldPolicy::None => false,
            FoldPolicy::All => matches!(branch, Instr::Jmp { .. } | Instr::IfJmp { .. }),
            _ => branch.is_foldable_branch(),
        }
    }
}

/// Why a branch adjacent to an instruction was not folded into it.
///
/// Produced by [`fold_failure`] for the observability layer: the
/// simulator's branch-site profiler reports, per site, whether the
/// branch folded and — when it did not — which folding rule blocked it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FoldFailure {
    /// Folding is disabled ([`FoldPolicy::None`]).
    PolicyDisabled,
    /// The preceding instruction is itself a control transfer (or a
    /// `halt`), so it cannot host a branch — the paper's "a branch
    /// after a call" case.
    HostIsControl,
    /// The host's parcel count is outside what the policy folds
    /// (e.g. a five-parcel instruction under [`FoldPolicy::Host13`]).
    HostTooLong,
    /// The branch is longer than one parcel, which only
    /// [`FoldPolicy::All`] accepts.
    BranchTooLong,
}

impl FoldFailure {
    /// All variants, in serialization order.
    pub const ALL: [FoldFailure; 4] = [
        FoldFailure::PolicyDisabled,
        FoldFailure::HostIsControl,
        FoldFailure::HostTooLong,
        FoldFailure::BranchTooLong,
    ];

    /// Stable kebab-case name (used in traces and tables).
    pub fn name(self) -> &'static str {
        match self {
            FoldFailure::PolicyDisabled => "policy-disabled",
            FoldFailure::HostIsControl => "host-is-control",
            FoldFailure::HostTooLong => "host-too-long",
            FoldFailure::BranchTooLong => "branch-too-long",
        }
    }
}

impl fmt::Display for FoldFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Classify why the instruction at parcel index `at` did **not** absorb
/// the branch that follows it.
///
/// Returns `Some(reason)` only when a foldable-class branch (`jmp` or
/// `ifjmp`) is visibly next in the stream and the entry nevertheless
/// does not fold under `policy`; `None` when the entry folds, when no
/// branch follows, or when the stream is too short to tell.
pub fn fold_failure(parcels: &[u16], at: usize, policy: FoldPolicy) -> Option<FoldFailure> {
    let (host, len) = encoding::decode(parcels, at).ok()?;
    let (branch, blen) = encoding::decode(parcels, at + len).ok()?;
    if !matches!(branch, Instr::Jmp { .. } | Instr::IfJmp { .. }) {
        return None;
    }
    if policy.host_ok(&host) && policy.branch_ok(&branch) {
        return None; // it folds
    }
    if policy == FoldPolicy::None {
        Some(FoldFailure::PolicyDisabled)
    } else if host.is_control() || matches!(host, Instr::Halt) {
        Some(FoldFailure::HostIsControl)
    } else if !policy.host_ok(&host) {
        Some(FoldFailure::HostTooLong)
    } else {
        debug_assert!(blen > 1 || !policy.branch_ok(&branch));
        Some(FoldFailure::BranchTooLong)
    }
}

/// One entry of the Decoded Instruction Cache: the canonical wide form
/// every instruction takes after decode (the paper's 192-bit entry with
/// control field, operands, Next-PC and Alternate Next-PC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// Address of the (host) instruction — the cache tag and the value
    /// carried down the pipeline for exception reporting.
    pub pc: u32,
    /// Total bytes of encoded instruction consumed, including a folded
    /// branch when present.
    pub len_bytes: u32,
    /// The operation the EU performs.
    pub exec: ExecOp,
    /// Whether this entry writes the condition flag. Stored explicitly,
    /// mirroring the hardware: "one of the decoded instruction bits is
    /// used exclusively to specify whether the instruction can modify the
    /// condition code flag".
    pub modifies_cc: bool,
    /// Whether this entry writes the stack pointer.
    pub modifies_sp: bool,
    /// Control-flow class.
    pub fold: FoldClass,
    /// Whether a separate branch instruction was folded into this entry
    /// (i.e. the EU executes one fewer instruction than the program
    /// lists).
    pub folded: bool,
    /// For any transfer entry, the address of the branch instruction
    /// itself (equal to `pc` for an unfolded branch, `pc` plus the host
    /// length for a folded one). This is the identity used by branch
    /// predictors and traces.
    pub branch_pc: Option<u32>,
    /// The Next-PC field: the (predicted) next instruction address.
    pub next_pc: NextPc,
    /// The Alternate Next-PC field: the path not predicted, present only
    /// for conditional entries.
    pub alt_pc: Option<NextPc>,
}

impl Decoded {
    /// The fall-through address (`pc + len_bytes`).
    pub fn seq_pc(&self) -> u32 {
        self.pc.wrapping_add(self.len_bytes)
    }

    /// For a conditional entry, the statically-known taken-path and
    /// fall-through addresses `(taken, seq)`, when both are known.
    pub fn cond_paths(&self) -> Option<(u32, u32)> {
        match self.fold {
            FoldClass::Cond { predict_taken, .. } => {
                let n = self.next_pc.known()?;
                let a = self.alt_pc?.known()?;
                Some(if predict_taken { (n, a) } else { (a, n) })
            }
            _ => None,
        }
    }

    /// Bytes of the host instruction alone, excluding a folded branch:
    /// for a folded entry the branch starts at `branch_pc`, so the host
    /// spans `branch_pc - pc`; otherwise the whole entry is the host.
    pub fn host_len_bytes(&self) -> u32 {
        match (self.folded, self.branch_pc) {
            (true, Some(bpc)) => bpc.wrapping_sub(self.pc),
            _ => self.len_bytes,
        }
    }

    /// Parcels (16-bit units) of the host instruction alone. Decode
    /// paths that already hold a cached entry use this to reconstruct
    /// the lookahead requirement without re-decoding the raw parcels.
    pub fn host_parcels(&self) -> usize {
        (self.host_len_bytes() / 2) as usize
    }
}

impl fmt::Display for Decoded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#06x}: {:?}", self.pc, self.exec)?;
        if self.folded {
            write!(f, " [folded]")?;
        }
        write!(f, " next={:?}", self.next_pc)?;
        if let Some(alt) = self.alt_pc {
            write!(f, " alt={alt:?}")?;
        }
        Ok(())
    }
}

fn exec_of(instr: &Instr, pc: u32, len_bytes: u32) -> ExecOp {
    match *instr {
        Instr::Nop | Instr::Jmp { .. } | Instr::IfJmp { .. } => ExecOp::Nop,
        Instr::Halt => ExecOp::Halt,
        Instr::Op2 { op, dst, src } => ExecOp::Op2 { op, dst, src },
        Instr::Op3 { op, a, b } => ExecOp::Op3 { op, a, b },
        Instr::Cmp { cond, a, b } => ExecOp::Cmp { cond, a, b },
        Instr::Enter { bytes } => ExecOp::Enter { bytes },
        Instr::Leave { bytes } => ExecOp::Leave { bytes },
        Instr::Call { .. } => ExecOp::CallPush {
            ret: pc.wrapping_add(len_bytes),
        },
        Instr::Ret => ExecOp::RetPop,
    }
}

/// Resolve a branch target into a `NextPc`, given the address of the
/// branch instruction itself.
///
/// For folded branches `branch_pc` differs from the host instruction's
/// address by the host length — this is the paper's 2-bit *branch adjust*:
/// "the PC relative offset is relative to the address of the branch, not
/// the instruction it is being folded with. The value of the branch
/// adjust is simply the size of the instruction starting in the QA
/// parcel."
fn target_next(target: BranchTarget, branch_pc: u32) -> NextPc {
    match target {
        BranchTarget::PcRel(off) => NextPc::Known(branch_pc.wrapping_add(off as u32)),
        BranchTarget::Abs(a) => NextPc::Known(a),
        BranchTarget::IndAbs(a) => NextPc::IndAbs(a),
        BranchTarget::IndSp(off) => NextPc::IndSp(off),
    }
}

/// Model of the PDU decode-and-fold datapath: consume one instruction
/// (plus, when the policy allows, a following one-parcel branch) from the
/// parcel stream and build the decoded-cache entry.
///
/// `at` is the parcel index of the instruction and `pc` its byte address
/// (`pc = at * 2` when the stream starts at address zero; the caller maps
/// between the two).
///
/// # Errors
///
/// Propagates [`crate::encoding::decode`] errors for malformed or
/// truncated parcel streams. A branch candidate that fails to decode
/// (e.g. the stream ends right after the host) simply suppresses folding
/// rather than erroring, because the bytes after the host may be data.
pub fn decode_and_fold(
    parcels: &[u16],
    at: usize,
    pc: u32,
    policy: FoldPolicy,
) -> Result<Decoded, IsaError> {
    let (instr, len) = encoding::decode(parcels, at)?;
    let len_bytes = len as u32 * PARCEL_BYTES;

    // Case 1: the instruction is itself a control transfer — it occupies
    // its own entry (an unfolded branch still gets Next-PC fields; it
    // merely wastes an EU slot on an ExecOp::Nop).
    match instr {
        Instr::Jmp { target } => {
            return Ok(Decoded {
                pc,
                len_bytes,
                exec: ExecOp::Nop,
                modifies_cc: false,
                modifies_sp: false,
                fold: FoldClass::Uncond,
                folded: false,
                branch_pc: Some(pc),
                next_pc: target_next(target, pc),
                alt_pc: None,
            });
        }
        Instr::IfJmp {
            on_true,
            predict_taken,
            target,
        } => {
            let taken = target_next(target, pc);
            let seq = NextPc::Known(pc.wrapping_add(len_bytes));
            let (next_pc, alt_pc) = if predict_taken {
                (taken, seq)
            } else {
                (seq, taken)
            };
            return Ok(Decoded {
                pc,
                len_bytes,
                exec: ExecOp::Nop,
                modifies_cc: false,
                modifies_sp: false,
                fold: FoldClass::Cond {
                    on_true,
                    predict_taken,
                },
                folded: false,
                branch_pc: Some(pc),
                next_pc,
                alt_pc: Some(alt_pc),
            });
        }
        Instr::Call { target } => {
            return Ok(Decoded {
                pc,
                len_bytes,
                exec: exec_of(&instr, pc, len_bytes),
                modifies_cc: false,
                modifies_sp: true,
                fold: FoldClass::Uncond,
                folded: false,
                branch_pc: Some(pc),
                next_pc: target_next(target, pc),
                alt_pc: None,
            });
        }
        Instr::Ret => {
            return Ok(Decoded {
                pc,
                len_bytes,
                exec: ExecOp::RetPop,
                modifies_cc: false,
                modifies_sp: true,
                fold: FoldClass::Uncond,
                folded: false,
                branch_pc: Some(pc),
                next_pc: NextPc::FromRet,
                alt_pc: None,
            });
        }
        _ => {}
    }

    // Case 2: try to fold the following branch into this instruction.
    if policy.host_ok(&instr) {
        if let Ok((branch, blen)) = encoding::decode(parcels, at + len) {
            if policy.branch_ok(&branch) {
                let branch_pc = pc.wrapping_add(len_bytes);
                let total_bytes = len_bytes + blen as u32 * PARCEL_BYTES;
                let exec = exec_of(&instr, pc, len_bytes);
                match branch {
                    Instr::Jmp { target } => {
                        return Ok(Decoded {
                            pc,
                            len_bytes: total_bytes,
                            exec,
                            modifies_cc: instr.modifies_cc(),
                            modifies_sp: instr.modifies_sp(),
                            fold: FoldClass::Uncond,
                            folded: true,
                            branch_pc: Some(branch_pc),
                            next_pc: target_next(target, branch_pc),
                            alt_pc: None,
                        });
                    }
                    Instr::IfJmp {
                        on_true,
                        predict_taken,
                        target,
                    } => {
                        let taken = target_next(target, branch_pc);
                        let seq = NextPc::Known(pc.wrapping_add(total_bytes));
                        let (next_pc, alt_pc) = if predict_taken {
                            (taken, seq)
                        } else {
                            (seq, taken)
                        };
                        return Ok(Decoded {
                            pc,
                            len_bytes: total_bytes,
                            exec,
                            modifies_cc: instr.modifies_cc(),
                            modifies_sp: instr.modifies_sp(),
                            fold: FoldClass::Cond {
                                on_true,
                                predict_taken,
                            },
                            folded: true,
                            branch_pc: Some(branch_pc),
                            next_pc,
                            alt_pc: Some(alt_pc),
                        });
                    }
                    _ => {}
                }
            }
        }
    }

    // Case 3: plain sequential entry.
    Ok(Decoded {
        pc,
        len_bytes,
        exec: exec_of(&instr, pc, len_bytes),
        modifies_cc: instr.modifies_cc(),
        modifies_sp: instr.modifies_sp(),
        fold: FoldClass::Sequential,
        folded: false,
        branch_pc: None,
        next_pc: NextPc::Known(pc.wrapping_add(len_bytes)),
        alt_pc: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(instrs: &[Instr]) -> Vec<u16> {
        let mut out = Vec::new();
        for i in instrs {
            out.extend(encoding::encode(i).unwrap());
        }
        out
    }

    fn add_slots() -> Instr {
        Instr::Op2 {
            op: BinOp::Add,
            dst: Operand::SpOff(0),
            src: Operand::SpOff(4),
        }
    }

    #[test]
    fn sequential_entry() {
        let p = stream(&[add_slots(), Instr::Nop]);
        let d = decode_and_fold(&p, 0, 0x100, FoldPolicy::Host13).unwrap();
        assert_eq!(d.fold, FoldClass::Sequential);
        assert!(!d.folded);
        assert_eq!(d.len_bytes, 2);
        assert_eq!(d.next_pc, NextPc::Known(0x102));
        assert_eq!(d.alt_pc, None);
    }

    #[test]
    fn folds_one_parcel_host_with_uncond_branch() {
        let p = stream(&[
            add_slots(),
            Instr::Jmp {
                target: BranchTarget::PcRel(-20),
            },
        ]);
        let d = decode_and_fold(&p, 0, 0x100, FoldPolicy::Host13).unwrap();
        assert!(d.folded);
        assert_eq!(d.fold, FoldClass::Uncond);
        // Branch adjust: the offset is relative to the *branch* at 0x102.
        assert_eq!(d.next_pc, NextPc::Known(0x102 - 20));
        assert_eq!(d.len_bytes, 4);
        assert!(matches!(d.exec, ExecOp::Op2 { op: BinOp::Add, .. }));
    }

    #[test]
    fn folds_three_parcel_host_branch_adjust() {
        // 3-parcel cmp + 1-parcel conditional branch: the paper's QD case
        // ("the 10-bit PC relative offset is found ... in the QD parcel
        // if the previous instruction was three parcels long").
        let cmp = Instr::Cmp {
            cond: Cond::LtS,
            a: Operand::SpOff(4),
            b: Operand::Imm(1024),
        };
        assert_eq!(cmp.parcels().unwrap(), 3);
        let br = Instr::IfJmp {
            on_true: true,
            predict_taken: true,
            target: BranchTarget::PcRel(-30),
        };
        let p = stream(&[cmp, br]);
        let d = decode_and_fold(&p, 0, 0x200, FoldPolicy::Host13).unwrap();
        assert!(d.folded);
        assert!(d.modifies_cc);
        // Branch sits at 0x206 (after 3 parcels); adjust = 6 bytes.
        assert_eq!(d.next_pc, NextPc::Known(0x206 - 30));
        // Predicted taken, so the alternate is the fall-through 0x208.
        assert_eq!(d.alt_pc, Some(NextPc::Known(0x208)));
        assert_eq!(d.len_bytes, 8);
    }

    #[test]
    fn predict_not_taken_swaps_fields() {
        let br = Instr::IfJmp {
            on_true: false,
            predict_taken: false,
            target: BranchTarget::PcRel(100),
        };
        let p = stream(&[add_slots(), br]);
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::Host13).unwrap();
        // Not-taken prediction: Next-PC is sequential, Alternate is target.
        assert_eq!(d.next_pc, NextPc::Known(4));
        assert_eq!(d.alt_pc, Some(NextPc::Known(2 + 100)));
        assert_eq!(d.cond_paths(), Some((102, 4)));
    }

    #[test]
    fn five_parcel_host_not_folded_under_crisp_policy() {
        let wide = Instr::Op2 {
            op: BinOp::Add,
            dst: Operand::Abs(0x8000),
            src: Operand::Imm(100_000),
        };
        assert_eq!(wide.parcels().unwrap(), 5);
        let p = stream(&[
            wide,
            Instr::Jmp {
                target: BranchTarget::PcRel(2),
            },
        ]);
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::Host13).unwrap();
        assert!(!d.folded);
        assert_eq!(d.fold, FoldClass::Sequential);
        // ... but it IS folded under FoldPolicy::All (the ablation).
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::All).unwrap();
        assert!(d.folded);
    }

    #[test]
    fn long_branches_not_folded_under_crisp_policy() {
        let br = Instr::Jmp {
            target: BranchTarget::Abs(0x4000),
        };
        let p = stream(&[add_slots(), br]);
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::Host13).unwrap();
        assert!(!d.folded);
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::All).unwrap();
        assert!(d.folded);
        assert_eq!(d.next_pc, NextPc::Known(0x4000));
    }

    #[test]
    fn calls_and_returns_never_fold() {
        // A call is not absorbed as a "branch" ...
        let p = stream(&[
            add_slots(),
            Instr::Call {
                target: BranchTarget::PcRel(20),
            },
        ]);
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::All).unwrap();
        assert!(!d.folded);
        // ... and a call does not host a following branch.
        let p = stream(&[
            Instr::Call {
                target: BranchTarget::PcRel(20),
            },
            Instr::Jmp {
                target: BranchTarget::PcRel(2),
            },
        ]);
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::All).unwrap();
        assert!(!d.folded);
        assert!(matches!(d.exec, ExecOp::CallPush { ret: 2 }));
        assert_eq!(d.next_pc, NextPc::Known(20));
    }

    #[test]
    fn unfolded_branch_is_own_entry() {
        // The paper's example: "a branch after a call" is a one-parcel
        // branch that is not folded.
        let p = stream(&[Instr::Jmp {
            target: BranchTarget::PcRel(-4),
        }]);
        let d = decode_and_fold(&p, 0, 0x50, FoldPolicy::Host13).unwrap();
        assert!(!d.folded);
        assert_eq!(d.fold, FoldClass::Uncond);
        assert_eq!(d.exec, ExecOp::Nop);
        // Offset relative to the branch itself (branch adjust = 0).
        assert_eq!(d.next_pc, NextPc::Known(0x4C));
    }

    #[test]
    fn ret_reads_next_pc_from_stack() {
        let p = stream(&[Instr::Ret]);
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::Host13).unwrap();
        assert_eq!(d.next_pc, NextPc::FromRet);
        assert!(d.modifies_sp);
    }

    #[test]
    fn indirect_branch_forms() {
        let p = stream(&[Instr::Jmp {
            target: BranchTarget::IndAbs(0x8000),
        }]);
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::Host13).unwrap();
        assert_eq!(d.next_pc, NextPc::IndAbs(0x8000));
        let p = stream(&[Instr::Jmp {
            target: BranchTarget::IndSp(8),
        }]);
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::Host13).unwrap();
        assert_eq!(d.next_pc, NextPc::IndSp(8));
    }

    #[test]
    fn fold_policy_none_disables_folding() {
        let p = stream(&[
            add_slots(),
            Instr::Jmp {
                target: BranchTarget::PcRel(2),
            },
        ]);
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::None).unwrap();
        assert!(!d.folded);
        assert_eq!(d.fold, FoldClass::Sequential);
    }

    #[test]
    fn host1_policy_rejects_three_parcel_host() {
        let cmp = Instr::Cmp {
            cond: Cond::LtS,
            a: Operand::SpOff(4),
            b: Operand::Imm(1024),
        };
        let p = stream(&[
            cmp,
            Instr::Jmp {
                target: BranchTarget::PcRel(2),
            },
        ]);
        assert!(!decode_and_fold(&p, 0, 0, FoldPolicy::Host1).unwrap().folded);
        assert!(
            decode_and_fold(&p, 0, 0, FoldPolicy::Host13)
                .unwrap()
                .folded
        );
    }

    #[test]
    fn nop_hosts_a_fold() {
        // Spreading can leave `nop; ifjmp` — folding turns it into a
        // pure-branch entry occupying a single slot.
        let br = Instr::IfJmp {
            on_true: true,
            predict_taken: true,
            target: BranchTarget::PcRel(-8),
        };
        let p = stream(&[Instr::Nop, br]);
        let d = decode_and_fold(&p, 0, 0x10, FoldPolicy::Host13).unwrap();
        assert!(d.folded);
        assert_eq!(d.exec, ExecOp::Nop);
        assert_eq!(d.next_pc, NextPc::Known(0x12 - 8));
    }

    #[test]
    fn stream_end_after_host_suppresses_folding() {
        let p = stream(&[add_slots()]);
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::Host13).unwrap();
        assert!(!d.folded);
        assert_eq!(d.fold, FoldClass::Sequential);
    }

    #[test]
    fn cmp_folded_with_branch_keeps_cc_bit() {
        // The hardest mispredict case in the paper: compare folded with
        // the dependent branch resolves only at RR.
        let cmp = Instr::Cmp {
            cond: Cond::Eq,
            a: Operand::Accum,
            b: Operand::Imm(0),
        };
        assert_eq!(cmp.parcels().unwrap(), 1);
        let br = Instr::IfJmp {
            on_true: true,
            predict_taken: false,
            target: BranchTarget::PcRel(40),
        };
        let p = stream(&[cmp, br]);
        let d = decode_and_fold(&p, 0, 0, FoldPolicy::Host13).unwrap();
        assert!(d.folded);
        assert!(d.modifies_cc);
        assert!(matches!(d.exec, ExecOp::Cmp { .. }));
        assert!(matches!(
            d.fold,
            FoldClass::Cond {
                on_true: true,
                predict_taken: false
            }
        ));
    }

    #[test]
    fn fold_failure_classifies_blocked_folds() {
        let jmp = Instr::Jmp {
            target: BranchTarget::PcRel(2),
        };
        // Folds under Host13 → no failure.
        let p = stream(&[add_slots(), jmp]);
        assert_eq!(fold_failure(&p, 0, FoldPolicy::Host13), None);
        assert_eq!(
            fold_failure(&p, 0, FoldPolicy::None),
            Some(FoldFailure::PolicyDisabled)
        );
        // Branch after a branch: the host is control.
        let p = stream(&[jmp, jmp]);
        assert_eq!(
            fold_failure(&p, 0, FoldPolicy::Host13),
            Some(FoldFailure::HostIsControl)
        );
        // Five-parcel host under the CRISP policy.
        let wide = Instr::Op2 {
            op: BinOp::Add,
            dst: Operand::Abs(0x8000),
            src: Operand::Imm(100_000),
        };
        let p = stream(&[wide, jmp]);
        assert_eq!(
            fold_failure(&p, 0, FoldPolicy::Host13),
            Some(FoldFailure::HostTooLong)
        );
        assert_eq!(fold_failure(&p, 0, FoldPolicy::All), None);
        // Multi-parcel branch under Host13.
        let far = Instr::Jmp {
            target: BranchTarget::Abs(0x4000),
        };
        let p = stream(&[add_slots(), far]);
        assert_eq!(
            fold_failure(&p, 0, FoldPolicy::Host13),
            Some(FoldFailure::BranchTooLong)
        );
        // No branch follows → not a fold failure.
        let p = stream(&[add_slots(), Instr::Nop]);
        assert_eq!(fold_failure(&p, 0, FoldPolicy::Host13), None);
    }

    #[test]
    fn seq_pc_helper() {
        let p = stream(&[add_slots()]);
        let d = decode_and_fold(&p, 0, 0xFFFF_FFFE, FoldPolicy::Host13).unwrap();
        assert_eq!(d.seq_pc(), 0); // wraps
    }
}
