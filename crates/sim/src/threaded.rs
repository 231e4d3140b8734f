//! Threaded-code translation tier for the functional engine.
//!
//! The paper's decoded-instruction cache pays decode once and then runs
//! straight-line until a branch folds control elsewhere. The software
//! analogue is one tier up from [`crate::PredecodedImage`]: walk the
//! predecoded table once, discover basic blocks (leaders at branch
//! targets, fall-throughs and fold boundaries), and translate each
//! block into a contiguous superinstruction stream that executes with
//! **no per-entry decode lookup, no per-entry dispatch bookkeeping and
//! no per-entry statistics** — per-block counters are precomputed at
//! translation time and replayed with a handful of adds. Two
//! translation-time specializations do the heavy lifting:
//!
//! * **Micro-op lowering** — each body entry is lowered from the
//!   decoder's nested `ExecOp`/`Operand` enums into a flat `HostOp`
//!   with operand addressing pre-resolved (stack offset, absolute
//!   address or immediate baked in), so the hot loop is one `match`
//!   per entry instead of three.
//! * **Superblock formation** — translation walks *through*
//!   unconditional transfers with statically-known targets (plain
//!   `jmp`s and folded host+`jmp` entries become block-internal
//!   micro-ops), so a block only ends at a real control decision:
//!   conditional branch, call/return, indirect target or `halt`. Taken
//!   and fall-through successors are resolved to block indices at
//!   translation time, so hot loops chain block → block without ever
//!   consulting the PC-indexed table.
//!
//! The tier is an *oracle accelerator*, not a semantics fork: every
//! path that the fast tier cannot honour bit-for-bit falls back to the
//! same one-[`crisp_isa::Decoded`]-entry interpreter
//! ([`FunctionalSim`]) that defines the architecture. The four deopt
//! boundaries:
//!
//! 1. **Untranslated targets** — indirect jumps, returns, odd or
//!    out-of-text PCs land in the interpreter until control reaches a
//!    translated leader again.
//! 2. **Decode-error slots** — blocks never cover them; reaching one
//!    single-steps into the identical [`SimError::Decode`].
//! 3. **Watchdog budgets** — a block is entered only when the whole
//!    block fits the remaining step budget, so the watchdog fires at
//!    exactly the same entry count as the interpreter.
//! 4. **Armed faults / parity events** — fault injection lives in the
//!    cycle engine; only *fault-free* reference runs ever go through
//!    this tier (see [`crate::soft_error`]).
//!
//! Stores into text need no boundary: both tiers decode from the same
//! immutable [`PredecodedImage`], so a store never changes what either
//! executes.
//!
//! The tier runs unobserved only: it has no observer and records no
//! branch trace. An observed or traced functional run is an
//! interpreter run, so observing a run never moves it onto another
//! code path. `tests/prop_threaded.rs` holds the tier's final state,
//! halt disposition and statistics to the interpreter's over the
//! random program and random mini-C corpora.

use std::sync::Arc;

use crisp_asm::Image;
use crisp_isa::{BinOp, Cond, Decoded, ExecOp, FoldClass, FoldPolicy, Operand};

use crate::diff::LockstepBuffers;
use crate::machine::reset_or_load;
use crate::observe::NullObserver;
use crate::predecode::PredecodedImage;
use crate::{
    FunctionalRun, FunctionalSim, HaltReason, Machine, OpcodeCounts, RunStats, SimError, Trace,
};

/// Longest translated block, in decoded entries (body + terminator).
/// Bounds per-block watchdog granularity and translation memory.
const BLOCK_CAP: usize = 64;

/// Translation budget: total body entries across all blocks. Pathological
/// images (every parcel a leader of a long overlapping run) stop
/// translating here; uncovered leaders simply stay on the interpreter.
const OPS_BUDGET: usize = 1 << 20;

/// Which functional engine `crisp-run` runs — the `--engine` selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The one-entry interpreter ([`FunctionalSim`]).
    Interp,
    /// The block-translating threaded-code tier ([`ThreadedSim`]).
    Threaded,
}

impl Engine {
    /// Parse the CLI spelling (`interp` | `threaded`).
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "interp" => Some(Engine::Interp),
            "threaded" => Some(Engine::Threaded),
            _ => None,
        }
    }
}

/// A pre-resolved source operand: the scalar addressing modes with the
/// offset/address/immediate baked in at translation time (stack-indirect
/// sources stay on the [`HostOp::Generic`] path).
#[derive(Debug, Clone, Copy)]
enum Src {
    Imm(i32),
    Sp(u32),
    Abs(u32),
    /// `mem[mem[sp+off]]` — pointer read, then value read, in the
    /// interpreter's order.
    SpInd(u32),
    Accum,
}

/// A lowered superinstruction micro-op: one flat dispatch per entry,
/// mirroring the corresponding [`Machine::execute`] arms exactly
/// (operand read order included, so error identity is preserved).
#[derive(Debug, Clone, Copy)]
enum HostOp {
    Nop,
    /// `mem[sp+off] = src` (two-operand move; no destination read).
    MovSp {
        off: u32,
        src: Src,
    },
    /// `mem[sp+off] op= src`.
    Op2Sp {
        op: BinOp,
        off: u32,
        src: Src,
    },
    /// `mem[addr] = src`.
    MovAbs {
        addr: u32,
        src: Src,
    },
    /// `mem[addr] op= src`.
    Op2Abs {
        op: BinOp,
        addr: u32,
        src: Src,
    },
    /// `accum = src`.
    MovAcc {
        src: Src,
    },
    /// `accum op= src`.
    Op2Acc {
        op: BinOp,
        src: Src,
    },
    /// `accum = a op b`.
    Op3 {
        op: BinOp,
        a: Src,
        b: Src,
    },
    /// `flag = a cond b`.
    Cmp {
        cond: Cond,
        a: Src,
        b: Src,
    },
    Enter {
        bytes: u32,
    },
    Leave {
        bytes: u32,
    },
    /// Melded `accum = a op b; flag = accum cond c` pair (an `op3`
    /// followed by a compare against the accumulator). Only formed when
    /// the compare's operands cannot fault, so the faulting PC is
    /// always the first entry's.
    Op3Cmp {
        op: BinOp,
        a: Src,
        b: Src,
        cond: Cond,
        c: Src,
    },
    /// Melded `mem[sp+off] op= src; mem[sp+dst] = mem[sp+off]` pair —
    /// the read-after-write forward of a just-computed stack word.
    /// `pc2` is the second entry's PC, for exact fault attribution.
    Op2SpMov {
        op: BinOp,
        off: u32,
        src: Src,
        dst: u32,
        pc2: u32,
    },
    /// Rare addressing (absolute/indirect destinations): execute the
    /// original operation through the interpreter-identical fallback.
    Generic(ExecOp),
}

/// A source operand that can never fault (no memory access).
fn infallible(s: Src) -> bool {
    matches!(s, Src::Imm(_) | Src::Accum)
}

/// Meld adjacent lowered entries into superinstruction pairs. Returns
/// the fused op when `first` followed by `second` matches a pattern
/// whose architectural effects (accumulator, flag, memory, fault PC)
/// can be reproduced exactly by one op.
fn meld(first: &BodyOp, second: &BodyOp) -> Option<HostOp> {
    match (first.op, second.op) {
        // op3 then compare-against-accum: the compare reads the value
        // the op3 just produced; restrict to infallible compare
        // operands so every fault still lands on `first.pc`.
        (HostOp::Op3 { op, a, b }, HostOp::Cmp { cond, a: ca, b: cb }) => match (ca, cb) {
            (Src::Accum, c) if infallible(c) => Some(HostOp::Op3Cmp { op, a, b, cond, c }),
            _ => None,
        },
        // read-modify-write then forward the fresh value: the second
        // move re-reads the word the first op just wrote.
        (
            HostOp::Op2Sp { op, off, src },
            HostOp::MovSp {
                off: dst,
                src: Src::Sp(from),
            },
        ) if from == off && dst != off => Some(HostOp::Op2SpMov {
            op,
            off,
            src,
            dst,
            pc2: second.pc,
        }),
        _ => None,
    }
}

/// Lower a decoded host operation into its flat micro-op form.
fn lower(exec: &ExecOp) -> HostOp {
    fn src(o: Operand) -> Option<Src> {
        match o {
            Operand::Imm(v) => Some(Src::Imm(v)),
            Operand::SpOff(off) => Some(Src::Sp(off as u32)),
            Operand::Abs(a) => Some(Src::Abs(a)),
            Operand::Accum => Some(Src::Accum),
            Operand::SpInd(off) => Some(Src::SpInd(off as u32)),
        }
    }
    match *exec {
        ExecOp::Nop => HostOp::Nop,
        ExecOp::Op2 { op, dst, src: s } => match (dst, src(s)) {
            (Operand::SpOff(off), Some(s)) if op == BinOp::Mov => HostOp::MovSp {
                off: off as u32,
                src: s,
            },
            (Operand::SpOff(off), Some(s)) => HostOp::Op2Sp {
                op,
                off: off as u32,
                src: s,
            },
            (Operand::Accum, Some(s)) if op == BinOp::Mov => HostOp::MovAcc { src: s },
            (Operand::Accum, Some(s)) => HostOp::Op2Acc { op, src: s },
            (Operand::Abs(addr), Some(s)) if op == BinOp::Mov => HostOp::MovAbs { addr, src: s },
            (Operand::Abs(addr), Some(s)) => HostOp::Op2Abs { op, addr, src: s },
            _ => HostOp::Generic(*exec),
        },
        ExecOp::Op3 { op, a, b } => match (src(a), src(b)) {
            (Some(a), Some(b)) => HostOp::Op3 { op, a, b },
            _ => HostOp::Generic(*exec),
        },
        ExecOp::Cmp { cond, a, b } => match (src(a), src(b)) {
            (Some(a), Some(b)) => HostOp::Cmp { cond, a, b },
            _ => HostOp::Generic(*exec),
        },
        ExecOp::Enter { bytes } => HostOp::Enter { bytes },
        ExecOp::Leave { bytes } => HostOp::Leave { bytes },
        // Control ops never reach `exec_host` (they classify as
        // terminators); carried only so `lower` is total.
        ExecOp::Halt | ExecOp::CallPush { .. } | ExecOp::RetPop => HostOp::Generic(*exec),
    }
}

/// One straight-line entry of a translated block: the lowered micro-op
/// plus its PC (needed only to reconstruct exact error state; the fast
/// path never touches the architectural PC mid-block).
#[derive(Debug, Clone, Copy)]
struct BodyOp {
    op: HostOp,
    pc: u32,
}

/// How a block ends, specialized at translation time.
#[derive(Debug, Clone, Copy)]
enum TermKind {
    /// `halt`.
    Halt,
    /// Unconditional or sequential exit to one statically-known target.
    /// `succ` is the successor block index + 1 (0 = resolve via table).
    Fixed { target: u32, succ: u32 },
    /// Conditional exit with both paths statically known.
    Cond {
        on_true: bool,
        predict_taken: bool,
        taken_pc: u32,
        seq_pc: u32,
        taken_succ: u32,
        seq_succ: u32,
    },
    /// Anything else (calls, returns, indirect targets): execute the
    /// full decoded entry through [`Machine::execute`].
    General,
}

/// A translated block terminator: the specialization, the lowered host
/// op for the fast path, and the original decoded entry (the `General`
/// kind retires it through [`Machine::execute`] verbatim).
#[derive(Debug, Clone, Copy)]
struct Term {
    d: Decoded,
    host: HostOp,
    kind: TermKind,
}

/// One translated superinstruction block.
#[derive(Debug, Clone)]
struct Block {
    /// Body range into [`TranslatedImage::ops`] (terminator excluded;
    /// melded pairs mean one op can cover two decoded entries).
    ops: (u32, u32),
    /// Histogram-delta range into [`TranslatedImage::deltas`].
    deltas: (u32, u32),
    /// Precomputed [`RunStats`] deltas for one execution of the block
    /// (body + terminator); only `static_mispredicts` stays dynamic.
    entries: u32,
    program_instrs: u32,
    folded: u32,
    transfers: u32,
    cond_branches: u32,
    term: Term,
}

/// A program translated into directly-threaded superinstruction blocks,
/// built once per image × [`FoldPolicy`] and shared via [`Arc`] across
/// pooled campaign machines exactly like the [`PredecodedImage`] it
/// wraps.
#[derive(Debug)]
pub struct TranslatedImage {
    predecoded: Arc<PredecodedImage>,
    /// Slot-indexed (like the predecode table): block index + 1 at a
    /// leader PC, 0 elsewhere.
    block_at: Vec<u32>,
    blocks: Vec<Block>,
    ops: Vec<BodyOp>,
    deltas: Vec<(u8, u32)>,
}

/// The statically-known continuation of an entry the block can run
/// *through*: its host op executes, then control continues at a fixed
/// address (fall-through, or the target of a plain/folded `jmp`).
fn through(d: &Decoded) -> Option<u32> {
    if matches!(
        d.exec,
        ExecOp::Halt | ExecOp::CallPush { .. } | ExecOp::RetPop
    ) {
        return None;
    }
    match d.fold {
        FoldClass::Cond { .. } => None,
        FoldClass::Sequential | FoldClass::Uncond => d.next_pc.known(),
    }
}

/// Specialize a terminator entry.
fn classify_term(d: &Decoded) -> TermKind {
    if matches!(d.exec, ExecOp::Halt) {
        return TermKind::Halt;
    }
    let host_ok = !matches!(d.exec, ExecOp::CallPush { .. } | ExecOp::RetPop);
    match d.fold {
        FoldClass::Cond {
            on_true,
            predict_taken,
        } => match (host_ok, d.cond_paths()) {
            (true, Some((taken_pc, seq_pc))) => TermKind::Cond {
                on_true,
                predict_taken,
                taken_pc,
                seq_pc,
                taken_succ: 0,
                seq_succ: 0,
            },
            _ => TermKind::General,
        },
        FoldClass::Sequential | FoldClass::Uncond => match (host_ok, d.next_pc.known()) {
            (true, Some(target)) => TermKind::Fixed { target, succ: 0 },
            _ => TermKind::General,
        },
    }
}

fn mark_leader(leader: &mut [bool], base: u32, end: u32, pc: u32) {
    if pc >= base && pc < end && pc & 1 == 0 {
        leader[((pc - base) >> 1) as usize] = true;
    }
}

impl TranslatedImage {
    /// Translate every discovered basic block of an already-predecoded
    /// program.
    pub fn from_predecoded(predecoded: Arc<PredecodedImage>) -> TranslatedImage {
        let base = predecoded.base();
        let end = predecoded.end();
        let n = predecoded.len();

        // Pass 1 — leaders: the load entry, every statically-known
        // branch target (taken and alternate), and the fall-through
        // after every terminator. The scan covers *all* parcel-aligned
        // slots, so linearly-laid-out code reached only through jump
        // tables (indirect targets live in data) still gets blocks via
        // its predecessors' fall-throughs.
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for s in 0..n {
            let pc = base + s as u32 * 2;
            if let Some(d) = predecoded.decoded(pc) {
                if through(d).is_none() {
                    mark_leader(&mut leader, base, end, d.seq_pc());
                    if let Some(t) = d.next_pc.known() {
                        mark_leader(&mut leader, base, end, t);
                    }
                    if let Some(a) = d.alt_pc.and_then(|a| a.known()) {
                        mark_leader(&mut leader, base, end, a);
                    }
                }
            }
        }

        // Pass 2 — translate a superblock at each leader.
        let mut img = TranslatedImage {
            predecoded,
            block_at: vec![0; n],
            blocks: Vec::new(),
            ops: Vec::new(),
            deltas: Vec::new(),
        };
        for (s, &is_leader) in leader.iter().enumerate() {
            if !is_leader || img.ops.len() > OPS_BUDGET {
                continue;
            }
            let pc = base + s as u32 * 2;
            if img.translate_block(pc) {
                img.block_at[s] = img.blocks.len() as u32;
            }
        }

        // Pass 3 — chain statically-known successors to block indices.
        for i in 0..img.blocks.len() {
            match img.blocks[i].term.kind {
                TermKind::Fixed { target, .. } => {
                    let succ = img.block_index(target).map_or(0, |b| b + 1);
                    if let TermKind::Fixed {
                        succ: ref mut s, ..
                    } = img.blocks[i].term.kind
                    {
                        *s = succ;
                    }
                }
                TermKind::Cond {
                    taken_pc, seq_pc, ..
                } => {
                    let ts = img.block_index(taken_pc).map_or(0, |b| b + 1);
                    let ss = img.block_index(seq_pc).map_or(0, |b| b + 1);
                    if let TermKind::Cond {
                        taken_succ,
                        seq_succ,
                        ..
                    } = &mut img.blocks[i].term.kind
                    {
                        *taken_succ = ts;
                        *seq_succ = ss;
                    }
                }
                _ => {}
            }
        }
        img
    }

    /// Predecode `machine`'s text under `policy` and translate it.
    pub fn from_machine(machine: &Machine, policy: FoldPolicy) -> TranslatedImage {
        TranslatedImage::from_predecoded(Arc::new(PredecodedImage::from_machine(machine, policy)))
    }

    /// Translate `image` under `policy`, wrapped in an [`Arc`] for
    /// sharing across pooled campaign machines.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::load`].
    pub fn shared(image: &Image, policy: FoldPolicy) -> Result<Arc<TranslatedImage>, SimError> {
        Ok(Arc::new(TranslatedImage::from_predecoded(
            PredecodedImage::shared(image, policy)?,
        )))
    }

    /// The predecode table the translation was built from (and that the
    /// deopt interpreter shares).
    pub fn predecoded(&self) -> &Arc<PredecodedImage> {
        &self.predecoded
    }

    /// The fold policy the program was decoded under.
    pub fn policy(&self) -> FoldPolicy {
        self.predecoded.policy()
    }

    /// Number of translated superinstruction blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Block starting exactly at `pc`, if one was translated there.
    #[inline(always)]
    fn block_index(&self, pc: u32) -> Option<u32> {
        let base = self.predecoded.base();
        if pc < base || pc & 1 != 0 {
            return None;
        }
        match self.block_at.get(((pc - base) >> 1) as usize) {
            Some(&v) if v != 0 => Some(v - 1),
            _ => None,
        }
    }

    /// Walk one superblock starting at `pc`; returns whether a block
    /// was produced (a leader sitting directly on a decode-error slot
    /// or past the end produces none).
    fn translate_block(&mut self, pc: u32) -> bool {
        let mut body: Vec<Decoded> = Vec::new();
        let mut cur = pc;
        let term: Decoded = loop {
            match self.predecoded.get(cur) {
                Some(Ok(d)) => match through(d) {
                    // A capped block demotes the next through-able
                    // entry to a `Fixed` continuation terminator.
                    Some(next) if body.len() + 1 < BLOCK_CAP => {
                        body.push(*d);
                        cur = next;
                    }
                    _ => break *d,
                },
                // Decode-error slot, or the walk ran off the table: end
                // the block on the last through-able entry instead.
                _ => match body.pop() {
                    Some(last) => break last,
                    None => return false,
                },
            }
        };

        let mut program_instrs = 0u32;
        let mut folded = 0u32;
        let mut transfers = 0u32;
        let mut opc = OpcodeCounts::new();
        for d in body.iter().chain(std::iter::once(&term)) {
            program_instrs += 1 + u32::from(d.folded);
            folded += u32::from(d.folded);
            transfers += u32::from(d.fold.is_transfer());
            opc.record(d);
        }

        let ops_start = self.ops.len() as u32;
        for d in &body {
            let op = BodyOp {
                op: lower(&d.exec),
                pc: d.pc,
            };
            match self.ops.last() {
                Some(prev) if self.ops.len() as u32 > ops_start => {
                    if let Some(fused) = meld(prev, &op) {
                        let pc = prev.pc;
                        self.ops.pop();
                        self.ops.push(BodyOp { op: fused, pc });
                        continue;
                    }
                }
                _ => {}
            }
            self.ops.push(op);
        }
        let deltas_start = self.deltas.len() as u32;
        self.deltas.extend(
            opc.sparse()
                .into_iter()
                .map(|(i, n)| (i as u8, u32::try_from(n).expect("block-local count"))),
        );

        self.blocks.push(Block {
            ops: (ops_start, self.ops.len() as u32),
            deltas: (deltas_start, self.deltas.len() as u32),
            entries: body.len() as u32 + 1,
            program_instrs,
            folded,
            transfers,
            cond_branches: u32::from(matches!(term.fold, FoldClass::Cond { .. })),
            term: Term {
                d: term,
                host: lower(&term.exec),
                kind: classify_term(&term),
            },
        });
        true
    }
}

/// A fault from a lowered micro-op. `pc_set` is true when the op
/// already placed the faulting entry's PC (melded pairs whose second
/// entry faulted); otherwise the caller attributes the fault to the
/// op's first PC.
struct HostFault {
    err: SimError,
    pc_set: bool,
}

impl From<SimError> for HostFault {
    fn from(err: SimError) -> HostFault {
        HostFault { err, pc_set: false }
    }
}

/// Interpreter-identical fallback for rare addressing forms: the
/// sequential-semantics arms of [`Machine::execute`] (operand read
/// order preserved, so error identity holds).
fn exec_generic(m: &mut Machine, exec: &ExecOp) -> Result<(), SimError> {
    match *exec {
        ExecOp::Nop => {}
        ExecOp::Op2 { op, dst, src } => {
            let b = m.read_operand(src)?;
            let value = if op == BinOp::Mov {
                b
            } else {
                op.eval(m.read_operand(dst)?, b)
            };
            m.write_operand(dst, value)?;
        }
        ExecOp::Op3 { op, a, b } => {
            let av = m.read_operand(a)?;
            let bv = m.read_operand(b)?;
            m.accum = op.eval(av, bv);
        }
        ExecOp::Cmp { cond, a, b } => {
            let av = m.read_operand(a)?;
            let bv = m.read_operand(b)?;
            m.psw.flag = cond.eval(av, bv);
        }
        ExecOp::Enter { bytes } => m.sp = m.sp.wrapping_sub(bytes),
        ExecOp::Leave { bytes } => m.sp = m.sp.wrapping_add(bytes),
        ExecOp::Halt | ExecOp::CallPush { .. } | ExecOp::RetPop => {
            unreachable!("control ops are never executed as host ops")
        }
    }
    Ok(())
}

/// Execute one lowered micro-op with sequential semantics: no `Step`,
/// no next-PC resolution, no architectural-PC update.
#[inline(always)]
fn exec_host(m: &mut Machine, op: &HostOp) -> Result<(), HostFault> {
    #[inline(always)]
    fn read_src(m: &Machine, s: Src) -> Result<i32, SimError> {
        match s {
            Src::Imm(v) => Ok(v),
            Src::Sp(off) => m.mem.read_word(m.sp.wrapping_add(off)),
            Src::Abs(a) => m.mem.read_word(a),
            Src::SpInd(off) => {
                let ptr = m.mem.read_word(m.sp.wrapping_add(off))?;
                m.mem.read_word(ptr as u32)
            }
            Src::Accum => Ok(m.accum),
        }
    }
    match *op {
        HostOp::Nop => {}
        HostOp::MovSp { off, src } => {
            let v = read_src(m, src)?;
            let addr = m.sp.wrapping_add(off);
            m.mem.write_word(addr, v)?;
        }
        HostOp::Op2Sp { op, off, src } => {
            let b = read_src(m, src)?;
            let addr = m.sp.wrapping_add(off);
            let a = m.mem.read_word(addr)?;
            m.mem.write_word(addr, op.eval(a, b))?;
        }
        HostOp::MovAbs { addr, src } => {
            let v = read_src(m, src)?;
            m.mem.write_word(addr, v)?;
        }
        HostOp::Op2Abs { op, addr, src } => {
            let b = read_src(m, src)?;
            let a = m.mem.read_word(addr)?;
            m.mem.write_word(addr, op.eval(a, b))?;
        }
        HostOp::MovAcc { src } => m.accum = read_src(m, src)?,
        HostOp::Op2Acc { op, src } => {
            let b = read_src(m, src)?;
            m.accum = op.eval(m.accum, b);
        }
        HostOp::Op3 { op, a, b } => {
            let av = read_src(m, a)?;
            let bv = read_src(m, b)?;
            m.accum = op.eval(av, bv);
        }
        HostOp::Cmp { cond, a, b } => {
            let av = read_src(m, a)?;
            let bv = read_src(m, b)?;
            m.psw.flag = cond.eval(av, bv);
        }
        HostOp::Enter { bytes } => m.sp = m.sp.wrapping_sub(bytes),
        HostOp::Leave { bytes } => m.sp = m.sp.wrapping_add(bytes),
        HostOp::Op3Cmp { op, a, b, cond, c } => {
            let av = read_src(m, a)?;
            let bv = read_src(m, b)?;
            m.accum = op.eval(av, bv);
            let cv = read_src(m, c).expect("melded compare operands are infallible");
            m.psw.flag = cond.eval(m.accum, cv);
        }
        HostOp::Op2SpMov {
            op,
            off,
            src,
            dst,
            pc2,
        } => {
            let b = read_src(m, src)?;
            let addr = m.sp.wrapping_add(off);
            let a = m.mem.read_word(addr)?;
            let v = op.eval(a, b);
            m.mem.write_word(addr, v)?;
            if let Err(e) = m.mem.write_word(m.sp.wrapping_add(dst), v) {
                // The first entry committed; the fault belongs to the
                // second entry's PC.
                m.pc = pc2;
                return Err(HostFault {
                    err: e,
                    pc_set: true,
                });
            }
        }
        HostOp::Generic(ref exec) => exec_generic(m, exec)?,
    }
    Ok(())
}

/// How a block execution handed control back.
enum BlockExit {
    Halted,
    /// Chained successor block index (budget still unchecked).
    Chained(u32),
    /// Resolve the next PC through the table (or deopt).
    Fall,
}

#[inline(always)]
fn exec_block(
    m: &mut Machine,
    table: &TranslatedImage,
    blk: &Block,
    stats: &mut RunStats,
) -> Result<BlockExit, SimError> {
    let ops = &table.ops[blk.ops.0 as usize..blk.ops.1 as usize];
    for op in ops {
        if let Err(f) = exec_host(m, &op.op) {
            // Leave the PC where the interpreter would have it.
            if !f.pc_set {
                m.pc = op.pc;
            }
            return Err(f.err);
        }
    }

    let term = &blk.term;
    match term.kind {
        TermKind::Halt => {
            m.halted = true;
            m.pc = term.d.pc;
            Ok(BlockExit::Halted)
        }
        TermKind::Fixed { target, succ } => {
            if let Err(f) = exec_host(m, &term.host) {
                m.pc = term.d.pc;
                return Err(f.err);
            }
            m.pc = target;
            Ok(if succ != 0 {
                BlockExit::Chained(succ - 1)
            } else {
                BlockExit::Fall
            })
        }
        TermKind::Cond {
            on_true,
            predict_taken,
            taken_pc,
            seq_pc,
            taken_succ,
            seq_succ,
        } => {
            if let Err(f) = exec_host(m, &term.host) {
                m.pc = term.d.pc;
                return Err(f.err);
            }
            let taken = m.psw.flag == on_true;
            if taken != predict_taken {
                stats.static_mispredicts += 1;
            }
            let (target, succ) = if taken {
                (taken_pc, taken_succ)
            } else {
                (seq_pc, seq_succ)
            };
            m.pc = target;
            Ok(if succ != 0 {
                BlockExit::Chained(succ - 1)
            } else {
                BlockExit::Fall
            })
        }
        TermKind::General => {
            let step = m.execute(&term.d)?;
            if let (Some(taken), FoldClass::Cond { predict_taken, .. }) = (step.taken, term.d.fold)
            {
                if taken != predict_taken {
                    stats.static_mispredicts += 1;
                }
            }
            Ok(if step.halted {
                BlockExit::Halted
            } else {
                BlockExit::Fall
            })
        }
    }
}

/// The threaded-code functional engine: same inputs, outputs and
/// builder surface as [`FunctionalSim`] minus observation and branch
/// traces, same architectural results and statistics, several times
/// faster on translated code.
#[derive(Debug)]
pub struct ThreadedSim {
    interp: FunctionalSim,
    table: Arc<TranslatedImage>,
    max_steps: u64,
}

impl ThreadedSim {
    /// Wrap a loaded machine with the default (CRISP) fold policy.
    pub fn new(machine: Machine) -> ThreadedSim {
        ThreadedSim::with_policy(machine, FoldPolicy::Host13)
    }

    /// Wrap a loaded machine with an explicit fold policy, translating
    /// its text segment.
    pub fn with_policy(machine: Machine, policy: FoldPolicy) -> ThreadedSim {
        let table = Arc::new(TranslatedImage::from_machine(&machine, policy));
        ThreadedSim::with_translated(machine, table)
    }

    /// Wrap a loaded machine around an already-built translation table
    /// (the fold policy comes from the table). Campaign workers build
    /// the table once per image × policy — translation is paid once,
    /// exactly like the predecode pass it extends.
    pub fn with_translated(machine: Machine, table: Arc<TranslatedImage>) -> ThreadedSim {
        let interp = FunctionalSim::with_predecoded(machine, Arc::clone(table.predecoded()));
        ThreadedSim {
            interp,
            table,
            max_steps: 2_000_000_000,
        }
    }

    /// Set the runaway-program step limit (builder style).
    pub fn max_steps(mut self, limit: u64) -> ThreadedSim {
        self.max_steps = limit;
        self
    }

    /// Run to `halt`, or until `max_steps` expires.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FunctionalSim::run`].
    pub fn run(mut self) -> Result<FunctionalRun, SimError> {
        let table = Arc::clone(&self.table);
        let mut stats = RunStats {
            blocks_translated: table.blocks.len() as u64,
            ..RunStats::default()
        };
        // Never recorded into: the interpreter steps take one.
        let mut trace = Trace::new();
        let max_steps = self.max_steps;
        let mut steps: u64 = 0;
        // Per-block execution counts; folded into `stats` once at run
        // end so a dispatch costs one increment, not a stats replay.
        let mut block_runs = vec![0u64; table.blocks.len()];

        'outer: loop {
            // Fast tier: chained translated blocks. A block runs only
            // when it fits the remaining watchdog budget whole.
            let mut next = table.block_index(self.interp.machine().pc);
            while let Some(bi) = next {
                let blk = &table.blocks[bi as usize];
                if steps + blk.entries as u64 > max_steps {
                    break;
                }
                block_runs[bi as usize] += 1;
                let exit = exec_block(self.interp.machine_mut(), &table, blk, &mut stats)?;
                steps += blk.entries as u64;
                next = match exit {
                    BlockExit::Halted => {
                        return Ok(self.finish(stats, &block_runs, trace, true, HaltReason::Halted))
                    }
                    BlockExit::Chained(n) => Some(n),
                    BlockExit::Fall => table.block_index(self.interp.machine().pc),
                };
            }

            // Slow tier: the one-entry interpreter, until control
            // reaches a runnable leader again (or the budget expires).
            stats.deopt_falls += 1;
            loop {
                if steps >= max_steps {
                    stats.watchdog = true;
                    return Ok(self.finish(stats, &block_runs, trace, false, HaltReason::Watchdog));
                }
                let step = self.interp.interp_step(
                    steps,
                    &mut stats,
                    &mut trace,
                    false,
                    &mut NullObserver,
                )?;
                steps += 1;
                if step.halted {
                    return Ok(self.finish(stats, &block_runs, trace, true, HaltReason::Halted));
                }
                // Rejoin the fast tier only at a block that fits the
                // budget, so control cannot ping-pong between the
                // tiers without progress.
                if let Some(bi) = table.block_index(self.interp.machine().pc) {
                    if steps + table.blocks[bi as usize].entries as u64 <= max_steps {
                        continue 'outer;
                    }
                }
            }
        }
    }

    fn finish(
        self,
        mut stats: RunStats,
        block_runs: &[u64],
        trace: Trace,
        halted: bool,
        halt_reason: HaltReason,
    ) -> FunctionalRun {
        // Fold the deferred per-block statistics: each block's
        // precomputed deltas times its execution count.
        for (blk, &n) in self.table.blocks.iter().zip(block_runs) {
            if n == 0 {
                continue;
            }
            stats.superinstr_dispatches += n;
            stats.entries += n * blk.entries as u64;
            stats.program_instrs += n * blk.program_instrs as u64;
            stats.folded += n * blk.folded as u64;
            stats.transfers += n * blk.transfers as u64;
            stats.cond_branches += n * blk.cond_branches as u64;
            for &(i, c) in &self.table.deltas[blk.deltas.0 as usize..blk.deltas.1 as usize] {
                stats.opcodes.bump_index(i as usize, n * c as u64);
            }
        }
        FunctionalRun {
            machine: self.interp.into_machine(),
            stats,
            trace,
            halted,
            halt_reason,
        }
    }
}

/// First difference between a threaded and an interpreter run of the
/// same image, as a human-readable description (`None` = bit-identical).
pub type ThreadedDivergence = Option<String>;

/// Cross-check the threaded tier against the interpreter on one image.
///
/// One interpreter run and one threaded run — the lowered and melded
/// micro-op path `crisp-run --engine threaded` ships — go to completion
/// with the same step budget, and their errors, or final architectural
/// state, halt disposition and architectural statistics, are compared.
/// Machines are pooled through `bufs` (the `func` slot carries the
/// interpreter, the `cycle` slot the threaded machine) so repeated
/// checks reuse allocations.
///
/// # Errors
///
/// Only [`Machine::load`]-class errors are returned; *runtime* errors
/// from either engine participate in the comparison instead (both
/// engines must produce the identical error).
pub fn verify_threaded_pooled(
    image: &Image,
    table: &Arc<TranslatedImage>,
    max_steps: u64,
    bufs: &mut LockstepBuffers,
) -> Result<ThreadedDivergence, SimError> {
    let interp_machine = reset_or_load(bufs.func.take(), image)?;
    let threaded_machine = reset_or_load(bufs.cycle.take(), image)?;
    let interp_run = FunctionalSim::with_predecoded(interp_machine, Arc::clone(table.predecoded()))
        .max_steps(max_steps)
        .run();
    let threaded_run = ThreadedSim::with_translated(threaded_machine, Arc::clone(table))
        .max_steps(max_steps)
        .run();
    let divergence = outcome_divergence(&interp_run, &threaded_run);
    if let Ok(a) = interp_run {
        bufs.func = Some(a.machine);
    }
    if let Ok(b) = threaded_run {
        bufs.cycle = Some(b.machine);
    }
    Ok(divergence)
}

/// First difference between the interpreter's run and the threaded
/// run: the error, or the final architectural state, halt
/// disposition and architectural statistics. The tier's own counters
/// are additive observability and are normalized out.
fn outcome_divergence(
    interp: &Result<FunctionalRun, SimError>,
    threaded: &Result<FunctionalRun, SimError>,
) -> ThreadedDivergence {
    let (a, b) = match (interp, threaded) {
        (Err(ea), Err(eb)) => {
            return (ea != eb)
                .then(|| format!("errors differ: interp reports {ea}, threaded reports {eb}"));
        }
        (Err(ea), Ok(_)) => return Some(format!("interp errors ({ea}), threaded completes")),
        (Ok(_), Err(eb)) => return Some(format!("threaded errors ({eb}), interp completes")),
        (Ok(a), Ok(b)) => (a, b),
    };
    if a.machine != b.machine {
        return Some("threaded: final architectural state differs".to_string());
    }
    if (a.halted, a.halt_reason) != (b.halted, b.halt_reason) {
        return Some(format!(
            "halt disposition differs: interp {:?}, threaded {:?}",
            (a.halted, a.halt_reason),
            (b.halted, b.halt_reason)
        ));
    }
    let mut normalized = b.stats.clone();
    normalized.blocks_translated = 0;
    normalized.superinstr_dispatches = 0;
    normalized.deopt_falls = 0;
    (normalized != a.stats).then(|| {
        format!(
            "run stats differ: interp {:?}, threaded {normalized:?}",
            a.stats
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_asm::assemble_text;

    fn both(src: &str) -> (FunctionalRun, FunctionalRun) {
        let img = assemble_text(src).unwrap();
        let interp = FunctionalSim::new(Machine::load(&img).unwrap())
            .run()
            .unwrap();
        let threaded = ThreadedSim::new(Machine::load(&img).unwrap())
            .run()
            .unwrap();
        (interp, threaded)
    }

    fn assert_identical(interp: &FunctionalRun, threaded: &FunctionalRun) {
        assert_eq!(interp.machine, threaded.machine);
        assert_eq!(interp.halted, threaded.halted);
        assert_eq!(interp.halt_reason, threaded.halt_reason);
        let mut s = threaded.stats.clone();
        s.blocks_translated = 0;
        s.superinstr_dispatches = 0;
        s.deopt_falls = 0;
        assert_eq!(s, interp.stats);
    }

    #[test]
    fn counted_loop_matches_interpreter() {
        let (i, t) = both(
            "
            mov 0(sp),$0
            mov 4(sp),$0
        top:
            add 4(sp),$2
            add 0(sp),$1
            cmp.s< 0(sp),$10
            ifjmpy.t top
            halt
        ",
        );
        assert_identical(&i, &t);
        assert!(t.stats.blocks_translated > 0);
        assert!(t.stats.superinstr_dispatches >= 10);
        assert_eq!(t.stats.deopt_falls, 0);
    }

    #[test]
    fn superblocks_walk_through_unconditional_jumps() {
        let (i, t) = both(
            "
            mov 0(sp),$0
        top:
            add 0(sp),$1
            and3 0(sp),$1
            cmp.= Accum,$0
            ifjmpy.t even
            add 4(sp),$1
            jmp join
        even:
            add 8(sp),$1
        join:
            cmp.s< 0(sp),$20
            ifjmpy.t top
            halt
        ",
        );
        assert_identical(&i, &t);
        // Superblocks walk through the unconditional `jmp join`, so an
        // iteration costs two dispatches (loop head + one arm).
        assert!(t.stats.superinstr_dispatches <= 2 * 20 + 4);
    }

    #[test]
    fn call_ret_falls_back_and_matches() {
        let (i, t) = both(
            "
            mov *0x8000,$0
        again:
            call f
            cmp.s< *0x8000,$5
            ifjmpy.t again
            halt
        f:  add *0x8000,$1
            ret
        ",
        );
        assert_identical(&i, &t);
        // Calls and returns exit through the general terminator, but
        // the bodies around them still run translated.
        assert!(t.stats.superinstr_dispatches > 0);
    }

    #[test]
    fn indirect_jump_rejoins_translated_code() {
        // First pass falls through, plants 0 (the entry PC) in a jump
        // table and jumps indirect through it — control lands back on a
        // translated leader; the second pass exits.
        let (i, t) = both(
            "
            cmp.s< *0x8000,$1
            ifjmpn.t done
            mov *0x8000,$1
            mov *0x10000,$0
            jmp *0x10000
        done:
            halt
        ",
        );
        assert_identical(&i, &t);
        assert!(t.stats.deopt_falls > 0 || t.stats.superinstr_dispatches > 0);
    }

    #[test]
    fn watchdog_stops_at_exactly_the_limit() {
        let img = assemble_text("top: add 0(sp),$1\njmp top").unwrap();
        for limit in [0u64, 1, 2, 3, 7, 100, 101] {
            let i = FunctionalSim::new(Machine::load(&img).unwrap())
                .max_steps(limit)
                .run()
                .unwrap();
            let t = ThreadedSim::new(Machine::load(&img).unwrap())
                .max_steps(limit)
                .run()
                .unwrap();
            assert_eq!(t.stats.entries, limit, "limit {limit}");
            assert_eq!(t.halt_reason, HaltReason::Watchdog);
            assert_identical(&i, &t);
        }
    }

    #[test]
    fn decode_error_reported_identically() {
        let img = assemble_text("jmp d\nd: .word 0x0000B800").unwrap();
        let ei = FunctionalSim::new(Machine::load(&img).unwrap())
            .run()
            .unwrap_err();
        let et = ThreadedSim::new(Machine::load(&img).unwrap())
            .run()
            .unwrap_err();
        assert_eq!(ei, et);
    }

    #[test]
    fn store_into_text_matches_interpreter() {
        // The store lands inside the loop's own code range. Both tiers
        // decode from the immutable predecode table, so it changes
        // nothing either executes.
        let (i, t) = both(
            "
            mov 0(sp),$0
        top:
            mov *4,$0
            add 0(sp),$1
            cmp.s< 0(sp),$3
            ifjmpy.t top
            halt
        ",
        );
        assert_identical(&i, &t);
    }

    #[test]
    fn pooled_verify_agrees_and_returns_machines() {
        let img = assemble_text(
            "
            mov 0(sp),$0
        top:
            add 0(sp),$1
            cmp.s< 0(sp),$6
            ifjmpy.t top
            call f
            halt
        f:  enter 8
            leave 8
            ret
        ",
        )
        .unwrap();
        let table = TranslatedImage::shared(&img, FoldPolicy::Host13).unwrap();
        let mut bufs = LockstepBuffers::default();
        let diff = verify_threaded_pooled(&img, &table, 1_000_000, &mut bufs).unwrap();
        assert_eq!(diff, None);
        // Pooled machines came back for reuse.
        assert!(bufs.func.is_some() && bufs.cycle.is_some());
    }

    #[test]
    fn translation_is_shared_across_machines() {
        let img = assemble_text("mov 0(sp),$1\nhalt").unwrap();
        let table = TranslatedImage::shared(&img, FoldPolicy::Host13).unwrap();
        assert!(table.block_count() > 0);
        for _ in 0..3 {
            let r = ThreadedSim::with_translated(Machine::load(&img).unwrap(), Arc::clone(&table))
                .run()
                .unwrap();
            assert!(r.halted);
            assert_eq!(r.stats.blocks_translated, table.block_count() as u64);
        }
    }

    #[test]
    fn engine_parses_cli_spellings() {
        assert_eq!(Engine::parse("interp"), Some(Engine::Interp));
        assert_eq!(Engine::parse("threaded"), Some(Engine::Threaded));
        assert_eq!(Engine::parse("jit"), None);
    }
}
