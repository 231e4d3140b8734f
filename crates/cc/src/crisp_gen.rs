//! CRISP code generation from the mini-C AST.
//!
//! The generated code follows the idioms visible in the paper's Table 3
//! listing: locals live in SP-relative stack slots, expression
//! temporaries flow through the accumulator (`and3 i,1`), truth tests
//! compile to `cmp.= Accum,0` + `ifjmpy`, and loops test at the bottom
//! with a backward conditional branch (plus one entry jump to the test),
//! which is what makes the Table 2 dynamic counts line up with the
//! paper's.
//!
//! Calling convention: the caller allocates an argument block
//! (`enter 4·n`), stores the arguments, and `call`s; the callee
//! allocates its frame (`enter L`) on top, so inside the callee the
//! layout is `[locals+temps: 0..L) [return address: L] [args: L+4...]`.
//! Return values travel in the accumulator.

use std::collections::BTreeMap;

use crisp_asm::{Image, Item, Module};
use crisp_isa::{BinOp, Cond, Instr, Operand};

use crate::ast::{BinaryOp, Expr, Function, Item as AstItem, LValue, Stmt, Unit};
use crate::spread::{self, RwSets};
use crate::CcError;

/// Sentinel byte-offset base marking parameter accesses until the frame
/// size is known (rewritten in [`finish_function`]).
const PARAM_BASE: i32 = 0x0010_0000;

/// Generate a [`Module`] (assembly items + data blocks) for a unit.
///
/// The module starts with an entry stub (`call main; halt`) followed by
/// each function. Global data is laid out from
/// [`Image::DEFAULT_DATA_BASE`]. When `spread` is on, statement fill is
/// applied during generation (see [`crate::spread`]): statements that
/// follow an `if` and commute with its arms are emitted between the
/// compare and the conditional branch.
///
/// # Errors
///
/// [`CcError::Sema`] for name errors, [`CcError::Unsupported`] for
/// constructs outside the mini-C subset.
pub fn generate(unit: &Unit, spread: bool) -> Result<Module, CcError> {
    let mut g = CrispGen::new(unit, spread)?;
    if unit.function("main").is_none() {
        return Err(CcError::Sema {
            message: "no `main` function defined".into(),
        });
    }
    // Entry stub.
    g.items.push(Item::CallTo {
        label: "main".into(),
    });
    g.items.push(Item::Instr(Instr::Halt));
    for item in &unit.items {
        if let AstItem::Function(f) = item {
            g.function(f)?;
        }
    }
    let mut module = Module::new();
    module.items = g.items;
    module.data = g.data;
    Ok(module)
}

/// Where a value currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    /// A compile-time constant.
    Imm(i32),
    /// A named local / parameter slot (not owned).
    Slot(i32),
    /// An owned temporary slot (freed after use).
    Temp(i32),
    /// A global scalar.
    Global(u32),
    /// The accumulator.
    Accum,
    /// Indirect through an owned temporary holding an address.
    Ind(i32),
}

struct GlobalInfo {
    addr: u32,
    /// Element count; scalars have 1 and may not be indexed.
    len: u32,
}

struct FuncCtx {
    /// Lexical scopes: name → slot byte offset (or `PARAM_BASE + 4i`).
    scopes: Vec<BTreeMap<String, i32>>,
    /// Next fresh local/temp slot offset.
    next_slot: i32,
    /// Free temp slots for reuse.
    free_temps: Vec<i32>,
    /// Current SP displacement from the frame base (inside a call's
    /// argument window).
    sp_adjust: i32,
    /// `break` targets, innermost last (loops and switches).
    break_labels: Vec<String>,
    /// `continue` targets, innermost last (loops only).
    continue_labels: Vec<String>,
    /// Item indices of `Enter`/`Leave` placeholders to patch with the
    /// final frame size.
    frame_patches: Vec<usize>,
    returns_value: bool,
    fname: String,
}

struct CrispGen<'a> {
    unit: &'a Unit,
    items: Vec<Item>,
    globals: BTreeMap<String, GlobalInfo>,
    data: Vec<(u32, Vec<i32>)>,
    next_label: usize,
    spread: bool,
}

impl<'a> CrispGen<'a> {
    fn new(unit: &'a Unit, spread: bool) -> Result<CrispGen<'a>, CcError> {
        let mut globals = BTreeMap::new();
        let mut data = Vec::new();
        let mut addr = Image::DEFAULT_DATA_BASE;
        for item in &unit.items {
            match item {
                AstItem::Global { name, init } => {
                    if globals.contains_key(name) {
                        return Err(CcError::Sema {
                            message: format!("duplicate global `{name}`"),
                        });
                    }
                    if let Some(v) = init {
                        data.push((addr, vec![*v]));
                    }
                    globals.insert(name.clone(), GlobalInfo { addr, len: 1 });
                    addr += 4;
                }
                AstItem::Array { name, len, init } => {
                    if globals.contains_key(name) {
                        return Err(CcError::Sema {
                            message: format!("duplicate global `{name}`"),
                        });
                    }
                    if !init.is_empty() {
                        data.push((addr, init.clone()));
                    }
                    globals.insert(name.clone(), GlobalInfo { addr, len: *len });
                    addr += len * 4;
                }
                AstItem::Function(_) => {}
            }
        }
        Ok(CrispGen {
            unit,
            items: Vec::new(),
            globals,
            data,
            next_label: 0,
            spread,
        })
    }

    fn fresh_label(&mut self, stem: &str) -> String {
        self.next_label += 1;
        format!(".L{}_{stem}", self.next_label)
    }

    fn emit(&mut self, instr: Instr) {
        self.items.push(Item::Instr(instr));
    }

    fn sema<T>(&self, message: impl Into<String>) -> Result<T, CcError> {
        Err(CcError::Sema {
            message: message.into(),
        })
    }

    // ---- frame management ----

    fn alloc_temp(&mut self, f: &mut FuncCtx) -> i32 {
        if let Some(t) = f.free_temps.pop() {
            return t;
        }
        let t = f.next_slot;
        f.next_slot += 4;
        t
    }

    fn free(&mut self, f: &mut FuncCtx, v: Val) {
        match v {
            Val::Temp(t) | Val::Ind(t) => f.free_temps.push(t),
            _ => {}
        }
    }

    /// The machine operand for a value, adjusted for the current SP
    /// displacement.
    fn operand(&self, f: &FuncCtx, v: Val) -> Operand {
        match v {
            Val::Imm(i) => Operand::Imm(i),
            Val::Slot(off) | Val::Temp(off) => Operand::SpOff(off + f.sp_adjust),
            Val::Global(a) => Operand::Abs(a),
            Val::Accum => Operand::Accum,
            Val::Ind(t) => Operand::SpInd(t + f.sp_adjust),
        }
    }

    /// Spill the accumulator into a fresh temp if `v` lives there.
    fn shelter(&mut self, f: &mut FuncCtx, v: Val) -> Val {
        if v == Val::Accum {
            let t = self.alloc_temp(f);
            let dst = self.operand(f, Val::Temp(t));
            self.emit(Instr::Op2 {
                op: BinOp::Mov,
                dst,
                src: Operand::Accum,
            });
            Val::Temp(t)
        } else {
            v
        }
    }

    /// Whether evaluating `e` can clobber the accumulator.
    fn clobbers_accum(e: &Expr) -> bool {
        !matches!(e, Expr::Lit(_) | Expr::Load(LValue::Var(_)))
    }

    /// An operand pairing is unencodable when a stack-indirect operand
    /// meets one needing 32-bit extensions; materialise the wide one.
    fn legalize_src(&mut self, f: &mut FuncCtx, other: Operand, v: Val) -> Val {
        let wide = |op: Operand| {
            matches!(op, Operand::Abs(_))
                || matches!(op, Operand::Imm(i) if i16::try_from(i).is_err())
        };
        let vo = self.operand(f, v);
        let clash = (matches!(vo, Operand::SpInd(_)) && wide(other))
            || (matches!(other, Operand::SpInd(_)) && wide(vo));
        if !clash {
            return v;
        }
        // Move the offending value into a plain stack temp.
        let t = self.alloc_temp(f);
        let dst = self.operand(f, Val::Temp(t));
        self.emit(Instr::Op2 {
            op: BinOp::Mov,
            dst,
            src: vo,
        });
        self.free(f, v);
        Val::Temp(t)
    }

    // ---- name resolution ----

    fn lookup(&self, f: &FuncCtx, name: &str) -> Option<Val> {
        for scope in f.scopes.iter().rev() {
            if let Some(&off) = scope.get(name) {
                return Some(Val::Slot(off));
            }
        }
        self.globals
            .get(name)
            .filter(|g| g.len == 1)
            .map(|g| Val::Global(g.addr))
    }

    /// Resolve an lvalue to a writable value (allocating an address temp
    /// for array elements).
    fn lvalue(&mut self, f: &mut FuncCtx, lv: &LValue) -> Result<Val, CcError> {
        match lv {
            LValue::Var(name) => match self.lookup(f, name) {
                Some(v) => Ok(v),
                None => {
                    if self.globals.contains_key(name) {
                        self.sema(format!("array `{name}` used as a scalar"))
                    } else {
                        self.sema(format!("undefined variable `{name}`"))
                    }
                }
            },
            LValue::Index(name, idx) => {
                let info = match self.globals.get(name) {
                    Some(info) if info.len > 1 => (info.addr, info.len),
                    Some(_) => return self.sema(format!("`{name}` is not an array")),
                    None => {
                        return if f.scopes.iter().any(|s| s.contains_key(name)) {
                            self.sema(format!("`{name}` is not an array (arrays must be global)"))
                        } else {
                            self.sema(format!("undefined array `{name}`"))
                        }
                    }
                };
                let iv = self.eval(f, idx)?;
                // Accum = idx << 2; Accum += base; temp = Accum.
                let iop = self.operand(f, iv);
                self.emit(Instr::Op3 {
                    op: BinOp::Shl,
                    a: iop,
                    b: Operand::Imm(2),
                });
                self.free(f, iv);
                self.emit(Instr::Op3 {
                    op: BinOp::Add,
                    a: Operand::Accum,
                    b: Operand::Imm(info.0 as i32),
                });
                let t = self.alloc_temp(f);
                let dst = self.operand(f, Val::Temp(t));
                self.emit(Instr::Op2 {
                    op: BinOp::Mov,
                    dst,
                    src: Operand::Accum,
                });
                Ok(Val::Ind(t))
            }
        }
    }

    // ---- expressions ----

    fn binop(op: BinaryOp) -> Option<BinOp> {
        Some(match op {
            BinaryOp::Add => BinOp::Add,
            BinaryOp::Sub => BinOp::Sub,
            BinaryOp::Mul => BinOp::Mul,
            BinaryOp::Div => BinOp::Div,
            BinaryOp::Rem => BinOp::Rem,
            BinaryOp::And => BinOp::And,
            BinaryOp::Or => BinOp::Or,
            BinaryOp::Xor => BinOp::Xor,
            BinaryOp::Shl => BinOp::Shl,
            BinaryOp::Shr => BinOp::Sar, // C `>>` on int: arithmetic
            _ => return None,
        })
    }

    fn cond_of(op: BinaryOp) -> Cond {
        match op {
            BinaryOp::Lt => Cond::LtS,
            BinaryOp::Le => Cond::LeS,
            BinaryOp::Gt => Cond::GtS,
            BinaryOp::Ge => Cond::GeS,
            BinaryOp::Eq => Cond::Eq,
            BinaryOp::Ne => Cond::Ne,
            _ => unreachable!("cond_of on non-comparison"),
        }
    }

    fn eval(&mut self, f: &mut FuncCtx, e: &Expr) -> Result<Val, CcError> {
        match e {
            Expr::Lit(v) => Ok(Val::Imm(*v)),
            Expr::Load(lv) => self.lvalue(f, lv),
            Expr::Unary(op, inner) => {
                let v = self.eval(f, inner)?;
                match op {
                    crate::ast::UnaryOp::Neg => {
                        let vo = self.operand(f, v);
                        self.emit(Instr::Op3 {
                            op: BinOp::Sub,
                            a: Operand::Imm(0),
                            b: vo,
                        });
                        self.free(f, v);
                        Ok(Val::Accum)
                    }
                    crate::ast::UnaryOp::Not => {
                        let vo = self.operand(f, v);
                        let v2 = self.legalize_src(f, Operand::Imm(-1), v);
                        let vo = if v2 == v { vo } else { self.operand(f, v2) };
                        self.emit(Instr::Op3 {
                            op: BinOp::Xor,
                            a: vo,
                            b: Operand::Imm(-1),
                        });
                        self.free(f, v2);
                        Ok(Val::Accum)
                    }
                    crate::ast::UnaryOp::LogNot => self.truth_value(f, e.clone()),
                }
            }
            Expr::Binary(op, a, b) => {
                if op.is_comparison() || matches!(op, BinaryOp::LogAnd | BinaryOp::LogOr) {
                    return self.truth_value(f, e.clone());
                }
                let machine_op = Self::binop(*op).expect("arith op");
                let mut va = self.eval(f, a)?;
                if Self::clobbers_accum(b) {
                    va = self.shelter(f, va);
                }
                let vb = self.eval(f, b)?;
                let (va, vb) = self.legalize_two(f, va, vb);
                let ao = self.operand(f, va);
                let bo = self.operand(f, vb);
                self.emit(Instr::Op3 {
                    op: machine_op,
                    a: ao,
                    b: bo,
                });
                self.free(f, va);
                self.free(f, vb);
                Ok(Val::Accum)
            }
            Expr::Assign(lv, rhs) => {
                let mut v = self.eval(f, rhs)?;
                if matches!(lv, LValue::Index(..)) {
                    // Address computation below runs through the
                    // accumulator; protect the RHS value first.
                    v = self.shelter(f, v);
                }
                let loc = self.lvalue(f, lv)?;
                let lo = self.operand(f, loc);
                let v = self.legalize_src(f, lo, v);
                let vo = self.operand(f, v);
                self.emit(Instr::Op2 {
                    op: BinOp::Mov,
                    dst: lo,
                    src: vo,
                });
                self.free(f, v);
                Ok(loc)
            }
            Expr::AssignOp(op, lv, rhs) => {
                let machine_op = match Self::binop(*op) {
                    Some(m) => m,
                    None => {
                        return self.sema("compound assignment requires an arithmetic operator")
                    }
                };
                let mut v = self.eval(f, rhs)?;
                if matches!(lv, LValue::Index(..)) {
                    v = self.shelter(f, v);
                }
                let loc = self.lvalue(f, lv)?;
                let lo = self.operand(f, loc);
                let v = self.legalize_src(f, lo, v);
                let vo = self.operand(f, v);
                self.emit(Instr::Op2 {
                    op: machine_op,
                    dst: lo,
                    src: vo,
                });
                self.free(f, v);
                Ok(loc)
            }
            Expr::IncDec { lv, delta, post } => {
                let loc = self.lvalue(f, lv)?;
                let lo = self.operand(f, loc);
                let old = if *post {
                    let t = self.alloc_temp(f);
                    let to = self.operand(f, Val::Temp(t));
                    self.emit(Instr::Op2 {
                        op: BinOp::Mov,
                        dst: to,
                        src: lo,
                    });
                    Some(Val::Temp(t))
                } else {
                    None
                };
                self.emit(Instr::Op2 {
                    op: if *delta >= 0 { BinOp::Add } else { BinOp::Sub },
                    dst: lo,
                    src: Operand::Imm(delta.abs()),
                });
                match old {
                    Some(t) => {
                        self.free(f, loc);
                        Ok(t)
                    }
                    None => Ok(loc),
                }
            }
            Expr::Call(name, args) => self.call(f, name, args),
            Expr::Cond(c, a, b) => {
                let lf = self.fresh_label("cfalse");
                let le = self.fresh_label("cend");
                let t = self.alloc_temp(f);
                self.branch_cond(f, c, &lf, false, &[])?;
                let va = self.eval(f, a)?;
                let to = self.operand(f, Val::Temp(t));
                let vo = self.operand(f, va);
                self.emit(Instr::Op2 {
                    op: BinOp::Mov,
                    dst: to,
                    src: vo,
                });
                self.free(f, va);
                self.items.push(Item::JmpTo { label: le.clone() });
                self.items.push(Item::Label(lf));
                let vb = self.eval(f, b)?;
                let to = self.operand(f, Val::Temp(t));
                let vo = self.operand(f, vb);
                self.emit(Instr::Op2 {
                    op: BinOp::Mov,
                    dst: to,
                    src: vo,
                });
                self.free(f, vb);
                self.items.push(Item::Label(le));
                Ok(Val::Temp(t))
            }
        }
    }

    /// Evaluate an expression whose value is discarded (an expression
    /// statement or a `for` step). Post-increment then needs no
    /// old-value save — `i++` is a single `add i,$1`, as in the paper's
    /// listing.
    fn eval_discard(&mut self, f: &mut FuncCtx, e: &Expr) -> Result<(), CcError> {
        if let Expr::IncDec { lv, delta, .. } = e {
            let loc = self.lvalue(f, lv)?;
            let lo = self.operand(f, loc);
            self.emit(Instr::Op2 {
                op: if *delta >= 0 { BinOp::Add } else { BinOp::Sub },
                dst: lo,
                src: Operand::Imm(delta.abs()),
            });
            self.free(f, loc);
            return Ok(());
        }
        let v = self.eval(f, e)?;
        self.free(f, v);
        Ok(())
    }

    /// Legalize a two-source pairing (for `Op3`/`Cmp`).
    fn legalize_two(&mut self, f: &mut FuncCtx, a: Val, b: Val) -> (Val, Val) {
        let bo = self.operand(f, b);
        let a = self.legalize_src(f, bo, a);
        let ao = self.operand(f, a);
        let b = self.legalize_src(f, ao, b);
        (a, b)
    }

    /// Materialise the truth value (0/1) of an expression in the
    /// accumulator via branches.
    fn truth_value(&mut self, f: &mut FuncCtx, e: Expr) -> Result<Val, CcError> {
        let lf = self.fresh_label("false");
        let le = self.fresh_label("end");
        self.branch_cond(f, &e, &lf, false, &[])?;
        self.emit(Instr::Op2 {
            op: BinOp::Mov,
            dst: Operand::Accum,
            src: Operand::Imm(1),
        });
        self.items.push(Item::JmpTo { label: le.clone() });
        self.items.push(Item::Label(lf));
        self.emit(Instr::Op2 {
            op: BinOp::Mov,
            dst: Operand::Accum,
            src: Operand::Imm(0),
        });
        self.items.push(Item::Label(le));
        Ok(Val::Accum)
    }

    /// Compile `e` as a condition: branch to `target` when the truth of
    /// `e` equals `jump_if`, emitting `fill` between the compare and the
    /// branch (callers guarantee legality; [`Self::simple_cond`] keeps
    /// fill away from literals, `&&` and `||`, which compile it nowhere).
    /// Prediction bits are set later by the prediction pass; they
    /// default to taken.
    fn branch_cond(
        &mut self,
        f: &mut FuncCtx,
        e: &Expr,
        target: &str,
        jump_if: bool,
        fill: &[&Stmt],
    ) -> Result<(), CcError> {
        match e {
            Expr::Lit(v) => {
                if (*v != 0) == jump_if {
                    self.items.push(Item::JmpTo {
                        label: target.to_owned(),
                    });
                }
                Ok(())
            }
            Expr::Unary(crate::ast::UnaryOp::LogNot, inner) => {
                self.branch_cond(f, inner, target, !jump_if, fill)
            }
            Expr::Binary(op, a, b) if op.is_comparison() => {
                let mut va = self.eval(f, a)?;
                if Self::clobbers_accum(b) {
                    va = self.shelter(f, va);
                }
                let vb = self.eval(f, b)?;
                let (va, vb) = self.legalize_two(f, va, vb);
                let ao = self.operand(f, va);
                let bo = self.operand(f, vb);
                self.emit(Instr::Cmp {
                    cond: Self::cond_of(*op),
                    a: ao,
                    b: bo,
                });
                self.free(f, va);
                self.free(f, vb);
                for s in fill {
                    self.stmt(f, s)?;
                }
                self.items.push(Item::IfJmpTo {
                    on_true: jump_if,
                    predict_taken: true,
                    label: target.to_owned(),
                });
                Ok(())
            }
            Expr::Binary(BinaryOp::LogAnd, a, b) => {
                if jump_if {
                    let skip = self.fresh_label("and");
                    self.branch_cond(f, a, &skip, false, &[])?;
                    self.branch_cond(f, b, target, true, &[])?;
                    self.items.push(Item::Label(skip));
                } else {
                    self.branch_cond(f, a, target, false, &[])?;
                    self.branch_cond(f, b, target, false, &[])?;
                }
                Ok(())
            }
            Expr::Binary(BinaryOp::LogOr, a, b) => {
                if jump_if {
                    self.branch_cond(f, a, target, true, &[])?;
                    self.branch_cond(f, b, target, true, &[])?;
                } else {
                    let skip = self.fresh_label("or");
                    self.branch_cond(f, a, &skip, true, &[])?;
                    self.branch_cond(f, b, target, false, &[])?;
                    self.items.push(Item::Label(skip));
                }
                Ok(())
            }
            _ => {
                // Truthiness test, in the paper's idiom:
                // `cmp.= v,0` then branch on the flag.
                let v = self.eval(f, e)?;
                let v = self.legalize_src(f, Operand::Imm(0), v);
                let vo = self.operand(f, v);
                // The fill must not clobber the accumulator while it
                // still holds the tested value — compare first.
                self.emit(Instr::Cmp {
                    cond: Cond::Eq,
                    a: vo,
                    b: Operand::Imm(0),
                });
                self.free(f, v);
                for s in fill {
                    self.stmt(f, s)?;
                }
                // flag true ⟺ e == 0 ⟺ e is false.
                self.items.push(Item::IfJmpTo {
                    on_true: !jump_if,
                    predict_taken: true,
                    label: target.to_owned(),
                });
                Ok(())
            }
        }
    }

    fn call(&mut self, f: &mut FuncCtx, name: &str, args: &[Expr]) -> Result<Val, CcError> {
        let Some(callee) = self.unit.function(name) else {
            return self.sema(format!("call to undefined function `{name}`"));
        };
        if callee.params.len() != args.len() {
            return self.sema(format!(
                "`{name}` takes {} argument(s), {} given",
                callee.params.len(),
                args.len()
            ));
        }
        // Evaluate arguments into temps (left to right).
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            let v = self.eval(f, a)?;
            let v = match v {
                Val::Imm(_) | Val::Temp(_) | Val::Slot(_) => v,
                _ => {
                    // Materialise accumulator / globals / indirects: the
                    // fill loop below must not clobber them.
                    let t = self.alloc_temp(f);
                    let to = self.operand(f, Val::Temp(t));
                    let vo = self.operand(f, v);
                    self.emit(Instr::Op2 {
                        op: BinOp::Mov,
                        dst: to,
                        src: vo,
                    });
                    self.free(f, v);
                    Val::Temp(t)
                }
            };
            vals.push(v);
        }
        let block = 4 * args.len() as u32;
        if !args.is_empty() {
            self.emit(Instr::Enter { bytes: block });
            f.sp_adjust += block as i32;
            for (i, v) in vals.iter().enumerate() {
                let vo = self.operand(f, *v);
                self.emit(Instr::Op2 {
                    op: BinOp::Mov,
                    dst: Operand::SpOff(4 * i as i32),
                    src: vo,
                });
            }
        }
        self.items.push(Item::CallTo {
            label: name.to_owned(),
        });
        if !args.is_empty() {
            f.sp_adjust -= block as i32;
            self.emit(Instr::Leave { bytes: block });
        }
        for v in vals {
            self.free(f, v);
        }
        Ok(Val::Accum)
    }

    // ---- statements ----

    /// Whether a condition expression compiles to a single
    /// compare+branch pair (the only shape statement fill can target).
    fn simple_cond(e: &Expr) -> bool {
        match e {
            Expr::Unary(crate::ast::UnaryOp::LogNot, inner) => Self::simple_cond(inner),
            Expr::Lit(_) => false,
            Expr::Binary(op, ..) => {
                op.is_comparison() || !matches!(op, BinaryOp::LogAnd | BinaryOp::LogOr)
            }
            _ => true,
        }
    }

    /// Whether a `for` loop's first condition test is statically true:
    /// the init assigns a constant to a scalar and the condition
    /// compares that same scalar against a constant.
    fn entry_cond_known_true(init: &Stmt, cond: &Expr) -> bool {
        let assigned: Option<(&str, i32)> = match init {
            Stmt::Expr(Expr::Assign(LValue::Var(name), rhs)) => match rhs.as_ref() {
                Expr::Lit(v) => Some((name.as_str(), *v)),
                _ => None,
            },
            Stmt::Decl(decls) => match decls.as_slice() {
                [(name, Some(Expr::Lit(v)))] => Some((name.as_str(), *v)),
                _ => None,
            },
            _ => None,
        };
        let Some((var, value)) = assigned else {
            return false;
        };
        let Expr::Binary(op, a, b) = cond else {
            return false;
        };
        if !op.is_comparison() {
            return false;
        }
        let (lhs_is_var, lit) = match (a.as_ref(), b.as_ref()) {
            (Expr::Load(LValue::Var(n)), Expr::Lit(k)) if n == var => (true, *k),
            (Expr::Lit(k), Expr::Load(LValue::Var(n))) if n == var => (false, *k),
            _ => return false,
        };
        let (x, y) = if lhs_is_var {
            (value, lit)
        } else {
            (lit, value)
        };
        match op {
            BinaryOp::Lt => x < y,
            BinaryOp::Le => x <= y,
            BinaryOp::Gt => x > y,
            BinaryOp::Ge => x >= y,
            BinaryOp::Eq => x == y,
            BinaryOp::Ne => x != y,
            _ => false,
        }
    }

    /// Generate a statement sequence, applying Branch Spreading's
    /// statement fill to `if` statements when enabled. `step` is the
    /// enclosing `for` loop's step expression, offered for pulling into
    /// a fill when the sequence is the loop body and nothing remains
    /// after the consumed prefix; returns whether the step was consumed.
    fn stmt_seq(
        &mut self,
        f: &mut FuncCtx,
        stmts: &[Stmt],
        step: Option<&Expr>,
    ) -> Result<bool, CcError> {
        let mut consumed_step = false;
        let mut k = 0;
        while k < stmts.len() {
            if self.spread && !consumed_step {
                if let Stmt::If(cond, then, els) = &stmts[k] {
                    if let Some((fill, next_k, took_step)) =
                        Self::plan_fill(cond, then, els.as_deref(), &stmts[k + 1..], step)
                    {
                        let fill: Vec<Stmt> = fill.into_iter().cloned().collect();
                        let mut fill_refs: Vec<&Stmt> = fill.iter().collect();
                        let step_stmt;
                        if took_step {
                            step_stmt = Stmt::Expr(step.expect("took_step implies step").clone());
                            fill_refs.push(&step_stmt);
                        }
                        self.gen_if(f, cond, then, els.as_deref(), &fill_refs)?;
                        consumed_step |= took_step;
                        k += 1 + next_k;
                        continue;
                    }
                }
            }
            self.stmt(f, &stmts[k])?;
            k += 1;
        }
        Ok(consumed_step)
    }

    /// Decide which trailing statements (and possibly the loop step) can
    /// fill the compare→branch gap of an `if`. Returns the chosen
    /// statements, how many were consumed from `rest`, and whether the
    /// step was taken.
    fn plan_fill<'s>(
        cond: &Expr,
        then: &Stmt,
        els: Option<&Stmt>,
        rest: &'s [Stmt],
        step: Option<&Expr>,
    ) -> Option<(Vec<&'s Stmt>, usize, bool)> {
        if !Self::simple_cond(cond) {
            return None;
        }
        // Arms must rejoin (no side exits) and be analyzable.
        if spread::has_side_exit(then) || els.is_some_and(spread::has_side_exit) {
            return None;
        }
        let mut arms_rw = spread::stmt_rw(then)?;
        if let Some(els) = els {
            let e = spread::stmt_rw(els)?;
            arms_rw = {
                let mut a = arms_rw;
                a.reads.extend(e.reads);
                a.writes.extend(e.writes);
                a
            };
        }
        let movable = |s: &Stmt, arms: &RwSets| -> bool {
            spread::is_fill_candidate(s) && spread::stmt_rw(s).is_some_and(|rw| rw.commutes(arms))
        };
        let mut fill: Vec<&Stmt> = Vec::new();
        let mut taken = 0usize;
        for s in rest {
            if fill.len() >= spread::SPREAD_DISTANCE || !movable(s, &arms_rw) {
                break;
            }
            fill.push(s);
            taken += 1;
        }
        let mut took_step = false;
        if taken == rest.len() && fill.len() < spread::SPREAD_DISTANCE {
            if let Some(se) = step {
                let s = Stmt::Expr(se.clone());
                if movable(&s, &arms_rw) {
                    took_step = true;
                }
            }
        }
        if fill.is_empty() && !took_step {
            return None;
        }
        Some((fill, taken, took_step))
    }

    /// Generate an `if`, emitting `fill` between the compare and the
    /// conditional branch (callers guarantee legality).
    fn gen_if(
        &mut self,
        f: &mut FuncCtx,
        cond: &Expr,
        then: &Stmt,
        els: Option<&Stmt>,
        fill: &[&Stmt],
    ) -> Result<(), CcError> {
        let lelse = self.fresh_label("else");
        let lend = self.fresh_label("endif");
        self.branch_cond(f, cond, &lelse, false, fill)?;
        self.stmt(f, then)?;
        if let Some(els) = els {
            self.items.push(Item::JmpTo {
                label: lend.clone(),
            });
            self.items.push(Item::Label(lelse));
            self.stmt(f, els)?;
            self.items.push(Item::Label(lend));
        } else {
            self.items.push(Item::Label(lelse));
        }
        Ok(())
    }

    fn stmt(&mut self, f: &mut FuncCtx, s: &Stmt) -> Result<(), CcError> {
        match s {
            Stmt::Empty => Ok(()),
            Stmt::Block(body) => {
                f.scopes.push(BTreeMap::new());
                self.stmt_seq(f, body, None)?;
                f.scopes.pop();
                Ok(())
            }
            Stmt::Decl(decls) => {
                for (name, init) in decls {
                    let off = f.next_slot;
                    f.next_slot += 4;
                    let scope = f.scopes.last_mut().expect("scope stack non-empty");
                    if scope.insert(name.clone(), off).is_some() {
                        return self.sema(format!("duplicate local `{name}`"));
                    }
                    if let Some(e) = init {
                        let v = self.eval(f, e)?;
                        let dst = self.operand(f, Val::Slot(off));
                        let v = self.legalize_src(f, dst, v);
                        let vo = self.operand(f, v);
                        self.emit(Instr::Op2 {
                            op: BinOp::Mov,
                            dst,
                            src: vo,
                        });
                        self.free(f, v);
                    }
                }
                Ok(())
            }
            Stmt::Expr(e) => self.eval_discard(f, e),
            Stmt::If(cond, then, els) => self.gen_if(f, cond, then, els.as_deref(), &[]),
            Stmt::While(cond, body) => {
                let ltest = self.fresh_label("wtest");
                let lbody = self.fresh_label("wbody");
                let lexit = self.fresh_label("wexit");
                self.items.push(Item::JmpTo {
                    label: ltest.clone(),
                });
                self.items.push(Item::Label(lbody.clone()));
                f.break_labels.push(lexit.clone());
                f.continue_labels.push(ltest.clone());
                self.stmt(f, body)?;
                f.continue_labels.pop();
                f.break_labels.pop();
                self.items.push(Item::Label(ltest));
                self.branch_cond(f, cond, &lbody, true, &[])?;
                self.items.push(Item::Label(lexit));
                Ok(())
            }
            Stmt::DoWhile(body, cond) => {
                let lbody = self.fresh_label("dbody");
                let ltest = self.fresh_label("dtest");
                let lexit = self.fresh_label("dexit");
                self.items.push(Item::Label(lbody.clone()));
                f.break_labels.push(lexit.clone());
                f.continue_labels.push(ltest.clone());
                self.stmt(f, body)?;
                f.continue_labels.pop();
                f.break_labels.pop();
                self.items.push(Item::Label(ltest));
                self.branch_cond(f, cond, &lbody, true, &[])?;
                self.items.push(Item::Label(lexit));
                Ok(())
            }
            Stmt::For(init, cond, step, body) => {
                let ltest = self.fresh_label("ftest");
                let lbody = self.fresh_label("fbody");
                let lstep = self.fresh_label("fstep");
                let lexit = self.fresh_label("fexit");
                if let Some(init) = init {
                    self.stmt(f, init)?;
                }
                // Loop inversion: when the first test is statically true
                // (constant init vs constant bound), fall straight into
                // the body — the bottom test then runs exactly once per
                // iteration, as in the paper's generated code.
                let first_test_true = match (init.as_deref(), cond) {
                    (Some(init), Some(cond)) => Self::entry_cond_known_true(init, cond),
                    _ => false,
                };
                if cond.is_some() && !first_test_true {
                    self.items.push(Item::JmpTo {
                        label: ltest.clone(),
                    });
                }
                self.items.push(Item::Label(lbody.clone()));
                f.break_labels.push(lexit.clone());
                f.continue_labels.push(lstep.clone());
                // Offer the step for Branch Spreading's fill, unless a
                // `continue` in the body could bypass an early step.
                let offer_step = match (self.spread, step) {
                    (true, Some(_)) if !spread::has_continue(body) => step.as_ref(),
                    _ => None,
                };
                let consumed_step = match body.as_ref() {
                    Stmt::Block(stmts) => {
                        f.scopes.push(BTreeMap::new());
                        let c = self.stmt_seq(f, stmts, offer_step)?;
                        f.scopes.pop();
                        c
                    }
                    single => self.stmt_seq(f, std::slice::from_ref(single), offer_step)?,
                };
                f.continue_labels.pop();
                f.break_labels.pop();
                self.items.push(Item::Label(lstep));
                if let Some(step) = step {
                    if !consumed_step {
                        self.eval_discard(f, step)?;
                    }
                }
                match cond {
                    Some(c) => {
                        self.items.push(Item::Label(ltest));
                        self.branch_cond(f, c, &lbody, true, &[])?;
                    }
                    None => self.items.push(Item::JmpTo { label: lbody }),
                }
                self.items.push(Item::Label(lexit));
                Ok(())
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    let v = self.eval(f, e)?;
                    if v != Val::Accum {
                        let vo = self.operand(f, v);
                        self.emit(Instr::Op2 {
                            op: BinOp::Mov,
                            dst: Operand::Accum,
                            src: vo,
                        });
                    }
                    self.free(f, v);
                } else if f.returns_value {
                    return self.sema(format!(
                        "`{}` returns a value; `return;` without one",
                        f.fname
                    ));
                }
                f.frame_patches.push(self.items.len());
                self.emit(Instr::Leave { bytes: 0 });
                self.emit(Instr::Ret);
                Ok(())
            }
            Stmt::Break => match f.break_labels.last() {
                Some(brk) => {
                    self.items.push(Item::JmpTo { label: brk.clone() });
                    Ok(())
                }
                None => self.sema("`break` outside a loop or switch"),
            },
            Stmt::Continue => match f.continue_labels.last() {
                Some(cont) => {
                    self.items.push(Item::JmpTo {
                        label: cont.clone(),
                    });
                    Ok(())
                }
                None => self.sema("`continue` outside a loop"),
            },
            Stmt::Switch(scrutinee, cases) => self.gen_switch(f, scrutinee, cases),
        }
    }

    /// Lower a `switch`. Dense value sets (≥ 4 distinct cases spanning
    /// at most 128 slots) dispatch through an indirect jump table — the
    /// construct for which, per the paper, "indirect branches are only
    /// occasionally generated by our compiler". Sparse switches fall
    /// back to a compare chain.
    fn gen_switch(
        &mut self,
        f: &mut FuncCtx,
        scrutinee: &Expr,
        cases: &[crate::ast::SwitchCase],
    ) -> Result<(), CcError> {
        let lend = self.fresh_label("swend");
        // Per-case labels, in declaration order (fallthrough needs them
        // emitted contiguously).
        let labels: Vec<String> = (0..cases.len()).map(|_| self.fresh_label("case")).collect();
        let default_label = cases
            .iter()
            .position(|c| c.value.is_none())
            .map(|i| labels[i].clone())
            .unwrap_or_else(|| lend.clone());

        let v = self.eval(f, scrutinee)?;
        let v = self.shelter(f, v); // stable across multiple compares

        let values: Vec<(i32, &str)> = cases
            .iter()
            .zip(&labels)
            .filter_map(|(c, l)| c.value.map(|k| (k, l.as_str())))
            .collect();
        let dense = values.len() >= 4 && {
            let min = values.iter().map(|&(k, _)| k).min().unwrap_or(0);
            let max = values.iter().map(|&(k, _)| k).max().unwrap_or(0);
            (max as i64 - min as i64) < 128
        };

        if dense {
            let min = values.iter().map(|&(k, _)| k).min().expect("non-empty");
            let max = values.iter().map(|&(k, _)| k).max().expect("non-empty");
            let ltable = self.fresh_label("swtab");
            let vo = self.operand(f, v);
            // Bounds checks route to the default.
            self.emit(Instr::Cmp {
                cond: Cond::LtS,
                a: vo,
                b: Operand::Imm(min),
            });
            self.items.push(Item::IfJmpTo {
                on_true: true,
                predict_taken: false,
                label: default_label.clone(),
            });
            let vo = self.operand(f, v);
            self.emit(Instr::Cmp {
                cond: Cond::GtS,
                a: vo,
                b: Operand::Imm(max),
            });
            self.items.push(Item::IfJmpTo {
                on_true: true,
                predict_taken: false,
                label: default_label.clone(),
            });
            // index = (v - min); Accum = table + 4*index.
            let vo = self.operand(f, v);
            self.emit(Instr::Op3 {
                op: BinOp::Sub,
                a: vo,
                b: Operand::Imm(min),
            });
            self.emit(Instr::Op3 {
                op: BinOp::Shl,
                a: Operand::Accum,
                b: Operand::Imm(2),
            });
            let tidx = self.alloc_temp(f);
            let tio = self.operand(f, Val::Temp(tidx));
            self.emit(Instr::Op2 {
                op: BinOp::Mov,
                dst: tio,
                src: Operand::Accum,
            });
            self.items.push(Item::MovaLabel {
                label: ltable.clone(),
            });
            let tio = self.operand(f, Val::Temp(tidx));
            self.emit(Instr::Op3 {
                op: BinOp::Add,
                a: Operand::Accum,
                b: tio,
            });
            // taddr = &table[index]; ttgt = table[index]; jmp *ttgt(sp).
            let taddr = tidx; // reuse: now holds the entry address
            let tao = self.operand(f, Val::Temp(taddr));
            self.emit(Instr::Op2 {
                op: BinOp::Mov,
                dst: tao,
                src: Operand::Accum,
            });
            let ttgt = self.alloc_temp(f);
            let tto = self.operand(f, Val::Temp(ttgt));
            let ind = self.operand(f, Val::Ind(taddr));
            self.emit(Instr::Op2 {
                op: BinOp::Mov,
                dst: tto,
                src: ind,
            });
            let Operand::SpOff(tgt_off) = self.operand(f, Val::Temp(ttgt)) else {
                unreachable!("temps are stack slots")
            };
            self.emit(Instr::Jmp {
                target: crisp_isa::BranchTarget::IndSp(tgt_off),
            });
            self.free(f, Val::Temp(taddr));
            self.free(f, Val::Temp(ttgt));
            // The table itself, 4-aligned, right behind the dispatch.
            self.items.push(Item::Align4);
            self.items.push(Item::Label(ltable));
            for k in min..=max {
                let target = values
                    .iter()
                    .find(|&&(kk, _)| kk == k)
                    .map(|&(_, l)| l.to_owned())
                    .unwrap_or_else(|| default_label.clone());
                self.items.push(Item::WordLabel(target));
            }
        } else {
            // Compare chain.
            for &(k, label) in &values {
                let vo = self.operand(f, v);
                let (a, b) = {
                    let kv = self.legalize_src(f, vo, Val::Imm(k));
                    (vo, self.operand(f, kv))
                };
                self.emit(Instr::Cmp {
                    cond: Cond::Eq,
                    a,
                    b,
                });
                self.items.push(Item::IfJmpTo {
                    on_true: true,
                    predict_taken: false,
                    label: label.to_owned(),
                });
            }
            self.items.push(Item::JmpTo {
                label: default_label.clone(),
            });
        }
        self.free(f, v);

        // Case bodies in order; fallthrough is the natural layout.
        f.break_labels.push(lend.clone());
        for (case, label) in cases.iter().zip(&labels) {
            self.items.push(Item::Label(label.clone()));
            self.stmt_seq(f, &case.body, None)?;
        }
        f.break_labels.pop();
        self.items.push(Item::Label(lend));
        Ok(())
    }

    // ---- functions ----

    fn function(&mut self, func: &Function) -> Result<(), CcError> {
        let start = self.items.len();
        self.items.push(Item::Label(func.name.clone()));
        let enter_at = self.items.len();
        self.emit(Instr::Enter { bytes: 0 }); // patched below

        let mut scope = BTreeMap::new();
        for (i, p) in func.params.iter().enumerate() {
            if scope.insert(p.clone(), PARAM_BASE + 4 * i as i32).is_some() {
                return self.sema(format!("duplicate parameter `{p}`"));
            }
        }
        let mut f = FuncCtx {
            scopes: vec![scope],
            next_slot: 0,
            free_temps: Vec::new(),
            sp_adjust: 0,
            break_labels: Vec::new(),
            continue_labels: Vec::new(),
            frame_patches: vec![enter_at],
            returns_value: func.returns_value,
            fname: func.name.clone(),
        };
        self.stmt_seq(&mut f, &func.body, None)?;
        // Implicit epilogue.
        f.frame_patches.push(self.items.len());
        self.emit(Instr::Leave { bytes: 0 });
        self.emit(Instr::Ret);

        self.finish_function(start, &f);
        Ok(())
    }

    /// Patch frame sizes and rewrite parameter-sentinel offsets now that
    /// the frame size is known.
    fn finish_function(&mut self, start: usize, f: &FuncCtx) {
        let frame = f.next_slot.max(0) as u32;
        for &at in &f.frame_patches {
            match &mut self.items[at] {
                Item::Instr(Instr::Enter { bytes }) | Item::Instr(Instr::Leave { bytes })
                    if *bytes == 0 =>
                {
                    *bytes = frame;
                }
                other => unreachable!("frame patch points at {other:?}"),
            }
        }
        let rewrite = |off: i32| -> i32 {
            if off >= PARAM_BASE {
                frame as i32 + 4 + (off - PARAM_BASE)
            } else {
                off
            }
        };
        let map_op = |op: Operand| -> Operand {
            match op {
                Operand::SpOff(o) => Operand::SpOff(rewrite(o)),
                Operand::SpInd(o) => Operand::SpInd(rewrite(o)),
                other => other,
            }
        };
        for item in &mut self.items[start..] {
            if let Item::Instr(instr) = item {
                *instr = match *instr {
                    Instr::Op2 { op, dst, src } => Instr::Op2 {
                        op,
                        dst: map_op(dst),
                        src: map_op(src),
                    },
                    Instr::Op3 { op, a, b } => Instr::Op3 {
                        op,
                        a: map_op(a),
                        b: map_op(b),
                    },
                    Instr::Cmp { cond, a, b } => Instr::Cmp {
                        cond,
                        a: map_op(a),
                        b: map_op(b),
                    },
                    other => other,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crisp_asm::assemble;

    fn gen(src: &str) -> Module {
        generate(&parse(src).unwrap(), false).unwrap()
    }

    #[test]
    fn figure3_compiles_and_assembles() {
        let module = gen("
            void main() {
                int i, j, odd, even, sum;
                j = odd = even = 0;
                for (i = 0; i < 1024; i++) {
                    sum += i;
                    if (i & 1) odd++;
                    else even++;
                    j = sum;
                }
            }
            ");
        let image = assemble(&module).unwrap();
        assert!(image.symbols.contains_key("main"));
        assert!(!image.parcels.is_empty());
    }

    #[test]
    fn sema_errors() {
        let e = generate(&parse("void main() { x = 1; }").unwrap(), false).unwrap_err();
        assert!(matches!(e, CcError::Sema { .. }), "{e}");
        let e = generate(&parse("void f() {}").unwrap(), false).unwrap_err();
        assert!(e.to_string().contains("main"), "{e}");
        let e = generate(&parse("void main() { g(); }").unwrap(), false).unwrap_err();
        assert!(e.to_string().contains("undefined function"), "{e}");
        let e = generate(
            &parse("int f(int a){return a;} void main() { f(); }").unwrap(),
            false,
        )
        .unwrap_err();
        assert!(e.to_string().contains("argument"), "{e}");
        let e = generate(&parse("void main() { break; }").unwrap(), false).unwrap_err();
        assert!(e.to_string().contains("break"), "{e}");
        let e = generate(&parse("int a[4]; void main() { a = 1; }").unwrap(), false).unwrap_err();
        assert!(e.to_string().contains("scalar"), "{e}");
        let e = generate(&parse("int g; void main() { g[0] = 1; }").unwrap(), false).unwrap_err();
        assert!(e.to_string().contains("not an array"), "{e}");
    }

    #[test]
    fn globals_get_distinct_addresses() {
        let module = gen("int a = 7; int b[3] = {1,2,3}; int c; void main() { c = a; }");
        // a at DATA_BASE, b at +4, c at +16.
        assert_eq!(module.data[0], (Image::DEFAULT_DATA_BASE, vec![7]));
        assert_eq!(
            module.data[1],
            (Image::DEFAULT_DATA_BASE + 4, vec![1, 2, 3])
        );
    }

    #[test]
    fn statically_true_loop_is_inverted() {
        // `i = 0; i < 4` is statically true: no entry jump, one bottom
        // conditional.
        let module = gen("void main() { int i; for (i = 0; i < 4; i++) { } }");
        let jmps = module
            .items
            .iter()
            .filter(|i| matches!(i, Item::JmpTo { .. }))
            .count();
        let condb = module
            .items
            .iter()
            .filter(|i| matches!(i, Item::IfJmpTo { .. }))
            .count();
        assert_eq!(jmps, 0);
        assert_eq!(condb, 1);
    }

    #[test]
    fn dynamic_bound_loop_keeps_entry_jump() {
        let module = gen("int n; void main() { int i; for (i = 0; i < n; i++) { } }");
        let jmps = module
            .items
            .iter()
            .filter(|i| matches!(i, Item::JmpTo { .. }))
            .count();
        assert_eq!(jmps, 1, "entry jump to the bottom test must remain");
        // And a statically FALSE first test also keeps it (the body may
        // never run).
        let module = gen("void main() { int i; for (i = 9; i < 4; i++) { } }");
        let jmps = module
            .items
            .iter()
            .filter(|i| matches!(i, Item::JmpTo { .. }))
            .count();
        assert_eq!(jmps, 1);
    }
}
