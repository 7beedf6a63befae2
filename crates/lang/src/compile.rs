//! Bytecode compiler for tasklet programs.
//!
//! Tasklets execute once per map point, so the per-execution overhead must
//! be small: the AST is compiled once into a flat register bytecode, and the
//! VM ([`crate::vm`]) executes it with a reusable register file — the same
//! role the Python-to-C++ converter plays in the paper (§3.2).

use crate::ast::{parse_tasklet, BinOp, Builtin, CmpOp, ExprAst, LangError, Stmt};
use std::collections::HashMap;

/// Operand of a connector access: a constant offset or a register holding
/// the (flattened) index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Offset {
    /// Compile-time constant element offset.
    Const(u32),
    /// Offset computed at runtime (truncated from the register's value).
    Reg(u16),
}

/// One bytecode instruction. Registers are `f64` slots.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Instr {
    /// `regs[d] = v`
    Const {
        /// Destination register.
        d: u16,
        /// Literal.
        v: f64,
    },
    /// `regs[d] = regs[s]`
    Mov {
        /// Destination register.
        d: u16,
        /// Source register.
        s: u16,
    },
    /// `regs[d] = regs[a] <op> regs[b]`
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination register.
        d: u16,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// `regs[d] = regs[a] <cmp> regs[b] ? 1.0 : 0.0`
    Cmp {
        /// Comparison.
        op: CmpOp,
        /// Destination register.
        d: u16,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// `regs[d] = -regs[a]`
    Neg {
        /// Destination register.
        d: u16,
        /// Operand register.
        a: u16,
    },
    /// `regs[d] = regs[a] == 0.0 ? 1.0 : 0.0`
    Not {
        /// Destination register.
        d: u16,
        /// Operand register.
        a: u16,
    },
    /// `regs[d] = min(regs[a], regs[b])`
    MinI {
        /// Destination register.
        d: u16,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// `regs[d] = max(regs[a], regs[b])`
    MaxI {
        /// Destination register.
        d: u16,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// `regs[d] = f(regs[a])` for unary builtins.
    Call1 {
        /// Builtin function.
        f: Builtin,
        /// Destination register.
        d: u16,
        /// Operand register.
        a: u16,
    },
    /// `regs[d] = syms[slot]` — read an SDFG symbol value.
    LoadSym {
        /// Destination register.
        d: u16,
        /// Symbol slot (index into `TaskletProgram::symbols`).
        slot: u16,
    },
    /// `regs[d] = inputs[slot][offset]`
    Load {
        /// Destination register.
        d: u16,
        /// Input connector index.
        slot: u16,
        /// Element offset.
        off: Offset,
    },
    /// `outputs[slot][offset] = regs[s]` (also readable for `+=`).
    Store {
        /// Output connector index.
        slot: u16,
        /// Element offset.
        off: Offset,
        /// Source register.
        s: u16,
    },
    /// `regs[d] = outputs[slot][offset]` (for augmented assignment).
    LoadOut {
        /// Destination register.
        d: u16,
        /// Output connector index.
        slot: u16,
        /// Element offset.
        off: Offset,
    },
    /// Push `regs[s]` onto stream output `slot`.
    Push {
        /// Output connector index (must be a stream port at runtime).
        slot: u16,
        /// Source register.
        s: u16,
    },
    /// Jump to `target` if `regs[c] == 0.0`.
    JumpIfZero {
        /// Condition register.
        c: u16,
        /// Instruction index.
        target: u32,
    },
    /// Jump to `target` if `regs[c] != 0.0`.
    JumpIfNonZero {
        /// Condition register.
        c: u16,
        /// Instruction index.
        target: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Instruction index.
        target: u32,
    },
}

/// A compiled tasklet: bytecode plus connector metadata.
#[derive(Clone, Debug)]
pub struct TaskletProgram {
    /// Flat instruction stream.
    pub instrs: Vec<Instr>,
    /// Number of registers needed.
    pub n_regs: u16,
    /// Input connector names (slot order).
    pub inputs: Vec<String>,
    /// Output connector names (slot order).
    pub outputs: Vec<String>,
    /// SDFG symbols referenced by the body (resolved by the engine per
    /// execution and passed to [`crate::TaskletVm::run_with_syms`]).
    pub symbols: Vec<String>,
    /// Parsed AST (kept for pattern recognition and code generation).
    pub body: Vec<Stmt>,
}

impl TaskletProgram {
    /// Parses and compiles a tasklet body. `inputs`/`outputs` are the
    /// connector names in slot order (matching the memlets attached to the
    /// tasklet node).
    pub fn compile(
        code: &str,
        inputs: &[String],
        outputs: &[String],
    ) -> Result<TaskletProgram, LangError> {
        let body = parse_tasklet(code)?;
        let mut c = Compiler {
            instrs: Vec::new(),
            inputs,
            outputs,
            locals: HashMap::new(),
            symbols: Vec::new(),
            next_reg: 0,
            max_reg: 0,
        };
        c.compile_block(&body)?;
        Ok(TaskletProgram {
            instrs: c.instrs,
            n_regs: c.max_reg,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            symbols: c.symbols,
            body,
        })
    }

    /// Input slot by connector name.
    pub fn input_slot(&self, name: &str) -> Option<usize> {
        self.inputs.iter().position(|n| n == name)
    }
}

struct Compiler<'a> {
    instrs: Vec<Instr>,
    inputs: &'a [String],
    outputs: &'a [String],
    /// Local variable registers (persist across statements).
    locals: HashMap<String, u16>,
    /// SDFG symbols referenced (names not bound to connectors or locals).
    symbols: Vec<String>,
    /// Next free temp register (above locals).
    next_reg: u16,
    max_reg: u16,
}

impl Compiler<'_> {
    fn alloc(&mut self) -> u16 {
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_reg = self.max_reg.max(self.next_reg);
        r
    }

    fn local(&mut self, name: &str) -> u16 {
        if let Some(&r) = self.locals.get(name) {
            return r;
        }
        let r = self.alloc();
        // Locals stay allocated: raise the temp floor permanently.
        self.locals.insert(name.to_string(), r);
        r
    }

    fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.instrs[at] {
            Instr::JumpIfZero { target: t, .. }
            | Instr::JumpIfNonZero { target: t, .. }
            | Instr::Jump { target: t } => *t = target,
            other => panic!("patching non-jump {other:?}"),
        }
    }

    fn compile_block(&mut self, stmts: &[Stmt]) -> Result<(), LangError> {
        for s in stmts {
            self.compile_stmt(s)?;
        }
        Ok(())
    }

    fn compile_stmt(&mut self, stmt: &Stmt) -> Result<(), LangError> {
        // Temps used within one statement are released afterwards; locals
        // (tracked in `self.locals`) keep their registers because `local()`
        // allocates below the floor we restore to.
        let floor = self.next_reg;
        match stmt {
            Stmt::Assign {
                target,
                index,
                op,
                value,
            } => {
                let off = match index {
                    None => Offset::Const(0),
                    Some(idx) => {
                        if idx.len() != 1 {
                            return Err(LangError {
                                line: 0,
                                message: format!(
                                    "connector `{target}` indexed with {} dimensions; tasklet \
                                     connectors are flat (use a single flattened index)",
                                    idx.len()
                                ),
                            });
                        }
                        self.compile_offset(&idx[0])?
                    }
                };
                if let Some(slot) = self.outputs.iter().position(|n| n == target) {
                    let slot = slot as u16;
                    let v = if let Some(op) = op {
                        let cur = self.alloc();
                        self.instrs.push(Instr::LoadOut { d: cur, slot, off });
                        let rhs = self.compile_expr(value)?;
                        let d = self.alloc();
                        self.instrs.push(Instr::Bin {
                            op: *op,
                            d,
                            a: cur,
                            b: rhs,
                        });
                        d
                    } else {
                        self.compile_expr(value)?
                    };
                    self.instrs.push(Instr::Store { slot, off, s: v });
                } else if self.inputs.iter().any(|n| n == target) {
                    return Err(LangError {
                        line: 0,
                        message: format!("cannot assign to input connector `{target}`"),
                    });
                } else {
                    // Local variable.
                    if index.is_some() {
                        return Err(LangError {
                            line: 0,
                            message: format!("cannot index local variable `{target}`"),
                        });
                    }
                    if op.is_some() && !self.locals.contains_key(target) {
                        return Err(LangError {
                            line: 0,
                            message: format!("augmented assignment to undefined `{target}`"),
                        });
                    }
                    let rhs = if let Some(op) = op {
                        let cur = self.locals[target];
                        let v = self.compile_expr(value)?;
                        let d = self.alloc();
                        self.instrs.push(Instr::Bin {
                            op: *op,
                            d,
                            a: cur,
                            b: v,
                        });
                        d
                    } else {
                        self.compile_expr(value)?
                    };
                    // Allocate the local *after* evaluating the RHS so that
                    // `x = x + 1` with undefined x errors in compile_expr.
                    let reg = self.local(target);
                    self.instrs.push(Instr::Mov { d: reg, s: rhs });
                }
            }
            Stmt::Push { stream, value } => {
                let Some(slot) = self.outputs.iter().position(|n| n == stream) else {
                    return Err(LangError {
                        line: 0,
                        message: format!("push to unknown output connector `{stream}`"),
                    });
                };
                let v = self.compile_expr(value)?;
                self.instrs.push(Instr::Push {
                    slot: slot as u16,
                    s: v,
                });
            }
            Stmt::If { cond, then, els } => {
                let c = self.compile_expr(cond)?;
                let jz_at = self.instrs.len();
                self.instrs.push(Instr::JumpIfZero { c, target: 0 });
                self.compile_block(then)?;
                if els.is_empty() {
                    let end = self.here();
                    self.patch(jz_at, end);
                } else {
                    let jmp_at = self.instrs.len();
                    self.instrs.push(Instr::Jump { target: 0 });
                    let else_start = self.here();
                    self.patch(jz_at, else_start);
                    self.compile_block(els)?;
                    let end = self.here();
                    self.patch(jmp_at, end);
                }
            }
        }
        // Release statement temps but never below the local floor (locals
        // allocated in this statement raised `floor`'s meaning — recompute).
        let locals_top = self
            .locals
            .values()
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        self.next_reg = floor.max(locals_top);
        Ok(())
    }

    /// Compiles an index expression; constants become `Offset::Const`.
    fn compile_offset(&mut self, e: &ExprAst) -> Result<Offset, LangError> {
        if let ExprAst::Num(v) = e {
            if *v >= 0.0 && v.fract() == 0.0 && *v <= u32::MAX as f64 {
                return Ok(Offset::Const(*v as u32));
            }
        }
        Ok(Offset::Reg(self.compile_expr(e)?))
    }

    fn compile_expr(&mut self, e: &ExprAst) -> Result<u16, LangError> {
        match e {
            ExprAst::Num(v) => {
                let d = self.alloc();
                self.instrs.push(Instr::Const { d, v: *v });
                Ok(d)
            }
            ExprAst::Name(name) => {
                if let Some(slot) = self.inputs.iter().position(|n| n == name) {
                    let d = self.alloc();
                    self.instrs.push(Instr::Load {
                        d,
                        slot: slot as u16,
                        off: Offset::Const(0),
                    });
                    return Ok(d);
                }
                if let Some(&r) = self.locals.get(name) {
                    return Ok(r);
                }
                if self.outputs.iter().any(|n| n == name) {
                    let slot = self.outputs.iter().position(|n| n == name).unwrap() as u16;
                    let d = self.alloc();
                    self.instrs.push(Instr::LoadOut {
                        d,
                        slot,
                        off: Offset::Const(0),
                    });
                    return Ok(d);
                }
                // Unknown names resolve to SDFG symbols, supplied per
                // execution by the engine (the DaCe convention: tasklets
                // may read interstate symbols and map parameters).
                let slot = match self.symbols.iter().position(|s| s == name) {
                    Some(p) => p as u16,
                    None => {
                        self.symbols.push(name.clone());
                        (self.symbols.len() - 1) as u16
                    }
                };
                let d = self.alloc();
                self.instrs.push(Instr::LoadSym { d, slot });
                Ok(d)
            }
            ExprAst::Index(name, idx) => {
                if idx.len() != 1 {
                    return Err(LangError {
                        line: 0,
                        message: format!(
                            "connector `{name}` indexed with {} dimensions; use a flattened index",
                            idx.len()
                        ),
                    });
                }
                let off = self.compile_offset(&idx[0])?;
                if let Some(slot) = self.inputs.iter().position(|n| n == name) {
                    let d = self.alloc();
                    self.instrs.push(Instr::Load {
                        d,
                        slot: slot as u16,
                        off,
                    });
                    return Ok(d);
                }
                if let Some(slot) = self.outputs.iter().position(|n| n == name) {
                    let d = self.alloc();
                    self.instrs.push(Instr::LoadOut {
                        d,
                        slot: slot as u16,
                        off,
                    });
                    return Ok(d);
                }
                Err(LangError {
                    line: 0,
                    message: format!("indexing unknown connector `{name}`"),
                })
            }
            ExprAst::Bin(op, a, b) => {
                let ra = self.compile_expr(a)?;
                let rb = self.compile_expr(b)?;
                let d = self.alloc();
                self.instrs.push(Instr::Bin {
                    op: *op,
                    d,
                    a: ra,
                    b: rb,
                });
                Ok(d)
            }
            ExprAst::Cmp(op, a, b) => {
                let ra = self.compile_expr(a)?;
                let rb = self.compile_expr(b)?;
                let d = self.alloc();
                self.instrs.push(Instr::Cmp {
                    op: *op,
                    d,
                    a: ra,
                    b: rb,
                });
                Ok(d)
            }
            ExprAst::Neg(a) => {
                let ra = self.compile_expr(a)?;
                let d = self.alloc();
                self.instrs.push(Instr::Neg { d, a: ra });
                Ok(d)
            }
            ExprAst::Not(a) => {
                let ra = self.compile_expr(a)?;
                let d = self.alloc();
                self.instrs.push(Instr::Not { d, a: ra });
                Ok(d)
            }
            ExprAst::And(a, b) => {
                let d = self.alloc();
                let ra = self.compile_expr(a)?;
                self.instrs.push(Instr::Mov { d, s: ra });
                let jz_at = self.instrs.len();
                self.instrs.push(Instr::JumpIfZero { c: d, target: 0 });
                let rb = self.compile_expr(b)?;
                self.instrs.push(Instr::Mov { d, s: rb });
                let end = self.here();
                self.patch(jz_at, end);
                Ok(d)
            }
            ExprAst::Or(a, b) => {
                let d = self.alloc();
                let ra = self.compile_expr(a)?;
                self.instrs.push(Instr::Mov { d, s: ra });
                let jnz_at = self.instrs.len();
                self.instrs.push(Instr::JumpIfNonZero { c: d, target: 0 });
                let rb = self.compile_expr(b)?;
                self.instrs.push(Instr::Mov { d, s: rb });
                let end = self.here();
                self.patch(jnz_at, end);
                Ok(d)
            }
            ExprAst::Call(f, args) => match f {
                Builtin::Min | Builtin::Max => {
                    // N-ary min/max folds left-to-right.
                    let mut acc = self.compile_expr(&args[0])?;
                    for arg in &args[1..] {
                        let r = self.compile_expr(arg)?;
                        let d = self.alloc();
                        self.instrs.push(if *f == Builtin::Min {
                            Instr::MinI { d, a: acc, b: r }
                        } else {
                            Instr::MaxI { d, a: acc, b: r }
                        });
                        acc = d;
                    }
                    Ok(acc)
                }
                _ => {
                    let a = self.compile_expr(&args[0])?;
                    let d = self.alloc();
                    self.instrs.push(Instr::Call1 { f: *f, d, a });
                    Ok(d)
                }
            },
            ExprAst::Ternary { cond, then, els } => {
                let d = self.alloc();
                let c = self.compile_expr(cond)?;
                let jz_at = self.instrs.len();
                self.instrs.push(Instr::JumpIfZero { c, target: 0 });
                let rt = self.compile_expr(then)?;
                self.instrs.push(Instr::Mov { d, s: rt });
                let jmp_at = self.instrs.len();
                self.instrs.push(Instr::Jump { target: 0 });
                let els_start = self.here();
                self.patch(jz_at, els_start);
                let re = self.compile_expr(els)?;
                self.instrs.push(Instr::Mov { d, s: re });
                let end = self.here();
                self.patch(jmp_at, end);
                Ok(d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_simple_program() {
        let p =
            TaskletProgram::compile("c = a + b", &["a".into(), "b".into()], &["c".into()]).unwrap();
        assert!(p.n_regs >= 3);
        assert!(p
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Store { slot: 0, .. })));
    }

    #[test]
    fn unknown_names_become_symbols() {
        let p = TaskletProgram::compile("c = q + 1", &[], &["c".into()]).unwrap();
        assert_eq!(p.symbols, vec!["q".to_string()]);
        // Deduplicated on reuse.
        let p2 = TaskletProgram::compile("c = q + q * 2", &[], &["c".into()]).unwrap();
        assert_eq!(p2.symbols.len(), 1);
    }

    #[test]
    fn rejects_assign_to_input() {
        let e = TaskletProgram::compile("a = 1", &["a".into()], &[]).unwrap_err();
        assert!(e.message.contains("input connector"));
    }

    #[test]
    fn locals_persist_temps_do_not() {
        let p = TaskletProgram::compile(
            "t = a * a\nu = t + t\nc = u * t",
            &["a".into()],
            &["c".into()],
        )
        .unwrap();
        // Should compile without unbounded register growth.
        assert!(p.n_regs < 16);
    }
}
