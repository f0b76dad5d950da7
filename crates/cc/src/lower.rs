//! Lowering mini-C to TIR.
//!
//! One translation unit lowers to one [`tesla_ir::Module`]. TESLA
//! assertion statements become [`tesla_ir::Inst::TeslaPseudoAssert`]
//! placeholders — the front-end analogue of emitting a call to the
//! unimplemented `__tesla_inline_assertion` (§4.2) — carrying the
//! registers of the scope variables the assertion references. The
//! instrumenter later replaces them with real site events.

use crate::ast::{BinOp, CType, Expr, FunctionDef, LValue, Stmt, UnOp, Unit};
use crate::sema::UnitInfo;
use std::collections::HashMap;
use std::sync::Arc;
use tesla_ir::{
    Block, BlockId, Callee, CmpOp, FieldRef, FuncId, Function, Inst, Module, Op, Reg, StructId,
    Terminator,
};
use tesla_spec::FieldOp;

/// A lowering error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Description.
    pub message: String,
    /// The function being lowered.
    pub function: String,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lowering `{}`: {}", self.function, self.message)
    }
}

impl std::error::Error for LowerError {}

/// Lower a sema-checked unit to a TIR module.
///
/// # Errors
///
/// Returns [`LowerError`] on constructs sema admits but TIR cannot
/// express (e.g. `&external_function`).
pub fn lower_unit(unit: &Unit, info: &UnitInfo) -> Result<Module, LowerError> {
    let mut module = Module {
        name: unit.file.clone(),
        ..Module::default()
    };
    let mut struct_ids = HashMap::new();
    for s in &unit.structs {
        let id = StructId(module.structs.len() as u32);
        module.structs.push(tesla_ir::module::StructDef {
            name: s.name.clone(),
            fields: s.fields.iter().map(|f| f.name.clone()).collect(),
        });
        struct_ids.insert(s.name.clone(), id);
    }
    let mut fn_ids = HashMap::new();
    for (i, f) in unit.functions.iter().enumerate() {
        fn_ids.insert(f.name.clone(), FuncId(i as u32));
    }
    for f in &unit.functions {
        let lowered = FnLower::new(f, unit, info, &struct_ids, &fn_ids, &mut module).lower()?;
        module.functions.push(lowered);
    }
    Ok(module)
}

/// A block under construction.
struct Draft {
    insts: Vec<Inst>,
    term: Option<Terminator>,
}

struct FnLower<'a> {
    f: &'a FunctionDef,
    info: &'a UnitInfo,
    struct_ids: &'a HashMap<String, StructId>,
    fn_ids: &'a HashMap<String, FuncId>,
    module: &'a mut Module,
    blocks: Vec<Draft>,
    cur: usize,
    next_reg: u32,
    scopes: Vec<HashMap<String, (Reg, CType)>>,
}

impl<'a> FnLower<'a> {
    fn new(
        f: &'a FunctionDef,
        _unit: &'a Unit,
        info: &'a UnitInfo,
        struct_ids: &'a HashMap<String, StructId>,
        fn_ids: &'a HashMap<String, FuncId>,
        module: &'a mut Module,
    ) -> FnLower<'a> {
        FnLower {
            f,
            info,
            struct_ids,
            fn_ids,
            module,
            blocks: vec![Draft {
                insts: Vec::new(),
                term: None,
            }],
            cur: 0,
            next_reg: f.params.len() as u32,
            scopes: vec![HashMap::new()],
        }
    }

    fn err(&self, message: impl Into<String>) -> LowerError {
        LowerError {
            message: message.into(),
            function: self.f.name.clone(),
        }
    }

    fn fresh(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    fn emit(&mut self, i: Inst) {
        self.blocks[self.cur].insts.push(i);
    }

    fn new_block(&mut self) -> usize {
        self.blocks.push(Draft {
            insts: Vec::new(),
            term: None,
        });
        self.blocks.len() - 1
    }

    fn terminate(&mut self, term: Terminator) {
        if self.blocks[self.cur].term.is_none() {
            self.blocks[self.cur].term = Some(term);
        }
    }

    fn switch_to(&mut self, b: usize) {
        self.cur = b;
    }

    fn lookup(&self, name: &str) -> Option<&(Reg, CType)> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn lower(mut self) -> Result<Function, LowerError> {
        for (i, p) in self.f.params.iter().enumerate() {
            self.scopes[0].insert(p.name.clone(), (Reg(i as u32), p.ty.clone()));
        }
        let body = self.f.body.clone();
        self.lower_block(&body)?;
        // Fall-off-the-end returns 0/void.
        self.terminate(Terminator::Ret(None));
        let blocks = self
            .blocks
            .into_iter()
            .map(|d| Block {
                insts: d.insts,
                term: d.term.unwrap_or(Terminator::Ret(None)),
            })
            .collect();
        Ok(Function {
            name: self.f.name.clone(),
            n_params: self.f.params.len() as u32,
            n_regs: self.next_reg,
            blocks,
        })
    }

    fn lower_block(&mut self, stmts: &[Stmt]) -> Result<(), LowerError> {
        self.scopes.push(HashMap::new());
        for s in stmts {
            self.lower_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        match s {
            Stmt::Decl { ty, name, init } => {
                let reg = self.fresh();
                if let Some(e) = init {
                    let v = self.lower_expr(e)?;
                    self.emit(Inst::Copy { dst: reg, src: v });
                } else {
                    self.emit(Inst::Const { dst: reg, value: 0 });
                }
                self.scopes
                    .last_mut()
                    .unwrap()
                    .insert(name.clone(), (reg, ty.clone()));
                Ok(())
            }
            Stmt::Assign { lv, op, value } => {
                let v = self.lower_expr(value)?;
                match lv {
                    LValue::Var(name) => {
                        let (reg, _) = *self
                            .lookup(name)
                            .ok_or_else(|| self.err(format!("undeclared `{name}`")))?;
                        match op {
                            FieldOp::Assign => self.emit(Inst::Copy { dst: reg, src: v }),
                            FieldOp::AddAssign => self.emit(Inst::Bin {
                                dst: reg,
                                op: Op::Add,
                                lhs: reg,
                                rhs: v,
                            }),
                            FieldOp::SubAssign => self.emit(Inst::Bin {
                                dst: reg,
                                op: Op::Sub,
                                lhs: reg,
                                rhs: v,
                            }),
                            FieldOp::OrAssign => self.emit(Inst::Bin {
                                dst: reg,
                                op: Op::Or,
                                lhs: reg,
                                rhs: v,
                            }),
                            FieldOp::AndAssign => self.emit(Inst::Bin {
                                dst: reg,
                                op: Op::And,
                                lhs: reg,
                                rhs: v,
                            }),
                        }
                    }
                    LValue::Field { base, field } => {
                        let obj = self.lower_expr(base)?;
                        let fr = self.field_ref(base, field)?;
                        self.emit(Inst::Store {
                            obj,
                            field: fr,
                            op: *op,
                            value: v,
                        });
                    }
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.lower_expr(e)?;
                Ok(())
            }
            Stmt::Return(v) => {
                let r = match v {
                    Some(e) => Some(self.lower_expr(e)?),
                    None => None,
                };
                self.terminate(Terminator::Ret(r));
                // Anything after a return in the same block is dead;
                // give it a fresh (unreachable) block.
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.lower_expr(cond)?;
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join_bb = self.new_block();
                self.terminate(Terminator::Branch {
                    cond: c,
                    then_bb: BlockId(then_bb as u32),
                    else_bb: BlockId(else_bb as u32),
                });
                self.switch_to(then_bb);
                self.lower_block(then_body)?;
                self.terminate(Terminator::Jump(BlockId(join_bb as u32)));
                self.switch_to(else_bb);
                self.lower_block(else_body)?;
                self.terminate(Terminator::Jump(BlockId(join_bb as u32)));
                self.switch_to(join_bb);
                Ok(())
            }
            Stmt::While { cond, body } => {
                let cond_bb = self.new_block();
                self.terminate(Terminator::Jump(BlockId(cond_bb as u32)));
                self.switch_to(cond_bb);
                let c = self.lower_expr(cond)?;
                let body_bb = self.new_block();
                let after_bb = self.new_block();
                self.terminate(Terminator::Branch {
                    cond: c,
                    then_bb: BlockId(body_bb as u32),
                    else_bb: BlockId(after_bb as u32),
                });
                self.switch_to(body_bb);
                self.lower_block(body)?;
                self.terminate(Terminator::Jump(BlockId(cond_bb as u32)));
                self.switch_to(after_bb);
                Ok(())
            }
            Stmt::Tesla { assertion, .. } => {
                let mut args = Vec::with_capacity(assertion.variables.len());
                for v in &assertion.variables {
                    let (reg, _) = *self.lookup(v).ok_or_else(|| {
                        self.err(format!("assertion variable `{v}` not in scope"))
                    })?;
                    args.push(reg);
                }
                let idx = self.module.assertions.len() as u32;
                self.module
                    .assertions
                    .push(tesla_ir::module::ModuleAssertion {
                        assertion: Arc::new((**assertion).clone()),
                    });
                self.emit(Inst::TeslaPseudoAssert {
                    assertion: idx,
                    args,
                });
                Ok(())
            }
        }
    }

    /// Resolve `base->field` to a TIR field reference using declared
    /// types.
    fn field_ref(&self, base: &Expr, field: &str) -> Result<FieldRef, LowerError> {
        let ty = self
            .type_of(base)
            .ok_or_else(|| self.err(format!("cannot type `{base:?}`")))?;
        let CType::Ptr(sname) = ty else {
            return Err(self.err(format!("`->{field}` on non-pointer")));
        };
        let sid = *self
            .struct_ids
            .get(&sname)
            .ok_or_else(|| self.err(format!("unknown struct `{sname}`")))?;
        let fields = &self.info.structs[&sname];
        let fi = fields
            .iter()
            .position(|p| p.name == field)
            .ok_or_else(|| self.err(format!("struct `{sname}` has no field `{field}`")))?;
        Ok(FieldRef {
            strct: sid,
            field: fi as u32,
        })
    }

    fn type_of(&self, e: &Expr) -> Option<CType> {
        match e {
            Expr::Int(_) => Some(CType::Int),
            Expr::Var(v) => self.lookup(v).map(|(_, t)| t.clone()),
            Expr::Field { base, field } => match self.type_of(base) {
                Some(CType::Ptr(s)) => self
                    .info
                    .structs
                    .get(&s)
                    .and_then(|fs| fs.iter().find(|p| &p.name == field))
                    .map(|p| p.ty.clone()),
                _ => None,
            },
            Expr::Call { callee, .. } => match &**callee {
                Expr::Var(name) if self.lookup(name).is_none() => {
                    self.info.functions.get(name).map(|(_, r)| r.clone())
                }
                _ => Some(CType::Int),
            },
            Expr::FnAddr(_) => Some(CType::FnPtr),
            Expr::Malloc(s) => Some(CType::Ptr(s.clone())),
            Expr::Bin { .. } | Expr::Un { .. } => Some(CType::Int),
        }
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<Reg, LowerError> {
        match e {
            Expr::Int(v) => {
                let dst = self.fresh();
                self.emit(Inst::Const { dst, value: *v });
                Ok(dst)
            }
            Expr::Var(name) => self
                .lookup(name)
                .map(|(r, _)| *r)
                .ok_or_else(|| self.err(format!("undeclared `{name}`"))),
            Expr::Field { base, field } => {
                let obj = self.lower_expr(base)?;
                let fr = self.field_ref(base, field)?;
                let dst = self.fresh();
                self.emit(Inst::Load {
                    dst,
                    obj,
                    field: fr,
                });
                Ok(dst)
            }
            Expr::Call { callee, args } => {
                let argv: Result<Vec<Reg>, LowerError> =
                    args.iter().map(|a| self.lower_expr(a)).collect();
                let argv = argv?;
                let target = match &**callee {
                    Expr::Var(name) if self.lookup(name).is_none() => match self.fn_ids.get(name) {
                        Some(f) => Callee::Direct(*f),
                        None => Callee::External(name.clone()),
                    },
                    other => Callee::Indirect(self.lower_expr(other)?),
                };
                let dst = self.fresh();
                self.emit(Inst::Call {
                    dst: Some(dst),
                    callee: target,
                    args: argv,
                });
                Ok(dst)
            }
            Expr::FnAddr(name) => {
                let f = self.fn_ids.get(name).ok_or_else(|| {
                    self.err(format!(
                        "`&{name}`: taking the address of an external function is not \
                         supported in a single unit"
                    ))
                })?;
                let dst = self.fresh();
                self.emit(Inst::FnAddr { dst, func: *f });
                Ok(dst)
            }
            Expr::Malloc(s) => {
                let sid = *self
                    .struct_ids
                    .get(s)
                    .ok_or_else(|| self.err(format!("unknown struct `{s}`")))?;
                let dst = self.fresh();
                self.emit(Inst::New { dst, strct: sid });
                Ok(dst)
            }
            Expr::Un { op, expr } => {
                let v = self.lower_expr(expr)?;
                let dst = self.fresh();
                match op {
                    UnOp::Neg => {
                        let z = self.fresh();
                        self.emit(Inst::Const { dst: z, value: 0 });
                        self.emit(Inst::Bin {
                            dst,
                            op: Op::Sub,
                            lhs: z,
                            rhs: v,
                        });
                    }
                    UnOp::Not => {
                        let z = self.fresh();
                        self.emit(Inst::Const { dst: z, value: 0 });
                        self.emit(Inst::Cmp {
                            dst,
                            op: CmpOp::Eq,
                            lhs: v,
                            rhs: z,
                        });
                    }
                    UnOp::BitNot => {
                        let m = self.fresh();
                        self.emit(Inst::Const { dst: m, value: -1 });
                        self.emit(Inst::Bin {
                            dst,
                            op: Op::Xor,
                            lhs: v,
                            rhs: m,
                        });
                    }
                }
                Ok(dst)
            }
            Expr::Bin {
                op: BinOp::LogAnd,
                lhs,
                rhs,
            } => self.lower_short_circuit(lhs, rhs, true),
            Expr::Bin {
                op: BinOp::LogOr,
                lhs,
                rhs,
            } => self.lower_short_circuit(lhs, rhs, false),
            Expr::Bin { op, lhs, rhs } => {
                let a = self.lower_expr(lhs)?;
                let b = self.lower_expr(rhs)?;
                let dst = self.fresh();
                let emit_cmp = |op| Inst::Cmp {
                    dst,
                    op,
                    lhs: a,
                    rhs: b,
                };
                let emit_bin = |op| Inst::Bin {
                    dst,
                    op,
                    lhs: a,
                    rhs: b,
                };
                let inst = match op {
                    BinOp::Add => emit_bin(Op::Add),
                    BinOp::Sub => emit_bin(Op::Sub),
                    BinOp::Mul => emit_bin(Op::Mul),
                    BinOp::Div => emit_bin(Op::Div),
                    BinOp::Rem => emit_bin(Op::Rem),
                    BinOp::BitAnd => emit_bin(Op::And),
                    BinOp::BitOr => emit_bin(Op::Or),
                    BinOp::BitXor => emit_bin(Op::Xor),
                    BinOp::Shl => emit_bin(Op::Shl),
                    BinOp::Shr => emit_bin(Op::Shr),
                    BinOp::Eq => emit_cmp(CmpOp::Eq),
                    BinOp::Ne => emit_cmp(CmpOp::Ne),
                    BinOp::Lt => emit_cmp(CmpOp::Lt),
                    BinOp::Le => emit_cmp(CmpOp::Le),
                    BinOp::Gt => emit_cmp(CmpOp::Gt),
                    BinOp::Ge => emit_cmp(CmpOp::Ge),
                    BinOp::LogAnd | BinOp::LogOr => unreachable!("handled above"),
                };
                self.emit(inst);
                Ok(dst)
            }
        }
    }

    /// `a && b` / `a || b` with C short-circuit evaluation.
    fn lower_short_circuit(
        &mut self,
        lhs: &Expr,
        rhs: &Expr,
        is_and: bool,
    ) -> Result<Reg, LowerError> {
        let dst = self.fresh();
        let a = self.lower_expr(lhs)?;
        // Normalise lhs to 0/1 into dst.
        let z = self.fresh();
        self.emit(Inst::Const { dst: z, value: 0 });
        self.emit(Inst::Cmp {
            dst,
            op: CmpOp::Ne,
            lhs: a,
            rhs: z,
        });
        let rhs_bb = self.new_block();
        let join_bb = self.new_block();
        let (then_bb, else_bb) = if is_and {
            (rhs_bb, join_bb)
        } else {
            (join_bb, rhs_bb)
        };
        self.terminate(Terminator::Branch {
            cond: dst,
            then_bb: BlockId(then_bb as u32),
            else_bb: BlockId(else_bb as u32),
        });
        self.switch_to(rhs_bb);
        let b = self.lower_expr(rhs)?;
        let z2 = self.fresh();
        self.emit(Inst::Const { dst: z2, value: 0 });
        self.emit(Inst::Cmp {
            dst,
            op: CmpOp::Ne,
            lhs: b,
            rhs: z2,
        });
        self.terminate(Terminator::Jump(BlockId(join_bb as u32)));
        self.switch_to(join_bb);
        Ok(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;
    use crate::sema::analyse;
    use tesla_ir::{Interp, NullSink};

    fn compile(src: &str) -> Module {
        let mut u = parse_unit(src, "t.c").unwrap();
        let info = analyse(&mut u).unwrap();
        let m = lower_unit(&u, &info).unwrap();
        tesla_ir::verify::verify(&m, tesla_ir::verify::Stage::Unit)
            .unwrap_or_else(|e| panic!("verify failed: {e:?}"));
        m
    }

    fn run(m: &Module, f: &str, args: &[i64]) -> i64 {
        let mut i = Interp::new(m, 1_000_000);
        i.run_named(f, args, &mut NullSink).unwrap()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let m = compile(
            "int f(int n) {\n\
                 int acc = 0;\n\
                 while (n > 0) {\n\
                     if (n % 2 == 0) { acc += n; } else { acc -= 1; }\n\
                     n -= 1;\n\
                 }\n\
                 return acc;\n\
             }",
        );
        // n=5: evens 4+2=6, odds 5,3,1 subtract 3 → 3.
        assert_eq!(run(&m, "f", &[5]), 3);
        assert_eq!(run(&m, "f", &[0]), 0);
    }

    #[test]
    fn struct_allocation_and_fields() {
        let m = compile(
            "struct s { int a; int b; };\n\
             int main() {\n\
                 struct s *p = malloc(sizeof(struct s));\n\
                 p->a = 40;\n\
                 p->b = 2;\n\
                 p->a += p->b;\n\
                 return p->a;\n\
             }",
        );
        assert_eq!(run(&m, "main", &[]), 42);
    }

    #[test]
    fn function_pointers_and_chains() {
        let m = compile(
            "struct ops { int (*poll)(int); };\n\
             struct sock { struct ops *o; };\n\
             int pollimpl(int x) { return x * 2; }\n\
             int main() {\n\
                 struct sock *s = malloc(sizeof(struct sock));\n\
                 s->o = malloc(sizeof(struct ops));\n\
                 s->o->poll = &pollimpl;\n\
                 int (*fp)(int) = s->o->poll;\n\
                 return (*fp)(21);\n\
             }",
        );
        assert_eq!(run(&m, "main", &[]), 42);
    }

    #[test]
    fn short_circuit_semantics() {
        // `boom()` traps (division by zero): && must not evaluate it.
        let m = compile(
            "int boom() { return 1 / 0; }\n\
             int f(int a) { return a != 0 && boom(); }\n\
             int g(int a) { return a != 0 || boom(); }",
        );
        assert_eq!(run(&m, "f", &[0]), 0); // short-circuits, no trap
        assert_eq!(run(&m, "g", &[5]), 1); // short-circuits, no trap
        let mut i = Interp::new(&m, 1000);
        assert!(i.run_named("f", &[1], &mut NullSink).is_err()); // boom runs
    }

    #[test]
    fn unary_ops() {
        let m = compile("int f(int a) { return -a + !a + ~a; }");
        // a=3: -3 + 0 + (-4) = -7
        assert_eq!(run(&m, "f", &[3]), -7);
        // a=0: 0 + 1 + (-1) = 0
        assert_eq!(run(&m, "f", &[0]), 0);
    }

    #[test]
    fn early_returns_and_dead_code() {
        let m = compile(
            "int f(int a) {\n\
                 if (a > 10) { return 1; }\n\
                 return 0;\n\
             }",
        );
        assert_eq!(run(&m, "f", &[11]), 1);
        assert_eq!(run(&m, "f", &[3]), 0);
    }

    #[test]
    fn tesla_statements_lower_to_placeholders() {
        let m = compile(
            "int check(int so);\n\
             int f(int so) {\n\
                 TESLA_SYSCALL_PREVIOUSLY(check(so) == 0);\n\
                 return so;\n\
             }",
        );
        assert_eq!(m.assertions.len(), 1);
        let f = &m.functions[m.function("f").unwrap().0 as usize];
        let has_placeholder = f.blocks.iter().flat_map(|b| &b.insts).any(
            |i| matches!(i, Inst::TeslaPseudoAssert { assertion: 0, args } if args.len() == 1),
        );
        assert!(has_placeholder);
    }

    #[test]
    fn external_calls_lower_as_externals() {
        let m = compile("int f() { return helper(3); }");
        let f = &m.functions[0];
        assert!(f.blocks[0].insts.iter().any(|i| matches!(
            i,
            Inst::Call { callee: Callee::External(n), .. } if n == "helper"
        )));
    }

    #[test]
    fn compound_field_ops_carry_operator() {
        let m = compile(
            "struct proc { int p_flag; };\n\
             void f(struct proc *p) { p->p_flag |= 0x100; }",
        );
        let f = &m.functions[0];
        assert!(f.blocks[0].insts.iter().any(|i| matches!(
            i,
            Inst::Store {
                op: FieldOp::OrAssign,
                ..
            }
        )));
    }
}
