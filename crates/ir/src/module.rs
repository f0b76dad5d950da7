//! TIR data structures: modules, functions, blocks, instructions.

use std::collections::HashMap;
use std::sync::Arc;
use tesla_spec::FieldOp;

/// A virtual register within a function (the "infinite register
/// set").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

/// A basic-block id within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(pub u32);

/// A function id within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncId(pub u32);

/// A struct-type id within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructId(pub u32);

/// Arithmetic and bitwise operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (signed; division by zero traps)
    Div,
    /// `%` (signed; division by zero traps)
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>` (arithmetic)
    Shr,
}

/// Comparison operators (result is 0 or 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<` (signed)
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A call target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// A function in this module.
    Direct(FuncId),
    /// An indirect call through a function-pointer register.
    Indirect(Reg),
    /// An external (host-provided) function, by name.
    External(String),
}

/// A reference to a structure field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldRef {
    /// The structure type.
    pub strct: StructId,
    /// Field index within the struct definition.
    pub field: u32,
}

/// One TIR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = imm`
    Const {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: i64,
    },
    /// `dst = src`
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = lhs op rhs`
    Bin {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: Op,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst = lhs cmp rhs` (0/1)
    Cmp {
        /// Destination register.
        dst: Reg,
        /// Comparison.
        op: CmpOp,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst? = call callee(args)`
    Call {
        /// Destination register for the return value, if used.
        dst: Option<Reg>,
        /// Target.
        callee: Callee,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// `dst = &function` — take a function's address (function
    /// pointers: `pru_sopoll`, `f_ops->fo_poll`, …).
    FnAddr {
        /// Destination register.
        dst: Reg,
        /// The function.
        func: FuncId,
    },
    /// `dst = new strct` — allocate a zeroed structure on the
    /// interpreter heap.
    New {
        /// Destination register (receives the object handle).
        dst: Reg,
        /// The structure type.
        strct: StructId,
    },
    /// `dst = obj.field`
    Load {
        /// Destination register.
        dst: Reg,
        /// Object handle register.
        obj: Reg,
        /// Which field.
        field: FieldRef,
    },
    /// `obj.field op= value` — field stores carry their operator so
    /// instrumentation can distinguish `=` from `+=`/`|=`/…
    Store {
        /// Object handle register.
        obj: Reg,
        /// Which field.
        field: FieldRef,
        /// Operator (`=` or compound).
        op: FieldOp,
        /// Right-hand side.
        value: Reg,
    },
    // --- TESLA pseudo- and hook instructions -------------------------
    /// The front-end's placeholder for an assertion site: the call to
    /// the unimplemented `__tesla_inline_assertion` (§4.2). The
    /// instrumenter replaces it with [`Inst::TeslaSite`]; the verifier
    /// rejects it in "linked" modules; the interpreter traps on it.
    TeslaPseudoAssert {
        /// Index into the module's assertion list.
        assertion: u32,
        /// Values of the assertion's scope variables.
        args: Vec<Reg>,
    },
    /// Instrumented function-entry hook (callee-side).
    TeslaHookEntry {
        /// The function whose entry this reports (== containing fn).
        func: FuncId,
    },
    /// Instrumented function-exit hook (callee-side); placed
    /// immediately before `Ret`.
    TeslaHookExit {
        /// The function whose exit this reports.
        func: FuncId,
        /// The value about to be returned, if any.
        ret: Option<Reg>,
    },
    /// Caller-side pre-call hook: reports entry of `name` with `args`.
    TeslaHookCallPre {
        /// Callee name (may be external).
        name: String,
        /// Argument registers at the call site.
        args: Vec<Reg>,
    },
    /// Caller-side post-call hook: reports exit of `name`.
    TeslaHookCallPost {
        /// Callee name.
        name: String,
        /// Argument registers at the call site.
        args: Vec<Reg>,
        /// The returned value, if captured.
        ret: Option<Reg>,
    },
    /// Instrumented field-assignment hook; placed immediately after
    /// the `Store` it reports.
    TeslaHookField {
        /// Object handle register.
        obj: Reg,
        /// Which field.
        field: FieldRef,
        /// Operator.
        op: FieldOp,
        /// Stored value register.
        value: Reg,
    },
    /// Instrumented assertion-site event (replaces
    /// [`Inst::TeslaPseudoAssert`]).
    TeslaSite {
        /// Runtime class id assigned by the instrumenter.
        class: u32,
        /// Values of the assertion's scope variables.
        args: Vec<Reg>,
    },
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on a register (non-zero = then).
    Branch {
        /// Condition register.
        cond: Reg,
        /// Non-zero target.
        then_bb: BlockId,
        /// Zero target.
        else_bb: BlockId,
    },
    /// Return, optionally with a value.
    Ret(Option<Reg>),
    /// Trap: undefined behaviour was reached.
    Unreachable,
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

/// A function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Name (significant: instrumentation plans match by name).
    pub name: String,
    /// Number of parameters; parameters occupy registers `0..n_params`.
    pub n_params: u32,
    /// Total virtual registers used.
    pub n_regs: u32,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
}

/// A structure type.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Field names, in declaration order.
    pub fields: Vec<String>,
}

/// The assertion table a front-end attaches to a module: the
/// instrumenter resolves [`Inst::TeslaPseudoAssert`] indices against
/// it.
///
/// The assertion is shared, not owned: the front end and [`decode`]
/// make one `Arc` per assertion, and cloning a module or linking it
/// ([`Module::link_refs`]) copies the pointer. So an incremental
/// rebuild's link shares every unchanged unit's assertions with the
/// previous build's program instead of copying them. Equality
/// compares the assertions, not the pointers.
///
/// [`decode`]: crate::decode
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleAssertion {
    /// The parsed assertion.
    pub assertion: Arc<tesla_spec::Assertion>,
}

/// A TIR module (one compilation unit, or a linked program).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Module (source file) name.
    pub name: String,
    /// Structure types.
    pub structs: Vec<StructDef>,
    /// Functions.
    pub functions: Vec<Function>,
    /// TESLA assertions written in this unit.
    pub assertions: Vec<ModuleAssertion>,
}

impl Module {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Find a struct by name.
    pub fn struct_by_name(&self, name: &str) -> Option<StructId> {
        self.structs
            .iter()
            .position(|s| s.name == name)
            .map(|i| StructId(i as u32))
    }

    /// Total instruction count (build-cost metrics).
    pub fn n_insts(&self) -> usize {
        self.functions
            .iter()
            .map(|f| f.blocks.iter().map(|b| b.insts.len() + 1).sum::<usize>())
            .sum()
    }

    /// Link several modules into one program: functions and structs
    /// are concatenated (names must not collide except for *declared*
    /// externals), and call targets/struct ids are re-resolved.
    ///
    /// For simplicity the front-end emits `Callee::External(name)` for
    /// cross-unit calls; linking resolves those that name a defined
    /// function. Struct definitions with identical names must be
    /// structurally equal.
    ///
    /// # Errors
    ///
    /// Returns a message on duplicate function names or mismatched
    /// struct definitions.
    pub fn link(modules: Vec<Module>, name: &str) -> Result<Module, String> {
        Module::link_refs(&modules.iter().collect::<Vec<_>>(), name)
    }

    /// [`Module::link`] over borrowed modules. The incremental build
    /// pipeline keeps per-unit objects behind `Arc` so that a cache
    /// hit copies a pointer instead of a module; linking therefore
    /// must not demand ownership. Each function is cloned once, into
    /// the output, and remapped there; one name index serves both the
    /// duplicate check and the resolution of external calls. The
    /// assertion table copies pointers: the linked program shares its
    /// assertions with the modules it was linked from.
    ///
    /// # Errors
    ///
    /// Returns a message on duplicate function names or mismatched
    /// struct definitions.
    pub fn link_refs(modules: &[&Module], name: &str) -> Result<Module, String> {
        let mut out = Module {
            name: name.to_string(),
            ..Module::default()
        };
        // Structs: dedup by name + shape.
        for m in modules {
            for s in &m.structs {
                match out.structs.iter().find(|o| o.name == s.name) {
                    Some(existing) if existing.fields != s.fields => {
                        return Err(format!("struct `{}` defined incompatibly", s.name));
                    }
                    Some(_) => {}
                    None => out.structs.push(s.clone()),
                }
            }
        }
        // Function name table. Function order in `out` is
        // concatenation order, so a function's linked id is its
        // module's offset plus its index there.
        let mut fn_ids: HashMap<&str, FuncId> = HashMap::new();
        for f in modules.iter().flat_map(|m| &m.functions) {
            let id = FuncId(fn_ids.len() as u32);
            if fn_ids.insert(&f.name, id).is_some() {
                return Err(format!("duplicate definition of `{}`", f.name));
            }
        }
        // Remap struct ids and resolve externals per originating
        // module.
        let mut fn_offset = 0u32;
        let mut assert_offset = 0u32;
        out.functions.reserve(fn_ids.len());
        for m in modules {
            let struct_map: Vec<StructId> = m
                .structs
                .iter()
                .map(|s| out.struct_by_name(&s.name).expect("struct was merged"))
                .collect();
            for f in &m.functions {
                let mut f = f.clone();
                for b in &mut f.blocks {
                    for inst in &mut b.insts {
                        remap_inst(inst, &struct_map, fn_offset, assert_offset, &fn_ids);
                    }
                }
                out.functions.push(f);
            }
            fn_offset += m.functions.len() as u32;
            assert_offset += m.assertions.len() as u32;
        }
        // Assertions concatenate, by pointer.
        for m in modules {
            out.assertions.extend(m.assertions.iter().cloned());
        }
        Ok(out)
    }
}

fn remap_inst(
    inst: &mut Inst,
    struct_map: &[StructId],
    fn_offset: u32,
    assert_offset: u32,
    fn_ids: &HashMap<&str, FuncId>,
) {
    let remap_field = |f: &mut FieldRef| {
        f.strct = struct_map[f.strct.0 as usize];
    };
    match inst {
        Inst::Call { callee, .. } => match callee {
            Callee::Direct(f) => f.0 += fn_offset,
            Callee::External(name) => {
                if let Some(&f) = fn_ids.get(name.as_str()) {
                    *callee = Callee::Direct(f);
                }
            }
            Callee::Indirect(_) => {}
        },
        Inst::FnAddr { func, .. } => func.0 += fn_offset,
        Inst::New { strct, .. } => *strct = struct_map[strct.0 as usize],
        Inst::Load { field, .. } => remap_field(field),
        Inst::Store { field, .. } | Inst::TeslaHookField { field, .. } => remap_field(field),
        Inst::TeslaHookEntry { func } | Inst::TeslaHookExit { func, .. } => {
            func.0 += fn_offset;
        }
        // Assertion tables concatenate at link time, so placeholder
        // indices from later units must shift past earlier units'
        // assertions (matters when linking *un*-instrumented units,
        // e.g. for static analysis of the whole program).
        Inst::TeslaPseudoAssert { assertion, .. } => *assertion += assert_offset,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    #[test]
    fn function_lookup_by_name() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.begin_function("foo", 1);
        let fb = f.finish_trivial_return(None);
        mb.add_function(fb);
        let m = mb.build();
        assert_eq!(m.function("foo"), Some(FuncId(0)));
        assert_eq!(m.function("bar"), None);
    }

    #[test]
    fn link_resolves_externals() {
        // Module a calls external "callee"; module b defines it.
        let mut a = ModuleBuilder::new("a");
        let mut f = a.begin_function("caller", 0);
        let r = f.fresh();
        f.inst(Inst::Call {
            dst: Some(r),
            callee: Callee::External("callee".into()),
            args: vec![],
        });
        let fb = f.finish(Terminator::Ret(Some(r)));
        a.add_function(fb);
        let a = a.build();

        let mut b = ModuleBuilder::new("b");
        let mut g = b.begin_function("callee", 0);
        let c = g.fresh();
        g.inst(Inst::Const { dst: c, value: 7 });
        let gb = g.finish(Terminator::Ret(Some(c)));
        b.add_function(gb);
        let b = b.build();

        let linked = Module::link(vec![a, b], "prog").unwrap();
        let caller = &linked.functions[linked.function("caller").unwrap().0 as usize];
        match &caller.blocks[0].insts[0] {
            Inst::Call {
                callee: Callee::Direct(f),
                ..
            } => {
                assert_eq!(linked.functions[f.0 as usize].name, "callee");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn link_rejects_duplicate_definitions() {
        let mk = |name: &str| {
            let mut mb = ModuleBuilder::new(name);
            let f = mb.begin_function("dup", 0);
            let fb = f.finish_trivial_return(None);
            mb.add_function(fb);
            mb.build()
        };
        let err = Module::link(vec![mk("a"), mk("b")], "prog").unwrap_err();
        assert!(err.contains("dup"));
    }

    #[test]
    fn link_merges_identical_structs_and_remaps_ids() {
        let mk = |name: &str, extra_struct: bool| {
            let mut mb = ModuleBuilder::new(name);
            if extra_struct {
                mb.add_struct("other", &["x"]);
            }
            let s = mb.add_struct("socket", &["so_state", "so_proto"]);
            let mut f = mb.begin_function(&format!("f_{name}"), 0);
            let o = f.fresh();
            f.inst(Inst::New { dst: o, strct: s });
            let v = f.fresh();
            f.inst(Inst::Const { dst: v, value: 5 });
            f.inst(Inst::Store {
                obj: o,
                field: FieldRef { strct: s, field: 0 },
                op: tesla_spec::FieldOp::Assign,
                value: v,
            });
            let fb = f.finish(Terminator::Ret(None));
            mb.add_function(fb);
            mb.build()
        };
        let linked = Module::link(vec![mk("a", false), mk("b", true)], "prog").unwrap();
        // socket defined once despite appearing in both modules.
        assert_eq!(
            linked.structs.iter().filter(|s| s.name == "socket").count(),
            1
        );
        let socket = linked.struct_by_name("socket").unwrap();
        // b's store must point at the merged socket id.
        let fb = &linked.functions[linked.function("f_b").unwrap().0 as usize];
        match &fb.blocks[0].insts[2] {
            Inst::Store { field, .. } => assert_eq!(field.strct, socket),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn link_offsets_assertion_placeholder_indices() {
        let mk = |unit: &str, fname: &str| {
            let mut mb = ModuleBuilder::new(unit);
            let a = tesla_spec::parse_assertion(&format!(
                "TESLA_WITHIN({fname}, previously(call(helper)))"
            ))
            .unwrap();
            let idx = mb.add_assertion(a);
            let mut f = mb.begin_function(fname, 0);
            f.inst(Inst::TeslaPseudoAssert {
                assertion: idx,
                args: vec![],
            });
            let fb = f.finish(Terminator::Ret(None));
            mb.add_function(fb);
            mb.build()
        };
        let linked = Module::link(vec![mk("a", "fa"), mk("b", "fb")], "prog").unwrap();
        assert_eq!(linked.assertions.len(), 2);
        let fb = &linked.functions[linked.function("fb").unwrap().0 as usize];
        match &fb.blocks[0].insts[0] {
            // Unit b's placeholder pointed at its local assertion 0;
            // after linking it must point at the concatenated index 1.
            Inst::TeslaPseudoAssert { assertion, .. } => assert_eq!(*assertion, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn link_rejects_struct_shape_conflicts() {
        let mk = |fields: &[&str]| {
            let mut mb = ModuleBuilder::new("m");
            mb.add_struct("s", fields);
            mb.build()
        };
        let err = Module::link(vec![mk(&["a"]), mk(&["a", "b"])], "p").unwrap_err();
        assert!(err.contains("incompatibly"));
    }
}
