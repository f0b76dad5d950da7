//! Property tests: TIR modules survive the `.bc`-analogue codec
//! round-trip unchanged (the pipeline depends on this for the §5.1 IR
//! hand-offs), and no proper prefix of an encoding decodes. Module
//! assertions come from the spec crate's assertion generator, so they
//! reach the parser's depth bound and the ends of the constant types,
//! with names and files in every character band.

#[path = "../../spec/tests/support/assertion_gen.rs"]
mod assertion_gen;

use assertion_gen::{build, recipe, Reach};
use std::cell::RefCell;
use std::sync::Arc;
use tesla_ir::module::{Block, FieldRef, Function, ModuleAssertion, StructDef};
use tesla_ir::{
    decode, encode, BlockId, Callee, CmpOp, FuncId, Inst, Interp, Module, NullSink, Op, Reg,
    StructId, Terminator,
};
use tesla_prop::{check, prop_assert, prop_assert_eq, Gen};
use tesla_spec::{FieldOp, SourceLoc};

const SEED: u64 = 0x1f;

/// A miniature deterministic corpus (kept local so tesla-ir's tests
//  do not depend on the umbrella crate).
fn corpus_source(files: usize, assertions: usize) -> Vec<(String, String)> {
    let mut units = Vec::new();
    let mut src = String::from(
        "struct socket { int so_state; };\n\
         int mac_check(int cred, struct socket *so) { return 0; }\n\
         int entry(int cred) {\n\
             struct socket *so = malloc(sizeof(struct socket));\n\
             mac_check(cred, so);\n",
    );
    for a in 0..assertions {
        src.push_str(&format!(
            "    TESLA_WITHIN(entry, previously(mac_check(ANY(int), so) == 0)); // {a}\n"
        ));
    }
    src.push_str("    return 0;\n}\n");
    units.push(("u0.c".to_string(), src));
    for i in 1..files {
        units.push((
            format!("u{i}.c"),
            format!("int helper_{i}(int x) {{ return x * {i} + 1; }}"),
        ));
    }
    units
}

fn corpus_module(files: usize, assertions: usize) -> Module {
    let outs: Vec<Module> = corpus_source(files, assertions)
        .iter()
        .map(|(f, s)| tesla_cc::compile_unit(s, f).unwrap().module)
        .collect();
    Module::link(outs, "prog").unwrap()
}

#[test]
fn module_codec_roundtrips() {
    check(
        24,
        SEED,
        |g| (g.range(1usize..5), g.range(0usize..4)),
        |(files, assertions)| {
            let m = corpus_module(files, assertions);
            let back = decode(&encode(&m)).unwrap();
            prop_assert_eq!(&m, &back);
            // And the reloaded module still runs identically (the
            // un-instrumented program traps at the placeholder when
            // assertions are present; both sides must agree exactly).
            let mut i1 = Interp::new(&m, 100_000);
            let mut i2 = Interp::new(&back, 100_000);
            let r1 = i1.run_named("entry", &[7], &mut NullSink);
            let r2 = i2.run_named("entry", &[7], &mut NullSink);
            prop_assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
            Ok(())
        },
    );
}

const OPS: [Op; 10] = [
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::Div,
    Op::Rem,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Shl,
    Op::Shr,
];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const FIELD_OPS: [FieldOp; 5] = [
    FieldOp::Assign,
    FieldOp::AddAssign,
    FieldOp::SubAssign,
    FieldOp::OrAssign,
    FieldOp::AndAssign,
];
fn text(g: &mut Gen) -> String {
    g.vec(0..6, Gen::char).into_iter().collect()
}

fn u32_any(g: &mut Gen) -> u32 {
    g.u64() as u32
}

fn reg(g: &mut Gen) -> Reg {
    Reg(u32_any(g))
}

fn regs(g: &mut Gen) -> Vec<Reg> {
    g.vec(0..3, reg)
}

fn field(g: &mut Gen) -> FieldRef {
    FieldRef {
        strct: StructId(u32_any(g)),
        field: u32_any(g),
    }
}

fn field_op(g: &mut Gen) -> FieldOp {
    FIELD_OPS[g.below(FIELD_OPS.len())]
}

/// Any instruction: every variant, with any operands.
fn inst(g: &mut Gen) -> Inst {
    match g.below(16) {
        0 => Inst::Const {
            dst: reg(g),
            value: g.u64() as i64,
        },
        1 => Inst::Copy {
            dst: reg(g),
            src: reg(g),
        },
        2 => Inst::Bin {
            dst: reg(g),
            op: OPS[g.below(OPS.len())],
            lhs: reg(g),
            rhs: reg(g),
        },
        3 => Inst::Cmp {
            dst: reg(g),
            op: CMP_OPS[g.below(CMP_OPS.len())],
            lhs: reg(g),
            rhs: reg(g),
        },
        4 => Inst::Call {
            dst: g.option(reg),
            callee: match g.below(3) {
                0 => Callee::Direct(FuncId(u32_any(g))),
                1 => Callee::Indirect(reg(g)),
                _ => Callee::External(text(g)),
            },
            args: regs(g),
        },
        5 => Inst::FnAddr {
            dst: reg(g),
            func: FuncId(u32_any(g)),
        },
        6 => Inst::New {
            dst: reg(g),
            strct: StructId(u32_any(g)),
        },
        7 => Inst::Load {
            dst: reg(g),
            obj: reg(g),
            field: field(g),
        },
        8 => Inst::Store {
            obj: reg(g),
            field: field(g),
            op: field_op(g),
            value: reg(g),
        },
        9 => Inst::TeslaPseudoAssert {
            assertion: u32_any(g),
            args: regs(g),
        },
        10 => Inst::TeslaHookEntry {
            func: FuncId(u32_any(g)),
        },
        11 => Inst::TeslaHookExit {
            func: FuncId(u32_any(g)),
            ret: g.option(reg),
        },
        12 => Inst::TeslaHookCallPre {
            name: text(g),
            args: regs(g),
        },
        13 => Inst::TeslaHookCallPost {
            name: text(g),
            args: regs(g),
            ret: g.option(reg),
        },
        14 => Inst::TeslaHookField {
            obj: reg(g),
            field: field(g),
            op: field_op(g),
            value: reg(g),
        },
        _ => Inst::TeslaSite {
            class: u32_any(g),
            args: regs(g),
        },
    }
}

fn term(g: &mut Gen) -> Terminator {
    match g.below(4) {
        0 => Terminator::Jump(BlockId(u32_any(g))),
        1 => Terminator::Branch {
            cond: reg(g),
            then_bb: BlockId(u32_any(g)),
            else_bb: BlockId(u32_any(g)),
        },
        2 => Terminator::Ret(g.option(reg)),
        _ => Terminator::Unreachable,
    }
}

/// A generated assertion with any name and location, or `None` where
/// the builder refuses it (`assertion_codec_roundtrips` checks why).
fn assertion(g: &mut Gen) -> Option<ModuleAssertion> {
    let built = build(&recipe(g)).ok()?.ok();
    let (name, file, line) = (text(g), text(g), u32_any(g));
    let mut assertion = built?;
    assertion.name = name;
    assertion.loc = SourceLoc { file, line };
    Some(ModuleAssertion {
        assertion: Arc::new(assertion),
    })
}

/// A module of any shape: it need not verify, only encode.
fn any_module(g: &mut Gen) -> Module {
    Module {
        name: text(g),
        structs: g.vec(0..3, |g| StructDef {
            name: text(g),
            fields: g.vec(0..3, text),
        }),
        functions: g.vec(0..3, |g| Function {
            name: text(g),
            n_params: u32_any(g),
            n_regs: u32_any(g),
            blocks: g.vec(1..3, |g| Block {
                insts: g.vec(0..6, inst),
                term: term(g),
            }),
        }),
        assertions: g.vec(0..3, assertion).into_iter().flatten().collect(),
    }
}

/// Which character bands and empty strings the names and files of
/// `assertion_codec_roundtrips` met: C0, C1, astral, empty name, empty
/// file.
#[derive(Debug, Default)]
struct TextReach([bool; 5]);

impl TextReach {
    fn note(&mut self, name: &str, file: &str) {
        for c in name.chars().chain(file.chars()) {
            let i = match u32::from(c) {
                0..=0x1f => 0,
                0x80..=0x9f => 1,
                0x1_0000.. => 2,
                _ => continue,
            };
            self.0[i] = true;
        }
        self.0[3] |= name.is_empty();
        self.0[4] |= file.is_empty();
    }
}

/// Every generated assertion either builds and survives the codec
/// with any name and location, or is refused by the builder as too
/// deep; the fixed seed meets every edge of the generator and every
/// character band.
#[test]
fn assertion_codec_roundtrips() {
    let reach = RefCell::new((Reach::default(), TextReach::default()));
    check(
        128,
        SEED,
        |g| (recipe(g), text(g), text(g), u32_any(g)),
        |(r, name, file, line)| {
            let built = build(&r)?;
            let mut reach = reach.borrow_mut();
            reach.0.note(&built);
            reach.1.note(&name, &file);
            let Ok(mut a) = built else { return Ok(()) };
            a.name = name;
            a.loc = SourceLoc { file, line };
            let m = Module {
                assertions: vec![ModuleAssertion {
                    assertion: Arc::new(a),
                }],
                ..Module::default()
            };
            prop_assert_eq!(decode(&encode(&m)), Ok(m));
            Ok(())
        },
    );
    let (reach, text) = reach.into_inner();
    reach.assert_complete();
    assert_eq!(text.0, [true; 5], "C0, C1, astral, empty name, empty file");
}

#[test]
fn any_module_roundtrips_and_no_prefix_decodes() {
    check(64, SEED, any_module, |m| {
        let bytes = encode(&m);
        prop_assert_eq!(decode(&bytes), Ok(m));
        for end in 0..bytes.len() {
            prop_assert!(
                decode(&bytes[..end]).is_err(),
                "the first {end} of {} bytes decode",
                bytes.len()
            );
        }
        Ok(())
    });
}
