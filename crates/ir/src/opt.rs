//! The TIR optimiser.
//!
//! One pass matters for TESLA: **inlining**. "Instrumentation is not
//! robust in the presence of function inlining and other
//! optimisations, so we run the TESLA instrumenter before
//! optimisation" (§4.2) — the paper's pipeline is Clang `-O0` →
//! instrument → `opt -O2`. This module provides the inliner (and a
//! small dead-copy cleanup) so the pipeline crate can demonstrate
//! both orders: instrument-then-optimise keeps every event;
//! optimise-then-instrument silently loses callee entry/exit events
//! for inlined functions.

use crate::module::{Block, BlockId, Callee, Function, Inst, Module, Reg, Terminator};

/// Only functions with at most this many instructions are inlined.
pub const INLINE_MAX_INSTS: usize = 16;

/// Only leaf-ish functions with at most this many blocks are inlined.
pub const INLINE_MAX_BLOCKS: usize = 3;

/// Is `f` small enough to inline, and free of constructs the simple
/// inliner cannot relocate (instrumentation hooks pin a function)?
fn inlinable(f: &Function) -> bool {
    if f.blocks.len() > INLINE_MAX_BLOCKS {
        return false;
    }
    let insts: usize = f.blocks.iter().map(|b| b.insts.len()).sum();
    if insts > INLINE_MAX_INSTS {
        return false;
    }
    f.blocks.iter().all(|b| {
        b.insts.iter().all(|i| {
            !matches!(
                i,
                Inst::TeslaHookEntry { .. }
                    | Inst::TeslaHookExit { .. }
                    | Inst::TeslaSite { .. }
                    | Inst::TeslaPseudoAssert { .. }
                    | Inst::TeslaHookField { .. }
                    | Inst::TeslaHookCallPre { .. }
                    | Inst::TeslaHookCallPost { .. }
            )
        })
    })
}

/// Statistics from an optimisation run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OptStats {
    /// Call sites inlined.
    pub inlined_calls: usize,
    /// Dead copies removed.
    pub removed_copies: usize,
}

/// Run the optimiser over every function: inline small callees, then
/// clean up.
pub fn optimise(m: &mut Module) -> OptStats {
    let mut stats = OptStats::default();
    // Snapshot callee bodies to avoid self-referential borrows; only
    // small functions are candidates so this is cheap.
    let candidates: Vec<Option<Function>> = m
        .functions
        .iter()
        .map(|f| if inlinable(f) { Some(f.clone()) } else { None })
        .collect();
    for f in &mut m.functions {
        stats.inlined_calls += inline_in_function(f, &candidates);
        stats.removed_copies += remove_dead_copies(f);
    }
    stats
}

/// Inline eligible direct calls in `f`. Returns the number of call
/// sites inlined. Single-block callees are spliced in place;
/// multi-block callees are handled by splitting the caller block.
fn inline_in_function(f: &mut Function, candidates: &[Option<Function>]) -> usize {
    let mut inlined = 0;
    // Iterate until fixpoint over a work list of blocks; inlining a
    // multi-block callee appends new blocks.
    let mut bi = 0;
    while bi < f.blocks.len() {
        let mut ii = 0;
        while ii < f.blocks[bi].insts.len() {
            let inst = f.blocks[bi].insts[ii].clone();
            let Inst::Call {
                dst,
                callee: Callee::Direct(g),
                args,
            } = inst
            else {
                ii += 1;
                continue;
            };
            // Recursive calls cannot be inlined.
            let Some(body) = candidates.get(g.0 as usize).and_then(|c| c.as_ref()) else {
                ii += 1;
                continue;
            };
            if body.name == f.name {
                ii += 1;
                continue;
            }
            if body.blocks.len() == 1 {
                splice_single_block(f, bi, ii, dst, &args, body);
            } else {
                splice_multi_block(f, bi, ii, dst, &args, body);
            }
            inlined += 1;
            // Re-examine the same index: the spliced code starts there.
            continue;
        }
        bi += 1;
    }
    inlined
}

/// Remap a callee's registers into fresh caller registers, with
/// parameters pre-bound via `Copy` from the argument registers.
fn remap_reg(r: Reg, base: u32) -> Reg {
    Reg(r.0 + base)
}

fn remap_inst_regs(inst: &mut Inst, base: u32) {
    let m = |r: &mut Reg| *r = remap_reg(*r, base);
    match inst {
        Inst::Const { dst, .. } => m(dst),
        Inst::Copy { dst, src } => {
            m(dst);
            m(src);
        }
        Inst::Bin { dst, lhs, rhs, .. } | Inst::Cmp { dst, lhs, rhs, .. } => {
            m(dst);
            m(lhs);
            m(rhs);
        }
        Inst::Call { dst, callee, args } => {
            if let Some(d) = dst {
                m(d);
            }
            if let Callee::Indirect(r) = callee {
                m(r);
            }
            args.iter_mut().for_each(m);
        }
        Inst::FnAddr { dst, .. } => m(dst),
        Inst::New { dst, .. } => m(dst),
        Inst::Load { dst, obj, .. } => {
            m(dst);
            m(obj);
        }
        Inst::Store { obj, value, .. } => {
            m(obj);
            m(value);
        }
        Inst::TeslaPseudoAssert { args, .. } | Inst::TeslaSite { args, .. } => {
            args.iter_mut().for_each(m);
        }
        Inst::TeslaHookEntry { .. } => {}
        Inst::TeslaHookExit { ret, .. } => {
            if let Some(r) = ret {
                m(r);
            }
        }
        Inst::TeslaHookCallPre { args, .. } => args.iter_mut().for_each(m),
        Inst::TeslaHookCallPost { args, ret, .. } => {
            args.iter_mut().for_each(m);
            if let Some(r) = ret {
                m(r);
            }
        }
        Inst::TeslaHookField { obj, value, .. } => {
            m(obj);
            m(value);
        }
    }
}

/// Inline a single-block callee by splicing its instructions in place
/// of the call.
fn splice_single_block(
    f: &mut Function,
    bi: usize,
    ii: usize,
    dst: Option<Reg>,
    args: &[Reg],
    body: &Function,
) {
    let base = f.n_regs;
    f.n_regs += body.n_regs;
    let mut splice: Vec<Inst> = Vec::with_capacity(body.blocks[0].insts.len() + args.len() + 1);
    for (i, a) in args.iter().enumerate() {
        splice.push(Inst::Copy {
            dst: remap_reg(Reg(i as u32), base),
            src: *a,
        });
    }
    for inst in &body.blocks[0].insts {
        let mut inst = inst.clone();
        remap_inst_regs(&mut inst, base);
        splice.push(inst);
    }
    match &body.blocks[0].term {
        Terminator::Ret(Some(r)) => {
            if let Some(d) = dst {
                splice.push(Inst::Copy {
                    dst: d,
                    src: remap_reg(*r, base),
                });
            }
        }
        Terminator::Ret(None) => {}
        _ => unreachable!("single-block inlinable callee must end in Ret"),
    }
    f.blocks[bi].insts.splice(ii..=ii, splice);
}

/// Inline a multi-block callee: split the caller block after the
/// call, append remapped callee blocks, and rewrite callee `Ret`s to
/// jump to the continuation.
fn splice_multi_block(
    f: &mut Function,
    bi: usize,
    ii: usize,
    dst: Option<Reg>,
    args: &[Reg],
    body: &Function,
) {
    let base = f.n_regs;
    f.n_regs += body.n_regs;
    let callee_block_base = f.blocks.len() as u32 + 1; // +1 for the continuation
    let cont_id = BlockId(f.blocks.len() as u32);

    // Split: caller block keeps insts[..ii] + arg copies, then jumps
    // into the callee; continuation gets insts[ii+1..] + original
    // terminator.
    let rest: Vec<Inst> = f.blocks[bi].insts.split_off(ii + 1);
    f.blocks[bi].insts.pop(); // the call itself
    for (i, a) in args.iter().enumerate() {
        f.blocks[bi].insts.push(Inst::Copy {
            dst: remap_reg(Reg(i as u32), base),
            src: *a,
        });
    }
    let orig_term = std::mem::replace(
        &mut f.blocks[bi].term,
        Terminator::Jump(BlockId(callee_block_base)),
    );
    f.blocks.push(Block {
        insts: rest,
        term: orig_term,
    }); // continuation = cont_id

    for b in &body.blocks {
        let mut insts = Vec::with_capacity(b.insts.len());
        for inst in &b.insts {
            let mut inst = inst.clone();
            remap_inst_regs(&mut inst, base);
            insts.push(inst);
        }
        let term = match &b.term {
            Terminator::Jump(t) => Terminator::Jump(BlockId(t.0 + callee_block_base)),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => Terminator::Branch {
                cond: remap_reg(*cond, base),
                then_bb: BlockId(then_bb.0 + callee_block_base),
                else_bb: BlockId(else_bb.0 + callee_block_base),
            },
            Terminator::Ret(r) => {
                if let (Some(d), Some(r)) = (dst, r) {
                    insts.push(Inst::Copy {
                        dst: d,
                        src: remap_reg(*r, base),
                    });
                }
                Terminator::Jump(cont_id)
            }
            Terminator::Unreachable => Terminator::Unreachable,
        };
        f.blocks.push(Block { insts, term });
    }
}

/// Remove `Copy { dst, src }` where `dst == src`.
fn remove_dead_copies(f: &mut Function) -> usize {
    let mut removed = 0;
    for b in &mut f.blocks {
        let before = b.insts.len();
        b.insts
            .retain(|i| !matches!(i, Inst::Copy { dst, src } if dst == src));
        removed += before - b.insts.len();
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::interp::{Interp, NullSink};
    use crate::module::{CmpOp, FuncId, Op};
    use crate::verify::{verify, Stage};

    /// add1(x) = x + 1 (single block), abs(x) = x < 0 ? -x : x
    /// (multi-block); main(n) = abs(add1(n)).
    fn program() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.begin_function("add1", 1);
        let one = f.constant(1);
        let r = f.fresh();
        f.inst(Inst::Bin {
            dst: r,
            op: Op::Add,
            lhs: f.param(0),
            rhs: one,
        });
        let add1 = mb.add_function(f.finish(Terminator::Ret(Some(r))));

        let mut f = mb.begin_function("abs", 1);
        let z = f.constant(0);
        let c = f.fresh();
        f.inst(Inst::Cmp {
            dst: c,
            op: CmpOp::Lt,
            lhs: f.param(0),
            rhs: z,
        });
        f.end_block(Terminator::Branch {
            cond: c,
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        });
        let z2 = f.constant(0);
        let neg = f.fresh();
        f.inst(Inst::Bin {
            dst: neg,
            op: Op::Sub,
            lhs: z2,
            rhs: f.param(0),
        });
        f.end_block(Terminator::Ret(Some(neg)));
        let p0 = f.param(0);
        let abs = mb.add_function(f.finish(Terminator::Ret(Some(p0))));

        let mut f = mb.begin_function("main", 1);
        let t = f.fresh();
        f.inst(Inst::Call {
            dst: Some(t),
            callee: Callee::Direct(add1),
            args: vec![f.param(0)],
        });
        let out = f.fresh();
        f.inst(Inst::Call {
            dst: Some(out),
            callee: Callee::Direct(abs),
            args: vec![t],
        });
        mb.add_function(f.finish(Terminator::Ret(Some(out))));
        mb.build()
    }

    fn run(m: &Module, arg: i64) -> i64 {
        let mut i = Interp::new(m, 100_000);
        i.run_named("main", &[arg], &mut NullSink).unwrap()
    }

    #[test]
    fn inlining_preserves_semantics() {
        let mut m = program();
        for arg in [-10i64, -1, 0, 1, 41] {
            let expected = (arg + 1).abs();
            assert_eq!(run(&m, arg), expected, "before opt, arg={arg}");
        }
        let stats = optimise(&mut m);
        assert_eq!(stats.inlined_calls, 2);
        verify(&m, Stage::Linked).unwrap();
        for arg in [-10i64, -1, 0, 1, 41] {
            let expected = (arg + 1).abs();
            assert_eq!(run(&m, arg), expected, "after opt, arg={arg}");
        }
    }

    #[test]
    fn inlining_removes_call_instructions() {
        let mut m = program();
        optimise(&mut m);
        let main = &m.functions[m.function("main").unwrap().0 as usize];
        let calls = main
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Call { .. }))
            .count();
        assert_eq!(calls, 0);
    }

    #[test]
    fn instrumented_functions_are_not_inlined() {
        let mut m = program();
        // Pretend add1 was instrumented.
        let add1 = m.function("add1").unwrap();
        m.functions[add1.0 as usize].blocks[0]
            .insts
            .insert(0, Inst::TeslaHookEntry { func: add1 });
        let stats = optimise(&mut m);
        // abs still inlines; add1 must not.
        assert_eq!(stats.inlined_calls, 1);
        let main = &m.functions[m.function("main").unwrap().0 as usize];
        let still_calls_add1 = main
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Call { callee: Callee::Direct(g), .. } if *g == add1));
        assert!(still_calls_add1);
    }

    #[test]
    fn recursive_functions_are_not_inlined() {
        // f(n) = n (self-recursive shape kept trivial but named same).
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.begin_function("loopy", 1);
        let r = f.fresh();
        f.inst(Inst::Call {
            dst: Some(r),
            callee: Callee::Direct(FuncId(0)),
            args: vec![f.param(0)],
        });
        mb.add_function(f.finish(Terminator::Ret(Some(r))));
        let mut m = mb.build();
        let stats = optimise(&mut m);
        assert_eq!(stats.inlined_calls, 0);
    }

    /// The size limit: a callee of [`INLINE_MAX_INSTS`] instructions
    /// inlines, one of an instruction more does not.
    #[test]
    fn threshold_controls_inlining() {
        for (insts, inlined) in [(INLINE_MAX_INSTS, 1), (INLINE_MAX_INSTS + 1, 0)] {
            let mut mb = ModuleBuilder::new("m");
            let mut f = mb.begin_function("chain", 1);
            let mut r = f.param(0);
            for _ in 0..insts {
                let next = f.fresh();
                f.inst(Inst::Copy { dst: next, src: r });
                r = next;
            }
            let chain = mb.add_function(f.finish(Terminator::Ret(Some(r))));
            let mut f = mb.begin_function("main", 1);
            let out = f.fresh();
            f.inst(Inst::Call {
                dst: Some(out),
                callee: Callee::Direct(chain),
                args: vec![f.param(0)],
            });
            mb.add_function(f.finish(Terminator::Ret(Some(out))));
            let mut m = mb.build();
            let stats = optimise(&mut m);
            assert_eq!(stats.inlined_calls, inlined, "{insts} instructions");
            assert_eq!(run(&m, 7), 7);
        }
    }
}
