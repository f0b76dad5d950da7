//! Convenience builders for TIR modules and functions.

use crate::module::{
    Block, BlockId, Function, Inst, Module, ModuleAssertion, Reg, StructDef, StructId, Terminator,
};
use std::sync::Arc;

/// Builds a [`Module`].
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Start a module named `name` (by convention, the source file).
    pub fn new(name: &str) -> ModuleBuilder {
        ModuleBuilder {
            module: Module {
                name: name.to_string(),
                ..Module::default()
            },
        }
    }

    /// Declare a structure type.
    pub fn add_struct(&mut self, name: &str, fields: &[&str]) -> StructId {
        let id = StructId(self.module.structs.len() as u32);
        self.module.structs.push(StructDef {
            name: name.to_string(),
            fields: fields.iter().map(|f| f.to_string()).collect(),
        });
        id
    }

    /// Begin a function; finish it with [`FunctionBuilder::finish`]
    /// and attach with [`ModuleBuilder::add_function`].
    pub fn begin_function(&mut self, name: &str, n_params: u32) -> FunctionBuilder {
        FunctionBuilder::new(name, n_params)
    }

    /// Attach a finished function.
    pub fn add_function(&mut self, f: Function) -> crate::module::FuncId {
        let id = crate::module::FuncId(self.module.functions.len() as u32);
        self.module.functions.push(f);
        id
    }

    /// Attach a TESLA assertion extracted by the front-end.
    pub fn add_assertion(&mut self, a: tesla_spec::Assertion) -> u32 {
        let id = self.module.assertions.len() as u32;
        self.module.assertions.push(ModuleAssertion {
            assertion: Arc::new(a),
        });
        id
    }

    /// Finalise the module.
    pub fn build(self) -> Module {
        self.module
    }
}

/// Builds a [`Function`] block by block.
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    n_params: u32,
    next_reg: u32,
    blocks: Vec<Block>,
    current: Vec<Inst>,
}

impl FunctionBuilder {
    fn new(name: &str, n_params: u32) -> FunctionBuilder {
        FunctionBuilder {
            name: name.to_string(),
            n_params,
            next_reg: n_params,
            blocks: Vec::new(),
            current: Vec::new(),
        }
    }

    /// Parameter register `i`.
    pub fn param(&self, i: u32) -> Reg {
        debug_assert!(i < self.n_params);
        Reg(i)
    }

    /// Allocate a fresh register.
    pub fn fresh(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Append an instruction to the current block.
    pub fn inst(&mut self, i: Inst) {
        self.current.push(i);
    }

    /// `dst = value` shorthand; returns the destination.
    pub fn constant(&mut self, value: i64) -> Reg {
        let dst = self.fresh();
        self.inst(Inst::Const { dst, value });
        dst
    }

    /// Terminate the current block and start a new one; returns the
    /// id of the *new* block.
    pub fn end_block(&mut self, term: Terminator) -> BlockId {
        self.blocks.push(Block {
            insts: std::mem::take(&mut self.current),
            term,
        });
        BlockId(self.blocks.len() as u32)
    }

    /// The id the current (unterminated) block will get.
    pub fn current_block(&self) -> BlockId {
        BlockId(self.blocks.len() as u32)
    }

    /// Terminate the current block and produce the function.
    pub fn finish(mut self, term: Terminator) -> Function {
        self.blocks.push(Block {
            insts: std::mem::take(&mut self.current),
            term,
        });
        Function {
            name: self.name,
            n_params: self.n_params,
            n_regs: self.next_reg,
            blocks: self.blocks,
        }
    }

    /// Finish a function whose body is just `return reg?`.
    pub fn finish_trivial_return(self, value: Option<Reg>) -> Function {
        self.finish(Terminator::Ret(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{CmpOp, Op};

    #[test]
    fn builder_numbers_registers_after_params() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.begin_function("f", 2);
        assert_eq!(f.param(0), Reg(0));
        assert_eq!(f.param(1), Reg(1));
        assert_eq!(f.fresh(), Reg(2));
        assert_eq!(f.fresh(), Reg(3));
        let func = f.finish(Terminator::Ret(None));
        assert_eq!(func.n_regs, 4);
        mb.add_function(func);
    }

    #[test]
    fn multi_block_function_shape() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.begin_function("abs_diff", 2);
        let c = f.fresh();
        f.inst(Inst::Cmp {
            dst: c,
            op: CmpOp::Lt,
            lhs: f.param(0),
            rhs: f.param(1),
        });
        let then_bb = f.end_block(Terminator::Branch {
            cond: c,
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        });
        assert_eq!(then_bb, BlockId(1));
        let r1 = f.fresh();
        f.inst(Inst::Bin {
            dst: r1,
            op: Op::Sub,
            lhs: f.param(1),
            rhs: f.param(0),
        });
        f.end_block(Terminator::Ret(Some(r1)));
        let r2 = f.fresh();
        f.inst(Inst::Bin {
            dst: r2,
            op: Op::Sub,
            lhs: f.param(0),
            rhs: f.param(1),
        });
        let func = f.finish(Terminator::Ret(Some(r2)));
        assert_eq!(func.blocks.len(), 3);
        mb.add_function(func);
        let m = mb.build();
        assert_eq!(m.n_insts(), 3 + 3); // 3 insts + 3 terminators
    }
}
