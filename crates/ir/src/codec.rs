//! The `.bc` analogue: a compact binary encoding of a [`Module`].
//!
//! The real toolchain hands IR from stage to stage as bitcode files
//! (`clang → .bc → instrumenter → .bc → opt`, §4.2); the pipeline
//! models those hand-offs and the object-file write with
//! [`encode`] and [`decode`].
//!
//! The encoding is a pre-order walk of the module: unsigned integers
//! are LEB128 varints, `i64` immediates zigzag varints, strings and
//! lists a varint length followed by their items, and each enum value
//! one tag byte (its variant's index, in declaration order) followed
//! by its fields in declaration order. An assertion is stored as its
//! name, its location and its printed surface syntax, and read back
//! through the spec parser, as `.tesla` manifests are, into one fresh
//! `Arc` per assertion.
//!
//! [`decode`] gives back the module [`encode`] was given. Truncated
//! input, trailing bytes, an unknown tag, a varint past 64 bits, a
//! length past the end of input, a string that is not UTF-8 or an
//! assertion that does not parse is a [`DecodeError`], never a panic.

use crate::module::{
    Block, BlockId, Callee, CmpOp, FieldRef, FuncId, Function, Inst, Module, ModuleAssertion, Op,
    Reg, StructDef, StructId, Terminator,
};
use std::fmt;
use std::sync::Arc;
use tesla_spec::{FieldOp, SourceLoc};

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

/// Why [`decode`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset where decoding stopped.
    pub offset: usize,
    /// What was wrong there.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad IR at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Encode `m`; [`decode`] gives it back.
pub fn encode(m: &Module) -> Vec<u8> {
    let mut w = Writer(Vec::new());
    w.str(&m.name);
    w.list(&m.structs, |w, s| {
        w.str(&s.name);
        w.list(&s.fields, |w, f| w.str(f));
    });
    w.list(&m.functions, |w, f| {
        w.str(&f.name);
        w.uint(f.n_params.into());
        w.uint(f.n_regs.into());
        w.list(&f.blocks, |w, b| {
            w.list(&b.insts, Writer::inst);
            w.term(&b.term);
        });
    });
    w.list(&m.assertions, |w, a| {
        let a = &a.assertion;
        w.str(&a.name);
        w.str(&a.loc.file);
        w.uint(a.loc.line.into());
        w.str(&a.to_string());
    });
    w.0
}

/// Decode a module [`encode`] wrote.
///
/// # Errors
///
/// A [`DecodeError`] at the first byte that does not continue a valid
/// encoding, or at the first byte past one.
pub fn decode(bytes: &[u8]) -> Result<Module, DecodeError> {
    let mut r = Reader { b: bytes, i: 0 };
    let name = r.str()?;
    let structs = r.list(|r| {
        Ok(StructDef {
            name: r.str()?,
            fields: r.list(Reader::str)?,
        })
    })?;
    let functions = r.list(|r| {
        Ok(Function {
            name: r.str()?,
            n_params: r.u32()?,
            n_regs: r.u32()?,
            blocks: r.list(|r| {
                Ok(Block {
                    insts: r.list(Reader::inst)?,
                    term: r.term()?,
                })
            })?,
        })
    })?;
    let assertions = r.list(Reader::assertion)?;
    if r.i != bytes.len() {
        return Err(r.err("trailing bytes"));
    }
    Ok(Module {
        name,
        structs,
        functions,
        assertions,
    })
}

/// The index of `x` in its enum's variant table, as a tag byte.
fn tag_of<T: PartialEq>(table: &[T], x: &T) -> u8 {
    let i = table
        .iter()
        .position(|t| t == x)
        .expect("every variant is in its table");
    i as u8
}

struct Writer(Vec<u8>);

impl Writer {
    fn uint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
    }

    fn int(&mut self, v: i64) {
        self.uint(((v << 1) ^ (v >> 63)) as u64);
    }

    fn tag(&mut self, t: u8) {
        self.0.push(t);
    }

    fn str(&mut self, s: &str) {
        self.uint(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }

    fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Writer, &T)) {
        self.uint(items.len() as u64);
        for x in items {
            item(self, x);
        }
    }

    fn reg(&mut self, r: Reg) {
        self.uint(r.0.into());
    }

    fn regs(&mut self, rs: &[Reg]) {
        self.list(rs, |w, r| w.reg(*r));
    }

    fn opt_reg(&mut self, r: Option<Reg>) {
        match r {
            None => self.tag(0),
            Some(r) => {
                self.tag(1);
                self.reg(r);
            }
        }
    }

    fn field(&mut self, f: FieldRef) {
        self.uint(f.strct.0.into());
        self.uint(f.field.into());
    }

    fn inst(&mut self, inst: &Inst) {
        match inst {
            Inst::Const { dst, value } => {
                self.tag(0);
                self.reg(*dst);
                self.int(*value);
            }
            Inst::Copy { dst, src } => {
                self.tag(1);
                self.reg(*dst);
                self.reg(*src);
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                self.tag(2);
                self.reg(*dst);
                self.tag(tag_of(&OPS, op));
                self.reg(*lhs);
                self.reg(*rhs);
            }
            Inst::Cmp { dst, op, lhs, rhs } => {
                self.tag(3);
                self.reg(*dst);
                self.tag(tag_of(&CMP_OPS, op));
                self.reg(*lhs);
                self.reg(*rhs);
            }
            Inst::Call { dst, callee, args } => {
                self.tag(4);
                self.opt_reg(*dst);
                match callee {
                    Callee::Direct(f) => {
                        self.tag(0);
                        self.uint(f.0.into());
                    }
                    Callee::Indirect(r) => {
                        self.tag(1);
                        self.reg(*r);
                    }
                    Callee::External(name) => {
                        self.tag(2);
                        self.str(name);
                    }
                }
                self.regs(args);
            }
            Inst::FnAddr { dst, func } => {
                self.tag(5);
                self.reg(*dst);
                self.uint(func.0.into());
            }
            Inst::New { dst, strct } => {
                self.tag(6);
                self.reg(*dst);
                self.uint(strct.0.into());
            }
            Inst::Load { dst, obj, field } => {
                self.tag(7);
                self.reg(*dst);
                self.reg(*obj);
                self.field(*field);
            }
            Inst::Store {
                obj,
                field,
                op,
                value,
            } => {
                self.tag(8);
                self.reg(*obj);
                self.field(*field);
                self.tag(tag_of(&FieldOp::ALL, op));
                self.reg(*value);
            }
            Inst::TeslaPseudoAssert { assertion, args } => {
                self.tag(9);
                self.uint((*assertion).into());
                self.regs(args);
            }
            Inst::TeslaHookEntry { func } => {
                self.tag(10);
                self.uint(func.0.into());
            }
            Inst::TeslaHookExit { func, ret } => {
                self.tag(11);
                self.uint(func.0.into());
                self.opt_reg(*ret);
            }
            Inst::TeslaHookCallPre { name, args } => {
                self.tag(12);
                self.str(name);
                self.regs(args);
            }
            Inst::TeslaHookCallPost { name, args, ret } => {
                self.tag(13);
                self.str(name);
                self.regs(args);
                self.opt_reg(*ret);
            }
            Inst::TeslaHookField {
                obj,
                field,
                op,
                value,
            } => {
                self.tag(14);
                self.reg(*obj);
                self.field(*field);
                self.tag(tag_of(&FieldOp::ALL, op));
                self.reg(*value);
            }
            Inst::TeslaSite { class, args } => {
                self.tag(15);
                self.uint((*class).into());
                self.regs(args);
            }
        }
    }

    fn term(&mut self, t: &Terminator) {
        match t {
            Terminator::Jump(b) => {
                self.tag(0);
                self.uint(b.0.into());
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                self.tag(1);
                self.reg(*cond);
                self.uint(then_bb.0.into());
                self.uint(else_bb.0.into());
            }
            Terminator::Ret(r) => {
                self.tag(2);
                self.opt_reg(*r);
            }
            Terminator::Unreachable => self.tag(3),
        }
    }
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn err(&self, message: impl Into<String>) -> DecodeError {
        DecodeError {
            offset: self.i,
            message: message.into(),
        }
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .b
            .get(self.i)
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.i += 1;
        Ok(b)
    }

    fn uint(&mut self) -> Result<u64, DecodeError> {
        let start = self.i;
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                break;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        self.i = start;
        Err(self.err("varint overflows 64 bits"))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let start = self.i;
        let v = self.uint()?;
        u32::try_from(v).map_err(|_| DecodeError {
            offset: start,
            message: format!("{v} overflows 32 bits"),
        })
    }

    fn int(&mut self) -> Result<i64, DecodeError> {
        let v = self.uint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// A list or string length: each item takes at least one byte, so
    /// a length past the end of input is rejected.
    fn len(&mut self) -> Result<usize, DecodeError> {
        let start = self.i;
        let n = self.uint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.b.len() - self.i => Ok(n),
            _ => Err(DecodeError {
                offset: start,
                message: format!("length {n} runs past the end of input"),
            }),
        }
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.len()?;
        let bytes = &self.b[self.i..self.i + n];
        let s = std::str::from_utf8(bytes).map_err(|_| self.err("string is not UTF-8"))?;
        self.i += n;
        Ok(s.to_string())
    }

    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.len()?;
        // Grown as items decode: an item takes one byte of input but
        // many of memory, so `n` is no bound on what to reserve.
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A tag byte below `n`, for an enum of `n` variants called `what`.
    fn tag(&mut self, n: usize, what: &str) -> Result<usize, DecodeError> {
        let t = usize::from(self.byte()?);
        if t < n {
            Ok(t)
        } else {
            self.i -= 1;
            Err(self.err(format!("unknown {what} tag {t}")))
        }
    }

    fn variant<T: Copy>(&mut self, table: &[T], what: &str) -> Result<T, DecodeError> {
        Ok(table[self.tag(table.len(), what)?])
    }

    fn reg(&mut self) -> Result<Reg, DecodeError> {
        self.u32().map(Reg)
    }

    fn regs(&mut self) -> Result<Vec<Reg>, DecodeError> {
        self.list(Reader::reg)
    }

    fn opt_reg(&mut self) -> Result<Option<Reg>, DecodeError> {
        match self.tag(2, "Option")? {
            0 => Ok(None),
            _ => self.reg().map(Some),
        }
    }

    fn func(&mut self) -> Result<FuncId, DecodeError> {
        self.u32().map(FuncId)
    }

    fn field(&mut self) -> Result<FieldRef, DecodeError> {
        Ok(FieldRef {
            strct: StructId(self.u32()?),
            field: self.u32()?,
        })
    }

    fn inst(&mut self) -> Result<Inst, DecodeError> {
        Ok(match self.tag(16, "Inst")? {
            0 => Inst::Const {
                dst: self.reg()?,
                value: self.int()?,
            },
            1 => Inst::Copy {
                dst: self.reg()?,
                src: self.reg()?,
            },
            2 => Inst::Bin {
                dst: self.reg()?,
                op: self.variant(&OPS, "Op")?,
                lhs: self.reg()?,
                rhs: self.reg()?,
            },
            3 => Inst::Cmp {
                dst: self.reg()?,
                op: self.variant(&CMP_OPS, "CmpOp")?,
                lhs: self.reg()?,
                rhs: self.reg()?,
            },
            4 => Inst::Call {
                dst: self.opt_reg()?,
                callee: match self.tag(3, "Callee")? {
                    0 => Callee::Direct(self.func()?),
                    1 => Callee::Indirect(self.reg()?),
                    _ => Callee::External(self.str()?),
                },
                args: self.regs()?,
            },
            5 => Inst::FnAddr {
                dst: self.reg()?,
                func: self.func()?,
            },
            6 => Inst::New {
                dst: self.reg()?,
                strct: StructId(self.u32()?),
            },
            7 => Inst::Load {
                dst: self.reg()?,
                obj: self.reg()?,
                field: self.field()?,
            },
            8 => Inst::Store {
                obj: self.reg()?,
                field: self.field()?,
                op: self.variant(&FieldOp::ALL, "FieldOp")?,
                value: self.reg()?,
            },
            9 => Inst::TeslaPseudoAssert {
                assertion: self.u32()?,
                args: self.regs()?,
            },
            10 => Inst::TeslaHookEntry { func: self.func()? },
            11 => Inst::TeslaHookExit {
                func: self.func()?,
                ret: self.opt_reg()?,
            },
            12 => Inst::TeslaHookCallPre {
                name: self.str()?,
                args: self.regs()?,
            },
            13 => Inst::TeslaHookCallPost {
                name: self.str()?,
                args: self.regs()?,
                ret: self.opt_reg()?,
            },
            14 => Inst::TeslaHookField {
                obj: self.reg()?,
                field: self.field()?,
                op: self.variant(&FieldOp::ALL, "FieldOp")?,
                value: self.reg()?,
            },
            _ => Inst::TeslaSite {
                class: self.u32()?,
                args: self.regs()?,
            },
        })
    }

    fn term(&mut self) -> Result<Terminator, DecodeError> {
        Ok(match self.tag(4, "Terminator")? {
            0 => Terminator::Jump(BlockId(self.u32()?)),
            1 => Terminator::Branch {
                cond: self.reg()?,
                then_bb: BlockId(self.u32()?),
                else_bb: BlockId(self.u32()?),
            },
            2 => Terminator::Ret(self.opt_reg()?),
            _ => Terminator::Unreachable,
        })
    }

    fn assertion(&mut self) -> Result<ModuleAssertion, DecodeError> {
        let name = self.str()?;
        let loc = SourceLoc {
            file: self.str()?,
            line: self.u32()?,
        };
        let start = self.i;
        let text = self.str()?;
        let mut assertion = tesla_spec::parse_assertion(&text).map_err(|e| DecodeError {
            offset: start,
            message: format!("assertion: {e}"),
        })?;
        assertion.name = name;
        assertion.loc = loc;
        Ok(ModuleAssertion {
            assertion: Arc::new(assertion),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint(v: u64) -> Vec<u8> {
        let mut w = Writer(Vec::new());
        w.uint(v);
        w.0
    }

    #[test]
    fn varints_roundtrip_at_their_edges() {
        for v in [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let bytes = varint(v);
            let mut r = Reader { b: &bytes, i: 0 };
            assert_eq!(r.uint(), Ok(v));
            assert_eq!(r.i, bytes.len());
        }
        assert_eq!(varint(u64::MAX).len(), 10);
        for v in [0, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut w = Writer(Vec::new());
            w.int(v);
            assert_eq!(Reader { b: &w.0, i: 0 }.int(), Ok(v));
        }
    }

    #[test]
    fn malformed_input_is_an_error_at_its_byte() {
        let err = |bytes: &[u8]| decode(bytes).unwrap_err().to_string();
        assert_eq!(err(&[]), "bad IR at byte 0: unexpected end of input");
        // An empty module is four zero lengths; a fifth byte trails.
        assert!(decode(&[0, 0, 0, 0]).is_ok());
        assert_eq!(err(&[0, 0, 0, 0, 0]), "bad IR at byte 4: trailing bytes");
        assert_eq!(
            err(&[5, b'a']),
            "bad IR at byte 0: length 5 runs past the end of input"
        );
        assert_eq!(err(&[1, 0xff]), "bad IR at byte 1: string is not UTF-8");
        let mut overlong = vec![0xff; 10];
        overlong.push(0);
        assert_eq!(err(&overlong), "bad IR at byte 0: varint overflows 64 bits");
        // One function `f` (no parameters, two registers) whose one
        // block holds an instruction with tag 16.
        assert_eq!(
            err(&[0, 0, 1, 1, b'f', 0, 2, 1, 1, 16]),
            "bad IR at byte 9: unknown Inst tag 16"
        );
        // One assertion whose text does not parse.
        assert_eq!(
            err(&[0, 0, 0, 1, 0, 0, 0, 3, b'b', b'a', b'd']),
            "bad IR at byte 7: assertion: parse error at byte 3: expected `(`, found end of input"
        );
    }
}
