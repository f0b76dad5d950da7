//! # tesla-cc — the mini-C front-end and TESLA analyser
//!
//! The Clang substitute (see DESIGN.md). One call to [`compile_unit`]
//! performs the analyser workflow of §4.1:
//!
//! 1. lex and parse mini-C, capturing `TESLA_*` assertion macros
//!    verbatim and parsing them with the unit's `#define` table;
//! 2. semantic analysis — which, exactly as in the paper ("since
//!    TESLA uses the Clang front-end for its analysis, it benefits
//!    from the same syntax- and type-checking, scoping rules, etc. as
//!    a normal compilation pass"), validates that assertion variables
//!    are in scope and resolves untyped field events to their struct
//!    types;
//! 3. lowering to TIR with `__tesla_inline_assertion`-style
//!    placeholders at assertion sites;
//! 4. emission of the unit's `.tesla` manifest (automaton
//!    descriptions), ready to be merged across the program and fed to
//!    the instrumenter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod sema;

use tesla_automata::Manifest;
use tesla_ir::Module;

pub use lower::LowerError;
pub use parser::CParseError;
pub use sema::SemaError;

/// A front-end failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexical or syntactic.
    Parse(CParseError),
    /// Semantic (possibly several).
    Sema(Vec<SemaError>),
    /// Lowering.
    Lower(LowerError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Sema(es) => {
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            CompileError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// The output of compiling one translation unit: the TIR module (with
/// `TeslaPseudoAssert` placeholders) and the unit's `.tesla` manifest.
#[derive(Debug, Clone)]
pub struct UnitOutput {
    /// Lowered TIR.
    pub module: Module,
    /// Extracted assertions (§4.1).
    pub manifest: Manifest,
}

/// Compile mini-C source into TIR plus its `.tesla` manifest.
///
/// # Errors
///
/// Returns [`CompileError`] describing the first failing phase.
pub fn compile_unit(src: &str, file: &str) -> Result<UnitOutput, CompileError> {
    let mut unit = parser::parse_unit(src, file).map_err(CompileError::Parse)?;
    let info = sema::analyse(&mut unit).map_err(CompileError::Sema)?;
    let module = lower::lower_unit(&unit, &info).map_err(CompileError::Lower)?;
    // The manifest owns its assertions; the module shares its own.
    let mut manifest = Manifest::new();
    for a in &module.assertions {
        manifest.push(file, (*a.assertion).clone());
    }
    Ok(UnitOutput { module, manifest })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_unit_compile() {
        let out = compile_unit(
            "#define P_SUGID 0x100\n\
             struct proc { int p_flag; };\n\
             int setuid(struct proc *p, int uid) {\n\
                 TESLA_SYSCALL(eventually(p.p_flag |= P_SUGID));\n\
                 p->p_flag |= P_SUGID;\n\
                 return 0;\n\
             }",
            "kern_prot.c",
        )
        .unwrap();
        assert_eq!(out.manifest.entries.len(), 1);
        let a = &out.manifest.entries[0].assertion;
        assert_eq!(a.loc.file, "kern_prot.c");
        // The flag constant resolved and the struct type was patched.
        let mut seen = false;
        a.expr.for_each_event(&mut |e| {
            if let tesla_spec::EventExpr::FieldAssignEvent {
                struct_name, value, ..
            } = e
            {
                assert_eq!(struct_name, "proc");
                assert_eq!(
                    value,
                    &tesla_spec::ArgPattern::Const(tesla_spec::Value(0x100))
                );
                seen = true;
            }
        });
        assert!(seen);
        // Manifest compiles to automata.
        let autos = out.manifest.compile_all().unwrap();
        assert_eq!(autos.len(), 1);
    }

    #[test]
    fn errors_propagate_per_phase() {
        assert!(matches!(
            compile_unit("int f( {", "x.c"),
            Err(CompileError::Parse(_))
        ));
        assert!(matches!(
            compile_unit("int f() { return nope_var; }", "x.c"),
            Err(CompileError::Sema(_))
        ));
    }
}
