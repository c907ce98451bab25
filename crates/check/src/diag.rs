//! Diagnostics: stable codes, severities and source-span-style rendering.
//!
//! Codes are stable across releases (golden corpus files assert them):
//! `OC0xxx` are errors (the verifier's exit status is non-zero if any is
//! present), `OC1xxx` are lints (warnings; the `ookamicheck` gate holds
//! shipped traces to zero diagnostics of *either* class), and `TVxxxx`
//! are translation-validation failures from [`crate::tv`] (always
//! errors: a pass changed observable behavior, or the validator could
//! not prove it didn't).
//!
//! The full code table is embedded in DESIGN.md between
//! `<!-- diag-code-table:begin -->` markers and rendered by
//! [`code_table`]; a drift test fails when a code is added without a
//! doc row.

use crate::program::Program;

/// Stable diagnostic codes. The numeric part never changes meaning; new
/// checks get new codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// Use of a register that is not defined at this point (covers both
    /// never-defined and use-before-def in SSA streams).
    UndefinedUse,
    /// Operand register lives in the wrong domain (vector where a
    /// predicate is required, or vice versa).
    DomainMismatch,
    /// Instruction width differs from the stream's vector length.
    WidthMismatch,
    /// Gather/scatter index vector provably indexes outside its bound
    /// buffer.
    OutOfBoundsIndex,
    /// Operand count or destination presence is malformed for the op
    /// class under the stream's convention.
    MalformedArity,
    /// A memory write is governed by a predicate that may be wider than
    /// the loop predicate (inactive lanes could flow into memory).
    OverWidePredicate,
    /// A register is defined twice (SSA violation in a traced stream).
    DoubleDef,
    /// Lint: a body definition is never used and is not live-out.
    DeadDef,
    /// Lint: a predicate is recomputed from identical operands.
    RedundantPredicate,
    /// Lint: a vector-width op whose every in-body source is scalar.
    UnnecessaryWidening,
    /// TV: an observable (output slot, tap, carry, effect operand, or a
    /// defining op) differs between pass stages under the witness.
    ObservableMismatch,
    /// TV: the pass's slot-substitution or constant-fold witness cannot
    /// be independently justified from the source stage.
    WitnessBroken,
    /// TV: a pass introduced a gather/scatter index-bounds violation
    /// (OC0004) that the previous stage did not have.
    IndexWidened,
    /// TV: the independently re-derived static counter recipe differs
    /// from the compiler's pre-folded block snapshot.
    CounterRecipeMismatch,
    /// TV: a pass weakened an abstract-domain fact at an observable —
    /// a Bounded store predicate widened, or a canonical-quiet NaN
    /// output became arbitrary.
    LatticeWeakened,
    /// TV: a source-stage effect (scatter, overhead, libm call) has no
    /// target-stage counterpart.
    EffectDropped,
    /// TV: the target stage performs an effect the source never did.
    EffectAdded,
}

impl Code {
    /// Every stable code, in table order (OC errors, OC lints, TV).
    pub const ALL: [Code; 17] = [
        Code::UndefinedUse,
        Code::DomainMismatch,
        Code::WidthMismatch,
        Code::OutOfBoundsIndex,
        Code::MalformedArity,
        Code::OverWidePredicate,
        Code::DoubleDef,
        Code::DeadDef,
        Code::RedundantPredicate,
        Code::UnnecessaryWidening,
        Code::ObservableMismatch,
        Code::WitnessBroken,
        Code::IndexWidened,
        Code::CounterRecipeMismatch,
        Code::LatticeWeakened,
        Code::EffectDropped,
        Code::EffectAdded,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Code::UndefinedUse => "OC0001",
            Code::DomainMismatch => "OC0002",
            Code::WidthMismatch => "OC0003",
            Code::OutOfBoundsIndex => "OC0004",
            Code::MalformedArity => "OC0005",
            Code::OverWidePredicate => "OC0006",
            Code::DoubleDef => "OC0007",
            Code::DeadDef => "OC1001",
            Code::RedundantPredicate => "OC1002",
            Code::UnnecessaryWidening => "OC1003",
            Code::ObservableMismatch => "TV0001",
            Code::WitnessBroken => "TV0002",
            Code::IndexWidened => "TV0003",
            Code::CounterRecipeMismatch => "TV0004",
            Code::LatticeWeakened => "TV0005",
            Code::EffectDropped => "TV0006",
            Code::EffectAdded => "TV0007",
        }
    }

    pub fn severity(self) -> Severity {
        match self {
            Code::DeadDef | Code::RedundantPredicate | Code::UnnecessaryWidening => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }

    /// One-line meaning, the doc-table row text (drift-tested against
    /// DESIGN.md).
    pub fn doc(self) -> &'static str {
        match self {
            Code::UndefinedUse => "use of a register before any definition",
            Code::DomainMismatch => "operand register in the wrong domain (vector vs predicate)",
            Code::WidthMismatch => "instruction width differs from the stream's vector length",
            Code::OutOfBoundsIndex => {
                "gather/scatter index vector provably outside its bound table"
            }
            Code::MalformedArity => "operand count or destination malformed for the op class",
            Code::OverWidePredicate => {
                "memory write governed by a predicate possibly wider than the loop bound"
            }
            Code::DoubleDef => "register defined twice in an SSA stream",
            Code::DeadDef => "body definition never used and not live-out",
            Code::RedundantPredicate => "predicate recomputed from identical operands",
            Code::UnnecessaryWidening => "vector-width op whose every input is scalar",
            Code::ObservableMismatch => {
                "pass stage changes an observable (output, tap, carry, effect, or defining op)"
            }
            Code::WitnessBroken => {
                "pass witness (slot substitution or constant fold) cannot be re-proved"
            }
            Code::IndexWidened => "pass introduced an index-bounds violation the source lacked",
            Code::CounterRecipeMismatch => {
                "re-derived static counter recipe differs from the compiled snapshot"
            }
            Code::LatticeWeakened => {
                "pass weakened a predicate-bound or NaN-class fact at an observable"
            }
            Code::EffectDropped => "source-stage memory/overhead effect missing from the target",
            Code::EffectAdded => "target stage performs an effect the source never did",
        }
    }
}

/// The markdown diagnostic-code table embedded in DESIGN.md between the
/// `<!-- diag-code-table:begin -->` / `end` markers. A drift test
/// regenerates this and compares, so adding a [`Code`] without a doc row
/// fails CI.
pub fn code_table() -> String {
    let mut out = String::from("| code | severity | meaning |\n|---|---|---|\n");
    for c in Code::ALL {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            c.as_str(),
            c.severity().as_str(),
            c.doc()
        ));
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One finding, anchored to an instruction index in the verified stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    pub code: Code,
    /// Index of the offending instruction in the program body.
    pub index: usize,
    /// Operand position the finding points at (`None` = whole instr).
    pub operand: Option<usize>,
    pub message: String,
}

impl Diag {
    pub fn new(code: Code, index: usize, operand: Option<usize>, message: String) -> Diag {
        Diag {
            code,
            index,
            operand,
            message,
        }
    }

    pub fn is_error(&self) -> bool {
        self.code.severity() == Severity::Error
    }
}

/// Render one diagnostic in the source-span style:
///
/// ```text
/// error[OC0001]: use of undefined vector register v7
///   --> loops_simple:2
///    |
///  2 | FMul.V512 v4 <- p5, v7, v1
///    |                     ^^ never defined at this point
/// ```
pub fn render(p: &Program, d: &Diag) -> String {
    let line = p.render_instr(d.index);
    let gutter = format!("{:>3}", d.index);
    let blank = " ".repeat(gutter.len());
    // Caret span: the operand the finding points at, or the whole line.
    let (col, width) = match d.operand.and_then(|o| p.operand_span(d.index, o)) {
        Some((c, w)) => (c, w),
        None => (0, line.len().max(1)),
    };
    format!(
        "{}[{}]: {}\n  --> {}:{}\n {blank}|\n {gutter} | {}\n {blank}| {}{}\n",
        d.code.severity().as_str(),
        d.code.as_str(),
        d.message,
        p.name,
        d.index,
        line,
        " ".repeat(col),
        "^".repeat(width.max(1)),
    )
}

/// Render all diagnostics of one program, with a trailing summary line.
pub fn render_all(p: &Program, diags: &[Diag]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&render(p, d));
        out.push('\n');
    }
    let errors = diags.iter().filter(|d| d.is_error()).count();
    let warnings = diags.len() - errors;
    out.push_str(&format!(
        "{}: {errors} error(s), {warnings} warning(s)\n",
        p.name
    ));
    out
}
