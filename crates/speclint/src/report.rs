//! Diagnostic vocabulary shared by both lint passes, and the
//! machine-readable `cwfmem.lint.v1` scorecard.

use std::fmt;

use cwf_tracelog::json::escape;

/// Stable diagnostic code. `SL1xx` codes come from the spec model checker,
/// `DL2xx` codes from the source determinism lint. Codes are part of the
/// tool's contract: tests, docs and CI grep for them, so existing codes
/// never change meaning and new checks get new numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// SL101: an admitted command-pair cell has no constraint, no widened
    /// cover, no builtin checker and no exempt annotation.
    CoverageGap,
    /// SL102: an exempt annotation no longer matches a real gap (or waives
    /// an inequality that holds).
    UnusedExempt,
    /// SL103: a protocol state is unreachable, or no timing rule governs
    /// any command entering it.
    OrphanedState,
    /// SL104: a constraint names a command the device can never issue, so
    /// its generated checker rule can never fire.
    UnreachableRule,
    /// SL105: a rolling-window constraint is already implied by pairwise
    /// spacing — it can never bind.
    VacuousWindow,
    /// SL106: a narrow-scope constraint is fully shadowed by an
    /// equal-or-longer broader-scope rule for the same pair.
    ShadowedConstraint,
    /// SL107: an implied timing inequality (`tRC >= tRAS + tRP`,
    /// `tRAS >= tRCD + tRTP`) is violated without a waiver.
    ImpliedInequality,
    /// SL108: a successor standard lost coverage its predecessor had, or
    /// lacks a rule its generation is required to make explicit.
    ConformanceGap,
    /// SL109: a constraint does not map onto a generated protocol-checker
    /// rule the verify-layer oracle is linked against.
    RuleLinkage,
    /// DL201: `HashMap`/`HashSet` in a result-affecting path — iteration
    /// order is nondeterministic.
    HashContainer,
    /// DL202: `Instant::now`/`SystemTime` outside the bench crate.
    WallClock,
    /// DL203: a floating-point accumulator field in a statistics struct.
    FloatAccum,
    /// DL204: a malformed `cwf-lint: allow(...)` comment — unknown rule
    /// name or missing justification.
    BadAllow,
}

impl Code {
    /// Every diagnostic code, in numeric order.
    pub const ALL: [Code; 13] = [
        Code::CoverageGap,
        Code::UnusedExempt,
        Code::OrphanedState,
        Code::UnreachableRule,
        Code::VacuousWindow,
        Code::ShadowedConstraint,
        Code::ImpliedInequality,
        Code::ConformanceGap,
        Code::RuleLinkage,
        Code::HashContainer,
        Code::WallClock,
        Code::FloatAccum,
        Code::BadAllow,
    ];

    /// The stable code string, e.g. `"SL101"`.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Code::CoverageGap => "SL101",
            Code::UnusedExempt => "SL102",
            Code::OrphanedState => "SL103",
            Code::UnreachableRule => "SL104",
            Code::VacuousWindow => "SL105",
            Code::ShadowedConstraint => "SL106",
            Code::ImpliedInequality => "SL107",
            Code::ConformanceGap => "SL108",
            Code::RuleLinkage => "SL109",
            Code::HashContainer => "DL201",
            Code::WallClock => "DL202",
            Code::FloatAccum => "DL203",
            Code::BadAllow => "DL204",
        }
    }

    /// The human-readable slug, e.g. `"coverage-gap"`. The `DL2xx` slugs
    /// double as the rule names accepted by `cwf-lint: allow(...)`.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Code::CoverageGap => "coverage-gap",
            Code::UnusedExempt => "unused-exempt",
            Code::OrphanedState => "orphaned-state",
            Code::UnreachableRule => "unreachable-rule",
            Code::VacuousWindow => "vacuous-window",
            Code::ShadowedConstraint => "shadowed-constraint",
            Code::ImpliedInequality => "implied-inequality",
            Code::ConformanceGap => "conformance-gap",
            Code::RuleLinkage => "rule-linkage",
            Code::HashContainer => "hash-container",
            Code::WallClock => "wall-clock",
            Code::FloatAccum => "float-accum",
            Code::BadAllow => "bad-allow",
        }
    }

    /// Look a code up by its stable id string.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Code> {
        Code::ALL.into_iter().find(|c| c.id() == id)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id(), self.slug())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The diagnostic class.
    pub code: Code,
    /// What was linted: a spec id for `SL1xx`, a `path:line` for `DL2xx`.
    pub target: String,
    /// The precise thing inside the target the finding is about — a cell
    /// like `"rd -> wr @rank"`, a constraint name, a source token.
    pub subject: String,
    /// Human-readable explanation, including the suggested fix.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(
        code: Code,
        target: impl Into<String>,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic { code, target: target.into(), subject: subject.into(), message: message.into() }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] {}: {}", self.code, self.target, self.subject, self.message)
    }
}

/// Sort diagnostics into the stable report order: by target, then code,
/// then subject, then message.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (&a.target, a.code, &a.subject, &a.message)
            .cmp(&(&b.target, b.code, &b.subject, &b.message))
    });
}

/// Render the machine-readable scorecard for one lint run.
///
/// The document schema is `cwfmem.lint.v1` — additive next to
/// `cwfmem.run.v1`, the same way that report nests its `"verify"` object:
/// stable keys, diagnostics pre-sorted by [`sort_diagnostics`] order, and a
/// top-level `"clean"` verdict tools can branch on without parsing the
/// list.
#[must_use]
pub fn scorecard_json(
    pass: &str,
    targets: &[String],
    summary: &[(&str, u64)],
    diags: &[Diagnostic],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"cwfmem.lint.v1\",\n");
    out.push_str(&format!("  \"pass\": \"{}\",\n", escape(pass)));
    let tlist: Vec<String> = targets.iter().map(|t| format!("\"{}\"", escape(t))).collect();
    out.push_str(&format!("  \"targets\": [{}],\n", tlist.join(", ")));
    out.push_str("  \"summary\": {");
    for (i, (k, v)) in summary.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {v}", escape(k)));
    }
    out.push_str("},\n");
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"code\": \"{}\", \"name\": \"{}\", \"target\": \"{}\", \
             \"subject\": \"{}\", \"message\": \"{}\"}}",
            d.code.id(),
            d.code.slug(),
            escape(&d.target),
            escape(&d.subject),
            escape(&d.message),
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"clean\": {}\n", diags.is_empty()));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        for (i, a) in Code::ALL.iter().enumerate() {
            for b in &Code::ALL[i + 1..] {
                assert_ne!(a.id(), b.id());
                assert_ne!(a.slug(), b.slug());
            }
            assert_eq!(Code::from_id(a.id()), Some(*a));
        }
        assert_eq!(Code::CoverageGap.id(), "SL101");
        assert_eq!(Code::BadAllow.id(), "DL204");
    }

    #[test]
    fn scorecard_escapes_and_reports_clean() {
        let clean = scorecard_json("spec", &["ddr3_1600".into()], &[("cells", 3)], &[]);
        assert!(clean.contains("\"schema\": \"cwfmem.lint.v1\""));
        assert!(clean.contains("\"clean\": true"));
        let d = Diagnostic::new(Code::CoverageGap, "x", "a \"b\"", "line\nbreak");
        let dirty = scorecard_json("spec", &[], &[], &[d]);
        assert!(dirty.contains("a \\\"b\\\""));
        assert!(dirty.contains("line\\nbreak"));
        assert!(dirty.contains("\"clean\": false"));
    }
}
