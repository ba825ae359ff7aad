//! The rules clippy cannot express, evaluated over the token stream.
//!
//! | id | enforces |
//! |----|----------|
//! | L001 | no raw `f64` comparisons on model quantities — route through
//!   `core::numeric::approx_*` |
//! | L002 | no `.unwrap()`; `.expect(…)` only with an `"invariant: …"`
//!   justification |
//! | L004 | every workspace member's `Cargo.toml` opts into the workspace
//!   lint table (`[lints] workspace = true`), and every package inherits
//!   the workspace MSRV (`rust-version.workspace = true`) |
//! | L009 | seed discipline: no RNG construction from integer literals and
//!   no seed arithmetic outside `core::rng::derive_seed` |
//!
//! L001, L002 and L009 hang on strings and model vocabulary (`float_cmp`
//! skips `<=`/`>=`; clippy has no `"invariant: …"` convention and no notion
//! of a seed). The rest of the contract — L003, L005–L008, L010, L011 and
//! L004's `unsafe_code = "forbid"` itself — is clippy configuration: the
//! root `clippy.toml` and `[workspace.lints]` table. L004 here only makes
//! sure no member crate silently leaves that table or the declared MSRV,
//! which clippy reads from each package's `rust-version`. Escape hatch:
//! `// lint: allow(Lxxx) — reason` on (or above) the offending line.

use crate::model::FileModel;
use crate::source::{FileKind, SourceFile};
use crate::tokens::{Token, TokenKind};
use crate::WorkspaceIndex;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `L002`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Explanation of the violation.
    pub message: String,
    /// Trimmed text of the offending line.
    pub excerpt: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} {}\n    {}",
            self.path, self.line, self.rule, self.message, self.excerpt
        )
    }
}

/// Static description of one rule, for `--explain` and the docs table.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
    /// Why the rule exists.
    pub rationale: &'static str,
    /// How to fix a finding.
    pub fix: &'static str,
}

/// The rule registry, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "L001",
        summary: "no raw f64 comparisons on model quantities",
        scope: "library code of core (outside numeric.rs), capacity, sim, sched, offline, analysis",
        rationale: "chained f64 sums accumulate ulps; every completion/deadline predicate must \
                    apply the one workspace tolerance policy or schedulers diverge between \
                    platforms and optimization levels",
        fix: "use core::numeric::approx_eq / approx_ge / approx_le (or total_cmp for ordering); \
              exact sentinel/domain checks take `// lint: allow(L001) — reason`",
    },
    RuleInfo {
        id: "L002",
        summary: "no .unwrap(); .expect(…) needs an \"invariant: …\" justification",
        scope: "library code of sim, sched, capacity, offline",
        rationale: "library panics crash sweeps mid-campaign; every residual panic site must \
                    state the invariant that makes it unreachable",
        fix: "propagate a CoreError, or write .expect(\"invariant: …\") naming the invariant",
    },
    RuleInfo {
        id: "L004",
        summary: "every workspace member opts into the workspace lint table and MSRV",
        scope: "the root Cargo.toml and every crates/*/Cargo.toml",
        rationale: "unsafe_code = \"forbid\" and the clippy half of this contract (L003, \
                    L005-L008, L010, L011) live in [workspace.lints]; a crate without \
                    `[lints] workspace = true` silently escapes all of them. A package \
                    without `rust-version.workspace = true` has no declared minimum Rust \
                    version, so cargo never checks it and clippy suggests newer std APIs",
        fix: "add `[lints]` with `workspace = true`, and `rust-version.workspace = true` \
              under `[package]`, to the member's Cargo.toml",
    },
    RuleInfo {
        id: "L009",
        summary: "seed discipline: construct RNGs from derived seeds only",
        scope: "all non-test code except core/src/rng.rs",
        rationale: "every recorded artifact (Table I, goldens, BENCH_*.json) is pinned to the \
                    frozen derive_seed streams; literal seeds and ad-hoc seed arithmetic \
                    fork the seed universe and collide silently",
        fix: "declare a SEED_STREAM_* constant in core::rng and derive with \
              core::rng::derive_seed(stream, lambda, run)",
    },
];

/// Looks up a rule's registry entry.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Renders the `--explain` text for a rule id.
pub fn explain(id: &str) -> Option<String> {
    let r = rule_info(id)?;
    Some(format!(
        "{}\n  summary:   {}\n  scope:     {}\n  rationale: {}\n  fix:       {}\n",
        r.id, r.summary, r.scope, r.rationale, r.fix
    ))
}

/// L004: a member manifest that does not opt into `[workspace.lints]`, or
/// a package that does not inherit `[workspace.package] rust-version`.
pub fn check_manifest(rel_path: &str, manifest: &str) -> Option<Finding> {
    let (mut section, mut is_package, mut lints, mut msrv) = ("", false, false, false);
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            is_package |= line == "[package]";
            continue;
        }
        let is = |key: &str| line.split('=').map(str::trim).eq([key, "true"]);
        match section {
            "[lints]" => lints |= is("workspace"),
            "[package]" => msrv |= is("rust-version.workspace"),
            _ => {}
        }
    }
    let mut missing = Vec::new();
    if !lints {
        missing.push(
            "`[lints] workspace = true` — the crate escapes unsafe_code = \"forbid\" \
             and every clippy-enforced rule",
        );
    }
    if is_package && !msrv {
        missing.push(
            "`rust-version.workspace = true` — cargo and clippy's MSRV-aware lints \
             never see the declared minimum Rust version",
        );
    }
    if missing.is_empty() {
        return None;
    }
    Some(Finding {
        rule: "L004",
        path: rel_path.to_string(),
        line: 1,
        message: format!("manifest lacks {}", missing.join("; it also lacks ")),
        excerpt: manifest.lines().next().unwrap_or("").trim().to_string(),
    })
}

/// Crates whose library code must use tolerance-disciplined comparisons.
const L001_CRATES: &[&str] = &["core", "capacity", "sim", "sched", "offline", "analysis"];
/// Crates whose library code must not unwrap.
const L002_CRATES: &[&str] = &["sim", "sched", "capacity", "offline"];

/// Shared context for one file's rule evaluation.
pub(crate) struct FileCtx<'a> {
    pub file: &'a SourceFile,
    pub toks: &'a [Token],
    pub model: &'a FileModel,
    pub index: &'a WorkspaceIndex,
}

impl<'a> FileCtx<'a> {
    /// Is the token at `idx` live for `rule` (not test code, not escaped)?
    fn active(&self, rule: &str, idx: usize) -> bool {
        !self.model.in_test(idx) && !self.model.is_allowed(rule, self.toks[idx].line)
    }

    fn push(&self, findings: &mut Vec<Finding>, rule: &'static str, line: usize, message: String) {
        let excerpt = self
            .file
            .text
            .lines()
            .nth(line - 1)
            .unwrap_or("")
            .trim()
            .to_string();
        findings.push(Finding {
            rule,
            path: self.file.rel_path.clone(),
            line,
            message,
            excerpt,
        });
    }
}

/// Runs every source rule over one file (given the workspace index from
/// phase 1).
pub(crate) fn check_file_ctx(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    l001_raw_float_comparison(ctx, &mut findings);
    l002_unwrap_expect(ctx, &mut findings);
    l009_seed_discipline(ctx, &mut findings);
    findings
}

fn in_scope(file: &SourceFile, crates: &[&str]) -> bool {
    file.kind == FileKind::Lib && crates.iter().any(|c| *c == file.crate_name)
}

// --- token-walk helpers ----------------------------------------------------

/// Token indices covered by `debug_assert*!(…)` invocations (the whole
/// balanced argument list), so diagnostics may compare raw floats.
fn debug_assert_spans(toks: &[Token]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Ident
            && toks[i].text.starts_with("debug_assert")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
        {
            let mut depth = 0i64;
            let mut end = i + 2;
            for (j, t) in toks.iter().enumerate().skip(i + 2) {
                if t.is_punct("(") {
                    depth += 1;
                } else if t.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                end = j + 1;
            }
            spans.push(i..end);
            i = end;
            continue;
        }
        i += 1;
    }
    spans
}

/// Walks backward from `at` (exclusive) collecting the primary-expression
/// operand: a chain of idents, field/paths (`.`/`::`), `self`, literals and
/// balanced `(…)`/`[…]` groups. Returns the start index of the operand.
fn operand_start(toks: &[Token], at: usize) -> usize {
    let mut i = at;
    let mut depth = 0i32;
    while i > 0 {
        let t = &toks[i - 1];
        if t.is_punct(")") || t.is_punct("]") {
            depth += 1;
            i -= 1;
            continue;
        }
        if t.is_punct("(") || t.is_punct("[") {
            if depth == 0 {
                break;
            }
            depth -= 1;
            i -= 1;
            continue;
        }
        if depth > 0 {
            i -= 1;
            continue;
        }
        match t.kind {
            TokenKind::Ident | TokenKind::Int | TokenKind::Float => i -= 1,
            TokenKind::Punct if t.text == "." || t.text == "::" => i -= 1,
            _ => break,
        }
    }
    i
}

/// Walks forward from `from` collecting the primary-expression operand on
/// the right of a binary operator; returns the end index (exclusive). Stops
/// at clause boundaries at depth 0.
fn operand_end(toks: &[Token], from: usize) -> usize {
    let mut i = from;
    let mut depth = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct(")") || t.is_punct("]") {
            if depth == 0 {
                break;
            }
            depth -= 1;
            i += 1;
            continue;
        }
        if depth > 0 {
            i += 1;
            continue;
        }
        match t.kind {
            TokenKind::Ident | TokenKind::Int | TokenKind::Float => i += 1,
            TokenKind::Punct if t.text == "." || t.text == "::" || t.text == "-" => i += 1,
            _ => break,
        }
    }
    i
}

/// Model vocabulary that denotes `f64` quantities.
const FLOAT_IDENTS: &[&str] = &[
    "workload",
    "value",
    "density",
    "remaining",
    "rate",
    "laxity",
    "c_lo",
    "c_hi",
    "c_ref",
    "executed",
    "integral",
    "fraction",
    "lambda",
];

/// Methods that yield integers regardless of receiver vocabulary.
const INT_YIELDING: &[&str] = &["len", "capacity", "count", "0"];

/// Does the operand token slice denote an `f64` quantity? Float literals,
/// `f64`/`f32` types, `.as_f64()` conversions and the model's float-typed
/// vocabulary count — unless the operand's final call is integer-yielding
/// (`.len()`, `.capacity()`, `.count()`).
fn operand_looks_float(toks: &[Token]) -> bool {
    if toks.is_empty() {
        return false;
    }
    // Integer-yielding tail call: `….len()`, `….capacity()`.
    if toks.len() >= 4 {
        let n = toks.len();
        if toks[n - 1].is_punct(")")
            && toks[n - 2].is_punct("(")
            && toks[n - 3].kind == TokenKind::Ident
            && INT_YIELDING.contains(&toks[n - 3].text.as_str())
            && toks[n - 4].is_punct(".")
        {
            return false;
        }
    }
    toks.iter().any(|t| {
        t.kind == TokenKind::Float
            || (t.kind == TokenKind::Ident
                && (t.text == "f64"
                    || t.text == "f32"
                    || t.text == "as_f64"
                    || t.text.starts_with("EPS_")
                    || FLOAT_IDENTS.contains(&t.text.as_str())))
    })
}

// --- L001 -------------------------------------------------------------------

/// L001: raw float comparison outside `core::numeric`.
fn l001_raw_float_comparison(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if !in_scope(ctx.file, L001_CRATES) || ctx.file.rel_path.ends_with("core/src/numeric.rs") {
        return;
    }
    let toks = ctx.toks;
    let exempt = debug_assert_spans(toks);
    // Lines carrying a tolerance guard: `a >= b || approx_eq(a, b)` is the
    // sanctioned strict-or-approx idiom, `x <= completion_tolerance(w)` IS
    // the tolerance policy, `total_cmp` is exact by construction.
    let mut guarded_lines = std::collections::BTreeSet::new();
    for t in toks {
        if t.kind == TokenKind::Ident
            && (t.text.starts_with("approx_")
                || t.text == "total_cmp"
                || t.text.ends_with("_tolerance"))
        {
            guarded_lines.insert(t.line);
        }
    }
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=") || t.is_punct("<=") || t.is_punct(">=")) {
            continue;
        }
        if !ctx.active("L001", i) || guarded_lines.contains(&t.line) {
            continue;
        }
        if exempt.iter().any(|r| r.contains(&i)) {
            continue;
        }
        let lhs = &toks[operand_start(toks, i)..i];
        let rhs = &toks[i + 1..operand_end(toks, i + 1)];
        if operand_looks_float(lhs) || operand_looks_float(rhs) {
            ctx.push(
                findings,
                "L001",
                t.line,
                format!(
                    "raw float comparison `{}` — use core::numeric::approx_* \
                     (tolerance policy) instead",
                    t.text
                ),
            );
        }
    }
}

// --- L002 -------------------------------------------------------------------

/// L002: `.unwrap()` / unjustified `.expect(` in library code.
fn l002_unwrap_expect(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if !in_scope(ctx.file, L002_CRATES) {
        return;
    }
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || i == 0 || !toks[i - 1].is_punct(".") {
            continue;
        }
        if !ctx.active("L002", i) {
            continue;
        }
        if t.text == "unwrap" && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            ctx.push(
                findings,
                "L002",
                t.line,
                "`.unwrap()` in library code — propagate a CoreError or use \
                 `.expect(\"invariant: …\")` with the justification"
                    .to_string(),
            );
        }
        if t.text == "expect" && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            let justified = toks.get(i + 2).is_some_and(|arg| {
                arg.kind == TokenKind::Str && arg.text.starts_with("\"invariant:")
            });
            if !justified {
                ctx.push(
                    findings,
                    "L002",
                    t.line,
                    "`.expect(…)` without an `\"invariant: …\"` justification \
                     in library code"
                        .to_string(),
                );
            }
        }
    }
}

// --- L009 -------------------------------------------------------------------

/// RNG constructors whose argument is a seed.
const SEED_CTORS: &[&str] = &["seed_from_u64", "with_stream"];

/// L009: seed discipline outside `core::rng`. Test code (integration tests
/// and `#[cfg(test)]` regions) is exempt: local test seeds do not flow into
/// recorded artifacts.
fn l009_seed_discipline(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if ctx.file.rel_path.ends_with("core/src/rng.rs") || ctx.file.kind == FileKind::Test {
        return;
    }
    let streams: Vec<&str> = ctx
        .index
        .rng_consts
        .iter()
        .map(String::as_str)
        .filter(|c| c.starts_with("SEED_STREAM_"))
        .collect();
    let hint = if streams.is_empty() {
        "a core::rng SEED_STREAM_* constant".to_string()
    } else {
        format!("one of core::rng::{{{}}}", streams.join(", "))
    };
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        // (a) RNG construction: inspect the first argument of
        // `Pcg32::seed_from_u64(…)` / `SplitMix64::seed_from_u64(…)` /
        // `Pcg32::with_stream(…)`.
        if t.kind == TokenKind::Ident
            && SEED_CTORS.contains(&t.text.as_str())
            && i >= 1
            && toks[i - 1].is_punct("::")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            if !ctx.active("L009", i) {
                continue;
            }
            let arg = first_argument(toks, i + 1);
            let verdict = seed_argument_verdict(arg);
            match verdict {
                SeedArg::Ok => {}
                SeedArg::Literal => ctx.push(
                    findings,
                    "L009",
                    t.line,
                    format!(
                        "RNG seeded from an integer literal — declare {hint} and derive \
                         with core::rng::derive_seed"
                    ),
                ),
                SeedArg::Arithmetic => ctx.push(
                    findings,
                    "L009",
                    t.line,
                    format!(
                        "ad-hoc seed arithmetic in an RNG constructor — derive the seed \
                         with core::rng::derive_seed({hint}, lambda, run) instead"
                    ),
                ),
            }
            continue;
        }
        // (b) Seed arithmetic anywhere: a binary `+`/`^`/`*`/`<<` whose
        // neighbor is a seed-named identifier.
        if t.kind == TokenKind::Punct && matches!(t.text.as_str(), "+" | "^" | "*" | "<<") {
            let neighbor_is_seed = |tok: Option<&Token>| {
                tok.is_some_and(|n| n.kind == TokenKind::Ident && ident_names_a_seed(&n.text))
            };
            if (neighbor_is_seed(i.checked_sub(1).and_then(|p| toks.get(p)))
                || neighbor_is_seed(toks.get(i + 1)))
                && ctx.active("L009", i)
            {
                ctx.push(
                    findings,
                    "L009",
                    t.line,
                    format!(
                        "seed arithmetic `{}` outside core::rng::derive_seed — all seed \
                         derivation lives in the one frozen formula",
                        t.text
                    ),
                );
            }
        }
    }
}

/// Does an identifier denote a single seed value? (`seed`, `first_seed`,
/// `base_seed` — but not counts like `num_seeds`.)
fn ident_names_a_seed(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("seed") && !lower.contains("seeds")
}

/// The token slice of the first argument after the `(` at `open`.
fn first_argument(toks: &[Token], open: usize) -> &[Token] {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return &toks[open + 1..j];
            }
        } else if t.is_punct(",") && depth == 1 {
            return &toks[open + 1..j];
        }
    }
    &toks[open + 1..toks.len().min(open + 1)]
}

enum SeedArg {
    Ok,
    Literal,
    Arithmetic,
}

/// Classifies an RNG-constructor seed argument: a plain variable/path/field
/// or a `derive_seed(…)` call is fine; an integer literal or in-line
/// arithmetic is not.
fn seed_argument_verdict(arg: &[Token]) -> SeedArg {
    if arg.iter().any(|t| t.is_ident("derive_seed")) {
        return SeedArg::Ok;
    }
    if arg
        .iter()
        .any(|t| t.kind == TokenKind::Punct && matches!(t.text.as_str(), "+" | "^" | "*" | "<<"))
    {
        return SeedArg::Arithmetic;
    }
    if arg.iter().any(|t| t.kind == TokenKind::Int) {
        return SeedArg::Literal;
    }
    SeedArg::Ok
}
