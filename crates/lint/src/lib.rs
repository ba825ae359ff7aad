//! # cloudsched-lint
//!
//! A std-only static-analysis pass for this workspace. The paper's
//! guarantees (Thm 2's EDF 1-competitiveness, Thm 3's V-Dover bound) hold
//! only if the simulator respects the model *exactly*, and the workspace's
//! correctness story rests on tolerance-disciplined `f64` arithmetic
//! (`cloudsched_core::numeric::approx_*`), panic-free library code, a
//! deterministic event clock, and — since the PR 5 sweep machinery — on
//! three structural determinism invariants: all parallelism through
//! `core::par::parallel_map`, all seeds through `core::rng::derive_seed`,
//! and no hash-order iteration anywhere goldens can see. Nothing in stock
//! `rustc`/`clippy` enforces those project policies, and the sandbox has no
//! network to fetch a real parser — so this crate lexes every workspace
//! `.rs` file itself ([`tokens`]), builds a per-file symbol model
//! ([`model`]), and enforces the eleven rules listed in [`rules`].
//!
//! The pass is **two-phase**: phase 1 tokenizes every file and assembles a
//! [`WorkspaceIndex`] — per-file token streams and models plus the
//! sanctioned helper surfaces (what `core::numeric`, `core::par` and
//! `core::rng` actually export). Phase 2 runs the rules with the index in
//! scope, so a rule can point its message at the real replacement helper
//! and cross-check names against the file that defines them.
//!
//! The pass runs two ways:
//!
//! * `cloudsched lint` — through the workspace CLI (`--json` for machine
//!   output, `--explain Lxxx` for the rule text);
//! * `cargo test -q` — the tier-1 test in `tests/workspace.rs` fails the
//!   suite on any unbaselined finding.
//!
//! Escapes: `// lint: allow(Lxxx) — reason` on (or immediately above) a
//! line, or the checked-in `lint.baseline` ledger for grandfathered sites
//! (see [`baseline`]). The baseline is kept empty; a non-empty one renders
//! a warning so CI can annotate the debt.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod error;
pub mod model;
pub mod rules;
pub mod source;
pub mod tokens;

pub use baseline::{Baseline, BaselineResult};
pub use error::LintError;
pub use rules::{explain, rule_info, Finding, RuleInfo, Severity, RULES};
pub use source::{discover, FileKind, SourceFile};

use model::FileModel;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use tokens::TokenStream;

/// One indexed file: source + tokens + symbol model.
#[derive(Debug)]
pub struct FileEntry {
    /// The discovered source file.
    pub file: SourceFile,
    /// Its token stream.
    pub tokens: TokenStream,
    /// Its symbol model.
    pub model: FileModel,
}

/// Phase-1 product: every file tokenized and modelled, plus the sanctioned
/// helper surfaces rules reference in their messages and checks.
#[derive(Debug)]
pub struct WorkspaceIndex {
    /// Every workspace file, sorted by path.
    pub files: Vec<FileEntry>,
    /// Public fns exported by `core/src/numeric.rs` (checked conversions,
    /// `approx_*`). L010 names these in its fix hint.
    pub numeric_helpers: BTreeSet<String>,
    /// Public fns exported by `core/src/par.rs` (`parallel_map`, …). L008
    /// names these in its fix hint.
    pub par_fns: BTreeSet<String>,
    /// Public consts exported by `core/src/rng.rs` (`SEED_STREAM_*`). L009
    /// names these in its fix hint.
    pub rng_consts: BTreeSet<String>,
}

/// Tokenizes and models `files` into a [`WorkspaceIndex`] (phase 1).
pub fn build_index(files: Vec<SourceFile>) -> WorkspaceIndex {
    let mut entries = Vec::with_capacity(files.len());
    for file in files {
        let tokens = tokens::tokenize(&file.text);
        let model = model::build_model(&tokens);
        entries.push(FileEntry {
            file,
            tokens,
            model,
        });
    }
    let exported = |suffix: &str, pick: fn(&FileEntry) -> &[String]| -> BTreeSet<String> {
        entries
            .iter()
            .filter(|e| e.file.rel_path.ends_with(suffix))
            .flat_map(|e| pick(e).iter().cloned())
            .collect()
    };
    let pub_fn_names = |e: &FileEntry| -> Vec<String> {
        e.model
            .fns
            .iter()
            .filter(|f| f.is_pub)
            .map(|f| f.name.clone())
            .collect()
    };
    let numeric_helpers = entries
        .iter()
        .filter(|e| e.file.rel_path.ends_with("core/src/numeric.rs"))
        .flat_map(|e| pub_fn_names(e))
        .collect();
    let par_fns = entries
        .iter()
        .filter(|e| e.file.rel_path.ends_with("core/src/par.rs"))
        .flat_map(|e| pub_fn_names(e))
        .collect();
    let rng_consts = exported("core/src/rng.rs", |e| &e.model.pub_consts);
    WorkspaceIndex {
        files: entries,
        numeric_helpers,
        par_fns,
        rng_consts,
    }
}

/// Runs every rule over every indexed file (phase 2). Findings are sorted
/// by (path, line, rule).
pub fn check_index(index: &WorkspaceIndex) -> Vec<Finding> {
    let mut findings = Vec::new();
    for entry in &index.files {
        let ctx = rules::FileCtx {
            file: &entry.file,
            toks: entry.tokens.toks(),
            model: &entry.model,
            index,
        };
        findings.extend(rules::check_file_ctx(&ctx));
    }
    findings.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
    findings
}

/// Lints an in-memory file set (both phases, no baseline). This is the
/// entry point fixture tests use.
pub fn check_files(files: Vec<SourceFile>) -> Vec<Finding> {
    check_index(&build_index(files))
}

/// Result of a full workspace pass.
#[derive(Debug)]
pub struct LintReport {
    /// Findings not covered by the baseline (fail the run).
    pub new: Vec<Finding>,
    /// Baseline-tolerated findings.
    pub grandfathered: Vec<Finding>,
    /// Baseline entries whose finding no longer exists (fail the run).
    pub stale: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// A run is clean when nothing new fired and no baseline entry is stale.
    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.new {
            out.push_str(&format!("{f}\n"));
        }
        for s in &self.stale {
            out.push_str(&format!(
                "stale baseline entry (fix was landed — remove the line): {s}\n"
            ));
        }
        if !self.grandfathered.is_empty() {
            out.push_str(&format!(
                "warning: {} grandfathered finding(s) remain in lint.baseline — \
                 the ledger should be burned down to empty\n",
                self.grandfathered.len()
            ));
        }
        out.push_str(&format!(
            "cloudsched-lint: {} files, {} new finding(s), {} grandfathered, {} stale baseline entr{}\n",
            self.files_scanned,
            self.new.len(),
            self.grandfathered.len(),
            self.stale.len(),
            if self.stale.len() == 1 { "y" } else { "ies" },
        ));
        out
    }

    /// Machine-readable JSON rendering (hand-rolled; the workspace is
    /// dependency-free). Shape:
    ///
    /// ```json
    /// {"files_scanned":N,"clean":bool,
    ///  "new":[{"rule":"L001","severity":"error","path":"…","line":N,
    ///          "message":"…","excerpt":"…"}],
    ///  "grandfathered":[…],"stale":["…"]}
    /// ```
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn finding_json(f: &Finding) -> String {
            format!(
                "{{\"rule\":\"{}\",\"severity\":\"{}\",\"path\":\"{}\",\"line\":{},\
                 \"message\":\"{}\",\"excerpt\":\"{}\"}}",
                f.rule,
                f.severity.name(),
                esc(&f.path),
                f.line,
                esc(&f.message),
                esc(&f.excerpt)
            )
        }
        let list = |fs: &[Finding]| -> String {
            fs.iter().map(finding_json).collect::<Vec<_>>().join(",")
        };
        let stale = self
            .stale
            .iter()
            .map(|s| format!("\"{}\"", esc(s)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"files_scanned\":{},\"clean\":{},\"new\":[{}],\
             \"grandfathered\":[{}],\"stale\":[{}]}}",
            self.files_scanned,
            self.is_clean(),
            list(&self.new),
            list(&self.grandfathered),
            stale
        )
    }
}

/// The canonical baseline location for a workspace root.
pub fn baseline_path(root: &Path) -> PathBuf {
    root.join("lint.baseline")
}

/// Lints every workspace file under `root`, applying the baseline at
/// [`baseline_path`].
pub fn run_workspace(root: &Path) -> std::io::Result<LintReport> {
    if !root.join("Cargo.toml").is_file() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("{} is not a workspace root (no Cargo.toml)", root.display()),
        ));
    }
    let files = discover(root)?;
    let files_scanned = files.len();
    let findings = check_files(files);
    let baseline = Baseline::load(&baseline_path(root))?;
    let BaselineResult {
        new,
        grandfathered,
        stale,
    } = baseline.apply(findings);
    Ok(LintReport {
        new,
        grandfathered,
        stale,
        files_scanned,
    })
}

/// Lints the workspace and rewrites the baseline to cover every current
/// finding. Returns the number of entries written.
pub fn write_baseline(root: &Path) -> std::io::Result<usize> {
    let files = discover(root)?;
    let findings = check_files(files);
    std::fs::write(baseline_path(root), Baseline::render(&findings))?;
    Ok(findings.len())
}

/// Walks upward from `start` to the first directory containing a
/// `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_root_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/lint/Cargo.toml").exists());
    }

    #[test]
    fn report_rendering_counts() {
        let r = LintReport {
            new: vec![],
            grandfathered: vec![],
            stale: vec!["L001|x.rs|a == 1.0".into()],
            files_scanned: 3,
        };
        assert!(!r.is_clean());
        let text = r.render();
        assert!(text.contains("stale"));
        assert!(text.contains("3 files"));
    }

    #[test]
    fn json_rendering_escapes_and_counts() {
        let r = LintReport {
            new: vec![Finding {
                rule: "L002",
                severity: Severity::Error,
                path: "a.rs".into(),
                line: 7,
                message: "`.unwrap()` with \"quotes\"".into(),
                excerpt: "x.unwrap()".into(),
            }],
            grandfathered: vec![],
            stale: vec![],
            files_scanned: 1,
        };
        let json = r.to_json();
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"line\":7"));
        assert!(json.contains("\"severity\":\"error\""));
    }

    #[test]
    fn index_captures_sanctioned_surfaces() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let index = build_index(discover(&root).expect("discover"));
        assert!(
            index.par_fns.contains("parallel_map"),
            "core::par exports not indexed: {:?}",
            index.par_fns
        );
        assert!(
            index.numeric_helpers.contains("approx_eq"),
            "core::numeric exports not indexed: {:?}",
            index.numeric_helpers
        );
        assert!(
            index
                .rng_consts
                .iter()
                .any(|c| c.starts_with("SEED_STREAM_")),
            "core::rng seed streams not indexed: {:?}",
            index.rng_consts
        );
    }
}
