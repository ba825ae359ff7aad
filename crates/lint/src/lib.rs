//! # cloudsched-lint
//!
//! The workspace's own static checks. The paper's guarantees (Thm 2's EDF
//! 1-competitiveness, Thm 3's V-Dover bound) hold only if the simulator
//! respects the model *exactly*: tolerance-disciplined `f64` arithmetic
//! (`cloudsched_core::numeric::approx_*`), panic-free library code, a
//! deterministic clock, seeds, threads and I/O. The contract is split by
//! what can express it:
//!
//! * rules about types and paths (L003, L005–L008, L010, L011, and L004's
//!   `unsafe_code = "forbid"`) are clippy configuration — the root
//!   `clippy.toml` and the `[workspace.lints]` table, checked by
//!   `cargo clippy --workspace --all-targets -- -D warnings`;
//! * the three rules that hang on strings and model vocabulary (L001, L002,
//!   L009), plus L004's check that every member manifest opts into that
//!   table and inherits the workspace `rust-version`, live here and are
//!   listed in [`rules`].
//!
//! This crate lexes every workspace `.rs` file itself ([`tokens`]) and
//! builds a per-file model ([`model`]) of `#[cfg(test)]` spans, allow
//! escapes and `pub const` items. The pass is **two-phase**: phase 1
//! assembles a [`WorkspaceIndex`] of every file plus the seed streams
//! `core::rng` exports; phase 2 runs the rules with the index in scope, so
//! L009 can name the real `SEED_STREAM_*` constants in its message.
//!
//! The pass runs two ways:
//!
//! * `cloudsched lint` — through the workspace CLI (`--explain Lxxx` for
//!   the rule text);
//! * `cargo test -q` — the tier-1 test in `tests/workspace.rs` fails the
//!   suite on any finding.
//!
//! Escape: `// lint: allow(Lxxx) — reason` on (or immediately above) a
//! line.

#![warn(missing_docs)]

pub mod error;
pub mod model;
pub mod rules;
pub mod source;
pub mod tokens;

pub use error::LintError;
pub use rules::{check_manifest, explain, rule_info, Finding, RuleInfo, RULES};
pub use source::{discover, member_manifests, FileKind, SourceFile};

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

/// Phase-1 product: every file tokenized and modelled, plus the seed
/// streams L009 names in its messages.
#[derive(Debug)]
pub struct WorkspaceIndex {
    /// Every workspace file, sorted by path.
    pub files: Vec<FileEntry>,
    /// Public consts exported by `core/src/rng.rs` (`SEED_STREAM_*`).
    pub rng_consts: BTreeSet<String>,
}

/// Tokenizes and models `files` into a [`WorkspaceIndex`] (phase 1).
pub fn build_index(files: Vec<SourceFile>) -> WorkspaceIndex {
    let entries: Vec<FileEntry> = files
        .into_iter()
        .map(|file| {
            let tokens = tokens::tokenize(&file.text);
            let model = model::build_model(&tokens);
            FileEntry {
                file,
                tokens,
                model,
            }
        })
        .collect();
    let rng_consts = entries
        .iter()
        .filter(|e| e.file.rel_path.ends_with("core/src/rng.rs"))
        .flat_map(|e| e.model.pub_consts.iter().cloned())
        .collect();
    WorkspaceIndex {
        files: entries,
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

/// Lints an in-memory file set (both phases). This is the entry point
/// fixture tests use.
pub fn check_files(files: Vec<SourceFile>) -> Vec<Finding> {
    check_index(&build_index(files))
}

/// Result of a full workspace pass.
#[derive(Debug)]
pub struct LintReport {
    /// Every finding; any one fails the run.
    pub findings: Vec<Finding>,
    /// Number of files scanned (sources and member manifests).
    pub files_scanned: usize,
}

impl LintReport {
    /// A run is clean when nothing fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out: String = self.findings.iter().map(|f| format!("{f}\n")).collect();
        out.push_str(&format!(
            "cloudsched-lint: {} files, {} finding(s)\n",
            self.files_scanned,
            self.findings.len()
        ));
        out
    }
}

/// Lints every workspace source file and member manifest under `root`.
pub fn run_workspace(root: &Path) -> std::io::Result<LintReport> {
    if !root.join("Cargo.toml").is_file() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("{} is not a workspace root (no Cargo.toml)", root.display()),
        ));
    }
    let files = discover(root)?;
    let manifests = member_manifests(root)?;
    let files_scanned = files.len() + manifests.len();
    let mut findings: Vec<Finding> = manifests
        .iter()
        .filter_map(|(path, text)| check_manifest(path, text))
        .collect();
    findings.extend(check_files(files));
    Ok(LintReport {
        findings,
        files_scanned,
    })
}

/// Walks upward from `start` to the first directory containing a
/// `Cargo.toml` that declares `[workspace]`.
#[allow(clippy::disallowed_methods)] // reads manifests, like the rest of the pass
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
            findings: vec![Finding {
                rule: "L002",
                path: "a.rs".into(),
                line: 7,
                message: "`.unwrap()` in library code".into(),
                excerpt: "x.unwrap()".into(),
            }],
            files_scanned: 3,
        };
        assert!(!r.is_clean());
        let text = r.render();
        assert!(text.contains("a.rs:7: L002"));
        assert!(text.contains("3 files, 1 finding(s)"));
    }

    #[test]
    fn index_captures_seed_streams() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let index = build_index(discover(&root).expect("discover"));
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
