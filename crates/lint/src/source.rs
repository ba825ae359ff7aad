//! Workspace file discovery and classification.

use std::io;
use std::path::{Path, PathBuf};

/// What kind of compilation target a file belongs to. Rules scope on this:
/// library code carries the model's correctness story; bins, benches,
/// examples and integration tests are applications of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Part of a crate's library (`src/**`, minus `src/bin`).
    Lib,
    /// A binary root or part of one (`src/main.rs`, `src/bin/**`).
    Bin,
    /// A bench target (`benches/**`).
    Bench,
    /// An example (`examples/**`).
    Example,
    /// An integration test (`tests/**`).
    Test,
}

/// One source file queued for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Owning crate name (directory under `crates/`, or the workspace-root
    /// package name for top-level `src`/`tests`/`examples`).
    pub crate_name: String,
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Target classification.
    pub kind: FileKind,
    /// Full file contents.
    pub text: String,
}

/// Discovers every workspace `.rs` file under `root`.
///
/// Layout assumptions match this repository: member crates in `crates/*`,
/// plus the root package's `src/`, `tests/` and `examples/`. The `target/`
/// directory and hidden directories are skipped.
// The lint pass reads the workspace it checks (L011 covers the
// deterministic core, not this tool).
#[allow(clippy::disallowed_methods)]
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    // Root package.
    for (dir, kind) in [
        ("src", FileKind::Lib),
        ("tests", FileKind::Test),
        ("examples", FileKind::Example),
    ] {
        collect(root, &root.join(dir), "cloudsched", kind, &mut files)?;
    }
    // Member crates.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        for krate in entries {
            let name = krate
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            collect(root, &krate.join("src"), &name, FileKind::Lib, &mut files)?;
            collect(
                root,
                &krate.join("benches"),
                &name,
                FileKind::Bench,
                &mut files,
            )?;
            collect(
                root,
                &krate.join("tests"),
                &name,
                FileKind::Test,
                &mut files,
            )?;
            collect(
                root,
                &krate.join("examples"),
                &name,
                FileKind::Example,
                &mut files,
            )?;
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// Every workspace member manifest under `root` as `(relative path, text)`:
/// the root package's `Cargo.toml`, then `crates/*/Cargo.toml` in order.
#[allow(clippy::disallowed_methods)]
pub fn member_manifests(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut paths = vec!["Cargo.toml".to_string()];
    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .map(|name| format!("crates/{name}/Cargo.toml"))
        .filter(|rel| root.join(rel).is_file())
        .collect();
    crates.sort();
    paths.extend(crates);
    paths
        .into_iter()
        .map(|rel| Ok((rel.clone(), std::fs::read_to_string(root.join(&rel))?)))
        .collect()
}

/// Recursively collects `.rs` files under `dir` into `out`.
#[allow(clippy::disallowed_methods)]
fn collect(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    kind: FileKind,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect(root, &path, crate_name, kind, out)?;
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let rel_path = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let in_bin_dir = rel_path.contains("/src/bin/");
        let kind = if kind == FileKind::Lib && (in_bin_dir || name == "main.rs") {
            FileKind::Bin
        } else {
            kind
        };
        let text = std::fs::read_to_string(&path)?;
        out.push(SourceFile {
            crate_name: crate_name.to_string(),
            rel_path,
            kind,
            text,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovers_and_classifies_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = discover(&root).expect("discover");
        assert!(files.len() > 50, "only {} files found", files.len());
        let find = |suffix: &str| {
            files
                .iter()
                .find(|f| f.rel_path.ends_with(suffix))
                .unwrap_or_else(|| panic!("{suffix} not discovered"))
        };
        let core_lib = find("crates/core/src/lib.rs");
        assert_eq!(core_lib.crate_name, "core");
        assert_eq!(core_lib.kind, FileKind::Lib);

        let engine = find("crates/sim/src/engine.rs");
        assert_eq!(engine.kind, FileKind::Lib);

        let cli = find("crates/cli/src/main.rs");
        assert_eq!(cli.kind, FileKind::Bin);

        let helper = find("tests/common/mod.rs");
        assert_eq!(helper.kind, FileKind::Test);

        let example = find("examples/quickstart.rs");
        assert_eq!(example.kind, FileKind::Example);
        assert_eq!(example.crate_name, "cloudsched");

        let test = find("tests/properties.rs");
        assert_eq!(test.kind, FileKind::Test);

        let bin = find("crates/bench/src/bin/profile.rs");
        assert_eq!(bin.kind, FileKind::Bin);
    }
}
