//! Tier-1 gate: the workspace must lint clean.
//!
//! This test makes `cargo test -q` run the full `cloudsched lint` pass (the
//! source rules L001, L002 and L009 over every file, and L004 over every
//! member manifest): any finding fails the suite with the finding list in
//! the assertion message.

use cloudsched_lint::run_workspace;
use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run_workspace(&root).expect("lint pass runs");
    assert!(
        report.files_scanned >= 60,
        "discovery looks broken: only {} files scanned",
        report.files_scanned
    );
    assert!(report.is_clean(), "\n{}", report.render());
}
