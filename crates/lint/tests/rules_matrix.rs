//! Fixture-driven rule matrix: every source rule of `cloudsched lint`
//! (L001, L002, L009) exercised on in-memory sources with one positive case
//! (the rule fires), one negative case (the compliant spelling passes), and
//! one allow-directive case (the escape hatch silences it), plus L004's
//! manifest check. The clippy-enforced rules keep their cases in
//! `clippy_fixture.rs`.

use cloudsched_lint::{check_files, check_manifest, FileKind, Finding, SourceFile};

/// A library fixture file in the given crate.
fn lib_file(crate_name: &str, rel_path: &str, text: &str) -> SourceFile {
    SourceFile {
        crate_name: crate_name.into(),
        rel_path: rel_path.into(),
        kind: FileKind::Lib,
        text: text.into(),
    }
}

fn lint_one(file: SourceFile) -> Vec<Finding> {
    check_files(vec![file])
}

fn fires(findings: &[Finding], rule: &str) -> bool {
    findings.iter().any(|f| f.rule == rule)
}

/// Asserts `text` (as library code of `crate_name`) triggers `rule`, that
/// `clean_text` does not, and that appending the allow directive to the
/// offending line silences it.
fn matrix(rule: &str, crate_name: &str, rel_path: &str, text: &str, clean_text: &str) {
    let found = lint_one(lib_file(crate_name, rel_path, text));
    assert!(
        fires(&found, rule),
        "{rule} positive case did not fire on:\n{text}\nfindings: {found:#?}"
    );
    let clean = lint_one(lib_file(crate_name, rel_path, clean_text));
    assert!(
        !fires(&clean, rule),
        "{rule} negative case fired on:\n{clean_text}\nfindings: {clean:#?}"
    );
    // Allow-directive case: silence every offending line of the positive
    // fixture with a trailing directive.
    let offending: Vec<usize> = found
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect();
    let allowed_text: String = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if offending.contains(&(i + 1)) {
                format!("{l} // lint: allow({rule}) — fixture\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let allowed = lint_one(lib_file(crate_name, rel_path, &allowed_text));
    assert!(
        !fires(&allowed, rule),
        "{rule} allow directive did not silence:\n{allowed_text}\nfindings: {allowed:#?}"
    );
}

#[test]
fn l001_raw_float_comparison() {
    matrix(
        "L001",
        "sim",
        "crates/sim/src/fixture.rs",
        "pub fn done(remaining: f64, target: f64) -> bool { remaining == target }\n",
        "pub fn done(remaining: f64, target: f64) -> bool { approx_eq(remaining, target) }\n",
    );
}

#[test]
fn l001_integer_yielding_tail_is_not_a_float() {
    // The PR 5 escape class: `remaining` is float vocabulary, but
    // `.capacity()` / `.len()` yield integers — no finding, no allow needed.
    let f = lib_file(
        "sim",
        "crates/sim/src/fixture.rs",
        "pub fn fits(&self, n: usize) -> bool { self.remaining.capacity() >= n }\n",
    );
    let found = lint_one(f);
    assert!(
        !fires(&found, "L001"),
        "capacity comparison flagged: {found:#?}"
    );
}

#[test]
fn l002_unwrap_and_unjustified_expect() {
    matrix(
        "L002",
        "sched",
        "crates/sched/src/fixture.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        "pub fn f(x: Option<u32>) -> u32 { x.expect(\"invariant: queue is non-empty here\") }\n",
    );
    let bad_expect = lint_one(lib_file(
        "sched",
        "crates/sched/src/fixture.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.expect(\"oops\") }\n",
    ));
    assert!(fires(&bad_expect, "L002"), "unjustified expect passed");
}

#[test]
fn l004_members_opt_into_workspace_lints() {
    let member = |lints: &str| format!("[package]\nname = \"cloudsched-sim\"\n{lints}");
    let found = check_manifest("crates/sim/Cargo.toml", &member(""));
    assert!(
        found.is_some_and(|f| f.rule == "L004"),
        "manifest without [lints] passed"
    );
    let elsewhere = check_manifest(
        "crates/sim/Cargo.toml",
        &member("workspace = true\n\n[lints]\n"),
    );
    assert!(
        elsewhere.is_some(),
        "`workspace = true` outside [lints] passed"
    );
    let no_msrv = check_manifest(
        "crates/sim/Cargo.toml",
        &member("\n[lints]\nworkspace = true\n"),
    );
    assert!(
        no_msrv.is_some_and(|f| f.message.contains("rust-version")),
        "package without the workspace rust-version passed"
    );
    let clean = check_manifest(
        "crates/sim/Cargo.toml",
        &member("rust-version.workspace = true\n\n[lints]\nworkspace = true\n"),
    );
    assert!(clean.is_none(), "opted-in manifest flagged: {clean:#?}");
    // A virtual workspace manifest has no package to carry a rust-version.
    let virtual_root = check_manifest("Cargo.toml", "[workspace]\n\n[lints]\nworkspace = true\n");
    assert!(
        virtual_root.is_none(),
        "virtual manifest flagged: {virtual_root:#?}"
    );
}

#[test]
fn l009_seed_discipline() {
    matrix(
        "L009",
        "workload",
        "crates/workload/src/fixture.rs",
        "pub fn f() -> Pcg32 { Pcg32::seed_from_u64(42) }\n",
        "pub fn f(stream: u64, lambda: f64, run: usize) -> Pcg32 {\n\
         \x20   Pcg32::seed_from_u64(derive_seed(stream, lambda, run))\n\
         }\n",
    );
    // Ad-hoc arithmetic in the constructor argument.
    let arith = lint_one(lib_file(
        "workload",
        "crates/workload/src/fixture.rs",
        "pub fn f(seed: u64, i: u64) -> Pcg32 { Pcg32::seed_from_u64(seed + i) }\n",
    ));
    assert!(fires(&arith, "L009"), "seed arithmetic passed: {arith:#?}");
    // Integration-test files are exempt: local test seeds feed no artifact.
    let test_file = SourceFile {
        crate_name: "workload".into(),
        rel_path: "crates/workload/tests/fixture.rs".into(),
        kind: FileKind::Test,
        text: "fn f() -> Pcg32 { Pcg32::seed_from_u64(42) }\n".into(),
    };
    let found = lint_one(test_file);
    assert!(!fires(&found, "L009"), "test exemption broken: {found:#?}");
}

#[test]
fn fleet_engine_and_dispatch_are_fully_in_scope() {
    // The dispatch policies in `sched/src/dispatch.rs` promise output that
    // is a pure function of `(seed, M, policy)` at every thread count, so
    // p2c seeds flow through `derive_seed` (L009). The fleet files' clock,
    // hash-order, thread and I/O cases are clippy's (`clippy_fixture.rs`).
    matrix(
        "L009",
        "sched",
        "crates/sched/src/dispatch.rs",
        "pub fn f() -> Pcg32 { Pcg32::seed_from_u64(42) }\n",
        "pub fn f(stream: u64, lambda: f64, run: usize) -> Pcg32 {\n\
         \x20   Pcg32::seed_from_u64(derive_seed(stream, lambda, run))\n\
         }\n",
    );
}

#[test]
fn cfg_test_regions_are_exempt_everywhere() {
    let f = lib_file(
        "sched",
        "crates/sched/src/fixture.rs",
        "pub fn ok() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n\
         \x20   fn seeded() -> Pcg32 { Pcg32::seed_from_u64(7) }\n\
         }\n",
    );
    let found = lint_one(f);
    assert!(found.is_empty(), "cfg(test) region not exempt: {found:#?}");
}

#[test]
fn findings_inside_strings_and_comments_are_ignored() {
    let f = lib_file(
        "sched",
        "crates/sched/src/fixture.rs",
        "// a comment mentioning x.unwrap() and panic!(\"boom\")\n\
         pub const DOC: &str = \"x.unwrap() and Instant::now()\";\n\
         pub const RAW: &str = r#\"thread::spawn inside a raw \"string\"\"#;\n",
    );
    let found = lint_one(f);
    assert!(found.is_empty(), "lexical ghosts fired: {found:#?}");
}
