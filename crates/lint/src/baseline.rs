//! Grandfathered-finding baseline.
//!
//! The baseline is a checked-in text file (`lint.baseline` at the workspace
//! root) listing findings that predate the lint pass. Each line is
//!
//! ```text
//! RULE|workspace/relative/path.rs|trimmed offending line text
//! ```
//!
//! Matching is content-based, not line-number-based, so unrelated edits do
//! not invalidate the baseline; moving or fixing the offending line does.
//! Every baseline entry must match a current finding — stale entries fail
//! the run, keeping the debt ledger honest. Regenerate with
//! `cloudsched lint --write-baseline` after deliberate changes.

use crate::rules::Finding;
use std::collections::HashMap;
use std::path::Path;

/// A parsed baseline: entry → allowed occurrence count.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: HashMap<String, usize>,
}

impl Baseline {
    /// Loads the baseline from `path`; a missing file is an empty baseline.
    pub fn load(path: &Path) -> std::io::Result<Baseline> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(Self::parse(&text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(e),
        }
    }

    /// Parses baseline text (one entry per line; `#` comments and blank
    /// lines ignored).
    pub fn parse(text: &str) -> Baseline {
        let mut entries: HashMap<String, usize> = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            *entries.entry(line.to_string()).or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// The canonical baseline key of a finding.
    pub fn key(finding: &Finding) -> String {
        format!("{}|{}|{}", finding.rule, finding.path, finding.excerpt)
    }

    /// Splits `findings` into (new, grandfathered) and reports stale
    /// entries (baseline lines matching no current finding).
    pub fn apply(&self, findings: Vec<Finding>) -> BaselineResult {
        let mut remaining = self.entries.clone();
        let mut new = Vec::new();
        let mut grandfathered = Vec::new();
        for f in findings {
            let key = Self::key(&f);
            match remaining.get_mut(&key) {
                Some(count) if *count > 0 => {
                    *count -= 1;
                    grandfathered.push(f);
                }
                _ => new.push(f),
            }
        }
        let mut stale: Vec<String> = remaining
            .into_iter()
            .filter(|(_, count)| *count > 0)
            .map(|(key, count)| {
                if count > 1 {
                    format!("{key} (×{count})")
                } else {
                    key
                }
            })
            .collect();
        stale.sort();
        BaselineResult {
            new,
            grandfathered,
            stale,
        }
    }

    /// Serializes findings as baseline text.
    pub fn render(findings: &[Finding]) -> String {
        let mut lines: Vec<String> = findings.iter().map(Self::key).collect();
        lines.sort();
        let mut out = String::from(
            "# cloudsched-lint baseline — grandfathered findings.\n\
             # Format: RULE|path|trimmed offending line. Regenerate with\n\
             # `cloudsched lint --write-baseline`.\n",
        );
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }
}

/// Outcome of filtering findings through a baseline.
#[derive(Debug)]
pub struct BaselineResult {
    /// Findings not covered by the baseline: these fail the run.
    pub new: Vec<Finding>,
    /// Findings matched by baseline entries: reported but tolerated.
    pub grandfathered: Vec<Finding>,
    /// Baseline entries with no matching finding: the debt was paid off —
    /// the entry must be removed. These also fail the run.
    pub stale: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, excerpt: &str) -> Finding {
        Finding {
            rule,
            severity: crate::rules::Severity::Error,
            path: path.into(),
            line: 1,
            message: "m".into(),
            excerpt: excerpt.into(),
        }
    }

    #[test]
    fn baseline_splits_new_and_grandfathered() {
        let b = Baseline::parse("L002|a.rs|x.unwrap()\n");
        let r = b.apply(vec![
            finding("L002", "a.rs", "x.unwrap()"),
            finding("L002", "b.rs", "y.unwrap()"),
        ]);
        assert_eq!(r.grandfathered.len(), 1);
        assert_eq!(r.new.len(), 1);
        assert_eq!(r.new[0].path, "b.rs");
        assert!(r.stale.is_empty());
    }

    #[test]
    fn duplicate_entries_count() {
        let b = Baseline::parse("L002|a.rs|x.unwrap()\nL002|a.rs|x.unwrap()\n");
        let r = b.apply(vec![
            finding("L002", "a.rs", "x.unwrap()"),
            finding("L002", "a.rs", "x.unwrap()"),
            finding("L002", "a.rs", "x.unwrap()"),
        ]);
        assert_eq!(r.grandfathered.len(), 2);
        assert_eq!(r.new.len(), 1);
    }

    #[test]
    fn stale_entries_are_reported() {
        let b = Baseline::parse("# comment\nL003|gone.rs|panic!(\"x\")\n\n");
        let r = b.apply(vec![]);
        assert_eq!(r.stale.len(), 1);
        assert!(r.stale[0].contains("gone.rs"));
    }

    #[test]
    fn render_round_trips() {
        let fs = vec![
            finding("L002", "a.rs", "x.unwrap()"),
            finding("L001", "b.rs", "a == 1.0"),
        ];
        let text = Baseline::render(&fs);
        let b = Baseline::parse(&text);
        let r = b.apply(fs);
        assert!(r.new.is_empty());
        assert!(r.stale.is_empty());
        assert_eq!(r.grandfathered.len(), 2);
    }

    #[test]
    fn missing_file_is_empty() {
        let b = Baseline::load(Path::new("/definitely/not/here.baseline")).expect("load");
        let r = b.apply(vec![finding("L005", "c.rs", "Instant::now()")]);
        assert_eq!(r.new.len(), 1);
    }
}
