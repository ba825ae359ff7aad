//! Typed errors of the lint front end (`cloudsched lint`), mirroring the
//! workspace's `CoreError` conventions: every error renders a single
//! actionable line.

use std::fmt;

/// Error raised by the lint front end.
#[derive(Debug)]
pub enum LintError {
    /// `--explain` was passed an id this pass does not check.
    UnknownRule {
        /// The id as given.
        id: String,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::UnknownRule { id } => {
                let ids: Vec<&str> = crate::rules::RULES.iter().map(|r| r.id).collect();
                write!(
                    f,
                    "unknown rule `{id}` — cloudsched lint checks {}; the other ids \
                     are clippy lints configured in clippy.toml",
                    ids.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for LintError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_names_the_rule_and_the_valid_ids() {
        let e = LintError::UnknownRule { id: "L099".into() };
        assert!(e.to_string().contains("L099"));
        assert!(e.to_string().contains("L001, L002, L004, L009"));
    }
}
