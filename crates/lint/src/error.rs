//! Typed errors of the lint front end (`cloudsched lint`), mirroring the workspace's
//! `CoreError` conventions (PR 3): argument problems carry the flag and a
//! reason, and every error renders a single actionable line.

use std::fmt;

/// Error raised by the lint front end.
#[derive(Debug)]
pub enum LintError {
    /// A command-line argument was missing, malformed or unknown.
    InvalidArgument {
        /// The flag, including leading dashes (e.g. `--explain`).
        flag: String,
        /// What was wrong with it.
        reason: String,
    },
    /// `--explain` was passed a rule id outside L001–L011.
    UnknownRule {
        /// The id as given.
        id: String,
    },
    /// The workspace could not be read.
    Io(std::io::Error),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::InvalidArgument { flag, reason } => {
                write!(f, "argument {flag}: {reason}")
            }
            LintError::UnknownRule { id } => {
                write!(
                    f,
                    "unknown rule `{id}` — valid ids are L001 through L{:03}",
                    crate::rules::RULES.len()
                )
            }
            LintError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {}

impl From<std::io::Error> for LintError {
    fn from(e: std::io::Error) -> Self {
        LintError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_flag_and_rule() {
        let e = LintError::InvalidArgument {
            flag: "--explain".into(),
            reason: "needs a rule id".into(),
        };
        assert!(e.to_string().contains("--explain"));
        let e = LintError::UnknownRule { id: "L099".into() };
        assert!(e.to_string().contains("L099"));
        assert!(e.to_string().contains("L011"));
    }
}
