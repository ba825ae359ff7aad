//! The one command-line parser. Every `cloudsched` command declares a
//! static table of its [`Flag`]s; [`parse`] checks a command line against
//! that table and [`usage`] renders the table as help text.
//!
//! A malformed command line is a [`CliError::Usage`] (exit 2): an unknown
//! flag, a flag given twice, a missing value or required flag, or a value
//! its [`Kind`] rejects. Failures after parsing are [`CliError::Runtime`]
//! (exit 1).

use std::collections::BTreeMap;
use std::fmt::{Debug, Display};
use std::str::FromStr;

/// CLI failures, split by exit code: usage errors (malformed command
/// lines — exit 2, usage appended) versus runtime errors (exit 1).
#[derive(Debug)]
pub enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    /// A usage error about one flag, named without its leading dashes.
    pub fn usage(flag: &str, reason: impl Display) -> Self {
        CliError::Usage(
            cloudsched_core::CoreError::InvalidArgument {
                flag: format!("--{flag}"),
                reason: reason.to_string(),
            }
            .to_string(),
        )
    }
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Runtime(e)
    }
}

/// What a flag's value must look like.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A finite number.
    F64,
    /// A non-negative integer.
    U64,
    /// Free text such as a file or directory, shown as the given name.
    Text(&'static str),
    /// A switch that takes no value.
    Bool,
    /// One name from a fixed set.
    OneOf(&'static [&'static str]),
    /// A comma-separated list of names from a fixed set.
    ListOf(&'static [&'static str]),
}

impl Kind {
    /// How the value is shown in usage text.
    fn metavar(self) -> String {
        match self {
            Kind::F64 => "F".into(),
            Kind::U64 => "N".into(),
            Kind::Text(name) => name.into(),
            Kind::Bool => String::new(),
            Kind::OneOf(names) => names.join("|"),
            Kind::ListOf(names) => format!("{},...", names.join("|")),
        }
    }

    /// Checks one raw value against the kind.
    pub fn check(self, raw: &str) -> Result<(), String> {
        let expected = match self {
            Kind::F64 if !raw.parse::<f64>().is_ok_and(f64::is_finite) => "a finite number".into(),
            Kind::U64 if raw.parse::<u64>().is_err() => "a non-negative integer".into(),
            Kind::OneOf(names) if !names.contains(&raw) => format!("one of {}", names.join("|")),
            Kind::ListOf(names) if !raw.split(',').all(|n| names.contains(&n.trim())) => {
                format!("a comma-separated list of {}", names.join("|"))
            }
            _ => return Ok(()),
        };
        Err(format!("expected {expected}, got `{raw}`"))
    }
}

/// One row of a command's flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    pub kind: Kind,
    /// The value used when the flag is absent.
    pub default: Option<&'static str>,
    pub required: bool,
    pub help: &'static str,
}

impl Flag {
    /// An optional flag with no default.
    pub const fn new(name: &'static str, kind: Kind, help: &'static str) -> Self {
        Flag {
            name,
            kind,
            default: None,
            required: false,
            help,
        }
    }

    /// The same flag with a default value.
    pub const fn default(mut self, value: &'static str) -> Self {
        self.default = Some(value);
        self
    }

    /// The same flag, required.
    pub const fn required(mut self) -> Self {
        self.required = true;
        self
    }
}

/// A command line checked against one flag table: the value of every flag
/// that was given or has a default.
#[derive(Debug)]
pub struct Args {
    values: BTreeMap<&'static str, String>,
}

impl Args {
    /// The value of a flag, or `None` when it was not given and has no
    /// default.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: Debug,
    {
        let raw = self.values.get(name)?;
        Some(
            raw.parse()
                .expect("invariant: commands read a flag as its table's kind"),
        )
    }

    /// The value of a flag that is required or has a default.
    pub fn get<T: FromStr>(&self, name: &str) -> T
    where
        T::Err: Debug,
    {
        self.opt(name)
            .expect("invariant: the flag table makes this flag required or gives it a default")
    }

    /// Whether a flag was given (or has a default).
    pub fn on(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }
}

/// Checks `argv` (the words after the command name) against `table`.
pub fn parse(table: &[Flag], argv: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut values = BTreeMap::new();
    let mut argv = argv.into_iter().peekable();
    while let Some(word) = argv.next() {
        let Some(name) = word.strip_prefix("--") else {
            return Err(CliError::Usage(format!(
                "unexpected `{word}`: expected a `--flag`"
            )));
        };
        if name.is_empty() {
            return Err(CliError::Usage("`--`: empty flag name".into()));
        }
        let Some(flag) = table.iter().find(|f| f.name == name) else {
            let known: Vec<&str> = table.iter().map(|f| f.name).collect();
            let expected = format!("--{}", known.join(", --"));
            return Err(CliError::usage(
                name,
                format!("unknown flag for this command (expected one of: {expected})"),
            ));
        };
        let value = match flag.kind {
            Kind::Bool => String::new(),
            kind => {
                let raw = argv.next_if(|w| !w.starts_with("--")).ok_or_else(|| {
                    CliError::usage(name, format!("needs a value ({})", kind.metavar()))
                })?;
                kind.check(&raw).map_err(|e| CliError::usage(name, e))?;
                raw
            }
        };
        if values.insert(flag.name, value).is_some() {
            return Err(CliError::usage(name, "flag given more than once"));
        }
    }
    for flag in table {
        if values.contains_key(flag.name) {
            continue;
        }
        if let Some(default) = flag.default {
            values.insert(flag.name, default.to_string());
        } else if flag.required {
            return Err(CliError::usage(flag.name, "required flag is missing"));
        }
    }
    Ok(Args { values })
}

/// Renders one command's usage block from its flag table.
pub fn usage(command: &str, about: &str, table: &[Flag]) -> String {
    let mut text = format!("  cloudsched {command}  — {about}\n");
    for flag in table {
        let mut left = format!("--{} {}", flag.name, flag.kind.metavar());
        if left.len() > 28 {
            left = format!("{left}\n{:34}", "");
        }
        let required = if flag.required { " (required)" } else { "" };
        let default = flag.default.map(|d| format!(" [default: {d}]"));
        let default = default.unwrap_or_default();
        text.push_str(&format!(
            "      {left:<28} {}{required}{default}\n",
            flag.help
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[
        Flag::new("lambda", Kind::F64, "rate").required(),
        Flag::new("seed", Kind::U64, "seed").default("1"),
        Flag::new("audit", Kind::Bool, "audit"),
        Flag::new("out", Kind::Text("FILE"), "output"),
    ];

    fn parse_words(words: &[&str]) -> Result<Args, CliError> {
        parse(TABLE, words.iter().map(|s| s.to_string()))
    }

    fn usage_text(words: &[&str]) -> String {
        match parse_words(words) {
            Err(CliError::Usage(e)) => e,
            other => panic!("expected a usage error for {words:?}, got {other:?}"),
        }
    }

    #[test]
    fn flag_parsing_pairs_and_booleans() {
        let f = parse_words(&["--lambda", "6", "--audit", "--seed", "3"]).expect("valid flags");
        assert_eq!(f.get::<f64>("lambda"), 6.0);
        assert_eq!(f.get::<u64>("seed"), 3);
        assert!(f.on("audit"));
        assert!(f.opt::<String>("out").is_none());
        let f = parse_words(&["--lambda", "-2.5"]).expect("negative numbers are values");
        assert_eq!(f.get::<f64>("lambda"), -2.5);
        assert_eq!(f.get::<u64>("seed"), 1, "default applies");
    }

    #[test]
    fn malformed_argument_lists_are_typed_errors() {
        assert!(usage_text(&["run", "--lambda", "1"]).contains("expected a `--flag`"));
        assert!(usage_text(&["--lambda", "1", "--lambda", "2"]).contains("more than once"));
        assert!(usage_text(&["--"]).contains("empty flag name"));
        assert!(usage_text(&["--seed", "2"]).contains("required"));
        assert!(usage_text(&["--lambda", "1", "--out"]).contains("needs a value"));
        assert!(usage_text(&["--lambda", "1", "--out", "--audit"]).contains("needs a value"));
        assert!(usage_text(&["--lambda", "nan"]).contains("finite"));
        assert!(usage_text(&["--lambda", "1", "--audit", "yes"]).contains("`yes`"));
    }

    #[test]
    fn usage_lists_every_flag_with_its_default() {
        let text = usage("gen", "make a trace", TABLE);
        assert!(text.contains("--lambda F"));
        assert!(text.contains("(required)"));
        assert!(text.contains("[default: 1]"));
        assert!(text.contains("--out FILE"));
    }
}
