//! Per-file symbol model built from the token stream.
//!
//! The rules in this crate scope on `#[cfg(test)]` regions, honour
//! `// lint: allow(Lxxx)` escapes, and need the `pub const` items a
//! workspace index lists from `core::rng`. This module derives all of that
//! from the [`crate::tokens`] stream — brace-tracked, so strings and
//! comments can never confuse the spans.

use crate::tokens::{Comment, Token, TokenStream};
use std::collections::BTreeMap;
use std::ops::Range;

/// Per-file symbol model.
#[derive(Debug)]
pub struct FileModel {
    /// Token-index ranges gated by `#[cfg(test)]`.
    pub test_spans: Vec<Range<usize>>,
    /// Names of `pub const` items.
    pub pub_consts: Vec<String>,
    /// 1-based line → rules allowed (escaped) on that line, from
    /// `// lint: allow(Lxxx)` directives.
    pub allows: BTreeMap<usize, Vec<String>>,
}

impl FileModel {
    /// Is token index `idx` inside `#[cfg(test)]` code?
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|r| r.contains(&idx))
    }

    /// Is `rule` allowed (escaped) on 1-based `line`?
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .get(&line)
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }
}

/// Builds the [`FileModel`] for one token stream.
pub fn build_model(ts: &TokenStream) -> FileModel {
    FileModel {
        test_spans: find_test_spans(ts.toks()),
        pub_consts: collect_pub_consts(ts.toks()),
        allows: collect_allows(&ts.comments),
    }
}

/// Extracts `lint: allow(Lxxx[, Lyyy…])` directives: a trailing comment
/// applies to its own line, a standalone one to the next line.
fn collect_allows(comments: &[Comment]) -> BTreeMap<usize, Vec<String>> {
    let mut allows: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for c in comments {
        let Some(rules) = parse_allow(&c.text) else {
            continue;
        };
        let target = if c.trailing { c.line } else { c.line + 1 };
        allows.entry(target).or_default().extend(rules);
    }
    allows
}

/// Parses the rule list out of one comment body, if it is an allow directive.
fn parse_allow(comment: &str) -> Option<Vec<String>> {
    let idx = comment.find("lint: allow(")?;
    let rest = &comment[idx + "lint: allow(".len()..];
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| {
            r.len() == 4 && r.starts_with('L') && r[1..].chars().all(|c| c.is_ascii_digit())
        })
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

/// Finds token-index ranges gated by `#[cfg(test)]`: from the attribute
/// through the gated item's closing `}` (or `;` for braceless items).
fn find_test_spans(toks: &[Token]) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].is_punct("#")
            && toks[i + 1].is_punct("[")
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct("(")
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(")")
            && toks[i + 6].is_punct("]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut end = i + 7;
        let mut opened = false;
        for (j, t) in toks.iter().enumerate().skip(i + 7) {
            if t.is_punct("{") {
                depth += 1;
                opened = true;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 && opened {
                    end = j + 1;
                    break;
                }
            } else if t.is_punct(";") && !opened {
                end = j + 1;
                break;
            }
            end = j + 1;
        }
        spans.push(i..end);
        i = end;
    }
    spans
}

/// Names of `pub const` items.
fn collect_pub_consts(toks: &[Token]) -> Vec<String> {
    toks.windows(3)
        .filter(|w| w[0].is_ident("pub") && w[1].is_ident("const"))
        .map(|w| w[2].text.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::tokenize;

    fn model_of(src: &str) -> FileModel {
        build_model(&tokenize(src))
    }

    #[test]
    fn cfg_test_spans_cover_modules_and_gated_uses() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\nuse x::y;\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n\
                   fn lib2() {}\n";
        let ts = tokenize(src);
        let m = build_model(&ts);
        assert_eq!(m.test_spans.len(), 2);
        let unwrap_idx = ts
            .toks()
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        assert!(m.in_test(unwrap_idx));
        let lib2 = ts
            .toks()
            .iter()
            .position(|t| t.is_ident("lib2"))
            .expect("lib2 token");
        assert!(!m.in_test(lib2));
    }

    #[test]
    fn cfg_test_span_survives_strings_with_braces() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}\";\n    fn t() {}\n}\nfn after() {}\n";
        let ts = tokenize(src);
        let m = build_model(&ts);
        let after = ts
            .toks()
            .iter()
            .position(|t| t.is_ident("after"))
            .expect("after token");
        assert!(!m.in_test(after), "brace inside string must not end span");
        let t_fn = ts
            .toks()
            .iter()
            .position(|t| t.is_ident("t"))
            .expect("t token");
        assert!(m.in_test(t_fn));
    }

    #[test]
    fn pub_consts_are_collected() {
        let m = model_of("pub const SEED_STREAM_X: u64 = 1;\nconst PRIVATE: u64 = 2;\n");
        assert_eq!(m.pub_consts, ["SEED_STREAM_X"]);
    }

    #[test]
    fn allow_directives_trailing_and_standalone() {
        let m = model_of(
            "let a = x.unwrap(); // lint: allow(L002)\n// lint: allow(L001, L003)\nlet b = 1;\n",
        );
        assert!(m.is_allowed("L002", 1));
        assert!(!m.is_allowed("L001", 1));
        assert!(m.is_allowed("L001", 3));
        assert!(m.is_allowed("L003", 3));
    }
}
