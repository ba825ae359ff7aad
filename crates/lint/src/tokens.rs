//! A lightweight Rust tokenizer.
//!
//! The first generation of this crate matched rules against *masked lines*
//! (comments and string interiors blanked). That was enough for purely
//! lexical rules but produced known false-positive classes — vocabulary
//! words inside longer identifiers, operators inside generics, float-looking
//! text in integer clauses — and could not support symbol-level rules at
//! all (`use`-path resolution, receiver typing, cross-file checks).
//!
//! This module replaces the masked text with a real token stream:
//!
//! * comments (line and nested block), string literals (plain, raw, byte),
//!   char literals and lifetimes are lexed *correctly*, not approximated;
//! * every token carries its 1-based line, so line mapping is exact;
//! * comments are kept (with their line and trailing/standalone position)
//!   so `// lint: allow(Lxxx)` escape directives survive tokenization.
//!
//! The lexer is byte-oriented: multi-byte UTF-8 only appears inside
//! comments and string literals, whose contents are carried opaquely.

/// Classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`foo`, `fn`, `as`, `for`, …).
    Ident,
    /// Lifetime (`'a`) — the text excludes the quote.
    Lifetime,
    /// Integer literal, any base, underscores and suffix included.
    Int,
    /// Float literal (decimal point, exponent, or `f32`/`f64` suffix).
    Float,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`); the text is
    /// the complete literal including delimiters.
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`), delimiters included.
    Char,
    /// Punctuation / operator, multi-character operators joined (`::`,
    /// `=>`, `<=`, `<<=`, …).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token classification.
    pub kind: TokenKind,
    /// Exact source text of the token.
    pub text: String,
    /// 1-based source line of the token's first byte.
    pub line: usize,
}

impl Token {
    /// Is this token the punct `p`?
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == p
    }

    /// Is this token the identifier/keyword `name`?
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }
}

/// One comment, kept out-of-band of the token stream.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line of the comment's first byte.
    pub line: usize,
    /// Comment body (delimiters stripped, block comments joined).
    pub text: String,
    /// Whether code tokens precede the comment on its starting line (a
    /// *trailing* comment) — `lint: allow` directives in trailing comments
    /// apply to their own line, standalone ones to the next line.
    pub trailing: bool,
}

/// The result of tokenizing one source file.
#[derive(Debug, Default)]
pub struct TokenStream {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

impl TokenStream {
    /// Tokens as a slice (convenience).
    pub fn toks(&self) -> &[Token] {
        &self.tokens
    }
}

/// Multi-character operators, longest first so maximal munch works by
/// scanning the table in order.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "...", "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

/// Tokenizes `source` into a [`TokenStream`].
pub fn tokenize(source: &str) -> TokenStream {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    i: usize,
    line: usize,
    /// Has a code token been emitted on the current line yet?
    code_on_line: bool,
    out: TokenStream,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            bytes: source.as_bytes(),
            i: 0,
            line: 1,
            code_on_line: false,
            out: TokenStream::default(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.i + ahead).copied()
    }

    fn bump_lines(&mut self, from: usize, to: usize) {
        self.line += self.bytes[from..to].iter().filter(|&&b| b == b'\n').count();
        if self.bytes[from..to].contains(&b'\n') {
            self.code_on_line = false;
        }
    }

    fn push(&mut self, kind: TokenKind, start: usize, end: usize, line: usize) {
        let text = String::from_utf8_lossy(&self.bytes[start..end]).into_owned();
        self.out.tokens.push(Token { kind, text, line });
        self.code_on_line = true;
    }

    fn run(mut self) -> TokenStream {
        while self.i < self.bytes.len() {
            let b = self.bytes[self.i];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.code_on_line = false;
                    self.i += 1;
                }
                b' ' | b'\t' | b'\r' => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(0, false),
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident_or_prefixed_literal(),
                _ if b >= 0x80 => {
                    // Non-ASCII outside strings/comments: skip the byte (the
                    // workspace is ASCII-only in code position).
                    self.i += 1;
                }
                _ => self.punct(),
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let start = self.i + 2;
        let mut end = start;
        while end < self.bytes.len() && self.bytes[end] != b'\n' {
            end += 1;
        }
        self.out.comments.push(Comment {
            line: self.line,
            text: String::from_utf8_lossy(&self.bytes[start..end]).into_owned(),
            trailing: self.code_on_line,
        });
        self.i = end;
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let trailing = self.code_on_line;
        let start = self.i + 2;
        let mut depth = 1u32;
        let mut j = start;
        while j < self.bytes.len() {
            if self.bytes[j] == b'/' && self.bytes.get(j + 1) == Some(&b'*') {
                depth += 1;
                j += 2;
            } else if self.bytes[j] == b'*' && self.bytes.get(j + 1) == Some(&b'/') {
                depth -= 1;
                j += 2;
                if depth == 0 {
                    break;
                }
            } else {
                j += 1;
            }
        }
        let body_end = j.saturating_sub(2).max(start);
        self.out.comments.push(Comment {
            line,
            text: String::from_utf8_lossy(&self.bytes[start..body_end]).into_owned(),
            trailing,
        });
        self.bump_lines(self.i, j);
        self.i = j;
    }

    /// Lexes a string starting at the current `"` with `hashes` raw-string
    /// hashes (`raw == true` disables escape processing).
    fn string(&mut self, hashes: u32, raw: bool) {
        let start = self.i;
        let line = self.line;
        let mut j = self.i + 1;
        while j < self.bytes.len() {
            match self.bytes[j] {
                b'\\' if !raw => j += 2,
                b'"' => {
                    if hashes == 0 {
                        j += 1;
                        break;
                    }
                    let h = hashes as usize;
                    let tail = &self.bytes[j + 1..];
                    if tail.len() >= h && tail[..h].iter().all(|&b| b == b'#') {
                        j += 1 + h;
                        break;
                    }
                    j += 1;
                }
                _ => j += 1,
            }
        }
        let j = j.min(self.bytes.len());
        self.push(TokenKind::Str, start, j, line);
        self.bump_lines(start, j);
        self.i = j;
    }

    fn char_or_lifetime(&mut self) {
        let start = self.i;
        // Char literal if the quote closes within the next few bytes or an
        // escape follows; otherwise a lifetime.
        let is_char = match self.peek(1) {
            Some(b'\\') => true,
            Some(_) => self.peek(2) == Some(b'\''),
            None => false,
        };
        if is_char {
            let mut j = self.i + 1;
            if self.bytes[j] == b'\\' {
                j += 2;
                // Escapes like \u{1F600} or \x7f: scan to the closing quote.
                while j < self.bytes.len() && self.bytes[j] != b'\'' {
                    j += 1;
                }
            } else {
                j += 1;
            }
            let j = (j + 1).min(self.bytes.len());
            self.push(TokenKind::Char, start, j, self.line);
            self.i = j;
        } else {
            let mut j = self.i + 1;
            while j < self.bytes.len()
                && (self.bytes[j].is_ascii_alphanumeric() || self.bytes[j] == b'_')
            {
                j += 1;
            }
            let line = self.line;
            let text = String::from_utf8_lossy(&self.bytes[start + 1..j]).into_owned();
            self.out.tokens.push(Token {
                kind: TokenKind::Lifetime,
                text,
                line,
            });
            self.code_on_line = true;
            self.i = j;
        }
    }

    fn number(&mut self) {
        let start = self.i;
        let mut j = self.i;
        let mut float = false;
        // Hex/octal/binary prefix: no float forms.
        if self.bytes[j] == b'0'
            && matches!(
                self.bytes.get(j + 1),
                Some(b'x') | Some(b'X') | Some(b'o') | Some(b'b')
            )
        {
            j += 2;
            while j < self.bytes.len()
                && (self.bytes[j].is_ascii_alphanumeric() || self.bytes[j] == b'_')
            {
                j += 1;
            }
        } else {
            while j < self.bytes.len() && (self.bytes[j].is_ascii_digit() || self.bytes[j] == b'_')
            {
                j += 1;
            }
            // Decimal point: only if followed by a digit (so `1..10` and
            // `1.max(2)` stay integers) or at end-of-expression (`1.`).
            if self.bytes.get(j) == Some(&b'.')
                && self
                    .bytes
                    .get(j + 1)
                    .is_some_and(|b| b.is_ascii_digit() || b == &b'_')
            {
                float = true;
                j += 1;
                while j < self.bytes.len()
                    && (self.bytes[j].is_ascii_digit() || self.bytes[j] == b'_')
                {
                    j += 1;
                }
            }
            // Exponent: `1e9`, `1.5e-12`, `5E+3`.
            if matches!(self.bytes.get(j), Some(b'e') | Some(b'E')) {
                let sign = matches!(self.bytes.get(j + 1), Some(b'+') | Some(b'-'));
                let digit_at = if sign { j + 2 } else { j + 1 };
                if self.bytes.get(digit_at).is_some_and(|b| b.is_ascii_digit()) {
                    float = true;
                    j = digit_at;
                    while j < self.bytes.len()
                        && (self.bytes[j].is_ascii_digit() || self.bytes[j] == b'_')
                    {
                        j += 1;
                    }
                }
            }
            // Suffix (`u64`, `f64`, `usize`, …).
            let suffix_start = j;
            while j < self.bytes.len()
                && (self.bytes[j].is_ascii_alphanumeric() || self.bytes[j] == b'_')
            {
                j += 1;
            }
            let suffix = &self.bytes[suffix_start..j];
            if suffix == b"f32" || suffix == b"f64" {
                float = true;
            }
        }
        let kind = if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.push(kind, start, j, self.line);
        self.i = j;
    }

    fn ident_or_prefixed_literal(&mut self) {
        let start = self.i;
        let mut j = self.i;
        while j < self.bytes.len()
            && (self.bytes[j].is_ascii_alphanumeric() || self.bytes[j] == b'_')
        {
            j += 1;
        }
        let ident = &self.bytes[start..j];
        // String/char literal prefixes: `b"…"`, `r"…"`, `r#"…"#`, `br#"…"#`,
        // `b'x'`. Raw identifiers `r#name` are lexed as plain identifiers.
        if matches!(ident, b"b" | b"r" | b"br" | b"rb") {
            let mut k = j;
            let mut hashes = 0u32;
            while self.bytes.get(k) == Some(&b'#') {
                hashes += 1;
                k += 1;
            }
            let raw = ident != b"b";
            if self.bytes.get(k) == Some(&b'"') && (hashes == 0 || raw) {
                // Lex from the quote, then splice the prefix (`r#`, `b`, …)
                // back into the token text.
                self.i = k;
                let line = self.line;
                self.string(hashes, raw);
                if let Some(last) = self.out.tokens.last_mut() {
                    let prefix = String::from_utf8_lossy(
                        &self.bytes[start..start + ident.len() + hashes as usize],
                    );
                    last.text = format!("{prefix}{}", last.text);
                    last.line = line;
                }
                return;
            }
            if ident == b"r" && hashes == 1 && self.bytes.get(k).is_some_and(is_ident_start) {
                // Raw identifier `r#foo`: lex the identifier proper.
                let id_start = k;
                let mut m = k;
                while m < self.bytes.len()
                    && (self.bytes[m].is_ascii_alphanumeric() || self.bytes[m] == b'_')
                {
                    m += 1;
                }
                self.push(TokenKind::Ident, id_start, m, self.line);
                self.i = m;
                return;
            }
            if ident == b"b" && self.bytes.get(j) == Some(&b'\'') {
                // Byte char `b'x'`.
                self.i = j;
                let line = self.line;
                self.char_or_lifetime();
                if let Some(last) = self.out.tokens.last_mut() {
                    last.text = format!("b{}", last.text);
                    last.line = line;
                }
                return;
            }
        }
        self.push(TokenKind::Ident, start, j, self.line);
        self.i = j;
    }

    fn punct(&mut self) {
        let rest = &self.bytes[self.i..];
        for op in MULTI_PUNCT {
            if rest.starts_with(op.as_bytes()) {
                let start = self.i;
                let end = self.i + op.len();
                self.push(TokenKind::Punct, start, end, self.line);
                self.i = end;
                return;
            }
        }
        self.push(TokenKind::Punct, self.i, self.i + 1, self.line);
        self.i += 1;
    }
}

fn is_ident_start(b: &u8) -> bool {
    b.is_ascii_alphabetic() || *b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        tokenize(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_puncts_and_literals() {
        assert_eq!(
            texts("let x = a.b::<f64>() + 1;"),
            ["let", "x", "=", "a", ".", "b", "::", "<", "f64", ">", "(", ")", "+", "1", ";"]
        );
    }

    #[test]
    fn multi_char_operators_are_joined() {
        assert_eq!(
            texts("a <= b >= c == d != e && f || g << h >>= i ..= j"),
            [
                "a", "<=", "b", ">=", "c", "==", "d", "!=", "e", "&&", "f", "||", "g", "<<", "h",
                ">>=", "i", "..=", "j"
            ]
        );
    }

    #[test]
    fn float_vs_int_literals() {
        let ts = tokenize("1.0 1e-9 5E+3 1_000.5 2f64 7 0x5EED 1..10 3.max(4)");
        let kinds: Vec<(TokenKind, &str)> = ts
            .tokens
            .iter()
            .map(|t| (t.kind, t.text.as_str()))
            .collect();
        assert_eq!(kinds[0], (TokenKind::Float, "1.0"));
        assert_eq!(kinds[1], (TokenKind::Float, "1e-9"));
        assert_eq!(kinds[2], (TokenKind::Float, "5E+3"));
        assert_eq!(kinds[3], (TokenKind::Float, "1_000.5"));
        assert_eq!(kinds[4], (TokenKind::Float, "2f64"));
        assert_eq!(kinds[5], (TokenKind::Int, "7"));
        assert_eq!(kinds[6], (TokenKind::Int, "0x5EED"));
        // `1..10` is int, range, int.
        assert_eq!(kinds[7], (TokenKind::Int, "1"));
        assert_eq!(kinds[8], (TokenKind::Punct, ".."));
        assert_eq!(kinds[9], (TokenKind::Int, "10"));
        // `3.max(4)` is int, dot, ident.
        assert_eq!(kinds[10], (TokenKind::Int, "3"));
        assert_eq!(kinds[11], (TokenKind::Punct, "."));
        assert_eq!(kinds[12], (TokenKind::Ident, "max"));
    }

    #[test]
    fn comments_do_not_produce_tokens() {
        let ts = tokenize("a // x.unwrap()\n/* b /* nested */ still */ c");
        let texts: Vec<&str> = ts.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["a", "c"]);
        assert_eq!(ts.comments.len(), 2);
        assert!(ts.comments[0].trailing);
        assert_eq!(ts.comments[0].text, " x.unwrap()");
        assert!(ts.comments[1].text.contains("nested"));
    }

    #[test]
    fn strings_chars_and_lifetimes() {
        let ts = tokenize(r#"let s = "a == b"; let c = '"'; fn f<'a>(x: &'a str) {}"#);
        let strs: Vec<&Token> = ts
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "\"a == b\"");
        assert!(ts.tokens.iter().any(|t| t.kind == TokenKind::Char));
        assert_eq!(
            ts.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            2
        );
    }

    #[test]
    fn raw_strings_with_hashes() {
        let ts = tokenize("let s = r#\"inner \"quote\" .unwrap()\"#; y.unwrap();");
        let s = ts
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Str)
            .expect("string token");
        assert!(s.text.contains("inner"));
        assert!(s.text.starts_with("r#\""));
        assert!(s.text.ends_with("\"#"));
        // The unwrap *outside* the string is still a real token.
        assert!(ts.tokens.iter().any(|t| t.is_ident("unwrap")));
        // Only one unwrap ident — the one inside the raw string is opaque.
        assert_eq!(ts.tokens.iter().filter(|t| t.is_ident("unwrap")).count(), 1);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let ts = tokenize(r##"let a = b"bytes"; let c = b'\n'; let r = br#"raw"#;"##);
        assert_eq!(
            ts.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Str)
                .count(),
            2
        );
        assert!(ts.tokens.iter().any(|t| t.kind == TokenKind::Char));
    }

    #[test]
    fn line_numbers_are_exact() {
        let ts = tokenize("a\n/* two\nlines */ b\n\"s\ntr\" c\n");
        let tok = |name: &str| ts.tokens.iter().find(|t| t.text == name).expect("token");
        assert_eq!(tok("a").line, 1);
        assert_eq!(tok("b").line, 3);
        assert_eq!(tok("c").line, 5);
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let ts = tokenize(r#"let s = "ends with \" quote"; z.unwrap();"#);
        assert!(ts.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert_eq!(
            ts.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Str)
                .count(),
            1
        );
    }

    #[test]
    fn raw_identifiers_are_idents() {
        let ts = tokenize("let r#fn = 1;");
        assert!(ts.tokens.iter().any(|t| t.is_ident("fn")));
    }
}
