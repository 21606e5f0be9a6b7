//! A minimal Rust lexer: good enough to tokenize this workspace's sources
//! for structural scanning, without claiming to be a full implementation.
//!
//! Comments and whitespace are skipped (suppression comments are collected
//! on the side, see [`Suppression`]); string/char literals become single
//! tokens so rule patterns never match inside literal text; `'a` lifetimes
//! are distinguished from `'c'` char literals. Multi-character operators
//! are deliberately left as single-character punctuation tokens — rule
//! patterns match token sequences, which keeps the lexer trivial.

/// What a token is, coarsely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (the scanner tells them apart by spelling).
    Ident,
    /// One punctuation character (`{`, `=`, `#`, ...).
    Punct,
    /// String literal (normal or raw); `text` is the *contents*.
    Str,
    /// Char literal; `text` is the raw source slice.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`); `text` excludes the quote.
    Lifetime,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Token {
    /// Is this the identifier `s`?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this the punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// An inline `// lint:allow(rule, ...)` suppression found in a comment.
///
/// A suppression silences matching diagnostics on its own line and on the
/// line immediately below it (so it can trail the offending code or sit
/// above it, like `#[allow]`). `lint:allow(all)` silences every rule.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub line: u32,
    pub rules: Vec<String>,
}

/// One `//` line comment: its line and its text after the slashes
/// (doc-comment markers included), trimmed.
#[derive(Debug, Clone)]
pub struct LineComment {
    pub line: u32,
    pub text: String,
}

/// Lexer output: the token stream plus side tables.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub suppressions: Vec<Suppression>,
    /// Every line comment, in source order (rule L7 reads `SAFETY:` ones).
    pub comments: Vec<LineComment>,
}

/// Tokenizes `src`, collecting suppression comments on the side.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    // Advance over `n` bytes of already-inspected text, updating line/col.
    macro_rules! advance {
        ($n:expr) => {{
            for _ in 0..$n {
                if i < bytes.len() {
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        let (tline, tcol) = (line, col);

        if c.is_whitespace() {
            advance!(1);
            continue;
        }

        // Line comment (incl. doc comments). Scan for suppressions.
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            let end = src[i..].find('\n').map(|n| i + n).unwrap_or(bytes.len());
            scan_suppression(&src[i..end], tline, &mut out.suppressions);
            out.comments.push(LineComment {
                line: tline,
                text: src[i + 2..end].trim().to_string(),
            });
            advance!(end - i);
            continue;
        }

        // Block comment, possibly nested.
        if c == '/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            advance!(j - i);
            continue;
        }

        // Raw string r"..." / r#"..."# (and byte-raw br").
        if (c == 'r' || c == 'b') && is_raw_string_start(bytes, i) {
            let start = if c == 'b' { i + 2 } else { i + 1 };
            let hashes = bytes[start..].iter().take_while(|&&b| b == b'#').count();
            let open = start + hashes; // points at the opening quote
            let closer: String = std::iter::once('"')
                .chain(std::iter::repeat_n('#', hashes))
                .collect();
            let body_start = open + 1;
            let end = src[body_start..]
                .find(&closer)
                .map(|n| body_start + n)
                .unwrap_or(bytes.len());
            out.tokens.push(Token {
                kind: TokKind::Str,
                text: src[body_start..end].to_string(),
                line: tline,
                col: tcol,
            });
            let total = (end + closer.len()).min(bytes.len()) - i;
            advance!(total);
            continue;
        }

        // Normal string literal (and byte string b"...").
        if c == '"' || (c == 'b' && bytes.get(i + 1) == Some(&b'"')) {
            let open = if c == 'b' { i + 1 } else { i };
            let mut j = open + 1;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'"' => break,
                    _ => j += 1,
                }
            }
            out.tokens.push(Token {
                kind: TokKind::Str,
                text: src[open + 1..j.min(bytes.len())].to_string(),
                line: tline,
                col: tcol,
            });
            advance!((j + 1).min(bytes.len()) - i);
            continue;
        }

        // Lifetime or char literal.
        if c == '\'' {
            if let Some(n) = char_literal_len(bytes, i) {
                out.tokens.push(Token {
                    kind: TokKind::Char,
                    text: src[i..i + n].to_string(),
                    line: tline,
                    col: tcol,
                });
                advance!(n);
            } else {
                // lifetime: ' followed by an identifier
                let mut j = i + 1;
                while j < bytes.len() && is_ident_continue(bytes[j]) {
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokKind::Lifetime,
                    text: src[i + 1..j].to_string(),
                    line: tline,
                    col: tcol,
                });
                advance!(j - i);
            }
            continue;
        }

        // Identifier / keyword (incl. `_` and raw identifiers r#ident).
        if is_ident_start(bytes[i]) {
            let mut j = i + 1;
            while j < bytes.len() && is_ident_continue(bytes[j]) {
                j += 1;
            }
            out.tokens.push(Token {
                kind: TokKind::Ident,
                text: src[i..j].to_string(),
                line: tline,
                col: tcol,
            });
            advance!(j - i);
            continue;
        }

        // Number: digits, then an optional fraction (but not `..` ranges),
        // then any alphanumeric suffix/exponent characters.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'.' && bytes.get(j + 1) != Some(&b'.') {
                j += 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
            }
            out.tokens.push(Token {
                kind: TokKind::Num,
                text: src[i..j].to_string(),
                line: tline,
                col: tcol,
            });
            advance!(j - i);
            continue;
        }

        // Everything else: single punctuation character.
        out.tokens.push(Token {
            kind: TokKind::Punct,
            text: c.to_string(),
            line: tline,
            col: tcol,
        });
        advance!(c.len_utf8());
    }
    out
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic()
}

fn is_ident_continue(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Is `bytes[i..]` the start of a raw (byte) string literal?
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let rest = match bytes[i] {
        b'r' => &bytes[i + 1..],
        b'b' if bytes.get(i + 1) == Some(&b'r') => &bytes[i + 2..],
        _ => return false,
    };
    let hashes = rest.iter().take_while(|&&b| b == b'#').count();
    rest.get(hashes) == Some(&b'"')
}

/// If `bytes[i..]` (starting at `'`) is a char literal, its byte length.
/// Returns `None` for lifetimes.
fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if j >= bytes.len() {
        return None;
    }
    if bytes[j] == b'\\' {
        // escaped char: consume the escape then scan to the closing quote
        j += 2;
        while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
            j += 1;
        }
        return (bytes.get(j) == Some(&b'\'')).then_some(j + 1 - i);
    }
    if is_ident_start(bytes[j]) {
        // `'a` (lifetime) vs `'a'` (char): look one past the identifier
        let mut k = j + 1;
        while k < bytes.len() && is_ident_continue(bytes[k]) {
            k += 1;
        }
        return (bytes.get(k) == Some(&b'\'') && k == j + 1).then_some(k + 1 - i);
    }
    // any other single char, e.g. '.' or ' '
    let n = bytes[j..].iter().take_while(|&&b| b != b'\'').count();
    (bytes.get(j + n) == Some(&b'\'')).then_some(j + n + 1 - i)
}

/// Recognizes `lint:allow(a, b)` anywhere inside a line comment.
fn scan_suppression(comment: &str, line: u32, out: &mut Vec<Suppression>) {
    let Some(pos) = comment.find("lint:allow(") else {
        return;
    };
    let rest = &comment[pos + "lint:allow(".len()..];
    let Some(close) = rest.find(')') else {
        return;
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if !rules.is_empty() {
        out.push(Suppression { line, rules });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_strings_and_positions() {
        let lx = lex("let x = \"a{b\"; // lint:allow(L4)\nx.y()");
        let texts: Vec<&str> = lx.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["let", "x", "=", "a{b", ";", "x", ".", "y", "(", ")"]
        );
        assert_eq!(lx.tokens[5].line, 2);
        assert_eq!(lx.tokens[5].col, 1);
        assert_eq!(lx.suppressions.len(), 1);
        assert_eq!(lx.suppressions[0].rules, vec!["L4"]);
        assert_eq!(lx.comments.len(), 1);
        assert_eq!(
            (lx.comments[0].line, lx.comments[0].text.as_str()),
            (1, "lint:allow(L4)")
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lx = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<&Token> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<&Token> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn raw_strings_and_comments_do_not_leak_tokens() {
        let lx = lex("/* unwrap() */ let s = r#\"panic!(\"#; // .expect(\n");
        assert!(!lx.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(!lx.tokens.iter().any(|t| t.is_ident("expect")));
        // the raw string body is a single Str token
        assert!(lx
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "panic!("));
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let lx = lex("for i in 0..n { a[i] = 1.5e3; }");
        let nums: Vec<&str> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["0", "1.5e3"]);
    }
}
