//! Structural scanner: turns a token stream into the shallow item model
//! the rules need — functions (with their impl context), enums
//! (with variant lists), and which token ranges are test-only code.
//!
//! This is *not* a parser. It walks the token stream once, tracking item
//! headers and balanced delimiters, and deliberately ignores everything the
//! rules don't ask about (expressions, types, patterns). Test code —
//! `#[cfg(test)]` modules and `#[test]`/`#[cfg(test)]` functions — is
//! recorded as opaque token ranges so every rule can cheaply skip it.

use crate::lexer::{lex, LineComment, Suppression, Token};

/// One scanned function item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    /// Inside `#[cfg(test)]` scope or marked `#[test]`.
    pub is_test: bool,
    /// `Some("Foo")` when declared in `impl Foo` or `impl Trait for Foo`.
    pub impl_type: Option<String>,
    /// `Some("Trait")` when declared in `impl Trait for Foo` or in
    /// `trait Trait { ... }` (as a provided default method).
    pub impl_trait: Option<String>,
    /// Source line of the `fn` keyword.
    pub line: u32,
    /// Column of the `fn` keyword.
    pub col: u32,
    /// Token index range of the body *between* the braces
    /// (`body.0..body.1`); `None` for bodyless trait method declarations.
    pub body: Option<(usize, usize)>,
}

/// One scanned enum with its variant names.
#[derive(Debug, Clone)]
pub struct EnumInfo {
    pub name: String,
    pub variants: Vec<String>,
    pub line: u32,
}

/// The per-file model every rule runs against.
#[derive(Debug)]
pub struct FileModel {
    /// Path as supplied to the driver (kept verbatim for diagnostics).
    pub path: String,
    /// Source split into lines, for diagnostic snippets.
    pub lines: Vec<String>,
    pub tokens: Vec<Token>,
    pub suppressions: Vec<Suppression>,
    /// Every `//` line comment, in source order.
    pub comments: Vec<LineComment>,
    pub fns: Vec<FnInfo>,
    pub enums: Vec<EnumInfo>,
    /// Token index ranges (exclusive end) that belong to test-only code.
    test_ranges: Vec<(usize, usize)>,
}

impl FileModel {
    /// Builds the model for one source file.
    pub fn build(path: &str, src: &str) -> FileModel {
        let lexed = lex(src);
        let mut model = FileModel {
            path: path.to_string(),
            lines: src.lines().map(str::to_string).collect(),
            tokens: lexed.tokens,
            suppressions: lexed.suppressions,
            comments: lexed.comments,
            fns: Vec::new(),
            enums: Vec::new(),
            test_ranges: Vec::new(),
        };
        let end = model.tokens.len();
        let mut scanner = Scanner { model: &mut model };
        scanner.scan_items(0, end, &Ctx::default());
        model
    }

    /// Is token index `i` inside test-only code?
    pub fn tok_in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| s <= i && i < e)
    }

    /// The `// SAFETY:` comment that ends on the line above `line`: the
    /// text from `SAFETY:` to the end of the unbroken run of comment lines
    /// directly above, joined with spaces.
    pub fn safety_comment_above(&self, line: u32) -> Option<String> {
        let mut run: Vec<&str> = Vec::new();
        let mut at = line;
        while at > 1 {
            at -= 1;
            let Some(c) = self.comments.iter().find(|c| c.line == at) else {
                break;
            };
            run.push(&c.text);
            if c.text.starts_with("SAFETY:") {
                run.reverse();
                return Some(run.join(" "));
            }
        }
        None
    }

    /// Source line text (1-based), if present.
    pub fn line_text(&self, line: u32) -> Option<&str> {
        self.lines.get(line as usize - 1).map(String::as_str)
    }
}

/// Scope context inherited while descending into mod/impl/trait bodies.
#[derive(Debug, Clone, Default)]
struct Ctx {
    test: bool,
    impl_type: Option<String>,
    impl_trait: Option<String>,
}

struct Scanner<'m> {
    model: &'m mut FileModel,
}

impl Scanner<'_> {
    /// Scans `[start, end)` for items, recursing into mod/impl/trait
    /// bodies. Function bodies are consumed opaquely (closures and the odd
    /// nested fn are invisible to the item model by design).
    fn scan_items(&mut self, start: usize, end: usize, ctx: &Ctx) {
        let mut i = start;
        let mut attrs: Vec<String> = Vec::new();
        while i < end {
            let t = &self.model.tokens[i];
            if t.is_punct('#') {
                let (text, next) = self.consume_attr(i, end);
                attrs.push(text);
                i = next;
                continue;
            }
            if t.is_ident("mod") {
                i = self.item_mod(i, end, ctx, &attrs);
                attrs.clear();
                continue;
            }
            if t.is_ident("impl") {
                i = self.item_impl(i, end, ctx, &attrs);
                attrs.clear();
                continue;
            }
            if t.is_ident("trait") {
                i = self.item_trait(i, end, ctx, &attrs);
                attrs.clear();
                continue;
            }
            if t.is_ident("fn") {
                i = self.item_fn(i, end, ctx, &attrs);
                attrs.clear();
                continue;
            }
            if t.is_ident("enum") {
                i = self.item_enum(i, end, ctx, &attrs);
                attrs.clear();
                continue;
            }
            if t.is_punct('{') {
                // stray block (const initializer, etc.): skip opaquely
                i = self.skip_balanced(i, end, "{", "}");
                attrs.clear();
                continue;
            }
            if t.is_punct(';') {
                attrs.clear();
            }
            i += 1;
        }
    }

    /// Consumes `#[...]` / `#![...]` starting at `i`; returns (text, next).
    fn consume_attr(&self, i: usize, end: usize) -> (String, usize) {
        let mut j = i + 1;
        if j < end && self.model.tokens[j].is_punct('!') {
            j += 1;
        }
        if j >= end || !self.model.tokens[j].is_punct('[') {
            return (String::new(), i + 1);
        }
        let close = self.skip_balanced(j, end, "[", "]");
        let text: String = self.model.tokens[j..close]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        (text, close)
    }

    /// Given `tokens[i]` is the opening delimiter, returns the index one
    /// past its matching closer (or `end`).
    fn skip_balanced(&self, i: usize, end: usize, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            let t = &self.model.tokens[j];
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        end
    }

    fn find_punct(&self, mut i: usize, end: usize, c: char) -> Option<usize> {
        while i < end {
            if self.model.tokens[i].is_punct(c) {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    fn item_mod(&mut self, i: usize, end: usize, ctx: &Ctx, attrs: &[String]) -> usize {
        // `mod name ;` or `mod name { ... }`
        let Some(open) = self.find_mod_open(i, end) else {
            return i + 1;
        };
        let body_end = self.skip_balanced(open, end, "{", "}");
        let test = ctx.test || attrs_mark_test(attrs);
        if test {
            self.model.test_ranges.push((open, body_end));
        } else {
            let inner = Ctx {
                test: false,
                impl_type: None,
                impl_trait: None,
            };
            self.scan_items(open + 1, body_end - 1, &inner);
        }
        body_end
    }

    /// For `mod`, the body opener if inline (skips `mod name;`).
    fn find_mod_open(&self, i: usize, end: usize) -> Option<usize> {
        let mut j = i + 1;
        while j < end {
            let t = &self.model.tokens[j];
            if t.is_punct('{') {
                return Some(j);
            }
            if t.is_punct(';') {
                return None;
            }
            j += 1;
        }
        None
    }

    fn item_impl(&mut self, i: usize, end: usize, ctx: &Ctx, attrs: &[String]) -> usize {
        // impl [<...>] Path [for Path] [where ...] { ... }
        let mut j = i + 1;
        if j < end && self.model.tokens[j].is_punct('<') {
            j = self.skip_balanced(j, end, "<", ">");
        }
        let mut first_path_last: Option<String> = None;
        let mut second_path_last: Option<String> = None;
        let mut saw_for = false;
        while j < end {
            let t = &self.model.tokens[j];
            if t.is_punct('{') {
                break;
            }
            if t.is_ident("for") {
                saw_for = true;
                j += 1;
                continue;
            }
            if t.is_ident("where") {
                // skip the where clause up to the body brace
                j = match self.find_punct(j, end, '{') {
                    Some(b) => b,
                    None => return end,
                };
                break;
            }
            if t.is_punct('<') {
                j = self.skip_balanced(j, end, "<", ">");
                continue;
            }
            if crate::lexer::TokKind::Ident == t.kind && !t.is_ident("dyn") {
                let slot = if saw_for {
                    &mut second_path_last
                } else {
                    &mut first_path_last
                };
                *slot = Some(t.text.clone());
            }
            j += 1;
        }
        if j >= end || !self.model.tokens[j].is_punct('{') {
            return j;
        }
        let body_end = self.skip_balanced(j, end, "{", "}");
        let test = ctx.test || attrs_mark_test(attrs);
        if test {
            self.model.test_ranges.push((j, body_end));
            return body_end;
        }
        let (impl_type, impl_trait) = if saw_for {
            (second_path_last, first_path_last)
        } else {
            (first_path_last, None)
        };
        let inner = Ctx {
            test: false,
            impl_type,
            impl_trait,
        };
        self.scan_items(j + 1, body_end - 1, &inner);
        body_end
    }

    fn item_trait(&mut self, i: usize, end: usize, ctx: &Ctx, attrs: &[String]) -> usize {
        let name = self
            .model
            .tokens
            .get(i + 1)
            .and_then(|t| (t.kind == crate::lexer::TokKind::Ident).then(|| t.text.clone()));
        let Some(open) = self.find_punct(i, end, '{') else {
            return i + 1;
        };
        let body_end = self.skip_balanced(open, end, "{", "}");
        let test = ctx.test || attrs_mark_test(attrs);
        if test {
            self.model.test_ranges.push((open, body_end));
            return body_end;
        }
        let inner = Ctx {
            test: false,
            impl_type: None,
            impl_trait: name,
        };
        self.scan_items(open + 1, body_end - 1, &inner);
        body_end
    }

    fn item_fn(&mut self, i: usize, end: usize, ctx: &Ctx, attrs: &[String]) -> usize {
        let toks = &self.model.tokens;
        let Some(name_tok) = toks.get(i + 1) else {
            return i + 1;
        };
        let name = name_tok.text.clone();
        let (line, col) = (toks[i].line, toks[i].col);
        // optional generics between name and the parameter list
        let mut j = i + 2;
        if j < end && toks[j].is_punct('<') {
            j = self.skip_balanced(j, end, "<", ">");
        }
        if j >= end || !toks[j].is_punct('(') {
            return i + 1;
        }
        let params_end = self.skip_balanced(j, end, "(", ")");
        // body opens at the first `{` before any `;` (bodyless decl)
        let mut k = params_end;
        let mut body = None;
        while k < end {
            let t = &self.model.tokens[k];
            if t.is_punct('{') {
                let body_end = self.skip_balanced(k, end, "{", "}");
                body = Some((k + 1, body_end - 1));
                k = body_end;
                break;
            }
            if t.is_punct(';') {
                k += 1;
                break;
            }
            if t.is_punct('<') {
                k = self.skip_balanced(k, end, "<", ">");
                continue;
            }
            k += 1;
        }
        let is_test = ctx.test || attrs_mark_test(attrs);
        if is_test {
            if let Some((s, e)) = body {
                self.model.test_ranges.push((s, e));
            }
        }
        self.model.fns.push(FnInfo {
            name,
            is_test,
            impl_type: ctx.impl_type.clone(),
            impl_trait: ctx.impl_trait.clone(),
            line,
            col,
            body,
        });
        k
    }

    fn item_enum(&mut self, i: usize, end: usize, ctx: &Ctx, attrs: &[String]) -> usize {
        let toks = &self.model.tokens;
        let Some(name_tok) = toks.get(i + 1) else {
            return i + 1;
        };
        let name = name_tok.text.clone();
        let line = toks[i].line;
        let Some(open) = self.find_punct(i, end, '{') else {
            return i + 1;
        };
        let body_end = self.skip_balanced(open, end, "{", "}");
        if ctx.test || attrs_mark_test(attrs) {
            self.model.test_ranges.push((open, body_end));
            return body_end;
        }
        let mut variants = Vec::new();
        let mut j = open + 1;
        while j < body_end - 1 {
            let t = &self.model.tokens[j];
            if t.is_punct('#') {
                let (_, next) = self.consume_attr(j, body_end - 1);
                j = next;
                continue;
            }
            if t.kind == crate::lexer::TokKind::Ident {
                variants.push(t.text.clone());
                // skip payload / discriminant up to the next `,` at depth 0
                j += 1;
                while j < body_end - 1 {
                    let t = &self.model.tokens[j];
                    if t.is_punct(',') {
                        j += 1;
                        break;
                    }
                    if t.is_punct('(') {
                        j = self.skip_balanced(j, body_end - 1, "(", ")");
                    } else if t.is_punct('{') {
                        j = self.skip_balanced(j, body_end - 1, "{", "}");
                    } else {
                        j += 1;
                    }
                }
                continue;
            }
            j += 1;
        }
        self.model.enums.push(EnumInfo {
            name,
            variants,
            line,
        });
        body_end
    }
}

/// Does any collected attribute mark the item as test-only?
fn attrs_mark_test(attrs: &[String]) -> bool {
    // Attr text is the space-joined token spelling, e.g. "[ cfg ( test ) ]".
    // `cfg(not(test))` must NOT mark test code, so match the exact `cfg (
    // test` prefix rather than substring presence of both words.
    attrs.iter().any(|a| {
        let toks: Vec<&str> = a.split_whitespace().collect();
        toks == ["[", "test", "]"] || a.contains("cfg ( test")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
impl Foo {
    pub fn weight_mut(&mut self) -> &mut Param { &mut self.weight }
    fn read(&self) -> u32 { 0 }
}

impl Stage for Bar {
    fn shard_safe(&self) -> bool { true }
}

pub enum Stage {
    Linear(MaskedLinear),
    Fixed { inner: FixedStage },
    Plain,
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); }
}
"#;

    #[test]
    fn finds_fns_with_context() {
        let m = FileModel::build("x.rs", SRC);
        let wm = m.fns.iter().find(|f| f.name == "weight_mut").unwrap();
        assert_eq!(wm.impl_type.as_deref(), Some("Foo"));
        assert!(!wm.is_test);
        assert!(m.fns.iter().any(|f| f.name == "read"));
        let ss = m.fns.iter().find(|f| f.name == "shard_safe").unwrap();
        assert_eq!(ss.impl_type.as_deref(), Some("Bar"));
        assert_eq!(ss.impl_trait.as_deref(), Some("Stage"));
    }

    #[test]
    fn finds_enum_variants() {
        let m = FileModel::build("x.rs", SRC);
        let e = m.enums.iter().find(|e| e.name == "Stage").unwrap();
        assert_eq!(e.variants, vec!["Linear", "Fixed", "Plain"]);
    }

    #[test]
    fn test_mod_is_opaque() {
        let m = FileModel::build("x.rs", SRC);
        assert!(!m.fns.iter().any(|f| f.name == "t"));
        let unwrap_idx = m.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(m.tok_in_test(unwrap_idx));
    }

    #[test]
    fn cfg_test_fn_body_is_test_range() {
        let m = FileModel::build(
            "x.rs",
            "#[test]\nfn only_in_tests() { y.expect(\"boom\"); }\n",
        );
        let f = m.fns.iter().find(|f| f.name == "only_in_tests").unwrap();
        assert!(f.is_test);
        let idx = m.tokens.iter().position(|t| t.is_ident("expect")).unwrap();
        assert!(m.tok_in_test(idx));
    }
}
