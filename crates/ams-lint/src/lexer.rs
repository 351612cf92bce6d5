//! A hand-rolled Rust lexer, just deep enough to be trustworthy.
//!
//! The rules in this crate reason about *token* streams, never raw text:
//! a `unwrap()` inside a string literal, a `{` inside a nested block
//! comment, or a `// SAFETY:` inside a raw string must not confuse them.
//! That requires getting the genuinely tricky parts of Rust's lexical
//! grammar right:
//!
//! * raw strings (`r"…"`, `r#"…"#`, any hash depth) and raw identifiers
//!   (`r#type`),
//! * byte strings / byte chars (`b"…"`, `br#"…"#`, `b'x'`),
//! * **nested** block comments (`/* /* */ */` — Rust nests, C does not),
//! * the `'a` lifetime vs `'a'` char-literal ambiguity (including
//!   escapes like `'\''` and `'\u{1F600}'`),
//! * multi-line strings and comments (line numbers must stay exact —
//!   findings are reported as clickable `file:line`).
//!
//! Everything else (numbers, idents, punctuation) is deliberately
//! simple: the rules only ever match idents and single-char puncts.

/// What a token is. Literal *contents* are discarded — no rule cares —
/// but the kind matters: an `Ident("unwrap")` fires rules, a
/// `Str` containing the word "unwrap" must not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `fn`, `unsafe`, `r#type`, …).
    Ident,
    /// `'a`, `'static`, `'_` — a lifetime or loop label.
    Lifetime,
    /// String / raw-string / byte-string literal.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal.
    Num,
    /// A single punctuation character (`{`, `[`, `+`, …).
    Punct,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    /// The token text. For `Str`/`Char` this is empty — string contents
    /// are irrelevant to every rule and dropping them keeps memory flat.
    /// `Num` keeps its digits (no rule reads them; they keep a literal
    /// printable).
    pub text: String,
    /// 1-indexed source line of the token's first character.
    pub line: u32,
}

/// One comment (line or block). Block comments may span lines.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-indexed first line.
    pub line_start: u32,
    /// 1-indexed last line (== `line_start` for line comments).
    pub line_end: u32,
    /// Comment text without the `//` / `/*` framing, trimmed.
    pub text: String,
}

/// The lexed form of one source file.
#[derive(Debug)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Scanner<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn ident_tail(&mut self, start: usize) -> &'a str {
        while matches!(self.peek(0), Some(b) if b == b'_' || b.is_ascii_alphanumeric()) {
            self.pos += 1;
        }
        // Idents are ASCII in this workspace; lossy is fine for anything
        // exotic (it would simply never match a rule pattern).
        std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("")
    }

    /// Consume a quoted run terminated by `"` with `hashes` trailing `#`s
    /// (0 for ordinary strings). Escapes are honored only when
    /// `hashes == 0 && escapes` (raw strings have none).
    fn string_body(&mut self, hashes: usize, escapes: bool) {
        while let Some(b) = self.bump() {
            match b {
                b'\\' if escapes => {
                    self.bump();
                }
                b'"' => {
                    let mut seen = 0;
                    while seen < hashes && self.peek(0) == Some(b'#') {
                        self.pos += 1;
                        seen += 1;
                    }
                    if seen == hashes {
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    /// After an opening `'` known to start a char/byte-char literal.
    fn char_body(&mut self) {
        match self.bump() {
            Some(b'\\') => {
                self.bump(); // the escaped char ('\'' and '\\' included)
                while let Some(b) = self.bump() {
                    if b == b'\'' {
                        return;
                    }
                }
            }
            Some(b'\'') => {} // the empty (invalid) literal '' — just move on
            Some(_) => {
                // Possibly multi-byte UTF-8; eat until the closing quote.
                while let Some(b) = self.bump() {
                    if b == b'\'' {
                        return;
                    }
                }
            }
            None => {}
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic()
}

/// Lex one file. Never fails: unterminated literals simply run to EOF,
/// which is the forgiving behavior a lint wants (rustc will reject the
/// file anyway; the lint must not panic before it does).
pub fn lex(src: &str) -> Lexed {
    let mut s = Scanner {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut tokens = Vec::new();
    let mut comments = Vec::new();

    while let Some(b) = s.peek(0) {
        let line = s.line;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                s.bump();
            }
            b'/' if s.peek(1) == Some(b'/') => {
                let start = s.pos + 2;
                while matches!(s.peek(0), Some(c) if c != b'\n') {
                    s.pos += 1;
                }
                let text = std::str::from_utf8(&s.src[start..s.pos]).unwrap_or("");
                comments.push(Comment {
                    line_start: line,
                    line_end: line,
                    text: text.trim_start_matches(['/', '!']).trim().to_string(),
                });
            }
            b'/' if s.peek(1) == Some(b'*') => {
                // Nested block comment: depth-counted, unlike C.
                s.bump();
                s.bump();
                let start = s.pos;
                let mut depth = 1usize;
                let mut end = s.pos;
                while depth > 0 {
                    match (s.peek(0), s.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            s.bump();
                            s.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            end = s.pos;
                            s.bump();
                            s.bump();
                        }
                        (Some(_), _) => {
                            s.bump();
                            end = s.pos;
                        }
                        (None, _) => break,
                    }
                }
                let text = std::str::from_utf8(&s.src[start..end.min(s.src.len())]).unwrap_or("");
                comments.push(Comment {
                    line_start: line,
                    line_end: s.line,
                    text: text.trim_matches(['*', '!', ' ', '\n']).trim().to_string(),
                });
            }
            b'"' => {
                s.bump();
                s.string_body(0, true);
                tokens.push(Token {
                    kind: TokKind::Str,
                    text: String::new(),
                    line,
                });
            }
            b'\'' => {
                // Lifetime vs char literal. After the quote:
                //   '\…         → char (escape)
                //   'x'         → char (ident-start then a closing quote)
                //   'a, 'static → lifetime (ident-start, no closing quote)
                //   anything else (e.g. '(', '∞') → char
                s.bump();
                match (s.peek(0), s.peek(1)) {
                    (Some(c0), Some(b'\'')) if is_ident_start(c0) => {
                        s.bump();
                        s.bump();
                        tokens.push(Token {
                            kind: TokKind::Char,
                            text: String::new(),
                            line,
                        });
                    }
                    (Some(c0), _) if is_ident_start(c0) => {
                        let start = s.pos;
                        let name = s.ident_tail(start).to_string();
                        tokens.push(Token {
                            kind: TokKind::Lifetime,
                            text: name,
                            line,
                        });
                    }
                    _ => {
                        s.char_body();
                        tokens.push(Token {
                            kind: TokKind::Char,
                            text: String::new(),
                            line,
                        });
                    }
                }
            }
            b'0'..=b'9' => {
                let start = s.pos;
                s.pos += 1;
                loop {
                    match s.peek(0) {
                        Some(c) if c == b'_' || c.is_ascii_alphanumeric() => s.pos += 1,
                        // `1.5` continues the number; `1..n` does not.
                        Some(b'.') if matches!(s.peek(1), Some(d) if d.is_ascii_digit()) => {
                            s.pos += 1
                        }
                        _ => break,
                    }
                }
                // Numeric text is kept, though no rule reads it.
                tokens.push(Token {
                    kind: TokKind::Num,
                    text: std::str::from_utf8(&s.src[start..s.pos])
                        .unwrap_or("")
                        .to_string(),
                    line,
                });
            }
            _ if is_ident_start(b) => {
                // r"…" / r#"…"# raw strings, r#ident raw idents,
                // b"…" / b'…' / br#"…"# byte forms — all start like idents.
                let start = s.pos;
                if (b == b'r' || b == b'b') && raw_or_byte_literal(&mut s, b) {
                    tokens.push(Token {
                        kind: if b == b'b' && matches!(s.src.get(start + 1), Some(b'\'')) {
                            TokKind::Char
                        } else {
                            TokKind::Str
                        },
                        text: String::new(),
                        line,
                    });
                    continue;
                }
                if b == b'r'
                    && s.peek(1) == Some(b'#')
                    && matches!(s.peek(2), Some(c) if is_ident_start(c))
                {
                    // Raw identifier r#type: token text keeps the bare name.
                    s.pos += 2;
                    let inner = s.pos;
                    let name = s.ident_tail(inner).to_string();
                    tokens.push(Token {
                        kind: TokKind::Ident,
                        text: name,
                        line,
                    });
                    continue;
                }
                let name = s.ident_tail(start).to_string();
                tokens.push(Token {
                    kind: TokKind::Ident,
                    text: name,
                    line,
                });
            }
            _ => {
                s.bump();
                tokens.push(Token {
                    kind: TokKind::Punct,
                    text: (b as char).to_string(),
                    line,
                });
            }
        }
    }
    Lexed { tokens, comments }
}

/// If the scanner sits on `r`/`b` opening a string-ish literal, consume
/// it fully and return true; otherwise consume nothing.
fn raw_or_byte_literal(s: &mut Scanner, first: u8) -> bool {
    // Work out the prefix shape without consuming.
    let mut i = 1;
    let mut raw = first == b'r';
    if first == b'b' {
        match s.peek(1) {
            Some(b'\'') => {
                // b'x' byte char.
                s.pos += 2;
                s.char_body();
                return true;
            }
            Some(b'r') => {
                raw = true;
                i = 2;
            }
            Some(b'"') => {
                s.pos += 2;
                s.string_body(0, true);
                return true;
            }
            _ => return false,
        }
    }
    if raw {
        let mut hashes = 0;
        while s.peek(i + hashes) == Some(b'#') {
            hashes += 1;
        }
        if s.peek(i + hashes) == Some(b'"') {
            for _ in 0..(i + hashes + 1) {
                s.bump();
            }
            s.string_body(hashes, false);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        // A naive scanner would see unwrap(), a comment, and braces here.
        let src = r####"let x = r#"foo.unwrap() // not a comment "quote" { "#; call();"####;
        let l = lex(src);
        assert_eq!(idents(src), vec!["let", "x", "call"]);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Str).count(),
            1
        );
        assert!(l.comments.is_empty(), "no comment inside a raw string");
        assert!(
            !l.tokens.iter().any(|t| t.text == "{"),
            "braces inside raw strings are not tokens"
        );
    }

    #[test]
    fn raw_strings_respect_hash_depth() {
        // r#"…"# must not close on a bare quote.
        let src = r###"r#"a "b" c"# ; tail"###;
        assert_eq!(idents(src), vec!["tail"]);
        // And hash depth 2.
        let src2 = "r##\"inner \"# still\"## ; after";
        assert_eq!(idents(src2), vec!["after"]);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = r##"let a = b"bytes.unwrap()"; let c = b'x'; let r = br#"raw { bytes"#; done()"##;
        assert_eq!(
            idents(src),
            vec!["let", "a", "let", "c", "let", "r", "done"]
        );
        let l = lex(src);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            1,
            "b'x' is one byte-char literal"
        );
    }

    #[test]
    fn block_comments_nest() {
        let src = "before /* outer /* inner */ still comment */ after";
        assert_eq!(idents(src), vec!["before", "after"]);
        let l = lex(src);
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner"));
    }

    #[test]
    fn unterminated_block_comment_swallows_to_eof_without_panicking() {
        let src = "a /* never closed\nb c";
        assert_eq!(idents(src), vec!["a"]);
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let src = "fn f<'a>(x: &'a str, c: char) { let y = 'a'; let z = '\\''; let n = '\\u{1F600}'; 'outer: loop { break 'outer; } }";
        let l = lex(src);
        let lifetimes: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a", "outer", "outer"]);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            3,
            "'a', '\\'' and '\\u{{1F600}}' are char literals"
        );
    }

    #[test]
    fn static_lifetime_and_underscore() {
        let src = "x: &'static str, y: &'_ u8";
        let l = lex(src);
        let lifetimes: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["static", "_"]);
    }

    #[test]
    fn macro_heavy_lines_keep_index_brackets_visible() {
        // vec![…] opens `[` after `!` (macro), a[0] opens `[` after an
        // ident (index) — the no-panic rule depends on that distinction
        // surviving the lexer.
        let src = "let v = vec![a[0], b[i + 1]]; assert_eq!(v[0], m::<T>()[1]);";
        let l = lex(src);
        let brackets: Vec<(usize, &str)> = l
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "[")
            .map(|(i, _)| (i, l.tokens[i - 1].text.as_str()))
            .collect();
        // Preceding tokens: `!` (vec!), `a`, `b`, `!` (assert_eq!… no —
        // assert_eq! opens `(`), `v`, `)`.
        let preceding: Vec<&str> = brackets.iter().map(|&(_, p)| p).collect();
        assert_eq!(preceding, vec!["!", "a", "b", "v", ")"]);
    }

    #[test]
    fn raw_identifiers_keep_their_bare_name() {
        let src = "let r#type = r#fn + regular;";
        assert_eq!(idents(src), vec!["let", "type", "fn", "regular"]);
    }

    #[test]
    fn line_numbers_survive_multiline_literals_and_comments() {
        let src = "a\n\"two\nlines\"\n/* c\nc */\nb";
        let l = lex(src);
        let a = l.tokens.iter().find(|t| t.text == "a").expect("token a");
        let b = l.tokens.iter().find(|t| t.text == "b").expect("token b");
        assert_eq!(a.line, 1);
        assert_eq!(b.line, 6);
        assert_eq!(l.comments[0].line_start, 4);
        assert_eq!(l.comments[0].line_end, 5);
    }

    #[test]
    fn doc_comment_text_is_trimmed_of_framing() {
        let l = lex("/// SAFETY: documented\nfn f() {}");
        assert_eq!(l.comments[0].text, "SAFETY: documented");
    }

    #[test]
    fn strings_with_escapes_do_not_leak_tokens() {
        let src = r#"let s = "escaped \" quote // not a comment"; next()"#;
        assert_eq!(idents(src), vec!["let", "s", "next"]);
        assert!(lex(src).comments.is_empty());
    }
}
