//! Workspace-specific static analysis for the AMS repo.
//!
//! The workspace's correctness story — serve==serial equivalence,
//! exactly-once ticketing, ledger conservation, never-panic wire
//! decoding — rests on invariants that `rustc` and `clippy` cannot see:
//! *this* decode path must not panic, *this* atomic needs its ordering
//! argued in a comment.
//! This crate machine-checks them on every run of `scripts/check.sh`.
//!
//! Design constraints:
//!
//! * **Offline and dependency-free.** The analyzer gates everything
//!   else, so it must build before anything else does — no syn, no
//!   regex, no walkdir. A hand-rolled lexer ([`lexer`]) and brace-aware
//!   scope tracking are enough for every rule here.
//! * **Token-level, not text-level.** `unwrap()` inside a string
//!   literal or a nested block comment must not fire.
//! * **Every escape carries a reason.** `ams-lint: allow(rule) reason`
//!   with an empty reason is itself a finding.
//!
//! The rules and their exact semantics are documented in `LINTS.md` at
//! the repo root; the fixtures under `fixtures/` plus `--self-test`
//! prove each rule can fire.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod selftest;

use lexer::{Comment, TokKind, Token};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Rule identifiers, as they appear in findings and `allow(...)`.
pub const RULES: &[&str] = &[
    "no-panic",
    "safety-comment",
    "atomic-order",
    "lock-nesting",
    "forbid-unsafe",
    "directive",
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    pub fn render(&self) -> String {
        // file:line: prefix keeps the output clickable in editors & CI.
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The line span of one `fn` item.
#[derive(Debug)]
pub struct FnRange {
    /// Name of the function ("" for `fn`-pointer types that parse as
    /// bodyless items).
    pub name: String,
    /// Line holding the `fn` keyword (== signature line in this
    /// workspace's style).
    pub fn_line: u32,
    pub start_line: u32,
    pub end_line: u32,
}

/// A resolved `allow(rule)` escape: suppresses `rule` findings on
/// `start_line..=end_line`.
#[derive(Debug)]
pub struct Allow {
    pub rule: String,
    pub start_line: u32,
    pub end_line: u32,
}

/// A resolved `begin(no-panic)` … `end(no-panic)` region.
#[derive(Debug)]
pub struct Zone {
    pub start_line: u32,
    pub end_line: u32,
    pub label: String,
}

/// One lexed + scope-resolved source file, ready for rules to run over.
pub struct SourceFile {
    /// Repo-relative display path with `/` separators.
    pub path: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    pub fn_ranges: Vec<FnRange>,
    pub allows: Vec<Allow>,
    pub zones: Vec<Zone>,
    /// Lines that carry at least one token (directive placement needs
    /// to tell trailing comments from standalone ones).
    pub token_lines: BTreeSet<u32>,
    /// Malformed-directive findings produced during parsing.
    pub directive_findings: Vec<Finding>,
}

const DIRECTIVE_PREFIX: &str = "ams-lint:";

impl SourceFile {
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let lexed = lexer::lex(src);
        let token_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        let fn_ranges = compute_fn_ranges(&lexed.tokens);
        let mut f = SourceFile {
            path: path.to_string(),
            tokens: lexed.tokens,
            comments: lexed.comments,
            fn_ranges,
            allows: Vec::new(),
            zones: Vec::new(),
            token_lines,
            directive_findings: Vec::new(),
        };
        f.resolve_directives();
        f
    }

    pub fn basename(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    fn finding(&self, line: u32, rule: &'static str, message: String) -> Finding {
        Finding {
            file: self.path.clone(),
            line,
            rule,
            message,
        }
    }

    /// Is `rule` suppressed at `line` by an `allow` escape?
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.start_line <= line && line <= a.end_line)
    }

    /// Is `line` inside a `no-panic` zone?
    pub fn in_zone(&self, line: u32) -> bool {
        self.zones
            .iter()
            .any(|z| z.start_line <= line && line <= z.end_line)
    }

    /// Comment evidence visible from `line`: any comment starting on the
    /// line itself (trailing), plus the contiguous block of comment-only
    /// lines immediately above. Attribute lines, blank lines, or code
    /// break the chain — "adjacent" means adjacent.
    pub fn evidence(&self, line: u32) -> String {
        let mut out = String::new();
        for c in &self.comments {
            if c.line_start == line {
                out.push_str(&c.text);
                out.push('\n');
            }
        }
        let mut l = line.saturating_sub(1);
        while l > 0 && !self.token_lines.contains(&l) {
            let Some(c) = self.comments.iter().find(|c| c.line_end == l) else {
                break;
            };
            out.push_str(&c.text);
            out.push('\n');
            l = c.line_start.saturating_sub(1);
        }
        out
    }

    /// Parse `ams-lint:` comments into allows and zones, flagging
    /// malformed ones. Runs once from `parse`.
    fn resolve_directives(&mut self) {
        let mut open: Vec<(u32, String)> = Vec::new(); // (begin line, label)
        let comments: Vec<Comment> = self.comments.clone();
        for c in &comments {
            let Some(rest) = c.text.strip_prefix(DIRECTIVE_PREFIX) else {
                continue;
            };
            let rest = rest.trim();
            if let Some(args) = rest.strip_prefix("allow(") {
                match args.split_once(')') {
                    Some((rule, reason)) => {
                        let rule = rule.trim().to_string();
                        let reason = reason.trim();
                        if !RULES.contains(&rule.as_str()) {
                            self.directive_findings.push(self.finding(
                                c.line_start,
                                "directive",
                                format!(
                                    "allow names unknown rule `{rule}` (known: {})",
                                    RULES.join(", ")
                                ),
                            ));
                            continue;
                        }
                        if reason.is_empty() {
                            self.directive_findings.push(self.finding(
                                c.line_start,
                                "directive",
                                format!("allow({rule}) requires a reason after the closing paren"),
                            ));
                            continue;
                        }
                        match self.allow_span(c) {
                            Some((start, end)) => self.allows.push(Allow {
                                rule,
                                start_line: start,
                                end_line: end,
                            }),
                            None => self.directive_findings.push(self.finding(
                                c.line_start,
                                "directive",
                                format!("allow({rule}) does not precede any code"),
                            )),
                        }
                    }
                    None => self.directive_findings.push(self.finding(
                        c.line_start,
                        "directive",
                        "malformed allow: expected `allow(rule-id) reason`".to_string(),
                    )),
                }
            } else if let Some(args) = rest.strip_prefix("begin(") {
                match args.split_once(')') {
                    Some((name, label)) if name.trim() == "no-panic" => {
                        open.push((c.line_start, label.trim().to_string()));
                    }
                    Some((name, _)) => self.directive_findings.push(self.finding(
                        c.line_start,
                        "directive",
                        format!("unknown zone `{}` (only `no-panic` exists)", name.trim()),
                    )),
                    None => self.directive_findings.push(self.finding(
                        c.line_start,
                        "directive",
                        "malformed begin: expected `begin(no-panic) label`".to_string(),
                    )),
                }
            } else if let Some(args) = rest.strip_prefix("end(") {
                match args.split_once(')') {
                    Some((name, _)) if name.trim() == "no-panic" => match open.pop() {
                        Some((start, label)) => self.zones.push(Zone {
                            start_line: start,
                            end_line: c.line_start,
                            label,
                        }),
                        None => self.directive_findings.push(self.finding(
                            c.line_start,
                            "directive",
                            "end(no-panic) without a matching begin".to_string(),
                        )),
                    },
                    _ => self.directive_findings.push(self.finding(
                        c.line_start,
                        "directive",
                        "malformed end: expected `end(no-panic)`".to_string(),
                    )),
                }
            } else {
                self.directive_findings.push(self.finding(
                    c.line_start,
                    "directive",
                    format!("unrecognized directive `{rest}` (expected allow/begin/end)"),
                ));
            }
        }
        for (line, label) in open {
            self.directive_findings.push(self.finding(
                line,
                "directive",
                format!("begin(no-panic) {label} is never closed with end(no-panic)"),
            ));
        }
    }

    /// Which lines does an allow comment cover?
    /// * trailing on a code line → that line;
    /// * standalone, immediately before a `fn` signature → the whole fn;
    /// * standalone otherwise → the next token-bearing line.
    fn allow_span(&self, c: &Comment) -> Option<(u32, u32)> {
        if self.token_lines.contains(&c.line_start) {
            return Some((c.line_start, c.line_start));
        }
        let next = *self.token_lines.range(c.line_end + 1..).next()?;
        if let Some(f) = self.fn_ranges.iter().find(|f| f.fn_line == next) {
            return Some((f.start_line, f.end_line));
        }
        Some((next, next))
    }
}

/// Words that can precede `[` without it being an index expression
/// (`if let [a, b] = …`, `return [x]`, …).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Find every `fn` item's span: from the `fn` keyword to its matching
/// closing brace. Bodyless fns (trait methods, `fn`-pointer types,
/// which hit `;` before any body brace) are skipped.
fn compute_fn_ranges(tokens: &[Token]) -> Vec<FnRange> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.kind == TokKind::Ident && t.text == "fn") {
            continue;
        }
        let name = match tokens.get(i + 1) {
            Some(n) if n.kind == TokKind::Ident => n.text.clone(),
            _ => String::new(),
        };
        // Scan the signature: `(`/`[` nesting covers argument lists and
        // const-generic arrays; the first `{` or `;` at depth 0 decides.
        let mut depth = 0i32;
        let mut j = i + 1;
        let body_open = loop {
            let Some(tok) = tokens.get(j) else {
                break None;
            };
            match (tok.kind, tok.text.as_str()) {
                (TokKind::Punct, "(") | (TokKind::Punct, "[") => depth += 1,
                (TokKind::Punct, ")") | (TokKind::Punct, "]") => depth -= 1,
                (TokKind::Punct, ";") if depth == 0 => break None,
                (TokKind::Punct, "{") if depth == 0 => break Some(j),
                _ => {}
            }
            j += 1;
        };
        let Some(open) = body_open else { continue };
        let mut braces = 1i32;
        let mut k = open + 1;
        while braces > 0 {
            let Some(tok) = tokens.get(k) else {
                break;
            };
            match (tok.kind, tok.text.as_str()) {
                (TokKind::Punct, "{") => braces += 1,
                (TokKind::Punct, "}") => braces -= 1,
                _ => {}
            }
            if braces == 0 {
                break;
            }
            k += 1;
        }
        let end = k.min(tokens.len().saturating_sub(1));
        out.push(FnRange {
            name,
            fn_line: t.line,
            start_line: t.line,
            end_line: tokens.get(end).map(|t| t.line).unwrap_or(t.line),
        });
    }
    out
}

/// Analyze one file: parse, run every rule, fold in directive findings,
/// and return findings sorted by line.
pub fn analyze(path: &str, src: &str) -> Vec<Finding> {
    let file = SourceFile::parse(path, src);
    let mut findings = rules::run_all(&file);
    findings.extend(file.directive_findings.iter().cloned());
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Walk the workspace from `root` and analyze every first-party `.rs`
/// file (under `crates/`, `examples/`, `tests/`); `vendor/`, `target/`,
/// `.git/`, and lint `fixtures/` are excluded. Returns (findings,
/// number of files checked).
pub fn scan_root(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let mut files: Vec<String> = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        findings.extend(analyze(rel, &src));
    }
    findings
        .sort_by(|a, b| (a.file.clone(), a.line, a.rule).cmp(&(b.file.clone(), b.line, b.rule)));
    Ok((findings, files.len()))
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path: PathBuf = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if matches!(name.as_ref(), ".git" | "target" | "vendor" | "fixtures") {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel: Vec<String> = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect();
            let rel = rel.join("/");
            if rel.starts_with("crates/")
                || rel.starts_with("examples/")
                || rel.starts_with("tests/")
            {
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// Render findings as a JSON document (hand-rolled: no serde in the
/// gate's own dependency cone).
pub fn render_json(findings: &[Finding]) -> String {
    let mut s = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule,
            json_escape(&f.message)
        ));
    }
    s.push_str(&format!("],\"count\":{}}}", findings.len()));
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_ranges_nest_and_bodyless_are_skipped() {
        let src =
            "trait T { fn sig(&self); }\nfn outer() {\n  fn inner() { body(); }\n  tail();\n}\n";
        let f = SourceFile::parse("x.rs", src);
        let names: Vec<&str> = f.fn_ranges.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        // The inner fn's line span nests inside the outer one's.
        let span = |r: &FnRange| (r.start_line, r.end_line);
        let spans: Vec<_> = f.fn_ranges.iter().map(span).collect();
        assert_eq!(spans, vec![(2, 5), (3, 3)]);
    }

    #[test]
    fn trailing_allow_covers_only_its_line() {
        let src = "fn f() {\n  a(); // ams-lint: allow(no-panic) fine here\n  b();\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.directive_findings.is_empty());
        assert!(f.allowed("no-panic", 2));
        assert!(!f.allowed("no-panic", 3));
    }

    #[test]
    fn standalone_allow_covers_next_code_line() {
        let src = "fn f() {\n  // ams-lint: allow(no-panic) reason\n  a();\n  b();\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.allowed("no-panic", 3));
        assert!(!f.allowed("no-panic", 4));
    }

    #[test]
    fn allow_before_fn_covers_whole_body() {
        let src = "// ams-lint: allow(no-panic) test helper may panic\nfn f() {\n  a();\n  b();\n}\nfn g() { c(); }\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.allowed("no-panic", 3));
        assert!(f.allowed("no-panic", 4));
        assert!(!f.allowed("no-panic", 6));
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = "a(); // ams-lint: allow(no-panic)\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.directive_findings.len(), 1);
        assert_eq!(f.directive_findings[0].rule, "directive");
        assert!(f.allows.is_empty());
    }

    #[test]
    fn unknown_rule_in_allow_is_a_finding() {
        let src = "a(); // ams-lint: allow(no-such-rule) because\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.directive_findings.len(), 1);
    }

    #[test]
    fn zones_pair_up_and_unclosed_is_flagged() {
        let src = "// ams-lint: begin(no-panic) decode\na();\n// ams-lint: end(no-panic)\nb();\n// ams-lint: begin(no-panic) dangling\nc();\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.zones.len(), 1);
        assert!(f.in_zone(2));
        assert!(!f.in_zone(4));
        assert_eq!(f.directive_findings.len(), 1);
        assert!(f.directive_findings[0].message.contains("never closed"));
    }

    #[test]
    fn evidence_sees_trailing_and_contiguous_block_above() {
        let src = "// SAFETY: first\n// and second line\nx();\n\ny(); // SAFETY: trailing\nz();\n";
        let f = SourceFile::parse("x.rs", src);
        let ev = f.evidence(3);
        assert!(ev.contains("first") && ev.contains("second"));
        assert!(f.evidence(5).contains("trailing"));
        // The blank line at 4 breaks the chain for y's "above" search,
        // and z has nothing.
        assert!(f.evidence(6).is_empty());
    }

    #[test]
    fn json_escaping() {
        let f = vec![Finding {
            file: "a\"b.rs".to_string(),
            line: 3,
            rule: "no-panic",
            message: "line1\nline2\\x".to_string(),
        }];
        let j = render_json(&f);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("line1\\nline2\\\\x"));
        assert!(j.contains("\"count\":1"));
    }
}
