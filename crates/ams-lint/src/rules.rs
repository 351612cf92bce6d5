//! The rules. Each one is a pure function from a parsed [`SourceFile`]
//! to findings; scoping (which files, which regions) lives inside the
//! rule so `run_all` can stay a dumb loop. Semantics and rationale for
//! every rule are documented in `LINTS.md`.

use crate::lexer::TokKind;
use crate::{is_keyword, Finding, SourceFile};

pub fn run_all(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    no_panic(f, &mut out);
    safety_comment(f, &mut out);
    atomic_order(f, &mut out);
    lock_nesting(f, &mut out);
    forbid_unsafe(f, &mut out);
    out
}

fn push(out: &mut Vec<Finding>, f: &SourceFile, line: u32, rule: &'static str, message: String) {
    out.push(Finding {
        file: f.path.clone(),
        line,
        rule,
        message,
    });
}

/// Macros that abort the process (or can) — banned inside no-panic
/// zones. `debug_assert!` is deliberately not listed: it compiles out
/// of release builds, which is what production serves.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// rule `no-panic` — inside `begin(no-panic)` … `end(no-panic)`
/// regions, ban `.unwrap()` / `.expect(…)`, aborting macros, and slice
/// indexing (`x[i]` can panic; `x.get(i)` cannot).
fn no_panic(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.zones.is_empty() {
        return;
    }
    for (i, t) in f.tokens.iter().enumerate() {
        if !f.in_zone(t.line) || f.allowed("no-panic", t.line) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| f.tokens.get(p));
        let next = f.tokens.get(i + 1);
        match t.kind {
            TokKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                let is_method_call =
                    prev.is_some_and(|p| p.text == ".") && next.is_some_and(|n| n.text == "(");
                if is_method_call {
                    push(
                        out,
                        f,
                        t.line,
                        "no-panic",
                        format!(
                            ".{}() in a no-panic zone — handle the error or allow with a reason",
                            t.text
                        ),
                    );
                }
            }
            TokKind::Ident
                if PANIC_MACROS.contains(&t.text.as_str())
                    && next.is_some_and(|n| n.text == "!") =>
            {
                push(
                    out,
                    f,
                    t.line,
                    "no-panic",
                    format!("{}! in a no-panic zone", t.text),
                );
            }
            TokKind::Punct if t.text == "[" => {
                // `expr[...]` indexes (panics on out-of-range) exactly
                // when `[` follows a value: an ident (that isn't a
                // keyword), `]`, or `)`. Everything else — `#[attr]`,
                // `vec![…]`, `[T; N]` types, slice patterns — does not.
                let indexes = prev.is_some_and(|p| match p.kind {
                    TokKind::Ident => !is_keyword(&p.text),
                    TokKind::Punct => p.text == "]" || p.text == ")",
                    _ => false,
                });
                if indexes {
                    push(
                        out,
                        f,
                        t.line,
                        "no-panic",
                        "slice/array indexing in a no-panic zone — use .get(..) or allow with a bounds argument"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// rule `safety-comment` — every `unsafe` keyword (block, fn, impl)
/// needs "SAFETY" in an adjacent comment: trailing on the same line, or
/// in the contiguous comment block immediately above. One shared
/// comment cannot cover two impls — adjacency is per site.
fn safety_comment(f: &SourceFile, out: &mut Vec<Finding>) {
    for t in &f.tokens {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if f.allowed("safety-comment", t.line) {
            continue;
        }
        if !f.evidence(t.line).contains("SAFETY") {
            push(
                out,
                f,
                t.line,
                "safety-comment",
                "`unsafe` without an adjacent `// SAFETY:` comment stating why this is sound"
                    .to_string(),
            );
        }
    }
}

/// Atomic fields whose orderings carry the completion-slot / weight-swap
/// protocols, and the methods that read or write them.
const ATOMIC_FIELDS: &[&str] = &["seq", "head", "tail", "state", "generation"];
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
];
const ORDERING_WORDS: &[&str] = &[
    "Acquire", "Release", "AcqRel", "Relaxed", "SeqCst", "ordering", "Ordering",
];

/// rule `atomic-order` — under `ams-serve/src/obs/` (no lock-free
/// protocol is left there; the scope keeps any new one audited), in
/// `completion.rs` (ticket slots), and in `adapt.rs` (the
/// generation-counted weight-swap cell), every atomic op on
/// `seq`/`head`/`tail`/`state`/`generation` needs an adjacent comment
/// justifying its memory ordering (it must name the ordering or say
/// "ordering"). These protocols are the only lock-free code in the
/// workspace; each fence choice is load-bearing.
fn atomic_order(f: &SourceFile, out: &mut Vec<Finding>) {
    let in_scope = f.path.contains("ams-serve/src/obs/")
        || (f.path.contains("ams-serve") && matches!(f.basename(), "completion.rs" | "adapt.rs"));
    if !in_scope {
        return;
    }
    for i in 0..f.tokens.len() {
        let w = |k: usize| f.tokens.get(i + k);
        let matches_site = w(0).is_some_and(|t| t.text == ".")
            && w(1).is_some_and(|t| {
                t.kind == TokKind::Ident && ATOMIC_FIELDS.contains(&t.text.as_str())
            })
            && w(2).is_some_and(|t| t.text == ".")
            && w(3)
                .is_some_and(|t| t.kind == TokKind::Ident && ATOMIC_OPS.contains(&t.text.as_str()))
            && w(4).is_some_and(|t| t.text == "(");
        if !matches_site {
            continue;
        }
        // A site split across lines (`if self` / `.state` /
        // `.compare_exchange(…)`) may carry its comment above any of:
        // the receiver, the field, or the op — check all three lines.
        let recv_line = i.checked_sub(1).map(|p| f.tokens[p].line);
        let field_line = f.tokens[i + 1].line;
        let op_line = f.tokens[i + 3].line;
        let lines = [recv_line.unwrap_or(field_line), field_line, op_line];
        if lines.iter().any(|&l| f.allowed("atomic-order", l)) {
            continue;
        }
        let ev: String = {
            let mut seen = Vec::new();
            let mut acc = String::new();
            for &l in &lines {
                if !seen.contains(&l) {
                    seen.push(l);
                    acc.push_str(&f.evidence(l));
                }
            }
            acc
        };
        if !ORDERING_WORDS.iter().any(|w| ev.contains(w)) {
            push(
                out,
                f,
                op_line,
                "atomic-order",
                format!(
                    ".{}.{}(…) without an adjacent comment justifying its memory ordering",
                    f.tokens[i + 1].text,
                    f.tokens[i + 3].text
                ),
            );
        }
    }
}

/// rule `lock-nesting` — in `cache.rs`, never acquire a stripe lock
/// while already holding one: stripe locks are leaf locks, and nesting
/// two (hash collision → same stripe) would self-deadlock. An
/// acquisition is any `….lock(` on a line that names `stripe`/`stripes`.
/// A guard is released by scope exit, an explicit `drop(guard)`, or —
/// for un-bound temporaries — the end of its statement.
fn lock_nesting(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.basename() != "cache.rs" {
        return;
    }
    struct Held {
        depth: i32,
        name: Option<String>,
    }
    let mut depth = 0i32;
    let mut held: Vec<Held> = Vec::new();
    for (i, t) in f.tokens.iter().enumerate() {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => depth += 1,
            (TokKind::Punct, "}") => {
                depth -= 1;
                held.retain(|h| h.depth <= depth);
            }
            (TokKind::Punct, ";") => {
                // Statement end releases temporaries acquired at this depth.
                held.retain(|h| h.name.is_some() || h.depth != depth);
            }
            // drop(guard)
            (TokKind::Ident, "drop") if f.tokens.get(i + 1).is_some_and(|t| t.text == "(") => {
                if let Some(arg) = f.tokens.get(i + 2) {
                    held.retain(|h| h.name.as_deref() != Some(arg.text.as_str()));
                }
            }
            (TokKind::Ident, "lock") => {
                let is_call = i > 0
                    && f.tokens[i - 1].text == "."
                    && f.tokens.get(i + 1).is_some_and(|t| t.text == "(");
                if !is_call {
                    continue;
                }
                // Only stripe locks count: the receiver chain on this
                // line must mention stripe/stripes.
                let on_line = |tok: &crate::lexer::Token| tok.line == t.line;
                let line_toks: Vec<&crate::lexer::Token> =
                    f.tokens.iter().filter(|tok| on_line(tok)).collect();
                let is_stripe = line_toks.iter().any(|tok| {
                    tok.kind == TokKind::Ident && (tok.text == "stripe" || tok.text == "stripes")
                });
                if !is_stripe {
                    continue;
                }
                if f.allowed("lock-nesting", t.line) {
                    continue;
                }
                if !held.is_empty() {
                    push(
                        out,
                        f,
                        t.line,
                        "lock-nesting",
                        "stripe lock acquired while another stripe guard is live — same-stripe nesting self-deadlocks"
                            .to_string(),
                    );
                }
                // `let [mut] name = … .lock(…)` binds a named guard.
                let name = line_toks
                    .iter()
                    .position(|tok| tok.text == "let")
                    .and_then(|p| {
                        let mut q = p + 1;
                        if line_toks.get(q).is_some_and(|tok| tok.text == "mut") {
                            q += 1;
                        }
                        line_toks
                            .get(q)
                            .filter(|tok| tok.kind == TokKind::Ident)
                            .map(|tok| tok.text.clone())
                    });
                held.push(Held { depth, name });
            }
            _ => {}
        }
    }
}

/// rule `forbid-unsafe` — every crate root must carry
/// `#![forbid(unsafe_code)]`, so "no unsafe in any library crate" is
/// enforced by rustc, not by review.
fn forbid_unsafe(f: &SourceFile, out: &mut Vec<Finding>) {
    let parts: Vec<&str> = f.path.split('/').collect();
    let is_crate_root =
        parts.len() == 4 && parts[0] == "crates" && parts[2] == "src" && parts[3] == "lib.rs";
    if !is_crate_root {
        return;
    }
    let has_forbid = f.tokens.windows(4).any(|w| {
        w[0].text == "forbid" && w[1].text == "(" && w[2].text == "unsafe_code" && w[3].text == ")"
    });
    if !has_forbid && !f.allowed("forbid-unsafe", 1) {
        push(
            out,
            f,
            1,
            "forbid-unsafe",
            format!(
                "crate {} contains no unsafe and must declare #![forbid(unsafe_code)]",
                parts[1]
            ),
        );
    }
}
