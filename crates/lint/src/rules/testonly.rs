//! Rule 5: **test_only_pub** — nothing public that only its own tests
//! reach.
//!
//! Every `pub fn|struct|enum|trait|type|const|static` of a library
//! crate (`crates/*/src`, minus binaries and `main.rs`) must be named
//! somewhere that is not a unit test:
//!
//! * non-test code in the scanned dirs, its own file included — but not
//!   its own declaration, not (for a type) its own `impl Name` /
//!   `impl Trait for Name` blocks, and not a `pub use` re-export;
//! * anything under `caller_dirs` outside unit tests: examples, the
//!   benchmark, and integration test files, which drive the public API
//!   by design.
//!
//! `pub(crate)` items, fields and `pub mod` are not checked. A finding
//! is fixed by deleting the item, narrowing its visibility, or moving a
//! test oracle into its `#[cfg(test)]` module — not by a new caller in
//! a test, and not by an allow-comment (this rule has none).
//!
//! Matching is by name, over the whole workspace: an item whose name
//! collides with another identifier may be missed, but an item that is
//! used is never flagged.

use std::collections::HashSet;

use crate::lexer::{TokKind, Token};
use crate::model::{is_test_path, match_bracket, FileModel};
use crate::{Finding, Workspace, RULE_TEST_ONLY};

/// Item keywords whose next identifier is a declaration, not a use.
const DECL_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "union", "mod",
];

/// The item kinds this rule checks when declared `pub`.
const CHECKED: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    let mut uses: HashSet<&str> = HashSet::new();
    for file in ws.files.iter().chain(&ws.callers) {
        count_uses(file, &mut uses);
    }
    for file in ws.files.iter().filter(|f| in_scope(&f.rel)) {
        for (kind, name) in pub_items(file) {
            if uses.contains(name.text.as_str()) {
                continue;
            }
            out.push(Finding {
                rule: RULE_TEST_ONLY,
                file: file.rel.clone(),
                line: name.line,
                message: format!(
                    "`pub {kind} {}` has no caller outside unit tests — delete it, narrow \
                     its visibility, or move it into the `#[cfg(test)]` module",
                    name.text
                ),
            });
        }
    }
}

/// A library crate's source, not a binary's.
fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !rel.contains("/src/bin/")
        && !rel.ends_with("main.rs")
        && !is_test_path(rel)
}

fn in_tests(file: &FileModel, i: usize) -> bool {
    file.test_ranges.iter().any(|&(s, e)| i >= s && i <= e)
}

/// `(kind, name token)` of each `pub` item outside test code.
fn pub_items(file: &FileModel) -> Vec<(&'static str, &Token)> {
    let toks = &file.lexed.tokens;
    let mut items = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") || in_tests(file, i) {
            continue;
        }
        // Skip qualifiers: `pub const fn`, `pub unsafe fn`, `pub
        // extern "C" fn`, `pub static mut`.
        let mut k = i + 1;
        while let Some(q) = toks.get(k) {
            let qualifier = matches!(q.text.as_str(), "unsafe" | "async" | "extern" | "mut")
                || q.kind == TokKind::Str
                || (q.is_ident("const") && toks.get(k + 1).is_some_and(|n| n.is_ident("fn")));
            if !qualifier {
                break;
            }
            k += 1;
        }
        let (Some(kw), Some(name)) = (toks.get(k), toks.get(k + 1)) else {
            continue;
        };
        if kw.kind != TokKind::Ident || name.kind != TokKind::Ident {
            continue;
        }
        if let Some(kind) = CHECKED.iter().find(|&&c| kw.text == c) {
            items.push((*kind, name));
        }
    }
    items
}

/// Collect every identifier that names something from outside its own
/// declaration: unit tests, `pub use` lines and a type's own impl
/// blocks are skipped; in an integration test file everything counts.
fn count_uses<'a>(file: &'a FileModel, uses: &mut HashSet<&'a str>) {
    let toks = &file.lexed.tokens;
    let integration = is_test_path(&file.rel);
    let impls = own_impls(toks);
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if !integration && in_tests(file, i) {
            i += 1;
            continue;
        }
        if t.is_ident("pub") && reexport_at(toks, i) {
            // Skip the re-export, but `pub use a::X as Y;` still uses X
            // under the name callers see.
            while i < toks.len() && !toks[i].is_punct(b';') {
                if toks[i].is_ident("as") {
                    uses.insert(toks[i - 1].text.as_str());
                }
                i += 1;
            }
            continue;
        }
        match t.kind {
            TokKind::Ident => {
                let decl = i > 0
                    && DECL_KEYWORDS.contains(&toks[i - 1].text.as_str())
                    && toks[i - 1].kind == TokKind::Ident
                    && !(i > 1 && toks[i - 2].is_punct(b'*'));
                let own_impl = impls
                    .iter()
                    .any(|(name, s, e)| *name == t.text && i >= *s && i <= *e);
                if !decl && !own_impl {
                    uses.insert(t.text.as_str());
                }
            }
            // Inline format arguments: `"{NAME}"`, `"{name:>8}"`.
            TokKind::Str => {
                for arg in t.text.split('{').skip(1) {
                    let ident = arg.split(['}', ':']).next().unwrap_or("");
                    if !ident.is_empty()
                        && ident.chars().all(|c| c == '_' || c.is_ascii_alphanumeric())
                    {
                        uses.insert(ident);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// `pub use` or `pub(..) use` starting at `i`.
fn reexport_at(toks: &[Token], i: usize) -> bool {
    let mut k = i + 1;
    if toks.get(k).is_some_and(|t| t.is_punct(b'(')) {
        while toks.get(k).is_some_and(|t| !t.is_punct(b')')) {
            k += 1;
        }
        k += 1;
    }
    toks.get(k).is_some_and(|t| t.is_ident("use"))
}

/// `(self type name, first token, closing brace)` of every item-level
/// `impl` block.
fn own_impls(toks: &[Token]) -> Vec<(&str, usize, usize)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("impl") {
            continue;
        }
        // An item starts a statement; `-> impl Trait` and `x: impl Fn`
        // are types.
        let item = i == 0
            || toks[i - 1].is_ident("unsafe")
            || matches!(toks[i - 1].kind, TokKind::Punct(b';' | b'{' | b'}' | b']'));
        if !item {
            continue;
        }
        // The self type is the last top-level identifier before the body
        // (`impl<T> Trait<T> for Name<T> where ... {` → `Name`).
        let mut self_name: Option<&str> = None;
        let mut depth = 0i32;
        let mut k = i + 1;
        while let Some(t) = toks.get(k) {
            match t.kind {
                TokKind::Punct(b'<') => depth += 1,
                TokKind::Punct(b'>') if !toks[k - 1].is_punct(b'-') => depth -= 1,
                TokKind::Punct(b'{') if depth <= 0 => break,
                TokKind::Ident if depth <= 0 => match t.text.as_str() {
                    "where" => break,
                    "for" | "dyn" | "mut" => {}
                    name => self_name = Some(name),
                },
                _ => {}
            }
            k += 1;
        }
        if let Some(name) = self_name {
            out.push((name, i, match_bracket(toks, k, toks.len(), b'{', b'}')));
        }
    }
    out
}
