//! Per-file extraction: functions, call sites, lock acquisitions,
//! panic sites, string literals and `pub const` declarations.
//!
//! This is deliberately a *model*, not an AST — a single forward walk
//! over the token stream with a little context (paren depth, brace
//! depth, loop scopes, `let`-bound lock guards). It is approximate in
//! the ways a lexer-level tool must be, and exact in the ways the
//! rules need: lines are right, string/comment text never leaks into
//! code matching, and closure bodies handed to `submit`/`spawn` are
//! excluded from the caller's call graph (they run on another thread).

use crate::lexer::{lex, Lexed, TokKind, Token};

/// How a panic can reach the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    Unwrap,
    Expect,
    /// `panic!`, `unreachable!`, `todo!`, `unimplemented!`.
    Macro,
    /// `x[i]` indexing without a `..` range inside the brackets.
    Index,
}

#[derive(Debug, Clone)]
pub struct PanicSite {
    pub kind: PanicKind,
    pub line: u32,
    /// The macro name or method name, for the report.
    pub what: String,
}

#[derive(Debug, Clone)]
pub struct CallSite {
    /// Final path segment (`sleep` for `thread::sleep`).
    pub name: String,
    /// Qualified path segments, including `name` last; empty for bare
    /// and method calls.
    pub path: Vec<String>,
    pub line: u32,
    pub method: bool,
    /// For method calls, the identifier immediately before the dot
    /// (`stream` in `stream.read(..)`), when it is a plain ident.
    pub recv: Option<String>,
    pub in_loop: bool,
    /// Name of the enclosing call whose argument list contains this
    /// call (`push` in `guards.push(self.lock_shard(i))`).
    pub ctx: Option<String>,
    /// `f()` with an empty argument list — distinguishes
    /// `handle.join()` (blocking) from `parts.join(", ")` (string op).
    pub zero_arg: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwRead,
    RwWrite,
}

#[derive(Debug, Clone)]
pub struct LockSite {
    /// Crate-qualified class, e.g. `deps::write`, `service::queue`.
    pub class: String,
    pub kind: LockKind,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub struct LitSite {
    pub value: String,
    pub line: u32,
    /// Enclosing call name, when the literal is a direct argument
    /// somewhere inside one (`counter` for `registry.counter("x")`).
    pub ctx: Option<String>,
    pub in_test: bool,
}

#[derive(Debug, Clone)]
pub struct ConstDecl {
    pub ident: String,
    pub value: String,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub struct FnModel {
    pub name: String,
    pub line: u32,
    pub is_test: bool,
    pub calls: Vec<CallSite>,
    pub locks: Vec<LockSite>,
    pub panics: Vec<PanicSite>,
    /// (held class, acquired class, line) nesting pairs.
    pub nest_pairs: Vec<(String, String, u32)>,
    /// (held class, index into `calls`): calls made while a lock is held.
    pub held_calls: Vec<(String, usize)>,
    /// Does the body carry ascending-order evidence (a `sort*` call or
    /// a `debug_assert!` over `windows`)? Used by the lock-order rule.
    pub ordering_evidence: bool,
}

#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// `service` for `crates/service/...`, `root` for `src/...`,
    /// `tests` for top-level tests.
    pub crate_name: String,
    pub lexed: Lexed,
    pub fns: Vec<FnModel>,
    pub consts: Vec<ConstDecl>,
    pub lits: Vec<LitSite>,
    /// Token ranges of `#[cfg(test)]` modules and test fns, from the
    /// test attribute to the closing brace.
    pub test_ranges: Vec<(usize, usize)>,
}

/// Calls whose closure arguments run on another thread: code inside
/// their parens is *not* part of the caller's synchronous path.
const DEFER_CALLS: &[&str] = &["submit", "spawn"];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        Some("src") => "root".to_string(),
        Some("tests") => "tests".to_string(),
        _ => "unknown".to_string(),
    }
}

pub fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/fixtures/")
}

impl FileModel {
    pub fn build(rel: &str, src: &str) -> FileModel {
        let lexed = lex(src);
        let crate_name = crate_of(rel);
        let file_test = is_test_path(rel);
        let mut fns = Vec::new();
        let mut consts = Vec::new();
        let mut test_ranges: Vec<(usize, usize)> = Vec::new();
        scan_items(
            &lexed.tokens,
            0,
            lexed.tokens.len(),
            file_test,
            &crate_name,
            &mut fns,
            &mut consts,
            &mut test_ranges,
        );
        let lits = collect_lits(&lexed.tokens, &test_ranges, file_test);
        FileModel {
            rel: rel.to_string(),
            crate_name,
            lexed,
            fns,
            consts,
            lits,
            test_ranges,
        }
    }
}

/// Walk a token range looking for items. `fn` bodies are handed to
/// [`extract_fn`] and skipped; `#[cfg(test)] mod` bodies recurse with
/// the test flag set; everything else is stepped through so items at
/// any nesting (impl blocks, modules) are found.
#[allow(clippy::too_many_arguments)]
fn scan_items(
    toks: &[Token],
    start: usize,
    end: usize,
    in_test: bool,
    crate_name: &str,
    fns: &mut Vec<FnModel>,
    consts: &mut Vec<ConstDecl>,
    test_ranges: &mut Vec<(usize, usize)>,
) {
    let mut i = start;
    let mut pending_test = false;
    // Where the pending test attribute starts: a test range covers the
    // item's signature too, not just its body.
    let mut test_attr = start;
    while i < end.min(toks.len()) {
        let t = &toks[i];
        // Attribute: #[...] — inspect for test markers, then skip.
        if t.is_punct(b'#') && toks.get(i + 1).is_some_and(|t| t.is_punct(b'[')) {
            let close = match_bracket(toks, i + 1, end, b'[', b']');
            let body = &toks[i + 2..close.min(toks.len())];
            let has_test = body.iter().any(|t| t.is_ident("test"));
            if has_test && !pending_test {
                pending_test = true;
                test_attr = i;
            }
            i = close.saturating_add(1);
            continue;
        }
        if t.is_ident("mod") && toks.get(i + 1).map(|t| t.kind.clone()) == Some(TokKind::Ident) {
            // `mod name { ... }` or `mod name;`
            if let Some(open) = find_at(toks, i + 2, end, b'{', b';') {
                if toks[open].is_punct(b'{') {
                    let close = match_bracket(toks, open, end, b'{', b'}');
                    let mod_test = in_test || pending_test;
                    if mod_test && !in_test {
                        test_ranges.push((test_attr, close));
                    }
                    scan_items(
                        toks,
                        open + 1,
                        close,
                        mod_test,
                        crate_name,
                        fns,
                        consts,
                        test_ranges,
                    );
                    pending_test = false;
                    i = close.saturating_add(1);
                    continue;
                }
            }
            pending_test = false;
            i += 2;
            continue;
        }
        if t.is_ident("fn") && toks.get(i + 1).map(|t| t.kind.clone()) == Some(TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            // Find the body `{` (or `;` for a bodiless decl), skipping
            // the signature: parens and angle brackets may nest.
            if let Some(open) = find_body_open(toks, i + 2, end) {
                let close = match_bracket(toks, open, end, b'{', b'}');
                let is_test = in_test || pending_test;
                if is_test && !in_test {
                    test_ranges.push((test_attr, close));
                }
                fns.push(extract_fn(
                    toks,
                    &name,
                    line,
                    open + 1,
                    close,
                    is_test,
                    crate_name,
                ));
                pending_test = false;
                i = close.saturating_add(1);
                continue;
            }
            pending_test = false;
            i += 2;
            continue;
        }
        if t.is_ident("const") && toks.get(i + 1).map(|t| t.kind.clone()) == Some(TokKind::Ident) {
            // `const NAME: &str = "value";` (pub handled by stepping).
            if let Some(decl) = parse_const_str(toks, i) {
                consts.push(decl);
            }
        }
        // `;` or `}` between an attribute and an item means the
        // attribute belonged to something we don't model; drop it.
        if t.is_punct(b';') || t.is_punct(b'}') {
            pending_test = false;
        }
        i += 1;
    }
}

/// From `start`, find the `{` opening a fn body, or None if a `;`
/// (bodiless declaration) comes first. Tracks paren/bracket depth so
/// braces in default generic args or where-clauses don't confuse it.
fn find_body_open(toks: &[Token], start: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = start;
    while i < end.min(toks.len()) {
        match toks[i].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b'{') if depth <= 0 => return Some(i),
            TokKind::Punct(b';') if depth <= 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Find the first of `want`/`alt` at any position from `start`.
fn find_at(toks: &[Token], start: usize, end: usize, want: u8, alt: u8) -> Option<usize> {
    (start..end.min(toks.len())).find(|&i| toks[i].is_punct(want) || toks[i].is_punct(alt))
}

/// Index of the matching close bracket for the open at `open`;
/// saturates to `end` when unbalanced (malformed input must not panic).
pub(crate) fn match_bracket(toks: &[Token], open: usize, end: usize, ob: u8, cb: u8) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end.min(toks.len()) {
        if toks[i].is_punct(ob) {
            depth += 1;
        } else if toks[i].is_punct(cb) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    end.min(toks.len())
}

fn parse_const_str(toks: &[Token], i: usize) -> Option<ConstDecl> {
    // const IDENT : & str = "value" ;
    let name = toks.get(i + 1)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    if !toks.get(i + 2)?.is_punct(b':') {
        return None;
    }
    if !toks.get(i + 3)?.is_punct(b'&') {
        return None;
    }
    if !toks.get(i + 4)?.is_ident("str") {
        return None;
    }
    if !toks.get(i + 5)?.is_punct(b'=') {
        return None;
    }
    let val = toks.get(i + 6)?;
    if val.kind != TokKind::Str {
        return None;
    }
    Some(ConstDecl {
        ident: name.text.clone(),
        value: val.text.clone(),
        line: name.line,
    })
}

struct Hold {
    var: String,
    class: String,
    brace_depth: i32,
}

/// One forward pass over a fn body.
#[allow(clippy::too_many_arguments)]
fn extract_fn(
    toks: &[Token],
    name: &str,
    line: u32,
    start: usize,
    end: usize,
    is_test: bool,
    crate_name: &str,
) -> FnModel {
    let end = end.min(toks.len());
    let mut f = FnModel {
        name: name.to_string(),
        line,
        is_test,
        calls: Vec::new(),
        locks: Vec::new(),
        panics: Vec::new(),
        nest_pairs: Vec::new(),
        held_calls: Vec::new(),
        ordering_evidence: false,
    };
    let mut paren_depth = 0i32;
    let mut brace_depth = 0i32;
    // Loop scopes: brace depth just inside each open loop body.
    let mut loop_scopes: Vec<i32> = Vec::new();
    let mut pending_loop = false;
    // Call-argument context: (callee name, paren depth at entry).
    let mut call_stack: Vec<(String, i32)> = Vec::new();
    // Token index where the current deferred (submit/spawn) region ends.
    let mut defer_end: usize = 0;
    let mut holds: Vec<Hold> = Vec::new();
    // `let`-bound variable of the statement being scanned, if simple.
    let mut stmt_let: Option<String> = None;
    let mut saw_debug_assert = false;
    let mut saw_windows = false;

    let mut j = start;
    while j < end {
        let t = &toks[j];
        let deferred = j < defer_end;
        match &t.kind {
            TokKind::Punct(b'(') => paren_depth += 1,
            TokKind::Punct(b')') => {
                paren_depth -= 1;
                while call_stack.last().is_some_and(|(_, d)| *d > paren_depth) {
                    call_stack.pop();
                }
            }
            TokKind::Punct(b'{') => {
                brace_depth += 1;
                if pending_loop && paren_depth == 0 {
                    loop_scopes.push(brace_depth);
                    pending_loop = false;
                }
            }
            TokKind::Punct(b'}') => {
                brace_depth -= 1;
                holds.retain(|h| h.brace_depth <= brace_depth);
                while loop_scopes.last().is_some_and(|d| *d > brace_depth) {
                    loop_scopes.pop();
                }
                stmt_let = None;
            }
            TokKind::Punct(b';') if paren_depth == 0 => {
                stmt_let = None;
                pending_loop = false;
            }
            TokKind::Punct(b'[') => {
                // Index-expression panic site: `x[i]` / `f()[0]` /
                // `m[k][v]` — never `#[attr]`, types, slice patterns.
                let prev_is_value = j > start
                    && match &toks[j - 1].kind {
                        // `for x in [..]`, `return [..]` etc. are array
                        // literals, not index expressions.
                        TokKind::Ident => !matches!(
                            toks[j - 1].text.as_str(),
                            "in" | "return"
                                | "else"
                                | "break"
                                | "match"
                                | "move"
                                | "as"
                                | "let"
                                | "mut"
                                | "ref"
                                | "if"
                                | "while"
                        ),
                        TokKind::Punct(b')') | TokKind::Punct(b']') => true,
                        _ => false,
                    };
                if prev_is_value {
                    let close = match_bracket(toks, j, end, b'[', b']');
                    let inner = &toks[j + 1..close.min(toks.len())];
                    let has_range = inner
                        .windows(2)
                        .any(|w| w[0].is_punct(b'.') && w[1].is_punct(b'.'));
                    if !inner.is_empty() && !has_range {
                        f.panics.push(PanicSite {
                            kind: PanicKind::Index,
                            line: t.line,
                            what: "[index]".to_string(),
                        });
                    }
                }
            }
            TokKind::Str => {}
            TokKind::Ident => {
                let text = t.text.as_str();
                if text == "debug_assert" {
                    saw_debug_assert = true;
                }
                if text == "windows" {
                    saw_windows = true;
                }
                if text.starts_with("sort") {
                    f.ordering_evidence = true;
                }
                match text {
                    "for" | "while" | "loop" => {
                        pending_loop = true;
                        j += 1;
                        continue;
                    }
                    "let" => {
                        // `let [mut] IDENT =` — only simple bindings
                        // participate in guard-hold tracking.
                        let mut k = j + 1;
                        if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                            k += 1;
                        }
                        // `let Some(g) = ...` / `let (a, b) = ...` are
                        // patterns, not simple bindings — skip those.
                        let pattern = toks.get(k + 1).is_some_and(|t| t.is_punct(b'('));
                        stmt_let = match toks.get(k) {
                            Some(t) if t.kind == TokKind::Ident && !pattern => Some(t.text.clone()),
                            _ => None,
                        };
                        j = k;
                        continue;
                    }
                    _ => {}
                }
                let next = toks.get(j + 1);
                // Macro invocation: name!(...) — only panic macros and
                // assertion evidence matter; args flow through the walk.
                if next.is_some_and(|t| t.is_punct(b'!')) {
                    if PANIC_MACROS.contains(&text) {
                        f.panics.push(PanicSite {
                            kind: PanicKind::Macro,
                            line: t.line,
                            what: format!("{text}!"),
                        });
                    }
                    j += 1;
                    continue;
                }
                // Call: name(...)
                if next.is_some_and(|t| t.is_punct(b'(')) && !is_decl_head(toks, j, start) {
                    let method = j > start && toks[j - 1].is_punct(b'.');
                    let path = if method {
                        Vec::new()
                    } else {
                        path_of(toks, j, start)
                    };
                    let recv = if method && j >= 2 {
                        match &toks[j - 2].kind {
                            TokKind::Ident => Some(toks[j - 2].text.clone()),
                            _ => None,
                        }
                    } else {
                        None
                    };
                    let ctx = call_stack.last().map(|(n, _)| n.clone());
                    let zero_arg = toks.get(j + 2).is_some_and(|t| t.is_punct(b')'));

                    // `drop(guard)` releases a held lock.
                    if !method && text == "drop" {
                        if let (Some(v), Some(c)) = (toks.get(j + 2), toks.get(j + 3)) {
                            if v.kind == TokKind::Ident && c.is_punct(b')') {
                                holds.retain(|h| h.var != v.text);
                            }
                        }
                    }

                    // Lock acquisition?
                    let lock_kind = if method && zero_arg {
                        match text {
                            "lock" | "try_lock" => Some(LockKind::Mutex),
                            "read" => Some(LockKind::RwRead),
                            "write" => Some(LockKind::RwWrite),
                            _ => None,
                        }
                    } else {
                        None
                    };
                    if !deferred {
                        if let Some(kind) = lock_kind {
                            let field = recv.clone().unwrap_or_else(|| "anon".to_string());
                            let class = format!("{crate_name}::{field}");
                            for h in &holds {
                                f.nest_pairs.push((h.class.clone(), class.clone(), t.line));
                            }
                            f.locks.push(LockSite {
                                class: class.clone(),
                                kind,
                                line: t.line,
                            });
                            // `let g = m.lock().expect(..)` binds a
                            // guard; `let r = m.lock().expect(..).op()`
                            // binds `op`'s result and drops the guard
                            // at statement end — only the former holds.
                            if guard_reaches_binding(toks, j + 1, end) {
                                if let Some(var) = stmt_let.take() {
                                    holds.push(Hold {
                                        var,
                                        class,
                                        brace_depth,
                                    });
                                }
                            }
                        } else {
                            for h in &holds {
                                f.held_calls.push((h.class.clone(), f.calls.len()));
                            }
                            f.calls.push(CallSite {
                                name: text.to_string(),
                                path,
                                line: t.line,
                                method,
                                recv,
                                in_loop: !loop_scopes.is_empty(),
                                ctx,
                                zero_arg,
                            });
                        }
                    }
                    // Panic-y method calls are tracked even in deferred
                    // regions — the closure still runs somewhere.
                    if method && text == "unwrap" && zero_arg {
                        f.panics.push(PanicSite {
                            kind: PanicKind::Unwrap,
                            line: t.line,
                            what: "unwrap()".to_string(),
                        });
                    }
                    if method && text == "expect" {
                        f.panics.push(PanicSite {
                            kind: PanicKind::Expect,
                            line: t.line,
                            what: "expect()".to_string(),
                        });
                    }
                    // Deferred region: closure args to submit/spawn run
                    // on another thread — exclude from this fn's graph.
                    if DEFER_CALLS.contains(&text) {
                        let close = match_bracket(toks, j + 1, end, b'(', b')');
                        defer_end = defer_end.max(close);
                    }
                    call_stack.push((text.to_string(), paren_depth + 1));
                }
            }
            _ => {}
        }
        j += 1;
    }
    if saw_debug_assert && saw_windows {
        f.ordering_evidence = true;
    }
    f
}

/// After a `.lock()` whose `(` sits at `open`: does the guard itself
/// reach the binding? Chains through the unwrap family keep the guard
/// (`.expect(..)`, `.unwrap()`, `.unwrap_or_else(..)`); any other
/// method chained on makes the lock a statement temporary.
fn guard_reaches_binding(toks: &[Token], open: usize, end: usize) -> bool {
    let mut k = match_bracket(toks, open, end, b'(', b')') + 1;
    loop {
        if !toks.get(k).is_some_and(|t| t.is_punct(b'.')) {
            return true;
        }
        let Some(name) = toks.get(k + 1) else {
            return true;
        };
        if name.kind != TokKind::Ident {
            return true;
        }
        let unwrapish = matches!(
            name.text.as_str(),
            "expect" | "unwrap" | "unwrap_or_else" | "unwrap_or" | "unwrap_or_default"
        );
        if !unwrapish {
            return false;
        }
        if !toks.get(k + 2).is_some_and(|t| t.is_punct(b'(')) {
            return true;
        }
        k = match_bracket(toks, k + 2, end, b'(', b')') + 1;
    }
}

/// Is the ident at `j` a declaration head (`fn name(`) rather than a
/// call? Looks one token back for `fn`.
fn is_decl_head(toks: &[Token], j: usize, start: usize) -> bool {
    j > start && toks[j - 1].is_ident("fn")
}

/// Qualified path ending at the ident `j`: `std::fs::write` →
/// `["std","fs","write"]`. Empty when unqualified.
fn path_of(toks: &[Token], j: usize, start: usize) -> Vec<String> {
    let mut segs = vec![toks[j].text.clone()];
    let mut k = j;
    while k >= start + 3
        && toks[k - 1].is_punct(b':')
        && toks[k - 2].is_punct(b':')
        && toks[k - 3].kind == TokKind::Ident
    {
        segs.push(toks[k - 3].text.clone());
        k -= 3;
    }
    if segs.len() == 1 {
        return Vec::new();
    }
    segs.reverse();
    segs
}

/// File-wide string-literal collection with call context and test
/// awareness (independent of fn extraction so top-level literals are
/// seen too).
fn collect_lits(toks: &[Token], test_ranges: &[(usize, usize)], file_test: bool) -> Vec<LitSite> {
    let mut out = Vec::new();
    let mut call_stack: Vec<(String, i32)> = Vec::new();
    let mut paren_depth = 0i32;
    for (i, t) in toks.iter().enumerate() {
        match &t.kind {
            TokKind::Punct(b'(') => paren_depth += 1,
            TokKind::Punct(b')') => {
                paren_depth -= 1;
                while call_stack.last().is_some_and(|(_, d)| *d > paren_depth) {
                    call_stack.pop();
                }
            }
            TokKind::Ident if toks.get(i + 1).is_some_and(|n| n.is_punct(b'(')) => {
                call_stack.push((t.text.clone(), paren_depth + 1));
            }
            TokKind::Str => {
                let in_test = file_test || test_ranges.iter().any(|&(s, e)| i > s && i < e);
                out.push(LitSite {
                    value: t.text.clone(),
                    line: t.line,
                    ctx: call_stack.last().map(|(n, _)| n.clone()),
                    in_test,
                });
            }
            _ => {}
        }
    }
    out
}
