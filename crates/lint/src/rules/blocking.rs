//! Rule 1: **blocking_in_loop** — nothing reachable from the
//! readiness-loop thread may block.
//!
//! Roots are every non-test fn in the configured root files (the
//! netloop event handlers, the codec pump, the timer wheel). From each
//! root a depth-limited DFS follows name-resolved calls through the
//! configured domain crates; closure bodies handed to
//! `submit`/`spawn` were already excluded by the extractor because
//! they run on the worker pool, not the loop thread.

use std::collections::HashSet;

use crate::model::{CallSite, FnModel};
use crate::{Finding, LintConfig, Workspace, RULE_BLOCKING};

const MAX_DEPTH: usize = 12;

/// Call names that block wherever they appear.
const BLOCKING_NAMES: &[&str] = &[
    "sleep",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "connect",
    "read_to_end",
    "read_to_string",
    "read_line",
    // A resolver lookup (getaddrinfo) can stall for the resolver's full
    // timeout on one unresolvable name.
    "to_socket_addrs",
];

pub fn check(ws: &Workspace, cfg: &LintConfig, out: &mut Vec<Finding>) {
    let mut seen: HashSet<(usize, u32)> = HashSet::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !cfg
            .blocking_roots
            .iter()
            .any(|r| file.rel.ends_with(r.as_str()))
        {
            continue;
        }
        for (fj, f) in file.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let mut visited = HashSet::new();
            let mut path = vec![f.name.clone()];
            dfs(ws, cfg, (fi, fj), &mut visited, &mut path, &mut seen, out);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    ws: &Workspace,
    cfg: &LintConfig,
    at: (usize, usize),
    visited: &mut HashSet<(usize, usize)>,
    path: &mut Vec<String>,
    seen: &mut HashSet<(usize, u32)>,
    out: &mut Vec<Finding>,
) {
    if !visited.insert(at) || path.len() > MAX_DEPTH {
        return;
    }
    let file = &ws.files[at.0];
    let f = &file.fns[at.1];
    report_sites(file, f, at.0, cfg, path, seen, out);
    for call in &f.calls {
        let Some(next) = ws.resolve_call(call, at.0, &cfg.blocking_domain) else {
            continue;
        };
        if ws.files[next.0].fns[next.1].is_test {
            continue;
        }
        path.push(call.name.clone());
        dfs(ws, cfg, next, visited, path, seen, out);
        path.pop();
    }
}

fn report_sites(
    file: &crate::model::FileModel,
    f: &FnModel,
    fi: usize,
    cfg: &LintConfig,
    path: &[String],
    seen: &mut HashSet<(usize, u32)>,
    out: &mut Vec<Finding>,
) {
    for call in &f.calls {
        let Some(desc) = blocking_call(call) else {
            continue;
        };
        emit(file, fi, call.line, &desc, path, cfg, seen, out);
    }
    for lock in &f.locks {
        if cfg.denied_lock_classes.contains(&lock.class) {
            let desc = format!("acquires denied lock class `{}`", lock.class);
            emit(file, fi, lock.line, &desc, path, cfg, seen, out);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn emit(
    file: &crate::model::FileModel,
    fi: usize,
    line: u32,
    desc: &str,
    path: &[String],
    _cfg: &LintConfig,
    seen: &mut HashSet<(usize, u32)>,
    out: &mut Vec<Finding>,
) {
    if file.lexed.allowed(RULE_BLOCKING, line) {
        return;
    }
    if !seen.insert((fi, line)) {
        return;
    }
    out.push(Finding {
        rule: RULE_BLOCKING,
        file: file.rel.clone(),
        line,
        message: format!(
            "{desc}, reachable from the readiness loop via {}",
            path.join(" -> ")
        ),
    });
}

/// Is this call blocking on its face?
fn blocking_call(call: &CallSite) -> Option<String> {
    if BLOCKING_NAMES.contains(&call.name.as_str()) {
        return Some(format!("calls blocking `{}`", qualified(call)));
    }
    // `handle.join()` blocks; `parts.join(", ")` does not — arity
    // tells them apart.
    if call.method && call.name == "join" && call.zero_arg {
        return Some("calls blocking `.join()`".to_string());
    }
    // std::fs::* / fs::* / File::* — filesystem IO.
    if call.path.iter().any(|s| s == "fs" || s == "File") {
        return Some(format!("calls filesystem op `{}`", qualified(call)));
    }
    // Socket read/write with a buffer argument on the connection
    // stream (or its reader/writer halves). The loop's streams are
    // nonblocking by construction, so legitimate sites carry an allow
    // with that reason.
    const SOCKET_RECVS: &[&str] = &["stream", "sock", "socket", "reader", "writer"];
    if call.method
        && (call.name == "read" || call.name == "write")
        && call
            .recv
            .as_deref()
            .is_some_and(|r| SOCKET_RECVS.contains(&r))
    {
        return Some(format!("socket `{}` on the loop thread", qualified(call)));
    }
    None
}

fn qualified(call: &CallSite) -> String {
    if call.path.is_empty() {
        if call.method {
            format!(".{}()", call.name)
        } else {
            format!("{}()", call.name)
        }
    } else {
        format!("{}()", call.path.join("::"))
    }
}
