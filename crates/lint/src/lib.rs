//! `indaas-lint`: a workspace invariant checker that audits the daemon
//! the way the daemon audits deployments.
//!
//! INDaaS exists because hidden shared dependencies turn "redundant"
//! systems into correlated-failure bombs. The daemon grew exactly such
//! couplings of its own: one blocking call reachable from the readiness
//! loop stalls every connection, one out-of-order shard-lock
//! acquisition deadlocks ingest, one drifting fault-point or metric
//! name silently disarms chaos tests and CI scrape gates. This crate
//! turns the paper's auditing mindset inward with a zero-dependency
//! static pass over the workspace source.
//!
//! Five rules:
//!
//! * **blocking_in_loop** — from the readiness-loop roots
//!   (`netloop.rs` event handlers, the codec pump, timer callbacks),
//!   no reachable call may block: `thread::sleep`, `std::fs::*`,
//!   socket read/write, `recv` on channels, or `Mutex`/`RwLock`
//!   acquisition of the scheduler/DB lock classes.
//! * **lock_order** — lock-acquisition nesting must be cycle-free
//!   across crates, and repeated same-class (shard) acquisition must
//!   carry ascending-order evidence (a `sort*` call or the
//!   `debug_assert!(.. windows ..)` discipline from the sharded DB).
//! * **registry_consistency** — every fault-point and telemetry-name
//!   string must be declared exactly once in a central registry module
//!   (`indaas_faultinj::points`, `indaas_service::names`) and
//!   referenced from it; stringly-typed drift is a finding.
//! * **panic_path** — `unwrap`/`expect`/`panic!`/array-indexing in
//!   non-test daemon code (`crates/service`, `crates/netpoll`) requires
//!   an allow-comment.
//! * **test_only_pub** — every `pub` item of a library crate must be
//!   named by something other than unit tests: non-test code, an
//!   example, the benchmark, or an integration test.
//!
//! The first four rules are suppressed at a site with
//! `// lint:allow(<rule>) -- <reason>`; an allow without a reason is
//! itself a finding, and so is one naming `test_only_pub`, which has no
//! suppression.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod model;
pub mod rules;

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use model::FileModel;

pub const RULE_BLOCKING: &str = "blocking_in_loop";
pub const RULE_LOCK_ORDER: &str = "lock_order";
pub const RULE_REGISTRY: &str = "registry_consistency";
pub const RULE_PANIC: &str = "panic_path";
pub const RULE_TEST_ONLY: &str = "test_only_pub";
pub const RULE_ANNOTATION: &str = "annotation";

pub const KNOWN_RULES: &[&str] = &[
    RULE_BLOCKING,
    RULE_LOCK_ORDER,
    RULE_REGISTRY,
    RULE_PANIC,
    RULE_TEST_ONLY,
];

#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Everything the rules need to know about where to look. The default
/// describes the real workspace; the golden-fixture tests build their
/// own pointed at a seeded mini-workspace.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root (the directory holding `Cargo.toml`).
    pub root: PathBuf,
    /// Directories under `root` to scan for `.rs` files.
    pub scan_dirs: Vec<String>,
    /// Path substrings to skip entirely (vendored stand-ins, build
    /// output, the lint's own seeded fixtures).
    pub skip_substrings: Vec<String>,
    /// Files whose non-test fns are readiness-loop roots
    /// (workspace-relative path suffixes).
    pub blocking_roots: Vec<String>,
    /// Crates the blocking-reachability traversal may enter.
    pub blocking_domain: Vec<String>,
    /// Crate-qualified lock classes that count as blocking when
    /// acquired on the loop thread (`service::queue`, `deps::write`).
    pub denied_lock_classes: Vec<String>,
    /// Registry modules (workspace-relative paths) that *declare*
    /// fault-point and metric-name constants.
    pub registry_files: Vec<String>,
    /// Literal prefixes that mark a string as a fault-point name.
    pub fault_point_prefixes: Vec<String>,
    /// Path prefixes under which the panic-path rule applies.
    pub panic_dirs: Vec<String>,
    /// Directories under `root`, besides `scan_dirs`, whose code counts
    /// as a caller of a `pub` item: examples, integration tests and the
    /// benchmark. No other rule looks at them.
    pub caller_dirs: Vec<String>,
}

impl LintConfig {
    pub fn workspace(root: impl Into<PathBuf>) -> LintConfig {
        LintConfig {
            root: root.into(),
            scan_dirs: vec!["crates".into(), "src".into()],
            skip_substrings: vec![
                "vendor/".into(),
                "target/".into(),
                // The linter does not lint itself: its docs and
                // fixtures are full of deliberately-violating text.
                "crates/lint/".into(),
            ],
            blocking_roots: vec![
                "crates/service/src/netloop.rs".into(),
                "crates/service/src/codec.rs".into(),
                "crates/netpoll/src/timer.rs".into(),
            ],
            blocking_domain: vec![
                "service".into(),
                "netpoll".into(),
                "deps".into(),
                "faultinj".into(),
                "obs".into(),
            ],
            denied_lock_classes: vec![
                "service::queue".into(),
                "service::workers".into(),
                "deps::write".into(),
                "deps::shards".into(),
            ],
            registry_files: vec![
                "crates/faultinj/src/points.rs".into(),
                "crates/service/src/names.rs".into(),
            ],
            fault_point_prefixes: vec!["svc.".into(), "fed.".into(), "db.".into(), "sched.".into()],
            panic_dirs: vec!["crates/service/src".into(), "crates/netpoll/src".into()],
            caller_dirs: vec![
                "tests".into(),
                "examples".into(),
                "bench_pipeline/src".into(),
            ],
        }
    }
}

/// Method names that belong to std containers/iterators/sync types: a
/// method call with one of these names on anything but `self` is
/// assumed to be the std method, never a project fn of the same name.
const STD_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "clear",
    "drain",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "collect",
    "clone",
    "extend",
    "take",
    "replace",
    "entry",
    "keys",
    "values",
    "first",
    "last",
    "retain",
    "truncate",
    "swap",
    "append",
    "split_off",
    "reserve",
    "sort",
    "sort_unstable",
    "min",
    "max",
    "count",
    "sum",
    "fold",
    "map",
    "filter",
    "find",
    "position",
    "any",
    "all",
    "flush",
    "wait",
    "read",
    "write",
    "send",
    "recv",
    "lock",
    "try_lock",
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "join",
    "expect",
    "unwrap",
    "ok",
    "err",
    "as_ref",
    "as_mut",
    "to_string",
    "to_vec",
    "parse",
    "new",
    "default",
    "record",
    "inc",
    "dec",
    "set",
    "add",
];

/// The modeled workspace: every scanned file plus a name→fn index used
/// for call resolution.
pub struct Workspace {
    pub files: Vec<FileModel>,
    /// Files under `caller_dirs`, read only for the names they use.
    pub callers: Vec<FileModel>,
    /// fn name → (file idx, fn idx), non-test fns only.
    pub fn_index: HashMap<String, Vec<(usize, usize)>>,
}

impl Workspace {
    pub fn load(cfg: &LintConfig) -> std::io::Result<Workspace> {
        let files = load_files(cfg, &cfg.scan_dirs)?;
        let callers = load_files(cfg, &cfg.caller_dirs)?;
        let mut fn_index: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (fj, f) in file.fns.iter().enumerate() {
                if !f.is_test {
                    fn_index.entry(f.name.clone()).or_default().push((fi, fj));
                }
            }
        }
        Ok(Workspace {
            files,
            callers,
            fn_index,
        })
    }

    /// Resolve a call site, refusing std-library method names unless
    /// invoked on `self` — `map.len()` must never resolve to a local
    /// `fn len`. The traversals prefer missing an edge to inventing
    /// one.
    pub fn resolve_call(
        &self,
        call: &model::CallSite,
        from_file: usize,
        domain: &[String],
    ) -> Option<(usize, usize)> {
        if call.method
            && call.recv.as_deref() != Some("self")
            && STD_METHODS.contains(&call.name.as_str())
        {
            return None;
        }
        self.resolve(&call.name, from_file, domain)
    }

    /// Resolve a call by name: same-file definitions win; otherwise a
    /// unique definition within `domain` crates. Ambiguous names
    /// (`new`, `len`, ...) resolve to nothing — the traversals prefer
    /// missing an edge to inventing one.
    pub fn resolve(
        &self,
        name: &str,
        from_file: usize,
        domain: &[String],
    ) -> Option<(usize, usize)> {
        let cands = self.fn_index.get(name)?;
        if let Some(&hit) = cands.iter().find(|&&(fi, _)| fi == from_file) {
            return Some(hit);
        }
        let in_domain: Vec<&(usize, usize)> = cands
            .iter()
            .filter(|&&(fi, _)| domain.is_empty() || domain.contains(&self.files[fi].crate_name))
            .collect();
        if in_domain.len() == 1 {
            Some(*in_domain[0])
        } else {
            None
        }
    }
}

/// Model every `.rs` file under `dirs`, sorted by path, minus skipped
/// ones.
fn load_files(cfg: &LintConfig, dirs: &[String]) -> std::io::Result<Vec<FileModel>> {
    let mut paths = Vec::new();
    for dir in dirs {
        collect_rs(&cfg.root.join(dir), &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(&cfg.root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        if cfg.skip_substrings.iter().any(|s| rel.contains(s.as_str())) {
            continue;
        }
        let src = std::fs::read_to_string(&p)?;
        files.push(FileModel::build(&rel, &src));
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run every rule; findings come back sorted by (file, line).
pub fn run(cfg: &LintConfig) -> std::io::Result<Vec<Finding>> {
    let ws = Workspace::load(cfg)?;
    let mut findings = Vec::new();
    rules::blocking::check(&ws, cfg, &mut findings);
    rules::lockorder::check(&ws, cfg, &mut findings);
    rules::registry::check(&ws, cfg, &mut findings);
    rules::panicpath::check(&ws, cfg, &mut findings);
    rules::testonly::check(&ws, &mut findings);
    annotation_hygiene(&ws, &mut findings);
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    Ok(findings)
}

/// Every `lint:allow` must name a known rule and carry a reason.
fn annotation_hygiene(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        for ann in &file.lexed.allows {
            if ann.rule == RULE_TEST_ONLY {
                out.push(Finding {
                    rule: RULE_ANNOTATION,
                    file: file.rel.clone(),
                    line: ann.comment_line,
                    message: format!(
                        "`{RULE_TEST_ONLY}` cannot be allowed — delete the item, narrow its \
                         visibility, or move it under `#[cfg(test)]`"
                    ),
                });
            } else if !KNOWN_RULES.contains(&ann.rule.as_str()) {
                out.push(Finding {
                    rule: RULE_ANNOTATION,
                    file: file.rel.clone(),
                    line: ann.comment_line,
                    message: format!(
                        "lint:allow names unknown rule `{}` (known: {})",
                        ann.rule,
                        KNOWN_RULES.join(", ")
                    ),
                });
            }
            if ann.reason.is_empty() {
                out.push(Finding {
                    rule: RULE_ANNOTATION,
                    file: file.rel.clone(),
                    line: ann.comment_line,
                    message: format!(
                        "lint:allow({}) has no reason — write `-- <why this is safe>`",
                        ann.rule
                    ),
                });
            }
        }
    }
}
