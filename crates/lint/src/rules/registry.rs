//! Rule 3: **registry_consistency** — fault-point and telemetry names
//! live in exactly one place.
//!
//! The registry modules (`crates/faultinj/src/points.rs`,
//! `crates/service/src/names.rs`) declare `pub const NAME: &str`
//! entries; everything else references the consts. Four checks:
//!
//! 1. a name declared more than once (within or across registries);
//! 2. a non-test string literal equal to a declared name outside the
//!    registries — the site must use the const;
//! 3. a string literal passed straight to a name-taking call
//!    (`point`, `arm`, `counter`, `gauge`, `histo`)
//!    outside the registries — declared or not, the name is drifting;
//! 4. a fault-point-shaped literal (`svc.…`, `fed.…`, `db.…`,
//!    `sched.…`) in non-test code that no registry declares.

use std::collections::HashMap;

use crate::{Finding, LintConfig, Workspace, RULE_REGISTRY};

/// Calls whose string argument is a fault-point or metric name.
const NAME_SINKS: &[&str] = &["point", "point_slow", "arm", "counter", "gauge", "histo"];

pub fn check(ws: &Workspace, cfg: &LintConfig, out: &mut Vec<Finding>) {
    // Declared name -> (registry file, line).
    let mut declared: HashMap<String, (String, u32)> = HashMap::new();
    for file in &ws.files {
        if !is_registry(cfg, &file.rel) {
            continue;
        }
        for c in &file.consts {
            if let Some((prev_file, prev_line)) = declared.get(&c.value) {
                out.push(Finding {
                    rule: RULE_REGISTRY,
                    file: file.rel.clone(),
                    line: c.line,
                    message: format!(
                        "`{}` (\"{}\") already declared at {prev_file}:{prev_line} — \
                         a name is declared exactly once",
                        c.ident, c.value
                    ),
                });
            } else {
                declared.insert(c.value.clone(), (file.rel.clone(), c.line));
            }
        }
    }

    for file in &ws.files {
        if is_registry(cfg, &file.rel) || file.crate_name == "lint" {
            continue;
        }
        for lit in &file.lits {
            if lit.in_test {
                continue;
            }
            if file.lexed.allowed(RULE_REGISTRY, lit.line) {
                continue;
            }
            if let Some((reg, _)) = declared.get(&lit.value) {
                out.push(Finding {
                    rule: RULE_REGISTRY,
                    file: file.rel.clone(),
                    line: lit.line,
                    message: format!(
                        "string literal \"{}\" duplicates a registry name — \
                         use the const from {reg}",
                        lit.value
                    ),
                });
                continue;
            }
            if lit.ctx.as_deref().is_some_and(|c| NAME_SINKS.contains(&c)) {
                out.push(Finding {
                    rule: RULE_REGISTRY,
                    file: file.rel.clone(),
                    line: lit.line,
                    message: format!(
                        "`{}(\"{}\")` takes a raw name — declare it in a registry module \
                         and pass the const",
                        lit.ctx.as_deref().unwrap_or(""),
                        lit.value
                    ),
                });
                continue;
            }
            if cfg
                .fault_point_prefixes
                .iter()
                .any(|p| lit.value.starts_with(p.as_str()))
                && lit.value.len() > 4
                && lit
                    .value
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b == b'.' || b == b'_')
            {
                out.push(Finding {
                    rule: RULE_REGISTRY,
                    file: file.rel.clone(),
                    line: lit.line,
                    message: format!(
                        "fault-point-shaped literal \"{}\" is not declared in any registry",
                        lit.value
                    ),
                });
            }
        }
    }
}

fn is_registry(cfg: &LintConfig, rel: &str) -> bool {
    cfg.registry_files.iter().any(|r| rel.ends_with(r.as_str()))
}
