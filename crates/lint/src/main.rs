//! `indaas-lint` — run the workspace invariant checker.
//!
//! ```text
//! indaas-lint [--root <dir>] [--report <file>]
//! ```
//!
//! Exits 0 on a clean workspace, 1 with findings on stdout (and in the
//! report file, when asked) otherwise. CI runs this on every build and
//! uploads the report.

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use indaas_lint::{run, LintConfig, KNOWN_RULES};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut report: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--report" => report = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("usage: indaas-lint [--root <dir>] [--report <file>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("indaas-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| {
        // When run via `cargo run -p indaas-lint` the manifest dir is
        // crates/lint; the workspace root is two levels up.
        std::env::var_os("CARGO_MANIFEST_DIR")
            .map(|d| PathBuf::from(d).join("../.."))
            .unwrap_or_else(|| PathBuf::from("."))
    });
    let cfg = LintConfig::workspace(root);

    let findings = match run(&cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("indaas-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    let mut text = String::new();
    for f in &findings {
        text.push_str(&f.to_string());
        text.push('\n');
    }
    print!("{text}");
    let verdict = format!(
        "indaas-lint: {} finding{} across {} rules\n",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
        KNOWN_RULES.len()
    );
    print!("{verdict}");
    if let Some(path) = report {
        let write = std::fs::File::create(&path).and_then(|mut f| {
            f.write_all(text.as_bytes())?;
            f.write_all(verdict.as_bytes())
        });
        if let Err(e) = write {
            eprintln!("indaas-lint: cannot write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
