//! `cargo run -p xtask -- <command>` — workspace task driver.
//!
//! Commands:
//!
//! - `lint [--json] [path]` — run apc-lint over the workspace (or an
//!   explicit root); exits nonzero when violations are found. With
//!   `--json`, emits one stable machine-readable object (schema:
//!   `root`, `count`, `findings[{rule, path, line, message, allowed}]`).
//! - `ci` — run the full tier-1 gate (release build, the workspace test
//!   suite, the root suite with the `parallel` feature, the apc-bignum
//!   and cambricon-p tests with the `parallel` feature, the bench bins
//!   with the `parallel` feature, the network bins,
//!   the perfbench benchmark and its self-tests, clippy with warnings denied, the workspace
//!   docs with broken intra-doc links denied, then lint) and print a
//!   one-line PASS/FAIL summary.
//! - `rules` — list the lint rules.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let mut json = false;
            let mut root = None;
            for arg in &args[1..] {
                if arg == "--json" {
                    json = true;
                } else if arg.starts_with('-') {
                    eprintln!("unknown lint flag `{arg}`");
                    return ExitCode::from(2);
                } else {
                    root = Some(PathBuf::from(arg));
                }
            }
            lint(root, json)
        }
        Some("ci") => ci(),
        Some("rules") => {
            for rule in xtask::RuleId::all() {
                println!("{rule}: {}", rule.summary());
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint [--json] [path] | ci | rules>");
            ExitCode::from(2)
        }
    }
}

fn lint(root: Option<PathBuf>, json: bool) -> ExitCode {
    let root = root.unwrap_or_else(xtask::default_workspace_root);
    match xtask::lint_tree(&root) {
        Ok(violations) if json => {
            println!("{}", render_json(&root, &violations));
            if violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(violations) if violations.is_empty() => {
            println!("apc-lint: clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            println!("apc-lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Renders findings as a single JSON object. The schema is stable:
/// `{"root":…,"count":N,"findings":[{"rule","path","line","message",
/// "allowed"}]}`. `allowed` is always `false` today — justified
/// `allow()` directives suppress findings before they are reported —
/// but the field keeps the schema forward-compatible with an audit
/// mode that surfaces suppressed findings too.
fn render_json(root: &std::path::Path, violations: &[xtask::Violation]) -> String {
    let mut out = String::from("{\"root\":\"");
    out.push_str(&json_escape(&root.display().to_string()));
    out.push_str("\",\"count\":");
    out.push_str(&violations.len().to_string());
    out.push_str(",\"findings\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":\"");
        out.push_str(&v.rule.to_string());
        out.push_str("\",\"path\":\"");
        out.push_str(&json_escape(&v.file.display().to_string()));
        out.push_str("\",\"line\":");
        out.push_str(&v.line.to_string());
        out.push_str(",\"message\":\"");
        out.push_str(&json_escape(&v.message));
        out.push_str("\",\"allowed\":false}");
    }
    out.push_str("]}");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Runs the tier-1 sequence — release build, the whole workspace's test
/// suite (every crate's unit and integration tests, the root gates
/// included), the root suite again with the `parallel` feature (so every
/// Device path runs under both dispatchers), the unit tests of apc-bignum
/// and cambricon-p with the `parallel` feature (the 8-worker arm of the
/// bignum `par` tests and the core kernels under chunk-parallel dispatch
/// run nowhere else), the bench binaries with the
/// `parallel` feature (`bench_json`'s parallel leg is built nowhere
/// else), the network crate's binaries (its server/client bins are not part of the root package's
/// build graph), the `perfbench` benchmark (a workspace of its own, so a
/// public-API change that breaks it fails here rather than at benchmark
/// time) and its self-tests (they call the wire codec and check the
/// workload, ledger and statistics code the benchmark reports with), clippy over every target and feature with warnings denied (it
/// carries the no-panic, no-timed-wait, unsafe and missing-docs rules,
/// so an unreasoned escape or a new warning fails here), the workspace
/// docs with broken intra-doc links denied (so a deleted item cannot
/// leave a dangling doc link), then in-process lint —
/// and prints a one-line summary.
/// Stops at the first failing step so the summary names the culprit.
fn ci() -> ExitCode {
    let steps: [(&str, &[&str]); 11] = [
        ("build", &["build", "--release"]),
        ("test(workspace)", &["test", "--workspace", "-q"]),
        ("build(parallel)", &["build", "--release", "--features", "parallel"]),
        ("test(parallel)", &["test", "-q", "--features", "parallel"]),
        (
            "test(core+bignum, parallel)",
            &["test", "-q", "-p", "apc-bignum", "-p", "cambricon-p", "--features", "parallel"],
        ),
        (
            "build(bench bins, parallel)",
            &["build", "--release", "-p", "apc-bench", "--bins", "--features", "parallel"],
        ),
        ("build(net bins)", &["build", "--release", "-p", "apc-net", "--bins"]),
        (
            "build(perfbench)",
            &["build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ),
        (
            "test(perfbench)",
            &["test", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ),
        (
            "clippy",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--all-features",
                "--",
                "-D",
                "warnings",
            ],
        ),
        ("doc", &["doc", "--workspace", "--no-deps"]),
    ];
    // Only rustdoc reads it: the doc step fails on a broken intra-doc
    // link or on public docs linking a private item, and doctests (which
    // run no link pass) are unaffected.
    let rustdocflags = "-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links";
    println!("ci: RUSTDOCFLAGS='{rustdocflags}' for every step");
    let root = xtask::default_workspace_root();
    for (name, cargo_args) in steps {
        println!("ci: cargo {}", cargo_args.join(" "));
        // From the root, so the relative perfbench manifest path resolves.
        match std::process::Command::new("cargo")
            .args(cargo_args)
            .env("RUSTDOCFLAGS", rustdocflags)
            .current_dir(&root)
            .status()
        {
            Ok(status) if status.success() => {}
            Ok(_) => {
                println!("ci: FAIL ({name})");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("ci: could not spawn cargo: {e}");
                println!("ci: FAIL ({name})");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("ci: apc-lint");
    match xtask::lint_tree(&root) {
        Ok(v) if v.is_empty() => {
            println!(
                "ci: PASS (build, test x {{workspace,parallel,core+bignum parallel}}, bench bins (parallel), net bins, perfbench (build, test), clippy, doc, lint)"
            );
            ExitCode::SUCCESS
        }
        Ok(v) => {
            for finding in &v {
                println!("{finding}");
            }
            println!("ci: FAIL (lint, {} violation(s))", v.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            println!("ci: FAIL (lint)");
            ExitCode::FAILURE
        }
    }
}
