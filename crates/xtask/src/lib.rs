//! # apc-lint — the workspace's repo-specific static-analysis pass
//!
//! A zero-dependency (std-only) lint engine encoding the bit-exactness
//! contracts this reproduction depends on that rustc and clippy cannot
//! check. It is wired into tier-1 via `tests/lint_gate.rs`, so `cargo
//! test` fails on violations; it can also be run directly:
//!
//! ```text
//! cargo run -p xtask -- lint
//! ```
//!
//! ## Rules
//!
//! | id | check |
//! |----|-------|
//! | L3 | no bare `as` narrowing casts in `crates/bignum/src/nat/**` and `crates/core/src/**` |
//! | L4 | every `crates/core` public item cites a paper anchor (`§`, `Eq.`, `Fig.`) |
//! | L5 | Cargo.toml hygiene: workspace-inherited metadata, `lints.workspace`, no path deps escaping the workspace |
//! | L6 | no `RefCell`/`Cell` fields in `pub` structs on library paths (keeps exported handles `Sync`) |
//! | L9 | no cycles in the "mutex A held while acquiring B" graph (cross-file, call-resolved) |
//! | L10 | no expression mixes apc-trace's cycle domain and Instant-ns domain |
//! | L11 | no bare `+`/`-`/`*`/`<<` on limb-typed values in the arithmetic kernels |
//! | L12 | `Ordering::Relaxed` only on statistic counters, never on gate/flag `AtomicBool`s (library paths *and* the `vendor/rayon` pool) |
//!
//! L3–L6 are per-line checks over masked source; L9–L12 are *flow*
//! rules, computed on the token-tree engine ([`lexer`] → [`items`] →
//! [`summary`] → [`flow`]). The retired L1, L2, L7 and L8 are carried by
//! rustc and clippy lints (`unsafe_code`, `missing_docs`,
//! `clippy::{unwrap_used, expect_used, panic, disallowed_methods}`), and
//! their escapes are reasoned `#[expect(..)]` attributes.
//!
//! Every rule has an escape hatch:
//!
//! ```text
//! // apc-lint: allow(L3) -- value masked to 32 bits on this line
//! ```
//!
//! placed either at the end of the offending line or on the line directly
//! above it. The `-- reason` part is mandatory; a directive without a
//! reason (or naming an unknown rule) is itself reported as `L0`.
//!
//! See `LINTS.md` at the workspace root for the full rationale.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod flow;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod scan;
pub mod summary;

use std::fmt;
use std::path::{Path, PathBuf};

/// Machine-readable identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Malformed `apc-lint:` directive (meta-rule).
    L0,
    /// No bare `as` narrowing casts in the arithmetic kernels.
    L3,
    /// `crates/core` public items must cite a paper anchor.
    L4,
    /// Cargo.toml hygiene.
    L5,
    /// No `RefCell`/`Cell` fields in `pub` structs on library paths.
    L6,
    /// No cycles in the cross-file lock-order graph.
    L9,
    /// No expression mixes the cycle and Instant-ns time domains.
    L10,
    /// No bare `+`/`-`/`*`/`<<` on limb-typed values in kernel paths.
    L11,
    /// `Ordering::Relaxed` only on statistic counters, never on flags.
    L12,
}

impl RuleId {
    /// Parses `"L3"` → `RuleId::L3`. Retired ids (`L1`, `L2`, `L7`, `L8`)
    /// parse to `None`, so a leftover directive naming one is an `L0`.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s.trim() {
            "L0" => Some(RuleId::L0),
            "L3" => Some(RuleId::L3),
            "L4" => Some(RuleId::L4),
            "L5" => Some(RuleId::L5),
            "L6" => Some(RuleId::L6),
            "L9" => Some(RuleId::L9),
            "L10" => Some(RuleId::L10),
            "L11" => Some(RuleId::L11),
            "L12" => Some(RuleId::L12),
            _ => None,
        }
    }

    /// All enforceable rules (excludes the `L0` meta-rule).
    pub fn all() -> [RuleId; 8] {
        [
            RuleId::L3,
            RuleId::L4,
            RuleId::L5,
            RuleId::L6,
            RuleId::L9,
            RuleId::L10,
            RuleId::L11,
            RuleId::L12,
        ]
    }

    /// One-line description, used by `xtask rules`.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::L0 => "malformed `apc-lint:` directive",
            RuleId::L3 => {
                "no bare `as` narrowing casts in crates/bignum/src/nat/** or crates/core/src/**"
            }
            RuleId::L4 => "crates/core public items cite a paper anchor (§, Eq., Fig.)",
            RuleId::L5 => "Cargo.toml hygiene: inherited metadata, workspace lints, no escaping path deps",
            RuleId::L6 => {
                "no RefCell/Cell fields in pub structs on library paths (exported handles stay Sync)"
            }
            RuleId::L9 => {
                "no cycles in the cross-file lock-order graph (A held while acquiring B)"
            }
            RuleId::L10 => {
                "no expression mixes the cycle domain and the Instant-ns domain (apc-trace contract)"
            }
            RuleId::L11 => {
                "no bare +/-/*/<< on limb-typed values in kernel paths, incl. slice loads/reborrows/enumerate elements (route through limb.rs or wrapping_/checked_)"
            }
            RuleId::L12 => {
                "Ordering::Relaxed only on statistic counters; gate/flag AtomicBools (incl. the vendor/rayon pool's) need Acquire/Release"
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule.
    pub rule: RuleId,
    /// Path of the offending file, relative to the linted root.
    pub file: PathBuf,
    /// 1-based line number (0 when the finding is file-level).
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Failure of the lint driver itself (I/O, not a finding).
#[derive(Debug)]
pub struct LintError(pub String);

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "apc-lint: {}", self.0)
    }
}

impl std::error::Error for LintError {}

/// Lints the tree rooted at `root` (a workspace checkout or a fixture
/// mirroring its layout) and returns all findings, sorted by file and
/// line.
pub fn lint_tree(root: &Path) -> Result<Vec<Violation>, LintError> {
    let sources = scan::collect_sources(root)?;
    let manifests = scan::collect_manifests(root)?;
    let mut violations = Vec::new();
    for source in &sources {
        violations.extend(source.directive_errors());
        violations.extend(rules::l3_no_narrowing_casts(source));
        violations.extend(rules::l4_paper_anchors(source));
        violations.extend(rules::l6_no_interior_mutability_in_pub_structs(source));
    }
    for manifest in &manifests {
        violations.extend(manifest.directive_errors());
        violations.extend(rules::l5_manifest_hygiene(manifest));
    }
    // Flow rules run on the cross-file model.
    let ws = items::build(&sources, &manifests);
    let sums = summary::summarize(&sources, &ws);
    violations.extend(flow::l9_lock_order(&sources, &ws, &sums));
    violations.extend(flow::l10_time_domains(&sources, &ws));
    violations.extend(flow::l11_limb_arithmetic(&sources, &ws));
    violations.extend(flow::l12_atomic_orderings(&sources, &ws));
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(violations)
}

/// Returns the workspace root this binary was compiled in (two levels up
/// from `crates/xtask`).
pub fn default_workspace_root() -> PathBuf {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest_dir
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest_dir)
}
