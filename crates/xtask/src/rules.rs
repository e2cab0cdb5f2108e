//! The per-line apc-lint rules (L3–L6); the flow rules live in
//! [`crate::flow`].
//!
//! Each rule takes scanned files (see [`crate::scan`]) and returns
//! [`Violation`]s. Scoping is purely path-pattern based and relative to
//! the linted root, so the same engine runs on the real workspace and on
//! the self-test fixtures under `crates/xtask/fixtures/`.

use crate::scan::{ManifestFile, SourceFile};
use crate::{RuleId, Violation};
use std::path::{Component, Path, PathBuf};

/// Crates whose `src/` trees count as *library code* for L6, L10 and
/// L12 — the same crates whose roots deny clippy's no-panic lints.
///
/// `crates/bench` is excluded (it is all binaries — measurement tools,
/// not bit-exactness-critical model code).
const LIBRARY_CRATE_DIRS: &[&str] = &[
    "crates/apps",
    "crates/baselines",
    "crates/bignum",
    "crates/core",
    "crates/net",
    "crates/serve",
    "crates/sim",
    "crates/trace",
    "crates/xtask",
];

pub(crate) fn is_library_source(rel: &str) -> bool {
    let in_lib_crate = LIBRARY_CRATE_DIRS
        .iter()
        .any(|c| rel.starts_with(&format!("{c}/src/")));
    // The workspace-root `src/` is the facade crate's library.
    let in_root_lib = rel.starts_with("src/");
    (in_lib_crate || in_root_lib) && !rel.contains("/bin/")
}

/// The work-stealing pool behind the vendored rayon facade. Not library
/// source (it inherits no workspace lints, so its unsafe job plumbing
/// stays legal), but its gate/park atomics are in L12's scope — a
/// relaxed access on the latch or termination flag is precisely the bug
/// class L12 exists for.
pub(crate) fn is_pool_source(rel: &str) -> bool {
    rel.starts_with("vendor/rayon/src/")
}

fn violation(rule: RuleId, rel: &str, line: usize, message: impl Into<String>) -> Violation {
    Violation {
        rule,
        file: PathBuf::from(rel),
        line,
        message: message.into(),
    }
}

/// Matches `needle` only when not embedded in a longer identifier (so
/// `Cell` never matches inside `RefCell` or `CellId`).
fn contains_token(code: &str, needle: &str) -> bool {
    let mut start = 0usize;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = code[at + needle.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Integer target types an `as` cast may silently truncate into (or, for
/// `usize`/`isize`, whose width is platform-dependent).
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// L3: no bare `as` casts to narrowing integer types in the arithmetic
/// kernels (`crates/bignum/src/nat/**`, `crates/core/src/**`). Use
/// `try_from` or the `limb` helpers so truncation is explicit.
pub fn l3_no_narrowing_casts(file: &SourceFile) -> Vec<Violation> {
    let rel = &file.rel_path;
    let in_scope =
        rel.starts_with("crates/bignum/src/nat/") || rel.starts_with("crates/core/src/");
    if !in_scope {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, code) in file.code_lines.iter().enumerate() {
        let line_no = idx + 1;
        if file.test_lines[idx] {
            continue;
        }
        for target in NARROW_TARGETS {
            if cast_to(code, target) && !file.allowed(RuleId::L3, line_no) {
                out.push(violation(
                    RuleId::L3,
                    rel,
                    line_no,
                    format!(
                        "bare `as {target}` narrowing cast in a kernel path — use \
                         `{target}::try_from(..)` or a `limb` helper so truncation \
                         is explicit (Eq. 1 bit-exactness)"
                    ),
                ));
                break;
            }
        }
    }
    out
}

/// Detects `as <target>` with token boundaries on both sides.
fn cast_to(code: &str, target: &str) -> bool {
    let mut start = 0usize;
    while let Some(pos) = code[start..].find(" as ") {
        let at = start + pos;
        let tail = code[at + 4..].trim_start();
        if let Some(rest) = tail.strip_prefix(target) {
            let after = rest.chars().next();
            if !after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                return true;
            }
        }
        start = at + 4;
    }
    false
}

/// Item keywords whose `pub` declarations L4 inspects.
const PUB_ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Anchor substrings accepted as paper citations.
const ANCHORS: &[&str] = &["§", "Eq.", "Fig."];

/// L4: every public item in `crates/core/src/**` must carry a doc
/// comment citing a paper anchor (`§`, `Eq.`, or `Fig.`), and every
/// module header (`//!` block) must cite one too. The model crate *is*
/// the paper reproduction; an item that cannot name the section,
/// equation, or figure it models is either misplaced or unspecified.
pub fn l4_paper_anchors(file: &SourceFile) -> Vec<Violation> {
    let rel = &file.rel_path;
    if !rel.starts_with("crates/core/src/") {
        return Vec::new();
    }
    let mut out = Vec::new();

    // Module header: the leading //! block.
    let header: String = file
        .raw_lines
        .iter()
        .take_while(|l| {
            let t = l.trim_start();
            t.starts_with("//!") || t.is_empty() || t.starts_with("#![")
        })
        .filter(|l| l.trim_start().starts_with("//!"))
        .cloned()
        .collect::<Vec<_>>()
        .join("\n");
    if !has_anchor(&header) && !file.allowed(RuleId::L4, 1) {
        out.push(violation(
            RuleId::L4,
            rel,
            1,
            "module header (`//!` block) must cite a paper anchor (§, Eq., or Fig.)",
        ));
    }

    for (idx, code) in file.code_lines.iter().enumerate() {
        let line_no = idx + 1;
        if file.test_lines[idx] {
            continue;
        }
        let trimmed = code.trim_start();
        let Some(after_pub) = trimmed.strip_prefix("pub ") else {
            continue;
        };
        let is_item = PUB_ITEM_KEYWORDS
            .iter()
            .any(|kw| after_pub.starts_with(kw) && {
                let after = after_pub[kw.len()..].chars().next();
                !after.is_some_and(|c| c.is_alphanumeric() || c == '_')
            });
        if !is_item {
            continue;
        }
        if file.allowed(RuleId::L4, line_no) {
            continue;
        }
        let doc = doc_block_above(file, idx);
        if doc.is_empty() {
            out.push(violation(
                RuleId::L4,
                rel,
                line_no,
                "public item has no doc comment (and must cite a paper anchor)",
            ));
        } else if !has_anchor(&doc) {
            out.push(violation(
                RuleId::L4,
                rel,
                line_no,
                "public item's doc comment must cite a paper anchor (§, Eq., or Fig.)",
            ));
        }
    }
    out
}

fn has_anchor(text: &str) -> bool {
    ANCHORS.iter().any(|a| text.contains(a))
}

/// Collects the `///` block directly above line `idx` (0-based),
/// skipping attributes and plain comments in between.
fn doc_block_above(file: &SourceFile, idx: usize) -> String {
    let mut docs: Vec<&str> = Vec::new();
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let raw = file.raw_lines[i].trim_start();
        if raw.starts_with("///") {
            docs.push(raw);
        } else if raw.starts_with("#[") || raw.starts_with("//") || raw.ends_with(']') {
            // Attributes (possibly multi-line, ending in `]`) and plain
            // comments may sit between docs and item.
            continue;
        } else {
            break;
        }
    }
    docs.reverse();
    docs.join("\n")
}

/// L6: no `RefCell<..>` / `Cell<..>` fields in `pub` structs on library
/// paths. Interior mutability in an exported handle silently makes it
/// `!Sync`, so one instance can never serve concurrent callers — the
/// exact trap the `Device` stats block fell into before it moved
/// behind a lock. Use atomics (or a lock) for shared accounting, keep the cell
/// in a private type, or justify the single-threaded design with
/// `// apc-lint: allow(L6) -- <reason>`.
pub fn l6_no_interior_mutability_in_pub_structs(file: &SourceFile) -> Vec<Violation> {
    if !is_library_source(&file.rel_path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut depth: i32 = 0;
    // A `pub struct` has been declared and its `{` body not yet opened.
    let mut awaiting_body = false;
    // Brace depth of the innermost open `pub struct` body.
    let mut body_floor: Option<i32> = None;
    for (idx, code) in file.code_lines.iter().enumerate() {
        let line_no = idx + 1;
        let in_test = file.test_lines[idx];
        let trimmed = code.trim_start();
        let declares_pub_struct = !in_test
            && (trimmed.starts_with("pub struct ")
                || (trimmed.starts_with("pub(") && contains_token(code, "struct")));
        if declares_pub_struct && body_floor.is_none() {
            awaiting_body = true;
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if awaiting_body {
                        awaiting_body = false;
                        body_floor = Some(depth);
                    }
                }
                '}' => {
                    depth -= 1;
                    if body_floor.is_some_and(|floor| depth < floor) {
                        body_floor = None;
                    }
                }
                // Unit / tuple struct: declaration ends without a body
                // (tuple fields are caught on the declaration line itself).
                ';' if awaiting_body => awaiting_body = false,
                _ => {}
            }
        }
        if (body_floor.is_some() || declares_pub_struct) && !in_test {
            for needle in ["RefCell", "Cell"] {
                if contains_token(code, needle) && !file.allowed(RuleId::L6, line_no) {
                    out.push(violation(
                        RuleId::L6,
                        &file.rel_path,
                        line_no,
                        format!(
                            "`{needle}<..>` field in a pub struct makes the exported \
                             handle !Sync — use atomics or a lock (see \
                             Device's Mutex<DeviceStats>), or add `// apc-lint: allow(L6) \
                             -- <reason>`"
                        ),
                    ));
                    break;
                }
            }
        }
    }
    out
}

/// Keys every member crate must inherit from `[workspace.package]`.
const INHERITED_KEYS: &[&str] = &["version", "edition", "license"];

/// L5: Cargo.toml hygiene for member crates (`crates/*/Cargo.toml`):
/// metadata inherited from the workspace (`version.workspace = true`,
/// …), `[lints] workspace = true` so the `[workspace.lints]` table
/// applies (asked of the root package too: its `src/lib.rs` gets
/// `unsafe_code = "forbid"` and `missing_docs` from there), and no
/// `path` dependency (any manifest, root included) resolving outside the
/// workspace root.
pub fn l5_manifest_hygiene(manifest: &ManifestFile) -> Vec<Violation> {
    let rel = &manifest.rel_path;
    let is_member = rel.starts_with("crates/") && rel.ends_with("/Cargo.toml");
    let is_root = rel == "Cargo.toml";
    if !is_member && !is_root {
        return Vec::new();
    }
    let is_package = manifest.code_lines.iter().any(|l| l.trim() == "[package]");
    let mut out = Vec::new();

    if is_member {
        for key in INHERITED_KEYS {
            let dotted = format!("{key}.workspace = true");
            let braced = format!("{key} = {{ workspace = true }}");
            let found = manifest
                .code_lines
                .iter()
                .any(|l| l.contains(&dotted) || l.contains(&braced));
            if !found && !manifest.allowed(RuleId::L5, 1) {
                out.push(violation(
                    RuleId::L5,
                    rel,
                    1,
                    format!("`{key}` must be inherited from [workspace.package] (`{dotted}`)"),
                ));
            }
        }
    }
    if is_package {
        let lints_inherited = manifest.code_lines.windows(2).any(|w| {
            w[0].trim() == "[lints]" && w[1].trim() == "workspace = true"
        }) || manifest
            .code_lines
            .iter()
            .any(|l| l.contains("lints.workspace = true"));
        if !lints_inherited && !manifest.allowed(RuleId::L5, 1) {
            out.push(violation(
                RuleId::L5,
                rel,
                1,
                "crate must inherit workspace lints (`[lints]\\nworkspace = true`)",
            ));
        }
    }

    // Path-dependency containment, checked in every manifest in scope.
    let manifest_dir = Path::new(rel)
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default();
    for (idx, code) in manifest.code_lines.iter().enumerate() {
        let line_no = idx + 1;
        let mut search = 0usize;
        while let Some(pos) = code[search..].find("path = \"") {
            let at = search + pos + "path = \"".len();
            let Some(end) = code[at..].find('"') else {
                break;
            };
            let dep_path = &code[at..at + end];
            search = at + end;
            let joined = manifest_dir.join(dep_path);
            if !stays_inside_root(&joined) && !manifest.allowed(RuleId::L5, line_no) {
                out.push(violation(
                    RuleId::L5,
                    rel,
                    line_no,
                    format!("path dependency `{dep_path}` escapes the workspace root"),
                ));
            }
        }
    }
    out
}

/// Lexically resolves `..` components; the path must never climb above
/// the workspace root.
fn stays_inside_root(rel_to_root: &Path) -> bool {
    let mut depth: i64 = 0;
    for comp in rel_to_root.components() {
        match comp {
            Component::ParentDir => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            Component::Normal(_) => depth += 1,
            Component::CurDir => {}
            Component::RootDir | Component::Prefix(_) => return false,
        }
    }
    true
}
