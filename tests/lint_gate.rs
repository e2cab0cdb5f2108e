//! Tier-1 gate: the workspace must be apc-lint clean.
//!
//! This links the lint engine from `crates/xtask` directly (no subprocess,
//! no network), so a plain `cargo test` fails whenever any rule in
//! LINTS.md is violated — the same pass `cargo run -p xtask -- lint`
//! runs by hand.

#[test]
fn workspace_is_apc_lint_clean() {
    let root = xtask::default_workspace_root();
    let violations = xtask::lint_tree(&root).expect("lint engine must run");
    assert!(
        violations.is_empty(),
        "apc-lint found {} violation(s) — run `cargo run -p xtask -- lint`:\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every key under `[dependencies]` and `[dev-dependencies]` of the root
/// manifest and of `crates/*/Cargo.toml` is named, `-` read as `_`, as a
/// whole word in its crate's `src/`, `tests/`, `benches/` or `examples/`,
/// and no key is listed in both sections: an entry no source names is a
/// build edge and a lockfile entry for nothing. A test rather than an
/// apc-lint rule, since it reads whole crates rather than one file.
#[test]
fn every_manifest_dependency_is_named_by_its_crate_once() {
    let root = xtask::default_workspace_root();
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .map(|entry| entry.expect("crates/ entry").path())
        .collect();
    crates.sort();
    let mut findings = Vec::new();
    for dir in std::iter::once(root.clone()).chain(crates) {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest reads");
        let mut sources = String::new();
        for sub in ["src", "tests", "benches", "examples"] {
            read_rust_sources(&dir.join(sub), &mut sources);
        }
        let name = dir.strip_prefix(&root).expect("under the root").display().to_string();
        let (mut section, mut listed) = ("", Vec::new());
        for line in manifest.lines().map(str::trim) {
            if let Some(header) = line.strip_prefix('[') {
                section = header.trim_end_matches(']');
                continue;
            }
            let key = line.split(['=', '.', ' ']).next().unwrap_or_default();
            let listing = matches!(section, "dependencies" | "dev-dependencies");
            if !listing || key.is_empty() || key.starts_with('#') {
                continue;
            }
            if !names_word(&sources, &key.replace('-', "_")) {
                findings.push(format!("{name}/Cargo.toml: no source names [{section}] `{key}`"));
            }
            if listed.contains(&key) {
                findings.push(format!("{name}/Cargo.toml: `{key}` is listed in both sections"));
            }
            listed.push(key);
        }
    }
    assert!(findings.is_empty(), "manifest entries to drop:\n{}", findings.join("\n"));
}

/// Appends every `.rs` file under `dir` (if it exists) to `out`.
fn read_rust_sources(dir: &std::path::Path, out: &mut String) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|entry| entry.expect("source entry").path()) {
        if path.is_dir() {
            read_rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push_str(&std::fs::read_to_string(&path).expect("source reads"));
            out.push('\n');
        }
    }
}

/// Whether `word` occurs in `text` with no identifier character on
/// either side.
fn names_word(text: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        !text[..at].ends_with(is_ident) && !text[at + word.len()..].starts_with(is_ident)
    })
}
