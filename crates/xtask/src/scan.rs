//! Source discovery and the scanning layer over the full-text lexer.
//!
//! The rules never look at raw text directly for *code* checks: each
//! `.rs` file is run through the [`crate::lexer`] (a whole-file lexer, so
//! raw strings, multi-line string literals and nested block comments are
//! classified correctly), which yields both a token stream and per-line
//! code/comment masks. A `Cell` inside a doc example or an `as u32`
//! inside a string can never trip a rule. Comment text is kept separately
//! so `apc-lint: allow(..)` directives and doc anchors can be read back
//! out.

use crate::lexer::{self, Token};
use crate::{LintError, RuleId, Violation};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "vendor", "fixtures", "node_modules"];

/// Allow directives: line number (1-based) → rules allowed there.
pub type Allows = BTreeMap<usize, Vec<RuleId>>;

/// One scanned `.rs` file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the linted root, with `/` separators.
    pub rel_path: String,
    /// Raw line text (no trailing newline).
    pub raw_lines: Vec<String>,
    /// Line text with comments and literal contents blanked.
    pub code_lines: Vec<String>,
    /// Comment text per line (everything that was inside a comment).
    pub comment_lines: Vec<String>,
    /// `true` for lines inside a `#[cfg(test)]` module.
    pub test_lines: Vec<bool>,
    /// The file's token stream (comments and whitespace removed).
    pub tokens: Vec<Token>,
    /// Allow directives: line number (1-based) → rules allowed there.
    pub allows: Allows,
    /// Malformed directives found while scanning.
    pub bad_directives: Vec<(usize, String)>,
}

/// One scanned `Cargo.toml`.
#[derive(Debug)]
pub struct ManifestFile {
    /// Path relative to the linted root, with `/` separators.
    pub rel_path: String,
    /// Raw line text.
    pub raw_lines: Vec<String>,
    /// Line text with `#` comments removed.
    pub code_lines: Vec<String>,
    /// Allow directives: line number (1-based) → rules allowed there.
    pub allows: Allows,
    /// Malformed directives found while scanning.
    pub bad_directives: Vec<(usize, String)>,
}

impl SourceFile {
    /// Whether `rule` is allowed on `line` (directive on the line itself
    /// or on the line directly above).
    pub fn allowed(&self, rule: RuleId, line: usize) -> bool {
        has_allow(&self.allows, rule, line)
    }

    /// Whether `line` (1-based) falls inside a `#[cfg(test)]` region.
    pub fn is_test_line(&self, line: usize) -> bool {
        line >= 1 && self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// Violations for malformed directives.
    pub fn directive_errors(&self) -> Vec<Violation> {
        directive_errors(&self.rel_path, &self.bad_directives)
    }
}

impl ManifestFile {
    /// Whether `rule` is allowed on `line`.
    pub fn allowed(&self, rule: RuleId, line: usize) -> bool {
        has_allow(&self.allows, rule, line)
    }

    /// Violations for malformed directives.
    pub fn directive_errors(&self) -> Vec<Violation> {
        directive_errors(&self.rel_path, &self.bad_directives)
    }
}

fn has_allow(allows: &Allows, rule: RuleId, line: usize) -> bool {
    let on_line = allows.get(&line).is_some_and(|r| r.contains(&rule));
    let above = line > 1 && allows.get(&(line - 1)).is_some_and(|r| r.contains(&rule));
    on_line || above
}

fn directive_errors(rel_path: &str, bad: &[(usize, String)]) -> Vec<Violation> {
    bad.iter()
        .map(|(line, msg)| Violation {
            rule: RuleId::L0,
            file: PathBuf::from(rel_path),
            line: *line,
            message: msg.clone(),
        })
        .collect()
}

/// Recursively collects and scans every `.rs` file under `root`.
///
/// `vendor/` is skipped wholesale (the vendored crates are external API
/// surfaces, not this workspace's code) with one exception: the
/// work-stealing pool behind the rayon facade is real concurrent code
/// written here, and its gate/park atomics are exactly what L12 audits —
/// so `vendor/rayon` is walked explicitly.
pub fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, LintError> {
    let mut files = Vec::new();
    let mut scan_file = |abs: &Path, rel: &str| {
        if rel.ends_with(".rs") {
            let text = fs::read_to_string(abs)
                .map_err(|e| LintError(format!("reading {}: {e}", abs.display())))?;
            files.push(scan_rust(rel, &text));
        }
        Ok(())
    };
    walk(root, root, &mut scan_file)?;
    let pool = root.join("vendor").join("rayon");
    if pool.is_dir() {
        walk(root, &pool, &mut scan_file)?;
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// Recursively collects and scans every `Cargo.toml` under `root`.
pub fn collect_manifests(root: &Path) -> Result<Vec<ManifestFile>, LintError> {
    let mut files = Vec::new();
    walk(root, root, &mut |abs, rel| {
        if rel.ends_with("Cargo.toml") {
            let text = fs::read_to_string(abs)
                .map_err(|e| LintError(format!("reading {}: {e}", abs.display())))?;
            files.push(scan_toml(rel, &text));
        }
        Ok(())
    })?;
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

fn walk(
    root: &Path,
    dir: &Path,
    f: &mut impl FnMut(&Path, &str) -> Result<(), LintError>,
) -> Result<(), LintError> {
    let entries =
        fs::read_dir(dir).map_err(|e| LintError(format!("reading {}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| LintError(format!("walking {}: {e}", dir.display())))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, f)?;
        } else {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| LintError(format!("relativizing {}: {e}", path.display())))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            f(&path, &rel)?;
        }
    }
    Ok(())
}

/// Lexes Rust source (whole file at once), then derives test regions and
/// allow directives from the per-line masks.
pub fn scan_rust(rel_path: &str, text: &str) -> SourceFile {
    let raw_lines: Vec<String> = text.lines().map(str::to_string).collect();
    let out = lexer::lex(text);
    let mut code_lines = out.code_lines;
    let mut comment_lines = out.comment_lines;
    // `str::lines` and the lexer agree on line counts for well-formed
    // input; pad defensively so per-line indexing can never go out of
    // bounds on degenerate files.
    code_lines.resize(raw_lines.len().max(code_lines.len()), String::new());
    comment_lines.resize(code_lines.len(), String::new());

    let test_lines = mark_test_regions(&code_lines);
    let (allows, bad_directives) = parse_directives(&comment_lines);

    SourceFile {
        rel_path: rel_path.to_string(),
        raw_lines,
        code_lines,
        comment_lines,
        test_lines,
        tokens: out.tokens,
        allows,
        bad_directives,
    }
}

/// Marks lines belonging to `#[cfg(test)]`-gated modules by brace
/// matching on the code mask.
fn mark_test_regions(code_lines: &[String]) -> Vec<bool> {
    let mut mask = vec![false; code_lines.len()];
    let mut i = 0usize;
    while i < code_lines.len() {
        let line = code_lines[i].trim();
        if line.contains("#[cfg(test)]") {
            // Find the opening brace of the gated item (usually `mod
            // tests {` on the next line).
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < code_lines.len() {
                let mut item_ended = false;
                for c in code_lines[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        // A brace-less gated item (`#[cfg(test)] use ..;`)
                        // ends at the first top-level semicolon.
                        ';' if !opened && depth == 0 => item_ended = true,
                        _ => {}
                    }
                }
                mask[j] = true;
                if (opened && depth <= 0) || item_ended {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Parses `apc-lint: allow(..) -- reason` directives out of comment text.
fn parse_directives(comment_lines: &[String]) -> (Allows, Vec<(usize, String)>) {
    let mut allows = Allows::new();
    let mut bad: Vec<(usize, String)> = Vec::new();
    for (idx, comment) in comment_lines.iter().enumerate() {
        let line_no = idx + 1;
        // A directive must start the comment: `// apc-lint: ...` (doc
        // sigils and block-comment openers are tolerated). Prose or code
        // examples that merely *mention* `apc-lint:` deeper in a comment
        // are not directives.
        let body = comment
            .trim_start()
            .trim_start_matches(['#', '/', '!', '*'])
            .trim_start();
        let Some(rest) = body.strip_prefix("apc-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            bad.push((
                line_no,
                format!("directive must be `apc-lint: allow(<rule>) -- <reason>`, got `{rest}`"),
            ));
            continue;
        };
        let Some(close) = args.find(')') else {
            bad.push((line_no, "unclosed `allow(` directive".to_string()));
            continue;
        };
        let (list, tail) = args.split_at(close);
        let tail = tail[1..].trim_start();
        let mut ids = Vec::new();
        let mut ok = true;
        for part in list.split(',') {
            match RuleId::parse(part) {
                Some(id) if id != RuleId::L0 => ids.push(id),
                _ => {
                    bad.push((line_no, format!("unknown rule `{}` in allow()", part.trim())));
                    ok = false;
                }
            }
        }
        let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            bad.push((
                line_no,
                "allow() directive requires a `-- <reason>` justification".to_string(),
            ));
            ok = false;
        }
        if ok {
            allows.entry(line_no).or_default().extend(ids);
        }
    }
    (allows, bad)
}

/// Scans a `Cargo.toml`: strips `#` comments, captures directives.
pub fn scan_toml(rel_path: &str, text: &str) -> ManifestFile {
    let raw_lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut code_lines = Vec::with_capacity(raw_lines.len());
    let mut comment_lines = Vec::with_capacity(raw_lines.len());
    for raw in &raw_lines {
        // TOML has no block comments; a `#` outside a basic string starts
        // a comment. Our manifests never put `#` inside strings, so a
        // simple split (quote-aware) suffices.
        let mut in_str = false;
        let mut split = raw.len();
        for (bi, c) in raw.char_indices() {
            match c {
                '"' => in_str = !in_str,
                '#' if !in_str => {
                    split = bi;
                    break;
                }
                _ => {}
            }
        }
        code_lines.push(raw[..split].to_string());
        comment_lines.push(raw[split..].to_string());
    }
    let (allows, bad_directives) = parse_directives(&comment_lines);
    ManifestFile {
        rel_path: rel_path.to_string(),
        raw_lines,
        code_lines,
        allows,
        bad_directives,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = scan_rust("t.rs", "let x = \"panic!()\"; // real panic!()\nlet y = 1;\n");
        assert!(!f.code_lines[0].contains("panic!"));
        assert!(f.comment_lines[0].contains("panic!"));
        assert_eq!(f.code_lines[1], "let y = 1;");
    }

    #[test]
    fn block_comments_span_lines() {
        let f = scan_rust("t.rs", "a /* x\n y */ b\n");
        assert_eq!(f.code_lines[0].trim_end(), "a");
        assert!(f.code_lines[1].contains('b'));
        assert!(!f.code_lines[1].contains('y'));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = scan_rust("t.rs", "let s = r#\"as u32\"#;\n");
        assert!(!f.code_lines[0].contains("as u32"));
    }

    #[test]
    fn multi_line_strings_are_blanked() {
        let f = scan_rust("t.rs", "let s = \"first\nsecond .unwrap()\";\nlet y = 1;\n");
        assert!(!f.code_lines[1].contains("unwrap"));
        assert_eq!(f.code_lines[2], "let y = 1;");
    }

    #[test]
    fn nested_block_comments_are_blanked() {
        let f = scan_rust("t.rs", "a /* x /* y */ still */ b\n");
        assert!(f.code_lines[0].contains('b'));
        assert!(!f.code_lines[0].contains("still"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = scan_rust("t.rs", "fn f<'a>(x: &'a str) { let c = 'x'; }\n");
        assert!(f.code_lines[0].contains("'a"));
        assert!(!f.code_lines[0].contains("'x'"));
    }

    #[test]
    fn test_regions_are_masked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n";
        let f = scan_rust("t.rs", src);
        assert_eq!(f.test_lines, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn directives_parse_and_reject() {
        let src = "\
// apc-lint: allow(L3) -- locally provable\nx as u32;\n\
// apc-lint: allow(L99) -- nope\n// apc-lint: allow(L3)\n";
        let f = scan_rust("t.rs", src);
        assert!(f.allowed(RuleId::L3, 2));
        assert_eq!(f.bad_directives.len(), 2);
    }

    #[test]
    fn retired_rule_ids_are_unknown_in_directives() {
        // L1, L2, L7 and L8 moved to rustc/clippy lints: a leftover
        // directive naming one is malformed, not silently honored.
        for id in ["L1", "L2", "L7", "L8"] {
            let src = format!("// apc-lint: allow({id}) -- moved to clippy\nx;\n");
            let f = scan_rust("t.rs", &src);
            assert_eq!(f.bad_directives.len(), 1, "{id}");
            assert!(f.bad_directives[0].1.contains("unknown rule"), "{id}");
        }
    }

    #[test]
    fn new_rule_ids_are_valid_in_directives() {
        let src = "// apc-lint: allow(L12) -- stat counter, no ordering needed\nx;\n";
        let f = scan_rust("t.rs", src);
        assert!(f.allowed(RuleId::L12, 2));
        assert!(f.bad_directives.is_empty());
    }

    #[test]
    fn doc_comment_examples_do_not_leak_into_code() {
        let src = "/// ```\n/// x.unwrap();\n/// ```\npub fn f() {}\n";
        let f = scan_rust("t.rs", src);
        assert!(f.code_lines[1].trim().is_empty());
        assert!(f.comment_lines[1].contains("unwrap"));
    }

    #[test]
    fn tokens_are_exposed_on_source_files() {
        let f = scan_rust("t.rs", "fn f() { a.lock(); }\n");
        assert!(f.tokens.iter().any(|t| t.is_ident("lock")));
    }
}
