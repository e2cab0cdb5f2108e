//! The flow-aware rules L9–L12, built on the item map
//! ([`crate::items`]) and the per-function summaries
//! ([`crate::summary`]).
//!
//! These are the analyses a per-line scanner cannot express: lock-order
//! cycles span files, time-domain mixing spans expressions, and limb
//! arithmetic discipline needs the variable's declared type — all of
//! which need tokens, item spans, and call resolution.

use crate::items::Workspace;
use crate::lexer::{Token, TokenKind};
use crate::rules::{is_library_source, is_pool_source};
use crate::scan::SourceFile;
use crate::summary::FnSummary;
use crate::{RuleId, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

fn violation(rule: RuleId, rel: &str, line: usize, message: String) -> Violation {
    Violation {
        rule,
        file: PathBuf::from(rel),
        line,
        message,
    }
}

// ---------------------------------------------------------------------
// L9 — lock-order cycle detection
// ---------------------------------------------------------------------

/// Resolves a call site to candidate function indices by name, within
/// the caller's crate plus any crate the file imports (or the crate a
/// path-qualified call names explicitly).
fn resolve_call(
    ws: &Workspace,
    file_idx: usize,
    callee: &str,
    path_root: &str,
) -> Vec<usize> {
    let own = &ws.crate_of_file[file_idx];
    let mut dirs: Vec<&str> = Vec::new();
    if path_root.is_empty() || path_root == "self" || path_root == "crate" {
        dirs.push(own);
        if path_root.is_empty() {
            for d in &ws.imports[file_idx] {
                dirs.push(d);
            }
        }
    } else if let Some(dir) = ws.crate_ident_to_dir.get(path_root) {
        dirs.push(dir);
    } else {
        // A type-qualified call (`Nat::from_limbs`) — same crate.
        dirs.push(own);
    }
    let mut out = Vec::new();
    for dir in dirs {
        if let Some(v) = ws.fn_by_name.get(&(dir.to_string(), callee.to_string())) {
            out.extend_from_slice(v);
        }
    }
    out
}

/// L9: build the "lock A held while acquiring lock B" graph across the
/// workspace — from direct acquisitions and from calls into functions
/// that (transitively) acquire — and fail on every edge that lies on a
/// cycle. A cycle means two threads taking the locks in opposite orders
/// can deadlock; the serve scheduler and the planned lock-free admission
/// rework must stay provably order-consistent.
///
/// The `vendor/rayon` pool is out of scope: L9 identifies locks
/// lexically, and the pool routes every mutex (per-worker deques,
/// injector, sleep gate) through one generic `lock(m)` helper, so each
/// steal-scan acquisition would alias to the same name and read as a
/// re-entrant cycle. The pool's deadlock-freedom rests on workers
/// *stealing* while they wait instead of blocking (DESIGN.md §Host
/// parallelism), which is not a lock-order property.
pub fn l9_lock_order(
    sources: &[SourceFile],
    ws: &Workspace,
    sums: &[FnSummary],
) -> Vec<Violation> {
    // Transitive "may acquire" sets per function (fixpoint).
    let mut may_acquire: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for s in sums {
        let set: BTreeSet<String> = s.acquisitions.iter().map(|a| a.lock.clone()).collect();
        may_acquire.insert(s.fn_idx, set);
    }
    loop {
        let mut changed = false;
        for s in sums {
            let file_idx = ws.fns[s.fn_idx].file;
            let mut add: BTreeSet<String> = BTreeSet::new();
            for c in &s.calls {
                for callee in resolve_call(ws, file_idx, &c.callee, &c.path_root) {
                    if let Some(set) = may_acquire.get(&callee) {
                        add.extend(set.iter().cloned());
                    }
                }
            }
            if let Some(set) = may_acquire.get_mut(&s.fn_idx) {
                let before = set.len();
                set.extend(add);
                changed |= set.len() != before;
            }
        }
        if !changed {
            break;
        }
    }

    // Edges with their witness sites.
    type Site = (usize, usize, String); // (file, line, description)
    let mut edges: BTreeMap<(String, String), Vec<Site>> = BTreeMap::new();
    for s in sums {
        let file_idx = ws.fns[s.fn_idx].file;
        if is_pool_source(&sources[file_idx].rel_path) {
            continue;
        }
        let fn_name = &ws.fns[s.fn_idx].name;
        for a in &s.acquisitions {
            for h in &a.held {
                edges
                    .entry((h.clone(), a.lock.clone()))
                    .or_default()
                    .push((
                        file_idx,
                        a.line,
                        format!("`{fn_name}` acquires `{}` while holding `{h}`", a.lock),
                    ));
            }
        }
        for c in &s.calls {
            if c.held.is_empty() {
                continue;
            }
            for callee in resolve_call(ws, file_idx, &c.callee, &c.path_root) {
                let Some(set) = may_acquire.get(&callee) else {
                    continue;
                };
                for l in set {
                    for h in &c.held {
                        // Call-propagated self-edges are dropped: name
                        // resolution is approximate, and `x.push(..)`
                        // matching a workspace `fn push` must not fake a
                        // re-entrant acquisition.
                        if l == h {
                            continue;
                        }
                        edges.entry((h.clone(), l.clone())).or_default().push((
                            file_idx,
                            c.line,
                            format!(
                                "`{fn_name}` calls `{}` (which may acquire `{l}`) \
                                 while holding `{h}`",
                                c.callee
                            ),
                        ));
                    }
                }
            }
        }
    }

    // An edge u→v is on a cycle iff v can reach u.
    let adj: BTreeMap<&String, BTreeSet<&String>> = {
        let mut m: BTreeMap<&String, BTreeSet<&String>> = BTreeMap::new();
        for (u, v) in edges.keys().map(|(u, v)| (u, v)) {
            m.entry(u).or_default().insert(v);
        }
        m
    };
    let reaches = |from: &String, to: &String| -> bool {
        let mut seen: BTreeSet<&String> = BTreeSet::new();
        let mut stack: Vec<&String> = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter());
            }
        }
        false
    };

    let mut out = Vec::new();
    let mut reported: BTreeSet<(usize, usize, String, String)> = BTreeSet::new();
    for ((u, v), sites) in &edges {
        let cyclic = if u == v { true } else { reaches(v, u) };
        if !cyclic {
            continue;
        }
        for (file_idx, line, desc) in sites {
            let src = &sources[*file_idx];
            if src.allowed(RuleId::L9, *line) {
                continue;
            }
            if !reported.insert((*file_idx, *line, u.clone(), v.clone())) {
                continue;
            }
            out.push(violation(
                RuleId::L9,
                &src.rel_path,
                *line,
                format!(
                    "lock-order cycle: {desc}, but a `{v}` → `{u}` acquisition \
                     path also exists — pick one global order or add \
                     `// apc-lint: allow(L9) -- <reason>`"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// L10 — time-domain confinement
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Domain {
    Ns,
    Cycle,
}

impl Domain {
    fn opposite(self) -> Domain {
        match self {
            Domain::Ns => Domain::Cycle,
            Domain::Cycle => Domain::Ns,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Domain::Ns => "ns",
            Domain::Cycle => "cycle",
        }
    }
}

/// Classifies an identifier into a time domain, if any. Field names
/// carry the unit by contract (apc-trace module docs): `_ns` suffixes
/// and `Instant`-derived helpers are wall-clock, `_cycles` suffixes and
/// `cycles` itself are the device model's cycle domain.
fn domain_of(ident: &str) -> Option<Domain> {
    if ident == "ns"
        || ident.ends_with("_ns")
        || ident == "elapsed"
        || ident == "Instant"
        || ident == "as_nanos"
        || ident == "subsec_nanos"
    {
        return Some(Domain::Ns);
    }
    if ident == "cycles" || ident.ends_with("_cycles") {
        return Some(Domain::Cycle);
    }
    None
}

/// Scans `toks[start..]` (starting right after an opening delimiter)
/// until the matching close, returning each ident of domain `d` found at
/// any depth.
fn domain_idents_in_args(toks: &[Token], open_idx: usize, d: Domain) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut i = open_idx;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {
                if toks[i].kind == TokenKind::Ident && domain_of(&toks[i].text) == Some(d) {
                    out.push((toks[i].line, toks[i].text.clone()));
                }
            }
        }
        i += 1;
    }
    out
}

/// L10: no expression may mix the cycle domain and the Instant-ns
/// domain. Checked as flows, not co-presence — a function may *touch*
/// both domains (e.g. `ServeMetrics::record_completion` records five ns
/// histograms and one cycle histogram) as long as no single record call,
/// binding, or initializer crosses them.
pub fn l10_time_domains(sources: &[SourceFile], ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &ws.fns {
        let src = &sources[f.file];
        if f.is_test || !is_library_source(&src.rel_path) {
            continue;
        }
        let toks = &src.tokens;
        let mut i = f.body_start;
        while i < f.body_end.min(toks.len()) {
            let t = &toks[i];
            if t.kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            // (a) `<recv>.record(args)` — args must match recv's domain.
            if t.text == "record"
                && i >= 2
                && toks[i - 1].is_punct(".")
                && toks[i - 2].kind == TokenKind::Ident
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            {
                if let Some(d) = domain_of(&toks[i - 2].text) {
                    for (line, ident) in domain_idents_in_args(toks, i + 1, d.opposite()) {
                        if src.is_test_line(line) || src.allowed(RuleId::L10, line) {
                            continue;
                        }
                        out.push(violation(
                            RuleId::L10,
                            &src.rel_path,
                            line,
                            format!(
                                "{}-domain value `{ident}` recorded into {}-domain \
                                 histogram `{}` — the two time domains are never \
                                 mixed (apc-trace contract)",
                                d.opposite().label(),
                                d.label(),
                                toks[i - 2].text
                            ),
                        ));
                    }
                }
            }
            // (b) `Span::enter(hist)` — spans record Instant-ns; the
            // histogram argument must not be cycle-domain.
            if t.text == "enter"
                && i >= 2
                && toks[i - 1].is_punct("::")
                && toks[i - 2].is_ident("Span")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            {
                for (line, ident) in domain_idents_in_args(toks, i + 1, Domain::Cycle) {
                    if src.is_test_line(line) || src.allowed(RuleId::L10, line) {
                        continue;
                    }
                    out.push(violation(
                        RuleId::L10,
                        &src.rel_path,
                        line,
                        format!(
                            "`Span::enter` records Instant-ns but is given \
                             cycle-domain histogram `{ident}` — spans never \
                             measure the device clock (apc-trace contract)"
                        ),
                    ));
                }
            }
            // (c) domain-named binding/field: `<name_ns> = expr` /
            // `<name_ns>: expr` — expr must not carry the other domain.
            if let Some(d) = domain_of(&t.text) {
                let next = toks.get(i + 1);
                let is_sink = next.is_some_and(|n| {
                    n.is_punct("=") || n.is_punct(":") || n.is_punct("+=") || n.is_punct("-=")
                });
                if is_sink {
                    let end = rhs_end(toks, i + 2, f.body_end);
                    // `is_sink` saw token i + 1, so i + 2 <= toks.len().
                    for tj in &toks[i + 2..end] {
                        if tj.kind == TokenKind::Ident
                            && domain_of(&tj.text) == Some(d.opposite())
                        {
                            let line = tj.line;
                            if src.is_test_line(line) || src.allowed(RuleId::L10, line) {
                                continue;
                            }
                            out.push(violation(
                                RuleId::L10,
                                &src.rel_path,
                                line,
                                format!(
                                    "{}-domain name `{}` is assigned from \
                                     {}-domain value `{}` — the two time domains \
                                     are never mixed (apc-trace contract)",
                                    d.label(),
                                    t.text,
                                    d.opposite().label(),
                                    tj.text
                                ),
                            ));
                        }
                    }
                    i = end;
                    continue;
                }
            }
            i += 1;
        }
    }
    out
}

/// End of the right-hand side starting at `start`: the first `;`, `,`,
/// or closing delimiter at relative depth 0 (capped at `limit`).
fn rhs_end(toks: &[Token], start: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < limit.min(toks.len()) {
        match toks[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return i,
            ")" | "]" | "}" => depth -= 1,
            ";" | "," if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------
// L11 — kernel arithmetic discipline
// ---------------------------------------------------------------------

/// Helpers from `limb.rs` whose tuple results are limb-typed.
const LIMB_TUPLE_HELPERS: &[&str] =
    &["adc", "sbb", "mul_wide", "mul_add_carry", "div2by1", "shl_step"];

/// Operators L11 bans on limb-typed left operands (`>>` is deliberately
/// excluded: right shift cannot overflow a limb's value).
const BANNED_OPS: &[&str] = &["+", "-", "*", "<<", "+=", "-=", "*=", "<<="];

/// Per-function limb typing: which idents hold `Limb` values and which
/// hold limb slices.
#[derive(Debug, Default)]
struct LimbVars {
    scalars: BTreeSet<String>,
    slices: BTreeSet<String>,
}

fn limb_vars(toks: &[Token], f: &crate::items::FnItem) -> LimbVars {
    let mut vars = LimbVars::default();
    // Parameters: `name: Limb` / `name: &[Limb]` / `name: &mut Vec<Limb>`.
    let sig = &toks[f.sig_start..f.body_start];
    let mut i = 0usize;
    while i < sig.len() {
        if sig[i].is_punct(":") && i >= 1 && sig[i - 1].kind == TokenKind::Ident {
            let name = sig[i - 1].text.clone();
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut saw_limb = false;
            let mut saw_container = false;
            while j < sig.len() {
                match sig[j].text.as_str() {
                    "(" | "[" | "<" => {
                        depth += 1;
                        if sig[j].text == "[" {
                            saw_container = true;
                        }
                    }
                    ")" | "]" | ">" => depth -= 1,
                    "," if depth <= 0 => break,
                    "Limb" => saw_limb = true,
                    "Vec" | "VecDeque" => saw_container = true,
                    _ => {}
                }
                if depth < 0 {
                    break;
                }
                j += 1;
            }
            if saw_limb {
                if saw_container {
                    vars.slices.insert(name);
                } else {
                    vars.scalars.insert(name);
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    // Body-local typing evidence.
    let body = &toks[f.body_start..f.body_end.min(toks.len())];
    let mut k = 0usize;
    while k < body.len() {
        let t = &body[k];
        // `let [mut] name: Limb` / `let [mut] name: Vec<Limb>`.
        if t.is_ident("let") {
            let mut j = k + 1;
            while body.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if body.get(j).is_some_and(|t| t.kind == TokenKind::Ident)
                && body.get(j + 1).is_some_and(|t| t.is_punct(":"))
            {
                let name = body[j].text.clone();
                let mut m = j + 2;
                let mut saw_limb = false;
                let mut saw_container = false;
                while m < body.len() && !body[m].is_punct("=") && !body[m].is_punct(";") {
                    match body[m].text.as_str() {
                        "Limb" => saw_limb = true,
                        "Vec" | "[" => saw_container = true,
                        _ => {}
                    }
                    m += 1;
                }
                if saw_limb {
                    if saw_container {
                        vars.slices.insert(name);
                    } else {
                        vars.scalars.insert(name);
                    }
                }
            }
            // `let [mut] name = [&]base[..]…;` — a value loaded out of a
            // known limb slice is limb-typed too (the Sliced64 word-load
            // idiom). Anchored at the RHS head so slice mentions buried in
            // call arguments don't leak typing onto unrelated bindings; a
            // ranged index yields a limb *slice*, a plain index a scalar.
            if body.get(j).is_some_and(|t| t.kind == TokenKind::Ident)
                && body.get(j + 1).is_some_and(|t| t.is_punct("="))
            {
                let name = body[j].text.clone();
                let end = rhs_end(body, j + 2, body.len());
                let mut m = j + 2;
                if body.get(m).is_some_and(|t| t.is_punct("&")) {
                    m += 1;
                }
                if m + 1 < end
                    && body[m].kind == TokenKind::Ident
                    && body[m + 1].is_punct("[")
                    && vars.slices.contains(&body[m].text)
                {
                    let idx_end = rhs_end(body, m + 2, end);
                    let ranged = (m + 2..idx_end)
                        .any(|r| body[r].is_punct("..") || body[r].is_punct("..="));
                    if ranged {
                        vars.slices.insert(name);
                    } else {
                        vars.scalars.insert(name);
                    }
                }
            }
            // `let (a, b) = <limb helper>(..)`.
            if body.get(j).is_some_and(|t| t.is_punct("(")) {
                let mut names = Vec::new();
                let mut m = j + 1;
                while m < body.len() && !body[m].is_punct(")") {
                    if body[m].kind == TokenKind::Ident && !body[m].is_ident("mut") {
                        names.push(body[m].text.clone());
                    }
                    m += 1;
                }
                let is_helper = body.get(m + 1).is_some_and(|t| t.is_punct("="))
                    && body
                        .get(m + 2)
                        .is_some_and(|t| LIMB_TUPLE_HELPERS.contains(&t.text.as_str()));
                if is_helper {
                    vars.scalars.extend(names);
                }
            }
        }
        // `for [&]x in <limb slice>` / `for [&]x in <limb slice>.iter()`.
        if t.is_ident("for") {
            let mut j = k + 1;
            if body.get(j).is_some_and(|t| t.is_punct("&")) {
                j += 1;
            }
            let name = body
                .get(j)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone());
            if let Some(name) = name {
                if body.get(j + 1).is_some_and(|t| t.is_ident("in")) {
                    let base = body.get(j + 2).filter(|t| t.kind == TokenKind::Ident);
                    if base.is_some_and(|b| vars.slices.contains(&b.text)) {
                        vars.scalars.insert(name);
                    }
                }
            }
            // `for (i, [&]x) in <limb slice>.iter().enumerate()` — the
            // second binding walks the slice's elements.
            if body.get(j).is_some_and(|t| t.is_punct("(")) {
                let mut names = Vec::new();
                let mut m = j + 1;
                while m < body.len() && !body[m].is_punct(")") {
                    if body[m].kind == TokenKind::Ident && !body[m].is_ident("mut") {
                        names.push(body[m].text.clone());
                    }
                    m += 1;
                }
                let elem = names.last().cloned();
                let base = body
                    .get(m + 2)
                    .filter(|_| body.get(m + 1).is_some_and(|t| t.is_ident("in")))
                    .filter(|t| t.kind == TokenKind::Ident);
                let enumerated = (m + 3..body.len().min(m + 12))
                    .take_while(|&r| !body[r].is_punct("{"))
                    .any(|r| body[r].is_ident("enumerate"));
                if let (Some(elem), Some(base)) = (elem, base) {
                    if enumerated && vars.slices.contains(&base.text) {
                        vars.scalars.insert(elem);
                    }
                }
            }
        }
        k += 1;
    }
    vars
}

/// L11: on the Eq. 1 hot paths, bare `+`/`-`/`*`/`<<` on a limb-typed
/// left operand is a silent-wrap hole in release mode. Route the step
/// through `limb.rs` helpers (`adc`, `mul_add_carry`, `shl_step`, …) or
/// use an explicit `wrapping_`/`checked_`/`carrying` form.
pub fn l11_limb_arithmetic(sources: &[SourceFile], ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &ws.fns {
        let src = &sources[f.file];
        let rel = &src.rel_path;
        let in_scope = rel.starts_with("crates/bignum/src/nat/")
            || rel.starts_with("crates/core/src/");
        if !in_scope || f.is_test || f.body_start >= f.body_end {
            continue;
        }
        let toks = &src.tokens;
        let vars = limb_vars(toks, f);
        if vars.scalars.is_empty() && vars.slices.is_empty() {
            continue;
        }
        for i in f.body_start..f.body_end.min(toks.len()) {
            let t = &toks[i];
            if t.kind != TokenKind::Punct || !BANNED_OPS.contains(&t.text.as_str()) {
                continue;
            }
            let Some(left) = left_operand(toks, i, f.body_start) else {
                continue;
            };
            let limb_left = match &left {
                Operand::Ident(name) => vars.scalars.contains(name),
                Operand::Index(base) => vars.slices.contains(base),
            };
            if !limb_left {
                continue;
            }
            let line = t.line;
            if src.is_test_line(line) || src.allowed(RuleId::L11, line) {
                continue;
            }
            let name = match &left {
                Operand::Ident(n) => n.clone(),
                Operand::Index(b) => format!("{b}[..]"),
            };
            out.push(violation(
                RuleId::L11,
                rel,
                line,
                format!(
                    "bare `{}` on limb-typed `{name}` can wrap silently in release \
                     mode — use a `limb.rs` helper (adc/sbb/mul_wide/shl_step) or \
                     an explicit wrapping_/checked_ call (Eq. 1 bit-exactness)",
                    t.text
                ),
            ));
        }
    }
    out
}

#[derive(Debug)]
enum Operand {
    Ident(String),
    Index(String),
}

/// The token-level left operand of the operator at `op_idx`: a plain
/// ident, or `base[..]` indexing (resolved to `base`). Returns `None`
/// for anything else (parenthesized subexpressions, literals, unary
/// uses) — the rule under-approximates rather than guessing.
fn left_operand(toks: &[Token], op_idx: usize, floor: usize) -> Option<Operand> {
    if op_idx == 0 || op_idx <= floor {
        return None;
    }
    let prev = &toks[op_idx - 1];
    if prev.kind == TokenKind::Ident {
        // `&name <<` is a reference — still the same value; accept.
        return Some(Operand::Ident(prev.text.clone()));
    }
    if prev.is_punct("]") {
        // Walk back to the matching `[` and take the ident before it.
        let mut depth = 0i32;
        let mut i = op_idx - 1;
        while i > floor {
            match toks[i].text.as_str() {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        if i >= 1 && toks[i - 1].kind == TokenKind::Ident {
                            return Some(Operand::Index(toks[i - 1].text.clone()));
                        }
                        return None;
                    }
                }
                _ => {}
            }
            i -= 1;
        }
    }
    None
}

// ---------------------------------------------------------------------
// L12 — atomic-ordering audit
// ---------------------------------------------------------------------

/// Atomic methods whose ordering argument L12 inspects.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// L12: `Ordering::Relaxed` is for statistic counters only. On a
/// gate/flag `AtomicBool` (trace switch, shutdown flag) a relaxed access
/// synchronizes nothing: the reader may act on the flag yet miss the
/// writes the flag was supposed to publish. Flag atomics use
/// Acquire/Release (or stronger), or carry a justified allow.
///
/// Scope is library source *plus* the `vendor/rayon` pool: the pool's
/// latch and termination flags are the load-bearing gate atomics of the
/// whole parallel feature (a relaxed latch probe could report a join
/// complete before its result write is visible), so they get the same
/// audit as workspace flags.
pub fn l12_atomic_orderings(sources: &[SourceFile], ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &ws.fns {
        let src = &sources[f.file];
        let in_scope = is_library_source(&src.rel_path) || is_pool_source(&src.rel_path);
        if f.is_test || !in_scope {
            continue;
        }
        let toks = &src.tokens;
        for i in f.body_start..f.body_end.min(toks.len()) {
            let relaxed = toks[i].is_ident("Relaxed")
                && i >= 2
                && toks[i - 1].is_punct("::")
                && toks[i - 2].is_ident("Ordering");
            if !relaxed {
                continue;
            }
            let Some((method, receiver)) = enclosing_atomic_call(toks, i, f.body_start) else {
                continue;
            };
            if !ws.atomic_bools.contains(&receiver) {
                continue;
            }
            let line = toks[i].line;
            if src.is_test_line(line) || src.allowed(RuleId::L12, line) {
                continue;
            }
            out.push(violation(
                RuleId::L12,
                &src.rel_path,
                line,
                format!(
                    "`Ordering::Relaxed` on gate/flag atomic `{receiver}.{method}` — \
                     a relaxed access publishes/observes nothing; use \
                     Acquire/Release (or stronger), or justify with \
                     `// apc-lint: allow(L12) -- <reason>` if it is a pure \
                     statistic"
                ),
            ));
        }
    }
    out
}

/// Walks back from a `Relaxed` token to the call it is an argument of;
/// returns `(method, receiver)` when that call is `<recv>.<atomic
/// method>(..)`.
fn enclosing_atomic_call(toks: &[Token], relaxed_idx: usize, floor: usize) -> Option<(String, String)> {
    let mut depth = 0i32;
    let mut i = relaxed_idx;
    while i > floor {
        i -= 1;
        match toks[i].text.as_str() {
            ")" => depth += 1,
            "(" => {
                if depth == 0 {
                    // Opening paren of the enclosing call.
                    let method = toks.get(i.checked_sub(1)?)?;
                    if method.kind != TokenKind::Ident
                        || !ATOMIC_METHODS.contains(&method.text.as_str())
                    {
                        return None;
                    }
                    if !toks.get(i.checked_sub(2)?)?.is_punct(".") {
                        return None;
                    }
                    let recv = receiver_base(toks, i - 2, floor)?;
                    return Some((method.text.clone(), recv));
                }
                depth -= 1;
            }
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// The base ident of the receiver ending right before token `dot_idx`
/// (`self.stats.cycles[i]` → `cycles`; `ENABLED` → `ENABLED`).
fn receiver_base(toks: &[Token], dot_idx: usize, floor: usize) -> Option<String> {
    let mut i = dot_idx; // points at the `.` before the method
    // Skip a trailing index expression.
    if i >= 1 && toks[i - 1].is_punct("]") {
        let mut depth = 0i32;
        let mut j = i - 1;
        while j > floor {
            match toks[j].text.as_str() {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        i = j;
                        break;
                    }
                }
                _ => {}
            }
            j -= 1;
        }
    }
    if i >= 1 && toks[i - 1].kind == TokenKind::Ident {
        return Some(toks[i - 1].text.clone());
    }
    None
}
