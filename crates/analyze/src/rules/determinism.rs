//! Determinism rule: simulation-facing crates must not iterate hash-order
//! collections or read ambient time/randomness.
//!
//! The simulator's replay and golden-file guarantees (DESIGN §7) hold only
//! if every sweep over per-flow state visits flows in a deterministic
//! order. `std::collections::HashMap`/`HashSet` randomize iteration order
//! per process, so a sweep over one silently varies run-to-run even with a
//! fixed seed — the bug class this rule eliminates at lint time rather
//! than via golden-file flakes.
//!
//! A hash type is `HashMap`/`HashSet` or any `type` alias, in the scoped
//! crates, whose definition names one (directly or through another such
//! alias), so `type Index = HashMap<…>` cannot hide a field or local from
//! the rule.

use std::collections::BTreeSet;

use super::{body, ident_text, punct_at, Unit};
use crate::lexer::TokKind;
use crate::report::{Finding, Rule};

/// Crates whose code feeds simulation state (the replay surface).
pub const SCOPE: &[&str] = &["core", "host", "nic", "mem", "net", "pcie", "sim", "chaos"];

/// Methods whose call on a hash collection observes iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Identifiers that mean ambient (wall-clock / entropy) state.
const AMBIENT: &[&str] = &["SystemTime", "thread_rng", "RandomState", "DefaultHasher"];

/// Run the rule over all units.
pub fn check(units: &[Unit]) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Hash-type aliases, then field names with hash-based types, both
    // collected across the whole scope: methods usually live beside the
    // struct, but cross-file access via a public field (or an alias
    // defined in another crate) must be caught too.
    let aliases = hash_aliases(units);
    let mut hash_fields: BTreeSet<String> = BTreeSet::new();
    for u in units {
        if !SCOPE.contains(&u.src.crate_name.as_str()) {
            continue;
        }
        for s in &u.pf.structs {
            if s.is_test {
                continue;
            }
            for f in &s.fields {
                let via_alias =
                    f.ty.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .any(|w| aliases.contains(w));
                if f.ty.contains("HashMap") || f.ty.contains("HashSet") || via_alias {
                    hash_fields.insert(f.name.clone());
                }
            }
        }
    }

    for u in units {
        if !SCOPE.contains(&u.src.crate_name.as_str()) {
            continue;
        }
        for f in &u.pf.fns {
            if f.is_test {
                continue;
            }
            let toks = body(&u.pf, f);
            let locals = hash_locals(toks, &aliases);
            let in_scope = |name: &str| hash_fields.contains(name) || locals.contains(name);

            let mut i = 0usize;
            while i < toks.len() {
                // `recv.iter()` / `recv.drain()` / … where recv is hash-typed.
                if punct_at(toks, i, '.')
                    && ident_text(toks, i + 1).is_some_and(|m| ITER_METHODS.contains(&m))
                    && punct_at(toks, i + 2, '(')
                {
                    if let Some(recv) = i.checked_sub(1).and_then(|j| ident_text(toks, j)) {
                        if in_scope(recv) {
                            let line = toks[i + 1].line;
                            findings.push(Finding {
                                rule: Rule::Determinism,
                                file: u.src.rel.clone(),
                                line,
                                message: format!(
                                    "hash-order iteration: `{recv}.{}()` on a HashMap/HashSet \
                                     in simulation code",
                                    toks[i + 1].text
                                ),
                                hint: "use BTreeMap/BTreeSet, or collect keys and sort before \
                                       iterating, so replay order is deterministic"
                                    .to_string(),
                            });
                        }
                    }
                    i += 3;
                    continue;
                }
                // `for pat in <expr> {` where <expr> is a bare hash collection.
                if toks[i].is_ident("for") {
                    if let Some((expr_start, expr_end)) = for_loop_expr(toks, i) {
                        let expr = &toks[expr_start..expr_end];
                        let has_call = expr.iter().any(|t| t.is_punct('('));
                        let last_ident = expr
                            .iter()
                            .rev()
                            .find(|t| t.kind == TokKind::Ident)
                            .map(|t| t.text.as_str());
                        if !has_call {
                            if let Some(name) = last_ident {
                                if in_scope(name) {
                                    findings.push(Finding {
                                        rule: Rule::Determinism,
                                        file: u.src.rel.clone(),
                                        line: toks[i].line,
                                        message: format!(
                                            "hash-order iteration: `for … in {name}` over a \
                                             HashMap/HashSet in simulation code"
                                        ),
                                        hint: "use BTreeMap/BTreeSet, or collect keys and sort \
                                               before iterating, so replay order is deterministic"
                                            .to_string(),
                                    });
                                }
                            }
                        }
                    }
                }
                i += 1;
            }
        }

        // Ambient time/randomness: scan all tokens except test-fn bodies.
        let test_spans: Vec<(usize, usize)> =
            u.pf.fns
                .iter()
                .filter(|f| f.is_test)
                .map(|f| f.body)
                .collect();
        let toks = &u.pf.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            if test_spans.iter().any(|&(a, b)| i >= a && i < b) {
                continue;
            }
            let flagged = if AMBIENT.contains(&t.text.as_str()) {
                Some(t.text.clone())
            } else if t.text == "Instant" {
                // `Instant::now()` or a `std::time::Instant` path — but not
                // unrelated identifiers that happen to be named Instant.
                let now_follows = punct_at(toks, i + 1, ':')
                    && punct_at(toks, i + 2, ':')
                    && ident_text(toks, i + 3) == Some("now");
                let time_precedes = i >= 3
                    && ident_text(toks, i - 3) == Some("time")
                    && punct_at(toks, i - 2, ':')
                    && punct_at(toks, i - 1, ':');
                if now_follows || time_precedes {
                    Some("Instant".to_string())
                } else {
                    None
                }
            } else {
                None
            };
            if let Some(what) = flagged {
                findings.push(Finding {
                    rule: Rule::Determinism,
                    file: u.src.rel.clone(),
                    line: t.line,
                    message: format!(
                        "ambient nondeterminism: `{what}` in simulation code reads wall-clock \
                         time or process entropy"
                    ),
                    hint: "thread `ceio_sim::Time` (the simulated clock) or `ceio_sim::Rng` \
                           (the seeded generator) through the call path instead"
                        .to_string(),
                });
            }
        }
    }
    findings
}

/// Names of `type` aliases in the scoped crates whose right-hand side
/// names `HashMap`/`HashSet` or another such alias (to a fixed point, so
/// chains of aliases resolve in any declaration order).
fn hash_aliases(units: &[Unit]) -> BTreeSet<String> {
    // (alias, identifiers of its definition)
    let mut defs: Vec<(String, Vec<String>)> = Vec::new();
    for u in units {
        if !SCOPE.contains(&u.src.crate_name.as_str()) {
            continue;
        }
        let toks = &u.pf.toks;
        for i in 0..toks.len() {
            if !toks[i].is_ident("type") {
                continue;
            }
            let Some(name) = ident_text(toks, i + 1) else {
                continue;
            };
            // Skip generics to the `=`; an associated type declaration in
            // a trait (`type Item;`) has none.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
                j += 1;
            }
            if !punct_at(toks, j, '=') {
                continue;
            }
            let rhs = toks[j + 1..]
                .iter()
                .take_while(|t| !t.is_punct(';'))
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
                .collect();
            defs.push((name.to_string(), rhs));
        }
    }
    let mut out: BTreeSet<String> = BTreeSet::new();
    loop {
        let before = out.len();
        for (name, rhs) in &defs {
            if rhs
                .iter()
                .any(|w| w == "HashMap" || w == "HashSet" || out.contains(w))
            {
                out.insert(name.clone());
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

/// Local `let` bindings with hash-based types (including hash aliases) in
/// a body.
fn hash_locals(toks: &[super::Tok], aliases: &BTreeSet<String>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if ident_text(toks, j) == Some("mut") {
                j += 1;
            }
            if let Some(name) = ident_text(toks, j) {
                // Scan the statement (to the top-level `;`) for hash types.
                let mut depth = 0i32;
                let mut k = j + 1;
                let mut is_hash = false;
                while k < toks.len() {
                    let t = &toks[k];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    } else if t.is_punct(';') && depth == 0 {
                        break;
                    } else if t.is_ident("HashMap")
                        || t.is_ident("HashSet")
                        || (t.kind == TokKind::Ident && aliases.contains(&t.text))
                    {
                        is_hash = true;
                    }
                    k += 1;
                }
                if is_hash {
                    out.insert(name.to_string());
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// For a `for` keyword at `i`, the token range of the iterated expression
/// (between the top-level `in` and the loop `{`).
fn for_loop_expr(toks: &[super::Tok], i: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut j = i + 1;
    let in_pos = loop {
        let t = toks.get(j)?;
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') && depth == 0 {
            // Malformed / not actually a loop header.
            return None;
        } else if t.is_ident("in") && depth == 0 {
            break j;
        }
        j += 1;
    };
    let mut k = in_pos + 1;
    let mut depth2 = 0i32;
    loop {
        let t = toks.get(k)?;
        if t.is_punct('(') || t.is_punct('[') {
            depth2 += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth2 -= 1;
        } else if t.is_punct('{') && depth2 == 0 {
            break;
        }
        k += 1;
    }
    Some((in_pos + 1, k))
}
