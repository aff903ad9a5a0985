//! Conservation rule: every credit-ledger mutator must assert Eq. 1
//! (`assigned + pool + outstanding == total`) before returning, and
//! ledger mutations must stay inside the policy/controller layer.
//!
//! The ledger types are `CreditManager` and its RSS wrapper
//! `ShardedCredits` (crates/core). A *mutator* is any `&mut self` method
//! that writes a ledger field or restructures the per-flow/per-partition
//! maps. Each one must either contain a `debug_assert!(… conserved …)`
//! or delegate to a sibling method that does. Test-gated helpers (the
//! chaos fault hooks) are exempt — they exist to *violate* conservation.

use std::collections::BTreeSet;

use super::{body, ident_text, punct_at, Unit};
use crate::lexer::Tok;
use crate::parse::SelfKind;
use crate::report::{Finding, Rule};

/// The ledger-owning types.
const LEDGER_TYPES: &[&str] = &["CreditManager", "ShardedCredits"];

/// Scalar ledger fields of the Eq. 1 balance.
const LEDGER_FIELDS: &[&str] = &[
    "credits",
    "assigned",
    "owed",
    "free_pool",
    "outstanding",
    "total",
    "configured_total",
    "global_free",
];

/// Map/vec fields whose membership *is* ledger structure.
const LEDGER_MAPS: &[&str] = &["flows", "parts", "owed"];

/// Mutator names too generic to flag at call sites without context; for
/// these the caller scan also requires a credit-ish receiver.
const GENERIC_NAMES: &[&str] = &["release", "grant", "reclaim", "insert", "remove", "new"];

/// Run the rule over all units.
pub fn check(units: &[Unit]) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Pass 1: classify ledger methods.
    struct Mutator {
        name: String,
        checked: bool,
        is_pub: bool,
    }
    let mut mutators: Vec<Mutator> = Vec::new();
    let mut ledger_files: BTreeSet<String> = BTreeSet::new();
    for u in units {
        for f in &u.pf.fns {
            let Some(ty) = f.impl_of.as_deref() else {
                continue;
            };
            if !LEDGER_TYPES.contains(&ty) || f.is_test {
                continue;
            }
            ledger_files.insert(u.src.rel.clone());
            if f.self_kind != Some(SelfKind::RefMut) {
                continue;
            }
            let toks = body(&u.pf, f);
            if !is_ledger_mutation(toks) {
                continue;
            }
            mutators.push(Mutator {
                name: f.name.clone(),
                checked: has_conservation_assert(toks),
                is_pub: f.is_pub,
            });
        }
    }
    let checked_names: BTreeSet<&str> = mutators
        .iter()
        .filter(|m| m.checked)
        .map(|m| m.name.as_str())
        .collect();

    // Pass 2: unchecked mutators may delegate (one level) to a checked one.
    for u in units {
        for f in &u.pf.fns {
            let Some(ty) = f.impl_of.as_deref() else {
                continue;
            };
            if !LEDGER_TYPES.contains(&ty) || f.is_test || f.self_kind != Some(SelfKind::RefMut) {
                continue;
            }
            let toks = body(&u.pf, f);
            if !is_ledger_mutation(toks) || has_conservation_assert(toks) {
                continue;
            }
            if calls_any(toks, &checked_names) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::Conservation,
                file: u.src.rel.clone(),
                line: f.line,
                message: format!(
                    "ledger mutator `{ty}::{}` neither asserts Eq. 1 conservation nor \
                     delegates to a method that does",
                    f.name
                ),
                hint: "add `debug_assert!(self.conserved(), …)` before returning, or route \
                       the mutation through a checked sibling"
                    .to_string(),
            });
        }
    }

    // Pass 3: caller scan — public mutators must only be reached from the
    // policy/controller layer (crates/core). A distinctive mutator name
    // called anywhere else is a layering violation; generic names
    // (release/grant/…) additionally require a credit-ish receiver so an
    // unrelated `.remove()` cannot trip the rule.
    let pub_mutators: BTreeSet<&str> = mutators
        .iter()
        .filter(|m| m.is_pub)
        .map(|m| m.name.as_str())
        .collect();
    for u in units {
        if u.src.crate_name == "core" || ledger_files.contains(&u.src.rel) {
            continue;
        }
        for f in &u.pf.fns {
            if f.is_test {
                continue;
            }
            let toks = body(&u.pf, f);
            for i in 0..toks.len() {
                if !punct_at(toks, i, '.') {
                    continue;
                }
                let Some(m) = ident_text(toks, i + 1) else {
                    continue;
                };
                if !punct_at(toks, i + 2, '(') || !pub_mutators.contains(m) {
                    continue;
                }
                if GENERIC_NAMES.contains(&m) {
                    let recv = i.checked_sub(1).and_then(|j| ident_text(toks, j));
                    let creditish = recv.is_some_and(|r| {
                        let r = r.to_ascii_lowercase();
                        r.contains("credit") || r.contains("sharded") || r.contains("ledger")
                    });
                    if !creditish {
                        continue;
                    }
                }
                findings.push(Finding {
                    rule: Rule::Conservation,
                    file: u.src.rel.clone(),
                    line: toks[i + 1].line,
                    message: format!(
                        "credit-ledger mutator `.{m}(…)` called outside the policy/controller \
                         layer (crates/core)"
                    ),
                    hint: "route credit mutations through the policy layer so Eq. 1 \
                           accounting stays in one place"
                        .to_string(),
                });
            }
        }
    }
    findings
}

/// Whether a body writes a ledger field or restructures a ledger map.
fn is_ledger_mutation(toks: &[Tok]) -> bool {
    for i in 0..toks.len() {
        let Some(name) = ident_text(toks, i) else {
            continue;
        };
        // `let total = …` binds a new local, it does not write the field.
        let after_let = i
            .checked_sub(1)
            .and_then(|j| ident_text(toks, j))
            .is_some_and(|p| p == "let" || p == "mut");
        if LEDGER_FIELDS.contains(&name) && !after_let {
            // `name = …` (not `==`, not `=>`)
            if punct_at(toks, i + 1, '=')
                && !punct_at(toks, i + 2, '=')
                && !punct_at(toks, i + 2, '>')
            {
                return true;
            }
            // `name += …` / `name -= …`
            if (punct_at(toks, i + 1, '+') || punct_at(toks, i + 1, '-'))
                && punct_at(toks, i + 2, '=')
                && !punct_at(toks, i + 3, '=')
            {
                return true;
            }
        }
        if LEDGER_MAPS.contains(&name)
            && punct_at(toks, i + 1, '.')
            && ident_text(toks, i + 2)
                .is_some_and(|m| matches!(m, "insert" | "remove" | "push" | "pop" | "clear"))
            && punct_at(toks, i + 3, '(')
        {
            return true;
        }
    }
    false
}

/// Whether a body contains `debug_assert!(… conserved …)`.
fn has_conservation_assert(toks: &[Tok]) -> bool {
    toks.iter().any(|t| t.is_ident("debug_assert")) && toks.iter().any(|t| t.is_ident("conserved"))
}

/// Whether a body contains a `.name(` call for any name in `names`.
fn calls_any(toks: &[Tok], names: &BTreeSet<&str>) -> bool {
    for i in 0..toks.len() {
        if punct_at(toks, i, '.')
            && ident_text(toks, i + 1).is_some_and(|m| names.contains(m))
            && punct_at(toks, i + 2, '(')
        {
            return true;
        }
    }
    false
}
