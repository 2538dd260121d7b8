//! Intraprocedural dataflow analyses over the token stream.
//!
//! Two fact engines run per function body:
//!
//! * **Guard tracking** — models `MutexGuard`/`RwLockGuard` lifetimes
//!   through `let` / `if let` / `while let` / `match` bindings, nested
//!   blocks, explicit `drop()`, guard moves (`let g2 = g;`) and
//!   single-expression temporaries. It reports blocking rendezvous
//!   operations (`send`/`recv`/`recv_timeout`/zero-arg `join`) reached
//!   while any guard is live, re-acquisition of a lock already held
//!   (immediate self-deadlock for `std::sync::Mutex`), and emits the
//!   acquisition-order edges the global lock-order graph is built from.
//! * **Unit taint** — tags bindings carrying `Tokens`/`Blocks`/`Bytes`
//!   quantities (from parameter ascriptions, `let` ascriptions and
//!   constructors), follows raw escapes through `.get()` / `.0`, and
//!   reports cross-unit raw arithmetic plus `pub fn`s whose raw-integer
//!   return value is a laundered unit quantity.
//!
//! Both are line-agnostic: a binding and its use can be any number of
//! statements (or physical lines) apart — exactly the violations PR 2's
//! per-line lexical pass could not see.

use crate::lexer::{Tok, TokKind};
use crate::syntax::FnItem;

// ---------------------------------------------------------------------------
// Guard tracking.
// ---------------------------------------------------------------------------

/// How long an acquired guard lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardScope {
    /// Bound by `let` at brace depth `d`: dies when that block closes.
    Block(usize),
    /// Temporary (no binding): dies at the end of the statement at depth
    /// `d` (next `;`, or the block close).
    Stmt(usize),
    /// Bound by `if let` / `while let` / `match`: becomes `Block` at the
    /// next `{`.
    Pending,
}

#[derive(Debug, Clone)]
struct Guard {
    /// Binding names that own this guard (aliases accumulate on moves).
    names: Vec<String>,
    /// Normalized lock path (`self.` stripped), e.g. `audit_state`.
    path: String,
    /// Line of the acquisition.
    line: usize,
    scope: GuardScope,
}

impl Guard {
    fn display_name(&self) -> &str {
        self.names.first().map(String::as_str).unwrap_or(&self.path)
    }
}

/// One acquisition-order fact: `acquired` was taken while `held` was live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock already held.
    pub held: String,
    /// Lock acquired under it.
    pub acquired: String,
    /// Line of the inner acquisition.
    pub line: usize,
}

/// Guard-tracking results for one function.
#[derive(Debug, Default)]
pub struct LockFacts {
    /// `(line, message)` guard-lifetime violations (lock-discipline family).
    pub violations: Vec<(usize, String)>,
    /// `(line, message)` re-lock self-deadlocks (lock-order family).
    pub order_violations: Vec<(usize, String)>,
    /// Acquisition-order edges for the global lock-order graph.
    pub edges: Vec<LockEdge>,
}

const BLOCKING_CALLS: [&str; 4] = ["send", "recv", "recv_timeout", "recv_deadline"];

/// Run guard tracking over one function body.
pub fn lock_facts(f: &FnItem) -> LockFacts {
    let toks = &f.body;
    let mut facts = LockFacts::default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // Paren-group stack: `true` when the group is the argument list of a
    // blocking call (an acquisition inside it is held across the call).
    let mut arg_groups: Vec<bool> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Open if t.text == "{" => {
                depth += 1;
                for g in guards.iter_mut() {
                    if g.scope == GuardScope::Pending {
                        g.scope = GuardScope::Block(depth);
                    }
                }
            }
            TokKind::Close if t.text == "}" => {
                guards.retain(|g| {
                    !matches!(g.scope, GuardScope::Block(d) | GuardScope::Stmt(d) if d >= depth)
                });
                depth = depth.saturating_sub(1);
            }
            TokKind::Open => {
                arg_groups.push(false);
            }
            TokKind::Close => {
                arg_groups.pop();
            }
            TokKind::Punct if t.text == ";" => {
                guards.retain(|g| !matches!(g.scope, GuardScope::Stmt(d) if d >= depth));
            }
            // `drop(name)` ends a guard early.
            TokKind::Ident if t.text == "drop" => {
                if let (Some(open), Some(name), Some(close)) =
                    (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
                {
                    if open.text == "(" && close.text == ")" && name.kind == TokKind::Ident {
                        guards.retain(|g| !g.names.iter().any(|n| n == &name.text));
                    }
                }
            }
            // Guard move: `let g2 = g;` transfers ownership to `g2`.
            TokKind::Ident if t.text == "let" => {
                if let Some(renamed) = match_guard_move(toks, i, &guards) {
                    let (old, new) = renamed;
                    for g in guards.iter_mut() {
                        if g.names.iter().any(|n| n == &old) {
                            g.names.push(new.clone());
                        }
                    }
                }
            }
            TokKind::Punct if t.text == "." => {
                if let Some(call) = toks.get(i + 1).filter(|c| c.kind == TokKind::Ident) {
                    let open_paren =
                        toks.get(i + 2).map(|o| o.text == "(").unwrap_or(false);
                    let zero_arg =
                        open_paren && toks.get(i + 3).map(|c| c.text == ")").unwrap_or(false);
                    let is_blocking = open_paren
                        && (BLOCKING_CALLS.contains(&call.text.as_str())
                            || (call.text == "join" && zero_arg));
                    if is_blocking {
                        for g in &guards {
                            facts.violations.push((
                                call.line,
                                format!(
                                    "channel/thread blocking op while MutexGuard `{g}` is \
                                     live (acquired line {l}); drop the guard (narrow scope \
                                     or `drop({g})`) before blocking",
                                    g = g.display_name(),
                                    l = g.line
                                ),
                            ));
                        }
                        // Mark the argument group: a lock taken inside the
                        // arguments is held across the call itself.
                        if !zero_arg {
                            // The `(` will be pushed when we reach it; flag
                            // it via a lookahead marker instead.
                            arg_groups.push(true);
                            // Skip the `(` so it is not pushed twice.
                            i += 3;
                            continue;
                        }
                    }
                    if let Some(acq) = match_acquisition(toks, i) {
                        on_acquisition(toks, i, acq, depth, &mut guards, &mut facts, &arg_groups);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    facts
}

/// `.lock()` always; `.read()` / `.write()` only when the receiver names a
/// lock (`*lock*` / `*rw*`) — plain `.read()`/`.write()` is usually IO.
fn match_acquisition(toks: &[Tok], dot: usize) -> Option<String> {
    let call = toks.get(dot + 1)?;
    let zero_arg = toks.get(dot + 2).map(|o| o.text == "(").unwrap_or(false)
        && toks.get(dot + 3).map(|c| c.text == ")").unwrap_or(false);
    if !zero_arg {
        return None;
    }
    let path = receiver_path(toks, dot);
    match call.text.as_str() {
        "lock" => Some(path),
        "read" | "write" => {
            let last = path.rsplit('.').next().unwrap_or(&path).to_ascii_lowercase();
            (last.contains("lock") || last.contains("rw")).then_some(path)
        }
        _ => None,
    }
}

/// The dotted path feeding a method call: walk back over `ident`, `.`,
/// `::` chains. `self.` is stripped so driver-side `audit_state.lock()`
/// and server-side `self.audit_state.lock()` name the same lock.
fn receiver_path(toks: &[Tok], dot: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut k = dot;
    while k > 0 {
        let t = &toks[k - 1];
        match t.kind {
            TokKind::Ident => parts.push(t.text.clone()),
            TokKind::Punct if t.text == "." || t.text == ":" => {
                // Separators join; `::` arrives as two `:` puncts.
                if parts.is_empty() {
                    break;
                }
            }
            _ => break,
        }
        k -= 1;
    }
    parts.reverse();
    let mut path = parts.join(".");
    if let Some(stripped) = path.strip_prefix("self.") {
        path = stripped.to_string();
    }
    if path.is_empty() {
        path = "<expr>".to_string();
    }
    path
}

#[allow(clippy::too_many_arguments)]
fn on_acquisition(
    toks: &[Tok],
    dot: usize,
    path: String,
    depth: usize,
    guards: &mut Vec<Guard>,
    facts: &mut LockFacts,
    arg_groups: &[bool],
) {
    let line = toks[dot].line;
    // Lock-order edges + re-lock detection against every live guard.
    for g in guards.iter() {
        facts.edges.push(LockEdge { held: g.path.clone(), acquired: path.clone(), line });
        if g.path == path {
            facts.order_violations.push((
                line,
                format!(
                    "re-locks `{path}` while the guard from line {} is still live: \
                     std::sync::Mutex is not reentrant (self-deadlock)",
                    g.line
                ),
            ));
        }
    }
    if arg_groups.iter().any(|b| *b) {
        facts.violations.push((
            line,
            format!(
                "MutexGuard `{path}` acquired inside the arguments of a blocking \
                 channel/thread call: the guard is held across the rendezvous"
            ),
        ));
    }
    // Find the statement start and classify the binding.
    let mut start = dot;
    // Walk back past the receiver path first.
    while start > 0 {
        let t = &toks[start - 1];
        let boundary = t.text == ";"
            || (t.kind == TokKind::Open && t.text == "{")
            || (t.kind == TokKind::Close && t.text == "}");
        if boundary {
            break;
        }
        start -= 1;
    }
    let span = &toks[start..dot];
    let let_pos = span.iter().rposition(|t| t.is_ident("let"));
    let scoped = span.iter().any(|t| {
        t.is_ident("if") || t.is_ident("while") || t.is_ident("match") || t.is_ident("for")
    });
    match let_pos {
        Some(lp) => {
            // Pattern tokens between `let` and the `=`.
            let eq = span[lp..].iter().position(|t| t.text == "=").map(|p| p + lp);
            let pat = match eq {
                Some(e) => &span[lp + 1..e],
                None => &span[lp + 1..],
            };
            // `let v = *m.lock()...` copies the value out: the guard is a
            // statement temporary, not bound to `v`.
            let deref = eq
                .map(|e| span[e + 1..].iter().any(|t| t.text == "*"))
                .unwrap_or(false);
            if deref {
                guards.push(Guard {
                    names: Vec::new(),
                    path,
                    line,
                    scope: GuardScope::Stmt(depth),
                });
                return;
            }
            let names: Vec<String> = pat
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .filter(|t| !matches!(t.text.as_str(), "mut" | "ref" | "Ok" | "Some" | "Err"))
                .map(|t| t.text.clone())
                .collect();
            guards.push(Guard {
                names,
                path,
                line,
                scope: if scoped { GuardScope::Pending } else { GuardScope::Block(depth) },
            });
        }
        None if scoped => {
            // `match m.lock() { ... }`: guard borrowed for the whole group.
            guards.push(Guard { names: Vec::new(), path, line, scope: GuardScope::Pending });
        }
        None => {
            // Expression temporary: lives to the end of the statement.
            guards.push(Guard { names: Vec::new(), path, line, scope: GuardScope::Stmt(depth) });
        }
    }
}

/// `let new = old;` where `old` is a live guard: returns `(old, new)`.
fn match_guard_move(toks: &[Tok], let_idx: usize, guards: &[Guard]) -> Option<(String, String)> {
    let mut k = let_idx + 1;
    if toks.get(k).map(|t| t.is_ident("mut")).unwrap_or(false) {
        k += 1;
    }
    let new = toks.get(k).filter(|t| t.kind == TokKind::Ident)?;
    if !toks.get(k + 1).map(|t| t.text == "=").unwrap_or(false) {
        return None;
    }
    let old = toks.get(k + 2).filter(|t| t.kind == TokKind::Ident)?;
    if !toks.get(k + 3).map(|t| t.text == ";").unwrap_or(false) {
        return None;
    }
    guards
        .iter()
        .any(|g| g.names.iter().any(|n| n == &old.text))
        .then(|| (old.text.clone(), new.text.clone()))
}

// ---------------------------------------------------------------------------
// Unit taint.
// ---------------------------------------------------------------------------

const UNITS: [&str; 3] = ["Tokens", "Blocks", "Bytes"];

/// What a binding carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct UnitTag {
    /// Index into [`UNITS`].
    unit: usize,
    /// `true` when the binding holds the *raw* integer escaped via
    /// `.get()` / `.0`, not the newtype itself.
    raw: bool,
}

/// Run unit-taint analysis over one function; returns `(line, message)`
/// violations.
pub fn unit_taint(f: &FnItem) -> Vec<(usize, String)> {
    let mut tags: std::collections::BTreeMap<String, UnitTag> = std::collections::BTreeMap::new();
    let mut out = Vec::new();

    // Parameter ascriptions: `name: [&][mut] Unit`.
    let sig = &f.sig;
    for i in 0..sig.len() {
        if sig[i].kind != TokKind::Ident || !sig.get(i + 1).map(|t| t.text == ":").unwrap_or(false)
        {
            continue;
        }
        // Skip `::` path segments.
        if sig.get(i + 2).map(|t| t.text == ":").unwrap_or(false)
            || (i > 0 && sig[i - 1].text == ":")
        {
            continue;
        }
        let mut k = i + 2;
        while sig
            .get(k)
            .map(|t| t.text == "&" || t.is_ident("mut") || t.kind == TokKind::Lifetime)
            .unwrap_or(false)
        {
            k += 1;
        }
        if let Some(unit) = sig.get(k).and_then(|t| UNITS.iter().position(|u| t.is_ident(u))) {
            tags.insert(sig[i].text.clone(), UnitTag { unit, raw: false });
        }
    }

    let toks = &f.body;
    // Pass 1: `let` bindings (in statement order — forward propagation).
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("let") {
            if let Some((name, tag)) = classify_let(toks, i, &tags) {
                tags.insert(name, tag);
            }
        }
        i += 1;
    }

    // Pass 2: cross-unit raw arithmetic.
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Punct || !(t.text == "+" || t.text == "-") {
            continue;
        }
        // Binary position: something value-like on the left, and not a
        // compound assignment / arrow on the right.
        let binary = i > 0
            && (matches!(toks[i - 1].kind, TokKind::Ident | TokKind::Int | TokKind::Float)
                || toks[i - 1].kind == TokKind::Close);
        let next_eq = toks.get(i + 1).map(|n| n.text == "=" || n.text == ">").unwrap_or(false);
        if !binary || next_eq {
            continue;
        }
        let lhs = operand_unit_backward(toks, i, &tags);
        let rhs = operand_unit_forward(toks, i + 1, &tags);
        if let (Some(a), Some(b)) = (lhs, rhs) {
            if a != b {
                out.push((
                    t.line,
                    format!(
                        "cross-unit raw arithmetic: a {} count is {}ed with a {} count \
                         outside the sanctioned gllm-units conversions (to_blocks/\
                         full_blocks/to_tokens)",
                        UNITS[a],
                        if t.text == "+" { "add" } else { "subtract" },
                        UNITS[b]
                    ),
                ));
            }
        }
    }

    // Pass 3: pub fn returning a laundered raw unit.
    if f.is_pub && returns_raw_int(sig) {
        if let Some((line, unit)) = final_raw_escape(toks, &tags) {
            out.push((
                line,
                format!(
                    "`pub fn {}` returns a raw integer that is a {} quantity escaped via \
                     `.get()`/`.0`; return the {} newtype at public boundaries",
                    f.name, UNITS[unit], UNITS[unit]
                ),
            ));
        }
    }
    out
}

/// Classify `let [mut] name [: Ty] = rhs ;` for unit taint.
fn classify_let(
    toks: &[Tok],
    let_idx: usize,
    tags: &std::collections::BTreeMap<String, UnitTag>,
) -> Option<(String, UnitTag)> {
    let mut k = let_idx + 1;
    if toks.get(k).map(|t| t.is_ident("mut")).unwrap_or(false) {
        k += 1;
    }
    let name = toks.get(k).filter(|t| t.kind == TokKind::Ident)?.text.clone();
    k += 1;
    // Optional ascription `: Unit`.
    if toks.get(k).map(|t| t.text == ":").unwrap_or(false) {
        if let Some(unit) = toks.get(k + 1).and_then(|t| UNITS.iter().position(|u| t.is_ident(u)))
        {
            return Some((name, UnitTag { unit, raw: false }));
        }
        // Ascribed to something else: not a unit binding.
        while toks.get(k).map(|t| t.text != "=" && t.text != ";").unwrap_or(false) {
            k += 1;
        }
    }
    if !toks.get(k).map(|t| t.text == "=").unwrap_or(false) {
        return None;
    }
    let rhs = k + 1;
    // `let x = Unit(...)`.
    if let Some(unit) = toks.get(rhs).and_then(|t| UNITS.iter().position(|u| t.is_ident(u))) {
        if toks.get(rhs + 1).map(|t| t.text == "(").unwrap_or(false) {
            return Some((name, UnitTag { unit, raw: false }));
        }
    }
    // `let x = y;` / `let x = y.get()...;` / `let x = y.0;` with y tagged.
    let src = toks.get(rhs).filter(|t| t.kind == TokKind::Ident)?;
    let tag = tags.get(&src.text)?;
    let after = toks.get(rhs + 1)?;
    if after.text == ";" {
        return Some((name, *tag));
    }
    if after.text == "." && !tag.raw {
        let field = toks.get(rhs + 2)?;
        let escaped = (field.is_ident("get")
            && toks.get(rhs + 3).map(|t| t.text == "(").unwrap_or(false))
            || (field.kind == TokKind::Int && field.text == "0");
        if escaped {
            return Some((name, UnitTag { unit: tag.unit, raw: true }));
        }
    }
    None
}

/// Resolve the operand ending at `op_idx - 1`: `x.get()`, `x.0`, or a raw
/// tagged ident.
fn operand_unit_backward(
    toks: &[Tok],
    op_idx: usize,
    tags: &std::collections::BTreeMap<String, UnitTag>,
) -> Option<usize> {
    let prev = |n: usize| -> Option<&Tok> { op_idx.checked_sub(n).and_then(|k| toks.get(k)) };
    // `x . get ( )` ⇐
    if prev(1)?.text == ")"
        && prev(2)?.text == "("
        && prev(3)?.is_ident("get")
        && prev(4)?.text == "."
    {
        if let Some(x) = prev(5) {
            if x.kind == TokKind::Ident {
                return tags.get(&x.text).map(|t| t.unit);
            }
        }
        return None;
    }
    // `x . 0` ⇐
    if prev(1)?.kind == TokKind::Int && prev(1)?.text == "0" && prev(2)?.text == "." {
        if let Some(x) = prev(3) {
            if x.kind == TokKind::Ident {
                return tags.get(&x.text).map(|t| t.unit);
            }
        }
        return None;
    }
    // Raw tagged ident.
    let x = prev(1)?;
    if x.kind == TokKind::Ident {
        return tags.get(&x.text).filter(|t| t.raw).map(|t| t.unit);
    }
    None
}

/// Resolve the operand starting at `idx`: `x.get()`, `x.0`, or a raw
/// tagged ident.
fn operand_unit_forward(
    toks: &[Tok],
    idx: usize,
    tags: &std::collections::BTreeMap<String, UnitTag>,
) -> Option<usize> {
    let x = toks.get(idx)?;
    if x.kind != TokKind::Ident {
        return None;
    }
    let tag = tags.get(&x.text)?;
    let dot = toks.get(idx + 1);
    if dot.map(|t| t.text == ".").unwrap_or(false) {
        let field = toks.get(idx + 2)?;
        let escaped = (field.is_ident("get")
            && toks.get(idx + 3).map(|t| t.text == "(").unwrap_or(false))
            || (field.kind == TokKind::Int && field.text == "0");
        if escaped && !tag.raw {
            return Some(tag.unit);
        }
        return None;
    }
    tag.raw.then_some(tag.unit)
}

/// Does the signature return `usize` / `u64` (possibly nested in the type)?
fn returns_raw_int(sig: &[Tok]) -> bool {
    let Some(arrow) = sig
        .windows(2)
        .position(|w| matches!(w, [a, b] if a.text == "-" && b.text == ">"))
    else {
        return false;
    };
    sig[arrow + 2..].iter().any(|t| t.is_ident("usize") || t.is_ident("u64"))
}

/// The function's final expression (or an explicit `return`) when it is a
/// raw unit escape: returns `(line, unit)`.
fn final_raw_escape(
    toks: &[Tok],
    tags: &std::collections::BTreeMap<String, UnitTag>,
) -> Option<(usize, usize)> {
    // Explicit `return x.get();` / `return x.0;` / `return raw;` anywhere.
    for i in 0..toks.len() {
        if toks[i].is_ident("return") {
            if let Some(unit) = operand_unit_forward(toks, i + 1, tags) {
                // Must be the whole expression: next meaningful token ends
                // the statement.
                return Some((toks[i].line, unit));
            }
        }
    }
    // Trailing expression: tokens between the last `;`/`{` and the final
    // `}`.
    if toks.len() < 2 {
        return None;
    }
    let end = toks.len() - 1; // final `}`
    let mut start = end;
    while start > 0 {
        let t = &toks[start - 1];
        if t.text == ";" || (t.kind == TokKind::Open && t.text == "{") {
            break;
        }
        start -= 1;
    }
    let tail = &toks[start..end];
    match tail {
        // `x.get()` / `x.0`
        [x, dot, field, open, close]
            if x.kind == TokKind::Ident
                && dot.text == "."
                && field.is_ident("get")
                && open.text == "("
                && close.text == ")" =>
        {
            tags.get(&x.text).filter(|t| !t.raw).map(|t| (x.line, t.unit))
        }
        [x, dot, field]
            if x.kind == TokKind::Ident
                && dot.text == "."
                && field.kind == TokKind::Int
                && field.text == "0" =>
        {
            tags.get(&x.text).filter(|t| !t.raw).map(|t| (x.line, t.unit))
        }
        [x] if x.kind == TokKind::Ident => {
            tags.get(&x.text).filter(|t| t.raw).map(|t| (x.line, t.unit))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::syntax::{functions, source_lines};

    fn first_fn(src: &str) -> FnItem {
        let lexed = lex(src);
        let lines = source_lines(&lexed);
        functions(&lexed, &lines).into_iter().next().expect("one fn")
    }

    #[test]
    fn multiline_binding_is_tracked_across_statements() {
        let src = "fn f() {\n    let guard = state\n        .lock()\n        .unwrap();\n    let x = *guard;\n    let v = rx.recv().unwrap();\n    let _ = (x, v);\n}\n";
        let facts = lock_facts(&first_fn(src));
        assert_eq!(facts.violations.len(), 1, "{:?}", facts.violations);
        assert_eq!(facts.violations[0].0, 6);
        assert!(facts.violations[0].1.contains("MutexGuard `guard` is live"));
    }

    #[test]
    fn guard_move_keeps_the_lock_live() {
        let src = "fn f() {\n    let g = m.lock().unwrap();\n    let g2 = g;\n    tx.send(1).unwrap();\n}\n";
        let facts = lock_facts(&first_fn(src));
        assert_eq!(facts.violations.len(), 1, "{:?}", facts.violations);
    }

    #[test]
    fn if_let_guard_dies_with_its_block() {
        let src = "fn f() {\n    if let Ok(mut g) = m.lock() {\n        *g += 1;\n    }\n    tx.send(1).unwrap();\n}\n";
        let facts = lock_facts(&first_fn(src));
        assert!(facts.violations.is_empty(), "{:?}", facts.violations);
    }

    #[test]
    fn relock_of_the_same_mutex_is_a_self_deadlock() {
        let src = "fn f() {\n    let a = m.lock().unwrap();\n    let b = m.lock().unwrap();\n    let _ = (a, b);\n}\n";
        let facts = lock_facts(&first_fn(src));
        assert_eq!(facts.order_violations.len(), 1);
        assert!(facts.order_violations[0].1.contains("re-locks"));
    }

    #[test]
    fn acquisition_order_edges_are_emitted() {
        let src = "fn f() {\n    let a = alpha.lock().unwrap();\n    let b = beta.lock().unwrap();\n    let _ = (a, b);\n}\n";
        let facts = lock_facts(&first_fn(src));
        assert_eq!(
            facts.edges,
            vec![LockEdge { held: "alpha".into(), acquired: "beta".into(), line: 3 }]
        );
    }

    #[test]
    fn cross_unit_raw_arithmetic_is_flagged() {
        let src = "fn f(t: Tokens, b: Blocks) -> usize {\n    let traw = t.get();\n    let braw = b.get();\n    traw + braw\n}\n";
        let v = unit_taint(&first_fn(src));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].1.contains("cross-unit"));
    }

    #[test]
    fn same_unit_arithmetic_is_fine() {
        let src = "fn f(a: Tokens, b: Tokens) -> usize {\n    a.get() + b.get()\n}\n";
        let v = unit_taint(&first_fn(src));
        // Same unit: no mixing. (The raw-return rule needs a *binding*;
        // a computed sum is plain local arithmetic.)
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn pub_fn_returning_laundered_raw_is_flagged() {
        let src = "pub fn capacity(t: Tokens) -> usize {\n    t.get()\n}\n";
        let v = unit_taint(&first_fn(src));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].1.contains("pub fn capacity"));
    }
}
