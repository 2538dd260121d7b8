//! In-tree static-analysis pass (`gllm-lint`) v2: a zero-dependency Rust
//! token-stream lexer plus an intraprocedural dataflow engine, so checks
//! see *token facts across statements* instead of single source lines. It
//! still runs fully offline as part of the tier-1 gate.
//!
//! Pipeline: [`lexer`] (tokens + comments, strings blanked) → [`syntax`]
//! (per-line stripped view, `lint:allow` collection, per-function token
//! slices) → [`dataflow`] (guard liveness, lock acquisition order, unit
//! taint) → check families → suppression → [`sarif`]/[`ratchet`] reporting.
//!
//! Nine check families (see `DESIGN.md` §7 and §9 for the rationale):
//!
//! * **unit-confusion** — the public interfaces of the scheduler/KV layers
//!   must pass quantities as the `Tokens`/`Blocks`/`Bytes` newtypes from
//!   `gllm-units`, not raw integers.
//! * **panic-freedom** — no `unwrap()`/`expect()`/`panic!`-family macros or
//!   literal-index slicing in non-test code on the `crates/runtime`,
//!   `crates/core` and `crates/lint` hot paths.
//! * **sim-determinism** — no wall clocks, OS entropy, or hash-ordered
//!   containers in `crates/sim`, `crates/core`, `crates/metrics`.
//! * **lock-discipline** — no `MutexGuard` live across channel `send(`/
//!   `recv(` or thread `join()` in `crates/runtime`. v2 tracks guards
//!   through multi-line bindings, `if let`/`match` scopes, moves and
//!   `drop()` — not just one physical line.
//! * **vendor-hygiene** — every `vendor/` path dependency in the root
//!   `Cargo.toml` must resolve to an actual shim crate and be documented.
//! * **lock-order** — the Mutex/RwLock acquisition graph (edges: lock B
//!   taken while lock A is held) must be acyclic, per file and globally
//!   across the runtime; a cycle or a re-lock of a held `std::sync::Mutex`
//!   is a potential deadlock.
//! * **newtype-escape** — taint analysis: `Tokens`/`Blocks`/`Bytes` values
//!   escaping to raw integers via `.get()`/`.0` must not mix units in
//!   arithmetic or cross `pub fn` boundaries as raw `usize`/`u64`.
//! * **float-determinism** — no `.partial_cmp(` comparisons or NaN literals
//!   in the sim/metrics/workload planes: replay must be bit-identical, so
//!   `f64` keys compare with `f64::total_cmp`.
//! * **stale-suppression** — a `lint:allow` that no longer suppresses any
//!   finding is itself a violation (suppressions must not outlive their
//!   reason).
//!
//! Any finding can be suppressed with an inline comment carrying a
//! mandatory reason:
//!
//! ```text
//! do_thing().expect("checked above"); // lint:allow(panic-freedom): checked on the previous line
//! // lint:allow(unit-confusion): the second cap counts sequences, not tokens
//! pub fn budget_caps(...) -> Option<(Tokens, usize)> { ... }
//! ```
//!
//! A trailing allow covers its own line; a standalone allow comment covers
//! the next code line. An allow without a reason, naming an unknown check,
//! or naming `stale-suppression` itself is reported as a violation.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub mod dataflow;
pub mod lexer;
pub mod ratchet;
pub mod sarif;
pub mod syntax;

use syntax::SourceLine;

/// The check families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Check {
    /// Raw integers crossing unit-bearing public interfaces.
    UnitConfusion,
    /// Panicking constructs on runtime/core/lint hot paths.
    PanicFreedom,
    /// Nondeterminism sources in the simulation plane.
    SimDeterminism,
    /// Mutex guards held across blocking channel/thread operations.
    LockDiscipline,
    /// Vendored path dependencies without a shim or README entry.
    VendorHygiene,
    /// Cyclic (or reentrant) lock acquisition order in the runtime.
    LockOrder,
    /// Unit newtype raw escapes mixing units or crossing pub boundaries.
    NewtypeEscape,
    /// Partial f64 orders / NaN injection in deterministic planes.
    FloatDeterminism,
    /// `lint:allow` annotations that suppress nothing.
    StaleSuppression,
}

impl Check {
    /// Every check, in reporting order.
    pub const ALL: [Check; 9] = [
        Check::UnitConfusion,
        Check::PanicFreedom,
        Check::SimDeterminism,
        Check::LockDiscipline,
        Check::VendorHygiene,
        Check::LockOrder,
        Check::NewtypeEscape,
        Check::FloatDeterminism,
        Check::StaleSuppression,
    ];

    /// The kebab-case name used in reports and `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Check::UnitConfusion => "unit-confusion",
            Check::PanicFreedom => "panic-freedom",
            Check::SimDeterminism => "sim-determinism",
            Check::LockDiscipline => "lock-discipline",
            Check::VendorHygiene => "vendor-hygiene",
            Check::LockOrder => "lock-order",
            Check::NewtypeEscape => "newtype-escape",
            Check::FloatDeterminism => "float-determinism",
            Check::StaleSuppression => "stale-suppression",
        }
    }

    /// Parse a check name as written inside `lint:allow(...)`.
    pub fn from_name(name: &str) -> Option<Check> {
        Check::ALL.into_iter().find(|c| c.name() == name)
    }

    /// One-line description for `--list-checks`.
    pub fn describe(self) -> &'static str {
        match self {
            Check::UnitConfusion => {
                "Tokens/Blocks/Bytes newtypes must cross scheduler/KV public interfaces, not raw ints"
            }
            Check::PanicFreedom => {
                "no unwrap()/expect()/panic! family/literal-index slicing in runtime+core+kvcache+lint non-test code"
            }
            Check::SimDeterminism => {
                "no Instant::now/SystemTime/thread_rng/HashMap/HashSet/thread::spawn in sim, core and metrics (threads only via gllm_sim::sweep)"
            }
            Check::LockDiscipline => {
                "no MutexGuard live across channel send(/recv( or thread join() in the runtime (tracked through bindings and blocks)"
            }
            Check::VendorHygiene => {
                "every vendor/ path dep resolves to a shim crate with a vendor/README.md entry"
            }
            Check::LockOrder => {
                "the Mutex/RwLock acquisition graph must be acyclic (per file and globally); re-locking a held Mutex is a self-deadlock"
            }
            Check::NewtypeEscape => {
                "raw escapes of Tokens/Blocks/Bytes (.get()/.0) must not mix units in +/- or return from pub fns as raw usize/u64"
            }
            Check::FloatDeterminism => {
                "no .partial_cmp( or NaN literals in sim/metrics/workload planes; order f64 keys with f64::total_cmp"
            }
            Check::StaleSuppression => {
                "every lint:allow(...) must still suppress at least one live finding"
            }
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The check that fired.
    pub check: Check,
    /// File the finding is in (workspace-relative when produced by
    /// [`lint_workspace`]).
    pub path: PathBuf,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.check,
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Line-oriented checks (ported from the v1 lexical pass; they now consume
// the lexer-derived per-line view instead of the ad-hoc string scanner).
// ---------------------------------------------------------------------------

/// Identifier fragments that signal a unit-bearing quantity.
const UNIT_HINTS: [&str; 6] = ["token", "block", "byte", "capacit", "budget", "slack"];

fn has_unit_hint(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    UNIT_HINTS.iter().any(|h| lower.contains(h))
}

/// Split out `name: type` parameter pairs from a flattened signature.
fn raw_int_params(sig: &str) -> Vec<String> {
    let mut found = Vec::new();
    let b = sig.as_bytes();
    let mut i = 0;
    while let Some(colon) = sig[i..].find(':').map(|p| p + i) {
        // Identifier before the colon.
        let mut s = colon;
        while s > 0 && (b[s - 1] as char).is_whitespace() {
            s -= 1;
        }
        let mut start = s;
        while start > 0 {
            let c = b[start - 1] as char;
            if c.is_ascii_alphanumeric() || c == '_' {
                start -= 1;
            } else {
                break;
            }
        }
        let name = &sig[start..s];
        // Type after the colon (skip `::` paths — only single colons are
        // parameter separators).
        let after = &sig[colon + 1..];
        if after.starts_with(':') || (s > 0 && b[s - 1] as char == ':') {
            i = colon + 1;
            continue;
        }
        let ty: String = after
            .trim_start()
            .chars()
            .take_while(|c| *c != ',' && *c != ')')
            .collect();
        let ty = ty.trim();
        let is_raw_int = ty == "usize"
            || ty == "u64"
            || ty == "&usize"
            || ty == "&u64"
            || ty.starts_with("usize ")
            || ty.starts_with("u64 ");
        if is_raw_int && !name.is_empty() && has_unit_hint(name) {
            found.push(name.to_string());
        }
        i = colon + 1;
    }
    found
}

/// unit-confusion: public `fn` signatures in unit-bearing files must not
/// pass hinted quantities as raw `usize`/`u64`.
fn check_unit_confusion(path: &Path, lines: &[SourceLine]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = &lines[i];
        if line.in_test || !line.code.contains("pub fn ") {
            i += 1;
            continue;
        }
        let fn_line = i + 1;
        // Flatten the signature: accumulate until the body opens or the
        // declaration ends.
        let mut sig = String::new();
        let mut j = i;
        while j < lines.len() && j < i + 24 {
            let code = &lines[j].code;
            if let Some(brace) = code.find('{') {
                sig.push_str(&code[..brace]);
                break;
            }
            sig.push_str(code);
            sig.push(' ');
            if code.contains(';') {
                break;
            }
            j += 1;
        }
        let fn_name = sig
            .split("pub fn ")
            .nth(1)
            .map(|rest| {
                rest.chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect::<String>()
            })
            .unwrap_or_default();
        let (params, ret) = match sig.split_once("->") {
            Some((p, r)) => (p.to_string(), r.to_string()),
            None => (sig.clone(), String::new()),
        };
        for name in raw_int_params(&params) {
            out.push(Violation {
                check: Check::UnitConfusion,
                path: path.to_path_buf(),
                line: fn_line,
                message: format!(
                    "`pub fn {fn_name}` takes `{name}` as a raw integer; use the \
                     Tokens/Blocks/Bytes newtypes from gllm-units at public boundaries"
                ),
            });
        }
        if (ret.contains("usize") || ret.contains("u64")) && has_unit_hint(&fn_name) {
            out.push(Violation {
                check: Check::UnitConfusion,
                path: path.to_path_buf(),
                line: fn_line,
                message: format!(
                    "`pub fn {fn_name}` returns a raw integer; unit-named accessors must \
                     return Tokens/Blocks/Bytes"
                ),
            });
        }
        i = j.max(i) + 1;
    }
    out
}

/// panic-freedom: panicking constructs in non-test hot-path code.
fn check_panic_freedom(path: &Path, lines: &[SourceLine]) -> Vec<Violation> {
    const PANICKY: [(&str, &str); 6] = [
        (".unwrap()", "unwrap()"),
        (".expect(", "expect()"),
        ("panic!(", "panic!"),
        ("unreachable!(", "unreachable!"),
        ("todo!(", "todo!"),
        ("unimplemented!(", "unimplemented!"),
    ];
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (needle, label) in PANICKY {
            if line.code.contains(needle) {
                out.push(Violation {
                    check: Check::PanicFreedom,
                    path: path.to_path_buf(),
                    line: idx + 1,
                    message: format!(
                        "`{label}` on a hot path; return a Result (or justify with \
                         `// lint:allow(panic-freedom): <why the invariant holds>`)"
                    ),
                });
            }
        }
        // Literal-integer indexing (`xs[0]`): panics when the container is
        // shorter than assumed. Non-literal indices are out of scope for a
        // lexical pass.
        if let Some(v) = find_literal_index(&line.code) {
            out.push(Violation {
                check: Check::PanicFreedom,
                path: path.to_path_buf(),
                line: idx + 1,
                message: format!(
                    "literal index `[{v}]` can panic; use .get({v}) / .first() or justify \
                     with a lint:allow"
                ),
            });
        }
    }
    out
}

/// Find `ident[<digits>]` indexing in stripped code (skips array type/len
/// syntax like `[0u8; 4]` which is not preceded by an identifier char).
fn find_literal_index(code: &str) -> Option<String> {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if !(prev.is_ascii_alphanumeric() || prev == '_' || prev == ')') {
            continue;
        }
        let digits: String = code[i + 1..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if digits.is_empty() {
            continue;
        }
        if code[i + 1 + digits.len()..].starts_with(']') {
            return Some(digits);
        }
    }
    None
}

/// sim-determinism: wall clocks, OS entropy, hash-ordered containers,
/// unsanctioned threading.
fn check_sim_determinism(path: &Path, lines: &[SourceLine]) -> Vec<Violation> {
    const BANNED: [(&str, &str); 7] = [
        ("Instant::now", "wall-clock time is nondeterministic; thread virtual time through"),
        ("SystemTime", "system time is nondeterministic; thread virtual time through"),
        ("thread_rng", "OS entropy breaks replay; use a seeded StdRng"),
        ("from_entropy", "OS entropy breaks replay; use seed_from_u64"),
        ("HashMap", "iteration order is nondeterministic; use BTreeMap"),
        ("HashSet", "iteration order is nondeterministic; use BTreeSet"),
        (
            "thread::spawn",
            "thread scheduling is nondeterministic; fan out via gllm_sim::sweep (the sanctioned index-merged pool)",
        ),
    ];
    // The sweep module is the one sanctioned home for threads in the
    // simulation plane: workers merge results by job index, so its output
    // is scheduling-independent by construction.
    let sanctioned_threads =
        path.to_string_lossy().replace('\\', "/").ends_with("crates/sim/src/sweep.rs");
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (needle, why) in BANNED {
            if needle == "thread::spawn" && sanctioned_threads {
                continue;
            }
            if line.code.contains(needle) {
                out.push(Violation {
                    check: Check::SimDeterminism,
                    path: path.to_path_buf(),
                    line: idx + 1,
                    message: format!("`{needle}`: {why}"),
                });
            }
        }
    }
    out
}

/// float-determinism: partial f64 orders and NaN injection in planes that
/// must replay bit-identically.
fn check_float_determinism(path: &Path, lines: &[SourceLine]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if code.contains(".partial_cmp(") {
            out.push(Violation {
                check: Check::FloatDeterminism,
                path: path.to_path_buf(),
                line: idx + 1,
                message: "`.partial_cmp(` is not a total order (None on NaN) and makes sort \
                          results input-order-dependent; compare f64 keys with f64::total_cmp"
                    .to_string(),
            });
        }
        for needle in ["f64::NAN", "f32::NAN"] {
            if code.contains(needle) {
                out.push(Violation {
                    check: Check::FloatDeterminism,
                    path: path.to_path_buf(),
                    line: idx + 1,
                    message: format!(
                        "`{needle}` literal: NaN poisons every downstream comparison and \
                         breaks bit-reproducible replay; use an Option or a finite sentinel"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lock-order cycle detection over dataflow edges.
// ---------------------------------------------------------------------------

/// Tarjan SCC over the lock graph; components are returned sorted.
fn lock_sccs<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Vec<Vec<&'a str>> {
    struct T<'a> {
        index: BTreeMap<&'a str, usize>,
        low: BTreeMap<&'a str, usize>,
        on_stack: BTreeSet<&'a str>,
        stack: Vec<&'a str>,
        next: usize,
        out: Vec<Vec<&'a str>>,
    }
    fn strong<'a>(v: &'a str, adj: &BTreeMap<&'a str, BTreeSet<&'a str>>, t: &mut T<'a>) {
        t.index.insert(v, t.next);
        t.low.insert(v, t.next);
        t.next += 1;
        t.stack.push(v);
        t.on_stack.insert(v);
        if let Some(ns) = adj.get(v) {
            for &w in ns {
                if !t.index.contains_key(w) {
                    strong(w, adj, t);
                    let lw = t.low.get(w).copied().unwrap_or(0);
                    if lw < t.low.get(v).copied().unwrap_or(0) {
                        t.low.insert(v, lw);
                    }
                } else if t.on_stack.contains(w) {
                    let iw = t.index.get(w).copied().unwrap_or(0);
                    if iw < t.low.get(v).copied().unwrap_or(0) {
                        t.low.insert(v, iw);
                    }
                }
            }
        }
        if t.low.get(v) == t.index.get(v) {
            let mut comp = Vec::new();
            while let Some(w) = t.stack.pop() {
                t.on_stack.remove(w);
                comp.push(w);
                if w == v {
                    break;
                }
            }
            comp.sort_unstable();
            t.out.push(comp);
        }
    }
    let mut t = T {
        index: BTreeMap::new(),
        low: BTreeMap::new(),
        on_stack: BTreeSet::new(),
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for &v in adj.keys() {
        if !t.index.contains_key(v) {
            strong(v, adj, &mut t);
        }
    }
    t.out.sort();
    t.out
}

/// Report acquisition-order cycles. With `cross_file_only`, components
/// whose edges all come from one file are skipped (they were already
/// reported by the per-file pass).
fn lock_order_cycles(
    edges: &[(PathBuf, dataflow::LockEdge)],
    cross_file_only: bool,
) -> Vec<Violation> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (_, e) in edges {
        if e.held != e.acquired {
            adj.entry(&e.held).or_default().insert(&e.acquired);
            adj.entry(&e.acquired).or_default();
        }
    }
    let mut out = Vec::new();
    for comp in lock_sccs(&adj) {
        if comp.len() < 2 {
            continue;
        }
        let set: BTreeSet<&str> = comp.iter().copied().collect();
        let members: Vec<&(PathBuf, dataflow::LockEdge)> = edges
            .iter()
            .filter(|(_, e)| {
                e.held != e.acquired
                    && set.contains(e.held.as_str())
                    && set.contains(e.acquired.as_str())
            })
            .collect();
        let files: BTreeSet<&PathBuf> = members.iter().map(|(f, _)| f).collect();
        if cross_file_only && files.len() < 2 {
            continue;
        }
        let Some((afile, aedge)) = members
            .iter()
            .map(|(f, e)| (f, e))
            .min_by(|a, b| (a.0, a.1.line).cmp(&(b.0, b.1.line)))
        else {
            continue;
        };
        let detail: Vec<String> = members
            .iter()
            .map(|(f, e)| format!("{}→{} at {}:{}", e.held, e.acquired, f.display(), e.line))
            .collect();
        out.push(Violation {
            check: Check::LockOrder,
            path: afile.to_path_buf(),
            line: aedge.line,
            message: format!(
                "lock-order cycle between {{{}}}: inconsistent acquisition order can \
                 deadlock when the paths interleave ({})",
                comp.join(", "),
                detail.join("; ")
            ),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Per-file driving.
// ---------------------------------------------------------------------------

/// Which checks apply to a workspace-relative `.rs` path.
fn checks_for(rel: &Path) -> Vec<Check> {
    let p = rel.to_string_lossy().replace('\\', "/");
    let mut checks = Vec::new();
    // Unit boundaries: the scheduler/KV files that carry quantities.
    const UNIT_FILES: [&str; 7] = [
        "crates/core/src/throttle.rs",
        "crates/core/src/plan.rs",
        "crates/core/src/policy.rs",
        "crates/core/src/pool.rs",
        "crates/kvcache/src/allocator.rs",
        "crates/kvcache/src/page_table.rs",
        "crates/kvcache/src/manager.rs",
    ];
    if UNIT_FILES.iter().any(|f| p.ends_with(f)) {
        checks.push(Check::UnitConfusion);
    }
    if p.contains("crates/runtime/src/")
        || p.contains("crates/core/src/")
        || p.contains("crates/kvcache/src/")
        || p.contains("crates/lint/src/")
    {
        checks.push(Check::PanicFreedom);
    }
    if p.contains("crates/sim/src/")
        || p.contains("crates/core/src/")
        || p.contains("crates/metrics/src/")
    {
        checks.push(Check::SimDeterminism);
    }
    if p.contains("crates/runtime/src/") {
        checks.push(Check::LockDiscipline);
        checks.push(Check::LockOrder);
    }
    if p.contains("crates/kvcache/src/")
        || p.contains("crates/core/src/")
        || p.contains("crates/sim/src/")
    {
        checks.push(Check::NewtypeEscape);
    }
    if p.contains("crates/sim/src/")
        || p.contains("crates/metrics/src/")
        || p.contains("crates/workload/src/")
        || p.contains("crates/core/src/")
        || p.contains("crates/lint/src/")
    {
        checks.push(Check::FloatDeterminism);
    }
    // Stale-suppression applies everywhere an allow could live.
    if p.contains("/src/") {
        checks.push(Check::StaleSuppression);
    }
    checks
}

/// Run `checks` against one Rust source text. Suppressions are honoured;
/// malformed or stale suppressions are appended as violations.
pub fn lint_rust_source(path: &Path, contents: &str, checks: &[Check]) -> Vec<Violation> {
    lint_rust_source_with_edges(path, contents, checks).0
}

/// Like [`lint_rust_source`], additionally returning the file's lock
/// acquisition-order edges (non-empty only when [`Check::LockOrder`] is
/// requested) so [`lint_workspace`] can assemble the *global* lock graph.
pub fn lint_rust_source_with_edges(
    path: &Path,
    contents: &str,
    checks: &[Check],
) -> (Vec<Violation>, Vec<(PathBuf, dataflow::LockEdge)>) {
    let lexed = lexer::lex(contents);
    let lines = syntax::source_lines(&lexed);
    let allows = syntax::collect_allows(&lexed, &lines);
    let fns = syntax::functions(&lexed, &lines);

    // The guard dataflow runs once; both lock families consume it.
    let mut discipline: Vec<(usize, String)> = Vec::new();
    let mut order: Vec<(usize, String)> = Vec::new();
    let mut edges: Vec<(PathBuf, dataflow::LockEdge)> = Vec::new();
    if checks.contains(&Check::LockDiscipline) || checks.contains(&Check::LockOrder) {
        for f in fns.iter().filter(|f| !f.in_test) {
            let facts = dataflow::lock_facts(f);
            discipline.extend(facts.violations);
            order.extend(facts.order_violations);
            edges.extend(facts.edges.into_iter().map(|e| (path.to_path_buf(), e)));
        }
        // Nested fns are scanned both standalone and inside their parent:
        // dedup the facts.
        edges.sort_by(|a, b| {
            (&a.0, &a.1.held, &a.1.acquired, a.1.line)
                .cmp(&(&b.0, &b.1.held, &b.1.acquired, b.1.line))
        });
        edges.dedup();
    }

    let mk = |check: Check, (line, message): &(usize, String)| Violation {
        check,
        path: path.to_path_buf(),
        line: *line,
        message: message.clone(),
    };

    let mut raw: Vec<Violation> = Vec::new();
    for &check in checks {
        match check {
            Check::UnitConfusion => raw.extend(check_unit_confusion(path, &lines)),
            Check::PanicFreedom => raw.extend(check_panic_freedom(path, &lines)),
            Check::SimDeterminism => raw.extend(check_sim_determinism(path, &lines)),
            Check::FloatDeterminism => raw.extend(check_float_determinism(path, &lines)),
            Check::LockDiscipline => {
                raw.extend(discipline.iter().map(|v| mk(Check::LockDiscipline, v)));
            }
            Check::LockOrder => {
                raw.extend(order.iter().map(|v| mk(Check::LockOrder, v)));
                raw.extend(lock_order_cycles(&edges, false));
            }
            Check::NewtypeEscape => {
                for f in fns.iter().filter(|f| !f.in_test) {
                    raw.extend(
                        dataflow::unit_taint(f).iter().map(|v| mk(Check::NewtypeEscape, v)),
                    );
                }
            }
            Check::VendorHygiene | Check::StaleSuppression => {}
        }
    }
    // Dedup nested-fn double reports.
    let mut seen: BTreeSet<(Check, usize, String)> = BTreeSet::new();
    raw.retain(|v| seen.insert((v.check, v.line, v.message.clone())));

    // Apply suppressions, remembering which allows earned their keep.
    let mut used: BTreeSet<(usize, Check)> = BTreeSet::new();
    let mut violations: Vec<Violation> = Vec::new();
    for v in raw {
        if allows.allowed.contains_key(&(v.line, v.check)) {
            used.insert((v.line, v.check));
            continue;
        }
        violations.push(v);
    }
    if checks.contains(&Check::StaleSuppression) {
        for ((target, check), site) in &allows.allowed {
            if !used.contains(&(*target, *check)) {
                violations.push(Violation {
                    check: Check::StaleSuppression,
                    path: path.to_path_buf(),
                    line: site.comment_line,
                    message: format!(
                        "stale suppression: `lint:allow({check})` targets line {target} but \
                         suppresses no finding (reason was: \"{}\"); remove it",
                        site.reason
                    ),
                });
            }
        }
    }
    for (line, message) in &allows.errors {
        violations.push(Violation {
            check: Check::StaleSuppression,
            path: path.to_path_buf(),
            line: *line,
            message: message.clone(),
        });
    }
    violations.sort_by_key(|v| (v.line, v.check));
    let edges_out =
        if checks.contains(&Check::LockOrder) { edges } else { Vec::new() };
    (violations, edges_out)
}

/// vendor-hygiene over a workspace root: every `path = "vendor/..."`
/// dependency in the root manifest must exist as a shim crate and be
/// documented in `vendor/README.md`.
pub fn check_vendor_hygiene(root: &Path) -> Vec<Violation> {
    let manifest_path = root.join("Cargo.toml");
    let mut out = Vec::new();
    let Ok(manifest) = fs::read_to_string(&manifest_path) else {
        out.push(Violation {
            check: Check::VendorHygiene,
            path: PathBuf::from("Cargo.toml"),
            line: 0,
            message: "workspace root Cargo.toml not readable".to_string(),
        });
        return out;
    };
    let readme = fs::read_to_string(root.join("vendor/README.md")).unwrap_or_default();
    for (idx, line) in manifest.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('#') {
            continue;
        }
        let Some((name, rest)) = trimmed.split_once('=') else { continue };
        let name = name.trim();
        let Some(path_pos) = rest.find("path = \"vendor/") else { continue };
        let vendor_path: String = rest[path_pos + "path = \"".len()..]
            .chars()
            .take_while(|c| *c != '"')
            .collect();
        let shim = root.join(&vendor_path);
        if !shim.join("Cargo.toml").is_file() || !shim.join("src").is_dir() {
            out.push(Violation {
                check: Check::VendorHygiene,
                path: PathBuf::from("Cargo.toml"),
                line: idx + 1,
                message: format!(
                    "dependency `{name}` points at `{vendor_path}` but no shim crate \
                     (Cargo.toml + src/) exists there"
                ),
            });
        }
        if readme.is_empty() {
            out.push(Violation {
                check: Check::VendorHygiene,
                path: PathBuf::from("vendor/README.md"),
                line: 0,
                message: "vendor/README.md missing: every shim must be documented".to_string(),
            });
        } else if !readme.contains(&format!("`{name}`")) {
            out.push(Violation {
                check: Check::VendorHygiene,
                path: PathBuf::from("vendor/README.md"),
                line: 0,
                message: format!("vendored dependency `{name}` has no vendor/README.md entry"),
            });
        }
    }
    out
}

/// Recursively collect workspace `.rs` files eligible for linting.
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // Build output, vendored shims and the lint fixtures (which
            // contain violations on purpose) are out of scope.
            if name == "target" || name == "vendor" || name == "fixtures" {
                continue;
            }
            collect_rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Lint the workspace rooted at `root`: all families, scoped per
/// [`checks_for`], plus vendor hygiene and the *global* lock-order graph
/// assembled across every runtime file. Paths in the result are relative to
/// `root`.
pub fn lint_workspace(root: &Path) -> Vec<Violation> {
    let mut files = Vec::new();
    collect_rust_files(&root.join("crates"), &mut files);
    let mut violations = Vec::new();
    let mut all_edges: Vec<(PathBuf, dataflow::LockEdge)> = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let checks = checks_for(&rel);
        if checks.is_empty() {
            continue;
        }
        let Ok(contents) = fs::read_to_string(&file) else { continue };
        let (vs, edges) = lint_rust_source_with_edges(&rel, &contents, &checks);
        violations.extend(vs);
        all_edges.extend(edges);
    }
    // Cross-file cycles: per-file passes each saw only their own slice of
    // the acquisition graph.
    violations.extend(lock_order_cycles(&all_edges, true));
    violations.extend(check_vendor_hygiene(root));
    violations.sort_by(|a, b| (&a.path, a.line, a.check).cmp(&(&b.path, b.line, b.check)));
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str, checks: &[Check]) -> Vec<Violation> {
        lint_rust_source(Path::new("test.rs"), src, checks)
    }

    #[test]
    fn fault_injection_module_is_in_panic_freedom_scope() {
        // The fault-injection/recovery layer must stay panic-free and
        // lock-disciplined: a panic inside the recovery path would turn an
        // injected (survivable) fault into a real crash.
        let checks = checks_for(Path::new("crates/runtime/src/fault.rs"));
        assert!(checks.contains(&Check::PanicFreedom), "fault.rs must be panic-free");
        assert!(checks.contains(&Check::LockDiscipline), "injector holds a shared mutex");
        let driver = checks_for(Path::new("crates/runtime/src/driver.rs"));
        assert!(driver.contains(&Check::PanicFreedom), "recovery path must be panic-free");
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let src = r#"
fn f() {
    let s = "HashMap and .unwrap() inside a string";
    // HashMap in a comment
    /* Instant::now in a block comment */
}
"#;
        assert!(lint(src, &[Check::SimDeterminism, Check::PanicFreedom]).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = r#"
fn hot() -> usize { 1 }

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
        assert_eq!(m.get(&0).copied().unwrap_or(0), 0);
        Some(1).unwrap();
    }
}
"#;
        assert!(lint(src, &[Check::SimDeterminism, Check::PanicFreedom]).is_empty());
    }

    #[test]
    fn trailing_allow_suppresses_same_line_only() {
        let src = "fn f() {\n    a.expect(\"x\"); // lint:allow(panic-freedom): invariant documented\n    b.expect(\"y\");\n}\n";
        let v = lint(src, &[Check::PanicFreedom]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn standalone_allow_covers_next_code_line() {
        let src = "fn f() {\n    // lint:allow(panic-freedom): checked above\n    a.expect(\"x\");\n}\n";
        assert!(lint(src, &[Check::PanicFreedom]).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "fn f() {\n    a.expect(\"x\"); // lint:allow(panic-freedom)\n}\n";
        let v = lint(src, &[Check::PanicFreedom]);
        // The expect still fires AND the bare allow is flagged.
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|v| v.message.contains("requires a reason")));
    }

    #[test]
    fn allow_with_unknown_check_is_a_violation() {
        let src = "fn f() { // lint:allow(made-up-check): because\n}\n";
        let v = lint(src, &[Check::PanicFreedom]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("unknown check"));
    }

    #[test]
    fn literal_index_is_flagged_but_variable_index_is_not() {
        let src = "fn f(xs: &[u32], i: usize) {\n    let a = xs[0];\n    let b = xs[i];\n    let c = [0u8; 4];\n}\n";
        let v = lint(src, &[Check::PanicFreedom]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unit_confusion_flags_hinted_raw_params_and_returns() {
        let src = "pub fn append(seq: u64, tokens: usize) {}\npub fn block_size(&self) -> usize { 0 }\npub fn num_seqs(&self) -> usize { 0 }\n";
        let v = lint(src, &[Check::UnitConfusion]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
    }

    #[test]
    fn unit_confusion_ignores_newtyped_and_crate_private_fns() {
        let src = "pub fn append(seq: u64, tokens: Tokens) {}\npub(crate) fn fill(&mut self, tokens: usize) {}\n";
        assert!(lint(src, &[Check::UnitConfusion]).is_empty());
    }

    #[test]
    fn lock_across_send_is_flagged_and_drop_clears_it() {
        let bad = "fn f() {\n    let g = m.lock().unwrap();\n    tx.send(*g).unwrap();\n}\n";
        let v: Vec<_> = lint(bad, &[Check::LockDiscipline]);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].line, 3);

        let good = "fn f() {\n    let g = m.lock().unwrap();\n    let v = *g;\n    drop(g);\n    tx.send(v).unwrap();\n}\n";
        assert!(lint(good, &[Check::LockDiscipline]).is_empty());

        let scoped = "fn f() {\n    {\n        let g = m.lock().unwrap();\n    }\n    tx.send(1).unwrap();\n}\n";
        assert!(lint(scoped, &[Check::LockDiscipline]).is_empty());
    }

    #[test]
    fn multiline_guard_binding_is_tracked() {
        // The v1 lexical check required `let` and `.lock()` on one line;
        // this binding spans three.
        let src = "fn f() {\n    let g = m\n        .lock()\n        .unwrap();\n    let v = rx.recv().unwrap();\n    let _ = (*g, v);\n}\n";
        let v = lint(src, &[Check::LockDiscipline]);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].line, 5);
        assert!(v[0].message.contains("MutexGuard `g` is live"));
    }

    #[test]
    fn deref_copy_does_not_bind_the_guard() {
        let src = "fn f() {\n    let v = *m.lock().unwrap();\n    tx.send(v).unwrap();\n}\n";
        assert!(lint(src, &[Check::LockDiscipline]).is_empty());
    }

    #[test]
    fn lock_order_cycle_is_reported_once() {
        let src = "fn fwd() {\n    let a = alpha.lock().unwrap();\n    let b = beta.lock().unwrap();\n    let _ = (a, b);\n}\nfn bwd() {\n    let b = beta.lock().unwrap();\n    let a = alpha.lock().unwrap();\n    let _ = (a, b);\n}\n";
        let v = lint(src, &[Check::LockOrder]);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].message.contains("lock-order cycle"));
        assert!(v[0].message.contains("alpha"));
        assert!(v[0].message.contains("beta"));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = "fn one() {\n    let a = alpha.lock().unwrap();\n    let b = beta.lock().unwrap();\n    let _ = (a, b);\n}\nfn two() {\n    let a = alpha.lock().unwrap();\n    let b = beta.lock().unwrap();\n    let _ = (a, b);\n}\n";
        assert!(lint(src, &[Check::LockOrder]).is_empty());
    }

    #[test]
    fn stale_allow_is_a_violation() {
        let src = "fn f() {\n    // lint:allow(panic-freedom): nothing here panics any more\n    let x = 1 + 1;\n    let _ = x;\n}\n";
        let v = lint(src, &[Check::PanicFreedom, Check::StaleSuppression]);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].check, Check::StaleSuppression);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("stale suppression"));
    }

    #[test]
    fn live_allow_is_not_stale() {
        let src = "fn f() {\n    a.expect(\"x\"); // lint:allow(panic-freedom): invariant documented\n}\n";
        let v = lint(src, &[Check::PanicFreedom, Check::StaleSuppression]);
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn float_determinism_findings() {
        let src = "fn f(xs: &mut Vec<f64>) -> f64 {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    f64::NAN\n}\n";
        let v = lint(src, &[Check::FloatDeterminism]);
        assert_eq!(v.len(), 2, "{v:#?}");
        assert!(v.iter().any(|v| v.message.contains("total_cmp")));
        assert!(v.iter().any(|v| v.message.contains("NaN")));
    }

    #[test]
    fn partial_ord_impls_are_not_flagged() {
        // Defining `fn partial_cmp` (no leading dot) is fine; only *calls*
        // are a determinism hazard.
        let src = "impl PartialOrd for E {\n    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n        Some(self.cmp(other))\n    }\n}\n";
        assert!(lint(src, &[Check::FloatDeterminism]).is_empty());
    }

    #[test]
    fn check_names_round_trip() {
        for c in Check::ALL {
            assert_eq!(Check::from_name(c.name()), Some(c));
        }
        assert_eq!(Check::from_name("nope"), None);
    }
}
