//! Static lock-hierarchy deadlock detector.
//!
//! `crates/check/locks.toml` declares every `Mutex`/`Condvar`-guarded
//! field in the workspace by crate and field-name pattern, in a single
//! global acquisition order. This pass scans every function for lock
//! acquisitions (`lock(&x)` poison-recovering helpers, `.lock()`,
//! `.try_lock()`), tracks which guards are live using a
//! statement/block-scope approximation, propagates acquisitions through
//! direct calls with a fixpoint over the (name-matched) call graph, and
//! then demands that every realized nesting edge goes *forward* in the
//! declared order. Forward edges in one total order cannot close a
//! cycle, so no cycle check is needed.
//!
//! Approximations, all conservative (they can add edges, never hide a
//! `lock()` call): `let`-bound guards live to the end of their
//! enclosing block; temporaries die at the end of their statement or
//! match arm;
//! calls are matched to functions by bare name across the whole
//! workspace; calls through closures or function-typed parameters are
//! invisible. A false edge that trips the order check is mended at the
//! site (or by reordering `locks.toml`), never waived.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::diag::{Lint, Report};
use crate::lexer::{tokens, LexedFile};
use crate::scan::{fn_spans, NON_CALL_WORDS};

/// One declared lock: a name, the crate whose sources it lives in, and
/// the receiver/argument field names that identify its acquisition
/// sites.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Hierarchy name, e.g. `serve.submit`.
    pub name: String,
    /// Crate directory under `crates/` the lock's sites live in.
    pub krate: String,
    /// Field identifiers that select this lock at an acquisition site.
    pub patterns: Vec<String>,
}

/// The parsed `locks.toml`: declaration order *is* the acquisition
/// order.
#[derive(Debug, Clone, Default)]
pub struct LockConfig {
    /// Declared locks, outermost-first.
    pub locks: Vec<LockDecl>,
}

/// Parses the minimal TOML subset `locks.toml` uses: `[[lock]]` tables
/// with string and string-array values.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_config(text: &str) -> Result<LockConfig, String> {
    let mut cfg = LockConfig::default();
    let mut current: Option<LockDecl> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[lock]]" {
            if let Some(done) = current.take() {
                cfg.locks.push(done);
            }
            current = Some(LockDecl {
                name: String::new(),
                krate: String::new(),
                patterns: Vec::new(),
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("locks.toml line {}: expected key = value", idx + 1));
        };
        let (key, value) = (key.trim(), value.trim());
        let unquote = |v: &str| v.trim().trim_matches('"').to_string();
        match (key, current.as_mut()) {
            ("name", Some(decl)) => decl.name = unquote(value),
            ("crate", Some(decl)) => decl.krate = unquote(value),
            ("patterns", Some(decl)) => {
                decl.patterns = value
                    .trim_matches(|c| c == '[' || c == ']')
                    .split(',')
                    .map(unquote)
                    .filter(|p| !p.is_empty())
                    .collect();
            }
            _ => {
                return Err(format!(
                    "locks.toml line {}: unknown key `{key}`, or a key outside a [[lock]] table",
                    idx + 1
                ));
            }
        }
    }
    if let Some(done) = current.take() {
        cfg.locks.push(done);
    }
    for decl in &cfg.locks {
        if decl.name.is_empty() || decl.krate.is_empty() || decl.patterns.is_empty() {
            return Err(format!(
                "locks.toml: lock `{}` needs name, crate and patterns",
                decl.name
            ));
        }
    }
    Ok(cfg)
}

/// Receivers whose `.lock()` is not a declared mutex (std stream locks).
const IGNORED_RECEIVERS: &[&str] = &["stdout", "stderr", "stdin", "io"];

/// Callee names excluded from the interprocedural pass. Calls are
/// matched to functions by bare name across the whole workspace, and
/// these names are shared by std-container accessors and many workspace
/// types — attributing every `.len()` under a guard to the one
/// `DeltaCollection::len` that locks `state` would drown the report in
/// false edges. A real nesting through one of these goes unseen here;
/// it is covered by the direct (same-function) scan at the callee and
/// by the runtime tests.
const IGNORED_CALLEES: &[&str] = &[
    "len",
    "is_empty",
    "num_rows",
    "num_cols",
    "clear",
    "clone",
    "new",
    "default",
    "get",
    "get_mut",
    "push",
    "pop",
    "insert",
    "remove",
    "drain",
    "take",
    "iter",
    "iter_mut",
    "next",
    "contains",
    "extend",
    "write",
    "read",
    "flush",
    "send",
    "recv",
    "wait",
    "wait_timeout",
    "join",
    // `std::mem::drop` and the atomic accessors: calls to these are
    // std, but workspace `Drop` impls and wrapper fns share the names.
    "drop",
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "compare_exchange",
    "compare_exchange_weak",
];

/// How long an acquired guard stays live.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scope {
    /// Bound by `let`/`for`/`while let`: until its block closes.
    Block(i32),
    /// A temporary: until the end of the statement (depth recorded).
    Stmt(i32),
}

#[derive(Debug, Clone)]
struct Guard {
    lock: usize,
    scope: Scope,
    line: usize,
}

/// One fact extracted from a function body.
#[derive(Debug, Clone)]
enum Fact {
    /// Lock `held` (acquired at `held_line`) was live while acquiring
    /// `taken` at `line`.
    Nested {
        held: usize,
        held_line: usize,
        taken: usize,
        line: usize,
    },
    /// Lock `held` was live across a call to `callee` at `line`.
    CallUnder {
        held: usize,
        held_line: usize,
        callee: String,
        line: usize,
    },
}

/// Per-function summary for the interprocedural fixpoint.
#[derive(Debug, Default, Clone)]
struct FnSummary {
    direct: BTreeSet<usize>,
    calls: BTreeSet<String>,
    /// How many `fn` items across the workspace share this name. Calls
    /// are matched by bare name, so may-acquire sets only propagate
    /// through names with exactly one definition — an ambiguous name
    /// would smear every same-named method's locks onto every caller.
    defs: usize,
}

/// Scans one file's functions; returns per-file facts and extends the
/// global function summaries. Emits "undeclared lock" findings inline.
#[expect(
    clippy::too_many_arguments,
    reason = "one pass over a file feeds several per-file and global tables"
)]
fn scan_file(
    path: &Path,
    file: &LexedFile,
    cfg: &LockConfig,
    krate: &str,
    summaries: &mut BTreeMap<String, FnSummary>,
    facts: &mut Vec<(String, Fact)>,
    seen_locks: &mut BTreeSet<usize>,
    report: &mut Report,
) {
    let toks = tokens(file);
    // Locks eligible in this crate, by identifying field name.
    let mut by_field: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, decl) in cfg.locks.iter().enumerate() {
        if decl.krate == krate {
            for p in &decl.patterns {
                by_field.insert(p.as_str(), i);
            }
        }
    }
    for span in fn_spans(&toks) {
        if span.name == "lock" {
            // The poison-recovering `fn lock<T>(m: &Mutex<T>)` helpers
            // are the acquisition primitive itself, not a nesting site.
            continue;
        }
        let body = &toks[span.body_start..=span.body_end];
        let summary = summaries.entry(span.name.clone()).or_default();
        summary.defs += 1;
        let mut guards: Vec<Guard> = Vec::new();
        let mut depth: i32 = 0;
        let mut stmt_binding = false;
        let mut i = 0usize;
        while i < body.len() {
            let t = &body[i];
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    stmt_binding = false;
                }
                "}" => {
                    depth -= 1;
                    guards.retain(|g| match g.scope {
                        Scope::Block(d) => depth >= d,
                        Scope::Stmt(d) => depth >= d,
                    });
                    stmt_binding = false;
                }
                ";" => {
                    guards.retain(|g| !matches!(g.scope, Scope::Stmt(d) if depth <= d));
                    stmt_binding = false;
                }
                // A match arm's `=>`: the previous arm's guards at this
                // depth have ended (the scrutinee's sit one level out).
                "=" if body.get(i + 1).is_some_and(|n| n.text == ">") => {
                    guards.retain(|g| match g.scope {
                        Scope::Block(d) | Scope::Stmt(d) => d < depth,
                    });
                    stmt_binding = false;
                }
                "let" | "for" | "while" | "if" | "match" => {
                    stmt_binding = true;
                }
                _ => {}
            }
            // Acquisition sites: helper `lock(ARG)` (not preceded by
            // `.`), or method `.lock()` / `.try_lock()`.
            let in_test = file
                .lines
                .get(t.line - 1)
                .map(|l| l.in_test)
                .unwrap_or(false);
            let mut acquired: Option<(Option<usize>, String, usize)> = None;
            let prev_is_dot = i > 0 && body[i - 1].text == ".";
            if (t.text == "lock" || t.text == "try_lock")
                && body.get(i + 1).is_some_and(|n| n.text == "(")
            {
                if prev_is_dot {
                    // Method form: identifying field is the last word
                    // before the dot.
                    let field = (0..i.saturating_sub(1))
                        .rev()
                        .map(|j| &body[j])
                        .find(|t| {
                            t.text
                                .chars()
                                .next()
                                .is_some_and(|c| c.is_alphanumeric() || c == '_')
                        })
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    acquired = Some((by_field.get(field.as_str()).copied(), field, t.line));
                } else {
                    // Helper form: identifying field is the last word in
                    // the argument list.
                    let mut j = i + 2;
                    let mut paren = 1i32;
                    let mut field = String::new();
                    while let Some(a) = body.get(j) {
                        match a.text.as_str() {
                            "(" => paren += 1,
                            ")" => {
                                paren -= 1;
                                if paren == 0 {
                                    break;
                                }
                            }
                            w if w
                                .chars()
                                .next()
                                .is_some_and(|c| c.is_alphanumeric() || c == '_') =>
                            {
                                field = w.to_string();
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    acquired = Some((by_field.get(field.as_str()).copied(), field, t.line));
                }
            }
            if let Some((decl, field, line)) = acquired {
                if in_test || IGNORED_RECEIVERS.contains(&field.as_str()) {
                    i += 1;
                    continue;
                }
                match decl {
                    None => report.push(
                        Lint::Locks,
                        path,
                        line,
                        format!(
                            "acquisition of undeclared lock (receiver field `{field}`); declare \
                             it in crates/check/locks.toml"
                        ),
                    ),
                    Some(lock) => {
                        seen_locks.insert(lock);
                        summary.direct.insert(lock);
                        for g in &guards {
                            facts.push((
                                span.name.clone(),
                                Fact::Nested {
                                    held: g.lock,
                                    held_line: g.line,
                                    taken: lock,
                                    line,
                                },
                            ));
                        }
                        let scope = if stmt_binding {
                            Scope::Block(depth)
                        } else {
                            Scope::Stmt(depth)
                        };
                        guards.push(Guard { lock, scope, line });
                    }
                }
                i += 1;
                continue;
            }
            // Call sites under a held guard feed the interprocedural
            // pass. Word followed by `(`, not a keyword, not a macro,
            // not a definition.
            if !in_test
                && body.get(i + 1).is_some_and(|n| n.text == "(")
                && t.text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
                && !NON_CALL_WORDS.contains(&t.text.as_str())
                && !IGNORED_CALLEES.contains(&t.text.as_str())
                && (i == 0 || body[i - 1].text != "fn")
                && !(i > 0 && body[i - 1].text == "!")
            {
                summary.calls.insert(t.text.clone());
                for g in &guards {
                    facts.push((
                        span.name.clone(),
                        Fact::CallUnder {
                            held: g.lock,
                            held_line: g.line,
                            callee: t.text.clone(),
                            line: t.line,
                        },
                    ));
                }
            }
            i += 1;
        }
    }
}

/// Runs the detector over the given lexed files (path, crate, lexed).
///
/// Reports: undeclared acquisition sites, order violations (a backward
/// or recursive nesting edge), and declared locks that matched no site.
pub fn check(
    files: &[(std::path::PathBuf, String, LexedFile)],
    cfg: &LockConfig,
    report: &mut Report,
) {
    let mut summaries: BTreeMap<String, FnSummary> = BTreeMap::new();
    let mut facts: Vec<(String, Fact)> = Vec::new();
    let mut seen_locks: BTreeSet<usize> = BTreeSet::new();
    for (path, krate, file) in files {
        scan_file(
            path,
            file,
            cfg,
            krate,
            &mut summaries,
            &mut facts,
            &mut seen_locks,
            report,
        );
    }

    // Interprocedural fixpoint: may_acquire[f] = direct ∪ may of callees.
    // Only uniquely-named functions propagate (see `FnSummary::defs`).
    let unique = |name: &str| summaries.get(name).is_some_and(|s| s.defs == 1);
    let mut may: BTreeMap<String, BTreeSet<usize>> = summaries
        .iter()
        .map(|(n, s)| (n.clone(), s.direct.clone()))
        .collect();
    loop {
        let mut changed = false;
        for (name, summary) in &summaries {
            let mut acc = may.get(name).cloned().unwrap_or_default();
            let before = acc.len();
            for callee in &summary.calls {
                if !unique(callee) {
                    continue;
                }
                if let Some(locks) = may.get(callee) {
                    acc.extend(locks.iter().copied());
                }
            }
            if acc.len() != before {
                may.insert(name.clone(), acc);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Realize the nesting edge set.
    #[derive(Debug)]
    struct Edge {
        from: usize,
        to: usize,
        site: String,
    }
    let mut edges: BTreeMap<(usize, usize), Edge> = BTreeMap::new();
    for (in_fn, fact) in &facts {
        match fact {
            Fact::Nested {
                held,
                held_line,
                taken,
                line,
            } => {
                edges.entry((*held, *taken)).or_insert_with(|| Edge {
                    from: *held,
                    to: *taken,
                    site: format!("in `{in_fn}` (held since line {held_line}, taken line {line})"),
                });
            }
            Fact::CallUnder {
                held,
                held_line,
                callee,
                line,
            } => {
                if !unique(callee) {
                    continue;
                }
                if let Some(locks) = may.get(callee) {
                    for &taken in locks {
                        edges.entry((*held, taken)).or_insert_with(|| Edge {
                            from: *held,
                            to: taken,
                            site: format!(
                                "in `{in_fn}` (held since line {held_line}) via call to \
                                 `{callee}` at line {line}"
                            ),
                        });
                    }
                }
            }
        }
    }

    let name = |i: usize| cfg.locks[i].name.as_str();
    let locks_toml = Path::new("crates/check/locks.toml");
    for edge in edges.values() {
        if edge.from == edge.to {
            report.push(
                Lint::Locks,
                locks_toml,
                0,
                format!(
                    "recursive acquisition of `{}` {} — std::sync::Mutex self-deadlocks",
                    name(edge.from),
                    edge.site
                ),
            );
        } else if edge.from > edge.to {
            report.push(
                Lint::Locks,
                locks_toml,
                0,
                format!(
                    "lock order violation: `{}` acquired while holding `{}` {} — declared order \
                     puts `{}` first",
                    name(edge.to),
                    name(edge.from),
                    edge.site,
                    name(edge.to)
                ),
            );
        }
    }

    for (i, decl) in cfg.locks.iter().enumerate() {
        if !seen_locks.contains(&i) {
            report.push(
                Lint::Locks,
                locks_toml,
                0,
                format!(
                    "declared lock `{}` matched no acquisition site — patterns {:?} have rotted",
                    decl.name, decl.patterns
                ),
            );
        }
    }
}
