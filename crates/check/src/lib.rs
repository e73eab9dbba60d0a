//! `tkspmv_check` — the workspace invariant checker.
//!
//! A rust-tidy-style static analysis pass over `crates/`, encoding the
//! repo's hardest-won properties as lints that hold on *every* path,
//! not just the benchmarked ones:
//!
//! - **alloc** — hot-path modules (see `hot_paths.txt`) must not
//!   allocate without an `// alloc-ok: <reason>` justification;
//! - **atomics** — every `Ordering::Relaxed`/`SeqCst` site carries an
//!   `// ordering: <why this is sound>` argument or a baseline entry;
//! - **locks** — the declared lock hierarchy in `locks.toml` is
//!   enforced by a per-function acquisition-nesting scan over the
//!   cross-crate lock graph;
//! - **panic** — `unwrap`/`expect`/`panic!` in library code needs an
//!   `// invariant: <reason>` comment;
//! - **spawns** — the compute crates spawn threads only inside
//!   `tkspmv::fanout`; every other fan-out goes through its
//!   `fork_join`. The service crates start threads only where
//!   `spawn_sites.txt` says, request-path starts marked as such;
//! - **manifests** — dependency-DAG acyclicity, layering, and
//!   workspace-dependency pinning (folded in from the old
//!   `workspace_guard` test);
//! - **api** — the list of `pub` items must equal the checked-in
//!   `api.txt`, so every change to the public surface shows in a diff.
//!
//! Run as `cargo run -p tkspmv_check -- --all` (CI gates on it); add
//! `--json` for machine output.

pub mod alloc;
pub mod api;
pub mod atomics;
pub mod diag;
pub mod lexer;
pub mod locks;
pub mod manifests;
pub mod panics;
pub mod scan;
pub mod spawns;

use std::path::{Path, PathBuf};

use diag::Report;

/// Which passes to run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Hot-path allocation lint.
    pub alloc: bool,
    /// Atomic-ordering audit.
    pub atomics: bool,
    /// Lock-hierarchy detector.
    pub locks: bool,
    /// Panic-freedom lint.
    pub panics: bool,
    /// Spawn lint (compute path and service allow-list).
    pub spawns: bool,
    /// Manifest drift guard.
    pub manifests: bool,
    /// Public-surface ratchet.
    pub api: bool,
}

impl Options {
    /// Every pass on.
    pub fn all() -> Self {
        Self {
            alloc: true,
            atomics: true,
            locks: true,
            panics: true,
            spawns: true,
            manifests: true,
            api: true,
        }
    }
}

/// Reads the hot-path module list (`crates/check/hot_paths.txt`):
/// workspace-relative file paths, one per line, `#` comments.
///
/// # Errors
///
/// I/O errors reading the list.
pub fn hot_paths(root: &Path) -> std::io::Result<Vec<String>> {
    let text = std::fs::read_to_string(root.join("crates/check/hot_paths.txt"))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// Reads the baseline file (`crates/check/baseline.txt`); missing file
/// means an empty baseline.
pub fn baseline(root: &Path) -> String {
    std::fs::read_to_string(root.join("crates/check/baseline.txt")).unwrap_or_default()
}

fn crate_of(path: &Path) -> String {
    let mut comps = path.components().map(|c| c.as_os_str().to_string_lossy());
    match (comps.next().as_deref(), comps.next()) {
        (Some("crates"), Some(name)) => name.into_owned(),
        _ => String::new(),
    }
}

/// Runs the selected passes over the workspace at `root`, returning the
/// raw report (baseline not yet applied).
///
/// # Errors
///
/// Configuration problems (unreadable sources, malformed `locks.toml`)
/// are errors; findings are diagnostics in the report.
pub fn run(root: &Path, opts: Options) -> Result<Report, String> {
    let mut report = Report::default();
    if opts.manifests {
        manifests::check(root, &mut report);
    }
    if !(opts.alloc || opts.atomics || opts.locks || opts.panics || opts.spawns || opts.api) {
        return Ok(report);
    }
    let sources =
        scan::workspace_sources(root).map_err(|e| format!("walking workspace sources: {e}"))?;
    let mut lexed: Vec<(PathBuf, String, lexer::LexedFile)> = Vec::new();
    for rel in sources {
        let text = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("reading {}: {e}", rel.display()))?;
        let krate = crate_of(&rel);
        lexed.push((rel, krate, lexer::lex(&text)));
    }
    if opts.alloc {
        let hot = hot_paths(root).map_err(|e| format!("reading hot_paths.txt: {e}"))?;
        for (rel, _, file) in &lexed {
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            if hot.contains(&rel_str) {
                alloc::check_file(rel, file, &mut report);
            }
        }
    }
    if opts.atomics {
        for (rel, _, file) in &lexed {
            atomics::check_file(rel, file, &mut report);
        }
    }
    if opts.panics {
        for (rel, _, file) in &lexed {
            if !scan::is_bin(rel) {
                panics::check_file(rel, file, &mut report);
            }
        }
    }
    if opts.spawns {
        for (rel, krate, file) in &lexed {
            if spawns::in_scope(krate, &rel.to_string_lossy().replace('\\', "/")) {
                spawns::check_file(rel, file, &mut report);
            }
        }
        let listing = std::fs::read_to_string(root.join("crates/check/spawn_sites.txt"))
            .map_err(|e| format!("reading spawn_sites.txt: {e}"))?;
        spawns::check_listed(&lexed, &listing, &mut report);
    }
    if opts.locks {
        let text = std::fs::read_to_string(root.join("crates/check/locks.toml"))
            .map_err(|e| format!("reading locks.toml: {e}"))?;
        let cfg = locks::parse_config(&text)?;
        locks::check(&lexed, &cfg, &mut report);
    }
    if opts.api {
        let listing = std::fs::read_to_string(root.join("crates/check/api.txt"))
            .map_err(|e| format!("reading api.txt: {e}"))?;
        let mut found = Vec::new();
        for (rel, _, file) in &lexed {
            for (name, line) in api::items(&api::module_path(rel), file) {
                found.push((name, rel.clone(), line));
            }
        }
        api::check(found, &listing, &mut report);
    }
    Ok(report)
}

/// Locates the workspace root: `start` or the nearest ancestor holding
/// a `Cargo.toml` with a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
