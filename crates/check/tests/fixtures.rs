//! Fixture self-tests: every lint demonstrated firing exactly once on a
//! known line, and a clean file exercising every escape hatch without a
//! single finding. If a lint's matching logic drifts, these fail before
//! the workspace scan ever does.

use std::path::{Path, PathBuf};

use tkspmv_check::diag::{Lint, Report};
use tkspmv_check::lexer::lex;
use tkspmv_check::{alloc, api, atomics, locks, panics, spawns};

fn fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("testdata")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap();
    (path, text)
}

/// The 1-based line carrying the `FINDING` marker comment.
fn marked_line(text: &str) -> usize {
    text.lines()
        .position(|l| l.contains("// FINDING"))
        .map(|i| i + 1)
        .expect("fixture declares its finding line")
}

fn run_single_file(
    name: &str,
    check: fn(&Path, &tkspmv_check::lexer::LexedFile, &mut Report),
) -> Report {
    let (path, text) = fixture(name);
    let file = lex(&text);
    let mut report = Report::default();
    check(&path, &file, &mut report);
    report
}

#[test]
fn alloc_fixture_fires_exactly_once() {
    let (_, text) = fixture("alloc_fires.rs");
    let report = run_single_file("alloc_fires.rs", alloc::check_file);
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].lint, Lint::Alloc);
    assert_eq!(report.diagnostics[0].line, marked_line(&text));
}

#[test]
fn atomics_fixture_fires_exactly_once() {
    let (_, text) = fixture("atomics_fires.rs");
    let report = run_single_file("atomics_fires.rs", atomics::check_file);
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].lint, Lint::Atomics);
    assert_eq!(report.diagnostics[0].line, marked_line(&text));
}

#[test]
fn panics_fixture_fires_exactly_once() {
    let (_, text) = fixture("panics_fires.rs");
    let report = run_single_file("panics_fires.rs", panics::check_file);
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].lint, Lint::Panic);
    assert_eq!(report.diagnostics[0].line, marked_line(&text));
}

#[test]
fn spawns_fixture_fires_exactly_once() {
    let (_, text) = fixture("spawns_fires.rs");
    let report = run_single_file("spawns_fires.rs", spawns::check_file);
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].lint, Lint::Spawns);
    assert_eq!(report.diagnostics[0].line, marked_line(&text));
}

/// The lint covers the compute crates and exempts only the fork-join
/// module itself.
#[test]
fn spawns_lint_scope_is_the_compute_crates_minus_fanout() {
    assert!(spawns::in_scope("core", "crates/core/src/pruned.rs"));
    assert!(spawns::in_scope("baselines", "crates/baselines/src/cpu.rs"));
    assert!(!spawns::in_scope("core", "crates/core/src/fanout.rs"));
    assert!(!spawns::in_scope("serve", "crates/serve/src/service.rs"));
}

/// One thread start is missing from the fixture's allow-list; a line
/// no start backs fires too, at its line in the list. Crates outside
/// the service set are not the list's business.
#[test]
fn spawn_sites_fixture_fires_exactly_once() {
    let (_, text) = fixture("spawn_sites_fires.rs");
    let (_, listing) = fixture("spawn_sites_fires.txt");
    let files = |krate: &str| {
        let rel = PathBuf::from("testdata/spawn_sites_fires.rs");
        vec![(rel, krate.to_string(), lex(&text))]
    };
    let mut report = Report::default();
    spawns::check_listed(&files("fabric"), &listing, &mut report);
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].lint, Lint::Spawns);
    assert_eq!(report.diagnostics[0].line, marked_line(&text));
    assert!(report.diagnostics[0].message.contains("::answer"));

    let stale = format!(
        "{listing}testdata/spawn_sites_fires.rs::answer # now listed\n\
         testdata/spawn_sites_fires.rs::spawn # a second start that is not there\n"
    );
    let mut report = Report::default();
    spawns::check_listed(&files("fabric"), &stale, &mut report);
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].line, stale.lines().count());
    assert!(report.diagnostics[0].message.contains("starts no thread"));

    let mut report = Report::default();
    spawns::check_listed(&files("eval"), "", &mut report);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

/// The compute pool's module follows the allow-list: its listed
/// `start` is fine, any other start is a finding, and the same file
/// under another compute-crate path is the compute-path rule's business.
#[test]
fn pool_fixture_fires_exactly_once() {
    let (_, text) = fixture("pool_fires.rs");
    let at = |rel: &str| vec![(PathBuf::from(rel), "core".to_string(), lex(&text))];
    let listing = "crates/core/src/fanout.rs::start  # the pool's helpers\n";
    let mut report = Report::default();
    spawns::check_listed(&at("crates/core/src/fanout.rs"), listing, &mut report);
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].lint, Lint::Spawns);
    assert_eq!(report.diagnostics[0].line, marked_line(&text));
    assert!(report.diagnostics[0].message.contains("does not list"));

    let mut report = Report::default();
    spawns::check_listed(&at("crates/core/src/pruned.rs"), "", &mut report);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

/// One public item is missing from the fixture's listing; a line the
/// sources no longer back fires too, at its line in the listing.
#[test]
fn api_fixture_fires_exactly_once() {
    let (path, text) = fixture("api_fires.rs");
    let (_, listing) = fixture("api_fires.txt");
    let found = |text: &str| -> Vec<(String, PathBuf, usize)> {
        api::items("fixture", &lex(text))
            .into_iter()
            .map(|(name, line)| (name, path.clone(), line))
            .collect()
    };
    let mut report = Report::default();
    api::check(found(&text), &listing, &mut report);
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].lint, Lint::Api);
    assert_eq!(report.diagnostics[0].line, marked_line(&text));
    assert!(report.diagnostics[0].message.contains("Listed::unlisted"));

    let stale = format!("{listing}fixture::Listed::unlisted\nfixture::gone\n");
    let mut report = Report::default();
    api::check(found(&text), &stale, &mut report);
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].line, stale.lines().count());
    assert!(report.diagnostics[0].message.contains("fixture::gone"));
}

#[test]
fn api_module_paths_follow_the_source_tree() {
    for (rel, module) in [
        ("crates/core/src/lib.rs", "core"),
        ("crates/core/src/engine/mod.rs", "core::engine"),
        (
            "crates/fabric/src/bin/tkspmv_node.rs",
            "fabric::bin::tkspmv_node",
        ),
    ] {
        assert_eq!(api::module_path(Path::new(rel)), module);
    }
}

#[test]
fn locks_fixture_reports_the_backward_edge() {
    let (_, config_text) = fixture("locks.toml");
    let cfg = locks::parse_config(&config_text).unwrap();
    let (path, text) = fixture("locks_fires.rs");
    let files = vec![(path, "fixture".to_string(), lex(&text))];
    let mut report = Report::default();
    locks::check(&files, &cfg, &mut report);
    let violations: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == Lint::Locks)
        .collect();
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(
        violations[0].message.contains("fixture.inner")
            && violations[0].message.contains("fixture.outer"),
        "{}",
        violations[0].message
    );
}

#[test]
fn locks_fixture_clean_in_declared_order() {
    let (_, config_text) = fixture("locks.toml");
    let cfg = locks::parse_config(&config_text).unwrap();
    let (path, text) = fixture("locks_clean.rs");
    let files = vec![(path, "fixture".to_string(), lex(&text))];
    let mut report = Report::default();
    locks::check(&files, &cfg, &mut report);
    let violations: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == Lint::Locks)
        .collect();
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn clean_fixture_passes_every_lint() {
    let (path, text) = fixture("clean.rs");
    let file = lex(&text);
    let mut report = Report::default();
    alloc::check_file(&path, &file, &mut report);
    atomics::check_file(&path, &file, &mut report);
    panics::check_file(&path, &file, &mut report);
    spawns::check_file(&path, &file, &mut report);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(api::items("fixture", &file), Vec::new());
}
