//! Fixture self-tests: every lint demonstrated firing exactly once on a
//! known line, and a clean file exercising every escape hatch without a
//! single finding. If a lint's matching logic drifts, these fail before
//! the workspace scan ever does.

use std::path::{Path, PathBuf};

use tkspmv_check::diag::{Lint, Report};
use tkspmv_check::lexer::lex;
use tkspmv_check::{api, atomics, locks};

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
fn atomics_fixture_fires_exactly_once() {
    let (_, text) = fixture("atomics_fires.rs");
    let report = run_single_file("atomics_fires.rs", atomics::check_file);
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].lint, Lint::Atomics);
    assert_eq!(report.diagnostics[0].line, marked_line(&text));
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

/// The lock findings on one file of the fixture crate, under the
/// fixture hierarchy (outer before inner).
fn lock_findings(path: PathBuf, text: &str) -> Vec<String> {
    let (_, config_text) = fixture("locks.toml");
    let cfg = locks::parse_config(&config_text).unwrap();
    let files = vec![(path, "fixture".to_string(), lex(text))];
    let mut report = Report::default();
    locks::check(&files, &cfg, &mut report);
    report
        .diagnostics
        .iter()
        .filter(|d| d.lint == Lint::Locks)
        .map(|d| d.message.clone())
        .collect()
}

#[test]
fn locks_fixture_reports_the_backward_edge() {
    let (path, text) = fixture("locks_fires.rs");
    let violations = lock_findings(path, &text);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(
        violations[0].contains("fixture.inner") && violations[0].contains("fixture.outer"),
        "{}",
        violations[0]
    );
}

#[test]
fn locks_fixture_clean_in_declared_order() {
    let (path, text) = fixture("locks_clean.rs");
    let violations = lock_findings(path, &text);
    assert!(violations.is_empty(), "{violations:?}");
}

/// A guard in a match's scrutinee lives through every arm, so an arm
/// that takes an earlier lock nests backwards.
#[test]
fn locks_scrutinee_guard_lives_through_the_match() {
    let text = "fn f(pair: &Pair) {\n    match lock(&pair.inner).pop() {\n        \
                Some(v) => v,\n        None => lock(&pair.outer).len(),\n    };\n}\n";
    let violations = lock_findings(PathBuf::from("scrutinee.rs"), text);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(
        violations[0].contains("`fixture.outer` acquired while holding `fixture.inner`"),
        "{}",
        violations[0]
    );
}

#[test]
fn clean_fixture_passes_every_lint() {
    let (path, text) = fixture("clean.rs");
    let file = lex(&text);
    let mut report = Report::default();
    atomics::check_file(&path, &file, &mut report);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(api::items("fixture", &file), Vec::new());
}
