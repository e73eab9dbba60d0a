//! Guards against manifest drift: every shared dependency must defer to
//! `[workspace.dependencies]`, every member directory must be listed,
//! and no member may declare a cargo feature.
//!
//! The checks live in `tkspmv_check::manifests`; this test is their one
//! entry point, so a plain `cargo test` catches drift. Cargo itself
//! refuses a dependency cycle and a listed member without a manifest.

use tkspmv_check::diag::Report;

#[test]
fn manifests_have_no_drift() {
    let root = tkspmv_check::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the eval crate");
    let mut report = Report::default();
    tkspmv_check::manifests::check(&root, &mut report);
    assert!(
        report.diagnostics.is_empty(),
        "manifest drift:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
