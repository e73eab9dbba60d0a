//! Guards against manifest drift: the crate dependency DAG must stay
//! acyclic and layered, every shared dependency must defer to
//! `[workspace.dependencies]`, and the member list must match the disk.
//!
//! The checks themselves live in `tkspmv_check` (`--manifests` mode of
//! `cargo run -p tkspmv_check`), where CI runs them alongside the other
//! invariant lints; this test is the `cargo test` entry point to the
//! same code, so a plain test run still catches drift.

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
