//! Workspace-level integration harness.
//!
//! This crate holds no code of its own: its library target exists only
//! to own the cross-crate test suites in the repository-root `tests/`
//! directory and the runnable `examples/` (see its `Cargo.toml` for the
//! target wiring).
