//! Clean fixture: every lint's escape hatch in one file. No lint may
//! fire anywhere in here.

use std::sync::atomic::{AtomicU64, Ordering};

fn annotated_paths(c: &AtomicU64) -> Vec<u32> {
    // alloc-ok: fixture — documented one-time setup allocation.
    let mut out = Vec::new();
    // ordering: fixture — a monotone counter nobody reads transactionally.
    c.fetch_add(1, Ordering::Relaxed);
    out.push(1);
    // invariant: fixture — the vector was just pushed to.
    let _ = out.first().unwrap();
    out
}

// alloc-ok(fn): fixture — whole function is setup-time.
fn exempt_function() -> String {
    let s = String::new();
    format!("{s}")
}

fn strings_do_not_count() -> &'static str {
    // The lexer must keep these out of the code channel entirely.
    "Vec::new() panic! unwrap() Ordering::SeqCst thread::spawn() pub fn ghost()"
}

// Restricted visibility is not public surface: the API listing of this
// file is empty.
pub(crate) struct Restricted {
    pub(crate) field: u32,
}

pub(super) fn also_restricted(r: &Restricted) -> u32 {
    r.field
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_do_anything() {
        let v: Vec<u32> = Vec::new();
        assert!(v.first().is_none());
        let _ = format!("{:?}", v);
        std::thread::scope(|s| {
            s.spawn(|| ());
        });
    }

    pub fn tests_may_be_public() {}
}
