//! Clean fixture: every lint's escape hatch in one file. No lint may
//! fire anywhere in here.

use std::sync::atomic::{AtomicU64, Ordering};

fn annotated_ordering(c: &AtomicU64) -> u64 {
    // ordering: fixture — a monotone counter nobody reads transactionally.
    c.fetch_add(1, Ordering::Relaxed)
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
