//! API-ratchet fixture: every public item below is in `api_fires.txt`
//! except the one on the marked line.

pub struct Listed {
    pub field: u32,
    private: u32,
}

impl Listed {
    pub const fn new() -> Self {
        Self {
            field: 0,
            private: 0,
        }
    }

    pub fn unlisted(&self) -> u32 { // FINDING: public, absent from the listing
        self.private
    }

    pub(crate) fn restricted(&self) {}
}

pub trait Contract {
    fn required(&self);
    fn provided(&self) {
        fn local_helper() {}
        local_helper()
    }
}

pub use std::fmt::{Debug as Dbg, Display};

#[cfg(test)]
mod tests {
    pub fn tests_may_be_public() {}
}
