//! Compute-pool fixture: exactly one finding, on the marked line. Read
//! as `crates/core/src/fanout.rs` against a listing that names only
//! `start`.

fn start(index: usize) {
    let _ = std::thread::Builder::new()
        .name(format!("helper-{index}"))
        .spawn(|| ());
}

fn fan_out(rows: Vec<u32>) -> u32 {
    std::thread::scope(|s| s.spawn(|| rows.iter().sum()).join().unwrap_or(0)) // FINDING: a per-call thread beside the pool
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_spawn() {
        std::thread::spawn(|| ()).join().unwrap();
    }
}
