//! Spawn-lint fixture: exactly one finding, on the marked line.

fn sum_in_background(rows: Vec<u32>) -> u32 {
    let worker = std::thread::spawn(move || rows.iter().sum()); // FINDING: ad-hoc spawn on the compute path
    worker.join().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_spawn() {
        std::thread::scope(|s| {
            s.spawn(|| ());
        });
    }
}
