//! Spawn allow-list fixture: two thread starts, one listed in
//! `spawn_sites_fires.txt`; exactly one finding, on the marked line.

struct Server;

impl Server {
    fn spawn() -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name("listed".to_string())
            .spawn(|| ())
            .expect("fixture")
    }

    fn answer(&self) {
        let per_request = || {
            std::thread::spawn(|| ()); // FINDING: a thread per request the list does not name
        };
        per_request();
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_spawn() {
        std::thread::spawn(|| ());
    }
}
