//! Lock-hierarchy fixture: nesting in the declared order is clean.

fn forwards(pair: &Pair) {
    let outer = pair.outer.lock().unwrap();
    let inner = pair.inner.lock().unwrap();
    drop(inner);
    drop(outer);
}

/// A temporary guard ends with its match arm: the two arms never hold
/// their locks together.
fn one_lock_per_arm(pair: &Pair, next: Result<u32, u32>) {
    match next {
        Ok(v) => lock(&pair.inner).push(v),
        Err(e) => lock(&pair.outer).push(e),
    }
}
