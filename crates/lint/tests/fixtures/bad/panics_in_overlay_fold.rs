//@ path: crates/taxonomy/src/overlay.rs
//! An overlay read that trusts its patch table: every query after the
//! first ingest runs through here, so a panic takes a worker down.

pub fn patched_parents(patches: &[Option<Vec<u32>>], c: usize) -> Vec<u32> {
    let patch = patches.get(c).unwrap();
    patch.clone().expect("patched row")
}

pub fn first_op(log: &[u8]) -> u8 {
    log[0]
}
