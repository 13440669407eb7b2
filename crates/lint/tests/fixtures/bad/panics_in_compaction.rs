//@ path: crates/taxonomy/src/compact.rs
//! A compaction fold that panics on a failed re-freeze instead of
//! returning the error: the fold runs on a serving-side worker.

pub fn fold(refrozen: Result<Vec<u8>, String>) -> Vec<u8> {
    match refrozen {
        Ok(bytes) => bytes,
        Err(e) => panic!("compaction failed: {e}"),
    }
}
