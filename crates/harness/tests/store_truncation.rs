//! Exhaustive truncation robustness for the persistent verdict store.
//!
//! The store's crash contract is "missing, never wrong": whatever prefix
//! of the file a crash leaves behind, `Store::open` must either refuse
//! the file (unreadable magic) or come back with a subset of the original
//! records — every surviving verdict byte-identical to what was written,
//! never a silently corrupted value. These tests cut real v1 and v2 files
//! at **every** byte offset and check exactly that, then let proptest flip
//! arbitrary bytes to probe mid-file corruption.

use harness::store::{Store, StoredVerdict, MAGIC, MAGIC_V1};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("store-trunc-{}-{name}.bin", std::process::id()))
}

fn verdict(tag: u64) -> (Vec<u64>, StoredVerdict) {
    (
        vec![4, tag, 1, 0, 9, tag.wrapping_mul(31)],
        StoredVerdict {
            outcomes: vec![
                (vec![tag, 0], vec![(0, tag), (1, 1)]),
                (vec![0, tag], vec![(1, tag)]),
            ],
            stats: [50 + tag, 20, 6, 4, 1, 2],
        },
    )
}

/// Builds a small v2 file (three verdicts) and returns its bytes plus
/// the expected contents.
fn build_v2(path: &PathBuf) -> (Vec<u8>, BTreeMap<Vec<u64>, StoredVerdict>) {
    let _ = std::fs::remove_file(path);
    let mut expected = BTreeMap::new();
    {
        let mut s = Store::open(path).unwrap();
        for tag in 0..3 {
            let (k, v) = verdict(tag);
            s.append(&k, tag, &v).unwrap();
            expected.insert(k, v);
        }
    }
    let bytes = std::fs::read(path).unwrap();
    (bytes, expected)
}

/// Builds a small v1 file (three verdicts) by seeding the old magic and
/// appending through the public API, which keeps the file in its original
/// format.
fn build_v1(path: &PathBuf) -> (Vec<u8>, BTreeMap<Vec<u64>, StoredVerdict>) {
    let _ = std::fs::remove_file(path);
    std::fs::write(path, MAGIC_V1).unwrap();
    let mut expected = BTreeMap::new();
    {
        let mut s = Store::open(path).unwrap();
        assert_eq!(s.version(), 1);
        for tag in 0..3 {
            let (k, v) = verdict(tag);
            s.append(&k, tag, &v).unwrap();
            expected.insert(k, v);
        }
    }
    let bytes = std::fs::read(path).unwrap();
    (bytes, expected)
}

/// The shared per-truncation check: a file cut at `cut` either opens as a
/// fresh/older store whose surviving entries all match the originals, or
/// is rejected outright — never a wrong verdict.
fn check_cut(
    path: &PathBuf,
    bytes: &[u8],
    cut: usize,
    expected: &BTreeMap<Vec<u64>, StoredVerdict>,
) {
    let _ = std::fs::remove_file(path);
    std::fs::write(path, &bytes[..cut]).unwrap();
    match Store::open(path) {
        Err(e) => {
            // Only a cut *inside* the magic may be rejected.
            assert!(
                (1..MAGIC.len()).contains(&cut),
                "cut {cut}: unexpected open failure {e}"
            );
        }
        Ok(s) => {
            if cut == 0 {
                // An empty file is (re)initialized as a fresh store.
                assert_eq!(s.len(), 0);
                assert_eq!(s.version(), 2);
                return;
            }
            let mut survivors = 0;
            for (k, v) in expected {
                match s.lookup(k) {
                    None => {}
                    Some(got) => {
                        assert_eq!(got, v, "cut {cut}: surviving verdict must be exact");
                        survivors += 1;
                    }
                }
            }
            // A full-length cut loses nothing.
            if cut == bytes.len() {
                assert_eq!(survivors, expected.len(), "uncut file keeps every record");
                assert_eq!(s.recovered_bytes(), 0);
            }
            // Whatever was dropped is accounted for: the replayed prefix
            // plus the reported torn bytes must cover the whole cut.
            assert!(
                s.recovered_bytes() <= (cut - MAGIC.len()) as u64,
                "cut {cut}: recovered_bytes cannot exceed the body"
            );
            drop(s);
            // Recovery truncates to a record boundary: a second open is
            // clean (no torn bytes) and sees the same survivors.
            let s2 = Store::open(path).unwrap();
            assert_eq!(s2.recovered_bytes(), 0, "cut {cut}: reopen is clean");
            assert_eq!(s2.len(), survivors, "cut {cut}: reopen sees the survivors");
        }
    }
}

#[test]
fn every_truncation_of_a_v2_file_is_missing_never_wrong() {
    let path = tmp("v2-exhaustive");
    let (bytes, expected) = build_v2(&path);
    for cut in 0..=bytes.len() {
        check_cut(&path, &bytes, cut, &expected);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_truncation_of_a_v1_file_is_missing_never_wrong() {
    let path = tmp("v1-exhaustive");
    let (bytes, expected) = build_v1(&path);
    for cut in 0..=bytes.len() {
        check_cut(&path, &bytes, cut, &expected);
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any byte anywhere in a v2 file must never produce a
    /// *wrong* verdict for a known key: the checksummed framing either
    /// drops the damaged record (and possibly the suffix behind it) or
    /// the magic check rejects the file.
    #[test]
    fn byte_flips_never_corrupt_a_surviving_verdict(offset in 0usize..4096, flip in 1u8..=255) {
        let path = tmp(&format!("v2-flip-{offset}-{flip}"));
        let (mut bytes, expected) = build_v2(&path);
        let offset = offset % bytes.len();
        bytes[offset] ^= flip;
        std::fs::write(&path, &bytes).unwrap();
        match Store::open(&path) {
            Err(_) => prop_assert!(offset < MAGIC.len(), "only magic damage may reject"),
            Ok(s) => {
                for (k, v) in &expected {
                    if let Some(got) = s.lookup(k) {
                        prop_assert_eq!(got, v, "surviving verdict must be exact");
                    }
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
