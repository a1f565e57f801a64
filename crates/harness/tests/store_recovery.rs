//! Crash-recovery and compaction tests for the persistent verdict store:
//! torn tails are truncated, corrupt records cut the replay at the first
//! bad byte, crafted counts behind a valid checksum are skipped,
//! compaction is deterministic, and absorb folds shard files with
//! first-prover-wins semantics.

use harness::store::{Store, StoredVerdict, KIND_VERDICT, MAGIC};
use rmw_types::fasthash::FastHasher;
use std::hash::Hasher as _;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("store-recovery-{}-{name}.bin", std::process::id()))
}

fn verdict(tag: u64) -> (Vec<u64>, StoredVerdict) {
    (
        vec![3, tag, 2, 1, 0, 7, tag ^ 0xffff],
        StoredVerdict {
            outcomes: vec![
                (vec![0, tag], vec![(0, 1), (2, tag)]),
                (vec![tag, 0], vec![(0, 1)]),
            ],
            stats: [100 + tag, 40, 12, 8, 2, 4],
        },
    )
}

fn fill(path: &PathBuf, tags: std::ops::Range<u64>) {
    let mut s = Store::open(path).unwrap();
    for tag in tags {
        let (k, v) = verdict(tag);
        s.append(&k, tag, &v).unwrap();
    }
}

#[test]
fn a_torn_tail_is_truncated_and_the_prefix_survives() {
    let path = tmp("torn-tail");
    let _ = std::fs::remove_file(&path);
    fill(&path, 0..6);
    let full_len = std::fs::metadata(&path).unwrap().len();

    // Chop 5 bytes off the last record — the torn tail a crash mid-append
    // leaves behind.
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(full_len - 5).unwrap();
    drop(f);

    let s = Store::open(&path).unwrap();
    assert_eq!(s.len(), 5, "the five complete records survive");
    assert!(s.recovered_bytes() > 0, "the torn bytes are reported");
    for tag in 0..5 {
        let (k, v) = verdict(tag);
        assert_eq!(s.lookup(&k), Some(&v), "tag {tag}");
    }
    let (k5, _) = verdict(5);
    assert_eq!(s.lookup(&k5), None, "the torn record is gone");
    // Recovery truncated the file back to a record boundary.
    assert!(std::fs::metadata(&path).unwrap().len() < full_len - 5);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn appends_after_recovery_land_on_a_clean_boundary() {
    let path = tmp("append-after");
    let _ = std::fs::remove_file(&path);
    fill(&path, 0..3);
    let full_len = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(full_len - 1)
        .unwrap();

    {
        let mut s = Store::open(&path).unwrap();
        assert_eq!(s.len(), 2);
        let (k, v) = verdict(9);
        s.append(&k, 9, &v).unwrap();
    }
    let s = Store::open(&path).unwrap();
    assert_eq!(s.len(), 3, "recovered prefix + fresh append");
    assert_eq!(s.recovered_bytes(), 0, "second open is clean");
    let (k, v) = verdict(9);
    assert_eq!(s.lookup(&k), Some(&v));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_corrupt_middle_record_cuts_the_replay_there() {
    let path = tmp("corrupt-middle");
    let _ = std::fs::remove_file(&path);
    fill(&path, 0..4);
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one payload byte a little past the first record: the checksum
    // of that record no longer matches, so replay keeps only the records
    // before it (suffix loss, never silent corruption).
    let offset = MAGIC.len() + 40;
    bytes[offset] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let s = Store::open(&path).unwrap();
    assert!(s.len() < 4, "replay stops at the corrupt record");
    assert!(s.recovered_bytes() > 0);
    for tag in 0..s.len() as u64 {
        let (k, v) = verdict(tag);
        assert_eq!(s.lookup(&k), Some(&v), "prefix record {tag} intact");
    }
    std::fs::remove_file(&path).unwrap();
}

/// A version-2 record frame around `payload`: length, then the payload's
/// checksum, then the payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut checksum = FastHasher::default();
    checksum.write(payload);
    let mut record = ((8 + payload.len()) as u32).to_le_bytes().to_vec();
    record.extend_from_slice(&checksum.finish().to_le_bytes());
    record.extend_from_slice(payload);
    record
}

/// A one-verdict store file's records, magic stripped.
fn verdict_records(name: &str, tag: u64) -> Vec<u8> {
    let path = tmp(name);
    let _ = std::fs::remove_file(&path);
    fill(&path, tag..tag + 1);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes[MAGIC.len()..].to_vec()
}

#[test]
fn records_with_crafted_counts_are_skipped_not_allocated() {
    // A 28-byte verdict record whose key claims 2^32 - 1 words.
    let mut huge_key = KIND_VERDICT.to_le_bytes().to_vec();
    huge_key.extend_from_slice(&7u64.to_le_bytes()); // fingerprint
    huge_key.extend_from_slice(&u32::MAX.to_le_bytes()); // key_words
    let huge_key = frame(&huge_key);
    assert_eq!(huge_key.len(), 28);
    // An empty key and stats, then 2^32 - 1 outcomes.
    let mut huge_outcomes = KIND_VERDICT.to_le_bytes().to_vec();
    huge_outcomes.extend_from_slice(&7u64.to_le_bytes()); // fingerprint
    huge_outcomes.extend_from_slice(&0u32.to_le_bytes()); // key_words
    huge_outcomes.extend_from_slice(&[0; 48]); // stats
    huge_outcomes.extend_from_slice(&u32::MAX.to_le_bytes()); // outcome_count
    let huge_outcomes = frame(&huge_outcomes);

    let path = tmp("crafted-counts");
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&verdict_records("crafted-a", 0));
    bytes.extend_from_slice(&huge_key);
    bytes.extend_from_slice(&huge_outcomes);
    bytes.extend_from_slice(&verdict_records("crafted-b", 1));
    std::fs::write(&path, &bytes).unwrap();

    let s = Store::open(&path).unwrap();
    assert_eq!(s.open_stats().skipped_records, 2);
    assert_eq!(s.recovered_bytes(), 0, "the records are skipped, not cut");
    assert_eq!(s.len(), 2);
    for tag in 0..2 {
        let (k, v) = verdict(tag);
        assert_eq!(s.lookup(&k), Some(&v), "tag {tag}");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncating_inside_the_length_prefix_is_survivable() {
    let path = tmp("tiny-tail");
    let _ = std::fs::remove_file(&path);
    fill(&path, 0..2);
    let full_len = std::fs::metadata(&path).unwrap().len();
    // Leave just 2 bytes of the final record — not even a whole length
    // field. (Both records encode the same number of bytes, so one
    // record is half the post-magic file.)
    let one_record = (full_len - MAGIC.len() as u64) / 2;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(MAGIC.len() as u64 + one_record + 2)
        .unwrap();
    let s = Store::open(&path).unwrap();
    assert_eq!(s.len(), 1);
    assert_eq!(s.recovered_bytes(), 2);
    let (k1, _) = verdict(1);
    assert_eq!(s.lookup(&k1), None);
    let (k0, v0) = verdict(0);
    assert_eq!(s.lookup(&k0), Some(&v0));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn compaction_drops_shadowed_records_and_is_deterministic() {
    let a = tmp("compact-a");
    let b = tmp("compact-b");
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);

    // Same logical content, different append orders and different
    // shadowing history.
    {
        let mut s = Store::open(&a).unwrap();
        for tag in 0..5 {
            let (k, v) = verdict(tag);
            s.append(&k, tag, &v).unwrap();
        }
        let (k2, v2) = verdict(2);
        s.append(&k2, 2, &v2).unwrap(); // shadowing duplicate
        let (before, after) = s.compact().unwrap();
        assert_eq!((before, after), (6, 5));
    }
    {
        let mut s = Store::open(&b).unwrap();
        for tag in (0..5).rev() {
            let (k, v) = verdict(tag);
            s.append(&k, tag, &v).unwrap();
        }
        s.compact().unwrap();
    }
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "compaction output depends only on the key->verdict map"
    );
    // A compacted store replays with no duplicates.
    let s = Store::open(&a).unwrap();
    assert_eq!(s.open_stats().records, 5);
    assert_eq!(s.len(), 5);
    std::fs::remove_file(&a).unwrap();
    std::fs::remove_file(&b).unwrap();
}

#[test]
fn absorb_folds_shard_stores_with_existing_keys_winning() {
    let a = tmp("absorb-a");
    let b = tmp("absorb-b");
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
    fill(&a, 0..3);
    // Shard b shares key 2 (with different stats — the clash case) and
    // brings keys 3 and 4.
    {
        let mut s = Store::open(&b).unwrap();
        let (k2, mut v2) = verdict(2);
        v2.stats[0] = 777_777;
        s.append(&k2, 2, &v2).unwrap();
        for tag in 3..5 {
            let (k, v) = verdict(tag);
            s.append(&k, tag, &v).unwrap();
        }
    }
    let mut target = Store::open(&a).unwrap();
    let src = Store::open(&b).unwrap();
    let added = target.absorb(&src).unwrap();
    assert_eq!(added, 2, "only the keys a did not already have");
    assert_eq!(target.len(), 5);
    let (k2, v2) = verdict(2);
    assert_eq!(
        target.lookup(&k2),
        Some(&v2),
        "the existing entry wins the clash"
    );
    std::fs::remove_file(&a).unwrap();
    std::fs::remove_file(&b).unwrap();
}
