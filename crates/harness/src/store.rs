//! The persistent verdict store: an append-only record file that keeps
//! model verdicts (and prefix certificates) across `litmus_run`
//! invocations.
//!
//! The in-memory verdict cache (`tso_model::cache`) eliminates repeated
//! model searches *within* a process; this store eliminates them *across*
//! processes. It is the storage tier behind campaign mode: the first run
//! over a corpus pays every model search once and appends each result;
//! every later run — a resumed shard, a re-run, a different shard sharing
//! the file, tomorrow's regression sweep — answers those queries with a
//! file lookup instead of a search. Since format version 2 the same file
//! also persists **prefix certificates**
//! ([`tso_model::prefix`]): the recorded complete-leaf paths that let
//! atomicity siblings replay one pruned search instead of re-running it.
//!
//! # On-disk format (version 2)
//!
//! Everything is little-endian. The file is a fixed 8-byte header
//! followed by length-prefixed records (see `DESIGN.md` "verdict store"
//! for the normative byte-level specification):
//!
//! ```text
//! file    := magic record*
//! magic   := "RMWVST02"                      (8 bytes: format + version)
//! record  := len:u32 checksum:u64 payload    (len = 8 + payload bytes)
//! payload := kind:u32 body
//! kind 1 (verdict):
//! body    := fingerprint:u64
//!            key_words:u32  key:u64[key_words]
//!            stats:u64[6]                    (nodes pruned complete valid 1 1)
//!            outcome_count:u32 outcome*
//! outcome := reads:u32 read_value:u64[reads]
//!            mem:u32  (addr:u64 value:u64)[mem]
//! kind 2 (certificate):
//! body    := fingerprint:u64
//!            key_words:u32  key:u64[key_words]
//!            nodes:u64 pruned:u64 complete:u64
//!            leaf_count:u32 leaf*
//! leaf    := ws:u32 event:u64[ws]  rf:u32 event:u64[rf]
//! ```
//!
//! A verdict's record key is the program's **full canonical
//! serialization** (`tso_model::Canonical::key`); a certificate's is the
//! **atomicity-masked** canonical key (`tso_model::canon::masked_key`
//! zeroes the per-RMW atomicity rank words) — both collision-proof by
//! construction, with the 64-bit `fingerprint` riding along for
//! diagnostics and shard routing. Outcome reads/memory and certificate
//! leaf paths are in the canonical program's coordinates, which is exactly
//! what the in-memory tiers store; coordinate translation back to each
//! caller's frame stays where it always was, in `tso_model::cache`.
//!
//! # Forward and backward compatibility
//!
//! * **Unknown record kinds are skipped, not treated as corruption.** A
//!   record whose checksum validates but whose `kind` this build does not
//!   know is counted in [`OpenStats::skipped_records`] and replay
//!   continues at the next record — a file written by a newer build loses
//!   only the records this build cannot read. Checksum failures still cut
//!   the replay (see below): the checksum guards record *boundaries*,
//!   the kind tags record *content*.
//! * **Version-1 files still open.** `"RMWVST01"` files (bare verdict
//!   payloads, no kind tag) replay fully; appends through a v1 handle keep
//!   writing v1 verdict records so older tools sharing the file stay
//!   functional, and certificate appends on a v1 file are dropped (v1 has
//!   no encoding for them). [`Store::compact`] always rewrites in the
//!   current format, upgrading the file.
//!
//! # Crash safety
//!
//! Appends are atomic at the record level: a record is serialized to one
//! buffer and written with a single `write_all`. A crash (or `kill -9`,
//! or a full disk) can leave at most a torn record at the *tail*.
//! [`Store::open`] replays the file and accepts the longest valid prefix:
//! a record is valid iff its length field fits in the remaining bytes and
//! the checksum (fasthash of the payload) matches. At the first invalid
//! record the file is truncated back to the end of the valid prefix and
//! the dropped byte count is reported in [`Store::recovered_bytes`]. A
//! torn tail therefore costs at most one record — which the next run
//! simply recomputes and re-appends.
//!
//! Later records win: appending the same key again shadows the earlier
//! record at load time. [`Store::compact`] rewrites the file with one
//! record per key (atomically, via a temp file + rename) — worth running
//! after long campaigns that recorded shadowed entries, and it doubles as
//! the fold when merging per-shard store files into one.
//!
//! One process per store file at a time: the store does no file locking,
//! so concurrent *shards* must write distinct files (the campaign driver
//! derives `PATH.i-of-n` names automatically) and fold them afterwards
//! with `litmus_run compact --merge`.
//!
//! # Example
//!
//! ```
//! use harness::store::{Store, StoredVerdict};
//!
//! let path = std::env::temp_dir().join(format!("doc-store-{}.bin", std::process::id()));
//! # let _ = std::fs::remove_file(&path);
//! // Open (creating) a store, append a verdict, and look it back up.
//! let mut store = Store::open(&path)?;
//! let key = vec![2, u64::MAX, 2, 1, 0, 1, 1];
//! let verdict = StoredVerdict {
//!     outcomes: vec![(vec![0], vec![(0, 1)]), (vec![1], vec![(0, 1)])],
//!     stats: [9, 4, 2, 2, 1, 1],
//! };
//! store.append(&key, 0xfee1, &verdict)?;
//! assert_eq!(store.lookup(&key), Some(&verdict));
//! assert_eq!(store.len(), 1);
//!
//! // Reopen: the record survives the process.
//! drop(store);
//! let reopened = Store::open(&path)?;
//! assert_eq!(reopened.lookup(&key), Some(&verdict));
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::faults;
use rmw_types::fasthash::{FastHashMap, FastHasher};
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::hash::Hasher as _;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tso_model::prefix::{CertData, CertificateStore};
use tso_model::{Outcome, SearchStats, VerdictStore};

/// File magic: format name + on-disk version in one 8-byte prefix.
pub const MAGIC: &[u8; 8] = b"RMWVST02";

/// The previous format's magic. Version-1 files (verdict records only,
/// no kind tags) open read/write in their own format; see the module docs.
pub const MAGIC_V1: &[u8; 8] = b"RMWVST01";

/// Record kind tag for a verdict record (format version 2).
pub const KIND_VERDICT: u32 = 1;

/// Record kind tag for a prefix-certificate record (format version 2).
pub const KIND_CERT: u32 = 2;

/// Number of `u64` stats words in a record: `nodes`, `pruned`, `complete`,
/// `valid` (the additive [`SearchStats`] counters), then two words that
/// once held the parallel search's task and worker counts. Every search
/// now runs as one task on one worker, so writers put `1, 1` there and
/// readers ignore them — files stay byte-identical to earlier builds'.
pub const STATS_WORDS: usize = 6;

/// One allowed outcome in storable form: the read values in `(thread, po)`
/// order, and the final `(addr, value)` memory pairs, address-sorted.
pub type StoredOutcome = (Vec<u64>, Vec<(u64, u64)>);

/// One stored verdict: the allowed outcome set of a canonical program and
/// the (attributed) stats of the search that proved it.
///
/// Outcomes are `(read_values, final_memory)` pairs in the canonical
/// program's coordinates, exactly as `tso_model::cache` keeps them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredVerdict {
    /// The allowed outcomes, one [`StoredOutcome`] per model outcome.
    pub outcomes: Vec<StoredOutcome>,
    /// The stats words, in record order (see [`STATS_WORDS`]).
    pub stats: [u64; STATS_WORDS],
}

impl StoredVerdict {
    /// Converts a model cache entry into its storable form.
    pub fn from_model(outcomes: &BTreeSet<Outcome>, stats: &SearchStats) -> Self {
        StoredVerdict {
            outcomes: outcomes
                .iter()
                .map(|o| {
                    (
                        o.read_values(),
                        o.final_memory().iter().map(|&(a, v)| (a.0, v)).collect(),
                    )
                })
                .collect(),
            stats: [stats.nodes, stats.pruned, stats.complete, stats.valid, 1, 1],
        }
    }

    /// Reconstructs the model cache entry form.
    pub fn to_model(&self) -> (BTreeSet<Outcome>, SearchStats) {
        let outcomes = self
            .outcomes
            .iter()
            .map(|(reads, mem)| {
                Outcome::new(
                    reads.clone(),
                    mem.iter().map(|&(a, v)| (rmw_types::Addr(a), v)).collect(),
                )
            })
            .collect();
        let [nodes, pruned, complete, valid, _, _] = self.stats;
        let stats = SearchStats {
            nodes,
            pruned,
            complete,
            valid,
            stopped_early: false,
            budget_exhausted: false,
        };
        (outcomes, stats)
    }
}

/// Statistics from opening a store file — how much survived recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenStats {
    /// Valid records replayed (verdicts and certificates, including
    /// shadowed duplicates).
    pub records: u64,
    /// Distinct verdict keys in the index after replay.
    pub keys: u64,
    /// Bytes dropped from a torn tail (0 on a clean file).
    pub recovered_bytes: u64,
    /// Checksummed records whose kind this build does not understand,
    /// skipped during replay (forward compatibility — see module docs).
    pub skipped_records: u64,
}

/// The append-only verdict store. See the module docs for the format and
/// crash-safety contract.
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    file: File,
    /// On-disk format version of the open file (1 or 2); appends through
    /// this handle stay in the file's own format.
    version: u8,
    index: FastHashMap<Vec<u64>, StoredVerdict>,
    certs: FastHashMap<Vec<u64>, CertData>,
    open_stats: OpenStats,
    appended: u64,
    /// Byte offset of the last known-good record boundary. A failed
    /// append rolls the file back here, so one bad write (full disk,
    /// injected fault) can tear at most itself — never the records a
    /// later append would otherwise strand behind it.
    end_offset: u64,
}

/// `fsync`s the directory containing `path`, making a just-renamed file
/// durable against power loss (the rename itself lives in the directory,
/// not the file).
pub fn fsync_parent(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// One decoded record during replay.
enum Record {
    Verdict(Vec<u64>, StoredVerdict),
    Cert(Vec<u64>, CertData),
    /// Checksummed but not interpretable by this build (unknown kind, or a
    /// malformed body behind a valid checksum) — skipped, never truncated.
    Skipped,
}

impl Store {
    /// Opens (creating if absent) the store at `path`, replaying every
    /// valid record into the in-memory index and truncating any torn
    /// tail left by a crash mid-append. New files are created in the
    /// current format; existing version-1 files open in theirs.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Store> {
        faults::io_point("store.open")?;
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.is_empty() {
            file.write_all(MAGIC)?;
            file.flush()?;
            return Ok(Store {
                path,
                file,
                version: 2,
                index: FastHashMap::default(),
                certs: FastHashMap::default(),
                open_stats: OpenStats::default(),
                appended: 0,
                end_offset: MAGIC.len() as u64,
            });
        }
        let version = match bytes.get(..MAGIC.len()) {
            Some(m) if m == MAGIC => 2,
            Some(m) if m == MAGIC_V1 => 1,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: not a verdict store (bad magic)", path.display()),
                ))
            }
        };

        let mut index = FastHashMap::default();
        let mut certs = FastHashMap::default();
        let mut records = 0u64;
        let mut skipped_records = 0u64;
        let mut pos = MAGIC.len();
        while let Some((consumed, payload)) = parse_frame(&bytes[pos..]) {
            match parse_payload(payload, version) {
                Some(Record::Verdict(key, verdict)) => {
                    index.insert(key, verdict);
                    records += 1;
                }
                Some(Record::Cert(key, cert)) => {
                    certs.insert(key, cert);
                    records += 1;
                }
                Some(Record::Skipped) => skipped_records += 1,
                // v1 only: a checksummed record that fails to parse as a
                // verdict ends the replay, exactly as it always did.
                None => break,
            }
            pos += consumed;
        }
        let recovered_bytes = (bytes.len() - pos) as u64;
        if recovered_bytes > 0 {
            // Torn tail: truncate back to the valid prefix so the next
            // append starts on a record boundary.
            file.set_len(pos as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        let keys = index.len() as u64;
        Ok(Store {
            path,
            file,
            version,
            index,
            certs,
            open_stats: OpenStats {
                records,
                keys,
                recovered_bytes,
                skipped_records,
            },
            appended: 0,
            end_offset: pos as u64,
        })
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The on-disk format version of the open file (1 or 2).
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Looks up the verdict for a canonical-serialization key.
    pub fn lookup(&self, key: &[u64]) -> Option<&StoredVerdict> {
        self.index.get(key)
    }

    /// Looks up the prefix certificate for an atomicity-masked key.
    pub fn lookup_cert(&self, masked_key: &[u64]) -> Option<&CertData> {
        self.certs.get(masked_key)
    }

    /// Distinct verdict keys currently indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Distinct certificate keys currently indexed.
    pub fn cert_count(&self) -> usize {
        self.certs.len()
    }

    /// True when the store holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Replay/recovery statistics from [`Store::open`].
    pub fn open_stats(&self) -> OpenStats {
        self.open_stats
    }

    /// Bytes dropped from a torn tail when the store was opened.
    pub fn recovered_bytes(&self) -> u64 {
        self.open_stats.recovered_bytes
    }

    /// Records appended through this handle since it was opened.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Appends a verdict record and updates the index. The record is
    /// written with a single `write_all` and flushed, so a crash leaves
    /// at most a torn tail that the next [`Store::open`] truncates.
    pub fn append(
        &mut self,
        key: &[u64],
        fingerprint: u64,
        verdict: &StoredVerdict,
    ) -> io::Result<()> {
        let payload = encode_verdict_payload(key, fingerprint, verdict, self.version);
        self.append_record(&encode_frame(&payload), "store.append.write")?;
        self.index.insert(key.to_vec(), verdict.clone());
        Ok(())
    }

    /// Writes one framed record at the current end, rolling the file back
    /// to the last good boundary if the write fails partway (so a failed
    /// append never strands later records behind a torn frame).
    fn append_record(&mut self, record: &[u8], point: &str) -> io::Result<()> {
        let write = faults::write_point(&mut self.file, record, point).and_then(|()| {
            faults::io_point("store.append.flush")?;
            self.file.flush()
        });
        if let Err(e) = write {
            // Best-effort rollback; if it fails too, the torn tail is
            // truncated by the next open instead.
            let _ = self.file.set_len(self.end_offset);
            let _ = self.file.seek(SeekFrom::Start(self.end_offset));
            return Err(e);
        }
        self.end_offset += record.len() as u64;
        self.appended += 1;
        Ok(())
    }

    /// Appends a prefix-certificate record keyed by the atomicity-masked
    /// canonical key. On a version-1 file this is a no-op (v1 has no
    /// certificate encoding); [`Store::compact`] upgrades such files.
    pub fn append_cert(
        &mut self,
        masked_key: &[u64],
        fingerprint: u64,
        cert: &CertData,
    ) -> io::Result<()> {
        if self.version < 2 {
            return Ok(());
        }
        let payload = encode_cert_payload(masked_key, fingerprint, cert);
        self.append_record(&encode_frame(&payload), "store.append_cert.write")?;
        self.certs.insert(masked_key.to_vec(), cert.clone());
        Ok(())
    }

    /// Rewrites the file with exactly one record per key (later appends
    /// already won at replay time), atomically via a temp file + rename,
    /// always in the current format — compaction upgrades version-1
    /// files. Returns `(records_before, records_after)`.
    pub fn compact(&mut self) -> io::Result<(u64, u64)> {
        let before = self.open_stats.records + self.appended;
        let tmp = self.path.with_extension("tmp");
        {
            faults::io_point("store.compact.create")?;
            let mut out = File::create(&tmp)?;
            let mut buf = Vec::with_capacity(MAGIC.len());
            buf.extend_from_slice(MAGIC);
            // Deterministic output order: sort by key so compacting the
            // same logical contents always produces identical bytes.
            let mut entries: Vec<(&Vec<u64>, &StoredVerdict)> = self.index.iter().collect();
            entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
            for (key, verdict) in entries {
                let fingerprint = fingerprint_of(key);
                buf.extend_from_slice(&encode_frame(&encode_verdict_payload(
                    key,
                    fingerprint,
                    verdict,
                    2,
                )));
            }
            let mut cert_entries: Vec<(&Vec<u64>, &CertData)> = self.certs.iter().collect();
            cert_entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
            for (key, cert) in cert_entries {
                let fingerprint = fingerprint_of(key);
                buf.extend_from_slice(&encode_frame(&encode_cert_payload(key, fingerprint, cert)));
            }
            faults::write_point(&mut out, &buf, "store.compact.write")?;
            out.sync_all()?;
        }
        faults::io_point("store.compact.rename")?;
        std::fs::rename(&tmp, &self.path)?;
        // The rename lives in the directory entry: sync the parent so the
        // compacted file survives power loss, not just a process crash.
        fsync_parent(&self.path)?;
        // Reopen the handle on the rewritten file, positioned at its end.
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.end_offset = self.file.seek(SeekFrom::End(0))?;
        self.version = 2;
        let after = (self.index.len() + self.certs.len()) as u64;
        self.open_stats.records = after;
        self.open_stats.skipped_records = 0;
        self.appended = 0;
        Ok((before, after))
    }

    /// Folds every verdict and certificate of `other` into this store
    /// (appending records for keys this store doesn't already have —
    /// existing entries win, matching "first prover wins" semantics
    /// across shard files). Returns the number of records appended.
    pub fn absorb(&mut self, other: &Store) -> io::Result<u64> {
        let mut added = 0;
        for (key, verdict) in &other.index {
            if !self.index.contains_key(key) {
                self.append(key, fingerprint_of(key), verdict)?;
                added += 1;
            }
        }
        for (key, cert) in &other.certs {
            if self.version >= 2 && !self.certs.contains_key(key) {
                self.append_cert(key, fingerprint_of(key), cert)?;
                added += 1;
            }
        }
        Ok(added)
    }
}

/// The canonical-serialization fingerprint, recomputed from a key (the
/// same fasthash `tso_model::canon` uses).
fn fingerprint_of(key: &[u64]) -> u64 {
    let mut hasher = FastHasher::default();
    for &w in key {
        hasher.write_u64(w);
    }
    hasher.finish()
}

/// Wraps a payload in the record framing: `len:u32 checksum:u64 payload`.
fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut checksum = FastHasher::default();
    checksum.write(payload);
    let mut record = Vec::with_capacity(12 + payload.len());
    record.extend_from_slice(&((payload.len() + 8) as u32).to_le_bytes());
    record.extend_from_slice(&checksum.finish().to_le_bytes());
    record.extend_from_slice(payload);
    record
}

fn encode_verdict_payload(
    key: &[u64],
    fingerprint: u64,
    verdict: &StoredVerdict,
    version: u8,
) -> Vec<u8> {
    let mut payload = Vec::with_capacity(36 + key.len() * 8);
    if version >= 2 {
        payload.extend_from_slice(&KIND_VERDICT.to_le_bytes());
    }
    payload.extend_from_slice(&fingerprint.to_le_bytes());
    payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
    for &w in key {
        payload.extend_from_slice(&w.to_le_bytes());
    }
    for &s in &verdict.stats {
        payload.extend_from_slice(&s.to_le_bytes());
    }
    payload.extend_from_slice(&(verdict.outcomes.len() as u32).to_le_bytes());
    for (reads, mem) in &verdict.outcomes {
        payload.extend_from_slice(&(reads.len() as u32).to_le_bytes());
        for &r in reads {
            payload.extend_from_slice(&r.to_le_bytes());
        }
        payload.extend_from_slice(&(mem.len() as u32).to_le_bytes());
        for &(a, v) in mem {
            payload.extend_from_slice(&a.to_le_bytes());
            payload.extend_from_slice(&v.to_le_bytes());
        }
    }
    payload
}

fn encode_cert_payload(masked_key: &[u64], fingerprint: u64, cert: &CertData) -> Vec<u8> {
    let mut payload = Vec::with_capacity(48 + masked_key.len() * 8);
    payload.extend_from_slice(&KIND_CERT.to_le_bytes());
    payload.extend_from_slice(&fingerprint.to_le_bytes());
    payload.extend_from_slice(&(masked_key.len() as u32).to_le_bytes());
    for &w in masked_key {
        payload.extend_from_slice(&w.to_le_bytes());
    }
    payload.extend_from_slice(&cert.nodes.to_le_bytes());
    payload.extend_from_slice(&cert.pruned.to_le_bytes());
    payload.extend_from_slice(&cert.complete.to_le_bytes());
    payload.extend_from_slice(&(cert.leaves.len() as u32).to_le_bytes());
    for (ws, rf) in &cert.leaves {
        payload.extend_from_slice(&(ws.len() as u32).to_le_bytes());
        for &e in ws {
            payload.extend_from_slice(&e.to_le_bytes());
        }
        payload.extend_from_slice(&(rf.len() as u32).to_le_bytes());
        for &e in rf {
            payload.extend_from_slice(&e.to_le_bytes());
        }
    }
    payload
}

/// Validates one record frame at the front of `bytes`: a complete length
/// field, a complete body, and a matching payload checksum. Returns the
/// bytes consumed and the payload — or `None` on a torn/corrupt frame,
/// which ends the replay (suffix loss, never silent corruption).
fn parse_frame(bytes: &[u8]) -> Option<(usize, &[u8])> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let body = bytes.get(4..4 + len)?;
    let stored_checksum = u64::from_le_bytes(body.get(..8)?.try_into().ok()?);
    let payload = &body[8..];
    let mut checksum = FastHasher::default();
    checksum.write(payload);
    if checksum.finish() != stored_checksum {
        return None;
    }
    Some((4 + len, payload))
}

/// Interprets a checksummed payload under the file's format version.
/// Version 2 never returns `None`: an unknown kind (or a malformed body
/// behind a valid checksum) is [`Record::Skipped`], because the checksum
/// already proved the record *boundary* and truncating would throw away a
/// valid suffix. Version 1 keeps its original strictness: a payload that
/// is not a verdict ends the replay (`None`).
fn parse_payload(payload: &[u8], version: u8) -> Option<Record> {
    if version < 2 {
        return parse_verdict_body(payload).map(|(k, v)| Record::Verdict(k, v));
    }
    let mut cur = Cursor { bytes: payload };
    let kind = cur.u32()?;
    Some(match kind {
        KIND_VERDICT => match parse_verdict_body(cur.bytes) {
            Some((k, v)) => Record::Verdict(k, v),
            None => Record::Skipped,
        },
        KIND_CERT => match parse_cert_body(cur.bytes) {
            Some((k, c)) => Record::Cert(k, c),
            None => Record::Skipped,
        },
        _ => Record::Skipped,
    })
}

/// Parses a verdict body (the payload minus any kind tag).
fn parse_verdict_body(bytes: &[u8]) -> Option<(Vec<u64>, StoredVerdict)> {
    let mut cur = Cursor { bytes };
    let _fingerprint = cur.u64()?;
    let key_words = cur.u32()? as usize;
    let mut key = Vec::with_capacity(key_words);
    for _ in 0..key_words {
        key.push(cur.u64()?);
    }
    let mut stats = [0u64; STATS_WORDS];
    for s in &mut stats {
        *s = cur.u64()?;
    }
    let outcome_count = cur.u32()? as usize;
    let mut outcomes = Vec::with_capacity(outcome_count);
    for _ in 0..outcome_count {
        let reads_len = cur.u32()? as usize;
        let mut reads = Vec::with_capacity(reads_len);
        for _ in 0..reads_len {
            reads.push(cur.u64()?);
        }
        let mem_len = cur.u32()? as usize;
        let mut mem = Vec::with_capacity(mem_len);
        for _ in 0..mem_len {
            let a = cur.u64()?;
            let v = cur.u64()?;
            mem.push((a, v));
        }
        outcomes.push((reads, mem));
    }
    if !cur.bytes.is_empty() {
        return None; // trailing garbage inside a checksummed record
    }
    Some((key, StoredVerdict { outcomes, stats }))
}

/// Parses a certificate body (the payload minus the kind tag).
fn parse_cert_body(bytes: &[u8]) -> Option<(Vec<u64>, CertData)> {
    let mut cur = Cursor { bytes };
    let _fingerprint = cur.u64()?;
    let key_words = cur.u32()? as usize;
    let mut key = Vec::with_capacity(key_words);
    for _ in 0..key_words {
        key.push(cur.u64()?);
    }
    let nodes = cur.u64()?;
    let pruned = cur.u64()?;
    let complete = cur.u64()?;
    let leaf_count = cur.u32()? as usize;
    let mut leaves = Vec::with_capacity(leaf_count);
    for _ in 0..leaf_count {
        let ws_len = cur.u32()? as usize;
        let mut ws = Vec::with_capacity(ws_len);
        for _ in 0..ws_len {
            ws.push(cur.u64()?);
        }
        let rf_len = cur.u32()? as usize;
        let mut rf = Vec::with_capacity(rf_len);
        for _ in 0..rf_len {
            rf.push(cur.u64()?);
        }
        leaves.push((ws, rf));
    }
    if !cur.bytes.is_empty() {
        return None;
    }
    Some((
        key,
        CertData {
            leaves,
            nodes,
            pruned,
            complete,
        },
    ))
}

struct Cursor<'a> {
    bytes: &'a [u8],
}

impl Cursor<'_> {
    fn u32(&mut self) -> Option<u32> {
        let v = u32::from_le_bytes(self.bytes.get(..4)?.try_into().ok()?);
        self.bytes = &self.bytes[4..];
        Some(v)
    }

    fn u64(&mut self) -> Option<u64> {
        let v = u64::from_le_bytes(self.bytes.get(..8)?.try_into().ok()?);
        self.bytes = &self.bytes[8..];
        Some(v)
    }
}

/// A [`Store`] behind a mutex, implementing both of the model's
/// persistence hooks: the verdict cache's
/// [`VerdictStore`] and the certificate tier's
/// [`CertificateStore`] — this is what `litmus_run` installs with
/// `tso_model::cache::set_store` and `tso_model::prefix::set_store` so
/// every model query in the process reads and writes one shared file.
///
/// Write errors during a save are counted ([`SharedStore::save_errors`])
/// but otherwise swallowed: persistence is an optimization, and a full
/// disk must not fail a verification run.
#[derive(Debug)]
pub struct SharedStore {
    inner: Mutex<Store>,
    loads: AtomicU64,
    cert_loads: AtomicU64,
    save_errors: AtomicU64,
}

impl SharedStore {
    /// Wraps an opened store for concurrent use.
    pub fn new(store: Store) -> Self {
        SharedStore {
            inner: Mutex::new(store),
            loads: AtomicU64::new(0),
            cert_loads: AtomicU64::new(0),
            save_errors: AtomicU64::new(0),
        }
    }

    /// Opens (creating) the store at `path`; see [`Store::open`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Store::open(path).map(SharedStore::new)
    }

    /// Successful [`VerdictStore::load`] answers served so far.
    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Successful [`CertificateStore::load_cert`] answers served so far.
    pub fn cert_loads(&self) -> u64 {
        self.cert_loads.load(Ordering::Relaxed)
    }

    /// Failed (swallowed) save attempts so far (verdicts + certificates).
    pub fn save_errors(&self) -> u64 {
        self.save_errors.load(Ordering::Relaxed)
    }

    /// Runs `f` on the underlying store (for counters and compaction).
    pub fn with<T>(&self, f: impl FnOnce(&mut Store) -> T) -> T {
        f(&mut self.inner.lock().expect("verdict store poisoned"))
    }

    /// Unwraps back into the plain [`Store`].
    pub fn into_inner(self) -> Store {
        self.inner.into_inner().expect("verdict store poisoned")
    }
}

/// Verdict-store activity during one run, as reported in the JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// The store file actually used (per shard, for a sharded campaign).
    pub path: String,
    /// Why the store failed to open, when it did: the run degrades to
    /// store-less operation instead of failing (see
    /// [`StoreCounters::degraded`]).
    pub open_error: Option<String>,
    /// Model-cache misses answered from the store (searches avoided).
    pub loads: u64,
    /// Prefix certificates served from the store (sibling searches
    /// replayed instead of re-run, even cold).
    pub cert_loads: u64,
    /// Fresh records appended this run (verdicts + certificates).
    pub appended: u64,
    /// Distinct verdict keys in the store after the run.
    pub keys: u64,
    /// Distinct certificate keys in the store after the run.
    pub certs: u64,
    /// Bytes dropped from a torn tail when the store was opened.
    pub recovered_bytes: u64,
    /// Checksummed records with a kind this build does not understand,
    /// skipped during replay.
    pub skipped_records: u64,
    /// Swallowed write failures (persistence is best-effort).
    pub save_errors: u64,
}

impl StoreCounters {
    /// True when persistence ran degraded: the store failed to open (the
    /// run continued store-less) or some saves were swallowed. Results
    /// are still correct — only reuse is lost.
    pub fn degraded(&self) -> bool {
        self.open_error.is_some() || self.save_errors > 0
    }
}

/// Runs `run` with the store at `path` (if any) installed on both model
/// hooks, `tso_model::cache` and `tso_model::prefix`, then detaches it
/// and returns `run`'s result with the store's counters. A store that
/// fails to open costs persistence, never the run: the error is printed
/// and carried in [`StoreCounters::open_error`].
pub fn with_store<T>(path: Option<&Path>, run: impl FnOnce() -> T) -> (T, Option<StoreCounters>) {
    let Some(path) = path else {
        return (run(), None);
    };
    let opened = SharedStore::open(path).map(Arc::new);
    match &opened {
        Ok(shared) => {
            tso_model::cache::set_store(shared.clone());
            tso_model::prefix::set_store(shared.clone());
        }
        Err(e) => eprintln!(
            "cannot open store {} ({e}) — continuing without persistence",
            path.display()
        ),
    }
    let result = run();
    let mut counters = StoreCounters {
        path: path.display().to_string(),
        ..StoreCounters::default()
    };
    match opened {
        Ok(shared) => {
            let _ = tso_model::cache::take_store();
            let _ = tso_model::prefix::take_store();
            counters.loads = shared.loads();
            counters.cert_loads = shared.cert_loads();
            counters.save_errors = shared.save_errors();
            shared.with(|s| {
                counters.appended = s.appended();
                counters.keys = s.len() as u64;
                counters.certs = s.cert_count() as u64;
                counters.recovered_bytes = s.recovered_bytes();
                counters.skipped_records = s.open_stats().skipped_records;
            });
        }
        Err(e) => counters.open_error = Some(e.to_string()),
    }
    (result, Some(counters))
}

impl VerdictStore for SharedStore {
    fn load(&self, key: &[u64]) -> Option<(BTreeSet<Outcome>, SearchStats)> {
        let inner = self.inner.lock().expect("verdict store poisoned");
        let found = inner.lookup(key).map(StoredVerdict::to_model);
        if found.is_some() {
            self.loads.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn save(
        &self,
        key: &[u64],
        fingerprint: u64,
        outcomes: &BTreeSet<Outcome>,
        stats: &SearchStats,
    ) {
        let verdict = StoredVerdict::from_model(outcomes, stats);
        let mut inner = self.inner.lock().expect("verdict store poisoned");
        if inner.append(key, fingerprint, &verdict).is_err() {
            self.save_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl CertificateStore for SharedStore {
    fn load_cert(&self, masked_key: &[u64]) -> Option<CertData> {
        let inner = self.inner.lock().expect("verdict store poisoned");
        let found = inner.lookup_cert(masked_key).cloned();
        if found.is_some() {
            self.cert_loads.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn save_cert(&self, masked_key: &[u64], fingerprint: u64, cert: &CertData) {
        let mut inner = self.inner.lock().expect("verdict store poisoned");
        if inner.append_cert(masked_key, fingerprint, cert).is_err() {
            self.save_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vstore-{}-{name}.bin", std::process::id()))
    }

    fn sample(tag: u64) -> (Vec<u64>, StoredVerdict) {
        (
            vec![2, u64::MAX, 2, 1, 0, 2, 1, tag],
            StoredVerdict {
                outcomes: vec![
                    (vec![0, tag], vec![(0, 1), (1, tag)]),
                    (vec![1, 0], vec![(0, 1)]),
                    (Vec::new(), Vec::new()),
                ],
                stats: [10 + tag, 4, 3, 3, 1, 1],
            },
        )
    }

    fn sample_cert(tag: u64) -> (Vec<u64>, CertData) {
        (
            vec![2, 0, 0, 7, tag],
            CertData {
                leaves: vec![(vec![3, 1, tag], vec![0, 2]), (vec![1, 3, tag], vec![2, 0])],
                nodes: 40 + tag,
                pruned: 11,
                complete: 2,
            },
        )
    }

    #[test]
    fn roundtrips_records_across_reopen() {
        let _faults = crate::faults::passing_through();
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = Store::open(&path).unwrap();
            assert!(s.is_empty());
            assert_eq!(s.version(), 2);
            for tag in 0..5 {
                let (k, v) = sample(tag);
                s.append(&k, tag, &v).unwrap();
            }
            assert_eq!(s.len(), 5);
            assert_eq!(s.appended(), 5);
        }
        let s = Store::open(&path).unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.open_stats().records, 5);
        assert_eq!(s.open_stats().skipped_records, 0);
        assert_eq!(s.recovered_bytes(), 0);
        for tag in 0..5 {
            let (k, v) = sample(tag);
            assert_eq!(s.lookup(&k), Some(&v), "tag {tag}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn later_records_shadow_earlier_ones() {
        let _faults = crate::faults::passing_through();
        let path = tmp("shadow");
        let _ = std::fs::remove_file(&path);
        let (k, v1) = sample(1);
        let mut v2 = v1.clone();
        v2.stats[0] = 999;
        let mut s = Store::open(&path).unwrap();
        s.append(&k, 1, &v1).unwrap();
        s.append(&k, 1, &v2).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup(&k), Some(&v2));
        drop(s);
        let s = Store::open(&path).unwrap();
        assert_eq!(s.open_stats().records, 2, "both records replay");
        assert_eq!(s.len(), 1, "one key survives");
        assert_eq!(s.lookup(&k), Some(&v2), "the later record wins");
        std::fs::remove_file(&path).unwrap();
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn record_encoding_matches_golden_bytes() {
        // One verdict from a real search and one certificate, encoded and
        // compared byte for byte with the format's field layout. Any drift
        // in the encoding — including the two trailing stats words, which
        // must stay `1, 1` — fails here even though a round trip would
        // still succeed.
        use tso_model::ProgramBuilder;
        let mut b = ProgramBuilder::new();
        b.thread()
            .write(rmw_types::Addr(0), 1)
            .read(rmw_types::Addr(0));
        let (outcomes, stats) = tso_model::allowed_outcomes_with_stats(&b.build());
        let verdict = StoredVerdict::from_model(&outcomes, &stats);
        let record = encode_frame(&encode_verdict_payload(
            &[1, 2],
            0x1122_3344_5566_7788,
            &verdict,
            2,
        ));
        let golden = concat!(
            "7c000000",         // len = 8 + payload bytes
            "ffc855ee6d01d6e9", // checksum
            "01000000",         // kind 1 (verdict)
            "8877665544332211", // fingerprint
            "02000000",         // key_words
            "0100000000000000",
            "0200000000000000", // key
            "0300000000000000", // nodes
            "0100000000000000", // pruned
            "0100000000000000", // complete
            "0100000000000000", // valid
            "0100000000000000",
            "0100000000000000", // 1 1
            "01000000",         // outcome_count
            "01000000",
            "0100000000000000", // reads: [1]
            "01000000",
            "0000000000000000",
            "0100000000000000", // mem: [(0, 1)]
        );
        assert_eq!(hex(&record), golden, "verdict record");

        let cert = CertData {
            leaves: vec![(vec![1], vec![0])],
            nodes: 1,
            pruned: 0,
            complete: 1,
        };
        let record = encode_frame(&encode_cert_payload(&[1, 0], 0x99, &cert));
        let golden = concat!(
            "5c000000",         // len = 8 + payload bytes
            "6d8d5eeb84374c2a", // checksum
            "02000000",         // kind 2 (certificate)
            "9900000000000000", // fingerprint
            "02000000",         // key_words
            "0100000000000000",
            "0000000000000000", // masked key
            "0100000000000000", // nodes
            "0000000000000000", // pruned
            "0100000000000000", // complete
            "01000000",         // leaf_count
            "01000000",
            "0100000000000000", // ws: [1]
            "01000000",
            "0000000000000000", // rf: [0]
        );
        assert_eq!(hex(&record), golden, "certificate record");
    }

    #[test]
    fn model_conversion_roundtrips() {
        use tso_model::ProgramBuilder;
        let mut b = ProgramBuilder::new();
        b.thread()
            .write(rmw_types::Addr(0), 1)
            .read(rmw_types::Addr(1));
        b.thread()
            .write(rmw_types::Addr(1), 1)
            .read(rmw_types::Addr(0));
        let p = b.build();
        let (outcomes, stats) = tso_model::allowed_outcomes_with_stats(&p);
        let stored = StoredVerdict::from_model(&outcomes, &stats);
        let (back, back_stats) = stored.to_model();
        assert_eq!(back, outcomes);
        assert_eq!(back_stats.nodes, stats.nodes);
        assert_eq!(back_stats.valid, stats.valid);
    }

    #[test]
    fn shared_store_counts_loads_and_survives_missing_keys() {
        let _faults = crate::faults::passing_through();
        let path = tmp("shared");
        let _ = std::fs::remove_file(&path);
        let shared = SharedStore::open(&path).unwrap();
        assert!(VerdictStore::load(&shared, &[1, 2, 3]).is_none());
        assert!(CertificateStore::load_cert(&shared, &[1, 2, 3]).is_none());
        assert_eq!(shared.loads(), 0, "misses are not loads");
        assert_eq!(shared.cert_loads(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_files_with_wrong_magic() {
        let _faults = crate::faults::passing_through();
        let path = tmp("magic");
        std::fs::write(&path, b"definitely not a store").unwrap();
        assert!(Store::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cert_records_roundtrip_and_survive_compaction() {
        let _faults = crate::faults::passing_through();
        let path = tmp("cert-roundtrip");
        let _ = std::fs::remove_file(&path);
        let (vk, v) = sample(3);
        let (ck, c) = sample_cert(8);
        {
            let mut s = Store::open(&path).unwrap();
            s.append(&vk, 3, &v).unwrap();
            s.append_cert(&ck, 8, &c).unwrap();
            assert_eq!(s.cert_count(), 1);
        }
        let mut s = Store::open(&path).unwrap();
        assert_eq!(s.open_stats().records, 2, "verdict + certificate");
        assert_eq!(s.lookup(&vk), Some(&v));
        assert_eq!(s.lookup_cert(&ck), Some(&c));
        let (before, after) = s.compact().unwrap();
        assert_eq!((before, after), (2, 2));
        drop(s);
        let s = Store::open(&path).unwrap();
        assert_eq!(s.lookup(&vk), Some(&v), "verdicts survive compaction");
        assert_eq!(s.lookup_cert(&ck), Some(&c), "certs survive compaction");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_record_kinds_are_skipped_not_truncated() {
        let _faults = crate::faults::passing_through();
        let path = tmp("unknown-kind");
        let _ = std::fs::remove_file(&path);
        let (k1, v1) = sample(1);
        let (k2, v2) = sample(2);
        {
            let mut s = Store::open(&path).unwrap();
            s.append(&k1, 1, &v1).unwrap();
        }
        // Splice in a record from "the future": valid frame, unknown kind.
        let mut future = 99u32.to_le_bytes().to_vec();
        future.extend_from_slice(b"fields this build has never heard of");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_frame(&future));
        bytes.extend_from_slice(&encode_frame(&encode_verdict_payload(&k2, 2, &v2, 2)));
        std::fs::write(&path, &bytes).unwrap();

        let s = Store::open(&path).unwrap();
        assert_eq!(s.open_stats().skipped_records, 1, "unknown kind skipped");
        assert_eq!(s.recovered_bytes(), 0, "…but nothing was truncated");
        assert_eq!(s.len(), 2, "the record after the unknown one replays");
        assert_eq!(s.lookup(&k1), Some(&v1));
        assert_eq!(s.lookup(&k2), Some(&v2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_1_files_open_replay_and_append_in_their_own_format() {
        let _faults = crate::faults::passing_through();
        let path = tmp("v1-compat");
        let _ = std::fs::remove_file(&path);
        let (k1, v1) = sample(1);
        let (k2, v2) = sample(2);
        // Hand-build a v1 file: old magic, bare verdict payloads.
        let mut bytes = MAGIC_V1.to_vec();
        bytes.extend_from_slice(&encode_frame(&encode_verdict_payload(&k1, 1, &v1, 1)));
        std::fs::write(&path, &bytes).unwrap();

        let mut s = Store::open(&path).unwrap();
        assert_eq!(s.version(), 1, "old magic probes as version 1");
        assert_eq!(s.lookup(&k1), Some(&v1), "v1 records replay");
        s.append(&k2, 2, &v2).unwrap();
        // A certificate append on a v1 file is dropped, not an error.
        let (ck, c) = sample_cert(5);
        s.append_cert(&ck, 5, &c).unwrap();
        drop(s);

        let mut s = Store::open(&path).unwrap();
        assert_eq!(s.version(), 1, "appends kept the file v1");
        assert_eq!(s.len(), 2, "v1 append is readable as v1");
        assert_eq!(s.lookup(&k2), Some(&v2));
        assert_eq!(s.cert_count(), 0, "no cert encoding in v1");

        // Compaction upgrades to the current format.
        s.compact().unwrap();
        drop(s);
        let s = Store::open(&path).unwrap();
        assert_eq!(s.version(), 2, "compaction rewrote with the new magic");
        assert_eq!(s.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
