//! The persistent verdict store: an append-only record file that keeps
//! model verdicts across `litmus_run` invocations.
//!
//! The in-memory verdict cache (`tso_model::cache`) eliminates repeated
//! model searches *within* a process; this store eliminates them *across*
//! processes. It is the storage tier behind campaign mode: the first run
//! over a corpus pays every model search once and appends each result;
//! every later run — a resumed shard, a re-run, a different shard sharing
//! the file, tomorrow's regression sweep — answers those queries with a
//! file lookup instead of a search.
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
//! ```
//!
//! A verdict's record key is the program's **full canonical
//! serialization** (`tso_model::Canonical::key`, RMW atomicities
//! included) — collision-proof by construction, with the 64-bit
//! `fingerprint` riding along for diagnostics and shard routing. Outcome
//! reads/memory are in the canonical program's coordinates, which is
//! exactly what the in-memory cache stores; coordinate translation back to
//! each caller's frame stays where it always was, in `tso_model::cache`.
//!
//! Kind 2 is retired. Earlier builds also wrote the prefix certificates of
//! the since-deleted certificate tier here as kind-2 records; this build
//! never writes one, skips them on open like any unknown kind, and
//! [`Store::compact`] drops them.
//!
//! # Forward and backward compatibility
//!
//! * **Unknown record kinds are skipped, not treated as corruption.** A
//!   record whose checksum validates but whose `kind` is not a verdict is
//!   counted in [`OpenStats::skipped_records`] and replay continues at the
//!   next record — a file written by a newer build (or an older build's
//!   certificates) loses only the records this build cannot read.
//!   Checksum failures still cut the replay (see below): the checksum
//!   guards record *boundaries*, the kind tags record *content*.
//! * **Version-1 files still open.** `"RMWVST01"` files (bare verdict
//!   payloads, no kind tag) replay fully; appends through a v1 handle keep
//!   writing v1 verdict records so older tools sharing the file stay
//!   functional. [`Store::compact`] always rewrites in the current format,
//!   upgrading the file.
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
//! record per key (atomically, via a temp file + rename), dropping
//! shadowed and skipped records — worth running after long campaigns,
//! and it doubles as the fold when merging per-shard store files into
//! one.
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

/// Record kind tag for a verdict record (format version 2), the only
/// kind this build reads or writes; kind 2 is retired (see module docs).
pub const KIND_VERDICT: u32 = 1;

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
    /// Valid verdict records replayed (including shadowed duplicates).
    pub records: u64,
    /// Distinct verdict keys in the index after replay.
    pub keys: u64,
    /// Bytes dropped from a torn tail (0 on a clean file).
    pub recovered_bytes: u64,
    /// Checksummed records that are not verdicts (an unknown kind, or
    /// kind 2, the retired certificates), skipped during replay — see
    /// module docs.
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
    /// Checksummed but not a verdict this build reads (an unknown or
    /// retired kind, or a malformed body behind a valid checksum) —
    /// skipped, never truncated.
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
        let mut records = 0u64;
        let mut skipped_records = 0u64;
        let mut pos = MAGIC.len();
        while let Some((consumed, payload)) = parse_frame(&bytes[pos..]) {
            match parse_payload(payload, version) {
                Some(Record::Verdict(key, verdict)) => {
                    index.insert(key, verdict);
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

    /// Distinct verdict keys currently indexed.
    pub fn len(&self) -> usize {
        self.index.len()
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
    /// at most a torn tail that the next [`Store::open`] truncates. A
    /// write that fails partway rolls the file back to the last good
    /// boundary, so a failed append never strands later records behind a
    /// torn frame.
    pub fn append(
        &mut self,
        key: &[u64],
        fingerprint: u64,
        verdict: &StoredVerdict,
    ) -> io::Result<()> {
        let payload = encode_verdict_payload(key, fingerprint, verdict, self.version);
        let record = encode_frame(&payload);
        let write =
            faults::write_point(&mut self.file, &record, "store.append.write").and_then(|()| {
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
        self.index.insert(key.to_vec(), verdict.clone());
        Ok(())
    }

    /// Rewrites the file with exactly one record per key (later appends
    /// already won at replay time), atomically via a temp file + rename,
    /// always in the current format — compaction upgrades version-1
    /// files and drops skipped records. Returns
    /// `(records_before, records_after)`, skipped records counted before.
    pub fn compact(&mut self) -> io::Result<(u64, u64)> {
        let before = self.open_stats.records + self.open_stats.skipped_records + self.appended;
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
        let after = self.index.len() as u64;
        self.open_stats.records = after;
        self.open_stats.skipped_records = 0;
        self.appended = 0;
        Ok((before, after))
    }

    /// Folds every verdict of `other` into this store (appending records
    /// for keys this store doesn't already have — existing entries win,
    /// matching "first prover wins" semantics across shard files).
    /// Returns the number of records appended.
    pub fn absorb(&mut self, other: &Store) -> io::Result<u64> {
        let mut added = 0;
        for (key, verdict) in &other.index {
            if !self.index.contains_key(key) {
                self.append(key, fingerprint_of(key), verdict)?;
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
/// Version 2 returns `None` only for a payload too short to hold a kind
/// tag: a kind other than a verdict (or a malformed body behind a valid
/// checksum) is [`Record::Skipped`], because the checksum already proved
/// the record *boundary* and truncating would throw away a valid suffix.
/// Version 1 keeps its original strictness: a payload that is not a
/// verdict ends the replay (`None`).
fn parse_payload(payload: &[u8], version: u8) -> Option<Record> {
    if version < 2 {
        return parse_verdict_body(payload).map(|(k, v)| Record::Verdict(k, v));
    }
    let mut cur = Cursor { bytes: payload };
    let verdict = (cur.u32()? == KIND_VERDICT)
        .then(|| parse_verdict_body(cur.bytes))
        .flatten();
    Some(verdict.map_or(Record::Skipped, |(k, v)| Record::Verdict(k, v)))
}

/// Parses a verdict body (the payload minus any kind tag). Every count is
/// checked against the bytes left before anything is allocated for it, so
/// a crafted count behind a valid checksum is a malformed body, not an
/// allocation failure.
fn parse_verdict_body(bytes: &[u8]) -> Option<(Vec<u64>, StoredVerdict)> {
    let mut cur = Cursor { bytes };
    let _fingerprint = cur.u64()?;
    let key_words = cur.count(8)?;
    let mut key = Vec::with_capacity(key_words);
    for _ in 0..key_words {
        key.push(cur.u64()?);
    }
    let mut stats = [0u64; STATS_WORDS];
    for s in &mut stats {
        *s = cur.u64()?;
    }
    // An outcome is at least its two counts; a read is one word and a
    // memory entry two.
    let outcome_count = cur.count(8)?;
    let mut outcomes = Vec::with_capacity(outcome_count);
    for _ in 0..outcome_count {
        let reads_len = cur.count(8)?;
        let mut reads = Vec::with_capacity(reads_len);
        for _ in 0..reads_len {
            reads.push(cur.u64()?);
        }
        let mem_len = cur.count(16)?;
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

    /// Reads a `u32` element count, or `None` when that many elements of
    /// at least `min_bytes` each cannot fit in the bytes left.
    fn count(&mut self, min_bytes: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n.checked_mul(min_bytes)? <= self.bytes.len()).then_some(n)
    }
}

/// A [`Store`] behind a mutex, implementing the verdict cache's
/// [`VerdictStore`] hook — this is what `litmus_run` installs with
/// `tso_model::cache::set_store` so every model query in the process
/// reads and writes one shared file.
///
/// Write errors during a save are counted ([`SharedStore::save_errors`])
/// but otherwise swallowed: persistence is an optimization, and a full
/// disk must not fail a verification run.
#[derive(Debug)]
pub struct SharedStore {
    inner: Mutex<Store>,
    loads: AtomicU64,
    save_errors: AtomicU64,
}

impl SharedStore {
    /// Wraps an opened store for concurrent use.
    pub fn new(store: Store) -> Self {
        SharedStore {
            inner: Mutex::new(store),
            loads: AtomicU64::new(0),
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

    /// Failed (swallowed) save attempts so far.
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
    /// Fresh verdict records appended this run.
    pub appended: u64,
    /// Distinct verdict keys in the store after the run.
    pub keys: u64,
    /// Bytes dropped from a torn tail when the store was opened.
    pub recovered_bytes: u64,
    /// Checksummed records that are not verdicts (an unknown kind, or an
    /// earlier build's certificates), skipped during replay.
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

/// Runs `run` with the store at `path` (if any) installed on the verdict
/// cache (`tso_model::cache`), then detaches it and returns `run`'s
/// result with the store's counters. A store that fails to open costs
/// persistence, never the run: the error is printed and carried in
/// [`StoreCounters::open_error`].
pub fn with_store<T>(path: Option<&Path>, run: impl FnOnce() -> T) -> (T, Option<StoreCounters>) {
    let Some(path) = path else {
        return (run(), None);
    };
    let opened = SharedStore::open(path).map(Arc::new);
    match &opened {
        Ok(shared) => tso_model::cache::set_store(shared.clone()),
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
            counters.loads = shared.loads();
            counters.save_errors = shared.save_errors();
            shared.with(|s| {
                counters.appended = s.appended();
                counters.keys = s.len() as u64;
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

/// Persists nothing: every lookup misses and every save is dropped, and
/// nothing calls either. Kept for perfbench; removed by ROADMAP item 2's
/// benchmark-kind PR.
impl CertificateStore for SharedStore {
    fn load_cert(&self, _masked_key: &[u64]) -> Option<CertData> {
        None
    }

    fn save_cert(&self, _masked_key: &[u64], _fingerprint: u64, _cert: &CertData) {}
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

    fn unhex(text: &str) -> Vec<u8> {
        (0..text.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn record_encoding_matches_golden_bytes() {
        // One verdict from a real search, encoded and compared byte for
        // byte with the format's field layout. Any drift in the encoding —
        // including the two trailing stats words, which must stay `1, 1` —
        // fails here even though a round trip would still succeed.
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

    /// A kind-2 prefix-certificate record, frame included, byte for byte
    /// as earlier builds wrote it (their golden certificate record).
    const RETIRED_CERT_RECORD: &str = concat!(
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

    #[test]
    fn retired_certificate_records_are_skipped_and_compacted_away() {
        let _faults = crate::faults::passing_through();
        let path = tmp("retired-cert");
        let _ = std::fs::remove_file(&path);
        let (k1, v1) = sample(1);
        let (k2, v2) = sample(2);
        let verdict_record = |k: &[u64], v: &StoredVerdict| {
            encode_frame(&encode_verdict_payload(k, fingerprint_of(k), v, 2))
        };
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&verdict_record(&k1, &v1));
        bytes.extend_from_slice(&unhex(RETIRED_CERT_RECORD));
        bytes.extend_from_slice(&verdict_record(&k2, &v2));
        std::fs::write(&path, &bytes).unwrap();

        let mut s = Store::open(&path).unwrap();
        assert_eq!(
            s.open_stats().skipped_records,
            1,
            "the certificate is skipped"
        );
        assert_eq!(s.recovered_bytes(), 0, "…not truncated");
        assert_eq!(s.open_stats().records, 2);
        assert_eq!(s.lookup(&k1), Some(&v1));
        assert_eq!(s.lookup(&k2), Some(&v2), "the verdict after it replays");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes.len() as u64);
        assert_eq!(
            s.compact().unwrap(),
            (3, 2),
            "compact drops the certificate"
        );
        drop(s);

        let mut verdicts_only = MAGIC.to_vec();
        verdicts_only.extend_from_slice(&verdict_record(&k1, &v1));
        verdicts_only.extend_from_slice(&verdict_record(&k2, &v2));
        assert_eq!(std::fs::read(&path).unwrap(), verdicts_only);
        let s = Store::open(&path).unwrap();
        assert_eq!(s.open_stats().skipped_records, 0);
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
        drop(s);

        let mut s = Store::open(&path).unwrap();
        assert_eq!(s.version(), 1, "appends kept the file v1");
        assert_eq!(s.len(), 2, "v1 append is readable as v1");
        assert_eq!(s.lookup(&k2), Some(&v2));

        // Compaction upgrades to the current format.
        s.compact().unwrap();
        drop(s);
        let s = Store::open(&path).unwrap();
        assert_eq!(s.version(), 2, "compaction rewrote with the new magic");
        assert_eq!(s.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
