//! Content-addressed, versioned persistent store for per-cluster
//! analysis artifacts.
//!
//! The bootstrapping cascade makes per-cluster FSCS results independent
//! and keyed by a small relevant-statement slice, so repeat runs on
//! unchanged code can skip the expensive summarization entirely. This
//! crate is the storage layer of that warm path: a directory of
//! immutable entries, each addressed by a 64-bit content hash the caller
//! derives from (format version, result-affecting engine options,
//! canonicalized relevant slice + partition membership).
//!
//! The crate is deliberately IR-agnostic: an entry's payload is an
//! opaque byte string produced by the caller with the [`codec`]
//! primitives (length-prefixed, little-endian, no serde — the vendor
//! policy is offline). What this crate owns is the on-disk envelope and
//! its validation ladder:
//!
//! ```text
//! magic (8) | format version (u32) | key echo (u64) | options hash (u64)
//! | program hash (u64) | payload (u32-length-prefixed bytes)
//! | checksum (u64, fxhash of payload)
//! ```
//!
//! [`Store::load`] walks that ladder in order — magic, version, key
//! echo, options hash, length-checked payload, checksum — and *any*
//! failure (truncated file, garbage bytes, wrong magic, version skew,
//! option mismatch) degrades to a clean miss: the caller recomputes and
//! overwrites. A malformed entry can cost time, never correctness.
//! Hit/miss/invalidated counters are kept in-memory per open store and
//! accumulated into a small sidecar file (`counters.bin`) so the CLI's
//! `cache` subcommand can report lifetime totals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;

use std::fs;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use codec::{Reader, Writer};

/// Magic bytes opening every entry file.
pub const MAGIC: [u8; 8] = *b"BSASTOR1";

/// On-disk format version. Bump whenever the envelope or any caller
/// payload encoding changes shape; old entries then invalidate cleanly.
pub const FORMAT_VERSION: u32 = 1;

/// File extension of entry files inside the store directory.
const ENTRY_EXT: &str = "bsa";

/// Sidecar file accumulating lifetime counters across store openings.
const COUNTERS_FILE: &str = "counters.bin";
const COUNTERS_MAGIC: [u8; 8] = *b"BSACNTR1";

/// Advisory-lock sentinel file. Writers (save, eviction, clear, counter
/// flushes) take an exclusive flock on it so a daemon and a concurrent
/// CLI on the same directory never interleave a temp+rename with an
/// eviction scan. Readers don't lock: entry reads are made safe by the
/// atomic rename plus the validation ladder.
const LOCK_FILE: &str = "lock";

/// Configuration of a persistent store attached to a session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Directory holding the entries (created on first write).
    pub dir: PathBuf,
    /// When set, the session consults the store but never writes to it
    /// (no publishes, no counter flushes, no eviction).
    pub read_only: bool,
    /// Soft cap on the summed entry size; writes evict the oldest
    /// entries (by modification time) until the store fits again.
    pub max_bytes: u64,
}

impl StoreConfig {
    /// A writable store at `dir` with the default 256 MiB size cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            read_only: false,
            max_bytes: 256 * 1024 * 1024,
        }
    }
}

/// Snapshot of a store's hit/miss/invalidated counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Loads that validated end-to-end and returned a payload.
    pub hits: u64,
    /// Loads with no entry file present.
    pub misses: u64,
    /// Loads whose entry existed but failed validation (corrupt,
    /// truncated, version-skewed, option-mismatched, or fault-injected)
    /// and degraded to a recompute.
    pub invalidated: u64,
}

impl StoreCounters {
    /// Total load attempts.
    pub fn loads(&self) -> u64 {
        self.hits + self.misses + self.invalidated
    }
}

/// The outcome of [`Store::load`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadOutcome {
    /// A validated entry: the opaque payload plus the whole-program hash
    /// recorded at publish time (callers gate program-global sections of
    /// the payload on it).
    Hit {
        /// The caller-encoded payload bytes.
        payload: Vec<u8>,
        /// Whole-program hash recorded when the entry was published.
        program_hash: u64,
    },
    /// No entry for the key.
    Miss,
    /// An entry existed but failed validation; the caller recomputes
    /// and overwrites.
    Invalidated,
}

/// FxHash-style 64-bit folding hasher: rotate, xor, multiply by a
/// golden-ratio-derived odd constant, one word at a time. Byte strings
/// fold in little-endian chunks and integers fold as one word, so digests
/// are stable across platforms. It keys entry checksums, store keys and
/// partition fingerprints through the [`Hasher`] trait, and the
/// interner's hot in-memory maps through [`FxBuildHasher`].
#[derive(Clone, Default)]
pub struct FxHasher64 {
    hash: u64,
}

/// Builds [`FxHasher64`]s for hash maps keyed by analysis-internal ids.
/// It is much cheaper than SipHash on tiny integer keys, but offers no
/// protection against chosen collisions: never key it by outside input.
pub type FxBuildHasher = BuildHasherDefault<FxHasher64>;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher64 {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    // The integer writes fold one word; on little-endian targets that is
    // exactly what `write` returns for the value's padded bytes.
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Hashes a byte string with [`FxHasher64`] (entry checksums).
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher64::default();
    h.write(bytes);
    h.finish()
}

/// An open persistent store.
///
/// All methods take `&self`; counters are atomics and file writes go
/// through a temp-file + rename, so one store can be shared across the
/// parallel cluster workers.
pub struct Store {
    config: StoreConfig,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
}

impl Store {
    /// Opens (and, unless read-only, creates) the store directory.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure for writable stores on
    /// an uncreatable path.
    pub fn open(config: StoreConfig) -> io::Result<Store> {
        if !config.read_only {
            fs::create_dir_all(&config.dir)?;
        }
        Ok(Store {
            config,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        })
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.config.dir.join(format!("{key:016x}.{ENTRY_EXT}"))
    }

    /// Takes the directory's exclusive advisory lock, blocking until any
    /// concurrent writer releases it. Returns `None` (proceed unlocked)
    /// when the sentinel cannot be created or the platform lacks flock —
    /// the lock is a defence-in-depth layer over already-atomic renames,
    /// not a correctness requirement. The lock releases when the returned
    /// handle drops.
    fn lock_exclusive(&self) -> Option<fs::File> {
        let file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.config.dir.join(LOCK_FILE))
            .ok()?;
        file.lock().ok()?;
        Some(file)
    }

    /// Loads and validates the entry for `key`. Every validation
    /// failure returns [`LoadOutcome::Invalidated`]; a missing file
    /// returns [`LoadOutcome::Miss`]. Never panics on any file content.
    pub fn load(&self, key: u64, options_hash: u64) -> LoadOutcome {
        let path = self.entry_path(key);
        let raw = match fs::read(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return LoadOutcome::Miss;
            }
            Err(_) => {
                self.invalidated.fetch_add(1, Ordering::Relaxed);
                return LoadOutcome::Invalidated;
            }
        };
        match decode_entry(&raw, key, options_hash) {
            Some((payload, program_hash)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                LoadOutcome::Hit {
                    payload,
                    program_hash,
                }
            }
            None => {
                self.invalidated.fetch_add(1, Ordering::Relaxed);
                LoadOutcome::Invalidated
            }
        }
    }

    /// Reclassifies the most recent hit as an invalidation. The envelope
    /// validation lives in this crate, but the caller performs further
    /// checks the envelope cannot (whole-program hash gate, payload
    /// decode, name resolution against the live IR); when those fail the
    /// load already counted as a hit and must be demoted.
    pub fn demote_hit(&self) {
        self.hits.fetch_sub(1, Ordering::Relaxed);
        self.invalidated.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fault-injected probe: the entry (if any) is treated as
    /// corrupt without being read, counting an invalidation when the
    /// file exists and a miss otherwise. Used by the deterministic
    /// store-phase fault injection to prove corrupt entries degrade to
    /// recomputes.
    pub fn probe_invalidated(&self, key: u64) {
        if self.entry_path(key).exists() {
            self.invalidated.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Writes (or overwrites) the entry for `key`. A no-op on read-only
    /// stores. The write is atomic (temp file + rename) and is followed
    /// by size-cap eviction of the oldest entries.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the temp-file write or the rename.
    pub fn save(
        &self,
        key: u64,
        options_hash: u64,
        program_hash: u64,
        payload: &[u8],
    ) -> io::Result<()> {
        if self.config.read_only {
            return Ok(());
        }
        let mut w = Writer::new();
        w.bytes(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u64(key);
        w.u64(options_hash);
        w.u64(program_hash);
        w.bytes(payload);
        w.u64(hash_bytes(payload));
        let tmp = self
            .config
            .dir
            .join(format!(".tmp-{key:016x}-{}", std::process::id()));
        let _lock = self.lock_exclusive();
        fs::write(&tmp, w.finish())?;
        fs::rename(&tmp, self.entry_path(key))?;
        self.evict_to_cap();
        Ok(())
    }

    /// Evicts oldest-modified entries until the store fits its size cap.
    fn evict_to_cap(&self) {
        let cap = self.config.max_bytes;
        if cap == u64::MAX {
            return;
        }
        let Ok(read) = fs::read_dir(&self.config.dir) else {
            return;
        };
        let mut entries: Vec<(std::time::SystemTime, u64, PathBuf)> = read
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == ENTRY_EXT))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, meta.len(), e.path()))
            })
            .collect();
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        entries.sort();
        for (_, len, path) in entries {
            if total <= cap {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
            }
        }
    }

    /// Number of entry files currently in the store directory.
    pub fn entry_count(&self) -> usize {
        scan_entries(&self.config.dir).len()
    }

    /// Summed size in bytes of every entry file.
    pub fn total_bytes(&self) -> u64 {
        scan_entries(&self.config.dir)
            .iter()
            .filter_map(|p| fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Removes every entry and the counters sidecar. Returns the number
    /// of entries and bytes removed.
    ///
    /// # Errors
    ///
    /// Propagates the first file-removal failure.
    pub fn clear(&self) -> io::Result<(usize, u64)> {
        let _lock = self.lock_exclusive();
        let mut count = 0usize;
        let mut bytes = 0u64;
        for path in scan_entries(&self.config.dir) {
            bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(&path)?;
            count += 1;
        }
        let counters = self.config.dir.join(COUNTERS_FILE);
        if counters.exists() {
            fs::remove_file(counters)?;
        }
        Ok((count, bytes))
    }

    /// Snapshot of this opening's in-memory counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
        }
    }

    /// Adds the in-memory counters into the persistent sidecar and
    /// resets them, so repeated flushes never double-count. A no-op on
    /// read-only stores.
    pub fn flush_counters(&self) {
        if self.config.read_only {
            return;
        }
        let delta = StoreCounters {
            hits: self.hits.swap(0, Ordering::Relaxed),
            misses: self.misses.swap(0, Ordering::Relaxed),
            invalidated: self.invalidated.swap(0, Ordering::Relaxed),
        };
        if delta.loads() == 0 {
            return;
        }
        let _lock = self.lock_exclusive();
        // A corrupt sidecar (torn write from a crash) reads as zero, so
        // the accumulation restarts from this flush's delta.
        let prev = read_lifetime_counters(&self.config.dir);
        let next = StoreCounters {
            hits: prev.hits + delta.hits,
            misses: prev.misses + delta.misses,
            invalidated: prev.invalidated + delta.invalidated,
        };
        let mut body = Writer::new();
        body.u64(next.hits);
        body.u64(next.misses);
        body.u64(next.invalidated);
        let body = body.finish();
        let mut w = Writer::new();
        w.bytes(&COUNTERS_MAGIC);
        w.bytes(&body);
        w.u64(hash_bytes(&body));
        let tmp = self
            .config
            .dir
            .join(format!(".tmp-counters-{}", std::process::id()));
        if fs::write(&tmp, w.finish()).is_ok() {
            let _ = fs::rename(&tmp, self.config.dir.join(COUNTERS_FILE));
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.flush_counters();
    }
}

/// Lists entry files in `dir` (empty on a missing directory).
fn scan_entries(dir: &Path) -> Vec<PathBuf> {
    let Ok(read) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut v: Vec<PathBuf> = read
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == ENTRY_EXT))
        .collect();
    v.sort();
    v
}

/// Reads the lifetime counters accumulated in `dir` by every store
/// opening that flushed there. Unreadable or malformed sidecars read
/// as zero — the counters are diagnostics, not correctness state. A
/// sidecar that is *present* but fails validation logs the demotion.
pub fn read_lifetime_counters(dir: &Path) -> StoreCounters {
    match try_read_lifetime_counters(dir) {
        Ok(c) => c,
        Err(CorruptSidecar) => {
            eprintln!(
                "bootstrap-store: corrupt counters sidecar in {}; resetting lifetime counters to zero",
                dir.display()
            );
            StoreCounters::default()
        }
    }
}

/// A counters sidecar that is present but fails validation (torn write,
/// garbage bytes, checksum mismatch). Its contents are demoted to zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorruptSidecar;

/// The fallible sidecar read behind [`read_lifetime_counters`]: `Ok` with
/// the counters (zero when the sidecar is absent), `Err` when a sidecar
/// exists but fails the validation ladder — wrong magic, truncation, a
/// checksum mismatch, or trailing bytes. Exposed so tests and callers
/// can distinguish "no history" from "history was torn and demoted".
pub fn try_read_lifetime_counters(dir: &Path) -> Result<StoreCounters, CorruptSidecar> {
    let raw = match fs::read(dir.join(COUNTERS_FILE)) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(StoreCounters::default()),
        Err(_) => return Err(CorruptSidecar),
    };
    let mut r = Reader::new(&raw);
    (|| -> Result<StoreCounters, CorruptSidecar> {
        let magic = r.bytes().map_err(|_| CorruptSidecar)?;
        if magic != COUNTERS_MAGIC {
            return Err(CorruptSidecar);
        }
        let body = r.bytes().map_err(|_| CorruptSidecar)?;
        let checksum = r.u64().map_err(|_| CorruptSidecar)?;
        if checksum != hash_bytes(body) || r.remaining() != 0 {
            return Err(CorruptSidecar);
        }
        let mut b = Reader::new(body);
        let counters = StoreCounters {
            hits: b.u64().map_err(|_| CorruptSidecar)?,
            misses: b.u64().map_err(|_| CorruptSidecar)?,
            invalidated: b.u64().map_err(|_| CorruptSidecar)?,
        };
        if b.remaining() != 0 {
            return Err(CorruptSidecar);
        }
        Ok(counters)
    })()
}

/// Validation ladder for one raw entry file: magic → version → key echo
/// → options hash → length-checked payload → checksum. `None` means the
/// entry is invalid in some way and the caller must recompute.
fn decode_entry(raw: &[u8], key: u64, options_hash: u64) -> Option<(Vec<u8>, u64)> {
    let mut r = Reader::new(raw);
    if r.bytes().ok()? != MAGIC {
        return None;
    }
    if r.u32().ok()? != FORMAT_VERSION {
        return None;
    }
    if r.u64().ok()? != key {
        return None;
    }
    if r.u64().ok()? != options_hash {
        return None;
    }
    let program_hash = r.u64().ok()?;
    let payload = r.bytes().ok()?;
    let checksum = r.u64().ok()?;
    if checksum != hash_bytes(payload) || r.remaining() != 0 {
        return None;
    }
    Some((payload.to_vec(), program_hash))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "bootstrap_store_{name}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        Store::open(StoreConfig::new(dir)).unwrap()
    }

    fn cleanup(store: &Store) {
        let _ = fs::remove_dir_all(&store.config().dir);
    }

    #[test]
    fn save_load_roundtrip_counts_hits_and_misses() {
        let store = temp_store("roundtrip");
        assert_eq!(store.load(1, 7), LoadOutcome::Miss);
        store.save(1, 7, 99, b"payload").unwrap();
        match store.load(1, 7) {
            LoadOutcome::Hit {
                payload,
                program_hash,
            } => {
                assert_eq!(payload, b"payload");
                assert_eq!(program_hash, 99);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.invalidated), (1, 1, 0));
        assert_eq!(store.entry_count(), 1);
        assert!(store.total_bytes() > 0);
        cleanup(&store);
    }

    #[test]
    fn truncated_entry_invalidates() {
        let store = temp_store("truncated");
        store.save(2, 7, 0, b"some payload bytes").unwrap();
        let path = store.entry_path(2);
        let raw = fs::read(&path).unwrap();
        // Every proper prefix must invalidate, never panic.
        for cut in [0usize, 1, 8, raw.len() / 2, raw.len() - 1] {
            fs::write(&path, &raw[..cut]).unwrap();
            assert_eq!(store.load(2, 7), LoadOutcome::Invalidated, "cut {cut}");
        }
        cleanup(&store);
    }

    #[test]
    fn garbage_and_wrong_magic_invalidate() {
        let store = temp_store("garbage");
        store.save(3, 7, 0, b"payload").unwrap();
        let path = store.entry_path(3);
        fs::write(&path, vec![0xabu8; 64]).unwrap();
        assert_eq!(store.load(3, 7), LoadOutcome::Invalidated);
        // Valid envelope shape but a different magic string.
        let mut w = Writer::new();
        w.bytes(b"WRONGMAG");
        w.u32(FORMAT_VERSION);
        w.u64(3);
        w.u64(7);
        w.u64(0);
        w.bytes(b"payload");
        w.u64(hash_bytes(b"payload"));
        fs::write(&path, w.finish()).unwrap();
        assert_eq!(store.load(3, 7), LoadOutcome::Invalidated);
        cleanup(&store);
    }

    #[test]
    fn version_skew_and_option_mismatch_invalidate() {
        let store = temp_store("skew");
        let path = store.entry_path(4);
        let mut w = Writer::new();
        w.bytes(&MAGIC);
        w.u32(FORMAT_VERSION + 1);
        w.u64(4);
        w.u64(7);
        w.u64(0);
        w.bytes(b"payload");
        w.u64(hash_bytes(b"payload"));
        fs::write(&path, w.finish()).unwrap();
        assert_eq!(store.load(4, 7), LoadOutcome::Invalidated, "version skew");
        store.save(4, 7, 0, b"payload").unwrap();
        assert_eq!(
            store.load(4, 8),
            LoadOutcome::Invalidated,
            "option mismatch"
        );
        assert!(matches!(store.load(4, 7), LoadOutcome::Hit { .. }));
        cleanup(&store);
    }

    #[test]
    fn corrupted_checksum_invalidates() {
        let store = temp_store("checksum");
        store.save(5, 7, 0, b"payload-bytes").unwrap();
        let path = store.entry_path(5);
        let mut raw = fs::read(&path).unwrap();
        // Flip one payload byte; the envelope still parses but the
        // checksum no longer matches.
        let mid = raw.len() - 12;
        raw[mid] ^= 0xff;
        fs::write(&path, raw).unwrap();
        assert_eq!(store.load(5, 7), LoadOutcome::Invalidated);
        cleanup(&store);
    }

    #[test]
    fn recompute_overwrites_a_corrupt_entry() {
        let store = temp_store("overwrite");
        store.save(6, 7, 0, b"good").unwrap();
        fs::write(store.entry_path(6), b"garbage").unwrap();
        assert_eq!(store.load(6, 7), LoadOutcome::Invalidated);
        store.save(6, 7, 0, b"recomputed").unwrap();
        assert!(
            matches!(store.load(6, 7), LoadOutcome::Hit { payload, .. } if payload == b"recomputed")
        );
        cleanup(&store);
    }

    #[test]
    fn read_only_store_never_writes() {
        let rw = temp_store("readonly");
        rw.save(8, 7, 0, b"payload").unwrap();
        let ro = Store::open(StoreConfig {
            read_only: true,
            ..rw.config().clone()
        })
        .unwrap();
        ro.save(9, 7, 0, b"ignored").unwrap();
        assert_eq!(ro.load(9, 7), LoadOutcome::Miss);
        assert!(matches!(ro.load(8, 7), LoadOutcome::Hit { .. }));
        ro.flush_counters();
        assert_eq!(read_lifetime_counters(&rw.config().dir).loads(), 0);
        cleanup(&rw);
    }

    #[test]
    fn eviction_respects_the_size_cap() {
        let base = temp_store("evict");
        let dir = base.config().dir.clone();
        let store = Store::open(StoreConfig {
            dir: dir.clone(),
            read_only: false,
            max_bytes: 300,
        })
        .unwrap();
        for key in 0..8u64 {
            store.save(key, 7, 0, &[key as u8; 64]).unwrap();
            // Distinct mtimes so eviction order is deterministic.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(store.total_bytes() <= 300, "{}", store.total_bytes());
        assert!(store.entry_count() < 8);
        // The newest entry survives.
        assert!(matches!(store.load(7, 7), LoadOutcome::Hit { .. }));
        cleanup(&base);
    }

    #[test]
    fn clear_empties_the_store() {
        let store = temp_store("clear");
        store.save(1, 7, 0, b"a").unwrap();
        store.save(2, 7, 0, b"b").unwrap();
        store.flush_counters();
        let (count, bytes) = store.clear().unwrap();
        assert_eq!(count, 2);
        assert!(bytes > 0);
        assert_eq!(store.entry_count(), 0);
        assert_eq!(read_lifetime_counters(&store.config().dir).loads(), 0);
        cleanup(&store);
    }

    #[test]
    fn lifetime_counters_accumulate_across_openings() {
        let first = temp_store("lifetime");
        let config = first.config().clone();
        first.save(1, 7, 0, b"x").unwrap();
        let _ = first.load(1, 7); // hit
        let _ = first.load(2, 7); // miss
        drop(first); // Drop flushes.
        let second = Store::open(config.clone()).unwrap();
        let _ = second.load(1, 7); // hit
        second.flush_counters();
        let life = read_lifetime_counters(&config.dir);
        assert_eq!((life.hits, life.misses, life.invalidated), (2, 1, 0));
        // Flushing twice never double-counts.
        second.flush_counters();
        drop(second);
        assert_eq!(read_lifetime_counters(&config.dir).hits, 2);
        let _ = fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn demote_hit_reclassifies_a_hit_as_invalidated() {
        let store = temp_store("demote");
        store.save(1, 7, 0, b"x").unwrap();
        assert!(matches!(store.load(1, 7), LoadOutcome::Hit { .. }));
        store.demote_hit();
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.invalidated), (0, 0, 1));
        cleanup(&store);
    }

    #[test]
    fn probe_invalidated_distinguishes_present_from_absent() {
        let store = temp_store("probe");
        store.probe_invalidated(1);
        store.save(1, 7, 0, b"x").unwrap();
        store.probe_invalidated(1);
        let c = store.counters();
        assert_eq!((c.misses, c.invalidated), (1, 1));
        cleanup(&store);
    }

    #[test]
    fn corrupt_sidecar_resets_to_zero_and_restarts_accumulation() {
        let store = temp_store("sidecar");
        let dir = store.config().dir.clone();
        store.save(1, 7, 0, b"x").unwrap();
        let _ = store.load(1, 7); // hit
        store.flush_counters();
        assert_eq!(read_lifetime_counters(&dir).hits, 1);
        let path = dir.join(COUNTERS_FILE);
        let raw = fs::read(&path).unwrap();
        // Torn writes: every proper prefix demotes to zero, never errors.
        for cut in [1usize, 8, raw.len() / 2, raw.len() - 1] {
            fs::write(&path, &raw[..cut]).unwrap();
            assert_eq!(try_read_lifetime_counters(&dir), Err(CorruptSidecar));
            assert_eq!(read_lifetime_counters(&dir), StoreCounters::default());
        }
        // A bit flip inside the body is caught by the checksum.
        let mut bad = raw.clone();
        bad[20] ^= 0x01;
        fs::write(&path, &bad).unwrap();
        assert_eq!(try_read_lifetime_counters(&dir), Err(CorruptSidecar));
        // Garbage with the right magic is caught too.
        fs::write(&path, b"garbage-not-a-sidecar").unwrap();
        assert_eq!(read_lifetime_counters(&dir), StoreCounters::default());
        // Accumulation restarts cleanly from the demoted zero.
        let _ = store.load(2, 7); // miss
        store.flush_counters();
        let life = try_read_lifetime_counters(&dir).expect("rewritten sidecar validates");
        assert_eq!((life.hits, life.misses), (0, 1));
        cleanup(&store);
    }

    #[test]
    fn concurrent_writers_on_one_dir_never_tear_entries() {
        // A daemon and a CLI check sharing one --cache-dir: two stores,
        // two threads, saves + loads + evictions + counter flushes racing
        // on a tiny size cap. The advisory lock serializes the writers;
        // every surviving file must decode cleanly afterwards.
        let base = temp_store("locking");
        let dir = base.config().dir.clone();
        let open = || {
            Store::open(StoreConfig {
                dir: dir.clone(),
                read_only: false,
                max_bytes: 2048,
            })
            .unwrap()
        };
        let stores = [open(), open()];
        std::thread::scope(|s| {
            for (t, store) in stores.iter().enumerate() {
                s.spawn(move || {
                    for i in 0..200u64 {
                        let key = i % 16;
                        store.save(key, 7, t as u64, &[i as u8; 100]).unwrap();
                        // The entry may already be evicted by the peer,
                        // but an atomic rename can never leave it torn.
                        assert_ne!(
                            store.load(key, 7),
                            LoadOutcome::Invalidated,
                            "torn entry observed at key {key}"
                        );
                        if i % 16 == 0 {
                            store.flush_counters();
                        }
                    }
                });
            }
        });
        for path in scan_entries(&dir) {
            let stem = path.file_stem().unwrap().to_str().unwrap();
            let key = u64::from_str_radix(stem, 16).unwrap();
            let raw = fs::read(&path).unwrap();
            assert!(
                decode_entry(&raw, key, 7).is_some(),
                "torn entry on disk: {path:?}"
            );
        }
        assert!(try_read_lifetime_counters(&dir).is_ok(), "torn sidecar");
        cleanup(&base);
    }

    #[test]
    fn fx_hasher_is_stable() {
        // Pin the hash of known inputs: entries written by an older build
        // must stay addressable byte-for-byte, and partition fingerprints
        // and journal checksums must not move.
        assert_eq!(hash_bytes(b"bootstrap"), 0xcf57_742f_e022_2516);
        assert_ne!(hash_bytes(b"bootstrap"), hash_bytes(b"bootstrap!"));
        let mut h = FxHasher64::default();
        h.write_u64(42);
        assert_eq!(h.finish(), 0x5e77_c80c_6b95_bc72);
        let mut h = FxHasher64::default();
        h.write_u32(0xdead_beef);
        assert_eq!(h.finish(), 0x67f3_c037_2953_771b);
    }

    #[test]
    fn fx_hasher_orders_and_mixes_keys() {
        let hash_of = |parts: &[u64]| {
            let mut h = FxHasher64::default();
            for &p in parts {
                h.write_u64(p);
            }
            h.finish()
        };
        assert_eq!(hash_of(&[1, 2]), hash_of(&[1, 2]));
        assert_ne!(hash_of(&[1, 2]), hash_of(&[2, 1]), "order must matter");
        // Nearby small keys should not collide (the common id pattern).
        let hashes: std::collections::HashSet<u64> = (0u64..1024).map(|i| hash_of(&[i])).collect();
        assert_eq!(hashes.len(), 1024);
    }

    #[test]
    fn fx_hasher_byte_stream_matches_itself_across_chunking() {
        let mut a = FxHasher64::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let mut b = FxHasher64::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fx_hasher_integer_writes_match_padded_bytes() {
        let bytes = |b: &[u8]| {
            let mut h = FxHasher64::default();
            h.write(b);
            h.finish()
        };
        let mut h = FxHasher64::default();
        h.write_u8(0xab);
        assert_eq!(h.finish(), bytes(&[0xab]));
        let mut h = FxHasher64::default();
        h.write_u16(0xabcd);
        assert_eq!(h.finish(), bytes(&0xabcd_u16.to_le_bytes()));
        let mut h = FxHasher64::default();
        h.write_u32(0xdead_beef);
        assert_eq!(h.finish(), bytes(&0xdead_beef_u32.to_le_bytes()));
        let mut h = FxHasher64::default();
        h.write_usize(usize::MAX - 7);
        assert_eq!(h.finish(), bytes(&(usize::MAX - 7).to_le_bytes()));
    }

    #[test]
    fn fx_build_hasher_keys_a_map() {
        let mut m: std::collections::HashMap<(u32, u32), u32, FxBuildHasher> =
            std::collections::HashMap::default();
        for i in 0..100u32 {
            m.insert((i, i + 1), i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(41, 42)), Some(&41));
    }
}
