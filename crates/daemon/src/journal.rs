//! The crash-recovery epoch journal.
//!
//! The daemon's only durable state is the workspace's file set. After
//! every accepted edit (and once at startup) the full set is written to
//! `journal.bin` in the cache directory the way the store writes its
//! `counters.bin` sidecar: in the store's [`seal`] envelope, through its
//! [`write_atomic`] temp file and `rename`. A SIGKILL between publishes
//! therefore leaves either the previous journal or the new one — never a
//! torn file — and a restart replays whichever epoch was last made
//! durable; the persistent store then warms the rebuilt session to the
//! same findings a cold run of that workspace produces.
//!
//! Layout (all through the store's checked [`codec`](bootstrap_store::codec)):
//!
//! ```text
//! bytes  "BSAJRNL1"            length-prefixed magic
//! bytes  body                  length-prefixed, see below
//! u64    fxhash(body)          checksum
//!
//! body:  u32 version | u64 epoch | u32 file count
//!        (str name, str content) * count
//! ```
//!
//! Any deviation — bad magic, bad checksum, truncation, trailing bytes,
//! unknown version — is a [`JournalError`]; the daemon logs it and
//! falls back to its seed workspace rather than serving from a corrupt
//! epoch.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use bootstrap_store::codec::{Reader, Writer};
use bootstrap_store::{seal, unseal, write_atomic};

/// Magic prefix of a journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"BSAJRNL1";

/// Journal format version.
pub const JOURNAL_VERSION: u32 = 1;

/// A decoded journal: the epoch sequence number and the workspace files.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalState {
    /// Epoch sequence number at the time of the write.
    pub epoch: u64,
    /// Workspace file name → contents.
    pub files: BTreeMap<String, String>,
}

/// Why a journal failed to load.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error other than "not found".
    Io(io::Error),
    /// The bytes are not a valid journal (bad magic/version/checksum,
    /// truncated, or trailing garbage).
    Corrupt(&'static str),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Corrupt(what) => write!(f, "corrupt journal: {what}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Atomically writes the journal: temp file in the same directory, then
/// `rename` over the target.
pub fn save(path: &Path, epoch: u64, files: &BTreeMap<String, String>) -> io::Result<()> {
    let mut body = Writer::new();
    body.u32(JOURNAL_VERSION);
    body.u64(epoch);
    body.u32(u32::try_from(files.len()).expect("file count fits u32"));
    for (name, content) in files {
        body.str(name);
        body.str(content);
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    write_atomic(path, &seal(&JOURNAL_MAGIC, &body.finish()))
}

/// Loads the journal. `Ok(None)` when the file does not exist; a
/// [`JournalError`] when it exists but cannot be trusted.
pub fn load(path: &Path) -> Result<Option<JournalState>, JournalError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(JournalError::Io(e)),
    };
    let body = unseal(&JOURNAL_MAGIC, &bytes).map_err(JournalError::Corrupt)?;
    let mut b = Reader::new(body);
    let version = b.u32().map_err(|_| JournalError::Corrupt("version"))?;
    if version != JOURNAL_VERSION {
        return Err(JournalError::Corrupt("unknown version"));
    }
    let epoch = b.u64().map_err(|_| JournalError::Corrupt("epoch"))?;
    let count = b.u32().map_err(|_| JournalError::Corrupt("file count"))?;
    let mut files = BTreeMap::new();
    for _ in 0..count {
        let name = b.str().map_err(|_| JournalError::Corrupt("file name"))?;
        let content = b.str().map_err(|_| JournalError::Corrupt("file content"))?;
        files.insert(name.to_string(), content.to_string());
    }
    if b.remaining() != 0 {
        return Err(JournalError::Corrupt("trailing body bytes"));
    }
    Ok(Some(JournalState { epoch, files }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> BTreeMap<String, String> {
        [("a.c", "int a;"), ("b.c", "void main() { }")]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn roundtrips_and_missing_is_none() {
        let dir = std::env::temp_dir().join("bsa-journal-roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("journal.bin");
        assert!(load(&path).unwrap().is_none());
        save(&path, 7, &files()).unwrap();
        // The bytes are pinned: a journal written by an older build must
        // keep replaying.
        let raw = fs::read(&path).unwrap();
        assert_eq!(bootstrap_store::hash_bytes(&raw), 0xbaef_dce8_6350_199b);
        let state = load(&path).unwrap().unwrap();
        assert_eq!(state.epoch, 7);
        assert_eq!(state.files, files());
        // Overwrite with a later epoch; rename replaces atomically.
        save(&path, 8, &files()).unwrap();
        assert_eq!(load(&path).unwrap().unwrap().epoch, 8);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_corruption_is_detected() {
        let dir = std::env::temp_dir().join("bsa-journal-corrupt");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("journal.bin");
        save(&path, 3, &files()).unwrap();
        let good = fs::read(&path).unwrap();

        // Truncations at every length.
        for cut in 0..good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(load(&path).is_err(), "prefix of {cut} bytes loaded");
        }
        // A single flipped byte anywhere must be caught (magic, body, or
        // checksum).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert!(load(&path).is_err(), "flip at byte {i} loaded");
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        fs::write(&path, &long).unwrap();
        assert!(load(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
