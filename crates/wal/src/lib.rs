//! Write-ahead log substrate.
//!
//! Section 4 of the Mahi-Mahi paper: *"To ensure data persistence and crash
//! recovery, we implemented a Write-Ahead Log (WAL) tailored to the unique
//! requirements of our consensus protocol."* A validator appends every block
//! it creates or receives before acting on it; after a crash it replays the
//! log to rebuild its DAG and resume from its last round.
//!
//! The format is a flat sequence of CRC-framed records:
//!
//! ```text
//! ┌────────────┬───────────┬───────────┬─────────────┐
//! │ magic  u32 │ len   u32 │ crc32 u32 │ payload ... │
//! └────────────┴───────────┴───────────┴─────────────┘
//! ```
//!
//! The CRC covers the payload. A payload may be appended as several slices
//! ([`Wal::append_parts`]): the checksum streams over them and the storage
//! writes header and slices in one vectored write, so a record held in
//! pieces — a tag and a block's retained bytes — is never copied into one
//! buffer first. [`Wal::append`] is the one-slice case.
//!
//! Recovery scans from the start and stops at the first invalid frame — a
//! torn write at the tail (the common crash case) truncates back to the last
//! durable record and never corrupts the prefix (property-tested).
//!
//! Two storage backends are provided: [`FileWal`] (real files, used by the
//! networked node) and [`MemWal`] (in-memory, used by simulations and
//! crash-injection tests).
//!
//! Compaction is payload-agnostic: the caller remembers where each record's
//! frame sits ([`FrameRange`]) and [`Wal::rewrite_atomic`] copies the frames
//! it wants to keep, verbatim, into a replacement log — no payload is
//! decoded and no CRC is recomputed.

pub mod crc32;

use std::error::Error as StdError;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, IoSlice, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crc32::{crc32, Crc32};

const MAGIC: u32 = 0x4d41_4849; // "MAHI"
const HEADER_BYTES: usize = 12;

/// Maximum payload accepted per record (64 MiB), mirroring the codec limit.
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// Read buffer of the compaction copy: the most of the old log held in
/// memory at once, however large the log or a single record is.
const COPY_BUFFER_BYTES: usize = 64 * 1024;

/// Errors from WAL operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum WalError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The payload exceeds [`MAX_RECORD_BYTES`].
    RecordTooLarge(usize),
    /// A [`FrameRange`] handed to [`Wal::rewrite_atomic`] does not hold one
    /// whole frame of this log (it reaches past the tail, or the bytes at
    /// its offset are not a frame header of that length).
    NotAFrame(FrameRange),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(error) => write!(f, "wal i/o error: {error}"),
            WalError::RecordTooLarge(size) => {
                write!(
                    f,
                    "record of {size} bytes exceeds the {MAX_RECORD_BYTES} limit"
                )
            }
            WalError::NotAFrame(range) => write!(
                f,
                "no frame of {} bytes at offset {}",
                range.len, range.offset
            ),
        }
    }
}

impl StdError for WalError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            WalError::Io(error) => Some(error),
            WalError::RecordTooLarge(_) | WalError::NotAFrame(_) => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(error: std::io::Error) -> Self {
        WalError::Io(error)
    }
}

/// Where one record's frame — header plus payload — sits in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRange {
    /// Byte offset of the frame's header.
    pub offset: u64,
    /// Length of the whole frame: header and payload.
    pub len: u64,
}

impl FrameRange {
    /// The frame of a record appended at `offset` (the value
    /// [`Wal::append`] returned) with a payload of `payload_len` bytes.
    pub fn new(offset: u64, payload_len: usize) -> Self {
        FrameRange {
            offset,
            len: (HEADER_BYTES + payload_len) as u64,
        }
    }

    /// The offset one past the frame's last byte.
    pub fn end(&self) -> u64 {
        self.offset.saturating_add(self.len)
    }
}

/// Abstract append-only byte storage for the log.
///
/// Implementations must support truncation (used at open, to discard a
/// torn tail), positional reads (used by recovery and by compaction) and
/// replacing their whole contents in one atomic step (compaction).
pub trait Storage: Send {
    /// Appends the concatenation of `parts` at the end of the storage.
    fn append(&mut self, parts: &[&[u8]]) -> Result<(), WalError>;
    /// Reads up to `buf.len()` bytes at `offset`; returns bytes read.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, WalError>;
    /// Current length in bytes.
    fn len(&mut self) -> Result<u64, WalError>;
    /// Whether the storage is empty.
    fn is_empty(&mut self) -> Result<bool, WalError> {
        Ok(self.len()? == 0)
    }
    /// Discards everything at and after `offset`.
    fn truncate(&mut self, offset: u64) -> Result<(), WalError>;
    /// Forces durability of previous appends.
    fn sync(&mut self) -> Result<(), WalError>;
    /// Replaces the contents with the frames `keep` of the current
    /// contents, copied verbatim in the order given, and returns the new
    /// length. The replacement is durable on return and atomic: a crash or
    /// an error leaves the complete old contents or the complete new ones.
    fn replace_with_frames(&mut self, keep: &[FrameRange]) -> Result<u64, WalError>;
}

/// File-backed storage.
#[derive(Debug)]
pub struct FileStorage {
    file: File,
    /// The file's path when known (opened via [`FileWal::open_path`]);
    /// compaction needs it to rename the replacement log into place.
    path: Option<PathBuf>,
    /// A compaction renamed a new log into place but could not fsync the
    /// directory. Until that succeeds no later append is durable — a crash
    /// could bring the old file back — so every [`Storage::sync`] retries
    /// it and fails while it does.
    rename_unsynced: bool,
}

/// The sibling file a compaction writes before renaming it over the log.
fn compaction_temp_path(path: &Path) -> PathBuf {
    let mut temp = path.as_os_str().to_owned();
    temp.push(".compact");
    PathBuf::from(temp)
}

/// Forces the directory entry for `path` to disk, so a freshly created or
/// renamed file cannot vanish from its directory after a crash.
fn sync_parent_dir(path: &Path) -> Result<(), WalError> {
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()?;
    Ok(())
}

impl Storage for FileStorage {
    /// One vectored write for all parts, repeated only if the kernel took
    /// less than everything. The file is open in append mode, so every
    /// write lands at its current end — after a truncation too — with no
    /// seek first.
    fn append(&mut self, parts: &[&[u8]]) -> Result<(), WalError> {
        let mut slices: Vec<IoSlice<'_>> = parts.iter().map(|part| IoSlice::new(part)).collect();
        let mut pending = &mut slices[..];
        // Skip empty parts up front, so that a write taking zero bytes
        // always means the file refused them.
        IoSlice::advance_slices(&mut pending, 0);
        while !pending.is_empty() {
            match self.file.write_vectored(pending) {
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
                Ok(written) => IoSlice::advance_slices(&mut pending, written),
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
                Err(error) => return Err(error.into()),
            }
        }
        Ok(())
    }

    /// Positional reads: the file offset appends rely on is never moved.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, WalError> {
        let mut read = 0;
        while read < buf.len() {
            match self.file.read_at(&mut buf[read..], offset + read as u64)? {
                0 => break,
                n => read += n,
            }
        }
        Ok(read)
    }

    fn len(&mut self) -> Result<u64, WalError> {
        Ok(self.file.metadata()?.len())
    }

    fn truncate(&mut self, offset: u64) -> Result<(), WalError> {
        // `sync_all`, not `sync_data`: the shrunk length is metadata, and a
        // recovery truncation that is not itself durable would let a
        // second crash resurrect the torn bytes it discarded.
        self.file.set_len(offset)?;
        self.file.sync_all()?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        if self.rename_unsynced {
            let path = self.path.as_deref().expect("a rename needed the path");
            sync_parent_dir(path)?;
            self.rename_unsynced = false;
        }
        Ok(())
    }

    /// Temp file → `sync_all` → rename over the log → directory fsync.
    /// Requires the log to have been opened through
    /// [`FileWal::open_path`].
    fn replace_with_frames(&mut self, keep: &[FrameRange]) -> Result<u64, WalError> {
        let path = self
            .path
            .clone()
            .ok_or_else(|| WalError::Io(std::io::Error::other("wal path unknown")))?;
        let temp_path = compaction_temp_path(&path);
        let (temp, len) = self
            .write_replacement(keep, &temp_path, &path)
            .inspect_err(|_| {
                let _ = std::fs::remove_file(&temp_path);
            })?;
        // From the rename on, the new file is the log.
        self.file = temp;
        self.rename_unsynced = sync_parent_dir(&path).is_err();
        Ok(len)
    }
}

impl FileStorage {
    /// Writes the frames `keep` to a new file at `temp_path`, makes it
    /// durable and renames it to `path`; returns the file, open in append
    /// mode for use as the log, and its length.
    fn write_replacement(
        &mut self,
        keep: &[FrameRange],
        temp_path: &Path,
        path: &Path,
    ) -> Result<(File, u64), WalError> {
        // Append mode refuses `truncate(true)`: empty a leftover by hand.
        let temp = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(temp_path)?;
        temp.set_len(0)?;
        let mut writer = BufWriter::with_capacity(COPY_BUFFER_BYTES, &temp);
        let len = copy_frames(self, keep, &mut writer)?;
        writer.flush()?;
        drop(writer);
        temp.sync_all()?;
        std::fs::rename(temp_path, path)?;
        Ok((temp, len))
    }
}

/// In-memory storage; clones share the same buffer so tests can inspect or
/// corrupt a log while a writer holds it.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    buffer: Arc<Mutex<Vec<u8>>>,
    /// Count of [`Storage::sync`] calls, shared across clones — lets
    /// crash-consistency tests assert that recovery actions were made
    /// durable, not merely performed.
    syncs: Arc<AtomicU64>,
    /// Length of the buffer when it was last made durable (a
    /// [`Storage::sync`], a truncation or a compaction): what a crash keeps.
    synced_len: Arc<AtomicU64>,
    /// Test fault injection, shared across clones: while set, every append
    /// (resp. sync) fails with an I/O error and changes nothing — a full or
    /// failing disk.
    failing_appends: Arc<AtomicBool>,
    failing_syncs: Arc<AtomicBool>,
}

impl MemStorage {
    /// Creates empty shared storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared buffer. A clone that panicked while holding it leaves
    /// nothing worth reading, so poisoning is that panic again.
    fn buffer(&self) -> MutexGuard<'_, Vec<u8>> {
        self.buffer.lock().expect("memory log poisoned")
    }

    /// Copies out the raw bytes (test inspection).
    pub fn snapshot(&self) -> Vec<u8> {
        self.buffer().clone()
    }

    /// Overwrites the raw bytes (test corruption injection).
    pub fn replace(&self, bytes: Vec<u8>) {
        *self.buffer() = bytes;
    }

    /// Makes every append fail (or succeed again) from now on (test fault
    /// injection).
    pub fn fail_appends(&self, fail: bool) {
        self.failing_appends.store(fail, Ordering::SeqCst);
    }

    /// Makes every sync fail (or succeed again) from now on (test fault
    /// injection). A failed sync makes nothing durable.
    pub fn fail_syncs(&self, fail: bool) {
        self.failing_syncs.store(fail, Ordering::SeqCst);
    }

    /// Number of [`Storage::sync`] calls observed so far.
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }

    /// The bytes a crash at this instant would leave behind: everything
    /// appended after the last sync is discarded.
    pub fn durable_snapshot(&self) -> Vec<u8> {
        let buffer = self.buffer();
        let durable = (self.synced_len.load(Ordering::SeqCst) as usize).min(buffer.len());
        buffer[..durable].to_vec()
    }
}

impl Storage for MemStorage {
    fn append(&mut self, parts: &[&[u8]]) -> Result<(), WalError> {
        if self.failing_appends.load(Ordering::SeqCst) {
            return Err(std::io::Error::other("injected append failure").into());
        }
        let mut buffer = self.buffer();
        for part in parts {
            buffer.extend_from_slice(part);
        }
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, WalError> {
        let buffer = self.buffer();
        let start = (offset as usize).min(buffer.len());
        let end = (start + buf.len()).min(buffer.len());
        buf[..end - start].copy_from_slice(&buffer[start..end]);
        Ok(end - start)
    }

    fn len(&mut self) -> Result<u64, WalError> {
        Ok(self.buffer().len() as u64)
    }

    fn truncate(&mut self, offset: u64) -> Result<(), WalError> {
        self.buffer().truncate(offset as usize);
        self.synced_len.fetch_min(offset, Ordering::SeqCst);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        if self.failing_syncs.load(Ordering::SeqCst) {
            return Err(std::io::Error::other("injected sync failure").into());
        }
        self.syncs.fetch_add(1, Ordering::SeqCst);
        let len = self.buffer().len() as u64;
        self.synced_len.store(len, Ordering::SeqCst);
        Ok(())
    }

    /// The replacement is built beside the buffer and swapped in under the
    /// lock — the in-memory twin of the file backend's rename.
    fn replace_with_frames(&mut self, keep: &[FrameRange]) -> Result<u64, WalError> {
        let mut replacement = Vec::new();
        let len = copy_frames(&mut self.clone(), keep, &mut replacement)?;
        *self.buffer() = replacement;
        self.synced_len.store(len, Ordering::SeqCst);
        Ok(len)
    }
}

/// A write-ahead log over some [`Storage`].
///
/// # Example
///
/// ```
/// use mahimahi_wal::{MemWal, MemStorage};
///
/// let mut wal = MemWal::open(MemStorage::new())?;
/// wal.append(b"block one")?;
/// wal.append(b"block two")?;
/// let records = wal.records()?;
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[1].payload, b"block two");
/// # Ok::<(), mahimahi_wal::WalError>(())
/// ```
#[derive(Debug)]
pub struct Wal<S: Storage> {
    storage: S,
    /// End offset of the last valid record (the append position).
    tail: u64,
}

/// File-backed WAL.
pub type FileWal = Wal<FileStorage>;
/// In-memory WAL.
pub type MemWal = Wal<MemStorage>;

/// A record recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Byte offset of the record's header in the log.
    pub offset: u64,
    /// The record payload.
    pub payload: Vec<u8>,
}

impl Record {
    /// Where the record's frame sits in the log it was read from.
    pub fn frame(&self) -> FrameRange {
        FrameRange::new(self.offset, self.payload.len())
    }
}

impl FileWal {
    /// Opens (creating if missing) a file-backed log at `path`, scanning it
    /// and truncating any torn tail. A replacement log left half-written
    /// beside it by a crash during [`Wal::rewrite_atomic`] is removed: the
    /// rename never happened, so the log at `path` is the complete old one.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn open_path<P: AsRef<Path>>(path: P) -> Result<Self, WalError> {
        let path = path.as_ref();
        let existed = path.exists();
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        if !existed {
            // A crash right after creation must not lose the directory
            // entry — the log's existence is part of the durability
            // contract from the first append onward.
            sync_parent_dir(path)?;
        }
        let wal = Wal::open(FileStorage {
            file,
            path: Some(path.to_path_buf()),
            rename_unsynced: false,
        })?;
        match std::fs::remove_file(compaction_temp_path(path)) {
            Err(error) if error.kind() != std::io::ErrorKind::NotFound => Err(error.into()),
            _ => Ok(wal),
        }
    }
}

impl<S: Storage> Wal<S> {
    /// Opens a log over `storage`, validating existing contents and
    /// truncating everything after the last valid record.
    ///
    /// The truncation is synced before the log is handed out: recovery's
    /// discard of a torn tail must itself be durable, or a second crash
    /// could resurrect bytes that appends after reopen assume are gone.
    pub fn open(mut storage: S) -> Result<Self, WalError> {
        let tail = scan_valid_prefix(&mut storage)?.last().map_or(0, |record| {
            record.offset + HEADER_BYTES as u64 + record.payload.len() as u64
        });
        if storage.len()? > tail {
            storage.truncate(tail)?;
            storage.sync()?;
        }
        Ok(Wal { storage, tail })
    }

    /// Appends a record and returns its offset: [`Wal::append_parts`] with
    /// one part.
    ///
    /// # Errors
    ///
    /// Fails if the payload exceeds [`MAX_RECORD_BYTES`] or on I/O error.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        self.append_parts(&[payload])
    }

    /// Appends a record whose payload is the concatenation of `parts` and
    /// returns its offset. The frame is exactly the one [`Wal::append`]
    /// writes for the concatenated payload; the parts are checksummed and
    /// written where they lie, never copied into one buffer.
    ///
    /// The record is *framed* immediately but only durable after
    /// [`Wal::sync`].
    ///
    /// # Errors
    ///
    /// Fails if the payload exceeds [`MAX_RECORD_BYTES`] or on I/O error.
    pub fn append_parts(&mut self, parts: &[&[u8]]) -> Result<u64, WalError> {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        if len > MAX_RECORD_BYTES {
            return Err(WalError::RecordTooLarge(len));
        }
        let mut crc = Crc32::new();
        for part in parts {
            crc.update(part);
        }
        let header = frame_header(len, crc.finish());
        let mut frame: Vec<&[u8]> = Vec::with_capacity(1 + parts.len());
        frame.push(&header);
        frame.extend_from_slice(parts);
        let offset = self.tail;
        self.storage.append(&frame)?;
        self.tail += (HEADER_BYTES + len) as u64;
        Ok(offset)
    }

    /// Replaces the log's contents with the frames `keep` — each the
    /// [`FrameRange`] of a record of this log — in the order given
    /// (compaction).
    ///
    /// The frames are streamed *verbatim* — header, stored CRC, payload —
    /// from the old log into the replacement through a bounded buffer:
    /// nothing is decoded, no CRC is recomputed, and the log is never held
    /// in memory. Only each frame's header is checked against its range, so
    /// a stale or miscounted offset is an error, not a corrupt log.
    ///
    /// For file-backed logs the replacement is written to a sibling
    /// temporary file, `sync_all`ed, renamed over the log, and the parent
    /// directory is fsynced — a crash at any point leaves either the
    /// complete old log or the complete new one, never a mix (a leftover
    /// temporary file is removed by the next [`FileWal::open_path`]).
    /// Everything the new log holds is durable on return, including records
    /// that were appended but not yet synced.
    ///
    /// # Errors
    ///
    /// [`WalError::NotAFrame`] if a range is not a frame of this log; I/O
    /// failures; a file-backed log opened without a path. On error the old
    /// log is untouched and still open, and [`Wal::tail`] is unchanged.
    pub fn rewrite_atomic(&mut self, keep: &[FrameRange]) -> Result<(), WalError> {
        if let Some(range) = keep.iter().find(|range| range.end() > self.tail) {
            return Err(WalError::NotAFrame(*range));
        }
        self.tail = self.storage.replace_with_frames(keep)?;
        Ok(())
    }

    /// Forces durability of all appended records.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.storage.sync()
    }

    /// Reads back every valid record from the start of the log.
    pub fn records(&mut self) -> Result<Vec<Record>, WalError> {
        scan_valid_prefix(&mut self.storage)
    }

    /// The append position (end of the last valid record).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Consumes the log, returning the underlying storage.
    pub fn into_storage(self) -> S {
        self.storage
    }
}

/// The header of a frame whose payload is `len` bytes with checksum `crc`:
/// magic, length, CRC.
fn frame_header(len: usize, crc: u32) -> [u8; HEADER_BYTES] {
    let len = u32::try_from(len).expect("payload length checked against MAX_RECORD_BYTES");
    let mut header = [0u8; HEADER_BYTES];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&len.to_le_bytes());
    header[8..12].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Streams the frames `keep` from `source` into `sink`, verbatim and in the
/// order given, through a [`COPY_BUFFER_BYTES`] buffer; returns the bytes
/// written. Each frame's header must carry the magic and the length its
/// range implies; payloads are not inspected.
fn copy_frames<S: Storage, W: Write>(
    source: &mut S,
    keep: &[FrameRange],
    sink: &mut W,
) -> Result<u64, WalError> {
    let mut buffer = vec![0u8; COPY_BUFFER_BYTES];
    let mut written = 0u64;
    for range in keep {
        if range.len < HEADER_BYTES as u64 {
            return Err(WalError::NotAFrame(*range));
        }
        let mut copied = 0u64;
        while copied < range.len {
            let want = (range.len - copied).min(COPY_BUFFER_BYTES as u64) as usize;
            let chunk = &mut buffer[..want];
            if source.read_at(range.offset + copied, chunk)? < want {
                return Err(WalError::NotAFrame(*range));
            }
            if copied == 0 && !is_header_of(chunk, range.len) {
                return Err(WalError::NotAFrame(*range));
            }
            sink.write_all(chunk)?;
            copied += want as u64;
        }
        written += range.len;
    }
    Ok(written)
}

/// Whether `bytes` (at least a header long) starts with the header of a
/// frame `frame_len` bytes long.
fn is_header_of(bytes: &[u8], frame_len: u64) -> bool {
    let payload_len = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    bytes[0..4] == MAGIC.to_le_bytes() && u64::from(payload_len) + HEADER_BYTES as u64 == frame_len
}

/// Scans storage from the start, returning every record up to (excluding)
/// the first invalid frame.
fn scan_valid_prefix<S: Storage>(storage: &mut S) -> Result<Vec<Record>, WalError> {
    let total = storage.len()?;
    let mut records = Vec::new();
    let mut offset = 0u64;
    let mut header = [0u8; HEADER_BYTES];
    loop {
        if offset + HEADER_BYTES as u64 > total {
            break;
        }
        if storage.read_at(offset, &mut header)? < HEADER_BYTES {
            break;
        }
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let expected_crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if magic != MAGIC || len > MAX_RECORD_BYTES {
            break;
        }
        if offset + (HEADER_BYTES + len) as u64 > total {
            break;
        }
        let mut payload = vec![0u8; len];
        if storage.read_at(offset + HEADER_BYTES as u64, &mut payload)? < len {
            break;
        }
        if crc32(&payload) != expected_crc {
            break;
        }
        records.push(Record { offset, payload });
        offset += (HEADER_BYTES + len) as u64;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mem_wal() -> (MemWal, MemStorage) {
        let storage = MemStorage::new();
        let wal = Wal::open(storage.clone()).unwrap();
        (wal, storage)
    }

    /// The whole on-disk frame of one payload, built by hand.
    fn frame_record(payload: &[u8]) -> Vec<u8> {
        let mut frame = frame_header(payload.len(), crc32(payload)).to_vec();
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn a_record_in_parts_is_framed_exactly_like_its_concatenation() {
        let payloads: [&[&[u8]]; 5] = [
            &[],
            &[b""],
            &[b"\x01", b"block bytes"],
            &[b"a", b"", b"bc", b"defghijklmnop"],
            &[&[7u8; 1000], &[9u8; 3]],
        ];
        let (mut whole, whole_storage) = mem_wal();
        let (mut parted, parted_storage) = mem_wal();
        let mut expected = Vec::new();
        for parts in payloads {
            let payload = parts.concat();
            expected.extend(frame_record(&payload));
            assert_eq!(
                whole.append(&payload).unwrap(),
                parted.append_parts(parts).unwrap()
            );
        }
        assert_eq!(whole_storage.snapshot(), expected);
        assert_eq!(parted_storage.snapshot(), expected);
        assert_eq!(whole.tail(), parted.tail());
        let half = vec![0u8; MAX_RECORD_BYTES / 2 + 1];
        assert!(matches!(
            parted.append_parts(&[&half[..], &half[..]]),
            Err(WalError::RecordTooLarge(_))
        ));
        assert_eq!(
            parted_storage.snapshot(),
            expected,
            "a refused record writes nothing"
        );
    }

    #[test]
    fn file_backed_parts_reach_the_file_in_order() {
        let dir = scratch_dir("parts");
        let path = dir.join("parts.wal");
        let big = vec![0x5au8; 3 * COPY_BUFFER_BYTES + 11];
        {
            let mut wal = FileWal::open_path(&path).unwrap();
            wal.append_parts(&[b"\x01", &big[..], b"tail"]).unwrap();
            wal.sync().unwrap();
        }
        let mut expected = vec![1u8];
        expected.extend_from_slice(&big);
        expected.extend_from_slice(b"tail");
        assert_eq!(std::fs::read(&path).unwrap(), frame_record(&expected));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_and_read_back() {
        let (mut wal, _) = mem_wal();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.append(b"").unwrap();
        let records = wal.records().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].payload, b"one");
        assert_eq!(records[1].payload, b"two");
        assert_eq!(records[2].payload, b"");
    }

    #[test]
    fn offsets_are_monotonic_and_stable() {
        let (mut wal, _) = mem_wal();
        let first = wal.append(b"aaaa").unwrap();
        let second = wal.append(b"bb").unwrap();
        assert_eq!(first, 0);
        assert_eq!(second, HEADER_BYTES as u64 + 4);
        let records = wal.records().unwrap();
        assert_eq!(records[0].offset, first);
        assert_eq!(records[1].offset, second);
    }

    #[test]
    fn reopen_preserves_records_and_appends_continue() {
        let (mut wal, storage) = mem_wal();
        wal.append(b"before").unwrap();
        drop(wal);
        let mut reopened = Wal::open(storage).unwrap();
        assert_eq!(reopened.records().unwrap().len(), 1);
        reopened.append(b"after").unwrap();
        let records = reopened.records().unwrap();
        assert_eq!(records[1].payload, b"after");
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let (mut wal, storage) = mem_wal();
        wal.append(b"durable").unwrap();
        wal.append(b"torn-record-payload").unwrap();
        // Simulate a crash mid-write of the second record.
        let mut bytes = storage.snapshot();
        bytes.truncate(bytes.len() - 5);
        storage.replace(bytes);
        let syncs_before = storage.sync_count();
        let mut reopened = Wal::open(storage.clone()).unwrap();
        let records = reopened.records().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"durable");
        // The truncation itself was synced: a crash immediately after
        // recovery must not resurrect the discarded tail.
        assert!(
            storage.sync_count() > syncs_before,
            "recovery truncation must be made durable"
        );
        // The torn bytes were discarded; new appends start clean.
        reopened.append(b"fresh").unwrap();
        assert_eq!(reopened.records().unwrap().len(), 2);
        drop(reopened);
        // Reopen-after-recovery: a second open sees exactly the recovered
        // prefix plus the new append, and truncates nothing further.
        let syncs_before = storage.sync_count();
        let mut second = Wal::open(storage.clone()).unwrap();
        let records = second.records().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].payload, b"fresh");
        assert_eq!(
            storage.sync_count(),
            syncs_before,
            "a clean log needs no recovery truncation (and no sync)"
        );
    }

    #[test]
    fn corrupt_crc_stops_scan() {
        let (mut wal, storage) = mem_wal();
        wal.append(b"good").unwrap();
        wal.append(b"bad!").unwrap();
        let mut bytes = storage.snapshot();
        let len = bytes.len();
        bytes[len - 1] ^= 0xff; // flip a payload bit of the second record
        storage.replace(bytes);
        let mut reopened = Wal::open(storage).unwrap();
        assert_eq!(reopened.records().unwrap().len(), 1);
    }

    #[test]
    fn corrupt_magic_stops_scan() {
        let (mut wal, storage) = mem_wal();
        wal.append(b"good").unwrap();
        wal.append(b"hidden").unwrap();
        let mut bytes = storage.snapshot();
        let second_offset = HEADER_BYTES + 4;
        bytes[second_offset] ^= 0xff;
        storage.replace(bytes);
        let mut reopened = Wal::open(storage).unwrap();
        assert_eq!(reopened.records().unwrap().len(), 1);
    }

    #[test]
    fn oversized_record_rejected() {
        let (mut wal, _) = mem_wal();
        let result = wal.append(&vec![0u8; MAX_RECORD_BYTES + 1]);
        assert!(matches!(result, Err(WalError::RecordTooLarge(_))));
    }

    #[test]
    fn empty_log_recovers_empty() {
        let (mut wal, _) = mem_wal();
        assert!(wal.records().unwrap().is_empty());
        assert_eq!(wal.tail(), 0);
    }

    #[test]
    fn file_backed_wal_round_trip() {
        let dir = scratch_dir("round-trip");
        let path = dir.join("test.wal");
        {
            let mut wal = FileWal::open_path(&path).unwrap();
            wal.append(b"persisted").unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = FileWal::open_path(&path).unwrap();
            let records = wal.records().unwrap();
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].payload, b"persisted");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A per-process scratch directory for the file-backed tests.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mahimahi-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn rewrite_copies_the_kept_frames_verbatim_in_the_order_given() {
        let (mut wal, storage) = mem_wal();
        let payloads: [&[u8]; 4] = [b"old-one", b"keep-a", b"", b"keep-b"];
        let frames: Vec<FrameRange> = payloads
            .iter()
            .map(|payload| FrameRange::new(wal.append(payload).unwrap(), payload.len()))
            .collect();
        let before = storage.snapshot();
        let bytes_of = |frame: &FrameRange| &before[frame.offset as usize..frame.end() as usize];

        // Keep the last record first, then the second and the empty one.
        let keep = [frames[3], frames[1], frames[2]];
        wal.rewrite_atomic(&keep).unwrap();
        let after = storage.snapshot();
        let expected: Vec<u8> = keep
            .iter()
            .flat_map(|frame| bytes_of(frame).to_vec())
            .collect();
        assert_eq!(after, expected, "frames are copied byte for byte");
        assert_eq!(wal.tail(), expected.len() as u64);
        assert_eq!(storage.durable_snapshot(), expected, "and are durable");

        // The copies still carry valid CRCs: the scan accepts every one.
        let records = wal.records().unwrap();
        let kept: Vec<&[u8]> = records.iter().map(|r| r.payload.as_slice()).collect();
        assert_eq!(kept, [&b"keep-b"[..], b"keep-a", b""]);
        assert_eq!(records[1].frame(), FrameRange::new(frames[3].len, 6));

        // Appends continue from the rewritten tail, and a reopen agrees.
        wal.append(b"after").unwrap();
        let mut reopened = Wal::open(storage).unwrap();
        assert_eq!(reopened.records().unwrap().len(), 4);
    }

    #[test]
    fn rewrite_streams_frames_larger_than_the_copy_buffer() {
        let (mut wal, storage) = mem_wal();
        let big: Vec<u8> = (0..COPY_BUFFER_BYTES * 2 + 17).map(|i| i as u8).collect();
        wal.append(b"dropped").unwrap();
        let frame = FrameRange::new(wal.append(&big).unwrap(), big.len());
        wal.rewrite_atomic(&[frame]).unwrap();
        assert_eq!(storage.snapshot().len() as u64, frame.len);
        assert_eq!(wal.records().unwrap()[0].payload, big);
    }

    #[test]
    fn rewrite_rejects_ranges_that_are_not_frames_and_keeps_the_log() {
        let (mut wal, storage) = mem_wal();
        let first = FrameRange::new(wal.append(b"first").unwrap(), 5);
        let second = FrameRange::new(wal.append(b"second").unwrap(), 6);
        let before = storage.snapshot();
        for bad in [
            FrameRange {
                offset: second.offset,
                len: second.len + 1,
            }, // past the tail
            FrameRange {
                offset: first.offset,
                len: first.len - 1,
            }, // wrong length
            FrameRange {
                offset: first.offset + 1,
                len: first.len,
            }, // not a header
            FrameRange { offset: 0, len: 0 }, // not even a header
        ] {
            let result = wal.rewrite_atomic(&[second, bad]);
            assert!(matches!(result, Err(WalError::NotAFrame(range)) if range == bad));
            assert_eq!(
                storage.snapshot(),
                before,
                "a failed rewrite changes nothing"
            );
            assert_eq!(wal.tail(), before.len() as u64);
        }
    }

    #[test]
    fn durable_snapshot_drops_everything_after_the_last_sync() {
        let (mut wal, storage) = mem_wal();
        wal.append(b"synced").unwrap();
        wal.sync().unwrap();
        let durable = storage.snapshot();
        wal.append(b"lost in the crash").unwrap();
        assert_eq!(storage.durable_snapshot(), durable);
        assert!(storage.snapshot().len() > durable.len());
    }

    #[test]
    fn file_rewrite_atomic_survives_reopen() {
        let dir = scratch_dir("compact");
        let path = dir.join("compact.wal");
        {
            let mut wal = FileWal::open_path(&path).unwrap();
            let frames: Vec<FrameRange> = (0..8u8)
                .map(|i| FrameRange::new(wal.append(&[i; 16]).unwrap(), 16))
                .collect();
            // Unsynced appends are copied too, and durable afterwards.
            wal.rewrite_atomic(&[frames[7], frames[6]]).unwrap();
            assert_eq!(wal.tail(), 2 * frames[0].len);
            // The handle stays usable after the rename.
            wal.append(b"appended-after-compaction").unwrap();
            wal.sync().unwrap();
        }
        // No temporary file left behind, and the compacted log reopens.
        assert!(!compaction_temp_path(&path).exists());
        let mut reopened = FileWal::open_path(&path).unwrap();
        let records = reopened.records().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].payload, vec![7; 16]);
        assert_eq!(records[1].payload, vec![6; 16]);
        assert_eq!(records[2].payload, b"appended-after-compaction");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_append_after_a_truncation_and_a_read_lands_at_the_new_end() {
        let dir = scratch_dir("append-mode");
        let path = dir.join("torn.wal");
        let tail = {
            let mut wal = FileWal::open_path(&path).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
            wal.sync().unwrap();
            wal.tail()
        };
        // A torn write: half a frame past the last whole record.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&frame_record(b"torn")[..7]).unwrap();
        drop(file);

        // Opening reads the log and truncates the torn bytes; a read moves
        // no file offset, and the next append goes where the tail now is.
        let mut wal = FileWal::open_path(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), tail);
        assert_eq!(wal.records().unwrap().len(), 2);
        assert_eq!(wal.append(b"third").unwrap(), tail);
        wal.sync().unwrap();
        let payloads: Vec<Vec<u8>> = wal
            .records()
            .unwrap()
            .into_iter()
            .map(|record| record.payload)
            .collect();
        assert_eq!(payloads, [&b"first"[..], b"second", b"third"]);
        let mut expected = frame_record(b"first");
        expected.extend(frame_record(b"second"));
        expected.extend(frame_record(b"third"));
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_removes_a_replacement_log_abandoned_by_a_crash() {
        let dir = scratch_dir("stale-temp");
        let path = dir.join("crashed.wal");
        {
            let mut wal = FileWal::open_path(&path).unwrap();
            wal.append(b"survivor").unwrap();
            wal.sync().unwrap();
        }
        // The crash hit mid-copy: half a frame in the temporary file, the
        // rename never happened.
        std::fs::write(compaction_temp_path(&path), &frame_record(b"survivor")[..9]).unwrap();
        let mut wal = FileWal::open_path(&path).unwrap();
        assert!(!compaction_temp_path(&path).exists());
        assert_eq!(wal.records().unwrap()[0].payload, b"survivor");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_file_rewrite_leaves_the_old_log_open() {
        let dir = scratch_dir("rewrite-fails");
        let path = dir.join("kept.wal");
        let mut wal = FileWal::open_path(&path).unwrap();
        let frame = FrameRange::new(wal.append(b"kept").unwrap(), 4);
        // A directory squatting on the temporary path makes the create fail.
        std::fs::create_dir(compaction_temp_path(&path)).unwrap();
        assert!(matches!(wal.rewrite_atomic(&[frame]), Err(WalError::Io(_))));
        assert_eq!(wal.tail(), frame.len);
        wal.append(b"still appending").unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.records().unwrap().len(), 2);
        // With the obstacle gone the same rewrite goes through.
        std::fs::remove_dir(compaction_temp_path(&path)).unwrap();
        wal.rewrite_atomic(&[frame]).unwrap();
        assert_eq!(wal.records().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_display() {
        let io = WalError::from(std::io::Error::other("x"));
        assert!(io.to_string().contains("i/o"));
        assert!(WalError::RecordTooLarge(1).to_string().contains("limit"));
        assert!(WalError::NotAFrame(FrameRange::new(7, 0))
            .to_string()
            .contains("offset 7"));
    }

    proptest! {
        /// Crash-consistency: truncating the log at ANY byte boundary leaves
        /// a prefix of fully-written records intact.
        #[test]
        fn prop_arbitrary_truncation_preserves_prefix(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..64), 1..8),
            cut_fraction in 0.0f64..1.0,
        ) {
            let storage = MemStorage::new();
            let mut wal = Wal::open(storage.clone()).unwrap();
            let mut ends = Vec::new();
            for payload in &payloads {
                wal.append(payload).unwrap();
                ends.push(wal.tail());
            }
            let total = storage.snapshot().len();
            let cut = (total as f64 * cut_fraction) as usize;
            let mut bytes = storage.snapshot();
            bytes.truncate(cut);
            storage.replace(bytes);

            let mut reopened = Wal::open(storage.clone()).unwrap();
            let records = reopened.records().unwrap();
            // Every surviving record must be an exact prefix.
            let expected = ends.iter().take_while(|&&end| end <= cut as u64).count();
            prop_assert_eq!(records.len(), expected);
            for (record, payload) in records.iter().zip(&payloads) {
                prop_assert_eq!(&record.payload, payload);
            }
            // If a tail was discarded, the truncation was synced, and a
            // second open (a crash right after recovery) sees the
            // identical prefix with nothing left to truncate.
            if cut as u64 > ends.get(expected.wrapping_sub(1)).copied().unwrap_or(0) {
                prop_assert!(storage.sync_count() > 0);
            }
            drop(reopened);
            let syncs_after_first = storage.sync_count();
            let mut again = Wal::open(storage.clone()).unwrap();
            prop_assert_eq!(again.records().unwrap().len(), expected);
            prop_assert_eq!(storage.sync_count(), syncs_after_first);
        }

        /// Recovery never panics on arbitrary garbage.
        #[test]
        fn prop_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let storage = MemStorage::new();
            storage.replace(bytes);
            let mut wal = Wal::open(storage).unwrap();
            let _ = wal.records().unwrap();
        }
    }
}
