//! Per-panel entry buckets backed by one self-deleting staging run — how
//! a [`crate::mm`] panel reader splits a text source into panels in a
//! single scan while holding only one panel in memory.

use crate::{Coo, Index, SparseError, Triple};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Entries one panel reader buffers before any reach the staging run
/// (256 KiB of records), divided evenly among its panels.
pub(crate) const STAGING_ENTRIES: usize = 16 * 1024;

/// One staged `(row, col, value)` record: two little-endian [`Index`]es
/// and the value's `f64` bits.
const RECORD_BYTES: usize = 16;

/// Distinguishes the staging runs created by one process.
static STAGING_SEQ: AtomicU64 = AtomicU64::new(0);

/// The per-panel buckets a panel reader's one scan fills.
///
/// Every panel owns a buffer of at most `cap` entries. A full buffer is
/// appended to the **staging run** as one chunk of fixed 16-byte
/// records, and `chunks` remembers where each panel's chunks went; a
/// panel's chunks followed by its unwritten tail are its entries in file
/// order. The run is a single file for all panels, created in
/// [`std::env::temp_dir`] on first need and unlinked at once: the OS
/// reclaims it when the reader drops — or the process dies — so no exit
/// path leaves a file behind. An operand whose every panel fits its
/// buffer never touches the disk.
#[derive(Debug)]
pub(crate) struct Staging {
    cap: usize,
    bufs: Vec<Vec<Triple>>,
    /// `(byte offset, entries)` of every chunk written, per panel.
    chunks: Vec<Vec<(u64, usize)>>,
    /// The run, and the path it was created at (for error messages).
    run: Option<(File, PathBuf)>,
    /// Bytes appended to the run so far.
    written: u64,
    /// Encode / decode scratch, one chunk long.
    bytes: Vec<u8>,
}

impl Staging {
    /// Buckets for `panels` panels, each buffering at most `cap` entries
    /// (at least one).
    pub(crate) fn new(panels: usize, cap: usize) -> Self {
        Staging {
            cap: cap.max(1),
            bufs: vec![Vec::new(); panels],
            chunks: vec![Vec::new(); panels],
            run: None,
            written: 0,
            bytes: Vec::new(),
        }
    }

    /// Appends `entry` to panel `p`'s bucket.
    pub(crate) fn push(&mut self, p: usize, entry: Triple) -> Result<(), SparseError> {
        if self.bufs[p].len() == self.cap {
            self.flush(p)?;
        }
        let buf = &mut self.bufs[p];
        if buf.capacity() == 0 {
            buf.reserve_exact(self.cap);
        }
        buf.push(entry);
        Ok(())
    }

    /// Writes panel `p`'s buffer to the run as one chunk.
    fn flush(&mut self, p: usize) -> Result<(), SparseError> {
        let (file, path) = match &mut self.run {
            Some(run) => run,
            None => self.run.insert(create_run()?),
        };
        self.bytes.clear();
        for &(r, c, v) in &self.bufs[p] {
            self.bytes.extend_from_slice(&r.to_le_bytes());
            self.bytes.extend_from_slice(&c.to_le_bytes());
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
        file.write_all(&self.bytes)
            .map_err(|e| staging_error(path, &e))?;
        self.chunks[p].push((self.written, self.bufs[p].len()));
        self.written += self.bytes.len() as u64;
        self.bufs[p].clear();
        Ok(())
    }

    /// Moves panel `p`'s entries, in file order, into a `rows × cols`
    /// matrix, releasing its bucket.
    pub(crate) fn take(&mut self, p: usize, rows: usize, cols: usize) -> Result<Coo, SparseError> {
        let tail = std::mem::take(&mut self.bufs[p]);
        let chunks = std::mem::take(&mut self.chunks[p]);
        if chunks.is_empty() {
            return Ok(Coo::from_entries(rows, cols, tail));
        }
        let (file, path) = self.run.as_mut().expect("chunks live in the run");
        let staged: usize = chunks.iter().map(|&(_, entries)| entries).sum();
        let mut entries = Vec::with_capacity(staged + tail.len());
        for (offset, count) in chunks {
            self.bytes.resize(count * RECORD_BYTES, 0);
            file.seek(SeekFrom::Start(offset))
                .and_then(|_| file.read_exact(&mut self.bytes))
                .map_err(|e| staging_error(path, &e))?;
            entries.extend(self.bytes.chunks_exact(RECORD_BYTES).map(|rec| {
                let index = |at: usize| {
                    Index::from_le_bytes(rec[at..at + 4].try_into().expect("4-byte field"))
                };
                let value = f64::from_le_bytes(rec[8..].try_into().expect("8-byte field"));
                (index(0), index(4), value)
            }));
        }
        entries.extend(tail);
        Ok(Coo::from_entries(rows, cols, entries))
    }
}

/// Creates the staging run and unlinks it at once, keeping only the
/// handle.
fn create_run() -> Result<(File, PathBuf), SparseError> {
    let path = std::env::temp_dir().join(format!(
        "sparch-mm-stage-{}-{}.run",
        std::process::id(),
        STAGING_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let file = File::options()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)
        .and_then(|file| std::fs::remove_file(&path).map(|()| file))
        .map_err(|e| staging_error(&path, &e))?;
    Ok((file, path))
}

fn staging_error(path: &Path, e: &std::io::Error) -> SparseError {
    SparseError::Io(format!("staging run {}: {e}", path.display()))
}
