//! The write-ahead journal seam: the one sanctioned `std::fs` touchpoint.
//!
//! Lint rule L011 forbids `std::env`/`std::fs` everywhere in the
//! deterministic core — ambient process state is invisible to the seed and
//! breaks replay. A crash-safe streaming service still needs a durable
//! journal, so (mirroring the [`Clock`](crate::Clock) seam for wall time)
//! all durability flows through the [`JournalSink`] trait defined here:
//! deterministic code appends lines and requests syncs against the trait;
//! only [`FileJournal`] — this module, the single permitted `std::fs` site
//! in the workspace — actually touches the filesystem. Tests and replay
//! harnesses plug in [`MemJournal`], which is deterministic, inspectable
//! and can inject write failures at chosen points.
//!
//! The journal discipline is classic WAL: the service appends the record of
//! an arrival or decision and calls [`JournalSink::sync`] *before* applying
//! its effects to the kernel, so after a crash the journal is always ahead
//! of (or equal to) the applied state, never behind. A failed append or
//! sync is final: the service stops with a journal-write error instead of
//! retrying. A retried append can duplicate or tear a record that was
//! partly written, and a retried `sync_data` can report success after the
//! kernel dropped the dirty pages, which would acknowledge an admission
//! that is not durable.

// The seam itself may open, append to and sync files (L011).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::io::{self, BufWriter, Write};

/// An append-only, sync-able line sink — the durability seam of the
/// streaming service's write-ahead journal.
pub trait JournalSink {
    /// Appends one record (without trailing newline; the sink adds it).
    /// Buffered: durability is only guaranteed after [`JournalSink::sync`].
    fn append(&mut self, line: &str) -> io::Result<()>;

    /// Flushes and makes every appended record durable.
    fn sync(&mut self) -> io::Result<()>;
}

impl<J: JournalSink + ?Sized> JournalSink for &mut J {
    fn append(&mut self, line: &str) -> io::Result<()> {
        (**self).append(line)
    }

    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }
}

/// A journal backed by a real file. **The single sanctioned `std::fs` site
/// in the deterministic core** (see the module docs); everything else must
/// stay behind [`JournalSink`].
///
/// Appends go through a [`BufWriter`]; [`JournalSink::sync`] flushes it
/// and then `sync_data`s the file, so a record is durable exactly when the
/// trait promises — after `sync`. Dropping the journal flushes whatever is
/// still buffered (without the durability guarantee).
#[derive(Debug)]
pub struct FileJournal {
    file: BufWriter<std::fs::File>,
}

impl FileJournal {
    /// Creates (truncating) a journal file at `path`.
    pub fn create(path: &std::path::Path) -> io::Result<Self> {
        Ok(FileJournal {
            file: BufWriter::new(std::fs::File::create(path)?),
        })
    }

    /// Opens an existing journal for appending (recovery resumes the
    /// journal of the crashed run rather than starting a new one).
    pub fn open_append(path: &std::path::Path) -> io::Result<Self> {
        Ok(FileJournal {
            file: BufWriter::new(std::fs::OpenOptions::new().append(true).open(path)?),
        })
    }
}

impl JournalSink for FileJournal {
    fn append(&mut self, line: &str) -> io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_data()
    }
}

/// An in-memory journal for tests and deterministic replay: records every
/// appended line, tracks the synced (durable) prefix, and can inject write
/// failures at chosen points to exercise the service's abort path.
#[derive(Debug, Default)]
pub struct MemJournal {
    lines: Vec<String>,
    synced: usize,
    fail_next: u64,
}

impl MemJournal {
    /// An empty journal that never fails.
    pub fn new() -> Self {
        MemJournal::default()
    }

    /// Makes the next `n` operations (appends or syncs) fail with an
    /// injected I/O error, after which operations succeed again.
    pub fn fail_next(&mut self, n: u64) {
        self.fail_next = n;
    }

    /// Every appended line, durable or not.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The durable prefix: lines appended before the last successful sync.
    /// A crash simulation discards everything after this.
    pub fn synced_lines(&self) -> &[String] {
        &self.lines[..self.synced]
    }

    fn take_failure(&mut self) -> bool {
        if self.fail_next > 0 {
            self.fail_next -= 1;
            true
        } else {
            false
        }
    }
}

impl JournalSink for MemJournal {
    fn append(&mut self, line: &str) -> io::Result<()> {
        if self.take_failure() {
            return Err(io::Error::other("injected journal append failure"));
        }
        self.lines.push(line.to_string());
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.take_failure() {
            return Err(io::Error::other("injected journal sync failure"));
        }
        self.synced = self.lines.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_journal_tracks_durable_prefix() {
        let mut j = MemJournal::new();
        j.append("a").unwrap();
        j.append("b").unwrap();
        assert_eq!(j.lines().len(), 2);
        assert_eq!(j.synced_lines().len(), 0, "nothing durable before sync");
        j.sync().unwrap();
        assert_eq!(j.synced_lines(), ["a", "b"]);
        j.append("c").unwrap();
        assert_eq!(j.synced_lines().len(), 2, "tail not durable yet");
    }

    #[test]
    fn file_journal_round_trips_lines() {
        let path = std::env::temp_dir().join(format!(
            "cloudsched-journal-test-{}.jsonl",
            std::process::id()
        ));
        {
            let mut j = FileJournal::create(&path).unwrap();
            j.append("first").unwrap();
            j.sync().unwrap();
        }
        {
            let mut j = FileJournal::open_append(&path).unwrap();
            j.append("second").unwrap();
            j.sync().unwrap();
        }
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "first\nsecond\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn buffered_file_journal_is_readable_after_each_sync_and_appends_in_order() {
        let path = std::env::temp_dir().join(format!(
            "cloudsched-journal-buffered-{}.jsonl",
            std::process::id()
        ));
        let mut j = FileJournal::create(&path).unwrap();
        let mut expect = String::new();
        for batch in 0..3 {
            for i in 0..50 {
                let line = format!("{{\"batch\":{batch},\"i\":{i}}}");
                j.append(&line).unwrap();
                expect.push_str(&line);
                expect.push('\n');
            }
            // Synced lines are on disk, in append order, while the
            // journal is still open.
            j.sync().unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), expect);
        }
        // An unsynced tail reaches the file when the journal is dropped.
        j.append("tail").unwrap();
        drop(j);
        expect.push_str("tail\n");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expect);
        // Reopening continues the file instead of truncating it.
        let mut j = FileJournal::open_append(&path).unwrap();
        j.append("resumed").unwrap();
        j.sync().unwrap();
        expect.push_str("resumed\n");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expect);
        drop(j);
        std::fs::remove_file(&path).ok();
    }
}
