//! Storage backends for the write-ahead log.
//!
//! The store is written against the small [`Medium`] seam so the same
//! WAL logic runs over an in-memory buffer (deterministic simulation,
//! property tests) and over real files (the CLI). The in-memory medium
//! additionally models *power loss*: bytes appended but not yet synced
//! can be dropped by [`Medium::lose_unsynced`], which is how the
//! simulated network makes a crash lose exactly the un-fsynced tail.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// A byte store the WAL can append to, truncate, atomically replace,
/// and fsync. Implementations must be safe to share across threads.
pub trait Medium: Send + Sync {
    /// Reads the entire contents.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors.
    fn read_all(&self) -> io::Result<Vec<u8>>;

    /// Appends `bytes` at the end.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors.
    fn append(&self, bytes: &[u8]) -> io::Result<()>;

    /// Truncates the contents to `len` bytes.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors.
    fn truncate(&self, len: u64) -> io::Result<()>;

    /// Atomically replaces the entire contents (used by log truncation
    /// and index compaction). The replacement is durable once this
    /// returns.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors.
    fn replace(&self, bytes: &[u8]) -> io::Result<()>;

    /// Makes all appended bytes durable (fsync).
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors.
    fn sync(&self) -> io::Result<()>;

    /// Power-loss simulation hook: drops any bytes appended since the
    /// last [`Medium::sync`]. A no-op for real files (the kernel owns
    /// that failure mode there).
    fn lose_unsynced(&self) {}

    /// Reads up to `len` bytes starting at `offset`. Returns fewer bytes
    /// (possibly zero) when the range runs past the end of the medium.
    ///
    /// The default implementation slices [`Medium::read_all`]; backends
    /// with random access (files) override it so ordered-table readers
    /// can fetch single blocks without loading the whole file.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors.
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let all = self.read_all()?;
        let start = usize::try_from(offset).unwrap_or(usize::MAX).min(all.len());
        let end = start.saturating_add(len).min(all.len());
        Ok(all[start..end].to_vec())
    }

    /// The current length in bytes.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors.
    fn len(&self) -> io::Result<u64> {
        Ok(self.read_all()?.len() as u64)
    }

    /// True when the medium holds no bytes.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

struct MemInner {
    data: Vec<u8>,
    synced_len: usize,
}

/// An in-memory [`Medium`] that tracks which prefix has been "fsynced",
/// so a simulated crash ([`Medium::lose_unsynced`]) drops exactly the
/// unsynced tail. Clones share contents.
#[derive(Clone)]
pub struct MemMedium {
    inner: Arc<Mutex<MemInner>>,
}

impl Default for MemMedium {
    fn default() -> Self {
        Self::new()
    }
}

impl MemMedium {
    /// An empty in-memory medium.
    pub fn new() -> Self {
        MemMedium {
            inner: Arc::new(Mutex::new(MemInner {
                data: Vec::new(),
                synced_len: 0,
            })),
        }
    }

    /// A medium pre-loaded with `bytes` (treated as already synced) —
    /// the corruption property tests build damaged logs this way.
    pub fn with_contents(bytes: Vec<u8>) -> Self {
        let synced_len = bytes.len();
        MemMedium {
            inner: Arc::new(Mutex::new(MemInner {
                data: bytes,
                synced_len,
            })),
        }
    }
}

impl Medium for MemMedium {
    fn read_all(&self) -> io::Result<Vec<u8>> {
        Ok(self.inner.lock().data.clone())
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.lock().data.extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        let mut inner = self.inner.lock();
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len < inner.data.len() {
            inner.data.truncate(len);
        }
        inner.synced_len = inner.synced_len.min(len);
        Ok(())
    }

    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock();
        inner.data = bytes.to_vec();
        inner.synced_len = inner.data.len();
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        inner.synced_len = inner.data.len();
        Ok(())
    }

    fn lose_unsynced(&self) {
        let mut inner = self.inner.lock();
        let keep = inner.synced_len;
        inner.data.truncate(keep);
    }

    fn read_at(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let inner = self.inner.lock();
        let start = usize::try_from(offset)
            .unwrap_or(usize::MAX)
            .min(inner.data.len());
        let end = start.saturating_add(len).min(inner.data.len());
        Ok(inner.data[start..end].to_vec())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.inner.lock().data.len() as u64)
    }
}

/// A file-backed [`Medium`]. Appends go through a persistent handle;
/// [`Medium::replace`] writes a temporary sibling and renames it over
/// the target so readers never observe a half-written file.
pub struct FileMedium {
    path: PathBuf,
    file: Mutex<File>,
}

impl FileMedium {
    /// Opens (creating if absent) the file at `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates `open`/`create` failures.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        Ok(FileMedium {
            path,
            file: Mutex::new(file),
        })
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn reopen(&self) -> io::Result<File> {
        OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&self.path)
    }
}

impl Medium for FileMedium {
    fn read_all(&self) -> io::Result<Vec<u8>> {
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.file.lock().write_all(bytes)
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        self.file.lock().set_len(len)
    }

    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // The rename lives in the parent directory's entries: fsync the
        // directory too, or power loss may bring back the old file.
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            File::open(dir)?.sync_all()?;
        }
        // Swap the append handle onto the new inode.
        let mut file = self.file.lock();
        *file = self.reopen()?;
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        self.file.lock().sync_all()
    }

    fn read_at(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        let mut filled = 0;
        while filled < len {
            let n = file.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        buf.truncate(filled);
        Ok(buf)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.lock().metadata()?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_medium_power_loss_drops_unsynced_tail() {
        let m = MemMedium::new();
        m.append(b"durable").unwrap();
        m.sync().unwrap();
        m.append(b" volatile").unwrap();
        m.lose_unsynced();
        assert_eq!(m.read_all().unwrap(), b"durable");
        // Truncation below the synced watermark moves it down too.
        m.truncate(3).unwrap();
        m.append(b"x").unwrap();
        m.lose_unsynced();
        assert_eq!(m.read_all().unwrap(), b"dur");
    }

    #[test]
    fn file_medium_round_trips_and_replaces() {
        let dir = std::env::temp_dir().join(format!(
            "drbac-store-medium-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let m = FileMedium::open(&path).unwrap();
        m.append(b"hello ").unwrap();
        m.append(b"world").unwrap();
        m.sync().unwrap();
        assert_eq!(m.read_all().unwrap(), b"hello world");
        m.truncate(5).unwrap();
        assert_eq!(m.read_all().unwrap(), b"hello");
        m.replace(b"fresh").unwrap();
        assert_eq!(m.read_all().unwrap(), b"fresh");
        m.append(b"!").unwrap();
        assert_eq!(m.read_all().unwrap(), b"fresh!");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
