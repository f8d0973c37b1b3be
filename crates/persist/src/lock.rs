//! Exclusive locking for store directories.
//!
//! Two live handles appending to the same write-ahead log would
//! interleave records and tear the generation sequence, so every
//! [`DurableEngine`](crate::DurableEngine) holds a [`StoreLock`] for its
//! whole lifetime: an exclusive [`File::try_lock`] on `engine.lock`.
//! The kernel releases that lock when its file handle closes — when the
//! value drops or when the holder dies, however it dies — so recovery
//! after a crash never needs cleanup, and a second opener gets
//! [`Error::Locked`] immediately while the holder lives. The holder
//! writes its PID into the file for that error's message only.
//!
//! The file stays on disk when the lock is released: unlinking a locked
//! file would let an opener still waiting on the old inode and one that
//! creates a new file both hold "the" lock.

use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::error::Error;

/// The lock file within a store directory.
pub fn lock_path(dir: &Path) -> PathBuf {
    dir.join("engine.lock")
}

/// Exclusive ownership of a store directory for the lifetime of the
/// value; the kernel releases it when the value drops. See the
/// [module docs](self).
#[derive(Debug)]
pub struct StoreLock {
    _file: File,
}

impl StoreLock {
    /// Acquires the exclusive lock for `dir` (created if missing).
    ///
    /// # Errors
    /// [`Error::Locked`] when another handle, in this process or
    /// another, holds the lock; [`Error::Io`] when the directory or lock
    /// file cannot be opened, locked or written.
    pub fn acquire(dir: &Path) -> Result<StoreLock, Error> {
        let io_err = |op, path: &Path, source| Error::Io {
            op,
            path: path.to_path_buf(),
            source,
        };
        fs::create_dir_all(dir).map_err(|e| io_err("create_dir", dir, e))?;
        let path = lock_path(dir);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                let pid = fs::read_to_string(&path).ok();
                let holder = pid.and_then(|pid| pid.trim().parse().ok());
                return Err(Error::Locked {
                    dir: dir.to_path_buf(),
                    holder,
                });
            }
            Err(TryLockError::Error(e)) => return Err(io_err("lock", &path, e)),
        }
        // A reader racing this write may find no PID and name no holder;
        // the PID only feeds that message, so it needs no fsync.
        file.set_len(0)
            .and_then(|()| writeln!(file, "{}", std::process::id()))
            .map_err(|e| io_err("write", &path, e))?;
        Ok(StoreLock { _file: file })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "disc_persist_lock_tests/{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn second_acquire_fails_fast_with_the_holder_pid() {
        let dir = temp_dir("exclusive");
        let lock = StoreLock::acquire(&dir).unwrap();
        let err = StoreLock::acquire(&dir).map(|_| ()).unwrap_err();
        match err {
            Error::Locked { dir: d, holder } => {
                assert_eq!(d, dir);
                assert_eq!(holder, Some(std::process::id()));
            }
            other => panic!("expected Locked, got {other}"),
        }
        drop(lock);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_releases_the_lock() {
        let dir = temp_dir("release");
        let lock = StoreLock::acquire(&dir).unwrap();
        drop(lock);
        assert!(lock_path(&dir).exists(), "the lock file stays on disk");
        let _second = StoreLock::acquire(&dir).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_stolen() {
        // A leftover file holds no lock, whatever PID it names: one no
        // process can have, this process's own, or PID 1 (which every
        // restart of a container's entrypoint reuses).
        for pid in [u32::MAX, std::process::id(), 1] {
            let dir = temp_dir("stale");
            fs::create_dir_all(&dir).unwrap();
            fs::write(lock_path(&dir), format!("{pid}\n")).unwrap();
            let lock = StoreLock::acquire(&dir)
                .unwrap_or_else(|e| panic!("a file naming PID {pid} must be acquired: {e}"));
            drop(lock);
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn torn_empty_lock_file_is_stolen() {
        let dir = temp_dir("torn");
        fs::create_dir_all(&dir).unwrap();
        fs::write(lock_path(&dir), b"").unwrap();
        let _lock = StoreLock::acquire(&dir).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn locked_error_mentions_the_directory() {
        let dir = temp_dir("display");
        let _lock = StoreLock::acquire(&dir).unwrap();
        let err = StoreLock::acquire(&dir).map(|_| ()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("locked"), "{msg}");
        assert!(msg.contains(&std::process::id().to_string()), "{msg}");
        fs::remove_dir_all(&dir).ok();
    }
}
