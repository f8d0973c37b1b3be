//! The persistence layer's error type.

use std::fmt;
use std::path::PathBuf;

/// Why a durable-store operation failed.
#[derive(Debug)]
pub enum Error {
    /// An operating-system IO operation failed.
    Io {
        /// The operation that failed (`"write"`, `"fsync"`, `"rename"`, …).
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// On-disk bytes that no crash could produce: a bad magic number or
    /// version, a checksum-valid record that does not decode, or a
    /// generation sequence with a gap. Torn *tails* are not corruption —
    /// they are expected crash artifacts, truncated and reported via
    /// [`RecoveryReport::torn_tail`](crate::RecoveryReport::torn_tail).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// The engine rejected an operation (invalid batch, inconsistent
    /// restored state, saver construction failure).
    Engine(disc_core::Error),
    /// [`DurableEngine::create`](crate::DurableEngine::create) refused to
    /// overwrite an existing store.
    StoreExists {
        /// The store directory.
        dir: PathBuf,
    },
    /// [`DurableEngine::open`](crate::DurableEngine::open) found no store
    /// (the snapshot file is missing).
    StoreMissing {
        /// The store directory.
        dir: PathBuf,
    },
    /// A previous IO failure left the handle in an unknown on-disk state;
    /// all further mutations are refused. Reopening the store recovers.
    Poisoned,
    /// Another live handle holds the store's exclusive lock on
    /// `engine.lock`. Two writers interleaving WAL appends would tear
    /// the generation sequence, so the second opener fails fast instead.
    Locked {
        /// The store directory.
        dir: PathBuf,
        /// PID the holder wrote into the lock file, when readable.
        holder: Option<u32>,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { op, path, source } => {
                write!(f, "{op} failed on {}: {source}", path.display())
            }
            Error::Corrupt { path, detail } => {
                write!(f, "corrupt store file {}: {detail}", path.display())
            }
            Error::Engine(e) => write!(f, "engine error: {e}"),
            Error::StoreExists { dir } => {
                write!(
                    f,
                    "refusing to overwrite existing store in {}",
                    dir.display()
                )
            }
            Error::StoreMissing { dir } => {
                write!(f, "no store found in {}", dir.display())
            }
            Error::Poisoned => write!(
                f,
                "store handle poisoned by an earlier IO failure; reopen to recover"
            ),
            Error::Locked { dir, holder } => {
                write!(f, "store {} is locked", dir.display())?;
                match holder {
                    Some(pid) => write!(f, " by live process {pid}"),
                    None => write!(f, " by another process"),
                }
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            Error::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<disc_core::Error> for Error {
    fn from(e: disc_core::Error) -> Self {
        Error::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_path() {
        let e = Error::Io {
            op: "fsync",
            path: PathBuf::from("/tmp/store/engine.wal"),
            source: std::io::Error::other("disk on fire"),
        };
        let msg = e.to_string();
        assert!(msg.contains("fsync"), "{msg}");
        assert!(msg.contains("engine.wal"), "{msg}");
        assert!(msg.contains("disk on fire"), "{msg}");

        let e = Error::Corrupt {
            path: PathBuf::from("engine.snap"),
            detail: "bad magic".into(),
        };
        assert!(e.to_string().contains("bad magic"), "{e}");
    }
}
