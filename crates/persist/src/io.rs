//! Low-level durable IO helpers: every byte the store writes and every
//! durability point (fsync, rename, truncate) goes through here, which is
//! what makes the `--cfg disc_fault` hooks able to interrupt a workload
//! at *any* IO boundary (see `disc_core::fault`).

use std::fs::File;
use std::io::Write;
use std::path::Path;

use crate::error::Error;

#[cfg(disc_fault)]
use disc_core::fault::{tick, Injected, Point};

fn io_err(op: &'static str, path: &Path, source: std::io::Error) -> Error {
    Error::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// The deterministic error every injected IO fault produces.
#[cfg(disc_fault)]
fn injected_error() -> std::io::Error {
    std::io::Error::other("injected io fault")
}

/// Writes the whole buffer (fault hook: fail, or persist a torn prefix).
pub(crate) fn write_all(file: &mut File, buf: &[u8], path: &Path) -> Result<(), Error> {
    #[cfg(disc_fault)]
    match tick(Point::Io) {
        None => {}
        Some(Injected::Fail) => return Err(io_err("write", path, injected_error())),
        Some(Injected::Torn { keep }) => {
            // Persist a prefix, as a power loss mid-write(2) would, then
            // surface the failure to the caller.
            let keep = keep.min(buf.len());
            file.write_all(&buf[..keep])
                .map_err(|e| io_err("write", path, e))?;
            return Err(io_err("write", path, injected_error()));
        }
    }
    file.write_all(buf).map_err(|e| io_err("write", path, e))
}

/// Truncates (or extends) the file to `len` bytes (fault hook: fail).
pub(crate) fn truncate(file: &File, len: u64, path: &Path) -> Result<(), Error> {
    #[cfg(disc_fault)]
    if tick(Point::Io).is_some() {
        return Err(io_err("truncate", path, injected_error()));
    }
    file.set_len(len).map_err(|e| io_err("truncate", path, e))
}

/// Flushes file data and metadata to stable storage (fault hook: fail).
pub(crate) fn fsync(file: &File, path: &Path) -> Result<(), Error> {
    #[cfg(disc_fault)]
    if tick(Point::Io).is_some() {
        return Err(io_err("fsync", path, injected_error()));
    }
    file.sync_all().map_err(|e| io_err("fsync", path, e))
}

/// Flushes a *directory*, making renames and file creations within it
/// durable (fault hook: fail). A no-op on platforms where directories
/// cannot be opened as files.
pub(crate) fn fsync_dir(dir: &Path) -> Result<(), Error> {
    #[cfg(disc_fault)]
    if tick(Point::Io).is_some() {
        return Err(io_err("fsync", dir, injected_error()));
    }
    #[cfg(unix)]
    {
        let handle = File::open(dir).map_err(|e| io_err("fsync", dir, e))?;
        handle.sync_all().map_err(|e| io_err("fsync", dir, e))
    }
    #[cfg(not(unix))]
    {
        Ok(())
    }
}

/// Renames `from` onto `to` (atomic on POSIX; fault hook: fail).
pub(crate) fn rename(from: &Path, to: &Path) -> Result<(), Error> {
    #[cfg(disc_fault)]
    if tick(Point::Io).is_some() {
        return Err(io_err("rename", from, injected_error()));
    }
    std::fs::rename(from, to).map_err(|e| io_err("rename", from, e))
}
