//! Crash-durable atomic file writes.
//!
//! The snapshot and serve-mode persistence paths all follow the same
//! protocol: write the full body to a temporary file in the target
//! directory, `fsync` the file, atomically `rename` it over the final
//! path, then `fsync` the **parent directory** so the rename itself is
//! durable. Without the directory fsync a power loss after the rename
//! can still roll the directory entry back to the old (or no) file on
//! journaled filesystems — the classic torn-write window that the
//! `tmp + rename` idiom alone does not close.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Flushes a directory's metadata to stable storage.
///
/// On non-Unix platforms opening a directory for sync may be
/// unsupported; failures other than plain I/O errors are ignored there,
/// while Unix propagates everything.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    let d = File::open(dir)?;
    d.sync_all()
}

/// Interception points of the atomic-write protocol, used by fault
/// injectors (the serve daemon's chaos layer) to fail or truncate each
/// durable step deterministically. All hooks default to passthrough;
/// [`write_atomic`] uses the no-op [`NoHooks`] so ordinary callers are
/// byte-for-byte unaffected.
pub trait WriteHooks {
    /// Called before the tmp-file body is written with the payload
    /// length. Returning `Ok(n)` with `n < payload_len` simulates a
    /// torn write: only the first `n` bytes land before the protocol
    /// fails with a synthetic error. Returning `Err` fails the write
    /// outright.
    fn before_write(&mut self, payload_len: usize) -> io::Result<usize> {
        Ok(payload_len)
    }

    /// Called before the tmp→final rename.
    fn before_rename(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Called before the parent-directory fsync.
    fn before_dir_fsync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The passthrough hook set used by [`write_atomic`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl WriteHooks for NoHooks {}

/// Atomically and durably replaces `path` with `bytes`.
///
/// The write goes to `.<file-name>.tmp` next to the target, is fsynced,
/// renamed over `path`, and the parent directory is fsynced. After this
/// returns, a crash at any point leaves either the complete old file or
/// the complete new file — never a partial or missing one.
///
/// # Errors
///
/// Any I/O failure along the way; the temporary file is best-effort
/// removed on error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, bytes, &mut NoHooks)
}

/// [`write_atomic`] with fault-injection [`WriteHooks`] evaluated
/// before each durable step. A hook that truncates or fails leaves the
/// same on-disk states a real fault would: a partial tmp file never
/// reaches the final path, and the temporary is best-effort removed.
///
/// # Errors
///
/// Any real or injected I/O failure along the way.
pub fn write_atomic_with(
    path: &Path,
    bytes: &[u8],
    hooks: &mut dyn WriteHooks,
) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = match dir {
        Some(d) => d.join(format!(".{name}.tmp")),
        None => Path::new(&format!(".{name}.tmp")).to_path_buf(),
    };
    let result = (|| {
        {
            let allowed = hooks.before_write(bytes.len())?;
            let mut f = File::create(&tmp)?;
            if allowed < bytes.len() {
                // Injected torn write: the prefix lands, then the
                // protocol fails exactly as a mid-write crash would.
                f.write_all(&bytes[..allowed])?;
                let _ = f.sync_all();
                return Err(io::Error::other(format!(
                    "injected torn write after {allowed} of {} bytes",
                    bytes.len()
                )));
            }
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        hooks.before_rename()?;
        std::fs::rename(&tmp, path)?;
        if let Some(d) = dir {
            hooks.before_dir_fsync()?;
            fsync_dir(d)?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wrsn_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_replaces_contents() {
        let dir = tmp_dir("replace");
        let path = dir.join("state.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer body").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer body");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_leaves_no_tmp_behind() {
        let dir = tmp_dir("tmpfile");
        write_atomic(&dir.join("a.json"), b"x").unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files must not survive: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hooked_torn_write_never_reaches_final_path() {
        struct TearAll;
        impl WriteHooks for TearAll {
            fn before_write(&mut self, payload_len: usize) -> io::Result<usize> {
                Ok(payload_len / 2)
            }
        }
        let dir = tmp_dir("hook_torn");
        let path = dir.join("state.json");
        write_atomic(&path, b"intact old body").unwrap();
        assert!(write_atomic_with(&path, b"replacement body", &mut TearAll).is_err());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"intact old body",
            "a torn tmp write must never replace the target"
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "torn tmp must be cleaned: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hooked_rename_failure_preserves_old_file() {
        struct FailRename;
        impl WriteHooks for FailRename {
            fn before_rename(&mut self) -> io::Result<()> {
                Err(io::Error::other("injected"))
            }
        }
        let dir = tmp_dir("hook_rename");
        let path = dir.join("state.json");
        write_atomic(&path, b"old").unwrap();
        assert!(write_atomic_with(&path, b"new", &mut FailRename).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_preserves_old_file_and_cleans_tmp() {
        // Renaming over a directory fails — the old file must survive
        // untouched and the temporary must be cleaned up.
        let dir = tmp_dir("torn");
        let path = dir.join("target");
        std::fs::create_dir(&path).unwrap(); // rename(file, dir) fails
        assert!(write_atomic(&path, b"new body").is_err());
        assert!(path.is_dir(), "failed replace must leave the target alone");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp must be removed on error: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
