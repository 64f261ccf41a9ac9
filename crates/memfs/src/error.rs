//! File-system error type.

use core::fmt;
use ssmc_storage::StorageError;

/// Errors surfaced by the memory-resident file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component does not exist.
    NotFound,
    /// Path already exists.
    Exists,
    /// A non-final path component is not a directory.
    NotDir,
    /// Operation needs a file but found a directory.
    IsDir,
    /// Directory must be empty for this operation.
    DirNotEmpty,
    /// A path component exceeds the 26-byte name limit or is empty.
    BadName,
    /// Path is not absolute or contains empty components.
    BadPath,
    /// Unknown file descriptor.
    BadFd,
    /// Descriptor was opened read-only.
    ReadOnly,
    /// Inode numbers exhausted.
    TooManyFiles,
    /// The underlying storage failed (out of space, crashed, device).
    Storage(StorageError),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::Exists => write!(f, "file exists"),
            FsError::NotDir => write!(f, "not a directory"),
            FsError::IsDir => write!(f, "is a directory"),
            FsError::DirNotEmpty => write!(f, "directory not empty"),
            FsError::BadName => write!(f, "invalid or over-long name"),
            FsError::BadPath => write!(f, "invalid path"),
            FsError::BadFd => write!(f, "bad file descriptor"),
            FsError::ReadOnly => write!(f, "descriptor is read-only"),
            FsError::TooManyFiles => write!(f, "inode table exhausted"),
            FsError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for FsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FsError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for FsError {
    fn from(e: StorageError) -> Self {
        FsError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_storage::Exhausted;

    #[test]
    fn wraps_storage_errors() {
        let e: FsError = StorageError::NoSpace(Exhausted::Segments).into();
        assert!(matches!(e, FsError::Storage(StorageError::NoSpace(_))));
        assert!(e.to_string().contains("storage"));
    }

    #[test]
    fn displays_are_distinct() {
        let all = [
            FsError::NotFound,
            FsError::Exists,
            FsError::NotDir,
            FsError::IsDir,
            FsError::DirNotEmpty,
            FsError::BadName,
            FsError::BadPath,
            FsError::BadFd,
            FsError::ReadOnly,
            FsError::TooManyFiles,
        ];
        let mut seen = std::collections::HashSet::new();
        for e in all {
            assert!(seen.insert(e.to_string()));
        }
    }
}
