//! Virtual-memory error type.

use core::fmt;
use ssmc_storage::StorageError;

/// Errors surfaced by the VM layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Access to an address no mapping covers.
    SegFault {
        /// Faulting virtual address.
        addr: u64,
    },
    /// Access violated the mapping's permissions (e.g. write to read-only
    /// code, execute from a data region).
    Protection {
        /// Faulting virtual address.
        addr: u64,
    },
    /// No DRAM frame available and paging is disabled.
    OutOfMemory,
    /// Unknown address-space identifier.
    BadAsid(u32),
    /// The backing store failed.
    Storage(StorageError),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::SegFault { addr } => write!(f, "segmentation fault at {addr:#x}"),
            VmError::Protection { addr } => write!(f, "protection violation at {addr:#x}"),
            VmError::OutOfMemory => write!(f, "out of DRAM frames (paging disabled)"),
            VmError::BadAsid(asid) => write!(f, "unknown address space {asid}"),
            VmError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for VmError {
    fn from(e: StorageError) -> Self {
        VmError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_mention_addresses() {
        let e = VmError::SegFault { addr: 0x1000 };
        assert!(e.to_string().contains("0x1000"));
    }

    #[test]
    fn wraps_storage() {
        let e: VmError = StorageError::NoSpace(ssmc_storage::Exhausted::Capacity).into();
        assert!(matches!(e, VmError::Storage(_)));
    }
}
