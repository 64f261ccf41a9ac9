//! Storage-manager error type.

use core::fmt;
use ssmc_device::DeviceError;

/// The resource whose exhaustion a [`StorageError::NoSpace`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhausted {
    /// The live data set would exceed the configured maximum
    /// utilisation.
    Capacity,
    /// No free or erasing segment could be found for a write head, even
    /// after garbage collection.
    Segments,
    /// The page's fixed in-place home lies past the end of the device.
    InPlaceHome,
}

/// Errors surfaced by the storage manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// No flash space left; the payload names what ran out.
    NoSpace(Exhausted),
    /// The machine is in the crashed state (battery died) and has not been
    /// recovered yet.
    Crashed,
    /// An underlying device rejected an operation. Seeing this escape the
    /// manager means a policy bug — the manager exists to hide these.
    Device(DeviceError),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSpace(Exhausted::Capacity) => {
                write!(f, "flash is full (live data exceeds capacity)")
            }
            StorageError::NoSpace(Exhausted::Segments) => {
                write!(
                    f,
                    "flash is full (no free or erasing segment for a write head)"
                )
            }
            StorageError::NoSpace(Exhausted::InPlaceHome) => {
                write!(
                    f,
                    "flash is full (in-place home past the end of the device)"
                )
            }
            StorageError::Crashed => write!(f, "storage manager is crashed; recover first"),
            StorageError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for StorageError {
    fn from(e: DeviceError) -> Self {
        StorageError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_device_errors() {
        let e: StorageError = DeviceError::ContentsLost.into();
        assert!(matches!(e, StorageError::Device(_)));
        assert!(e.to_string().contains("device error"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error as _;
        let e: StorageError = DeviceError::ContentsLost.into();
        assert!(e.source().is_some());
        assert!(StorageError::NoSpace(Exhausted::Capacity)
            .source()
            .is_none());
    }

    #[test]
    fn no_space_names_what_ran_out() {
        let text = |kind| StorageError::NoSpace(kind).to_string();
        assert_eq!(
            text(Exhausted::Capacity),
            "flash is full (live data exceeds capacity)"
        );
        assert!(text(Exhausted::Segments).contains("segment"));
        assert!(text(Exhausted::InPlaceHome).contains("in-place home"));
    }
}
