//! The physical storage manager (§3.3 of the paper).
//!
//! This is the paper's central operating-system component: the layer that
//! makes battery-backed DRAM plus direct-mapped flash behave like fast,
//! stable, long-lived storage. It
//!
//! * keeps frequently *written* data in DRAM and read-mostly data in flash
//!   (migration by write-back of cold dirty pages only);
//! * buffers writes in DRAM, absorbing overwrites and short-lived data so
//!   that only a fraction of write traffic ever reaches flash (the 40–50 %
//!   reduction claim, experiment F2);
//! * lays flash out as a log of fixed-size segments (one erase block each)
//!   with garbage collection in the style of LFS — greedy or cost-benefit
//!   victim selection (experiments F4, F5);
//! * optionally performs *static wear leveling*, parking cold data on worn
//!   blocks so no block wears out early;
//! * optionally partitions banks into read-mostly and write regions so slow
//!   programs/erases do not stall reads (experiment F3);
//! * maintains free lists of flash segments and DRAM frames; and
//! * recovers after a battery failure from per-slot headers, segment
//!   summaries, and an optional checkpoint area (experiment T3).
//!
//! The unit of storage is the *logical page* ([`PageId`] → [`Location`]);
//! the file system and virtual memory system above address pages, and the
//! manager decides where they physically live.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod config;
pub mod crc;
pub mod dense;
pub mod error;
pub mod gc;
pub mod manager;
pub mod map;
pub mod metrics;
pub mod pool;
pub mod recovery;
pub mod segment;
pub mod torture;

pub use config::{BankPolicy, FlushPolicy, GcPolicy, Placement, StorageConfig, WearLeveling};
pub use dense::DenseIndex;
pub use error::{Exhausted, StorageError};
pub use manager::StorageManager;
pub use map::{Location, PageId, PageMap};
pub use pool::PagePool;
pub use metrics::StorageMetrics;
pub use recovery::RecoveryReport;

/// Result alias for storage operations.
pub type Result<T> = core::result::Result<T, StorageError>;
