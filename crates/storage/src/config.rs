//! Storage-manager configuration: every policy knob the experiments sweep.

use ssmc_device::{DramSpec, FlashSpec};
use ssmc_sim::SimDuration;

/// How logical pages are placed on flash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Log-structured: pages append to open segments; stale copies are
    /// reclaimed by garbage collection. The paper's §3.3 recommendation.
    LogStructured,
    /// In place: each page has a fixed home; rewriting it means reading
    /// the surrounding erase block, erasing it, and reprogramming
    /// everything. The naive baseline experiment F4 destroys.
    InPlace,
}

/// Garbage-collection victim selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPolicy {
    /// Clean the segment with the fewest live pages.
    Greedy,
    /// LFS cost-benefit: maximise `age × (1 − u) / (1 + u)`, preferring
    /// old, mostly-dead segments; separates hot and cold data.
    CostBenefit,
}

/// Wear-leveling policy layered over garbage collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WearLeveling {
    /// Rely on the log structure alone (dynamic leveling only).
    None,
    /// Static wear leveling: when the erase-count spread between the most-
    /// and least-worn blocks exceeds `threshold`, migrate the coldest
    /// segment's data onto the most-worn free block so cold data stops
    /// shielding young blocks.
    Static {
        /// Maximum tolerated spread in erase counts.
        threshold: u64,
    },
}

/// How flash banks are assigned to data classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankPolicy {
    /// All banks hold any segment; the open segment rotates freely.
    Unified,
    /// The first `read_banks` banks receive only garbage-collection
    /// survivors (cold, read-mostly data) and never host the write head,
    /// so reads of stable data never stall behind programs — §3.3's
    /// "one bank would hold read-mostly data" proposal.
    ReadMostlyPartition {
        /// Banks reserved for read-mostly data.
        read_banks: u32,
    },
}

/// Write-buffer flush policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlushPolicy {
    /// Dirty pages older than this are flushed at the next tick; this is
    /// the write-back delay that lets short-lived data die in DRAM.
    pub age_limit: SimDuration,
    /// When the buffer's dirty fraction exceeds this, flush down to
    /// `low_watermark` immediately.
    pub high_watermark: f64,
    /// Flush target for a high-watermark event.
    pub low_watermark: f64,
    /// Pages flushed per reclaim batch when the buffer is full.
    pub batch: usize,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy {
            age_limit: SimDuration::from_secs(30),
            high_watermark: 0.90,
            low_watermark: 0.75,
            batch: 16,
        }
    }
}

/// Full storage-manager configuration.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Logical page size in bytes; must equal a multiple of the flash
    /// write unit and divide the erase block.
    pub page_size: u64,
    /// DRAM dedicated to the write buffer, in bytes.
    pub dram_buffer_bytes: u64,
    /// Flash device to manage.
    pub flash: FlashSpec,
    /// DRAM device backing the write buffer.
    pub dram: DramSpec,
    /// Placement strategy.
    pub placement: Placement,
    /// GC victim selection.
    pub gc: GcPolicy,
    /// Wear-leveling policy.
    pub wear_leveling: WearLeveling,
    /// Bank assignment policy.
    pub bank_policy: BankPolicy,
    /// Write-buffer flush policy.
    pub flush: FlushPolicy,
    /// Start garbage collection when free segments drop to this count.
    pub gc_trigger_segments: usize,
    /// Stop garbage collection when free segments reach this count.
    pub gc_target_segments: usize,
    /// Fraction of log capacity allowed to hold live data; beyond it,
    /// writes fail with `NoSpace` rather than letting GC thrash.
    pub max_utilization: f64,
    /// Reserve two blocks as a checkpoint ping-pong area and write a map
    /// snapshot on every `sync`.
    pub checkpointing: bool,
    /// Minimum simulated time between periodic checkpoints taken by
    /// `tick`. The crash-torture harness shrinks this so short replay
    /// windows still exercise the checkpoint write and recovery paths.
    pub checkpoint_interval: SimDuration,
}

impl Default for StorageConfig {
    fn default() -> Self {
        let flash = FlashSpec::default();
        let dram = DramSpec::default().with_capacity(1 << 20);
        StorageConfig {
            page_size: 512,
            dram_buffer_bytes: 1 << 20,
            flash,
            dram,
            placement: Placement::LogStructured,
            gc: GcPolicy::CostBenefit,
            wear_leveling: WearLeveling::Static { threshold: 32 },
            bank_policy: BankPolicy::Unified,
            flush: FlushPolicy::default(),
            gc_trigger_segments: 4,
            gc_target_segments: 8,
            max_utilization: 0.85,
            checkpointing: true,
            checkpoint_interval: SimDuration::from_secs(60),
        }
    }
}

impl StorageConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (page size not aligned to the
    /// flash write unit, watermarks out of order, …); these are programmer
    /// errors in experiment setup, not runtime conditions.
    pub fn validate(&self) {
        assert!(self.page_size > 0, "page size must be positive");
        assert!(
            self.page_size.is_multiple_of(self.flash.write_unit),
            "page size must be a multiple of the flash write unit"
        );
        assert!(
            self.flash.block_bytes.is_multiple_of(self.page_size),
            "page size must divide the erase block"
        );
        assert!(
            self.dram_buffer_bytes == 0 || self.dram_buffer_bytes >= self.page_size,
            "a non-zero write buffer must hold at least one page"
        );
        assert!(
            self.flush.low_watermark <= self.flush.high_watermark,
            "flush watermarks out of order"
        );
        assert!(
            self.gc_trigger_segments <= self.gc_target_segments,
            "GC trigger must not exceed target"
        );
        assert!(
            (0.0..=1.0).contains(&self.max_utilization),
            "utilisation must be a fraction"
        );
        assert!(
            self.checkpoint_interval > SimDuration::ZERO,
            "checkpoint interval must be positive"
        );
        if let BankPolicy::ReadMostlyPartition { read_banks } = self.bank_policy {
            assert!(
                read_banks < self.flash.banks,
                "at least one bank must remain writable"
            );
        }
    }

    /// Pages per segment (erase block). Data-slot headers are modelled as
    /// written alongside each page (JFFS-style), so every block slot is a
    /// data slot.
    pub fn slots_per_segment(&self) -> usize {
        (self.flash.block_bytes / self.page_size) as usize
    }

    /// DRAM frames in the write buffer.
    pub fn buffer_frames(&self) -> usize {
        (self.dram_buffer_bytes / self.page_size) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        StorageConfig::default().validate();
    }

    #[test]
    fn slots_per_segment_fills_the_block() {
        let cfg = StorageConfig::default();
        let raw = (cfg.flash.block_bytes / cfg.page_size) as usize;
        assert_eq!(cfg.slots_per_segment(), raw);
        let inplace = StorageConfig {
            placement: Placement::InPlace,
            ..StorageConfig::default()
        };
        assert_eq!(inplace.slots_per_segment(), raw);
    }

    #[test]
    fn zero_buffer_is_allowed_for_write_through() {
        let cfg = StorageConfig {
            dram_buffer_bytes: 0,
            ..StorageConfig::default()
        };
        cfg.validate();
        assert_eq!(cfg.buffer_frames(), 0);
    }

    #[test]
    #[should_panic(expected = "write unit")]
    fn misaligned_page_size_rejected() {
        let cfg = StorageConfig {
            page_size: 100,
            ..StorageConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "writable")]
    fn all_banks_read_only_rejected() {
        let cfg = StorageConfig {
            bank_policy: BankPolicy::ReadMostlyPartition { read_banks: 1 },
            ..StorageConfig::default()
        };
        // Default flash has a single bank.
        cfg.validate();
    }

    #[test]
    fn buffer_frames_counts_pages() {
        let cfg = StorageConfig::default();
        assert_eq!(cfg.buffer_frames(), (1 << 20) / 512);
    }
}
