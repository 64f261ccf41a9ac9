//! The three benchmark workloads: what each generates from the seed and
//! the machine each replays on. README.md says why each was chosen.

use ssmc_core::MachineConfig;
use ssmc_sim::Energy;
use ssmc_trace::{GeneratorConfig, Workload};

/// Live-byte cap of every generated trace, so traces fit the 24 MB
/// flash of the machines under test.
const MAX_LIVE_BYTES: u64 = 4 << 20;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// One million-op BSD stream from an `.ops` file, batched replay.
    BsdStream,
    /// Database in-place updates, per-record replay, several sessions.
    DbUpdate,
    /// Many small mail-spool machines sharded over `parallel_sweep`.
    MailFleet,
}

impl Bench {
    /// Every workload, in report order.
    pub const ALL: [Bench; 3] = [Bench::BsdStream, Bench::DbUpdate, Bench::MailFleet];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::BsdStream => "bsd-stream",
            Bench::DbUpdate => "db-update",
            Bench::MailFleet => "mail-fleet",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Independently budgeted units the run is split into. Each gets its
    /// own budget share and worker process, so one stuck in a GC storm
    /// cannot take the others down, and the reported rates are medians
    /// over units, so one unit's storm moves them only if it is typical.
    pub fn units(self) -> usize {
        match self {
            Bench::DbUpdate => 10,
            Bench::BsdStream | Bench::MailFleet => 1,
        }
    }

    /// Machines replayed by one unit.
    pub fn machines_per_unit(self) -> usize {
        match self {
            Bench::MailFleet => 64,
            Bench::BsdStream | Bench::DbUpdate => 1,
        }
    }

    /// Operations generated per machine.
    pub fn ops_per_machine(self) -> usize {
        match self {
            Bench::BsdStream => 1_000_000,
            Bench::DbUpdate => 15_000,
            Bench::MailFleet => 25_000,
        }
    }

    /// Whether replay goes through the batching stream replayer
    /// (`replay_stream`) rather than per-record `apply`.
    pub fn streamed(self) -> bool {
        !matches!(self, Bench::DbUpdate)
    }

    /// The trace generator of machine `machine` in unit `unit`. The BSD
    /// stream uses the run seed itself, so at the default seed it is the
    /// repository's million-op streaming row; every other machine derives
    /// its own seed.
    pub fn generator(self, seed: u64, unit: usize, machine: usize) -> GeneratorConfig {
        let (workload, seed) = match self {
            Bench::BsdStream => (Workload::Bsd, seed),
            Bench::DbUpdate => (Workload::Database, derive_seed(seed, unit as u64)),
            Bench::MailFleet => (Workload::MailSpool, derive_seed(seed, machine as u64)),
        };
        GeneratorConfig::new(workload)
            .with_ops(self.ops_per_machine())
            .with_seed(seed)
            .with_max_live_bytes(MAX_LIVE_BYTES)
    }

    /// The machine each replay runs on.
    pub fn machine(self) -> MachineConfig {
        let mut cfg = MachineConfig::with_sizes("throughput", 8 << 20, 24 << 20);
        cfg.write_buffer_bytes = Some(1 << 20);
        if self != Bench::MailFleet {
            // External power (a ~1 kWh pack): the long runs measure the
            // storage stack, not battery exhaustion.
            cfg.battery.primary_capacity = Energy::from_joules(3_600_000.0);
        }
        cfg
    }
}

/// SplitMix64 of the run seed and an index: independent, reproducible
/// per-machine seeds.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in Bench::ALL {
            assert_eq!(Bench::parse(b.name()), Some(b));
        }
        assert_eq!(Bench::parse("hit"), None);
    }

    #[test]
    fn derived_seeds_differ_per_index_and_repeat() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }
}
