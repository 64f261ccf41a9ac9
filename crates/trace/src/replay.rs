//! Trace replay against a file-system-under-test.
//!
//! Replay is *open-loop*: each record is submitted at its trace timestamp
//! (the replayer advances the shared clock to the arrival instant), unless
//! the system is still busy, in which case the operation queues behind the
//! previous one — exactly how a user feels a slow file system.

use crate::record::{FileId, FileOp, OpKind, Trace, TraceRecord};
use crate::stream::kind_code;
use ssmc_sim::{Clock, Histogram, SimDuration};
use std::collections::BTreeMap;

/// Most records the streaming replayer coalesces into one batch
/// submission. Bounds the reusable batch buffer so steady-state replay
/// allocates nothing.
pub const MAX_BATCH: usize = 64;

/// Latency sentinel a [`BatchTarget`] stores for an operation that failed.
/// No real operation takes `SimDuration::MAX`, so the driver can separate
/// errors from latencies without a second channel.
pub const BATCH_ERROR: SimDuration = SimDuration::MAX;

/// Anything that can execute trace operations: the memory-resident file
/// system, the disk-based baseline, or a mock.
pub trait TraceTarget {
    /// Applies one operation, charging simulated time to the shared clock.
    ///
    /// # Errors
    ///
    /// Returns an error when the operation cannot be applied (out of space,
    /// lost contents, …); the replayer counts these and continues.
    fn apply(&mut self, op: &FileOp) -> Result<(), Box<dyn std::error::Error>>;
}

/// Per-kind latency distributions and error counts from a replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Latency histograms (nanoseconds) keyed by operation kind.
    pub per_op: BTreeMap<OpKind, Histogram>,
    /// Operations that returned an error.
    pub errors: u64,
    /// Operations submitted.
    pub ops: u64,
    /// Simulated time from first submission to last completion.
    pub elapsed: SimDuration,
}

impl ReplayReport {
    /// Mean latency of `kind`, or zero if none were recorded.
    pub fn mean_latency(&self, kind: OpKind) -> SimDuration {
        self.per_op
            .get(&kind)
            .map(|h| SimDuration::from_nanos(h.mean() as u64))
            .unwrap_or(SimDuration::ZERO)
    }

    /// 99th-percentile latency of `kind`.
    pub fn p99_latency(&self, kind: OpKind) -> SimDuration {
        self.per_op
            .get(&kind)
            .map(|h| SimDuration::from_nanos(h.quantile(0.99)))
            .unwrap_or(SimDuration::ZERO)
    }

    /// Mean latency across all data operations (reads plus writes).
    pub fn mean_data_latency(&self) -> SimDuration {
        let mut merged = Histogram::new();
        for kind in [OpKind::Read, OpKind::Write] {
            if let Some(h) = self.per_op.get(&kind) {
                merged.merge(h);
            }
        }
        SimDuration::from_nanos(merged.mean() as u64)
    }
}

/// A target that accepts whole batches of records at once.
///
/// The implementation must produce exactly the simulated sequence that
/// per-record [`replay`] produces: [`apply_at`] on each record in order.
/// A coalesced run (the driver only groups consecutive records of one
/// data kind on one file) may be attributed or counted as a unit, but its
/// simulated work is never merged or reordered: the flash image after a
/// batched replay must be byte-identical to the unbatched one.
pub trait BatchTarget: TraceTarget {
    /// Applies `records` in order, writing each operation's simulated
    /// latency into the matching `latencies` slot, or [`BATCH_ERROR`] for
    /// an operation that failed.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `latencies.len() != records.len()`.
    fn apply_batch(&mut self, records: &[TraceRecord], latencies: &mut [SimDuration]);
}

/// The driver's coalescing key: consecutive `Write`s or `Read`s against
/// one file form a batch; everything else is submitted singly. Public so
/// harnesses (the profiler, the alloc-guard) can reproduce the driver's
/// batching rule exactly.
pub fn coalesce_key(op: &FileOp) -> Option<(OpKind, FileId)> {
    match op {
        FileOp::Write { file, .. } => Some((OpKind::Write, *file)),
        FileOp::Read { file, .. } => Some((OpKind::Read, *file)),
        _ => None,
    }
}

/// Running totals from one streaming replay's coalescing stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Batches submitted (including singletons).
    pub batches: u64,
    /// Records submitted through batches (equals the op count).
    pub batch_ops: u64,
    /// Records that rode in a batch of two or more — the coalesce hits.
    pub coalesced_ops: u64,
}

impl BatchStats {
    /// Fraction of operations that were coalesced with a neighbour.
    pub fn coalesce_rate(&self) -> f64 {
        if self.batch_ops == 0 {
            0.0
        } else {
            self.coalesced_ops as f64 / self.batch_ops as f64
        }
    }
}

/// Streaming, batching replay: consumes records from any iterator — an
/// in-memory trace or an [`crate::OpStreamFileReader`] decoding straight
/// from disk — coalesces adjacent same-file data operations into batches
/// of at most [`MAX_BATCH`], and submits them through
/// [`BatchTarget::apply_batch`].
///
/// Steady state allocates nothing: the batch buffer and latency scratch
/// are reused, and per-kind histograms live in a fixed array indexed by
/// [`kind_code`] until the report is assembled at the end. The report is
/// byte-for-byte the one per-record [`replay`] of the same records
/// produces, because latencies are simulated time.
pub fn replay_stream<I, T>(records: I, target: &mut T, clock: &Clock) -> (ReplayReport, BatchStats)
where
    I: IntoIterator<Item = TraceRecord>,
    T: BatchTarget + ?Sized,
{
    let start = clock.now();
    let mut report = ReplayReport::default();
    let mut stats = BatchStats::default();
    let mut hists: [Option<Histogram>; 8] = Default::default();
    let mut batch: Vec<TraceRecord> = Vec::with_capacity(MAX_BATCH);
    let mut lats = [SimDuration::ZERO; MAX_BATCH];
    let mut it = records.into_iter();
    let mut pending: Option<TraceRecord> = None;
    loop {
        let Some(first) = pending.take().or_else(|| it.next()) else {
            break;
        };
        let key = coalesce_key(&first.op);
        // Peek one record ahead: most records do not coalesce with their
        // successor, and the singleton path below passes the record
        // straight through without copying it into the batch buffer.
        let mut second = None;
        if key.is_some() {
            match it.next() {
                Some(r) if coalesce_key(&r.op) == key => second = Some(r),
                other => pending = other,
            }
        }
        let singleton;
        let recs: &[TraceRecord] = if let Some(second) = second {
            batch.clear();
            batch.push(first);
            batch.push(second);
            while batch.len() < MAX_BATCH {
                let Some(r) = it.next() else { break };
                if coalesce_key(&r.op) == key {
                    batch.push(r);
                } else {
                    pending = Some(r);
                    break;
                }
            }
            &batch
        } else {
            singleton = first;
            core::slice::from_ref(&singleton)
        };
        let n = recs.len();
        target.apply_batch(recs, &mut lats[..n]);
        stats.batches += 1;
        stats.batch_ops += n as u64;
        if n > 1 {
            stats.coalesced_ops += n as u64;
        }
        for (rec, &lat) in recs.iter().zip(&lats[..n]) {
            report.ops += 1;
            if lat == BATCH_ERROR {
                report.errors += 1;
            } else {
                hists[kind_code(rec.op.kind()) as usize]
                    .get_or_insert_with(Histogram::new)
                    .record_duration(lat);
            }
        }
    }
    for (code, h) in hists.into_iter().enumerate() {
        if let Some(h) = h {
            report.per_op.insert(OpKind::ALL[code], h);
        }
    }
    report.elapsed = clock.now().since(start);
    (report, stats)
}

/// Submits one record open-loop: advances `clock` (which the target must
/// share) to the record's arrival instant — a no-op when the target is
/// already running behind — and applies the operation. Returns its
/// simulated latency, queueing included, or [`BATCH_ERROR`] if it failed.
/// Every replay driver and [`BatchTarget`] implementation submits records
/// through this one rule.
// lint: hot-path
pub fn apply_at<T: TraceTarget + ?Sized>(
    target: &mut T,
    record: &TraceRecord,
    clock: &Clock,
) -> SimDuration {
    clock.advance_to(record.at);
    let t0 = clock.now();
    match target.apply(&record.op) {
        Ok(()) => clock.now().since(t0),
        Err(_) => BATCH_ERROR,
    }
}

/// Replays `trace` against `target`, measuring per-operation latency on
/// `clock` (which the target must share).
pub fn replay<T: TraceTarget + ?Sized>(
    trace: &Trace,
    target: &mut T,
    clock: &Clock,
) -> ReplayReport {
    let mut report = ReplayReport::default();
    let start = clock.now();
    for record in &trace.records {
        report.ops += 1;
        let latency = apply_at(target, record, clock);
        if latency == BATCH_ERROR {
            report.errors += 1;
        } else {
            report
                .per_op
                .entry(record.op.kind())
                .or_default()
                .record_duration(latency);
        }
    }
    report.elapsed = clock.now().since(start);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FileId;
    use ssmc_sim::{SimDuration, SimTime};
    use std::collections::HashSet;

    /// A target that charges fixed latencies and tracks live files.
    struct FakeFs<'c> {
        clock: &'c Clock,
        live: HashSet<FileId>,
        write_cost: SimDuration,
        read_cost: SimDuration,
    }

    impl TraceTarget for FakeFs<'_> {
        fn apply(&mut self, op: &FileOp) -> Result<(), Box<dyn std::error::Error>> {
            match op {
                FileOp::Create { file } => {
                    self.live.insert(*file);
                }
                FileOp::Delete { file } => {
                    if !self.live.remove(file) {
                        return Err("delete of unknown file".into());
                    }
                }
                FileOp::Write { .. } | FileOp::Truncate { .. } => {
                    self.clock.advance(self.write_cost);
                }
                FileOp::Read { .. } => {
                    self.clock.advance(self.read_cost);
                }
                FileOp::Stat { file } => {
                    if !self.live.contains(file) {
                        return Err("stat of unknown file".into());
                    }
                }
                FileOp::Rename { file, to } => {
                    if !self.live.remove(file) {
                        return Err("rename of unknown file".into());
                    }
                    self.live.insert(*to);
                }
                FileOp::Sync => {}
            }
            Ok(())
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn replay_measures_per_kind_latency() {
        let clock = Clock::new();
        let mut fs = FakeFs {
            clock: &clock,
            live: HashSet::new(),
            write_cost: SimDuration::from_micros(500),
            read_cost: SimDuration::from_micros(5),
        };
        let mut tr = Trace::new("t");
        tr.push(t(0), FileOp::Create { file: 1 });
        tr.push(
            t(1),
            FileOp::Write {
                file: 1,
                offset: 0,
                len: 10,
            },
        );
        tr.push(
            t(2),
            FileOp::Read {
                file: 1,
                offset: 0,
                len: 10,
            },
        );
        let report = replay(&tr, &mut fs, &clock);
        assert_eq!(report.ops, 3);
        assert_eq!(report.errors, 0);
        assert_eq!(
            report.mean_latency(OpKind::Write),
            SimDuration::from_micros(500)
        );
        assert_eq!(
            report.mean_latency(OpKind::Read),
            SimDuration::from_micros(5)
        );
        assert!(report.mean_data_latency() > SimDuration::from_micros(5));
    }

    #[test]
    fn replay_respects_arrival_times() {
        let clock = Clock::new();
        let mut fs = FakeFs {
            clock: &clock,
            live: HashSet::new(),
            write_cost: SimDuration::ZERO,
            read_cost: SimDuration::ZERO,
        };
        let mut tr = Trace::new("t");
        tr.push(t(100), FileOp::Sync);
        let report = replay(&tr, &mut fs, &clock);
        assert_eq!(report.elapsed, SimDuration::from_millis(100));
        assert_eq!(clock.now(), t(100));
    }

    #[test]
    fn errors_are_counted_not_fatal() {
        let clock = Clock::new();
        let mut fs = FakeFs {
            clock: &clock,
            live: HashSet::new(),
            write_cost: SimDuration::ZERO,
            read_cost: SimDuration::ZERO,
        };
        let mut tr = Trace::new("t");
        tr.push(t(0), FileOp::Delete { file: 42 });
        tr.push(t(1), FileOp::Create { file: 1 });
        let report = replay(&tr, &mut fs, &clock);
        assert_eq!(report.errors, 1);
        assert_eq!(report.ops, 2);
    }

    #[test]
    fn queueing_delays_show_in_latency() {
        // Two writes arriving simultaneously: the second queues behind the
        // first, so its measured latency includes the wait.
        let clock = Clock::new();
        let mut fs = FakeFs {
            clock: &clock,
            live: HashSet::new(),
            write_cost: SimDuration::from_millis(10),
            read_cost: SimDuration::ZERO,
        };
        let mut tr = Trace::new("t");
        for _ in 0..2 {
            tr.push(
                t(0),
                FileOp::Write {
                    file: 1,
                    offset: 0,
                    len: 1,
                },
            );
        }
        let mut fs_live = HashSet::new();
        fs_live.insert(1);
        fs.live = fs_live;
        let report = replay(&tr, &mut fs, &clock);
        let h = &report.per_op[&OpKind::Write];
        assert_eq!(h.count(), 2);
        // Total elapsed is 20 ms: both ops measured at 10 ms service each,
        // the second starting only after the first finished.
        assert_eq!(report.elapsed, SimDuration::from_millis(20));
    }
}
