//! Worker processes: each replays one unit of a workload in one pass and
//! writes a result file.
//!
//! A unit runs in its own process because an operation can run for
//! minutes (the database GC storm) and cannot be interrupted from
//! inside: when the unit's budget expires, a watchdog thread writes how
//! many leading steps completed and ends the process. The orchestrator
//! then replays exactly that prefix again, so every simulated number it
//! reports comes from a run that finished.

use crate::bag::{Bag, LogHist};
use crate::metrics::{percentile, ratio, Window};
use crate::spans::{self, Counters, Group, Name};
use crate::workloads::Bench;
use ssmc_core::{MachineConfig, MobileComputer};
use ssmc_memfs::{FsError, MemFs, OpenMode};
use ssmc_sim::{Clock, Histogram, SharedClock, SimDuration, SimTime, Value};
use ssmc_storage::{DenseIndex, StorageManager};
use ssmc_trace::{
    kind_code, project, replay_stream, BatchTarget, FileOp, OpKind, OpStream, OpStreamFileReader,
    OracleConfig, PageOpKind, Trace, TraceRecord, TraceTarget, BATCH_ERROR,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which layer a pass enters at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The whole machine, untraced: the end-to-end measurement.
    Plain,
    /// The whole machine with spans around every call into it.
    Traced,
    /// The file system's public API, no machine around it.
    Memfs,
    /// The storage manager fed the trace's projected page operations.
    Storage,
}

impl Pass {
    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Plain => "plain",
            Pass::Traced => "traced",
            Pass::Memfs => "memfs",
            Pass::Storage => "storage",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Pass> {
        [Pass::Plain, Pass::Traced, Pass::Memfs, Pass::Storage]
            .into_iter()
            .find(|p| p.name() == s)
    }
}

/// What one worker process is asked to do.
#[derive(Debug, Clone)]
pub struct Job {
    /// Workload.
    pub bench: Bench,
    /// Run seed.
    pub seed: u64,
    /// Unit index.
    pub unit: usize,
    /// Leading steps to run: operations, or machines for the fleet.
    pub limit: u64,
    /// Host-time budget of the unit.
    pub budget: Duration,
    /// Entry layer.
    pub pass: Pass,
    /// `parallel_sweep` threads (fleet only).
    pub threads: usize,
    /// The compiled BSD stream (bsd-stream only).
    pub ops_file: Option<PathBuf>,
    /// Where the result JSON goes.
    pub result: PathBuf,
    /// Where the traced pass writes its spans.
    pub spans: Option<PathBuf>,
}

/// A worker's answer.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether the budget expired first.
    pub cut: bool,
    /// Leading steps that completed.
    pub completed: u64,
    /// Simulated-state fingerprint (finished runs of machine passes).
    pub fingerprint: String,
    /// Measurements.
    pub bag: Bag,
}

impl Outcome {
    fn encode(&self) -> String {
        Value::Object(vec![
            ("cut".into(), Value::Bool(self.cut)),
            ("completed".into(), Value::Int(self.completed as i64)),
            ("fingerprint".into(), Value::Str(self.fingerprint.clone())),
            ("bag".into(), self.bag.encode()),
        ])
        .encode()
    }

    /// Reads a worker's result file.
    pub fn read(path: &Path) -> Option<Outcome> {
        let v = Value::decode(&std::fs::read_to_string(path).ok()?).ok()?;
        Some(Outcome {
            cut: v.get("cut")?.as_bool()?,
            completed: v.get("completed")?.as_u64()?,
            fingerprint: v.get("fingerprint")?.as_str()?.to_owned(),
            bag: Bag::decode(v.get("bag")?)?,
        })
    }
}

/// Budget enforcement: the main thread publishes completed steps; the
/// watchdog ends the process with a cut result once the budget expires.
struct Watch {
    progress: AtomicU64,
    /// Set once a result file has been written; the lock orders the
    /// watchdog's write against the main thread's.
    written: Mutex<bool>,
}

static WATCH: Watch = Watch {
    progress: AtomicU64::new(0),
    written: Mutex::new(false),
};

fn write_result(path: &Path, o: &Outcome) {
    std::fs::write(path, o.encode()).expect("write worker result");
}

/// Runs `job` to completion or until its budget expires, writing the
/// result file either way.
pub fn run(job: &Job) {
    let deadline = Instant::now() + job.budget;
    let result = job.result.clone();
    let watchdog = std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(5));
        let mut written = WATCH.written.lock().expect("watch lock poisoned");
        if *written {
            return;
        }
        if Instant::now() >= deadline {
            let cut = Outcome {
                cut: true,
                completed: WATCH.progress.load(Ordering::SeqCst),
                fingerprint: String::new(),
                bag: Bag::default(),
            };
            write_result(&result, &cut);
            *written = true;
            // The replay thread is stuck inside one operation; ending
            // the process is the only way to stop it.
            std::process::exit(0);
        }
    });
    let outcome = match job.bench {
        Bench::BsdStream => bsd_unit(job),
        Bench::DbUpdate => db_unit(job),
        Bench::MailFleet => fleet_unit(job),
    };
    {
        let mut written = WATCH.written.lock().expect("watch lock poisoned");
        if !*written {
            write_result(&job.result, &outcome);
            *written = true;
        }
    }
    watchdog.join().expect("watchdog thread panicked");
}

fn set_progress(n: u64) {
    WATCH.progress.store(n, Ordering::SeqCst);
}

/// Operations per machine the file-system and storage passes replay.
/// Self time is compared over this leading window of every machine: a
/// full pass below the file system over the million-op stream (whose
/// projected page operations number in the tens of millions) would not
/// fit a run.
pub const LAYER_PASS_OPS: u64 = 100_000;

/// Seconds per 365-day year.
const YEAR_S: f64 = 365.0 * 86_400.0;

/// Kind names in `OpKind::ALL` order, for metric names.
pub const KINDS: [&str; 8] = [
    "create", "write", "read", "delete", "truncate", "sync", "stat", "rename",
];

fn kind_index(op: &FileOp) -> usize {
    kind_code(op.kind()) as usize
}

fn counters(m: &mut MobileComputer) -> Counters {
    let sm = m.fs().storage();
    let f = sm.flash().counters();
    Counters {
        gc_runs: sm.metrics().gc_runs,
        programs: f.programs,
        erases: f.erases,
        reads: f.reads,
    }
}

/// Per-machine accounting of one machine pass. Hot-loop counters are
/// plain fields (no per-operation allocation); they move into the bag
/// when the machine finishes.
struct Acc {
    traced: bool,
    applied: u64,
    ok: u64,
    submissions: u64,
    coalesced: u64,
    fail: [u64; 8],
    head: Window,
    tail: Window,
    last_end: Instant,
    started: Instant,
    hists: [Histogram; 8],
    lat_write: Vec<u64>,
    lat_read: Vec<u64>,
    apply_ns: u64,
    prefix_apply_ns: u64,
    gc_apply_ns: u64,
    apply_hists: [LogHist; 8],
    bag: Bag,
    group: Group,
    message: Option<String>,
}

impl Acc {
    /// Accounting for a pass over `ops` operations: the tail window is
    /// the last tenth of what this pass replays, so a replay of a cut
    /// unit's prefix reports the rate it sustained just before the cut.
    fn new(traced: bool, ops: u64) -> Acc {
        Acc {
            traced,
            applied: 0,
            ok: 0,
            submissions: 0,
            coalesced: 0,
            fail: [0; 8],
            head: Window::head(ops),
            tail: Window::tail(ops),
            last_end: Instant::now(),
            started: Instant::now(),
            hists: Default::default(),
            lat_write: Vec::new(),
            lat_read: Vec::new(),
            apply_ns: 0,
            prefix_apply_ns: 0,
            gc_apply_ns: 0,
            apply_hists: Default::default(),
            bag: Bag::default(),
            group: Group::start(),
            message: None,
        }
    }

    /// Starts the timed replay.
    fn start_clock(&mut self) {
        self.started = Instant::now();
        self.last_end = self.started;
    }

    /// Accounts one call into the machine on the traced pass: its host
    /// time and whether garbage collection ran inside it.
    fn traced_call(&mut self, name: Name, t0: u64, t1: u64, delta: Counters) {
        self.apply_ns += t1 - t0;
        if self.applied < LAYER_PASS_OPS {
            self.prefix_apply_ns += t1 - t0;
        }
        if delta.gc_runs > 0 {
            self.gc_apply_ns += t1 - t0;
        }
        self.group.push(name, t0, t1, self.applied, delta);
    }

    /// Accounts one submission of `records` whose simulated latencies
    /// (or [`BATCH_ERROR`]) are in `lats`; `apply_ns` is the host time of
    /// the call into the machine.
    fn submitted(&mut self, records: &[TraceRecord], lats: &[SimDuration], apply_ns: u64) {
        let end = Instant::now();
        let secs = end.duration_since(self.last_end).as_secs_f64();
        self.last_end = end;
        let first = self.applied;
        let n = records.len() as u64;
        let (mut ok_head, mut ok_tail) = (0, 0);
        for (i, (r, &lat)) in records.iter().zip(lats).enumerate() {
            let k = kind_index(&r.op);
            if lat == BATCH_ERROR {
                self.fail[k] += 1;
                let msg = self.message.take().unwrap_or_else(|| {
                    format!("{} failed inside a coalesced batch (no message)", KINDS[k])
                });
                self.bag.error(&msg);
            } else {
                self.ok += 1;
                let i = first + i as u64;
                ok_head += u64::from(self.head.contains(i));
                ok_tail += u64::from(self.tail.contains(i));
                self.hists[k].record_duration(lat);
                match r.op.kind() {
                    OpKind::Write => self.lat_write.push(lat.as_nanos()),
                    OpKind::Read => self.lat_read.push(lat.as_nanos()),
                    _ => {}
                }
            }
            if self.traced {
                self.apply_hists[k].record(apply_ns / n);
            }
        }
        self.head.record(first, n, ok_head, secs);
        self.tail.record(first, n, ok_tail, secs);
        self.applied += n;
        self.submissions += 1;
        if n > 1 {
            self.coalesced += n;
        }
    }

    /// Moves the hot-loop fields into the bag.
    fn drain_into_bag(&mut self) {
        let bag = &mut self.bag;
        bag.add("applied", self.applied as f64);
        bag.add("ok", self.ok as f64);
        bag.add("head_ok", self.head.ok() as f64);
        bag.add("head_s", self.head.secs());
        bag.add("tail_ok", self.tail.ok() as f64);
        bag.add("tail_s", self.tail.secs());
        bag.add(
            "replay_s",
            self.last_end.duration_since(self.started).as_secs_f64(),
        );
        bag.add("submissions", self.submissions as f64);
        bag.add("coalesced_ops", self.coalesced as f64);
        bag.add("apply_ns", self.apply_ns as f64);
        bag.add("prefix_apply_ns", self.prefix_apply_ns as f64);
        bag.add("gc_apply_ns", self.gc_apply_ns as f64);
        for (k, &f) in self.fail.iter().enumerate() {
            if f > 0 {
                bag.add(&format!("fail.{}", KINDS[k]), f as f64);
            }
        }
        for (k, h) in self.apply_hists.iter().enumerate() {
            if h.count() > 0 {
                bag.hists
                    .entry(format!("apply.{}", KINDS[k]))
                    .or_default()
                    .merge(h);
            }
        }
    }
}

/// Streaming target: forwards to the machine and accounts every
/// submission. Singletons go through `TraceTarget::apply` — the same
/// per-record path `apply_batch` takes for them — so a failure keeps its
/// error message.
struct Probe<'a> {
    m: &'a mut MobileComputer,
    clock: SharedClock,
    acc: &'a mut Acc,
    publish: bool,
}

impl TraceTarget for Probe<'_> {
    fn apply(&mut self, op: &FileOp) -> Result<(), Box<dyn std::error::Error>> {
        self.m.apply(op)
    }
}

impl BatchTarget for Probe<'_> {
    fn apply_batch(&mut self, records: &[TraceRecord], lats: &mut [SimDuration]) {
        let before = self.acc.traced.then(|| counters(self.m));
        let t0 = spans::now_ns();
        if let [r] = records {
            self.clock.advance_to(r.at);
            let s0 = self.clock.now();
            lats[0] = match self.m.apply(&r.op) {
                Ok(()) => self.clock.now().since(s0),
                Err(e) => {
                    self.acc.message = Some(e.to_string());
                    BATCH_ERROR
                }
            };
        } else {
            self.m.apply_batch(records, lats);
        }
        let t1 = spans::now_ns();
        if let Some(before) = before {
            let name = if records.len() > 1 {
                Name::ApplyBatch
            } else {
                Name::Apply
            };
            let delta = counters(self.m).since(before);
            self.acc.traced_call(name, t0, t1, delta);
        }
        self.acc.submitted(records, lats, t1 - t0);
        if self.publish {
            set_progress(self.acc.applied);
        }
    }
}

/// Record source for `replay_stream` that stops at the unit's
/// limit and, when traced, times every `next_record` call.
struct Source<F: FnMut() -> Option<TraceRecord>> {
    next: F,
    left: u64,
    traced: bool,
    index: u64,
    spans: Vec<spans::Span>,
}

impl<F: FnMut() -> Option<TraceRecord>> Iterator for Source<F> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        if !self.traced {
            return (self.next)();
        }
        let t0 = spans::now_ns();
        let r = (self.next)();
        let t1 = spans::now_ns();
        self.spans.push(spans::Span {
            name: Name::Decode,
            start: t0,
            end: t1,
            op: self.index,
            delta: Counters::default(),
        });
        self.index += 1;
        r
    }
}

/// FNV-1a, 64-bit.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Construction timed as a span.
fn construct(cfg: MachineConfig, group: &mut Group, bag: &mut Bag) -> MobileComputer {
    let t0 = spans::now_ns();
    let m = MobileComputer::new(cfg);
    let t1 = spans::now_ns();
    group.push(Name::Construct, t0, t1, 0, Counters::default());
    bag.add("construct_s", (t1 - t0) as f64 / 1e9);
    bag.add("machines", 1.0);
    m
}

/// Ends a machine pass: the simulated totals, the lifetime projection
/// and the fingerprint. No final maintenance tick: in a prefix replay
/// that tick would run the storm the cut operation started.
fn finish_machine(m: &mut MobileComputer, acc: &mut Acc) -> u64 {
    acc.drain_into_bag();
    let bag = &mut acc.bag;
    let sim_ns = m.clock().now().since(SimTime::ZERO).as_nanos();
    let energy = m.total_energy().as_nanojoules();
    let (depth, splits) = m.fs().dindex_stats();
    let sm = m.fs().storage();
    let s = sm.metrics();
    let f = sm.flash().counters();
    let wear = sm.flash().wear_stats();
    let storage = [
        ("pages_written", s.pages_written),
        ("user_flash_pages", s.user_flash_pages),
        ("gc_flash_pages", s.gc_flash_pages),
        ("overwrites_absorbed", s.overwrites_absorbed),
        ("deaths_absorbed", s.deaths_absorbed),
        ("gc_runs", s.gc_runs),
        ("wear_migrations", s.wear_migrations),
        ("gc_wait_ns", s.gc_wait.as_nanos()),
        ("flash_programs", f.programs),
        ("flash_erases", f.erases),
        ("flash_reads", f.reads),
        ("read_stall_ns", f.read_stall.as_nanos()),
        ("bad_blocks", u64::from(wear.bad_blocks)),
        ("energy_nj", energy),
        ("sim_ns", sim_ns),
        ("dindex_splits", splits),
    ];
    let mut h = Fnv::new();
    h.bytes(sm.flash().contents());
    for (name, v) in storage {
        bag.add(name, v as f64);
        h.u64(v);
    }
    bag.max("max_erases", wear.max_erases as f64);
    bag.max("dindex_depth", f64::from(depth));
    h.u64(wear.max_erases);
    for hist in &acc.hists {
        h.u64(hist.count());
        h.u64(hist.sum() as u64);
        h.u64((hist.sum() >> 64) as u64);
        for &c in hist.bucket_counts() {
            h.u64(c);
        }
    }
    // Years for the most-worn block to reach its endurance at the rate it
    // wore during the run, counted from a fresh device. An unerased
    // device counts as one erase so the projection stays finite.
    let endurance = sm.flash().spec().endurance as f64;
    let lifetime_s = endurance * (sim_ns as f64 / 1e9) / (wear.max_erases.max(1) as f64);
    bag.push("lifetime_years", lifetime_s / YEAR_S);
    let user = s.user_flash_pages as f64;
    let wa = if user > 0.0 {
        (user + s.gc_flash_pages as f64) / user
    } else {
        1.0
    };
    bag.push("wa", wa);
    bag.push("wtr", 1.0 - ratio(user, s.pages_written as f64));
    bag.push("energy_j", energy as f64 / 1e9);
    for (name, lat) in [("write", &mut acc.lat_write), ("read", &mut acc.lat_read)] {
        lat.sort_unstable();
        for (tag, q) in [("p50", 0.5), ("p99", 0.99)] {
            let ms = percentile(lat, q).map_or(0.0, |v| v as f64 / 1e6);
            bag.push(&format!("{name}_{tag}_ms"), ms);
        }
    }
    acc.group.finish();
    h.0
}

/// Peak resident set of this process, kB (`VmHWM`).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn finish_outcome(
    fingerprint: u64,
    mut bag: Bag,
    completed: u64,
    groups: &[Group],
    job: &Job,
) -> Outcome {
    bag.max("peak_rss_kb", peak_rss_kb() as f64);
    if let Some(path) = &job.spans {
        spans::write_csv(path, groups).expect("write spans");
    }
    Outcome {
        cut: false,
        completed,
        fingerprint: format!("{fingerprint:016x}"),
        bag,
    }
}

fn open_stream(job: &Job) -> OpStreamFileReader {
    OpStreamFileReader::open(
        job.ops_file
            .as_deref()
            .expect("bsd-stream needs --ops-file"),
    )
    .expect("open the compiled BSD stream")
}

fn read_prefix(job: &Job) -> Trace {
    let mut r = open_stream(job);
    let mut t = Trace::new("bsd");
    while t.records.len() < job.limit.min(LAYER_PASS_OPS) as usize {
        let Some(rec) = r.next_record().expect("decode stream") else {
            break;
        };
        t.records.push(rec);
    }
    t
}

fn bsd_unit(job: &Job) -> Outcome {
    match job.pass {
        Pass::Memfs | Pass::Storage => {
            let trace = read_prefix(job);
            layer_pass(job, vec![trace])
        }
        Pass::Plain | Pass::Traced => {
            let mut reader = open_stream(job);
            let total = reader.header().records;
            let mut acc = Acc::new(job.pass == Pass::Traced, job.limit.min(total));
            let mut m = construct(job.bench.machine(), &mut acc.group, &mut acc.bag);
            let next = || reader.next_record().expect("decode stream");
            stream_machine(&mut m, &mut acc, next, job.limit, true);
            acc.bag.add("generated", total as f64);
            let fp = finish_machine(&mut m, &mut acc);
            let Acc {
                applied,
                bag,
                group,
                ..
            } = acc;
            finish_outcome(fp, bag, applied, &[group], job)
        }
    }
}

/// Replays up to `limit` records from `next` through `replay_stream`'s
/// batching, timing each `next_record` call on the traced pass.
/// `publish` reports progress per submission to the watchdog.
fn stream_machine<F: FnMut() -> Option<TraceRecord>>(
    m: &mut MobileComputer,
    acc: &mut Acc,
    next: F,
    limit: u64,
    publish: bool,
) {
    let clock = m.clock().clone();
    let mut src = Source {
        next,
        left: limit,
        traced: acc.traced,
        index: 0,
        spans: Vec::new(),
    };
    acc.start_clock();
    let mut probe = Probe {
        m,
        clock: clock.clone(),
        acc,
        publish,
    };
    let (report, _) = replay_stream(&mut src, &mut probe, &clock);
    acc.bag.add("decode_calls", src.spans.len() as f64);
    acc.bag.add(
        "decode_ns",
        src.spans.iter().map(|s| (s.end - s.start) as f64).sum(),
    );
    acc.group.absorb(src.spans);
    check_report(&report, acc);
}

/// `replay_stream`'s own report must agree with the benchmark's
/// per-submission accounting.
fn check_report(report: &ssmc_trace::ReplayReport, acc: &Acc) {
    assert_eq!(
        report.ops, acc.applied,
        "replay_stream saw another op count"
    );
    assert_eq!(
        report.ops - report.errors,
        acc.ok,
        "replay_stream counted other failures"
    );
    for (code, h) in acc.hists.iter().enumerate() {
        let theirs = report
            .per_op
            .get(&OpKind::ALL[code])
            .map_or(0, Histogram::count);
        assert_eq!(theirs, h.count(), "latency count of {}", KINDS[code]);
    }
}

fn db_unit(job: &Job) -> Outcome {
    let mut scratch = Group::start();
    let t0 = spans::now_ns();
    let mut trace = job.bench.generator(job.seed, job.unit, 0).generate();
    scratch.push(Name::Generate, t0, spans::now_ns(), 0, Counters::default());
    let total = trace.records.len() as u64;
    trace.records.truncate(job.limit as usize);
    match job.pass {
        Pass::Memfs | Pass::Storage => {
            trace.records.truncate(LAYER_PASS_OPS as usize);
            layer_pass(job, vec![trace])
        }
        Pass::Plain | Pass::Traced => {
            let traced = job.pass == Pass::Traced;
            let mut acc = Acc::new(traced, trace.records.len() as u64);
            acc.group = scratch;
            let mut m = construct(job.bench.machine(), &mut acc.group, &mut acc.bag);
            let clock = m.clock().clone();
            acc.start_clock();
            for r in &trace.records {
                // Per-record replay exactly as `ssmc_trace::replay` (and so
                // `run_trace`) drives the machine.
                let before = traced.then(|| counters(&mut m));
                clock.advance_to(r.at);
                let s0 = clock.now();
                let t0 = spans::now_ns();
                let lat = match m.apply(&r.op) {
                    Ok(()) => clock.now().since(s0),
                    Err(e) => {
                        acc.message = Some(e.to_string());
                        BATCH_ERROR
                    }
                };
                let t1 = spans::now_ns();
                if let Some(before) = before {
                    let delta = counters(&mut m).since(before);
                    acc.traced_call(Name::Apply, t0, t1, delta);
                }
                acc.submitted(std::slice::from_ref(r), &[lat], t1 - t0);
                set_progress(acc.applied);
            }
            acc.bag.add("generated", total as f64);
            let fp = finish_machine(&mut m, &mut acc);
            let Acc {
                applied,
                bag,
                group,
                ..
            } = acc;
            finish_outcome(fp, bag, applied, &[group], job)
        }
    }
}

/// One fleet machine's trace, generated and compiled with spans.
fn fleet_stream(job: &Job, machine: usize, group: &mut Group) -> (Trace, OpStream) {
    let t0 = spans::now_ns();
    let trace = job.bench.generator(job.seed, job.unit, machine).generate();
    let t1 = spans::now_ns();
    let stream = OpStream::compile(&trace);
    let t2 = spans::now_ns();
    group.push(Name::Generate, t0, t1, 0, Counters::default());
    group.push(Name::Compile, t1, t2, 0, Counters::default());
    (trace, stream)
}

fn fleet_unit(job: &Job) -> Outcome {
    let machines = job.limit as usize;
    let mut prep = Group::start();
    let inputs: Vec<(Trace, OpStream)> = (0..machines)
        .map(|i| fleet_stream(job, i, &mut prep))
        .collect();
    if matches!(job.pass, Pass::Memfs | Pass::Storage) {
        let traces = inputs
            .into_iter()
            .map(|(mut t, _)| {
                t.records.truncate(LAYER_PASS_OPS as usize);
                t
            })
            .collect();
        return layer_pass(job, traces);
    }
    let streams: Vec<OpStream> = inputs.into_iter().map(|(_, s)| s).collect();
    let traced = job.pass == Pass::Traced;
    let done = Mutex::new(vec![false; machines]);
    ssmc_sim::set_threads(job.threads);
    let wall0 = Instant::now();
    let items = ssmc_sim::parallel_sweep(&streams, |i, stream| {
        let mut acc = Acc::new(traced, stream.len() as u64);
        let item0 = Instant::now();
        let mut m = construct(job.bench.machine(), &mut acc.group, &mut acc.bag);
        let mut cursor = stream.cursor();
        stream_machine(
            &mut m,
            &mut acc,
            || cursor.next_record(),
            stream.len() as u64,
            false,
        );
        acc.bag.add("generated", stream.len() as f64);
        let fp = finish_machine(&mut m, &mut acc);
        acc.bag.add("busy_s", item0.elapsed().as_secs_f64());
        let mut flags = done.lock().expect("progress lock poisoned");
        flags[i] = true;
        set_progress(flags.iter().take_while(|&&d| d).count() as u64);
        (fp, acc.bag, acc.group)
    });
    let wall = wall0.elapsed().as_secs_f64();
    let mut bag = Bag::default();
    let mut h = Fnv::new();
    let mut groups = vec![prep];
    for (fp, b, g) in items {
        h.u64(fp);
        bag.merge(&b);
        groups.push(g);
    }
    bag.add("wall_s", wall);
    bag.add("threads", ssmc_sim::threads().min(machines) as f64);
    finish_outcome(h.0, bag, machines as u64, &groups, job)
}

/// The memfs or storage pass over the leading [`LAYER_PASS_OPS`]
/// operations of each machine's (prefix) trace, one machine after
/// another.
fn layer_pass(job: &Job, traces: Vec<Trace>) -> Outcome {
    let cfg = job.bench.machine();
    let mut bag = Bag::default();
    for trace in &traces {
        match job.pass {
            Pass::Memfs => memfs_machine(&cfg, trace, &mut bag),
            Pass::Storage => storage_machine(&cfg, trace, &mut bag),
            Pass::Plain | Pass::Traced => unreachable!("machine passes replay the machine"),
        }
        set_progress(bag.get("machines") as u64);
    }
    let completed = if job.bench == Bench::MailFleet {
        traces.len() as u64
    } else {
        traces[0].records.len() as u64
    };
    finish_outcome(0, bag, completed, &[], job)
}

/// Builds the storage manager exactly as `MobileComputer::new` does.
fn storage_manager(cfg: &MachineConfig) -> (StorageManager, SharedClock) {
    let clock = Clock::shared();
    let mut sc = cfg.storage.clone();
    sc.dram_buffer_bytes = cfg.buffer_bytes();
    (StorageManager::new(sc, clock.clone()), clock)
}

fn memfs_machine(cfg: &MachineConfig, trace: &Trace, bag: &mut Bag) {
    let (sm, clock) = storage_manager(cfg);
    let mut fs = MemFs::new(sm, cfg.write_policy).expect("fresh format cannot fail");
    let mut st = MemfsState {
        fds: DenseIndex::new(1 << 16),
        scratch: Vec::new(),
        path: String::new(),
        path2: String::new(),
    };
    let mut hists: [LogHist; 8] = Default::default();
    let (mut total, mut errors) = (0u64, 0u64);
    for r in &trace.records {
        clock.advance_to(r.at);
        let t0 = Instant::now();
        let _ = fs.tick();
        errors += u64::from(memfs_apply(&mut fs, &mut st, &r.op).is_err());
        let dt = t0.elapsed().as_nanos() as u64;
        total += dt;
        hists[kind_index(&r.op)].record(dt);
    }
    for (k, h) in hists.iter().enumerate() {
        bag.hists
            .entry(format!("memfs.{}", KINDS[k]))
            .or_default()
            .merge(h);
    }
    bag.add("memfs_errors", errors as f64);
    bag.add("memfs_pass_s", total as f64 / 1e9);
    bag.add("machines", 1.0);
}

struct MemfsState {
    fds: DenseIndex<u64>,
    scratch: Vec<u8>,
    path: String,
    path2: String,
}

fn trace_path(buf: &mut String, file: u64) -> &str {
    use std::fmt::Write as _;
    buf.clear();
    let _ = write!(buf, "/t{file}");
    buf
}

/// One trace operation through the file system's public API, with the
/// same path naming and descriptor caching the machine uses.
fn memfs_fd(fs: &mut MemFs, st: &mut MemfsState, file: u64) -> Result<u64, FsError> {
    if let Some(fd) = st.fds.get(file) {
        return Ok(fd);
    }
    let fd = fs.open(trace_path(&mut st.path, file), OpenMode::Write)?;
    st.fds.insert(file, fd);
    Ok(fd)
}

fn memfs_apply(fs: &mut MemFs, st: &mut MemfsState, op: &FileOp) -> Result<(), FsError> {
    match *op {
        FileOp::Create { file } => {
            let fd = fs.create(trace_path(&mut st.path, file))?;
            st.fds.insert(file, fd);
        }
        FileOp::Write { file, offset, len } => {
            let fd = memfs_fd(fs, st, file)?;
            if st.scratch.len() < len as usize {
                st.scratch.resize(len as usize, 0xA5);
            }
            fs.write(fd, offset, &st.scratch[..len as usize])?;
        }
        FileOp::Read { file, offset, len } => {
            let fd = memfs_fd(fs, st, file)?;
            fs.read_discard(fd, offset, len)?;
        }
        FileOp::Truncate { file, len } => {
            let fd = memfs_fd(fs, st, file)?;
            fs.ftruncate(fd, len)?;
        }
        FileOp::Delete { file } => {
            st.fds.remove(file);
            fs.unlink(trace_path(&mut st.path, file))?;
        }
        FileOp::Stat { file } => {
            fs.stat(trace_path(&mut st.path, file))?;
        }
        FileOp::Rename { file, to } => {
            fs.rename(
                trace_path(&mut st.path, file),
                trace_path(&mut st.path2, to),
            )?;
            if let Some(fd) = st.fds.get(file) {
                st.fds.remove(file);
                st.fds.insert(to, fd);
            }
        }
        FileOp::Sync => fs.sync()?,
    }
    Ok(())
}

fn storage_machine(cfg: &MachineConfig, trace: &Trace, bag: &mut Bag) {
    let (mut sm, clock) = storage_manager(cfg);
    let page = sm.page_size();
    let ops = project(
        trace,
        &OracleConfig {
            page_size: page,
            ..OracleConfig::default()
        },
    );
    let buf = vec![0xA5u8; page as usize];
    const NAMES: [&str; 4] = [
        "storage.write_page",
        "storage.free_page",
        "storage.sync",
        "storage.tick",
    ];
    let mut hists: [LogHist; 4] = Default::default();
    let (mut total, mut errors) = (0u64, 0u64);
    for op in &ops {
        let t0 = Instant::now();
        let (i, res) = match op.kind {
            PageOpKind::Write => (0, sm.write_page(op.page, &buf)),
            PageOpKind::Free => (1, sm.free_page(op.page)),
            PageOpKind::Sync => (2, sm.sync()),
            PageOpKind::Tick => {
                // The torture harness's maintenance step.
                clock.advance(SimDuration::from_millis(250));
                (3, sm.tick())
            }
        };
        let dt = t0.elapsed().as_nanos() as u64;
        total += dt;
        errors += u64::from(res.is_err());
        hists[i].record(dt);
    }
    for (name, h) in NAMES.iter().zip(&hists) {
        bag.hists.entry((*name).to_owned()).or_default().merge(h);
    }
    bag.add("storage_errors", errors as f64);
    bag.add("storage_pass_s", total as f64 / 1e9);
    bag.add("storage_page_ops", ops.len() as f64);
    bag.add("machines", 1.0);
}
