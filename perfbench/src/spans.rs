//! The traced pass's span journal. Spans are recorded by the benchmark
//! around its own calls into each layer, kept in memory, and written as
//! CSV when the worker ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Host time origin of every span in the process.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the process's span origin.
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// The layer boundary a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Root of one unit or sweep item: one machine's whole replay.
    Machine,
    /// `GeneratorConfig::generate`.
    Generate,
    /// `OpStream::compile`.
    Compile,
    /// `MobileComputer::new`.
    Construct,
    /// One `next_record` call.
    Decode,
    /// One `TraceTarget::apply`.
    Apply,
    /// One `BatchTarget::apply_batch` of two or more records.
    ApplyBatch,
}

impl Name {
    fn as_str(self) -> &'static str {
        match self {
            Name::Machine => "machine",
            Name::Generate => "trace.generate",
            Name::Compile => "trace.compile",
            Name::Construct => "core.construct",
            Name::Decode => "trace.next_record",
            Name::Apply => "core.apply",
            Name::ApplyBatch => "core.apply_batch",
        }
    }
}

/// Simulator counters read at a span's boundaries through public
/// accessors; a span stores their change across it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `StorageMetrics::gc_runs`.
    pub gc_runs: u64,
    /// `FlashCounters::programs`.
    pub programs: u64,
    /// `FlashCounters::erases`.
    pub erases: u64,
    /// `FlashCounters::reads`.
    pub reads: u64,
}

impl Counters {
    /// Change from `before` to `self`.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            gc_runs: self.gc_runs - before.gc_runs,
            programs: self.programs - before.programs,
            erases: self.erases - before.erases,
            reads: self.reads - before.reads,
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary kind.
    pub name: Name,
    /// Host start, ns since the origin.
    pub start: u64,
    /// Host end, ns since the origin.
    pub end: u64,
    /// First operation index (within the machine) the span covers.
    pub op: u64,
    /// Counter changes across the span.
    pub delta: Counters,
}

/// The spans of one machine: a root span and its children.
#[derive(Debug, Clone)]
pub struct Group {
    root: Span,
    children: Vec<Span>,
}

impl Group {
    /// A group whose root starts now.
    pub fn start() -> Group {
        Group {
            root: Span {
                name: Name::Machine,
                start: now_ns(),
                end: 0,
                op: 0,
                delta: Counters::default(),
            },
            children: Vec::new(),
        }
    }

    /// Adds a child span.
    pub fn push(&mut self, name: Name, start: u64, end: u64, op: u64, delta: Counters) {
        self.children.push(Span {
            name,
            start,
            end,
            op,
            delta,
        });
    }

    /// Closes the root span now.
    pub fn finish(&mut self) {
        self.root.end = now_ns();
    }

    /// Appends another group's children (spans recorded by a helper).
    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.children.extend(spans);
    }
}

/// Writes every group as CSV: `id,parent,name,start_ns,end_ns,op,`
/// followed by the four counter deltas. Root spans have an empty parent.
pub fn write_csv(path: &Path, groups: &[Group]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "id,parent,name,start_ns,end_ns,op,gc_runs,flash_programs,flash_erases,flash_reads"
    )?;
    let mut id = 0u64;
    for g in groups {
        let root = id;
        for (s, parent) in
            std::iter::once((&g.root, None)).chain(g.children.iter().map(|s| (s, Some(root))))
        {
            let parent = parent.map(|p: u64| p.to_string()).unwrap_or_default();
            writeln!(
                w,
                "{id},{parent},{},{},{},{},{},{},{},{}",
                s.name.as_str(),
                s.start,
                s.end,
                s.op,
                s.delta.gc_runs,
                s.delta.programs,
                s.delta.erases,
                s.delta.reads
            )?;
            id += 1;
        }
    }
    w.flush()
}
