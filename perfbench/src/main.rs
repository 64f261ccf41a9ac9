//! The repository benchmark: replays three workloads through the stack
//! from outside, checks the simulated output, and prints end-to-end
//! metrics (or, with `--trace 1`, per-layer metrics) with a JSON summary
//! as the last line of standard output. README.md describes the
//! workloads and every metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bsd-stream --seed 21932 --seconds 60 --trace 0
//! ```

mod bag;
mod metrics;
mod spans;
mod worker;
mod workloads;

use bag::Bag;
use metrics::{mean, median, ratio, self_time, Accounting};
use ssmc_core::MobileComputer;
use ssmc_sim::Value;
use ssmc_trace::{OpStream, OpStreamWriter};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use worker::{Job, Outcome, Pass, KINDS};
use workloads::Bench;

const USAGE: &str = "usage: perfbench --workload <bsd-stream|db-update|mail-fleet> \
[--seed N] [--seconds S] [--trace 0|1]";

/// Default seed: the trace generator's own default, so the BSD stream at
/// this seed is the repository's `stream_bsd_1m` trace.
const DEFAULT_SEED: u64 = 0x55AC;

/// Set-up repetitions per run; set-up time is their median.
const SETUP_REPS: usize = 3;

/// Timed replays of each unit per run; host rates are their median. The
/// host's own load varies from second to second, and the simulated
/// results of the replays must agree exactly.
const PLAIN_REPS: usize = 2;

/// Extra host time a worker gets past its budget before the
/// orchestrator kills it (the watchdog normally ends it first).
const KILL_GRACE: Duration = Duration::from_secs(30);

struct Cli {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut bench = None;
    let mut cli = Cli {
        bench: Bench::BsdStream,
        seed: DEFAULT_SEED,
        seconds: 60.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                bench = Some(Bench::parse(val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => cli.seed = val.parse().map_err(|_| format!("bad seed {val:?}"))?,
            "--seconds" => {
                cli.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {val:?}"))?
            }
            "--trace" => {
                cli.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    cli.bench = bench.ok_or("--workload is required")?;
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        worker::run(&parse_job(&args[1..]));
        return ExitCode::SUCCESS;
    }
    match parse_cli(&args) {
        Ok(cli) => run(&cli),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Worker arguments come only from the orchestrator.
fn parse_job(args: &[String]) -> Job {
    let mut kv = BTreeMap::new();
    for pair in args.chunks(2) {
        kv.insert(pair[0].as_str(), pair.get(1).cloned().unwrap_or_default());
    }
    let get = |k: &str| {
        kv.get(k)
            .cloned()
            .unwrap_or_else(|| panic!("worker needs {k}"))
    };
    let num = |k: &str| get(k).parse::<u64>().unwrap_or_else(|_| panic!("bad {k}"));
    Job {
        bench: Bench::parse(&get("--workload")).expect("worker workload"),
        seed: num("--seed"),
        unit: num("--unit") as usize,
        limit: num("--limit"),
        budget: Duration::from_millis(num("--budget-ms")),
        pass: Pass::parse(&get("--pass")).expect("worker pass"),
        threads: num("--threads") as usize,
        result: PathBuf::from(get("--result")),
        ops_file: kv.get("--ops-file").map(PathBuf::from),
        spans: kv.get("--spans").map(PathBuf::from),
    }
}

/// Where runs keep their compiled streams, spans and fingerprints.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one worker process and reads its result.
fn spawn(job: &Job) -> Result<Outcome, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.arg("--worker")
        .args(["--pass", job.pass.name()])
        .args(["--workload", job.bench.name()])
        .args(["--seed", &job.seed.to_string()])
        .args(["--unit", &job.unit.to_string()])
        .args(["--limit", &job.limit.to_string()])
        .args(["--budget-ms", &job.budget.as_millis().to_string()])
        .args(["--threads", &job.threads.to_string()])
        .arg("--result")
        .arg(&job.result);
    if let Some(p) = &job.ops_file {
        cmd.arg("--ops-file").arg(p);
    }
    if let Some(p) = &job.spans {
        cmd.arg("--spans").arg(p);
    }
    let _ = std::fs::remove_file(&job.result);
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn worker: {e}"))?;
    let deadline = Instant::now() + job.budget + KILL_GRACE;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{} worker ignored its budget", job.pass.name()));
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    if !status.success() {
        return Err(format!(
            "{} worker of unit {} failed: {status}",
            job.pass.name(),
            job.unit
        ));
    }
    let out = Outcome::read(&job.result).ok_or("worker wrote no readable result")?;
    let _ = std::fs::remove_file(&job.result);
    Ok(out)
}

/// One unit's finished run.
struct UnitRun {
    outcome: Outcome,
    /// Leading steps replayed (all of them unless the budget cut).
    limit: u64,
    /// Whether the first attempt ran out of budget.
    cut: bool,
    /// Host rates (ok, tail, head ok ops/s) of each timed replay.
    rates: Vec<[f64; 3]>,
    /// Whether every replay reached the first one's fingerprint.
    repeats_agree: bool,
}

impl UnitRun {
    /// The median replay's rates.
    fn rate(&self, which: usize) -> f64 {
        median(&self.rates.iter().map(|r| r[which]).collect::<Vec<_>>())
    }
}

/// Ok, tail and head ok ops/s of one replay. The fleet's windows are
/// timed per replaying thread; scaling by the unit's parallelism makes
/// them comparable with its wall-clock rate.
fn rates(b: &Bag) -> [f64; 3] {
    let wall = unit_wall(b);
    let parallel = ratio(b.get("replay_s"), wall);
    [
        ratio(b.get("ok"), wall),
        ratio(b.get("tail_ok"), b.get("tail_s")) * parallel,
        ratio(b.get("head_ok"), b.get("head_s")) * parallel,
    ]
}

/// Steps in a full unit: operations, or machines for the fleet.
fn full_steps(bench: Bench) -> u64 {
    match bench {
        Bench::MailFleet => bench.machines_per_unit() as u64,
        _ => bench.ops_per_machine() as u64,
    }
}

/// Operations one unit generates.
fn unit_ops(bench: Bench) -> u64 {
    (bench.machines_per_unit() * bench.ops_per_machine()) as u64
}

struct Ctx {
    bench: Bench,
    seed: u64,
    share: Duration,
    threads: usize,
    tag: String,
}

impl Ctx {
    /// The compiled stream unit `unit` replays from (bsd-stream only).
    fn ops_file(&self, unit: usize) -> Option<PathBuf> {
        (self.bench == Bench::BsdStream)
            .then(|| out_dir().join(format!("{}-u{unit}.ops", self.tag)))
    }

    fn job(&self, unit: usize, pass: Pass, limit: u64, budget: Duration) -> Job {
        let out = out_dir();
        Job {
            bench: self.bench,
            seed: self.seed,
            unit,
            limit,
            budget,
            pass,
            threads: self.threads,
            ops_file: self.ops_file(unit),
            result: out.join(format!("{}-u{unit}-{}.json", self.tag, pass.name())),
            // One spans file per workload unit, overwritten by each traced
            // run: the bsd-stream journal alone is over 100 MB.
            spans: (pass == Pass::Traced)
                .then(|| out.join(format!("spans-{}-u{unit}.csv", self.bench.name()))),
        }
    }

    /// The timed plain pass of one unit. A cut attempt is followed by a
    /// replay of exactly the prefix that completed, which reports the
    /// simulated state and host timing of the operations applied. The
    /// finished replay is then repeated until there are [`PLAIN_REPS`].
    fn plain_unit(&self, unit: usize) -> Result<UnitRun, String> {
        let mut limit = full_steps(self.bench);
        let mut budget = self.share;
        let mut cut = false;
        for _ in 0..4 {
            let o = spawn(&self.job(unit, Pass::Plain, limit, budget))?;
            if o.cut {
                cut = true;
                limit = o.completed;
                budget = self.share * 2;
                continue;
            }
            let mut run = UnitRun {
                rates: vec![rates(&o.bag)],
                repeats_agree: true,
                outcome: o,
                limit,
                cut,
            };
            for _ in 1..PLAIN_REPS {
                let again = spawn(&self.job(unit, Pass::Plain, limit, self.share * 2))?;
                run.repeats_agree &= !again.cut && again.fingerprint == run.outcome.fingerprint;
                run.rates.push(rates(&again.bag));
            }
            return Ok(run);
        }
        Err(format!(
            "unit {unit}: prefix replays kept running out of budget"
        ))
    }
}

/// One set-up of the workload: generate (and compile) its traces and
/// construct its machines. Returns host seconds.
fn setup_once(ctx: &Ctx) -> Result<f64, String> {
    let (bench, seed) = (ctx.bench, ctx.seed);
    let t0 = Instant::now();
    for unit in 0..bench.units() {
        for machine in 0..bench.machines_per_unit() {
            let gen = bench.generator(seed, unit, machine);
            match bench {
                Bench::BsdStream => {
                    let path = ctx.ops_file(unit).expect("bsd-stream streams from a file");
                    let mut w =
                        OpStreamWriter::create(&path, bench.name()).map_err(|e| e.to_string())?;
                    gen.generate_into(&mut w).map_err(|e| e.to_string())?;
                    w.finish().map_err(|e| e.to_string())?;
                }
                Bench::DbUpdate => {
                    black_box(gen.generate());
                }
                Bench::MailFleet => {
                    black_box(OpStream::compile(&gen.generate()));
                }
            }
            black_box(MobileComputer::new(bench.machine()));
        }
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// The set-up split by layer for the traced report: seconds generating,
/// seconds compiling, and construction per machine.
fn setup_layers(bench: Bench, seed: u64) -> Bag {
    let mut bag = Bag::default();
    for unit in 0..bench.units() {
        for machine in 0..bench.machines_per_unit() {
            let t0 = Instant::now();
            let trace = bench.generator(seed, unit, machine).generate();
            let t1 = Instant::now();
            if bench.streamed() {
                black_box(OpStream::compile(&trace));
                bag.add("compile_s", t1.elapsed().as_secs_f64());
            }
            let t2 = Instant::now();
            black_box(MobileComputer::new(bench.machine()));
            bag.add("generate_s", (t1 - t0).as_secs_f64());
            bag.add("construct_s", t2.elapsed().as_secs_f64());
            bag.add("machines", 1.0);
        }
    }
    bag
}

/// FNV-1a of this executable: fingerprints are only compared between
/// runs of the same build.
fn exe_hash() -> String {
    let mut h = worker::Fnv::new();
    h.bytes(
        &std::env::current_exe()
            .and_then(std::fs::read)
            .unwrap_or_default(),
    );
    format!("{:016x}", h.0)
}

/// Compares a unit's fingerprint with the one an earlier run of the same
/// build, workload, seed and prefix recorded, recording it if new.
fn check_repeat(dir: &Path, key: &str, fp: &str) -> Result<bool, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(key);
    match std::fs::read_to_string(&path) {
        Ok(old) => Ok(old.trim() == fp),
        Err(_) => {
            std::fs::write(&path, fp).map_err(|e| e.to_string())?;
            Ok(true)
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Whether it goes into the JSON line.
    json: bool,
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
        json: true,
    });
}

fn run(cli: &Cli) -> ExitCode {
    match run_inner(cli) {
        Ok(correct) => {
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_inner(cli: &Cli) -> Result<bool, String> {
    let bench = cli.bench;
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let tag = format!("{}-{}-{}", bench.name(), cli.seed, std::process::id());
    let threads = ssmc_sim::threads();
    let ctx = Ctx {
        bench,
        seed: cli.seed,
        share: Duration::from_secs_f64(cli.seconds / bench.units() as f64),
        threads,
        tag,
    };
    println!(
        "perfbench {} seed {} budget {:.1} s ({} unit(s)) on {threads} host thread(s)",
        bench.name(),
        cli.seed,
        cli.seconds,
        bench.units()
    );

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        setups.push(setup_once(&ctx)?);
    }
    let setup_s = median(&setups);

    let result = measure(cli, &ctx, setup_s);
    for unit in 0..bench.units() {
        if let Some(p) = ctx.ops_file(unit) {
            let _ = std::fs::remove_file(p);
        }
    }
    result
}

fn measure(cli: &Cli, ctx: &Ctx, setup_s: f64) -> Result<bool, String> {
    let bench = ctx.bench;
    let mut checks: Vec<(String, bool)> = Vec::new();
    let runs: Vec<UnitRun> = (0..bench.units())
        .map(|u| ctx.plain_unit(u))
        .collect::<Result<_, _>>()?;

    // Accounting: every generated operation was applied or cut.
    let mut acct = Accounting::default();
    let mut plain = Bag::default();
    let mut attempted_ok = true;
    let mut wall = 0.0;
    let mut cut_units = Vec::new();
    for (u, r) in runs.iter().enumerate() {
        let b = &r.outcome.bag;
        let unit = Accounting {
            generated: unit_ops(bench),
            applied: b.get("applied") as u64,
            ok: b.get("ok") as u64,
        };
        // The worker applied exactly the steps it was asked for: all of
        // them, or the prefix a cut left.
        let asked_ops = match bench {
            Bench::MailFleet => r.limit * bench.ops_per_machine() as u64,
            _ => r.limit,
        };
        let replayed_all = unit.applied == asked_ops
            && if r.cut {
                r.limit < full_steps(bench)
            } else {
                b.get("generated") as u64 == unit_ops(bench) && asked_ops == unit.generated
            };
        attempted_ok &= unit.consistent() && replayed_all;
        if r.cut {
            cut_units.push(format!(
                "unit {u} cut after {} of {} steps",
                r.limit,
                full_steps(bench)
            ));
        }
        acct.merge(&unit);
        wall += unit_wall(b);
        plain.merge(b);
    }
    checks.push((
        "every generated op attempted or counted as cut".into(),
        attempted_ok,
    ));

    // Repeated runs of the same build, workload, seed and prefix must
    // reach the same simulated state.
    let exe = exe_hash();
    let mut repeat_ok = true;
    for (u, r) in runs.iter().enumerate() {
        let key = format!("{exe}-{}-{}-u{u}-{}", bench.name(), cli.seed, r.limit);
        repeat_ok &= check_repeat(
            &out_dir().join("fingerprints"),
            &key,
            &r.outcome.fingerprint,
        )?;
    }
    checks.push((
        "fingerprint matches earlier runs of this build".into(),
        repeat_ok,
    ));
    checks.push((
        format!("{PLAIN_REPS} replays of each unit agree"),
        runs.iter().all(|r| r.repeats_agree),
    ));

    if bench == Bench::MailFleet && ctx.threads > 1 {
        let one = spawn(&Job {
            threads: 1,
            ..ctx.job(0, Pass::Plain, runs[0].limit, ctx.share * 3)
        })?;
        checks.push((
            format!("fleet identical at 1 and {} threads", ctx.threads),
            !one.cut && one.fingerprint == runs[0].outcome.fingerprint,
        ));
    }

    let e2e = end_to_end(&runs, &plain, &acct, setup_s);
    print_report(bench, &e2e, &runs, &plain, &acct, &cut_units);

    let mut layer = Vec::new();
    if cli.trace {
        let (l, traced_ok) = per_layer(cli, ctx, &runs, &plain, wall)?;
        checks.push(("traced run fingerprint matches untraced".into(), traced_ok));
        println!(
            "\nper-layer metrics (self shares are approximate: differences of separate passes)"
        );
        for m in &l {
            println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        layer = l;
    }

    println!("\ncorrectness checks");
    for (name, ok) in &checks {
        println!("  [{}] {name}", if *ok { "ok" } else { "FAIL" });
    }
    let correct = checks.iter().all(|(_, ok)| *ok);
    let shown = if cli.trace { &layer } else { &e2e };
    let metrics = shown
        .iter()
        .filter(|m| m.json)
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let summary = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(acct.generated as i64)),
        ("failed".into(), Value::Int(acct.failed() as i64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", summary.encode());
    Ok(correct)
}

/// Host seconds of a unit's timed replay: the sweep's wall clock for
/// the fleet, the replay itself otherwise.
fn unit_wall(b: &Bag) -> f64 {
    if b.get("wall_s") > 0.0 {
        b.get("wall_s")
    } else {
        b.get("replay_s")
    }
}

/// End-to-end metrics. Rates are per unit and reported as the median
/// unit; simulated costs are per machine and averaged over machines (a
/// per-machine p99 clusters on a few file sizes, so the median machine
/// jumps between clusters from seed to seed); the success ratio pools
/// every operation of the run. Metrics
/// flagged `json: false` are printed but left out of the JSON line:
/// failed_op_ratio is 0 on healthy workloads, and the simulated medians
/// repeat exactly across seeds (a fixed per-operation cost).
fn end_to_end(runs: &[UnitRun], p: &Bag, acct: &Accounting, setup_s: f64) -> Vec<Metric> {
    let mut m = Vec::new();
    let ok: Vec<f64> = runs.iter().map(|r| r.rate(0)).collect();
    let tail: Vec<f64> = runs.iter().map(|r| r.rate(1)).collect();
    metric(&mut m, "ok_ops_per_s", median(&ok), "1/s");
    metric(&mut m, "tail_ok_ops_per_s", median(&tail), "1/s");
    metric(&mut m, "ok_op_ratio", acct.ok_ratio(), "share");
    metric(&mut m, "failed_op_ratio", acct.failed_ratio(), "share");
    metric(&mut m, "setup_s", setup_s, "s");
    metric(&mut m, "peak_rss_mb", p.get("peak_rss_kb") / 1024.0, "MB");
    for (name, key, unit) in [
        ("sim_write_amplification", "wa", "ratio"),
        ("sim_write_traffic_reduction", "wtr", "share"),
        ("sim_write_p50_ms", "write_p50_ms", "ms"),
        ("sim_write_p99_ms", "write_p99_ms", "ms"),
        ("sim_read_p50_ms", "read_p50_ms", "ms"),
        ("sim_read_p99_ms", "read_p99_ms", "ms"),
        ("sim_energy_j", "energy_j", "J"),
        ("sim_lifetime_years", "lifetime_years", "years"),
    ] {
        metric(&mut m, name, mean(p.machines(key)), unit);
    }
    for x in &mut m {
        x.json = !matches!(
            x.name.as_str(),
            "failed_op_ratio" | "sim_write_p50_ms" | "sim_read_p50_ms"
        );
    }
    m
}

fn print_report(
    bench: Bench,
    e2e: &[Metric],
    runs: &[UnitRun],
    p: &Bag,
    acct: &Accounting,
    cut_units: &[String],
) {
    println!(
        "\nend-to-end metrics ({}; * = printed only, not in the JSON line)",
        bench.name()
    );
    for m in e2e {
        let star = if m.json { ' ' } else { '*' };
        println!("  {:<30}{star}{:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "\nper unit: ok / applied ops; ok, tail and head ok ops/s (median of {PLAIN_REPS} replays)"
    );
    for (u, r) in runs.iter().enumerate() {
        let b = &r.outcome.bag;
        let each: Vec<String> = r.rates.iter().map(|x| format!("{:.0}", x[0])).collect();
        println!(
            "  unit {u}: {} / {}; {:.0}, {:.0}, {:.0} (ok ops/s of each replay: {})",
            b.get("ok"),
            b.get("applied"),
            r.rate(0),
            r.rate(1),
            r.rate(2),
            each.join(", "),
        );
    }
    println!(
        "\noperations: {} generated, {} applied, {} ok, {} failed ({} failed when applied, {} never applied: budget cut)",
        acct.generated,
        acct.applied,
        acct.ok,
        acct.failed(),
        acct.failed_applied(),
        acct.not_applied()
    );
    for c in cut_units {
        println!("  {c}");
    }
    let by_kind: Vec<String> = KINDS
        .iter()
        .filter_map(|k| {
            let n = p.get(&format!("fail.{k}"));
            (n > 0.0).then(|| format!("{k} {n}"))
        })
        .collect();
    if !by_kind.is_empty() {
        println!("  failed ops by kind: {}", by_kind.join(", "));
    }
    let mut errors: Vec<(&String, &u64)> = p.errors.iter().collect();
    errors.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (msg, n) in errors.iter().take(5) {
        println!("  {n:>9} x {msg}");
    }
}

/// The traced, file-system and storage passes over exactly the
/// operations the plain pass applied, and the per-layer metrics from
/// them. Returns the metrics and whether every traced fingerprint
/// matched its untraced run.
fn per_layer(
    cli: &Cli,
    ctx: &Ctx,
    runs: &[UnitRun],
    p: &Bag,
    wall: f64,
) -> Result<(Vec<Metric>, bool), String> {
    let bench = ctx.bench;
    let budget = ctx.share * 3 + Duration::from_secs(30);
    let mut traced = Bag::default();
    let mut memfs = Bag::default();
    let mut storage = Bag::default();
    let mut fp_ok = true;
    let mut traced_wall = 0.0;
    for (u, r) in runs.iter().enumerate() {
        let t = spawn(&ctx.job(u, Pass::Traced, r.limit, budget))?;
        fp_ok &= !t.cut && t.fingerprint == r.outcome.fingerprint;
        let b = &t.bag;
        traced_wall += unit_wall(b);
        traced.merge(b);
        memfs.merge(&spawn(&ctx.job(u, Pass::Memfs, r.limit, budget))?.bag);
        storage.merge(&spawn(&ctx.job(u, Pass::Storage, r.limit, budget))?.bag);
    }
    let g = setup_layers(bench, cli.seed);

    let mut m = Vec::new();
    metric(&mut m, "trace.generate_s", g.get("generate_s"), "s");
    metric(&mut m, "trace.compile_s", g.get("compile_s"), "s");
    metric(
        &mut m,
        "trace.decode_ns_per_op",
        ratio(traced.get("decode_ns"), traced.get("decode_calls")),
        "ns",
    );
    metric(
        &mut m,
        "trace.coalesced_op_share",
        ratio(p.get("coalesced_ops"), p.get("applied")),
        "share",
    );
    metric(
        &mut m,
        "core.construct_ms",
        ratio(g.get("construct_s"), g.get("machines")) * 1e3,
        "ms",
    );
    for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
        for k in KINDS {
            let v = traced.hist_percentile(&format!("apply.{k}"), q);
            metric(&mut m, format!("core.apply_ns_{tag}.{k}"), v as f64, "ns");
        }
    }
    // Self time compares passes over the same leading operations.
    let machine_s = traced.get("prefix_apply_ns") / 1e9;
    let memfs_s = memfs.get("memfs_pass_s");
    let storage_s = storage.get("storage_pass_s");
    metric(
        &mut m,
        "core.self_share",
        ratio(self_time(machine_s, memfs_s), machine_s),
        "share",
    );
    for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
        for k in KINDS {
            let v = memfs.hist_percentile(&format!("memfs.{k}"), q);
            metric(&mut m, format!("memfs.op_ns_{tag}.{k}"), v as f64, "ns");
        }
    }
    metric(&mut m, "memfs.dindex_depth", p.get("dindex_depth"), "count");
    metric(
        &mut m,
        "memfs.dindex_splits",
        p.get("dindex_splits"),
        "count",
    );
    metric(
        &mut m,
        "memfs.self_share",
        ratio(self_time(memfs_s, storage_s), machine_s),
        "share",
    );
    metric(
        &mut m,
        "storage.write_page_ns_p50",
        storage.hist_percentile("storage.write_page", 0.5) as f64,
        "ns",
    );
    metric(
        &mut m,
        "storage.write_page_ns_p99",
        storage.hist_percentile("storage.write_page", 0.99) as f64,
        "ns",
    );
    metric(
        &mut m,
        "storage.tick_ns_p99",
        storage.hist_percentile("storage.tick", 0.99) as f64,
        "ns",
    );
    metric(
        &mut m,
        "storage.sync_ns_p99",
        storage.hist_percentile("storage.sync", 0.99) as f64,
        "ns",
    );
    metric(
        &mut m,
        "storage.self_share",
        ratio(storage_s, machine_s),
        "share",
    );
    metric(&mut m, "storage.gc_runs", p.get("gc_runs"), "count");
    metric(
        &mut m,
        "storage.gc_runs_per_kpage",
        ratio(p.get("gc_runs"), p.get("pages_written") / 1e3),
        "1/kpage",
    );
    metric(
        &mut m,
        "storage.gc_op_host_share",
        ratio(traced.get("gc_apply_ns"), traced.get("apply_ns")),
        "share",
    );
    for name in [
        "gc_flash_pages",
        "user_flash_pages",
        "wear_migrations",
        "overwrites_absorbed",
        "deaths_absorbed",
    ] {
        metric(&mut m, format!("storage.{name}"), p.get(name), "count");
    }
    metric(&mut m, "storage.gc_wait_s", p.get("gc_wait_ns") / 1e9, "s");
    let flash_ops = p.get("flash_programs") + p.get("flash_erases") + p.get("flash_reads");
    for (name, key) in [
        ("device.flash_programs", "flash_programs"),
        ("device.flash_erases", "flash_erases"),
        ("device.flash_reads", "flash_reads"),
        ("device.max_erases", "max_erases"),
        ("device.bad_blocks", "bad_blocks"),
    ] {
        metric(&mut m, name, p.get(key), "count");
    }
    metric(
        &mut m,
        "device.read_stall_s",
        p.get("read_stall_ns") / 1e9,
        "s",
    );
    metric(
        &mut m,
        "device.host_ns_per_flash_op",
        ratio(p.get("replay_s") * 1e9, flash_ops),
        "ns",
    );
    let threads = p.get("threads").max(1.0);
    let busy = if p.get("busy_s") > 0.0 {
        p.get("busy_s")
    } else {
        p.get("replay_s")
    };
    metric(
        &mut m,
        "sim.sweep_busy_share",
        ratio(busy, wall * threads),
        "share",
    );
    metric(&mut m, "sim.simulated_s", p.get("sim_ns") / 1e9, "s");
    metric(
        &mut m,
        "sim.tracing_overhead",
        ratio(traced_wall, wall),
        "ratio",
    );
    Ok((m, fp_ok))
}
