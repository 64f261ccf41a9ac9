//! Timeline flight-recorder guarantees the observability stack rests on:
//!
//! * the registry and the timeline carry the same metric set (they are
//!   one walk into two sinks), and the sealed final row equals the
//!   end-of-run registry values;
//! * fixed-seed timelines are byte-identical across repeats and across
//!   `--threads` settings (the sampler stamps SimTime only);
//! * `obs-diff` reports an empty diff when a run is compared against
//!   itself, and a non-empty one across genuinely different runs.

use ssmc::sim::obs::Instrument;
use ssmc::sim::timeline::{ChannelKind, Timeline, TICK_CHANNEL};
use ssmc::sim::{set_threads, SimDuration};
use ssmc::trace::{GeneratorConfig, Workload};
use ssmc_bench::obs_diff::{diff, DiffInput, DiffOptions};
use ssmc_bench::obs_trace::{throughput_machine, timeline_replay, traced_replay, TRACE_SEED};
use std::path::PathBuf;

/// A per-test temp path that survives parallel test execution.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ssmc_tl_test_{}_{name}", std::process::id()))
}

/// The registry and the timeline come from one metrics walk, so their
/// metric sets must match in both directions: every timeline channel
/// except `timeline.tick` has a same-named registry instrument, and every
/// registry instrument except the lazily-populated per-component
/// `energy.*_nj` ledger accounts has a channel. Values must agree with
/// the sealed final row; kinds must map Counter→Counter and
/// Gauge/TimeWeighted→Gauge (a time-weighted instrument samples its
/// current level).
#[test]
fn final_row_matches_end_of_run_registry() {
    let trace = GeneratorConfig::new(Workload::Bsd)
        .with_ops(2_000)
        .with_seed(TRACE_SEED)
        .with_max_live_bytes(4 << 20)
        .generate();
    let path = tmp("coverage.tl");
    let mut m = throughput_machine();
    m.enable_timeline_file(&path, SimDuration::from_millis(50))
        .expect("enable timeline");
    let report = ssmc::core::run_trace(&mut m, &trace);
    assert_eq!(report.replay.errors, 0, "coverage replay must be clean");
    let registry = m.metrics_registry();
    // Sealing takes one final unconditional sample at the current clock,
    // the same instant the registry snapshot above was taken.
    let summary = m
        .finish_timeline()
        .expect("finish timeline")
        .expect("timeline stayed healthy");
    let tl = Timeline::read(&path).expect("read timeline back");
    let _ = std::fs::remove_file(&path);
    assert_eq!(summary.rows, tl.rows() as u64);
    assert_eq!(summary.channels as usize, tl.channels().len());
    assert!(tl.rows() > 10, "50 ms sampling must yield many rows");

    let last = tl.rows() - 1;
    // Timeline → registry: every channel but the tick, with its final value.
    for (ch, channel) in tl.channels().iter().enumerate() {
        let name = channel.name.as_str();
        if name == TICK_CHANNEL {
            continue;
        }
        let instrument = registry
            .get(name)
            .unwrap_or_else(|| panic!("timeline channel {name} has no registry instrument"));
        match instrument {
            Instrument::Counter(v) => {
                assert_eq!(channel.kind, ChannelKind::Counter, "{name} kind");
                assert_eq!(
                    tl.value(last, ch),
                    *v,
                    "{name}: final row diverged from the registry"
                );
            }
            Instrument::Gauge(v) => {
                assert_eq!(channel.kind, ChannelKind::Gauge, "{name} kind");
                let got = tl.gauge(last, ch);
                assert!(
                    got == *v || (got.is_nan() && v.is_nan()),
                    "{name}: final gauge {got} != registry {v}"
                );
            }
            Instrument::TimeWeighted(t) => {
                assert_eq!(channel.kind, ChannelKind::Gauge, "{name} samples as a level gauge");
                assert_eq!(tl.gauge(last, ch), t.level(), "{name}: final level diverged");
            }
            Instrument::Histogram(_) => {
                unreachable!("the machine registry publishes no histograms; {name} is new")
            }
        }
    }
    // Registry → timeline: everything but the per-component ledger
    // accounts, whose scalar `energy.*_total_nj` totals are channels.
    for (name, _) in registry.iter() {
        let ledger_account =
            name.starts_with("energy.") && name.ends_with("_nj") && !name.ends_with("_total_nj");
        if ledger_account {
            continue;
        }
        assert!(
            tl.channel_index(name).is_some(),
            "registry instrument {name} has no timeline channel"
        );
    }
    for name in ["energy.flash_total_nj", "energy.dram_total_nj", "energy.vm_total_nj"] {
        assert!(tl.channel_index(name).is_some(), "{name} channel missing");
    }
    assert!(
        tl.channels().iter().any(|c| c.name.starts_with("storage.segment_wear.")),
        "per-segment wear channels missing"
    );
}

/// Fixed-seed timelines must be byte-identical across repeats and across
/// worker-thread settings: the sampler fires on SimTime boundaries only,
/// so nothing host-dependent can reach the artifact.
#[test]
fn fixed_seed_timelines_are_byte_identical() {
    let run = |name: &str| {
        let path = tmp(name);
        timeline_replay(Workload::Bsd, 2_000, SimDuration::from_millis(50), &path)
            .expect("timeline replay");
        let bytes = std::fs::read(&path).expect("read timeline bytes");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let a = run("det_a.tl");
    let b = run("det_b.tl");
    assert!(!a.is_empty());
    assert_eq!(a, b, "two fixed-seed timelines diverged");

    set_threads(1);
    let seq = run("det_t1.tl");
    set_threads(4);
    let par = run("det_t4.tl");
    set_threads(0); // restore the host default
    assert_eq!(seq, par, "timeline bytes changed with the thread count");
    assert_eq!(a, seq, "timeline bytes drifted between phases");
}

/// Property: any run diffed against itself is clean, for timelines and
/// trace artifacts alike, across workloads and op counts — and a
/// cross-workload diff is not.
#[test]
fn obs_diff_self_compare_is_empty() {
    let opts = DiffOptions::default();
    let mut kept: Vec<DiffInput> = Vec::new();
    for workload in [Workload::Bsd, Workload::Office] {
        for ops in [500u64, 1_500] {
            let name = format!("self_{workload:?}_{ops}.tl").to_lowercase();
            let make = |tag: &str| {
                let path = tmp(&format!("{tag}_{name}"));
                timeline_replay(workload, ops, SimDuration::from_millis(100), &path)
                    .expect("timeline replay");
                let tl = Timeline::read(&path).expect("read timeline");
                let _ = std::fs::remove_file(&path);
                DiffInput::Timeline(tl)
            };
            let (a, b) = (make("a"), make("b"));
            let report = diff(&a, &b, &opts);
            assert!(
                report.is_clean(),
                "self-compare of {workload:?}/{ops} found drift:\n{}",
                report.render()
            );
            kept.push(a);
        }
    }
    // Different workloads at the same op count must not diff clean.
    let cross = diff(&kept[0], &kept[2], &opts);
    assert!(!cross.is_clean(), "bsd vs office timelines diffed clean");

    // The same property holds for trace artifacts.
    let a = DiffInput::Artifact(Box::new(traced_replay(Workload::Bsd, 1_000)));
    let b = DiffInput::Artifact(Box::new(traced_replay(Workload::Bsd, 1_000)));
    let report = diff(&a, &b, &opts);
    assert!(
        report.is_clean(),
        "artifact self-compare found drift:\n{}",
        report.render()
    );
    // And an artifact can be diffed against a timeline of the same run
    // shape without shape errors exploding (drift is expected — they
    // summarize different things — but shared metrics must align).
    let mixed = diff(&a, &kept[0], &opts);
    assert!(
        mixed.compared > 0,
        "artifact×timeline diff compared no shared metrics"
    );
}
