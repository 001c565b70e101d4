//! Differential oracle between the two runtime front-ends.
//!
//! `protocol.rs` states that the deterministic `ReconfigManager` and the
//! threaded `ThreadedManager` run the same protocol functions and so
//! produce byte-identical virtual-time outcomes. This suite turns that
//! claim into a tested property: one seeded serial script of `execute`
//! requests runs through `ReconfigManager::run_with_fallback` and through
//! `ThreadedManager::execute_blocking` at 1 and 4 workers, under the
//! stress recovery policy, across a seed × fault-rate matrix. The three
//! runs must agree on every counter, the makespan, every request's
//! outcome and the trace log (minus the threaded path's own `sched.*`
//! records and the sequence column those records shift).

use presp::accel::{AccelOp, AccelValue, AcceleratorKind};
use presp::events::trace::{log_lines, TraceRecord};
use presp::events::{MemorySink, SharedSink};
use presp::fpga::bitstream::{Bitstream, BitstreamBuilder, BitstreamKind};
use presp::fpga::fault::{FaultConfig, FaultPlan, SplitMix64};
use presp::fpga::frame::FrameAddress;
use presp::runtime::manager::{ExecPath, ManagerStats, ReconfigManager, RecoveryPolicy};
use presp::runtime::registry::BitstreamRegistry;
use presp::runtime::scheduler::DEFAULT_CACHE_CAPACITY;
use presp::runtime::threaded::{SpawnConfig, ThreadedManager};
use presp::runtime::Error as RuntimeError;
use presp::soc::config::{SocConfig, TileCoord};
use presp::soc::sim::Soc;

const TILES: usize = 4;
const REQUESTS: usize = 40;
const SEEDS: [u64; 5] = [1, 13, 77, 200, 999];
const RATES: [f64; 4] = [0.0, 0.1, 0.3, 0.6];

fn bitstream(soc: &Soc, col: u32) -> Bitstream {
    let device = soc.part().device();
    let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
    let words = device.part().family().frame_words();
    b.add_frame(FrameAddress::new(0, 1 + col % 60, 0), vec![col; words])
        .unwrap();
    b.build(true)
}

/// The recovery policy of the `stress_dpr` suite.
fn stress_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: 2,
        backoff_cycles: 32,
        backoff_multiplier: 2,
        quarantine_after: 2,
        cpu_fallback: true,
        ..RecoveryPolicy::default()
    }
}

/// A faulty SoC with a trace sink attached, its tiles, and a registry
/// holding a Mac and a Sort stream for every reconfigurable tile.
fn fabric(seed: u64, rate: f64) -> (Soc, Vec<TileCoord>, BitstreamRegistry, SharedSink) {
    let cfg = SocConfig::grid_3x3_reconf("differential", TILES).unwrap();
    let mut soc = Soc::new(&cfg).unwrap();
    soc.set_fault_plan(Some(FaultPlan::new(seed, FaultConfig::uniform(rate))));
    let sink = MemorySink::shared();
    soc.attach_tracer(sink.clone());
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    for (i, &tile) in tiles.iter().enumerate() {
        registry
            .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2 + i as u32))
            .unwrap();
        registry
            .register(tile, AcceleratorKind::Sort, bitstream(&soc, 30 + i as u32))
            .unwrap();
    }
    (soc, tiles, registry, sink)
}

/// The seeded serial script: `REQUESTS` executes on seeded tiles,
/// alternating Mac and Sort.
fn script(seed: u64, tiles: &[TileCoord]) -> Vec<(TileCoord, AcceleratorKind, AccelOp)> {
    let mut rng = SplitMix64::new(seed ^ 0xD1FF_D1FF_D1FF_D1FF);
    (0..REQUESTS)
        .map(|i| {
            let tile = tiles[rng.below(tiles.len() as u64) as usize];
            let x = (1 + i) as f32;
            if i.is_multiple_of(2) {
                let op = AccelOp::Mac {
                    a: vec![x; 4],
                    b: vec![0.5; 4],
                };
                (tile, AcceleratorKind::Mac, op)
            } else {
                let op = AccelOp::Sort {
                    data: vec![x, 3.0, 1.0 + (i % 5) as f32],
                };
                (tile, AcceleratorKind::Sort, op)
            }
        })
        .collect()
}

/// Everything the two front-ends must agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: ManagerStats,
    makespan: u64,
    outcomes: Vec<Result<(AccelValue, ExecPath), RuntimeError>>,
    trace: String,
}

/// The trace log without the threaded path's `sched.*` records and
/// without the sequence column (those records shift every later seq).
fn protocol_trace(records: &[TraceRecord]) -> String {
    let kept: Vec<TraceRecord> = records
        .iter()
        .filter(|r| !r.event.name().starts_with("sched."))
        .cloned()
        .collect();
    log_lines(&kept)
        .lines()
        .map(|line| line.split_once(' ').map_or(line, |(_seq, rest)| rest))
        .collect::<Vec<_>>()
        .join("\n")
}

fn run_deterministic(seed: u64, rate: f64) -> Observed {
    let (soc, tiles, registry, sink) = fabric(seed, rate);
    let mut manager = ReconfigManager::with_policy(soc, registry, stress_policy());
    manager.set_bitstream_cache_capacity(DEFAULT_CACHE_CAPACITY);
    let outcomes = script(seed, &tiles)
        .into_iter()
        .map(|(tile, kind, op)| {
            manager
                .run_with_fallback(tile, kind, &op)
                .map(|(run, path)| (run.value, path))
        })
        .collect();
    Observed {
        stats: manager.stats(),
        makespan: manager.makespan(),
        outcomes,
        trace: protocol_trace(&presp::events::sink::snapshot(&sink)),
    }
}

fn run_threaded(seed: u64, rate: f64, workers: usize) -> Observed {
    let (soc, tiles, registry, sink) = fabric(seed, rate);
    let manager: ThreadedManager = ThreadedManager::spawn_with(
        soc,
        registry,
        SpawnConfig {
            policy: stress_policy(),
            workers: Some(workers),
            ..SpawnConfig::default()
        },
    );
    let outcomes = script(seed, &tiles)
        .into_iter()
        .map(|(tile, kind, op)| {
            manager
                .execute_blocking(tile, kind, op)
                .map(|(run, path)| (run.value, path))
        })
        .collect();
    // Shutdown joins the workers, so post-reply bookkeeping is settled.
    manager.shutdown();
    Observed {
        stats: manager.stats(),
        makespan: manager.makespan(),
        outcomes,
        trace: protocol_trace(&presp::events::sink::snapshot(&sink)),
    }
}

#[test]
fn deterministic_and_threaded_managers_agree_at_any_worker_count() {
    let mut quarantines = 0;
    let mut fallbacks = 0;
    for seed in SEEDS {
        for rate in RATES {
            let reference = run_deterministic(seed, rate);
            assert!(
                reference.stats.consistent(),
                "seed {seed} rate {rate}: {:?}",
                reference.stats
            );
            quarantines += reference.stats.quarantines;
            fallbacks += reference.stats.fallback_runs;
            for workers in [1, 4] {
                assert_eq!(
                    run_threaded(seed, rate, workers),
                    reference,
                    "seed {seed} rate {rate} workers {workers}: threaded run diverged"
                );
            }
        }
    }
    // The matrix must reach the recovery machinery, not agree vacuously
    // on fault-free runs.
    assert!(quarantines > 0, "some cell quarantined a tile");
    assert!(fallbacks > 0, "some cell degraded to the CPU");
}
