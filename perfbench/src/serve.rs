//! `runtime_serve`: the threaded runtime manager serving requests.
//!
//! A 16-tile `grid_reconf` fabric with single-frame pbs (MAC and Sort on
//! every tile) is booted with `ThreadedManager::spawn` — default policy,
//! one worker per tile, the 16-entry bitstream cache — with a
//! `ShardedSink` attached. Two closed-loop clients each submit a round and
//! wait for every reply before the next: a coalescible burst of three
//! MAC reconfigurations, a Sort execute on the same tile and a MAC
//! execute on a second tile. One op is one request. The 32 (tile, kind)
//! pairs overflow the 16-entry cache. Between rounds, client 0 drains
//! the sink every `DRAIN_ROUNDS` rounds, as a service exporting its
//! trace would, so memory does not grow with the requests served.

use crate::inputs;
use crate::report::Outcome;
use crate::spans::{Spans, REPLAY};
use crate::stats;
use crate::Config;
use presp_accel::{AccelInstance, AccelOp, AccelValue, AcceleratorKind};
use presp_events::ShardedSink;
use presp_fpga::bitstream::{Bitstream, BitstreamBuilder, BitstreamKind};
use presp_fpga::frame::FrameAddress;
use presp_fpga::icap::Icap;
use presp_runtime::manager::{ExecPath, ReconfigManager};
use presp_runtime::registry::BitstreamRegistry;
use presp_runtime::threaded::ThreadedManager;
use presp_soc::config::{SocConfig, TileCoord};
use presp_soc::sim::Soc;
use std::time::{Duration, Instant};

/// Reconfigurable tiles of the fabric.
pub const TILES: usize = 16;
/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Identical reconfigurations per round (coalescible).
const BURST: usize = 3;
/// Requests per round: the burst plus two executes.
const PER_ROUND: usize = BURST + 2;
/// Rounds per client whose spans are kept; later rounds run untraced so
/// the span file stays small.
const SPAN_ROUNDS: usize = 2_000;
/// Rounds of client 0 between two drains of the trace sink.
const DRAIN_ROUNDS: usize = 512;
/// Rounds replayed on the deterministic manager for the layer metrics.
const REPLAY_ROUNDS: usize = 400;

/// One client round's parameters.
#[derive(Debug, Clone, Copy)]
struct Round {
    tile: usize,
    mac_tile: usize,
    payload: usize,
    mac: usize,
}

/// The seeded request mix and its references.
struct Mix {
    rounds: Vec<Vec<Round>>,
    sort: Vec<Vec<f32>>,
    sort_ref: Vec<AccelValue>,
    mac: Vec<f32>,
    mac_ref: Vec<AccelValue>,
}

fn mix(config: &Config) -> Mix {
    let mut rng = inputs::rng(config.seed, 4);
    let (pool, len, per_client) = if config.tiny {
        (4, 16, 16)
    } else {
        (64, 256, 4_096)
    };
    let sort: Vec<Vec<f32>> = (0..pool)
        .map(|_| (0..len).map(|_| rng.below(1_000_003) as f32).collect())
        .collect();
    let mac: Vec<f32> = (0..pool).map(|_| rng.below(1_000) as f32 / 8.0).collect();
    let rounds = (0..CLIENTS)
        .map(|_| {
            (0..per_client)
                .map(|_| {
                    let tile = rng.below(TILES as u64) as usize;
                    let offset = 1 + rng.below(TILES as u64 - 1) as usize;
                    Round {
                        tile,
                        mac_tile: (tile + offset) % TILES,
                        payload: rng.below(pool as u64) as usize,
                        mac: rng.below(pool as u64) as usize,
                    }
                })
                .collect()
        })
        .collect();
    // References, computed before set-up and measurement.
    let sort_ref = sort
        .iter()
        .map(|data| {
            AccelInstance::new(AcceleratorKind::Sort)
                .execute(&AccelOp::Sort { data: data.clone() })
                .expect("sort reference")
        })
        .collect();
    let mac_ref = mac.iter().map(|&x| mac_op_value(x)).collect();
    Mix {
        rounds,
        sort,
        sort_ref,
        mac,
        mac_ref,
    }
}

fn mac_op(x: f32) -> AccelOp {
    AccelOp::Mac {
        a: vec![x; 8],
        b: vec![2.0; 8],
    }
}

fn mac_op_value(x: f32) -> AccelValue {
    AccelInstance::new(AcceleratorKind::Mac)
        .execute(&mac_op(x))
        .expect("mac reference")
}

/// A single-frame partial bitstream at a distinct column.
fn bitstream(soc: &Soc, col: u32) -> Bitstream {
    let device = soc.part().device();
    let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
    let words = device.part().family().frame_words();
    b.add_frame(FrameAddress::new(0, 1 + col % 60, 0), vec![col; words])
        .expect("frame address on the device");
    b.build(true)
}

/// The fabric and its registry: MAC and Sort pbs for every tile.
fn fabric() -> Result<(Soc, BitstreamRegistry, Vec<TileCoord>), String> {
    let cfg = SocConfig::grid_reconf("serve", TILES).map_err(|e| e.to_string())?;
    let soc = Soc::new(&cfg).map_err(|e| e.to_string())?;
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    for (i, &tile) in tiles.iter().enumerate() {
        registry
            .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2 + i as u32))
            .map_err(|e| e.to_string())?;
        registry
            .register(tile, AcceleratorKind::Sort, bitstream(&soc, 130 + i as u32))
            .map_err(|e| e.to_string())?;
    }
    Ok((soc, registry, tiles))
}

/// A booted manager with its trace sink.
struct Served {
    manager: ThreadedManager,
    sink: ShardedSink,
    tiles: Vec<TileCoord>,
}

/// Set-up: fabric, registry, worker pool, sink, and one warm-up round
/// per client.
fn boot(mix: &Mix) -> Result<Served, String> {
    let (soc, registry, tiles) = fabric()?;
    let workers = soc.config().reconfigurable_tiles().len();
    let manager = ThreadedManager::spawn(soc, registry);
    let sink = ShardedSink::new(workers);
    manager.attach_sharded_tracer(&sink);
    let served = Served {
        manager,
        sink,
        tiles,
    };
    let mut off = Spans::new(false, Instant::now());
    for c in 0..CLIENTS {
        let mut warm = Requests::default();
        client_round(
            &served,
            mix,
            &mix.rounds[c][0],
            0,
            false,
            &mut off,
            &mut warm,
        );
        if warm.failed > 0 {
            return Err("warm-up round failed".into());
        }
    }
    Ok(served)
}

/// A client's record of its requests.
#[derive(Debug, Default)]
struct Requests {
    latency_ns: Vec<u64>,
    failed: u64,
    cpu_fallbacks: u64,
    submitted: u64,
    /// Trace records drained by this client, and each drain's duration.
    drained_records: u64,
    drain_ns: Vec<u64>,
}

/// One closed-loop round: submit every request, then wait for every
/// reply. Latency runs from a request's submission to its reply being
/// observed. `wrong` perturbs the references.
fn client_round(
    served: &Served,
    mix: &Mix,
    round: &Round,
    op: u64,
    wrong: bool,
    spans: &mut Spans,
    out: &mut Requests,
) {
    let m = &served.manager;
    let tile = served.tiles[round.tile];
    let mac_tile = served.tiles[round.mac_tile];
    spans.time("bench.round", op, |s| {
        let mut submitted = Vec::with_capacity(BURST);
        for _ in 0..BURST {
            let at = Instant::now();
            let p = s.time("sched.submit", op, |_| {
                m.submit_reconfigure(tile, AcceleratorKind::Mac)
            });
            submitted.push((at, p));
        }
        let at_sort = Instant::now();
        let sort = s.time("sched.submit", op, |_| {
            m.submit_execute(
                tile,
                AcceleratorKind::Sort,
                AccelOp::Sort {
                    data: mix.sort[round.payload].clone(),
                },
            )
        });
        let at_mac = Instant::now();
        let mac = s.time("sched.submit", op, |_| {
            m.submit_execute(mac_tile, AcceleratorKind::Mac, mac_op(mix.mac[round.mac]))
        });
        out.submitted += PER_ROUND as u64;
        for (at, p) in submitted {
            let reply = s.time("sched.wait", op, |_| p.wait());
            out.latency_ns.push(at.elapsed().as_nanos() as u64);
            out.failed += u64::from(reply.is_err());
        }
        for (at, p, expected) in [
            (at_sort, sort, &mix.sort_ref[round.payload]),
            (at_mac, mac, &mix.mac_ref[round.mac]),
        ] {
            let reply = s.time("sched.wait", op, |_| p.wait());
            out.latency_ns.push(at.elapsed().as_nanos() as u64);
            match reply {
                Ok((run, path)) => {
                    out.cpu_fallbacks += u64::from(path == ExecPath::CpuFallback);
                    let ok = run.value == *expected && !wrong;
                    out.failed += u64::from(!ok);
                }
                Err(_) => out.failed += 1,
            }
        }
    });
}

/// Both clients run rounds until `budget` of wall time has passed.
/// Returns each client's requests, spans and the rounds it ran.
fn measure(
    served: &Served,
    mix: &Mix,
    budget: Duration,
    start_round: &mut [usize],
    trace: bool,
    origin: Instant,
    wrong: bool,
) -> (Vec<Requests>, Vec<Spans>, Duration) {
    let started = Instant::now();
    let results: Vec<(Requests, Spans, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let first = start_round[c];
                scope.spawn(move || {
                    let mut out = Requests::default();
                    let mut spans = Spans::new(trace, origin);
                    let mut off = Spans::new(false, origin);
                    let rounds = &mix.rounds[c];
                    let mut r = first;
                    while started.elapsed() < budget || r == first {
                        let op = (c * 1_000_000_000 + r) as u64;
                        let rec = if r - first < SPAN_ROUNDS {
                            &mut spans
                        } else {
                            &mut off
                        };
                        let round = &rounds[r % rounds.len()];
                        client_round(served, mix, round, op, wrong, rec, &mut out);
                        r += 1;
                        if c == 0 && r.is_multiple_of(DRAIN_ROUNDS) {
                            let started = Instant::now();
                            let records =
                                rec.time("events.drain", op, |_| served.sink.drain_merged().len());
                            out.drain_ns.push(started.elapsed().as_nanos() as u64);
                            out.drained_records += records as u64;
                        }
                    }
                    (out, spans, r)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut requests = Vec::new();
    let mut spans = Vec::new();
    for (c, (req, sp, next)) in results.into_iter().enumerate() {
        start_round[c] = next;
        requests.push(req);
        spans.push(sp);
    }
    (requests, spans, elapsed)
}

/// One replayed reconfiguration request, as a `runtime.reconfig` span
/// when it loads a bitstream and `runtime.driver_hit` when it does not.
fn reconfigure(
    manager: &mut ReconfigManager,
    spans: &mut Spans,
    tile: TileCoord,
    kind: AcceleratorKind,
) -> Result<(), String> {
    let at = manager.tile_idle_at(tile);
    let started = Instant::now();
    let result = manager.request_reconfiguration_at(tile, kind, at);
    let ended = Instant::now();
    match result {
        Ok(Some(_)) => spans.push("runtime.reconfig", REPLAY, started, ended),
        Ok(None) => spans.push("runtime.driver_hit", REPLAY, started, ended),
        Err(e) => return Err(format!("replay reconfigure: {e}")),
    }
    Ok(())
}

/// Deterministic replay of the clients' rounds on a `ReconfigManager`
/// over the same fabric, for the reconfiguration, scrub, ICAP and SoC
/// layer metrics. Returns the manager and the requests replayed.
fn replay(
    mix: &Mix,
    rounds: &[usize],
    spans: &mut Spans,
) -> Result<(ReconfigManager, u64), String> {
    let (soc, registry, tiles) = fabric()?;
    let device = soc.part().device();
    let pbs: Vec<Bitstream> = (0..TILES as u32)
        .flat_map(|i| [bitstream(&soc, 2 + i), bitstream(&soc, 130 + i)])
        .collect();
    let mut manager = ReconfigManager::new(soc, registry);
    manager.set_bitstream_cache_capacity(presp_runtime::scheduler::DEFAULT_CACHE_CAPACITY);
    let mut requests = 0u64;
    let longest = rounds.iter().copied().max().unwrap_or(0).min(REPLAY_ROUNDS);
    for r in 0..longest {
        for (c, &ran) in rounds.iter().enumerate() {
            if r >= ran {
                continue;
            }
            let round = mix.rounds[c][r % mix.rounds[c].len()];
            let (tile, mac_tile) = (tiles[round.tile], tiles[round.mac_tile]);
            for _ in 0..BURST {
                reconfigure(&mut manager, spans, tile, AcceleratorKind::Mac)?;
            }
            let sort = AccelOp::Sort {
                data: mix.sort[round.payload].clone(),
            };
            for (t, kind, op) in [
                (tile, AcceleratorKind::Sort, sort),
                (mac_tile, AcceleratorKind::Mac, mac_op(mix.mac[round.mac])),
            ] {
                let at = manager.tile_idle_at(t);
                spans
                    .time("runtime.execute", REPLAY, |_| {
                        manager.run_with_fallback_at(t, kind, &op, at)
                    })
                    .map_err(|e| format!("replay execute: {e}"))?;
            }
            requests += PER_ROUND as u64;
        }
    }
    let at = manager.makespan();
    spans
        .time("runtime.scrub", REPLAY, |_| manager.scrub_all_at(at))
        .map_err(|e| format!("replay scrub: {e}"))?;
    let mut icap = Icap::new(&device);
    for b in &pbs {
        spans
            .time("fpga.icap", REPLAY, |_| icap.load(b))
            .map_err(|e| format!("replay ICAP load: {e}"))?;
    }
    Ok((manager, requests))
}

/// Runs `runtime_serve`.
///
/// # Errors
///
/// Returns a message when set-up or the replay fails.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::new("runtime_serve");
    let mix = mix(config);
    out.facts.push(format!(
        "{TILES}-tile grid_reconf fabric, {CLIENTS} closed-loop clients, rounds of {BURST} \
         reconfigure + Sort({}) execute + MAC execute",
        mix.sort[0].len()
    ));

    let mut setup_s = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..config.setups(25) {
        if let Some(old) = served.take() {
            old.manager.shutdown();
        }
        let started = Instant::now();
        served = Some(boot(&mix)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let served = served.expect("at least one set-up");

    let origin = Instant::now();
    let (plain_budget, traced_budget) = config.phases();
    let mut next_round = vec![1usize; CLIENTS];
    let wrong = config.wrong_reference;
    let (plain, _, plain_wall) = measure(
        &served,
        &mix,
        plain_budget,
        &mut next_round,
        false,
        origin,
        wrong,
    );
    let plain_requests: u64 = plain.iter().map(|r| r.latency_ns.len() as u64).sum();
    let stats_mid = served.manager.scheduler_stats();
    let mgr_mid = served.manager.stats();
    let traced_round_start = next_round.clone();
    let traced = traced_budget
        .map(|budget| measure(&served, &mix, budget, &mut next_round, true, origin, wrong));

    // Run-wide checks: every submission answered, accounting consistent.
    let sched = served.manager.scheduler_stats();
    let mgr = served.manager.stats();
    let cache = served.manager.cache_stats();
    let makespan = served.manager.makespan();
    served.manager.shutdown();
    let drained = Instant::now();
    let last_records = served.sink.drain_merged().len() as u64;
    let last_drain_ns = drained.elapsed().as_nanos() as u64;

    let all: Vec<&Requests> = plain
        .iter()
        .chain(traced.iter().flat_map(|(r, _, _)| r.iter()))
        .collect();
    let submitted: u64 = all.iter().map(|r| r.submitted).sum();
    let answered: u64 = all.iter().map(|r| r.latency_ns.len() as u64).sum();
    if answered != submitted {
        out.run_errors
            .push(format!("{submitted} submitted but {answered} answered"));
    }
    // Submissions the scheduler saw, including the warm-up rounds.
    let warmup = (CLIENTS * PER_ROUND) as u64;
    if sched.admitted + sched.coalesced != submitted + warmup || sched.completed != sched.admitted {
        out.run_errors.push(format!(
            "scheduler accounting: admitted {} + coalesced {} vs {} submitted, {} completed",
            sched.admitted,
            sched.coalesced,
            submitted + warmup,
            sched.completed
        ));
    }
    if !mgr.consistent() {
        out.run_errors
            .push(format!("ManagerStats::consistent() failed: {mgr:?}"));
    }
    out.attempted = submitted;
    out.failed = all.iter().map(|r| r.failed).sum();
    stats::record_failures(&mut out);

    let op_ms: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.latency_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    stats::record_host(
        &mut out,
        &op_ms,
        plain_requests as f64 / plain_wall.as_secs_f64(),
        &setup_s,
    );
    out.set(
        "sim_op_ms",
        stats::sim_ms(makespan as f64) / (answered + warmup) as f64,
    );
    let drains: Vec<u64> = all
        .iter()
        .flat_map(|r| r.drain_ns.iter().copied())
        .chain([last_drain_ns])
        .collect();
    let records = last_records + all.iter().map(|r| r.drained_records).sum::<u64>();
    out.set(
        "events.drain_ms",
        drains.iter().sum::<u64>() as f64 / 1e6 / drains.len() as f64,
    );
    out.set(
        "events.records_per_op",
        records as f64 / (answered + warmup) as f64,
    );

    if let Some((traced, client_spans, traced_wall)) = traced {
        let n: u64 = traced.iter().map(|r| r.latency_ns.len() as u64).sum();
        let nf = n as f64;
        let mean_latency_ms = traced
            .iter()
            .flat_map(|r| r.latency_ns.iter())
            .map(|&ns| ns as f64 / 1e6)
            .sum::<f64>()
            / nf;
        let mut spans = Spans::new(true, origin);
        for s in client_spans {
            spans.absorb(s);
        }
        // Scheduler counters over the traced phase.
        let jobs = (sched.completed - stats_mid.completed).max(1) as f64;
        let per_job_us = |now: u64, mid: u64| (now - mid) as f64 / 1e3 / jobs;
        let prepare_us = per_job_us(sched.stage_prepare_nanos, stats_mid.stage_prepare_nanos);
        let gate_us = per_job_us(sched.stage_gate_wait_nanos, stats_mid.stage_gate_wait_nanos);
        let commit_us = per_job_us(sched.stage_commit_nanos, stats_mid.stage_commit_nanos);
        out.set("sched.prepare_us", prepare_us);
        out.set("sched.gate_wait_us", gate_us);
        out.set("sched.commit_us", commit_us);
        let share = |us: f64| us / 1e3 * jobs / nf / mean_latency_ms;
        out.set("sched.prepare_share", share(prepare_us));
        out.set("sched.gate_wait_share", share(gate_us));
        out.set("sched.commit_share", share(commit_us));
        out.set("sched.submit_us", spans.mean_ms("sched.submit") * 1e3);
        out.set(
            "sched.queue_wait_us_p50",
            sched.wait_percentile_micros(50.0) as f64,
        );
        out.set(
            "sched.queue_wait_us_p99",
            sched.wait_percentile_micros(99.0) as f64,
        );
        out.set("sched.max_queue_depth", sched.max_queue_depth as f64);
        let coalesced = (sched.coalesced - stats_mid.coalesced) as f64;
        let admitted = (sched.admitted - stats_mid.admitted) as f64;
        out.set("sched.coalesce_ratio", coalesced / (coalesced + admitted));
        let requests = (mgr.reconfig_requests - mgr_mid.reconfig_requests) as f64;
        let reconfigs = (mgr.reconfigurations - mgr_mid.reconfigurations) as f64;
        let hits = (mgr.cache_hits - mgr_mid.cache_hits) as f64;
        out.set("runtime.reconfigs_per_op", reconfigs / nf);
        out.set(
            "runtime.driver_hit_ratio",
            if requests > 0.0 { hits / requests } else { 0.0 },
        );
        out.set("runtime.bitstream_cache_hit_ratio", cache.hit_rate());
        out.set("runtime.retries", (mgr.retries - mgr_mid.retries) as f64);
        out.set(
            "runtime.cpu_fallbacks",
            traced.iter().map(|r| r.cpu_fallbacks).sum::<u64>() as f64,
        );

        // Layer replays on the deterministic manager.
        let ran: Vec<usize> = next_round
            .iter()
            .zip(&traced_round_start)
            .map(|(end, start)| end - start)
            .collect();
        let (replayed, replay_requests) = replay(&mix, &ran, &mut spans)?;
        let soc = replayed.soc();
        let rq = replay_requests.max(1) as f64;
        let rstats = replayed.stats();
        out.set(
            "soc.reconfig_cycles_per_op",
            rstats.reconfig_cycles as f64 / rq,
        );
        out.set(
            "soc.icap_contention_cycles",
            soc.icap_contention_cycles() as f64 / rq,
        );
        out.set(
            "soc.dram_contention_cycles",
            soc.dram_contention_cycles() as f64 / rq,
        );
        out.set(
            "soc.noc_contention_cycles",
            soc.noc_contention_cycles() as f64 / rq,
        );
        out.set("soc.noc_transfers_per_op", soc.noc_transfers() as f64 / rq);
        out.set("soc.mj_per_op", soc.energy_report().total_j() * 1e3 / rq);
        let reconfig_ms = spans.mean_ms("runtime.reconfig");
        let icap_ms = spans.mean_ms("fpga.icap");
        out.set("runtime.reconfig_ms", reconfig_ms);
        out.set("runtime.scrub_ms", spans.mean_ms("runtime.scrub"));
        out.set("fpga.icap_load_ms", icap_ms);
        let (icap_ns, loads) = spans.total("fpga.icap");
        let pbs_bytes = bitstream(soc, 2).size_bytes() as f64;
        out.set(
            "fpga.icap_mb_per_s",
            pbs_bytes * loads as f64 / 1e6 / (icap_ns as f64 / 1e9),
        );
        out.set("fpga.pbs_kb_per_op", pbs_bytes / 1024.0 * reconfigs / nf);

        // Self time per request: reconfigurations attributed from the
        // replay, everything else is the scheduler's path.
        let r = reconfigs / nf;
        let fpga = r * icap_ms;
        let runtime = r * (reconfig_ms - icap_ms);
        stats::record_shares(
            &mut out,
            &[
                ("sched", mean_latency_ms - fpga - runtime),
                ("runtime", runtime),
                ("fpga", fpga),
            ],
            mean_latency_ms,
        );
        stats::record_overhead(
            &mut out,
            plain_requests as f64 / plain_wall.as_secs_f64(),
            nf / traced_wall.as_secs_f64(),
        );
        crate::report::write_spans(&out.workload, config, &spans)?;
    }
    Ok(out)
}
