//! `wami_swap` and `wami_static`: deployed WAMI SoCs fed seeded frames.
//!
//! One op is one steady-state frame through `WamiApp::process_frame`,
//! round-robin over the design set. `wami_swap` deploys the Fig. 4 SoCs
//! plus seed-drawn Table VI-style partitions, so every frame swaps
//! accelerators, and follows each frame with a full `scrub_all_at`
//! readback sweep as `fig4` does. `wami_static` deploys Table IV SoC_A
//! plus a seed-drawn neighbour of it (one kernel swapped for another):
//! after the warm-up frames every kernel is already loaded, so no op
//! reconfigures.

use crate::inputs;
use crate::report::Outcome;
use crate::spans::{Spans, REPLAY};
use crate::stats;
use crate::Config;
use presp_accel::catalog::AcceleratorKind;
use presp_core::design::SocDesign;
use presp_core::flow::{FlowOutput, PrEspFlow};
use presp_core::platform::{deploy, deploy_wami};
use presp_fpga::icap::Icap;
use presp_runtime::app::{WamiAllocation, WamiApp};
use presp_wami::change_detection::GmmConfig;
use presp_wami::graph::WamiKernel;
use presp_wami::image::BayerImage;
use presp_wami::lucas_kanade::LkConfig;
use presp_wami::pipeline::{Pipeline, PipelineConfig};
use presp_wami::warp::AffineParams;
use std::time::{Duration, Instant};

/// Gauss-Newton iterations per frame, fixed as in `fig4`.
pub const LK_ITERATIONS: usize = 2;

/// Border band the app masks out of the LK solve.
pub const BORDER_MARGIN: usize = 4;

/// Which WAMI workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Accelerator swapping on every frame, plus a scrub sweep.
    Swap,
    /// One kernel per tile: no reconfiguration after warm-up.
    Static,
}

/// A variant's inputs.
struct Spec {
    name: &'static str,
    designs: Vec<SocDesign>,
    frame_size: usize,
    pool: usize,
    warmup: usize,
    scrub: bool,
}

fn spec(variant: Variant, config: &Config) -> Spec {
    let tiny = config.tiny;
    match variant {
        Variant::Swap => {
            let mut rng = inputs::rng(config.seed, 1);
            let mut designs = inputs::fig4_designs();
            designs.push(inputs::table6_partition(&mut rng, "part_1", 3));
            designs.push(inputs::table6_partition(&mut rng, "part_2", 4));
            Spec {
                name: "wami_swap",
                designs,
                frame_size: if tiny { 32 } else { 64 },
                pool: if tiny { 4 } else { 32 },
                warmup: 1,
                scrub: true,
            }
        }
        Variant::Static => {
            let mut rng = inputs::rng(config.seed, 2);
            let mut designs = vec![inputs::table4_designs().remove(0)];
            designs.push(inputs::soc_a_neighbour(&mut rng, "soc_a_nb"));
            Spec {
                name: "wami_static",
                designs,
                frame_size: if tiny { 32 } else { 256 },
                pool: if tiny { 4 } else { 16 },
                // Frame 1 loads the front-end kernels, frame 2 the LK ones.
                warmup: 2,
                scrub: false,
            }
        }
    }
}

/// One deployed design.
struct Deployed {
    design: SocDesign,
    flow: FlowOutput,
    app: WamiApp,
    /// Frames this design has processed (its index into the sequence).
    next: usize,
}

/// What one op produced.
struct Op {
    design: usize,
    frame: usize,
    host_ns: u64,
    output: Result<(usize, Option<AffineParams>), String>,
    sim_cycles: u64,
    reconfigs: u64,
    reconfig_cycles: u64,
    cpu_fallbacks: u64,
    scrub_wait: u64,
}

fn frame_of(frames: &[BayerImage], i: usize) -> &BayerImage {
    &frames[inputs::pingpong(i, frames.len())]
}

fn setup(spec: &Spec, frames: &[BayerImage]) -> Result<Vec<Deployed>, String> {
    spec.designs
        .iter()
        .map(|design| {
            let flow = PrEspFlow::new()
                .run(design)
                .map_err(|e| format!("{}: flow: {e}", design.name))?;
            let mut app = deploy_wami(design, &flow, LK_ITERATIONS)
                .map_err(|e| format!("{}: deploy: {e}", design.name))?;
            for w in 0..spec.warmup {
                app.process_frame(frame_of(frames, w))
                    .map_err(|e| format!("{}: warm-up frame {w}: {e}", design.name))?;
                if spec.scrub {
                    let at = app.manager().makespan();
                    app.manager_mut()
                        .scrub_all_at(at)
                        .map_err(|e| format!("{}: warm-up scrub: {e}", design.name))?;
                }
            }
            Ok(Deployed {
                design: design.clone(),
                flow,
                app,
                next: spec.warmup,
            })
        })
        .collect()
}

/// Processes frames round-robin over the designs until the ops' summed
/// host time reaches `budget`.
fn measure(
    spec: &Spec,
    deployed: &mut [Deployed],
    frames: &[BayerImage],
    budget: Duration,
    first_op: u64,
    spans: &mut Spans,
) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut spent = Duration::ZERO;
    let mut i = 0usize;
    while spent < budget || ops.is_empty() {
        let d = i % deployed.len();
        let dep = &mut deployed[d];
        let frame_idx = dep.next;
        let frame = frame_of(frames, frame_idx);
        let op_id = first_op + i as u64;
        let started = Instant::now();
        let (report, scrub_wait) = spans.time("bench.op", op_id, |s| {
            let report = s.time("runtime.frame", op_id, |_| dep.app.process_frame(frame));
            let mut waited = 0;
            if spec.scrub {
                let at = dep.app.manager().makespan();
                s.time("runtime.scrub", op_id, |_| {
                    if let Ok(sweep) = dep.app.manager_mut().scrub_all_at(at) {
                        waited = sweep.iter().map(|(_, r)| r.waited).sum();
                    }
                });
            }
            (report, waited)
        });
        let host = started.elapsed();
        spent += host;
        dep.next += 1;
        let op = match report {
            Ok(r) => Op {
                design: d,
                frame: frame_idx,
                host_ns: host.as_nanos() as u64,
                output: Ok((r.changed_pixels, r.registration)),
                sim_cycles: r.latency(),
                reconfigs: r.reconfigurations,
                reconfig_cycles: r.reconfig_cycles,
                cpu_fallbacks: r.cpu_fallbacks,
                scrub_wait,
            },
            Err(e) => Op {
                design: d,
                frame: frame_idx,
                host_ns: host.as_nanos() as u64,
                output: Err(e.to_string()),
                sim_cycles: 0,
                reconfigs: 0,
                reconfig_cycles: 0,
                cpu_fallbacks: 0,
                scrub_wait,
            },
        };
        ops.push(op);
        i += 1;
    }
    ops
}

/// The software reference: `Pipeline::process` over the first `count`
/// frames of the sequence, with the app's LK settings. Each call is a
/// `wami.kernel` replay span.
fn reference(
    frames: &[BayerImage],
    count: usize,
    spans: &mut Spans,
) -> Vec<Result<(usize, Option<AffineParams>), String>> {
    let mut pipeline = Pipeline::new(PipelineConfig {
        lk: LkConfig {
            max_iterations: LK_ITERATIONS,
            epsilon: 0.0,
            border_margin: BORDER_MARGIN,
        },
        gmm: GmmConfig::default(),
    });
    (0..count)
        .map(|i| {
            spans.time("wami.kernel", REPLAY, |_| {
                pipeline
                    .process(frame_of(frames, i))
                    .map(|o| (o.changed_pixels, o.registration.map(|r| r.params)))
                    .map_err(|e| e.to_string())
            })
        })
        .collect()
}

/// Counts the ops whose output differs from the reference (or errored).
fn check(
    ops: &[Op],
    reference: &[Result<(usize, Option<AffineParams>), String>],
    wrong: bool,
) -> u64 {
    ops.iter()
        .filter(|op| {
            let Ok((changed, reg)) = &op.output else {
                return true;
            };
            match &reference[op.frame] {
                Ok((ref_changed, ref_reg)) => {
                    let ref_changed = ref_changed + usize::from(wrong);
                    *changed != ref_changed || reg != ref_reg
                }
                Err(_) => true,
            }
        })
        .count() as u64
}

/// Kernels in the order one frame requests them (the first frame has no
/// template, so it runs the front end and change detection only).
fn frame_kernels(first: bool) -> Vec<WamiKernel> {
    use WamiKernel::*;
    let mut order = vec![Debayer, Grayscale];
    if !first {
        order.extend([Gradient, SteepestDescent, Hessian, MatrixInvert]);
        for _ in 0..LK_ITERATIONS {
            order.extend([Warp, Subtract, SdUpdate, DeltaP]);
        }
        order.push(WarpIwxp);
    }
    order.push(ChangeDetection);
    order
}

/// Layer replays on one design, outside the measured ops: deploy, the
/// frames' reconfiguration requests, one scrub sweep, and an ICAP load
/// of every registered pbs. Returns the bytes each reconfiguration loaded.
fn replay(spec: &Spec, dep: &Deployed, spans: &mut Spans) -> Result<Vec<usize>, String> {
    let mut manager = spans
        .time("core.deploy", REPLAY, |_| deploy(&dep.design, &dep.flow))
        .map_err(|e| format!("{}: replay deploy: {e}", dep.design.name))?;
    let rows: Vec<(presp_soc::config::TileCoord, Vec<usize>)> = dep
        .design
        .tile_accels
        .iter()
        .map(|(coord, accels)| {
            let idx = accels
                .iter()
                .filter_map(|a| match a {
                    AcceleratorKind::Wami(k) => Some(k.index()),
                    _ => None,
                })
                .collect();
            (*coord, idx)
        })
        .collect();
    let borrowed: Vec<_> = rows.iter().map(|(c, v)| (*c, v.as_slice())).collect();
    let allocation = WamiAllocation::from_rows(&borrowed);
    // Static SoCs reconfigure only while warming up; swapping SoCs
    // repeat the steady-state order every frame.
    let sequence: Vec<WamiKernel> = match spec.scrub {
        false => [frame_kernels(true), frame_kernels(false)].concat(),
        true => [frame_kernels(false), frame_kernels(false)].concat(),
    };
    let mut bytes = Vec::new();
    for kernel in sequence {
        let Some(tile) = allocation.tile_for(kernel) else {
            continue;
        };
        let at = manager.tile_idle_at(tile);
        let started = Instant::now();
        let result = manager.request_reconfiguration_at(tile, AcceleratorKind::Wami(kernel), at);
        let ended = Instant::now();
        match result {
            Ok(Some(run)) => {
                spans.push("runtime.reconfig", REPLAY, started, ended);
                bytes.push(run.bytes);
            }
            Ok(None) => spans.push("runtime.driver_hit", REPLAY, started, ended),
            Err(e) => return Err(format!("{}: replay reconfigure: {e}", dep.design.name)),
        }
    }
    if !spec.scrub {
        let at = manager.makespan();
        spans
            .time("runtime.scrub", REPLAY, |_| manager.scrub_all_at(at))
            .map_err(|e| format!("{}: replay scrub: {e}", dep.design.name))?;
    }
    let mut icap = Icap::new(&dep.design.part.device());
    for info in dep
        .flow
        .partial_bitstreams
        .iter()
        .filter(|p| p.tile.is_some())
    {
        spans
            .time("fpga.icap", REPLAY, |_| icap.load(&info.bitstream))
            .map_err(|e| format!("{}: replay ICAP load: {e}", dep.design.name))?;
    }
    Ok(bytes)
}

/// Runs `wami_swap` or `wami_static`.
///
/// # Errors
///
/// Returns a message when a set-up or replay step fails.
pub fn run(variant: Variant, config: &Config) -> Result<Outcome, String> {
    let spec = spec(variant, config);
    let mut out = Outcome::new(spec.name);
    out.facts.push(format!(
        "designs: {} ({}x{} frames, {} LK iterations, pool {})",
        inputs::describe(&spec.designs),
        spec.frame_size,
        spec.frame_size,
        LK_ITERATIONS,
        spec.pool
    ));

    let scene_started = Instant::now();
    let frames = inputs::frames(
        spec.frame_size,
        spec.pool,
        inputs::rng(config.seed, 3).next_u64(),
    );
    out.set(
        "wami.scene_ms",
        scene_started.elapsed().as_secs_f64() * 1e3 / spec.pool as f64,
    );

    let mut setup_s = Vec::new();
    let mut deployed = Vec::new();
    for _ in 0..config.setups(3) {
        drop(std::mem::take(&mut deployed));
        let started = Instant::now();
        deployed = setup(&spec, &frames)?;
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let origin = Instant::now();
    let (plain_budget, traced_budget) = config.phases();
    let mut off = Spans::new(false, origin);
    let mut ops = measure(&spec, &mut deployed, &frames, plain_budget, 0, &mut off);
    let plain_ops = ops.len();

    let mut spans = Spans::new(true, origin);
    let before: Vec<_> = deployed.iter().map(|d| counters(&d.app)).collect();
    if let Some(budget) = traced_budget {
        let first = ops.len() as u64;
        ops.extend(measure(
            &spec,
            &mut deployed,
            &frames,
            budget,
            first,
            &mut spans,
        ));
    }
    let after: Vec<_> = deployed.iter().map(|d| counters(&d.app)).collect();

    // End-to-end metrics from the untraced ops.
    let plain = &ops[..plain_ops];
    let op_ms: Vec<f64> = plain.iter().map(|o| o.host_ns as f64 / 1e6).collect();
    let total_s: f64 = plain.iter().map(|o| o.host_ns as f64 / 1e9).sum();
    stats::record_host(&mut out, &op_ms, plain.len() as f64 / total_s, &setup_s);
    let per_design = |f: &dyn Fn(&Op) -> f64| -> f64 {
        let means: Vec<f64> = (0..deployed.len())
            .filter_map(|d| {
                let v: Vec<f64> = ops.iter().filter(|o| o.design == d).map(f).collect();
                (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
            })
            .collect();
        means.iter().sum::<f64>() / means.len() as f64
    };
    let sim_ms = per_design(&|o: &Op| stats::sim_ms(o.sim_cycles as f64));
    out.set("sim_op_ms", sim_ms);
    out.set("sim_frame_ms", sim_ms);
    out.set(
        "sim_compile_min",
        deployed
            .iter()
            .map(|d| d.flow.report.total.value())
            .sum::<f64>()
            / deployed.len() as f64,
    );

    // Output checks, outside every timed region.
    let count = deployed.iter().map(|d| d.next).max().unwrap_or(0);
    let mut kernel_spans = Spans::new(config.trace, origin);
    let reference = reference(&frames, count, &mut kernel_spans);
    out.attempted = ops.len() as u64;
    out.failed = check(&ops, &reference, config.wrong_reference);
    stats::record_failures(&mut out);

    if config.trace {
        let traced = &ops[plain_ops..];
        let n = traced.len() as f64;
        let frames_per_design = (0..deployed.len())
            .map(|d| traced.iter().filter(|o| o.design == d).count() as f64)
            .collect::<Vec<_>>();
        // SoC and manager counters over the traced phase.
        let total = |f: fn(&Counters) -> f64| -> f64 {
            before.iter().zip(&after).map(|(b, a)| f(a) - f(b)).sum()
        };
        let delta = |f: fn(&Counters) -> f64| total(f) / n;
        out.set("soc.icap_contention_cycles", delta(|c| c.icap_contention));
        out.set("soc.dram_contention_cycles", delta(|c| c.dram_contention));
        out.set("soc.noc_contention_cycles", delta(|c| c.noc_contention));
        out.set("soc.noc_transfers_per_op", delta(|c| c.noc_transfers));
        out.set("soc.mj_per_op", delta(|c| c.energy_mj));
        let energy: Vec<f64> = before
            .iter()
            .zip(&after)
            .zip(&frames_per_design)
            .filter(|(_, f)| **f > 0.0)
            .map(|((b, a), f)| (a.energy_mj - b.energy_mj) / f)
            .collect();
        out.set(
            "sim_frame_mj",
            energy.iter().sum::<f64>() / energy.len() as f64,
        );
        let requests = total(|c| c.requests);
        let hits = total(|c| c.driver_hits);
        out.set(
            "runtime.driver_hit_ratio",
            if requests > 0.0 { hits / requests } else { 0.0 },
        );
        out.set("runtime.retries", total(|c| c.retries));
        let cache: f64 = deployed
            .iter()
            .map(|d| d.app.manager().bitstream_cache_stats().hit_rate())
            .sum::<f64>()
            / deployed.len() as f64;
        out.set("runtime.bitstream_cache_hit_ratio", cache);
        let sum = |f: fn(&Op) -> u64| traced.iter().map(f).sum::<u64>() as f64;
        let reconfigs = sum(|o| o.reconfigs) / n;
        out.set("runtime.reconfigs_per_op", reconfigs);
        out.set("runtime.cpu_fallbacks", sum(|o| o.cpu_fallbacks));
        out.set("soc.reconfig_cycles_per_op", sum(|o| o.reconfig_cycles) / n);
        out.set("soc.scrub_wait_cycles_per_op", sum(|o| o.scrub_wait) / n);

        // Layer replays, outside the measured ops.
        let mut loaded = Vec::new();
        for dep in &deployed {
            loaded.extend(replay(&spec, dep, &mut spans)?);
        }
        spans.absorb(kernel_spans);
        let reconfig_ms = spans.mean_ms("runtime.reconfig");
        let icap_ms = spans.mean_ms("fpga.icap");
        let kernel_ms = spans.mean_ms("wami.kernel");
        let (icap_ns, _) = spans.total("fpga.icap");
        let icap_bytes: usize = deployed
            .iter()
            .flat_map(|d| {
                d.flow
                    .partial_bitstreams
                    .iter()
                    .filter(|p| p.tile.is_some())
            })
            .map(|p| p.bitstream.size_bytes())
            .sum();
        out.set("runtime.reconfig_ms", reconfig_ms);
        out.set("fpga.icap_load_ms", icap_ms);
        out.set(
            "fpga.icap_mb_per_s",
            icap_bytes as f64 / 1e6 / (icap_ns as f64 / 1e9),
        );
        let kb_per_reconfig = if loaded.is_empty() {
            0.0
        } else {
            loaded.iter().sum::<usize>() as f64 / loaded.len() as f64 / 1024.0
        };
        out.set("fpga.pbs_kb_per_op", kb_per_reconfig * reconfigs);
        out.set("wami.kernel_ms", kernel_ms);
        out.set("core.deploy_ms", spans.mean_ms("core.deploy"));

        // Self time per op. The frame's reconfigurations and kernels are
        // attributed from the replays; the rest of the frame is the
        // runtime's own work.
        let per_op = |name: &str| spans.total(name).0 as f64 / 1e6 / n;
        let op_ms = per_op("bench.op");
        let frame_ms = per_op("runtime.frame");
        let scrub_ms = if spec.scrub {
            per_op("runtime.scrub")
        } else {
            spans.mean_ms("runtime.scrub")
        };
        out.set("runtime.scrub_ms", scrub_ms);
        let in_op_scrub = if spec.scrub { scrub_ms } else { 0.0 };
        let icap = reconfigs * icap_ms;
        let reconfig_path = reconfigs * reconfig_ms;
        let frame_self = frame_ms - reconfig_path - kernel_ms;
        out.set("runtime.frame_self_ms", frame_self);
        let bench = spans.self_ns().get("bench.op").copied().unwrap_or(0) as f64 / 1e6 / n;
        stats::record_shares(
            &mut out,
            &[
                ("runtime", frame_self + (reconfig_path - icap) + in_op_scrub),
                ("fpga", icap),
                ("wami", kernel_ms),
                ("bench", bench),
            ],
            op_ms,
        );
        let traced_s: f64 = traced.iter().map(|o| o.host_ns as f64 / 1e9).sum();
        stats::record_overhead(&mut out, plain.len() as f64 / total_s, n / traced_s);
        crate::report::write_spans(&out.workload, config, &spans)?;
    }
    Ok(out)
}

/// Cumulative SoC and manager counters of one deployed app.
struct Counters {
    icap_contention: f64,
    dram_contention: f64,
    noc_contention: f64,
    noc_transfers: f64,
    energy_mj: f64,
    requests: f64,
    driver_hits: f64,
    retries: f64,
}

fn counters(app: &WamiApp) -> Counters {
    let soc = app.manager().soc();
    let stats = app.manager().stats();
    Counters {
        icap_contention: soc.icap_contention_cycles() as f64,
        dram_contention: soc.dram_contention_cycles() as f64,
        noc_contention: soc.noc_contention_cycles() as f64,
        noc_transfers: soc.noc_transfers() as f64,
        energy_mj: soc.energy_report().total_j() * 1e3,
        requests: stats.reconfig_requests as f64,
        driver_hits: stats.cache_hits as f64,
        retries: stats.retries as f64,
    }
}
