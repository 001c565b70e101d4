//! `flow_build`: the RTL-to-bitstream flow over the paper's designs.
//!
//! One op is one design taken through `PrEspFlow::run_traced` —
//! floorplan, strategy, CAD model, partial and full bitstreams — with
//! the flow's own trace collected in a `MemorySink`, round-robin over
//! SoC_A–D, SoC_X–Z and the seed-drawn Table VI-style partitions. This
//! workload writes bitstreams; `wami_swap` reads them.

use crate::inputs;
use crate::report::Outcome;
use crate::spans::{Spans, REPLAY};
use crate::stats;
use crate::Config;
use presp_cad::flow::CadFlow;
use presp_cad::place::{build_partial_bitstream, place_in_region};
use presp_core::design::{region_name, SocDesign};
use presp_core::flow::{FlowOutput, PrEspFlow};
use presp_core::platform::deploy;
use presp_core::strategy::choose_strategy;
use presp_events::{MemorySink, TraceEvent, TraceRecord, Tracer};
use presp_floorplan::{Floorplanner, RegionRequest};
use presp_fpga::icap::Icap;
use std::time::{Duration, Instant};

/// What one op produced.
struct Op {
    design: usize,
    host_ns: u64,
    ok: bool,
    pbs_bytes: usize,
    records: usize,
    drain_ns: u64,
}

/// Checks one build: every bitstream passes `verify_integrity`, and each
/// region's mean pbs size derived from the flow's trace equals the flow
/// report's (as `experiments::table6` asserts). `wrong` shifts the
/// expected sizes so the check must fail.
fn check(design: &SocDesign, out: &FlowOutput, records: &[TraceRecord], wrong: bool) -> bool {
    if !out.full_bitstream.verify_integrity()
        || !out
            .partial_bitstreams
            .iter()
            .all(|p| p.bitstream.verify_integrity())
    {
        return false;
    }
    design.tile_accels.keys().all(|coord| {
        let region = region_name(*coord);
        let Some(expected) = out.mean_pbs_kb(&region) else {
            return false;
        };
        let traced: Vec<f64> = records
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::BitstreamGenerated {
                    region: rg, bytes, ..
                } if *rg == region => Some(*bytes as f64),
                _ => None,
            })
            .collect();
        if traced.is_empty() {
            return false;
        }
        let traced_kb = traced.iter().sum::<f64>() / traced.len() as f64 / 1024.0;
        let expected = expected + if wrong { 1.0 } else { 0.0 };
        (traced_kb - expected).abs() < 1e-9
    })
}

/// Builds designs round-robin until the ops' summed host time reaches
/// `budget`; keeps the last output of each design for the replays.
fn measure(
    flow: &PrEspFlow,
    designs: &[SocDesign],
    budget: Duration,
    first_op: u64,
    wrong: bool,
    spans: &mut Spans,
    last: &mut [Option<FlowOutput>],
) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut spent = Duration::ZERO;
    let mut i = 0usize;
    while spent < budget || ops.is_empty() {
        let d = i % designs.len();
        let op_id = first_op + i as u64;
        let sink = MemorySink::shared();
        let mut tracer = Tracer::to_sink(sink.clone());
        let started = Instant::now();
        let result = spans.time("bench.op", op_id, |s| {
            s.time("core.flow", op_id, |_| {
                flow.run_traced(&designs[d], &mut tracer)
            })
        });
        let host = started.elapsed();
        spent += host;
        // Checks run outside the op's timing.
        let drained = Instant::now();
        let records = presp_events::sink::drain(&sink);
        let drain_ns = drained.elapsed().as_nanos() as u64;
        let op = match result {
            Ok(out) => {
                let ok = check(&designs[d], &out, &records, wrong);
                let pbs_bytes = out
                    .partial_bitstreams
                    .iter()
                    .map(|p| p.bitstream.size_bytes())
                    .sum();
                last[d] = Some(out);
                Op {
                    design: d,
                    host_ns: host.as_nanos() as u64,
                    ok,
                    pbs_bytes,
                    records: records.len(),
                    drain_ns,
                }
            }
            Err(_) => Op {
                design: d,
                host_ns: host.as_nanos() as u64,
                ok: false,
                pbs_bytes: 0,
                records: records.len(),
                drain_ns,
            },
        };
        ops.push(op);
        i += 1;
    }
    ops
}

/// Per-design layer replays, outside the measured ops: the floorplanner,
/// the CAD model (strategy, scheduled and monolithic P&R), every pbs
/// placement and build, then deploying the build and loading, scrubbing
/// and ICAP-streaming its pbs. Returns `(floorplan, model, pbs build)`
/// ms for the design.
fn replay(design: &SocDesign, out: &FlowOutput, spans: &mut Spans) -> Result<[f64; 3], String> {
    let err = |what: &str, e: String| format!("{}: replay {what}: {e}", design.name);
    let spec = design.to_spec().map_err(|e| err("spec", e.to_string()))?;
    let device = design.part.device();
    let requests: Vec<RegionRequest> = spec
        .reconfigurable()
        .iter()
        .map(|rm| RegionRequest::new(rm.name.clone(), rm.resources))
        .collect();
    let t = Instant::now();
    let floorplan = spans
        .time("floorplan.plan", REPLAY, |_| {
            Floorplanner::new(&device).floorplan(&requests)
        })
        .map_err(|e| err("floorplan", e.to_string()))?;
    let plan_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    spans
        .time("cad.model", REPLAY, |_| {
            let (_, strategy) = choose_strategy(&spec).map_err(|e| e.to_string())?;
            let cad = CadFlow::new();
            cad.run_full_flow(&spec, strategy)
                .map_err(|e| e.to_string())?;
            Ok::<_, String>(cad.run_monolithic(&spec))
        })
        .map_err(|e| err("CAD model", e))?;
    let model_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    for (coord, accels) in &design.tile_accels {
        let region = region_name(*coord);
        let pblock = *floorplan
            .pblock(&region)
            .ok_or_else(|| err("pblock", region.clone()))?;
        for (i, kind) in accels.iter().enumerate() {
            spans
                .time("cad.pbs_build", REPLAY, |_| {
                    let placement = place_in_region(&device, &region, pblock, kind.resources())?;
                    build_partial_bitstream(&device, &placement, i as u64 + 1, true)
                })
                .map_err(|e| err("pbs build", e.to_string()))?;
        }
    }
    let build_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut manager = spans
        .time("core.deploy", REPLAY, |_| deploy(design, out))
        .map_err(|e| err("deploy", e.to_string()))?;
    for info in &out.partial_bitstreams {
        let Some(tile) = info.tile else { continue };
        let at = manager.tile_idle_at(tile);
        spans
            .time("runtime.reconfig", REPLAY, |_| {
                manager.request_reconfiguration_at(tile, info.kind, at)
            })
            .map_err(|e| err("reconfigure", e.to_string()))?;
    }
    let at = manager.makespan();
    spans
        .time("runtime.scrub", REPLAY, |_| manager.scrub_all_at(at))
        .map_err(|e| err("scrub", e.to_string()))?;
    let mut icap = Icap::new(&device);
    for info in &out.partial_bitstreams {
        spans
            .time("fpga.icap", REPLAY, |_| icap.load(&info.bitstream))
            .map_err(|e| err("ICAP load", e.to_string()))?;
    }
    Ok([plan_ms, model_ms, build_ms])
}

/// Runs `flow_build`.
///
/// # Errors
///
/// Returns a message when a set-up or replay step fails.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::new("flow_build");
    let mut rng = inputs::rng(config.seed, 1);
    let mut designs = inputs::table4_designs();
    designs.extend(inputs::fig4_designs());
    if config.tiny {
        designs.truncate(2);
    }
    designs.push(inputs::table6_partition(&mut rng, "part_1", 3));
    if !config.tiny {
        designs.push(inputs::table6_partition(&mut rng, "part_2", 4));
    }
    out.facts
        .push(format!("designs: {}", inputs::describe(&designs)));

    // Set-up: the flow driver plus one warm-up build.
    let mut setup_s = Vec::new();
    let mut flow = PrEspFlow::new();
    for _ in 0..config.setups(7) {
        let started = Instant::now();
        flow = PrEspFlow::new();
        flow.run(&designs[0])
            .map_err(|e| format!("{}: warm-up build: {e}", designs[0].name))?;
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let origin = Instant::now();
    let (plain_budget, traced_budget) = config.phases();
    let mut last: Vec<Option<FlowOutput>> = vec![None; designs.len()];
    let mut off = Spans::new(false, origin);
    let wrong = config.wrong_reference;
    let mut ops = measure(&flow, &designs, plain_budget, 0, wrong, &mut off, &mut last);
    let plain_ops = ops.len();
    let mut spans = Spans::new(true, origin);
    if let Some(budget) = traced_budget {
        let first = ops.len() as u64;
        ops.extend(measure(
            &flow, &designs, budget, first, wrong, &mut spans, &mut last,
        ));
    }

    let plain = &ops[..plain_ops];
    let op_ms: Vec<f64> = plain.iter().map(|o| o.host_ns as f64 / 1e6).collect();
    let total_s: f64 = plain.iter().map(|o| o.host_ns as f64 / 1e9).sum();
    stats::record_host(&mut out, &op_ms, plain.len() as f64 / total_s, &setup_s);
    out.attempted = ops.len() as u64;
    out.failed = ops.iter().filter(|o| !o.ok).count() as u64;
    stats::record_failures(&mut out);
    // Simulated compile time: the mean over the design set of the Table V
    // PR-ESP minutes (deterministic per seed).
    let minutes: Vec<f64> = last
        .iter()
        .flatten()
        .map(|o| o.report.total.value())
        .collect();
    let mean_min = minutes.iter().sum::<f64>() / minutes.len() as f64;
    out.set("sim_compile_min", mean_min);
    out.set("sim_op_ms", mean_min * 60_000.0);

    if config.trace {
        let traced = &ops[plain_ops..];
        let n = traced.len() as f64;
        // Every design a traced op built is replayed once.
        let mut per_design = vec![[0.0; 3]; designs.len()];
        for (d, (design, built)) in designs.iter().zip(&last).enumerate() {
            if let Some(built) = built {
                per_design[d] = replay(design, built, &mut spans)?;
            }
        }
        // Replayed layer time per op, weighted by the traced op mix.
        let weighted =
            |k: usize| -> f64 { traced.iter().map(|o| per_design[o.design][k]).sum::<f64>() / n };
        let (plan, model, build) = (weighted(0), weighted(1), weighted(2));
        let per_op = |name: &str| spans.total(name).0 as f64 / 1e6 / n;
        let op_ms = per_op("bench.op");
        let flow_ms = per_op("core.flow");
        let flow_self = flow_ms - plan - model - build;
        out.set("floorplan.plan_ms", plan);
        out.set("cad.model_ms", model);
        out.set("cad.pbs_build_ms", spans.mean_ms("cad.pbs_build"));
        out.set("core.flow_self_ms", flow_self);
        out.set("core.deploy_ms", spans.mean_ms("core.deploy"));
        out.set("runtime.reconfig_ms", spans.mean_ms("runtime.reconfig"));
        out.set("runtime.scrub_ms", spans.mean_ms("runtime.scrub"));
        out.set("runtime.reconfigs_per_op", 0.0);
        let icap_ms = spans.mean_ms("fpga.icap");
        out.set("fpga.icap_load_ms", icap_ms);
        let (icap_ns, _) = spans.total("fpga.icap");
        let icap_bytes: usize = last
            .iter()
            .flatten()
            .flat_map(|o| o.partial_bitstreams.iter())
            .map(|p| p.bitstream.size_bytes())
            .sum();
        out.set(
            "fpga.icap_mb_per_s",
            icap_bytes as f64 / 1e6 / (icap_ns as f64 / 1e9),
        );
        let kb: f64 = traced.iter().map(|o| o.pbs_bytes as f64).sum::<f64>() / 1024.0 / n;
        out.set("fpga.pbs_kb_per_op", kb);
        out.set(
            "events.records_per_op",
            traced.iter().map(|o| o.records as f64).sum::<f64>() / n,
        );
        out.set(
            "events.drain_ms",
            traced.iter().map(|o| o.drain_ns as f64).sum::<f64>() / 1e6 / n,
        );
        let bench = spans.self_ns().get("bench.op").copied().unwrap_or(0) as f64 / 1e6 / n;
        stats::record_shares(
            &mut out,
            &[
                ("core", flow_self),
                ("cad", model + build),
                ("floorplan", plan),
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
