//! Bounded memory for a long-running manager.
//!
//! The paper's runtime manager is a service that runs as long as the
//! system does, so what it retains must not grow with the number of
//! requests it has served: past events belong in the trace, not in
//! per-request transcripts inside the SoC or the runtime. A counting
//! global allocator tracks this binary's live heap bytes. The test boots
//! `ThreadedManager::spawn` on four reconfigurable tiles, warms up,
//! serves N requests, then 3N more, and checks that the second batch
//! left the live heap no larger, give or take a constant that does not
//! depend on N.

use presp::accel::{AccelOp, AcceleratorKind};
use presp::fpga::bitstream::{Bitstream, BitstreamBuilder, BitstreamKind};
use presp::fpga::frame::FrameAddress;
use presp::runtime::registry::BitstreamRegistry;
use presp::runtime::threaded::ThreadedManager;
use presp::soc::config::{SocConfig, TileCoord};
use presp::soc::sim::Soc;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes: allocated minus freed, over every thread. `Relaxed`
/// suffices: the counter publishes no other data, and the test reads it
/// only after the scheduler's admission lock has ordered every worker's
/// updates before the read.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live bytes on the way through.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping only touches
// an atomic and never the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TILES: usize = 4;
/// Requests in the first measured batch; the second serves 3N.
const N: usize = 1_000;
/// Allowed growth over the second batch. Per-request transcripts (an
/// IRQ log, a driver-event log, raw wait samples) retained about 210 B
/// per swapping request, some 640 KB over the 3N batch.
const SLACK_BYTES: isize = 16 * 1024;

fn bitstream(soc: &Soc, col: u32) -> Bitstream {
    let device = soc.part().device();
    let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
    let words = device.part().family().frame_words();
    b.add_frame(FrameAddress::new(0, col, 0), vec![col; words])
        .unwrap();
    b.build(true)
}

/// Serves `count` requests, round-robin over the tiles; each tile
/// alternates Mac and Sort, so every request swaps its accelerator.
fn serve(mgr: &ThreadedManager, tiles: &[TileCoord], served: &mut u64, count: usize) {
    for _ in 0..count {
        let i = *served as usize;
        let tile = tiles[i % tiles.len()];
        let x = (i % 97) as f32;
        let (kind, op) = if (i / tiles.len()).is_multiple_of(2) {
            let op = AccelOp::Mac {
                a: vec![x; 4],
                b: vec![0.5; 4],
            };
            (AcceleratorKind::Mac, op)
        } else {
            let op = AccelOp::Sort {
                data: vec![x, 3.0, 1.0],
            };
            (AcceleratorKind::Sort, op)
        };
        mgr.execute_blocking(tile, kind, op).unwrap();
        *served += 1;
    }
    // A worker answers before its post-commit bookkeeping; wait until
    // every job has been retired so no request is still in flight.
    while mgr.scheduler_stats().completed < *served {
        std::thread::yield_now();
    }
}

#[test]
fn retained_heap_does_not_grow_with_requests_served() {
    let cfg = SocConfig::grid_3x3_reconf("bounded", TILES).unwrap();
    let soc = Soc::new(&cfg).unwrap();
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
    let mgr = ThreadedManager::spawn(soc, registry);
    let mut served = 0;
    serve(&mgr, &tiles, &mut served, 200);
    serve(&mgr, &tiles, &mut served, N);
    let after_n = LIVE.load(Ordering::SeqCst);
    serve(&mgr, &tiles, &mut served, 3 * N);
    let after_4n = LIVE.load(Ordering::SeqCst);
    let stats = mgr.stats();
    assert_eq!(stats.reconfigurations, served, "every request swapped");
    mgr.shutdown();
    let growth = after_4n - after_n;
    assert!(
        growth < SLACK_BYTES,
        "live heap grew by {growth} B over {} requests ({:.1} B each)",
        3 * N,
        growth as f64 / (3 * N) as f64
    );
}
