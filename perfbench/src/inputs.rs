//! Seeded inputs: design sets, frames and the request mix.
//!
//! Everything here runs before a workload's set-up and measurement; the
//! program only ever sees what these functions generate. The paper's
//! designs are in every set, so the Fig. 4 and Table V numbers stay
//! anchored; the seed adds extra kernel partitions next to them.

use presp_accel::catalog::AcceleratorKind;
use presp_core::design::SocDesign;
use presp_core::strategy::choose_strategy;
use presp_floorplan::{Floorplanner, RegionRequest};
use presp_fpga::fault::SplitMix64;
use presp_wami::frames::SceneGenerator;
use presp_wami::image::BayerImage;

/// Independent generator for one purpose (`salt`) under `seed`.
pub fn rng(seed: u64, salt: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Fisher-Yates shuffle.
pub fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Whether the flow can build `design`: its spec is valid, the regions
/// floorplan onto the device and a strategy exists.
fn buildable(design: &SocDesign) -> bool {
    let Ok(spec) = design.to_spec() else {
        return false;
    };
    let requests: Vec<RegionRequest> = spec
        .reconfigurable()
        .iter()
        .map(|rm| RegionRequest::new(rm.name.clone(), rm.resources))
        .collect();
    Floorplanner::new(&design.part.device())
        .floorplan(&requests)
        .is_ok()
        && choose_strategy(&spec).is_ok()
}

/// A Table VI-style deployment over `tiles` reconfigurable tiles: the 12
/// WAMI kernels shuffled, up to two left to the CPU (as SoC_X and SoC_Y
/// do), the rest split evenly over the tiles. Draws again until the flow
/// can build it. The caller fixes the tile count because it sets how many
/// swaps a frame needs, the workload's main cost.
pub fn table6_partition(rng: &mut SplitMix64, name: &str, tiles: usize) -> SocDesign {
    assert!(
        (2..=4).contains(&tiles),
        "Table VI-style SoCs have 2-4 tiles"
    );
    loop {
        let mut kernels: Vec<usize> = (1..=12).collect();
        shuffle(rng, &mut kernels);
        let on_cpu = rng.below(3) as usize;
        kernels.truncate(12 - on_cpu);
        let groups: Vec<&[usize]> = (0..tiles)
            .map(|t| {
                let lo = t * kernels.len() / tiles;
                let hi = (t + 1) * kernels.len() / tiles;
                &kernels[lo..hi]
            })
            .collect();
        let design = SocDesign::wami_table6(name, &groups).expect("kernel indices are 1..=12");
        if buildable(&design) {
            return design;
        }
    }
}

/// SoC_A with one of its four kernels replaced by a drawn kernel that
/// SoC_A leaves on the CPU: a Table IV-style neighbour of the paper's
/// design. Draws again until the flow can build it.
pub fn soc_a_neighbour(rng: &mut SplitMix64, name: &str) -> SocDesign {
    assert!(
        !name.ends_with('d'),
        "wami_table4 moves the CPU for names ending in d"
    );
    let others: Vec<usize> = (1..=12).filter(|k| !SOC_A.contains(k)).collect();
    loop {
        let mut kernels = SOC_A;
        kernels[rng.below(4) as usize] = others[rng.below(others.len() as u64) as usize];
        let design = SocDesign::wami_table4(name, &kernels).expect("kernel indices are 1..=12");
        if buildable(&design) {
            return design;
        }
    }
}

/// SoC_A's kernels (Table IV), one per tile.
pub const SOC_A: [usize; 4] = [4, 8, 10, 9];

/// The Fig. 4 deployments SoC_X, SoC_Y and SoC_Z.
pub fn fig4_designs() -> Vec<SocDesign> {
    vec![
        SocDesign::wami_soc_x().expect("paper design"),
        SocDesign::wami_soc_y().expect("paper design"),
        SocDesign::wami_soc_z().expect("paper design"),
    ]
}

/// The Table IV/V SoCs SoC_A–SoC_D.
pub fn table4_designs() -> Vec<SocDesign> {
    [
        ("soc_a", SOC_A),
        ("soc_b", [2, 3, 11, 1]),
        ("soc_c", [7, 11, 8, 2]),
        ("soc_d", [4, 5, 9, 2]),
    ]
    .into_iter()
    .map(|(name, kernels)| SocDesign::wami_table4(name, &kernels).expect("paper design"))
    .collect()
}

/// The names of a design set, for the report.
pub fn describe(designs: &[SocDesign]) -> String {
    designs
        .iter()
        .map(|d| {
            let tiles: Vec<String> = d
                .tile_accels
                .values()
                .map(|accels| {
                    let idx: Vec<String> = accels
                        .iter()
                        .filter_map(|a| match a {
                            AcceleratorKind::Wami(k) => Some(k.index().to_string()),
                            _ => None,
                        })
                        .collect();
                    idx.join(",")
                })
                .collect();
            format!("{}[{}]", d.name, tiles.join("|"))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// `count` consecutive frames of one seeded scene.
pub fn frames(size: usize, count: usize, seed: u64) -> Vec<BayerImage> {
    let mut scene = SceneGenerator::new(size, size, seed);
    (0..count).map(|_| scene.next_frame()).collect()
}

/// Index of the `i`-th frame when a pool of `n` frames is replayed back
/// and forth (0, 1, …, n−1, n−2, …, 1, 0, 1, …), so consecutive frames
/// are always neighbours in the scene and registration never jumps.
pub fn pingpong(i: usize, n: usize) -> usize {
    if n < 2 {
        return 0;
    }
    let period = 2 * (n - 1);
    let j = i % period;
    if j < n {
        j
    } else {
        period - j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_walks_back_and_forth() {
        let seq: Vec<usize> = (0..9).map(|i| pingpong(i, 4)).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 2, 1, 0, 1, 2]);
    }

    #[test]
    fn draws_repeat_per_seed_and_build() {
        let a = table6_partition(&mut rng(7, 1), "p", 3);
        let b = table6_partition(&mut rng(7, 1), "p", 3);
        assert_eq!(a, b);
        assert_eq!(a.tile_accels.len(), 3);
        let c = soc_a_neighbour(&mut rng(7, 2), "s");
        assert_eq!(c.tile_accels.len(), 4);
    }
}
