//! Ablation sweeps for the design choices DESIGN.md calls out — sweeps
//! the paper does not report but that justify its parameter picks:
//! NVM bank count, promotion occupancy, DL1 associativity, write-buffer
//! depth, replacement policy, and a stride characterization of the VWB.
//! Run with `cargo bench --offline -p sttcache-bench --bench ablations`;
//! it prints cycle tables only (host time is the benchmark's job, see
//! `benchmark/README.md`), which CI diffs against
//! `tests/golden/ablations.txt`.
//!
//! At Mini the associativity, write-buffer and replacement sweeps are
//! flat: gemm's arrays total 5.8 KB, so gemm never evicts from the 64 KB
//! DL1. These tables therefore cannot tell replacement policies apart;
//! `tests/properties.rs::replacement_outcomes_are_pinned` pins each
//! policy's victims instead.

use sttcache::{penalty_pct, DCacheOrganization, Platform, PlatformConfig, VwbConfig};
use sttcache_cpu::Engine;
use sttcache_mem::{CacheConfig, ReplacementPolicy};
use sttcache_workloads::{Kernel, PolyBench, ProblemSize, StrideWalk, Transformations};

fn cycles_with(cfg: PlatformConfig) -> u64 {
    let platform = Platform::with_config(cfg).expect("ablation configuration is valid");
    let kernel = PolyBench::Gemm.kernel(ProblemSize::Mini);
    platform
        .run(|e: &mut dyn Engine| kernel.run(e, Transformations::none()))
        .cycles()
}

fn nvm_dl1(banks: usize, assoc: usize, wb: usize) -> CacheConfig {
    CacheConfig::builder()
        .capacity_bytes(64 * 1024)
        .associativity(assoc)
        .line_bytes(64)
        .banks(banks)
        .read_cycles(4)
        .write_cycles(2)
        .write_buffer_entries(wb)
        .build()
        .expect("ablation dl1 config is valid")
}

fn print_sweep(title: &str, rows: &[(String, u64)]) {
    println!("== Ablation: {title} (gemm, NVM + VWB, cycles) ==");
    for (label, cycles) in rows {
        println!("{label:<24} {cycles:>12}");
    }
    println!();
}

fn main() {
    // Bank-count sweep: fewer banks => more promotion conflicts.
    let banks: Vec<(String, u64)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&b| {
            let mut cfg = PlatformConfig::new(DCacheOrganization::nvm_vwb_default());
            cfg.dl1_override = Some(nvm_dl1(b, 2, 4));
            (format!("{b} banks"), cycles_with(cfg))
        })
        .collect();
    print_sweep("NVM bank count", &banks);

    // Promotion-occupancy sweep: the paper's "up to 4 cache cycles".
    let promo: Vec<(String, u64)> = [0u64, 2, 4, 8]
        .iter()
        .map(|&p| {
            let cfg = PlatformConfig::new(DCacheOrganization::NvmVwb(VwbConfig {
                promotion_cycles: p,
                ..VwbConfig::default()
            }));
            (format!("promotion {p} cycles"), cycles_with(cfg))
        })
        .collect();
    print_sweep("VWB promotion occupancy", &promo);

    // Associativity sweep on the NVM DL1.
    let assoc: Vec<(String, u64)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&a| {
            let mut cfg = PlatformConfig::new(DCacheOrganization::nvm_vwb_default());
            cfg.dl1_override = Some(nvm_dl1(4, a, 4));
            (format!("{a}-way"), cycles_with(cfg))
        })
        .collect();
    print_sweep("DL1 associativity", &assoc);

    // Write-buffer depth sweep.
    let wb: Vec<(String, u64)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&d| {
            let mut cfg = PlatformConfig::new(DCacheOrganization::nvm_vwb_default());
            cfg.dl1_override = Some(nvm_dl1(4, 2, d));
            (format!("{d} wb entries"), cycles_with(cfg))
        })
        .collect();
    print_sweep("eviction write-buffer depth", &wb);

    // Replacement-policy sweep on the NVM DL1 (the paper's LRU vs the
    // cheaper hardware approximations).
    let repl: Vec<(String, u64)> = ReplacementPolicy::ALL
        .iter()
        .map(|&p| {
            let mut cfg = PlatformConfig::new(DCacheOrganization::nvm_vwb_default());
            let dl1 = CacheConfig::builder()
                .capacity_bytes(64 * 1024)
                .associativity(2)
                .line_bytes(64)
                .banks(4)
                .read_cycles(4)
                .write_cycles(2)
                .replacement(p)
                .build()
                .expect("replacement ablation config is valid");
            cfg.dl1_override = Some(dl1);
            (p.name().to_string(), cycles_with(cfg))
        })
        .collect();
    print_sweep("DL1 replacement policy", &repl);

    // VWB size under a modelled associative-search cost: the paper's
    // reason for stopping at 2 Kbit becomes quantitative — beyond a point
    // the slower hit eats the capacity gain.
    let search: Vec<(String, u64)> = [1024usize, 2048, 4096, 8192, 16384]
        .iter()
        .map(|&bits| {
            let cfg = PlatformConfig::new(DCacheOrganization::NvmVwb(VwbConfig {
                capacity_bits: bits,
                model_search_cost: true,
                ..VwbConfig::default()
            }));
            (format!("{bits} bit (+search)"), cycles_with(cfg))
        })
        .collect();
    print_sweep("VWB size with associative-search cost", &search);

    // Stride characterization: drop-in NVM penalty of a strided walk as
    // the stride crosses the line size (16 f32 elements) — where the VWB
    // stops amortizing and the paper's prefetching takes over.
    println!("== Ablation: stride sweep (drop-in vs VWB penalty vs stride) ==");
    println!("{:<12} {:>12} {:>12}", "stride", "drop-in", "VWB");
    for stride in [1usize, 2, 4, 8, 16, 32] {
        let run = |org: DCacheOrganization| -> u64 {
            let platform = Platform::new(org).expect("canonical configuration");
            let walk = StrideWalk::new(4096, stride, 16 * 1024);
            platform
                .run(|e: &mut dyn Engine| walk.run(e, Transformations::none()))
                .cycles()
        };
        let base = run(DCacheOrganization::SramBaseline);
        println!(
            "{stride:<12} {:>11.1}% {:>11.1}%",
            penalty_pct(base, run(DCacheOrganization::NvmDropIn)),
            penalty_pct(base, run(DCacheOrganization::nvm_vwb_default())),
        );
    }
    println!();
}
