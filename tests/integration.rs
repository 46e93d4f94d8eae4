//! Cross-crate integration tests: workloads driving the full platform
//! through every front-end, checking the system-level invariants the
//! paper's argument rests on.

use sttcache::{penalty_pct, DCacheOrganization, Platform, VwbConfig};
use sttcache_cpu::Engine;
use sttcache_workloads::{PolyBench, ProblemSize, Transformations};

fn cycles(org: DCacheOrganization, bench: PolyBench, t: Transformations) -> u64 {
    let platform = Platform::new(org).expect("canonical configuration");
    let kernel = bench.kernel(ProblemSize::Mini);
    platform.run(|e: &mut dyn Engine| kernel.run(e, t)).cycles()
}

#[test]
fn every_benchmark_pays_a_drop_in_penalty() {
    for bench in PolyBench::ALL {
        let base = cycles(
            DCacheOrganization::SramBaseline,
            bench,
            Transformations::none(),
        );
        let nvm = cycles(
            DCacheOrganization::NvmDropIn,
            bench,
            Transformations::none(),
        );
        let p = penalty_pct(base, nvm);
        assert!(p > 5.0, "{bench}: drop-in penalty only {p:.1}%");
    }
}

#[test]
fn vwb_beats_drop_in_on_average() {
    let mut drop_in = 0.0;
    let mut vwb = 0.0;
    for bench in PolyBench::ALL {
        let base = cycles(
            DCacheOrganization::SramBaseline,
            bench,
            Transformations::none(),
        );
        drop_in += penalty_pct(
            base,
            cycles(
                DCacheOrganization::NvmDropIn,
                bench,
                Transformations::none(),
            ),
        );
        vwb += penalty_pct(
            base,
            cycles(
                DCacheOrganization::nvm_vwb_default(),
                bench,
                Transformations::none(),
            ),
        );
    }
    assert!(
        vwb < drop_in / 2.0,
        "VWB average {vwb:.0} should be well under drop-in average {drop_in:.0}"
    );
}

#[test]
fn transformations_speed_up_every_platform() {
    for org in [
        DCacheOrganization::SramBaseline,
        DCacheOrganization::nvm_vwb_default(),
    ] {
        for bench in [PolyBench::Gemm, PolyBench::Atax, PolyBench::Jacobi1d] {
            let plain = cycles(org, bench, Transformations::none());
            let opt = cycles(org, bench, Transformations::all());
            assert!(
                opt < plain,
                "{} on {bench}: optimized {opt} !< plain {plain}",
                org.name()
            );
        }
    }
}

#[test]
fn optimized_proposal_lands_near_the_paper_target() {
    // The headline: drop-in ~54% -> optimized ~8%. Check the averages stay
    // in those neighbourhoods (shape, not exact numbers).
    let mut drop_in = 0.0;
    let mut optimized = 0.0;
    let n = PolyBench::ALL.len() as f64;
    for bench in PolyBench::ALL {
        let base = cycles(
            DCacheOrganization::SramBaseline,
            bench,
            Transformations::none(),
        );
        let base_opt = cycles(
            DCacheOrganization::SramBaseline,
            bench,
            Transformations::all(),
        );
        drop_in += penalty_pct(
            base,
            cycles(
                DCacheOrganization::NvmDropIn,
                bench,
                Transformations::none(),
            ),
        ) / n;
        optimized += penalty_pct(
            base_opt,
            cycles(
                DCacheOrganization::nvm_vwb_default(),
                bench,
                Transformations::all(),
            ),
        ) / n;
    }
    assert!(
        (30.0..=75.0).contains(&drop_in),
        "drop-in average {drop_in:.1}% far from the paper's ~54%"
    );
    assert!(
        (-5.0..=20.0).contains(&optimized),
        "optimized average {optimized:.1}% far from the paper's ~8%"
    );
    assert!(
        optimized < drop_in / 3.0,
        "optimization must recover most of the penalty"
    );
}

#[test]
fn bigger_vwb_never_hurts_on_average() {
    let mut prev = f64::INFINITY;
    for bits in [1024usize, 2048, 4096] {
        let org = DCacheOrganization::NvmVwb(VwbConfig {
            capacity_bits: bits,
            ..VwbConfig::default()
        });
        let mut avg = 0.0;
        for bench in [PolyBench::Gemm, PolyBench::Mvt, PolyBench::TwoMm] {
            let base = cycles(
                DCacheOrganization::SramBaseline,
                bench,
                Transformations::all(),
            );
            avg += penalty_pct(base, cycles(org, bench, Transformations::all())) / 3.0;
        }
        assert!(
            avg <= prev + 1e-9,
            "VWB {bits} bit average {avg:.2}% worse than smaller size"
        );
        prev = avg;
    }
}

#[test]
fn proposal_beats_both_fig8_baselines_on_average() {
    let orgs = [
        DCacheOrganization::nvm_vwb_default(),
        DCacheOrganization::nvm_emshr_default(),
        DCacheOrganization::nvm_l0_default(),
    ];
    let mut avgs = [0.0f64; 3];
    let n = PolyBench::ALL.len() as f64;
    for bench in PolyBench::ALL {
        let base = cycles(
            DCacheOrganization::SramBaseline,
            bench,
            Transformations::all(),
        );
        for (a, &org) in avgs.iter_mut().zip(&orgs) {
            *a += penalty_pct(base, cycles(org, bench, Transformations::all())) / n;
        }
    }
    assert!(
        avgs[0] < avgs[1],
        "proposal {:.1}% !< EMSHR {:.1}%",
        avgs[0],
        avgs[1]
    );
    assert!(
        avgs[0] < avgs[2],
        "proposal {:.1}% !< L0 {:.1}%",
        avgs[0],
        avgs[2]
    );
}

#[test]
fn simulation_is_deterministic_across_platform_instances() {
    for org in [
        DCacheOrganization::SramBaseline,
        DCacheOrganization::nvm_vwb_default(),
        DCacheOrganization::nvm_l0_default(),
        DCacheOrganization::nvm_emshr_default(),
    ] {
        let a = cycles(org, PolyBench::Bicg, Transformations::all());
        let b = cycles(org, PolyBench::Bicg, Transformations::all());
        assert_eq!(a, b, "{}", org.name());
    }
}

#[test]
fn stats_are_consistent_across_the_hierarchy() {
    let platform = Platform::new(DCacheOrganization::NvmDropIn).expect("canonical configuration");
    let kernel = PolyBench::Gemm.kernel(ProblemSize::Mini);
    let r = platform.run(|e: &mut dyn Engine| kernel.run(e, Transformations::none()));
    // Everything the L2 sees originates in DL1 misses or write-backs.
    assert!(r.l2.accesses() <= r.dl1.misses() + r.dl1.writebacks);
    // Memory traffic is bounded by L2 misses plus L2 write-backs.
    assert!(r.memory.accesses() <= r.l2.misses() + r.l2.writebacks);
    // The core retired every instrumented event.
    assert_eq!(r.core.loads, r.dl1.reads);
    assert!(r.core.cycles > r.core.instructions / 2);
}

#[test]
fn vwb_decouples_dl1_reads() {
    let platform =
        Platform::new(DCacheOrganization::nvm_vwb_default()).expect("canonical configuration");
    let kernel = PolyBench::Jacobi1d.kernel(ProblemSize::Mini);
    let r = platform.run(|e: &mut dyn Engine| kernel.run(e, Transformations::none()));
    let vwb = r.vwb().expect("vwb organization reports vwb stats");
    // The streaming stencil hits the VWB for the overwhelming majority of
    // loads, so the NVM array sees only promotions.
    assert!(
        vwb.read_hit_rate() > 0.8,
        "hit rate {:.2}",
        vwb.read_hit_rate()
    );
    assert!(r.dl1.reads < vwb.reads / 2);
}

#[test]
fn checksums_agree_across_organizations() {
    // The platform must not alter the computation: the kernel checksum is
    // identical no matter which cache organization timed it.
    let kernel = PolyBench::Gemm.kernel(ProblemSize::Mini);
    let mut sums = Vec::new();
    for org in [
        DCacheOrganization::SramBaseline,
        DCacheOrganization::NvmDropIn,
        DCacheOrganization::nvm_vwb_default(),
    ] {
        let platform = Platform::new(org).expect("canonical configuration");
        let mut sum = 0.0;
        platform.run(|e: &mut dyn Engine| sum = kernel.execute(e, Transformations::none()));
        sums.push(sum);
    }
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "{sums:?}");
}

#[test]
fn stats_text_round_trips_key_metrics() {
    let platform =
        Platform::new(DCacheOrganization::nvm_vwb_default()).expect("canonical configuration");
    let kernel = PolyBench::Atax.kernel(ProblemSize::Mini);
    let r = platform.run(|e: &mut dyn Engine| kernel.run(e, Transformations::all()));
    let text = r.stats_text();
    // The dumped cycle count matches the structured result.
    let line = text
        .lines()
        .find(|l| l.starts_with("core.cycles"))
        .expect("dump contains core.cycles");
    let value: u64 = line
        .split_whitespace()
        .nth(1)
        .expect("value column")
        .parse()
        .expect("u64");
    assert_eq!(value, r.cycles());
}

/// Full reproduction at the `--small` figure size. Slow (minutes), so it
/// is ignored by default: `cargo test --workspace -- --ignored`.
#[test]
#[ignore = "slow: runs the whole suite at the --small problem size"]
fn small_size_reproduction_shapes_hold() {
    let mut drop_in = 0.0;
    let n = PolyBench::ALL.len() as f64;
    for bench in PolyBench::ALL {
        let base = {
            let platform =
                Platform::new(DCacheOrganization::SramBaseline).expect("canonical configuration");
            let kernel = bench.kernel(ProblemSize::Small);
            platform
                .run(|e: &mut dyn Engine| kernel.run(e, Transformations::none()))
                .cycles()
        };
        let nvm = {
            let platform =
                Platform::new(DCacheOrganization::NvmDropIn).expect("canonical configuration");
            let kernel = bench.kernel(ProblemSize::Small);
            platform
                .run(|e: &mut dyn Engine| kernel.run(e, Transformations::none()))
                .cycles()
        };
        drop_in += penalty_pct(base, nvm) / n;
    }
    // The paper's Fig. 1 average is ~54 %; at the small size this
    // reproduction measures ~53.7 %.
    assert!((40.0..=70.0).contains(&drop_in), "{drop_in:.1}");
}
