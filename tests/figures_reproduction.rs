//! Reproduction guard-rails: every table/figure generator runs and its
//! *shape* matches the paper (who wins, roughly by how much, where the
//! trends point). Exact magnitudes are recorded in EXPERIMENTS.md.

use sttcache_bench::{fig1, fig3, fig4, fig5, fig6, fig7, fig8, fig9, table1};
use sttcache_workloads::ProblemSize;

const SIZE: ProblemSize = ProblemSize::Mini;

#[test]
fn table1_matches_the_paper_exactly() {
    let [sram, stt] = table1();
    assert_eq!(sram.technology, "SRAM");
    assert_eq!(stt.technology, "STT-MRAM");
    assert!((sram.read_latency_ns - 0.787).abs() < 1e-3);
    assert!((sram.write_latency_ns - 0.773).abs() < 1e-3);
    assert!((stt.read_latency_ns - 3.37).abs() < 1e-2);
    assert!((stt.write_latency_ns - 1.86).abs() < 1e-2);
    assert!((stt.leakage_mw - 28.35).abs() < 1e-6);
    assert_eq!(sram.cell_area_f2, 146.0);
    assert_eq!(stt.cell_area_f2, 42.0);
    assert_eq!((sram.associativity, stt.associativity), (2, 2));
    assert_eq!((sram.line_bits, stt.line_bits), (256, 512));
}

#[test]
fn fig1_shape_large_dropin_penalty() {
    let t = fig1(SIZE);
    let avg = t.average(0);
    // Paper: up to ~55 %, average ~54 %. Accept the same neighbourhood.
    assert!((30.0..=75.0).contains(&avg), "average {avg:.1}");
    assert!(t.rows.iter().all(|(_, v)| v[0] > 0.0));
    assert!(
        t.rows.iter().any(|(_, v)| v[0] > 45.0),
        "no benchmark near the paper's worst case"
    );
}

#[test]
fn fig3_vwb_cuts_the_penalty() {
    let t = fig3(SIZE);
    let drop_in = t.average(0);
    let vwb = t.average(1);
    assert!(
        vwb < drop_in / 2.0,
        "VWB {vwb:.1}% !<< drop-in {drop_in:.1}%"
    );
    // Significant but (per the paper) "not enough" on its own: above the
    // final optimized level for the column-walk kernels.
    let worst_vwb = t.rows.iter().map(|(_, v)| v[1]).fold(f64::MIN, f64::max);
    assert!(
        worst_vwb > 15.0,
        "VWB alone already solves everything ({worst_vwb:.1}%)"
    );
}

#[test]
fn fig4_reads_dominate_the_penalty() {
    let t = fig4(SIZE);
    let (read, write) = (t.average(0), t.average(1));
    assert!(read > 65.0, "read contribution {read:.1}%");
    assert!(read > 4.0 * write.max(1.0));
    for (name, v) in &t.rows {
        assert!((v[0] + v[1] - 100.0).abs() < 1e-6, "{name}");
    }
}

#[test]
fn fig5_transformations_reach_the_target() {
    let t = fig5(SIZE);
    let drop_in = t.average(0);
    let unopt = t.average(1);
    let opt = t.average(2);
    assert!(unopt < drop_in);
    assert!(opt < unopt);
    // Paper: ~8 % after optimization.
    assert!((-5.0..=20.0).contains(&opt), "optimized average {opt:.1}%");
}

#[test]
fn fig6_prefetch_and_vectorization_dominate() {
    let t = fig6(SIZE);
    let (vectorization, prefetching, others) = (t.average(0), t.average(1), t.average(2));
    assert!(vectorization + prefetching > 60.0);
    assert!(others < vectorization + prefetching);
    for (name, v) in &t.rows {
        let sum = v[0] + v[1] + v[2];
        assert!((sum - 100.0).abs() < 1e-6, "{name}: {sum}");
    }
}

#[test]
fn fig7_bigger_vwb_lower_penalty() {
    let t = fig7(SIZE);
    let one = t.average(0);
    let two = t.average(1);
    let four = t.average(2);
    assert!(two < one, "2 Kbit {two:.1}% !< 1 Kbit {one:.1}%");
    assert!(four < two, "4 Kbit {four:.1}% !< 2 Kbit {two:.1}%");
}

#[test]
fn fig8_proposal_wins() {
    let t = fig8(SIZE);
    let proposal = t.average(0);
    let emshr = t.average(1);
    let l0 = t.average(2);
    assert!(proposal < emshr);
    assert!(proposal < l0);
}

#[test]
fn fig9_gains_on_both_platforms() {
    let t = fig9(SIZE);
    let (baseline, proposal) = (t.average(0), t.average(1));
    assert!(baseline > 10.0);
    assert!(proposal > 10.0);
    // Paper: the gain is "more pronounced in case of our NVM based
    // proposal".
    assert!(proposal >= baseline - 1.0);
}
