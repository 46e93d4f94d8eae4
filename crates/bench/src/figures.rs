//! Pretty-printers emitting each table/figure as text.

use crate::experiments::{self, Fig4Row, Fig6Row, Fig9Row, SeriesTable};
use crate::extensions::{self, EnergyRow, SleepRow};
use sttcache::PenaltyRow;
use sttcache_workloads::ProblemSize;

fn print_series_table(title: &str, table: &SeriesTable) {
    println!("== {title} ==");
    print!("{:<12}", "benchmark");
    for s in &table.series {
        print!(" {s:>24}");
    }
    println!();
    for (name, cols) in &table.rows {
        print!("{name:<12}");
        for v in cols {
            print!(" {v:>23.2}%");
        }
        println!();
    }
    println!();
}

/// Prints Table I in the paper's layout.
pub fn print_table1() {
    let [sram, stt] = experiments::table1();
    println!("== Table I: 64KB SRAM L1 D-cache vs 64KB STT-MRAM L1 D-cache ==");
    println!(
        "{:<18} {:>12} {:>12}",
        "Parameters", sram.technology, stt.technology
    );
    println!(
        "{:<18} {:>11.3}ns {:>11.2}ns",
        "Read Latency", sram.read_latency_ns, stt.read_latency_ns
    );
    println!(
        "{:<18} {:>11.3}ns {:>11.2}ns",
        "Write Latency", sram.write_latency_ns, stt.write_latency_ns
    );
    println!(
        "{:<18} {:>10.2}mW {:>10.2}mW",
        "Leakage", sram.leakage_mw, stt.leakage_mw
    );
    println!(
        "{:<18} {:>10.0}F2 {:>10.0}F2",
        "Area", sram.cell_area_f2, stt.cell_area_f2
    );
    println!(
        "{:<18} {:>11}way {:>10}way",
        "Associativity", sram.associativity, stt.associativity
    );
    println!(
        "{:<18} {:>8} Bits {:>7} Bits",
        "Cache Line size", sram.line_bits, stt.line_bits
    );
    println!();
}

/// Prints Fig. 1 (drop-in penalty per benchmark).
pub fn print_fig1(size: ProblemSize) {
    let rows: Vec<PenaltyRow> = experiments::fig1(size);
    println!("== Fig. 1: Performance penalty for the drop-in NVM D-Cache ==");
    println!("(relative to the SRAM D-cache baseline = 100%)");
    for r in &rows {
        println!("{r}");
    }
    println!();
}

/// Prints Fig. 3 (drop-in vs VWB).
pub fn print_fig3(size: ProblemSize) {
    print_series_table(
        "Fig. 3: Modified NVM D-Cache (with VWB) vs simple drop-in",
        &experiments::fig3(size),
    );
}

/// Prints Fig. 4 (read vs write penalty contribution).
pub fn print_fig4(size: ProblemSize) {
    let rows: Vec<Fig4Row> = experiments::fig4(size);
    println!("== Fig. 4: Read vs write contribution to the NVM penalty ==");
    println!(
        "{:<12} {:>22} {:>23}",
        "benchmark", "Read penalty contrib", "Write penalty contrib"
    );
    for r in &rows {
        println!(
            "{:<12} {:>21.1}% {:>22.1}%",
            r.name, r.read_pct, r.write_pct
        );
    }
    println!();
}

/// Prints Fig. 5 (VWB with and without code transformations).
pub fn print_fig5(size: ProblemSize) {
    print_series_table(
        "Fig. 5: NVM DL1 (with VWB) with and without transformations",
        &experiments::fig5(size),
    );
}

/// Prints Fig. 6 (per-transformation contribution).
pub fn print_fig6(size: ProblemSize) {
    let rows: Vec<Fig6Row> = experiments::fig6(size);
    println!("== Fig. 6: Contribution of transformations to penalty reduction ==");
    println!(
        "{:<12} {:>14} {:>13} {:>8}",
        "benchmark", "Vectorization", "Pre-fetching", "Others"
    );
    for r in &rows {
        println!(
            "{:<12} {:>13.1}% {:>12.1}% {:>7.1}%",
            r.name, r.vectorization_pct, r.prefetching_pct, r.others_pct
        );
    }
    println!();
}

/// Prints Fig. 7 (VWB size sweep).
pub fn print_fig7(size: ProblemSize) {
    print_series_table(
        "Fig. 7: Penalty vs VWB size (optimized)",
        &experiments::fig7(size),
    );
}

/// Prints Fig. 8 (proposal vs EMSHR vs L0).
pub fn print_fig8(size: ProblemSize) {
    print_series_table(
        "Fig. 8: Proposal vs EMSHR vs L0-Cache (2 Kbit, fully associative)",
        &experiments::fig8(size),
    );
}

/// Prints Fig. 9 (optimization gain on baseline vs proposal).
pub fn print_fig9(size: ProblemSize) {
    let rows: Vec<Fig9Row> = experiments::fig9(size);
    println!("== Fig. 9: Optimization gains: SRAM baseline vs NVM proposal ==");
    println!(
        "{:<12} {:>24} {:>28}",
        "benchmark", "Baseline perf gain", "NVM proposal perf gain"
    );
    for r in &rows {
        println!(
            "{:<12} {:>23.1}% {:>27.1}%",
            r.name, r.baseline_gain_pct, r.proposal_gain_pct
        );
    }
    println!();
}

/// Prints the extension experiments (beyond the paper's figures).
pub fn print_extensions(size: ProblemSize) {
    print_series_table(
        "Ext. 1: NVM instruction cache (paper ref. [7])",
        &extensions::ext_icache(size),
    );
    print_series_table(
        "Ext. 2: hardware next-line prefetcher vs the VWB",
        &extensions::ext_hw_prefetch(size),
    );
    print_series_table(
        "Ext. 3: AWARE asymmetric writes (paper ref. [1])",
        &extensions::ext_aware(size),
    );
    print_series_table(
        "Ext. 4: STT-MRAM in L2 vs L1",
        &extensions::ext_nvm_l2(size),
    );
    let rows: Vec<EnergyRow> = extensions::ext_energy(size);
    println!("== Ext. 5: energy per benchmark (uJ) ==");
    println!(
        "{:<12} {:>12} {:>12} {:>14} {:>14}",
        "benchmark", "SRAM total", "NVM total", "SRAM DL1-only", "NVM DL1-only"
    );
    for r in &rows {
        println!(
            "{:<12} {:>12.2} {:>12.2} {:>14.3} {:>14.3}",
            r.name, r.sram_uj, r.nvm_uj, r.sram_dl1_uj, r.nvm_dl1_uj
        );
    }
    println!();
    let sleep: Vec<SleepRow> = extensions::ext_normally_off(size);
    println!("== Ext. 6: normally-off power-gating (sleep-entry drain) ==");
    println!(
        "{:<12} {:>16} {:>16} {:>15} {:>15}",
        "benchmark", "SRAM dirty lines", "SRAM flush cyc", "NVM dirty (VWB)", "NVM flush cyc"
    );
    for r in &sleep {
        println!(
            "{:<12} {:>16} {:>16} {:>15} {:>15}",
            r.name, r.sram_dirty_lines, r.sram_flush_cycles, r.nvm_dirty_lines, r.nvm_flush_cycles
        );
    }
    println!();
}

/// Prints the organization-catalog sweep (every catalog entry, penalty
/// vs the catalog's SRAM reference). Deliberately *not* in
/// [`artifacts`]: the committed `figures all` output predates the
/// catalog and stays byte-identical; `figures catalog` is the opt-in
/// view that grows a column whenever the catalog grows an entry.
pub fn print_catalog(size: ProblemSize) {
    print_series_table(
        "Catalog: every L1 D-cache organization vs the SRAM reference",
        &extensions::ext_catalog(size),
    );
}

/// Prints the multi-core contention sweep: every private organization ×
/// workload mix × shared-L2 bank count, each cell the aggregate co-run
/// slowdown vs the same kernels isolated. Like [`print_catalog`],
/// deliberately *not* in [`artifacts`] — the committed `figures all`
/// output predates multi-core and stays byte-identical; `figures
/// multicore` is the opt-in view.
pub fn print_multicore(size: ProblemSize) {
    print_series_table(
        "Multi-core: contention slowdown % (mix / shared-L2 banks)",
        &crate::multicore::multicore_table(size),
    );
}

/// Prints the irregular-family sweep: every irregular pointer-chasing
/// workload on every non-reference catalog organization, penalty vs the
/// catalog's SRAM reference. Like [`print_catalog`], deliberately *not*
/// in [`artifacts`] — the committed `figures all` output stays
/// byte-identical; `figures irregular` is the opt-in view.
pub fn print_irregular(size: ProblemSize) {
    print_series_table(
        "Irregular: pointer-chasing penalty vs the SRAM reference",
        &extensions::ext_irregular(size),
    );
}

/// Prints one figure as CSV (for the table-shaped artifacts; the
/// decomposition figures encode their columns explicitly).
pub fn print_csv(which: &str, size: ProblemSize) -> bool {
    let table = match which {
        "fig3" => Some(experiments::fig3(size)),
        "fig5" => Some(experiments::fig5(size)),
        "fig7" => Some(experiments::fig7(size)),
        "fig8" => Some(experiments::fig8(size)),
        _ => None,
    };
    if let Some(t) = table {
        print!("{}", t.to_csv());
        return true;
    }
    match which {
        "fig1" => {
            println!("benchmark,penalty_pct");
            for r in experiments::fig1(size) {
                println!("{},{:.3}", r.name, r.penalty_pct);
            }
        }
        "fig4" => {
            println!("benchmark,read_pct,write_pct");
            for r in experiments::fig4(size) {
                println!("{},{:.3},{:.3}", r.name, r.read_pct, r.write_pct);
            }
        }
        "fig6" => {
            println!("benchmark,vectorization_pct,prefetching_pct,others_pct");
            for r in experiments::fig6(size) {
                println!(
                    "{},{:.3},{:.3},{:.3}",
                    r.name, r.vectorization_pct, r.prefetching_pct, r.others_pct
                );
            }
        }
        "fig9" => {
            println!("benchmark,baseline_gain_pct,proposal_gain_pct");
            for r in experiments::fig9(size) {
                println!(
                    "{},{:.3},{:.3}",
                    r.name, r.baseline_gain_pct, r.proposal_gain_pct
                );
            }
        }
        _ => return false,
    }
    true
}

/// One printable artifact: its CLI name and printer.
pub type Artifact = (&'static str, fn(ProblemSize));

/// The artifacts `figures all` prints, in order: `(name, printer)`.
///
/// One list so `figures all`, `figures <name>` and `--profile`'s
/// per-artifact timing cannot drift apart.
pub fn artifacts() -> [Artifact; 10] {
    [
        ("table1", |_| print_table1()),
        ("fig1", print_fig1),
        ("fig3", print_fig3),
        ("fig4", print_fig4),
        ("fig5", print_fig5),
        ("fig6", print_fig6),
        ("fig7", print_fig7),
        ("fig8", print_fig8),
        ("fig9", print_fig9),
        ("ext", print_extensions),
    ]
}

/// The artifacts only `figures <name>` prints: they grow with the
/// catalogs, so keeping them out of [`artifacts`] keeps the committed
/// `figures all` output stable.
pub fn opt_in_artifacts() -> [Artifact; 3] {
    [
        ("catalog", print_catalog),
        ("multicore", print_multicore),
        ("irregular", print_irregular),
    ]
}
