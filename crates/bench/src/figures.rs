//! Renders every table and figure as text or CSV.
//!
//! Every artifact but Table I is one [`SeriesTable`], so one text
//! printer and one CSV writer serve them all; Table I keeps its own
//! printer because its cells mix units.

use crate::experiments::{self, SeriesTable};
use crate::extensions;
use sttcache_workloads::{ProblemSize, WorkloadFamily};

/// One printed column: its width, the decimals of its values and the
/// unit printed after each value, inside the width.
type Column = (usize, usize, &'static str);

/// Prints `heading`, then `table`: labels left-aligned in `label_width`
/// characters, each value right-aligned in its column, the series
/// labels above them when `header_row` is set, then a blank line.
fn print_table(
    heading: &str,
    table: &SeriesTable,
    label_width: usize,
    header_row: bool,
    columns: &[Column],
) {
    println!("{heading}");
    if header_row {
        print!("{:<label_width$}", "benchmark");
        for (series, &(width, _, _)) in table.series.iter().zip(columns) {
            print!(" {series:>width$}");
        }
        println!();
    }
    for (label, cells) in &table.rows {
        print!("{label:<label_width$}");
        for (v, &(width, decimals, unit)) in cells.iter().zip(columns) {
            let width = width - unit.len();
            print!(" {v:>width$.decimals$}{unit}");
        }
        println!();
    }
    println!();
}

/// Prints `table` in the layout of the paper's penalty figures: a header
/// row, then each value in percent with two decimals.
fn print_series(title: &str, table: &SeriesTable) {
    let columns = vec![(24, 2, "%"); table.series.len()];
    print_table(&format!("== {title} =="), table, 12, true, &columns);
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

/// Prints the extension experiments (beyond the paper's figures).
pub fn print_extensions(size: ProblemSize) {
    print_series(
        "Ext. 1: NVM instruction cache (paper ref. [7])",
        &extensions::ext_icache(size),
    );
    print_series(
        "Ext. 2: hardware next-line prefetcher vs the VWB",
        &extensions::ext_hw_prefetch(size),
    );
    print_series(
        "Ext. 3: AWARE asymmetric writes (paper ref. [1])",
        &extensions::ext_aware(size),
    );
    print_series(
        "Ext. 4: STT-MRAM in L2 vs L1",
        &extensions::ext_nvm_l2(size),
    );
    print_table(
        "== Ext. 5: energy per benchmark (uJ) ==",
        &extensions::ext_energy(size),
        12,
        true,
        &[(12, 2, ""), (12, 2, ""), (14, 3, ""), (14, 3, "")],
    );
    print_table(
        "== Ext. 6: normally-off power-gating (sleep-entry drain) ==",
        &extensions::ext_normally_off(size),
        12,
        true,
        &[(16, 0, ""), (16, 0, ""), (15, 0, ""), (15, 0, "")],
    );
}

/// Prints one figure as CSV: `benchmark`, then one column per series,
/// three decimals. Figs. 1, 4, 6 and 9 name their columns by what each
/// value measures. Returns `false` for an artifact with no CSV form.
pub fn print_csv(which: &str, size: ProblemSize) -> bool {
    let (mut table, columns): (SeriesTable, &[&str]) = match which {
        "fig1" => (experiments::fig1(size), &["penalty_pct"]),
        "fig3" => (experiments::fig3(size), &[]),
        "fig4" => (experiments::fig4(size), &["read_pct", "write_pct"]),
        "fig5" => (experiments::fig5(size), &[]),
        "fig6" => (
            experiments::fig6(size),
            &["vectorization_pct", "prefetching_pct", "others_pct"],
        ),
        "fig7" => (experiments::fig7(size), &[]),
        "fig8" => (experiments::fig8(size), &[]),
        "fig9" => (
            experiments::fig9(size),
            &["baseline_gain_pct", "proposal_gain_pct"],
        ),
        _ => return false,
    };
    if !columns.is_empty() {
        table.series = columns.iter().map(|c| c.to_string()).collect();
    }
    print!("{}", table.to_csv());
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
        ("fig1", |size| {
            print_table(
                "== Fig. 1: Performance penalty for the drop-in NVM D-Cache ==\n\
                 (relative to the SRAM D-cache baseline = 100%)",
                &experiments::fig1(size),
                16,
                false,
                &[(10, 2, " %")],
            )
        }),
        ("fig3", |size| {
            print_series(
                "Fig. 3: Modified NVM D-Cache (with VWB) vs simple drop-in",
                &experiments::fig3(size),
            )
        }),
        ("fig4", |size| {
            print_table(
                "== Fig. 4: Read vs write contribution to the NVM penalty ==",
                &experiments::fig4(size),
                12,
                true,
                &[(22, 1, "%"), (23, 1, "%")],
            )
        }),
        ("fig5", |size| {
            print_series(
                "Fig. 5: NVM DL1 (with VWB) with and without transformations",
                &experiments::fig5(size),
            )
        }),
        ("fig6", |size| {
            print_table(
                "== Fig. 6: Contribution of transformations to penalty reduction ==",
                &experiments::fig6(size),
                12,
                true,
                &[(14, 1, "%"), (13, 1, "%"), (8, 1, "%")],
            )
        }),
        ("fig7", |size| {
            print_series(
                "Fig. 7: Penalty vs VWB size (optimized)",
                &experiments::fig7(size),
            )
        }),
        ("fig8", |size| {
            print_series(
                "Fig. 8: Proposal vs EMSHR vs L0-Cache (2 Kbit, fully associative)",
                &experiments::fig8(size),
            )
        }),
        ("fig9", |size| {
            print_table(
                "== Fig. 9: Optimization gains: SRAM baseline vs NVM proposal ==",
                &experiments::fig9(size),
                12,
                true,
                &[(24, 1, "%"), (28, 1, "%")],
            )
        }),
        ("ext", print_extensions),
    ]
}

/// The artifacts only `figures <name>` prints: they grow with the
/// catalogs, so keeping them out of [`artifacts`] keeps the committed
/// `figures all` output stable. `catalog` gains a column whenever the
/// organization catalog gains an entry, `irregular` also a row whenever
/// the irregular family gains a workload, and `multicore` is each
/// private organization's co-run slowdown per workload mix and shared-L2
/// bank count.
pub fn opt_in_artifacts() -> [Artifact; 3] {
    [
        ("catalog", |size| {
            print_series(
                "Catalog: every L1 D-cache organization vs the SRAM reference",
                &extensions::ext_catalog(&extensions::ext_mix(), size),
            )
        }),
        ("multicore", |size| {
            print_series(
                "Multi-core: contention slowdown % (mix / shared-L2 banks)",
                &crate::multicore::multicore_table(size),
            )
        }),
        ("irregular", |size| {
            let workloads = experiments::family(WorkloadFamily::Irregular);
            print_series(
                "Irregular: pointer-chasing penalty vs the SRAM reference",
                &extensions::ext_catalog(&workloads, size),
            )
        }),
    ]
}
