//! Multi-core mix harness: mix-spec parsing, mix runs replayed from the
//! shared trace cache, the contention sweep behind `figures multicore`
//! and the per-core `--explain` attribution for `sim --cores N`, read
//! from a run whose shared L2 is probed.
//!
//! # Mix spec grammar
//!
//! ```text
//! mix    := entry ('+' entry)*
//! entry  := workload ('@' offset)? (':' org)?
//! workload := any workload-catalog CLI token (e.g. gemm, mvt, list-chase)
//!           | 'file:' path                   (a recorded trace file)
//! offset := decimal cycle count              (phase offset, default 0)
//! org    := any catalog CLI key              (sram|nvm|vwb|l0|emshr|hybrid)
//! ```
//!
//! `gemm:vwb+mvt@500:sram` runs gemm on a VWB core starting at cycle 0
//! and mvt on an SRAM core starting at cycle 500, both over one shared
//! banked L2. An entry without `:org` uses the run's default
//! organization (`sim --org`). Because `file:` paths may themselves
//! contain `:` and `@`, the suffixes bind from the *right*: the final
//! `:part` is an organization only if it names a catalog entry, and the
//! final `@part` is an offset only if it is a decimal number. A suffix
//! that is neither, after a catalog kernel's token, is refused by name
//! (an unknown organization or a malformed offset); after anything else
//! it stays part of the workload token.
//! In a mix of two or more entries a `file:` trace must stay below 4 GiB
//! ([`CORE_ADDRESS_STRIDE`]), or it would alias the next core's stripe.

use crate::trace_cache;
use sttcache::{
    l2_config, CoreSpec, DCacheOrganization, MultiPlatform, MultiPlatformConfig, MultiRunResult,
    RunResult, CORE_ADDRESS_STRIDE,
};
use sttcache_cpu::TraceEvent;
use sttcache_mem::{CacheConfig, CacheConfigBuilder, CacheProbe, Cycle};
use sttcache_workloads::{ProblemSize, Transformations, Workload};

/// One core of a mix: which workload it runs, when it starts, and which
/// private organization it uses (`None` = the run's default).
#[derive(Debug, Clone, PartialEq)]
pub struct MixEntry {
    /// The workload replayed on this core.
    pub workload: Workload,
    /// Phase offset in cycles.
    pub offset: Cycle,
    /// Private front-end organization override for this core.
    pub org: Option<DCacheOrganization>,
}

/// A parsed multi-programmed workload mix, one entry per core.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSpec {
    /// Per-core entries, index order = core order.
    pub entries: Vec<MixEntry>,
}

/// Stagger between consecutive cores in the default mix, in cycles.
pub const DEFAULT_STAGGER: Cycle = 64;

impl MixSpec {
    /// Parses the mix grammar (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending entry.
    pub fn parse(spec: &str) -> Result<MixSpec, String> {
        let mut entries = Vec::new();
        for part in spec.split('+') {
            let part = part.trim();
            if part.is_empty() {
                return Err(format!("empty mix entry in '{spec}'"));
            }
            // Suffixes bind from the right so `file:` paths containing
            // ':' or '@' survive: the last ':key' is an organization only
            // if the catalog knows `key`, the last '@n' an offset only if
            // `n` is decimal. Anything else stays part of the token and
            // fails in the workload resolver with a full token list,
            // unless what precedes it names a catalog kernel: then the
            // suffix is what is wrong, and the error names it.
            let (head, org) = match part.rsplit_once(':') {
                Some((h, key)) if !h.is_empty() => match sttcache::by_cli(key) {
                    Some(e) => (h, Some(e.organization)),
                    None if names_kernel(h) => {
                        let keys: Vec<&str> =
                            sttcache::catalog::catalog().iter().map(|e| e.cli).collect();
                        return Err(format!(
                            "in mix entry '{part}': unknown organization '{key}' \
                             (try one of: {})",
                            keys.join(", ")
                        ));
                    }
                    None => (part, None),
                },
                _ => (part, None),
            };
            let (token, offset) = match head.rsplit_once('@') {
                Some((t, off)) if !t.is_empty() => match off.parse::<Cycle>() {
                    Ok(offset) => (t, offset),
                    Err(_) if names_kernel(t) => {
                        return Err(format!(
                            "in mix entry '{part}': malformed offset '{off}' \
                             (not a decimal 64-bit cycle count)"
                        ));
                    }
                    Err(_) => (head, 0),
                },
                _ => (head, 0),
            };
            let workload = crate::workload::resolve(token)
                .map_err(|e| format!("in mix entry '{part}': {e}"))?;
            if spec.contains('+') {
                check_stripe(part, workload)?;
            }
            entries.push(MixEntry {
                workload,
                offset,
                org,
            });
        }
        Ok(MixSpec { entries })
    }

    /// The default staggered mix for `cores` cores: the four-kernel set
    /// the extension sweeps use ([`crate::extensions::ext_mix`]) cycled,
    /// core `i` starting at `i * DEFAULT_STAGGER` cycles, default
    /// organization everywhere.
    pub fn default_mix(cores: usize) -> MixSpec {
        let kernels = crate::extensions::ext_mix();
        MixSpec {
            entries: (0..cores)
                .map(|i| MixEntry {
                    workload: kernels[i % kernels.len()],
                    offset: i as Cycle * DEFAULT_STAGGER,
                    org: None,
                })
                .collect(),
        }
    }

    /// Number of cores in the mix.
    pub fn cores(&self) -> usize {
        self.entries.len()
    }

    /// Canonical text form (re-parses to the same mix).
    pub fn label(&self) -> String {
        self.entries
            .iter()
            .map(|e| {
                let mut s = crate::workload::token_of(e.workload);
                if e.offset != 0 {
                    s.push_str(&format!("@{}", e.offset));
                }
                if let Some(org) = e.org {
                    let key = sttcache::catalog::catalog()
                        .iter()
                        .find(|c| c.organization == org)
                        .map(|c| c.cli)
                        .unwrap_or("?");
                    s.push_str(&format!(":{key}"));
                }
                s
            })
            .collect::<Vec<_>>()
            .join("+")
    }

    /// The per-core platform specs, filling unset organizations with
    /// `default_org`.
    pub fn core_specs(&self, default_org: DCacheOrganization) -> Vec<CoreSpec> {
        self.entries
            .iter()
            .map(|e| CoreSpec::staggered(e.org.unwrap_or(default_org), e.offset))
            .collect()
    }
}

/// Whether `head`, less any `@` suffix, is a catalog kernel's CLI token.
fn names_kernel(head: &str) -> bool {
    let token = head.rsplit_once('@').map_or(head, |(t, _)| t);
    sttcache_workloads::catalog::by_cli(token).is_some()
}

/// Refuses a `file:` entry of a multi-core mix whose trace touches a
/// byte at or above [`CORE_ADDRESS_STRIDE`] (a prefetch touches one).
fn check_stripe(part: &str, workload: Workload) -> Result<(), String> {
    let Workload::External(id) = workload else {
        return Ok(());
    };
    let trace = crate::workload::external_trace(id).expect("resolved traces are registered");
    let beyond = trace.iter().find_map(|ev| {
        let (addr, bytes) = match ev {
            TraceEvent::Load { addr, bytes } | TraceEvent::Store { addr, bytes } => (addr, bytes),
            TraceEvent::Prefetch { addr } => (addr, 1),
            TraceEvent::Compute { .. } | TraceEvent::Branch { .. } => return None,
        };
        (addr.0 + u64::from(bytes.max(1)) > CORE_ADDRESS_STRIDE).then_some(addr)
    });
    beyond.map_or(Ok(()), |addr| {
        Err(format!(
            "in mix entry '{part}': the trace touches address {addr:#x}, at or above the \
             4 GiB address stripe each core of a multi-core mix gets"
        ))
    })
}

/// The canonical shared-L2 configuration with an explicit bank count —
/// the paper's 2 MB 16-way 12-cycle L2, banked `banks` ways (the sweep
/// knob of the multicore figures grid).
pub fn shared_l2_config(banks: usize) -> CacheConfig {
    CacheConfigBuilder::from(l2_config().expect("canonical l2"))
        .banks(banks)
        .build()
        .expect("canonical l2 geometry is valid at any power-of-two bank count")
}

/// Builds the [`MultiPlatform`] for a mix.
///
/// # Errors
///
/// Propagates configuration errors (e.g. more than the supported
/// maximum of cores) as a printable message.
pub fn mix_platform(
    mix: &MixSpec,
    default_org: DCacheOrganization,
    l2_banks: Option<usize>,
) -> Result<MultiPlatform, String> {
    let mut cfg = MultiPlatformConfig::new(mix.core_specs(default_org));
    cfg.l2_override = l2_banks.map(shared_l2_config);
    MultiPlatform::new(cfg).map_err(|e| e.to_string())
}

/// Runs a mix, replaying each core's kernel from the shared trace
/// cache. Unlike [`trace_cache::run_config`], the result is not
/// memoized: every multi-core point the binaries run is distinct.
pub fn run_mix(
    mix: &MixSpec,
    default_org: DCacheOrganization,
    size: ProblemSize,
    transforms: Transformations,
    l2_banks: Option<usize>,
) -> MultiRunResult {
    let run = MultiPlatform::run_traces;
    replay_mix(mix, default_org, size, transforms, l2_banks, run)
}

/// Builds the mix's platform and hands it, with each core's cached
/// trace, to `run`.
fn replay_mix<R>(
    mix: &MixSpec,
    default_org: DCacheOrganization,
    size: ProblemSize,
    transforms: Transformations,
    l2_banks: Option<usize>,
    run: impl FnOnce(&MultiPlatform, &[&sttcache_cpu::Trace]) -> R,
) -> R {
    let platform =
        mix_platform(mix, default_org, l2_banks).expect("caller validated the mix platform");
    let traces: Vec<_> = mix
        .entries
        .iter()
        .map(|e| trace_cache::cached_trace(e.workload, size, transforms))
        .collect();
    let refs: Vec<&sttcache_cpu::Trace> = traces.iter().map(|t| &**t).collect();
    run(&platform, &refs)
}

/// The isolated (1-core, private L2 of the same geometry) reference run
/// for core `idx` of a mix — what every contention measurement compares
/// against. Served from the shared single-core result memo.
pub fn isolated_run(
    mix: &MixSpec,
    default_org: DCacheOrganization,
    size: ProblemSize,
    transforms: Transformations,
    l2_banks: Option<usize>,
    idx: usize,
) -> RunResult {
    let platform =
        mix_platform(mix, default_org, l2_banks).expect("caller validated the mix platform");
    trace_cache::run_config(
        &platform.isolated_config(idx),
        mix.entries[idx].workload,
        size,
        transforms,
    )
}

/// Aggregate contention slowdown of a mix in percent:
/// `100 · (Σ co-run cycles − Σ isolated cycles) / Σ isolated cycles`.
pub fn contention_slowdown_pct(
    mix: &MixSpec,
    default_org: DCacheOrganization,
    size: ProblemSize,
    transforms: Transformations,
    l2_banks: Option<usize>,
) -> f64 {
    let co = run_mix(mix, default_org, size, transforms, l2_banks);
    let iso: u64 = (0..mix.cores())
        .map(|i| isolated_run(mix, default_org, size, transforms, l2_banks, i).cycles())
        .sum();
    if iso == 0 {
        0.0
    } else {
        100.0 * (co.total_cycles() as f64 - iso as f64) / iso as f64
    }
}

/// The mixes of the `figures multicore` grid.
pub fn sweep_mixes() -> Vec<MixSpec> {
    vec![
        MixSpec::parse("gemm+mvt@64").expect("static mix"),
        MixSpec::parse("jacobi-2d+trisolv@64").expect("static mix"),
    ]
}

/// The shared-L2 bank counts of the `figures multicore` grid.
pub const SWEEP_BANKS: [usize; 3] = [1, 4, 8];

/// The private-org × mix × bank-count contention grid: each cell is the
/// aggregate slowdown of the co-run vs the same kernels isolated, in
/// percent. Rows are private organizations; columns are mix × bank
/// count. Grid points are independent, so they run through the sweep
/// engine ([`crate::SweepRunner`]) row by row; each N-core run is one
/// single-threaded work item, so output is byte-identical at any worker
/// count.
pub fn multicore_table(size: ProblemSize) -> crate::SeriesTable {
    let mixes = sweep_mixes();
    let columns: Vec<(&MixSpec, usize)> = mixes
        .iter()
        .flat_map(|mix| SWEEP_BANKS.map(|banks| (mix, banks)))
        .collect();
    let orgs: Vec<DCacheOrganization> = sttcache::catalog::catalog()
        .iter()
        .map(|e| e.organization)
        .collect();
    let points: Vec<_> = orgs
        .iter()
        .flat_map(|&org| columns.iter().map(move |&(mix, banks)| (org, mix, banks)))
        .collect();
    let values = crate::SweepRunner::current().map_ok(&points, |_, &(org, mix, banks)| {
        contention_slowdown_pct(mix, org, size, Transformations::none(), Some(banks))
    });
    let rows = orgs
        .iter()
        .zip(values.chunks(columns.len()))
        .map(|(org, cells)| (org.name().to_string(), cells.to_vec()))
        .collect();
    let series = columns
        .iter()
        .map(|(mix, banks)| format!("{} /{banks}b", mix.label()));
    crate::SeriesTable::new(series, rows).with_average()
}

/// A mix run with its shared L2 probed, its isolated references, and
/// everything needed to attribute per-core penalties and shared-bank
/// conflicts.
#[derive(Debug, Clone)]
pub struct MixExplanation {
    /// The co-scheduled run.
    pub result: MultiRunResult,
    /// Per-core isolated references (same organization, private L2).
    pub isolated: Vec<RunResult>,
    /// The shared L2's instruments from the co-scheduled run.
    pub l2_probe: CacheProbe,
    /// The mix that ran.
    pub mix: MixSpec,
    /// The workload label.
    pub workload: String,
}

/// Runs a mix with its shared L2 probed
/// ([`MultiPlatform::run_traces_probed`]) and gathers the per-core
/// isolated references.
pub fn explain_mix(
    mix: &MixSpec,
    default_org: DCacheOrganization,
    size: ProblemSize,
    transforms: Transformations,
    l2_banks: Option<usize>,
) -> MixExplanation {
    let run = MultiPlatform::run_traces_probed;
    let (result, l2_probe) = replay_mix(mix, default_org, size, transforms, l2_banks, run);
    let isolated = (0..mix.cores())
        .map(|i| isolated_run(mix, default_org, size, transforms, l2_banks, i))
        .collect();
    MixExplanation {
        result,
        isolated,
        l2_probe,
        mix: mix.clone(),
        workload: format!("{:?}, opts {}", size, transforms.label()),
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

impl MixExplanation {
    /// Contention slowdown of core `idx` vs its isolated reference, in
    /// percent.
    pub fn core_slowdown_pct(&self, idx: usize) -> f64 {
        let iso = self.isolated[idx].cycles();
        if iso == 0 {
            0.0
        } else {
            100.0 * (self.result.cores[idx].cycles() as f64 - iso as f64) / iso as f64
        }
    }

    /// Renders the per-core attribution report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== explain: {}-core mix {} ({}) ==\n",
            self.mix.cores(),
            self.mix.label(),
            self.workload
        ));
        out.push_str("per-core penalty attribution:\n");
        for (idx, r) in self.result.cores.iter().enumerate() {
            out.push_str(&format!(
                "  core {idx}: {:<10} on {:<14} {:>10} cycles ({:+.1}% vs isolated {})\n",
                crate::workload::token_of(self.mix.entries[idx].workload),
                r.organization.name(),
                r.cycles(),
                self.core_slowdown_pct(idx),
                self.isolated[idx].cycles(),
            ));
            out.push_str(&format!(
                "    load-data stalls {:.1}%, store-buffer stalls {:.1}%, \
                 private DL1 bank conflicts {} cycles\n",
                pct(r.core.read_stall_cycles, r.core.cycles),
                pct(r.core.write_stall_cycles, r.core.cycles),
                r.dl1.bank_conflict_cycles,
            ));
        }
        out.push('\n');
        let l2 = &self.result.shared_l2;
        out.push_str("shared L2:\n");
        out.push_str(&format!(
            "  {} reads, {} writes, {} fills, {} write-backs\n",
            l2.reads, l2.writes, l2.fills, l2.writebacks
        ));
        out.push_str(&format!(
            "  bank conflict cycles:    {} total\n",
            l2.bank_conflict_cycles
        ));
        let c = &self.l2_probe.bank_conflict_cycles;
        if c.total() > 0 {
            out.push_str("  shared-bank conflict shares:\n");
            for (bank, &cycles) in c.counts.iter().enumerate() {
                if cycles > 0 {
                    out.push_str(&format!(
                        "    bank {bank:<2} {cycles:>10} cycles ({:.1}%)\n",
                        pct(cycles, c.total()),
                    ));
                }
            }
        }
        out
    }
}

/// Per-core gem5-style statistics dump for `sim --cores N`: each core's
/// full stats block plus one shared-level section.
pub fn mix_stats_text(result: &MultiRunResult, mix: &MixSpec) -> String {
    let mut out = String::new();
    for (idx, r) in result.cores.iter().enumerate() {
        out.push_str(&format!(
            "== core {idx}: {} on {} (offset {}) ==\n",
            crate::workload::token_of(mix.entries[idx].workload),
            r.organization.name(),
            mix.entries[idx].offset,
        ));
        out.push_str(&r.stats_text());
    }
    out.push_str("== shared levels ==\n");
    let l2 = &result.shared_l2;
    for (key, value, comment) in [
        ("shared.l2.reads", l2.reads, "demand reads from every core"),
        ("shared.l2.writes", l2.writes, "write-backs from every core"),
        ("shared.l2.fills", l2.fills, "lines filled from memory"),
        (
            "shared.l2.bank_conflict_cycles",
            l2.bank_conflict_cycles,
            "cycles cores queued on busy shared banks",
        ),
        (
            "shared.memory.accesses",
            result.memory.reads + result.memory.writes,
            "main-memory accesses",
        ),
    ] {
        out.push_str(&format!("{key:<40} {value:>16} # {comment}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_grammar_round_trips() {
        let mix = MixSpec::parse("gemm:vwb+mvt@500:sram+trisolv@64").unwrap();
        assert_eq!(mix.cores(), 3);
        assert_eq!(
            mix.entries[0].workload,
            crate::workload::resolve("gemm").unwrap()
        );
        assert_eq!(mix.entries[0].offset, 0);
        assert_eq!(
            mix.entries[0].org,
            Some(DCacheOrganization::nvm_vwb_default())
        );
        assert_eq!(mix.entries[1].offset, 500);
        assert_eq!(mix.entries[2].org, None);
        assert_eq!(mix.label(), "gemm:vwb+mvt@500:sram+trisolv@64");
        assert_eq!(MixSpec::parse(&mix.label()).unwrap(), mix);
    }

    #[test]
    fn mix_grammar_rejects_garbage() {
        assert!(MixSpec::parse("").is_err());
        assert!(MixSpec::parse("gemm+").is_err());
        assert!(MixSpec::parse("nosuchkernel").is_err());
        assert!(MixSpec::parse("gemm@abc").is_err());
        assert!(MixSpec::parse("gemm:nosuchorg").is_err());
        // A `file:` path keeps a suffix that is neither an organization
        // nor an offset, and the reader names the whole path.
        let err = MixSpec::parse("file:/no/such@x:y").unwrap_err();
        assert!(
            err.contains("cannot ingest trace file '/no/such@x:y'"),
            "{err}"
        );
    }

    #[test]
    fn default_mix_is_staggered() {
        let mix = MixSpec::default_mix(3);
        assert_eq!(mix.cores(), 3);
        assert_eq!(mix.entries[0].offset, 0);
        assert_eq!(mix.entries[1].offset, DEFAULT_STAGGER);
        assert_eq!(mix.entries[2].offset, 2 * DEFAULT_STAGGER);
    }

    #[test]
    fn run_mix_is_deterministic() {
        let mix = MixSpec::parse("gemm+mvt@64").unwrap();
        let org = DCacheOrganization::nvm_vwb_default();
        let a = run_mix(
            &mix,
            org,
            ProblemSize::Mini,
            Transformations::none(),
            Some(4),
        );
        let b = run_mix(
            &mix,
            org,
            ProblemSize::Mini,
            Transformations::none(),
            Some(4),
        );
        assert_eq!(a, b);
        assert_eq!(a.cores.len(), 2);
    }

    #[test]
    fn explain_mix_attributes_shared_conflicts() {
        // A bank-starved shared L2 guarantees conflicts to attribute.
        let mix = MixSpec::parse("gemm+gemm@1").unwrap();
        let e = explain_mix(
            &mix,
            DCacheOrganization::NvmDropIn,
            ProblemSize::Mini,
            Transformations::none(),
            Some(1),
        );
        // The probe saw every shared-bank conflict the statistics count.
        assert_eq!(
            e.l2_probe.bank_conflict_cycles.total(),
            e.result.shared_l2.bank_conflict_cycles
        );
        let text = e.render();
        for needle in [
            "== explain: 2-core mix gemm+gemm@1",
            "per-core penalty attribution:",
            "vs isolated",
            "shared L2:",
            "bank conflict cycles:",
            "shared-bank conflict shares:",
        ] {
            assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
        }
    }

    #[test]
    fn stats_text_covers_every_core_and_the_shared_level() {
        let mix = MixSpec::parse("gemm+mvt@64").unwrap();
        let org = DCacheOrganization::SramBaseline;
        let r = run_mix(&mix, org, ProblemSize::Mini, Transformations::none(), None);
        let text = mix_stats_text(&r, &mix);
        assert!(text.contains("== core 0: gemm on SRAM baseline (offset 0) =="));
        assert!(text.contains("== core 1: mvt on SRAM baseline (offset 64) =="));
        assert!(text.contains("shared.l2.bank_conflict_cycles"));
    }
}
