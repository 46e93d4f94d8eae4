//! `sim --explain`: cycle-level penalty attribution for one organization.
//!
//! The aggregate statistics dump says *how much* slower an organization
//! is than the SRAM baseline; this module says *where the cycles went*:
//! which stalls dominate, how much the front-end buffer absorbed, how
//! deep the MSHRs and write buffers ran, which bank carries the write
//! traffic, and what the per-set wear map implies for array lifetime.
//! The measured run is the one probed run
//! ([`Platform::run_trace_probed`]): its instruments come back beside
//! its [`RunResult`], and the report reads them field by field.

use crate::profile::{self, Phase};
use crate::trace_cache;
use std::time::Instant;
use sttcache::{DCacheOrganization, Platform, PlatformConfig, RunProbes, RunResult, CLOCK_GHZ};
use sttcache_mem::telemetry::Histogram;
use sttcache_tech::{wear_uniformity, CellKind, CellModel, EnduranceModel};
use sttcache_workloads::{ProblemSize, Transformations, Workload};

/// A measured run, its SRAM reference and the measured run's
/// instruments.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The measured organization's run.
    pub result: RunResult,
    /// The SRAM baseline on the same binary.
    pub baseline: RunResult,
    /// The instruments of the measured run.
    pub probes: RunProbes,
    /// The workload label (`bench (size, opts ...)`).
    pub workload: String,
}

/// Runs `cfg` probed and the SRAM baseline for reference, and returns
/// both plus the measured run's instruments.
///
/// The measured run replays the cached trace on a freshly built
/// [`Platform`], so the instruments capture it even when the result memo
/// already holds the point. `STTCACHE_TRACE_CHECK=1` checks it against
/// direct execution, as [`trace_cache::run_config`] checks every grid
/// point.
///
/// # Panics
///
/// Panics if `cfg` is invalid (callers validate it first).
pub fn explain(
    cfg: &PlatformConfig,
    workload: impl Into<Workload>,
    size: ProblemSize,
    transforms: Transformations,
) -> Explanation {
    let workload = workload.into();
    let platform = Platform::with_config(cfg.clone()).expect("explained configuration is valid");
    let trace = trace_cache::cached_trace(workload, size, transforms);
    let start = Instant::now();
    let (result, probes) = platform.run_trace_probed(&trace);
    profile::credit(Phase::Replay, start, trace.len() as u64);
    trace_cache::check_replay(&platform, workload, size, transforms, &result);

    let mut base_cfg = PlatformConfig::new(DCacheOrganization::SramBaseline);
    base_cfg.icache = cfg.icache;
    let baseline = trace_cache::run_config(&base_cfg, workload, size, transforms);

    Explanation {
        result,
        baseline,
        probes,
        workload: format!(
            "{} ({:?}, opts {})",
            crate::workload::label_of(workload),
            size,
            transforms
        ),
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn depth_line(out: &mut String, label: &str, h: &Histogram) {
    out.push_str(&format!(
        "  {label:<24} p50 {}, p90 {}, max {} (mean {:.2}, {} samples)\n",
        h.percentile(50),
        h.percentile(90),
        h.max,
        h.mean(),
        h.total,
    ));
}

impl Explanation {
    /// Penalty of the measured run vs the SRAM baseline, in percent.
    pub fn penalty_pct(&self) -> f64 {
        sttcache::penalty_pct(self.baseline.cycles(), self.result.cycles())
    }

    /// Renders the attribution report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let r = &self.result;
        let cycles = r.core.cycles;
        out.push_str(&format!(
            "== explain: {} on {} ==\n",
            r.organization.name(),
            self.workload
        ));
        out.push_str(&format!(
            "penalty vs SRAM baseline: {:+.1}% ({} vs {} cycles)\n\n",
            self.penalty_pct(),
            r.core.cycles,
            self.baseline.core.cycles,
        ));

        out.push_str("stall attribution (of total cycles):\n");
        for (label, stall) in [
            ("load-data stalls", r.core.read_stall_cycles),
            ("store-buffer-full stalls", r.core.write_stall_cycles),
            ("branch-refill stalls", r.core.branch_stall_cycles),
            ("instruction-fetch stalls", r.core.fetch_stall_cycles),
        ] {
            out.push_str(&format!(
                "  {label:<24} {stall:>12} cycles ({:.1}%)\n",
                pct(stall, cycles)
            ));
        }
        out.push('\n');

        // Front-end buffer stages (VWB / L0 / EMSHR), outermost first.
        for (stage, probe) in r.buffers.iter().zip(&self.probes.buffers) {
            let s = &stage.stats;
            out.push_str(&format!("front-end stage '{}':\n", stage.kind));
            out.push_str(&format!(
                "  absorbed {:.1}% of loads ({} of {}) at buffer speed\n",
                pct(s.read_hits, s.reads),
                s.read_hits,
                s.reads,
            ));
            if s.writes > 0 {
                out.push_str(&format!(
                    "  absorbed {:.1}% of stores ({} of {}) before the DL1\n",
                    pct(s.write_hits, s.writes),
                    s.write_hits,
                    s.writes,
                ));
            }
            if probe.depth.total > 0 {
                depth_line(&mut out, "occupancy:", &probe.depth);
            }
            let h = &probe.coalesce_run;
            if h.total > 0 {
                out.push_str(&format!(
                    "  write-coalescing runs:   p50 {}, max {} stores per line (mean {:.2})\n",
                    h.percentile(50),
                    h.max,
                    h.mean(),
                ));
            }
            out.push('\n');
        }

        out.push_str("DL1 pressure:\n");
        let dl1 = &self.probes.dl1;
        for (label, h) in [
            ("MSHR occupancy:", &dl1.mshr_occupancy),
            ("write-buffer depth:", &dl1.write_buffer_depth),
            ("core store buffer:", &self.probes.store_buffer_depth),
        ] {
            if h.total > 0 {
                depth_line(&mut out, label, h);
            }
        }
        let w = &dl1.bank_writes;
        if let Some((bank, count)) = w.hottest() {
            out.push_str(&format!(
                "  bank write shares:       bank {bank} carries {:.1}% of {} array writes\n",
                pct(count, w.total()),
                w.total(),
            ));
        }
        let c = &dl1.bank_conflict_cycles;
        out.push_str(&format!(
            "  bank conflicts:          {} cycles total",
            r.dl1.bank_conflict_cycles
        ));
        if let Some((bank, cyc)) = c.hottest() {
            out.push_str(&format!(", {:.1}% on bank {bank}", pct(cyc, c.total())));
        }
        out.push_str("\n\n");

        out.push_str(&self.render_wear_map());
        out
    }

    /// The per-set wear-map section: write distribution over the DL1
    /// sets and the lifetime it implies for an STT-MRAM array.
    fn render_wear_map(&self) -> String {
        let mut out = String::from("DL1 wear map (per-set array writes):\n");
        let wear = &self.probes.dl1.set_writes;
        let total = wear.total();
        let sets = wear.counts.len();
        if total == 0 {
            out.push_str("  no array writes recorded\n");
            return out;
        }
        let uniformity = wear_uniformity(&wear.counts);
        let (hot_set, hot_writes) = wear.hottest().expect("total > 0");
        out.push_str(&format!(
            "  {total} writes over {sets} observed sets; hottest set {hot_set} takes {:.1}% \
             (perfectly uniform would be {:.1}%)\n",
            pct(hot_writes, total),
            100.0 / sets as f64,
        ));
        out.push_str(&format!("  wear uniformity (Jain):  {uniformity:.3}\n"));
        // Project lifetime as if this workload looped forever at the
        // modelled 1 GHz clock, on an STT-MRAM cell per Table I.
        let seconds = self.result.core.cycles as f64 / (CLOCK_GHZ * 1e9);
        if seconds > 0.0 {
            let model = EnduranceModel::new(CellModel::new(CellKind::SttMram), sets);
            let lifetime = model.lifetime_from_wear_map(&wear.counts, seconds);
            out.push_str(&format!(
                "  projected STT-MRAM lifetime at 1 GHz, 100% duty: {:.1} years\n",
                lifetime.years(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explanation_attributes_the_vwb_penalty() {
        let cfg = PlatformConfig::new(DCacheOrganization::nvm_vwb_default());
        let workload = crate::workload::resolve("2mm").expect("catalog kernel");
        // A result memo that already holds the point does not answer the
        // measured run: its probes still capture it.
        let memoized =
            trace_cache::run_config(&cfg, workload, ProblemSize::Mini, Transformations::none());
        let e = explain(&cfg, workload, ProblemSize::Mini, Transformations::none());
        assert!(e.probes.dl1.set_writes.total() > 0);
        assert!(e.probes.dl1.mshr_occupancy.total > 0);
        assert_eq!(e.probes.buffers.len(), 1);
        assert!(e.penalty_pct().is_finite());

        let text = e.render();
        for needle in [
            "== explain: NVM + VWB",
            "penalty vs SRAM baseline:",
            "stall attribution",
            "front-end stage 'vwb'",
            "DL1 pressure:",
            "bank write shares:",
            "DL1 wear map",
            "wear uniformity (Jain):",
            "projected STT-MRAM lifetime",
        ] {
            assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
        }
        // Explaining does not perturb the simulation: the probed run is
        // bit-identical to the plain, memoized one.
        assert_eq!(memoized, e.result);
    }
}
