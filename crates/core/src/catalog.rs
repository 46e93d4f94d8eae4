//! The organization catalog.
//!
//! One authoritative enumeration of every evaluated L1 D-cache
//! organization — CLI key, organization value and paper-figure
//! provenance — so the platform tests, figure binaries, extension sweeps
//! and the differential fuzzer all walk the same list instead of keeping
//! private hard-coded copies. Adding an organization here (a list of line
//! buffers: one [`StageSpec`], or two as a [`StackSpec`]) makes it show up
//! everywhere at once, with no front-end or figure-path changes.

use crate::baselines::EmshrConfig;
use crate::platform::DCacheOrganization;
use crate::stage::{StackSpec, StageSpec};
use crate::vwb::VwbConfig;

/// The beyond-paper stacked hybrid: a VWB front (wide-interface read
/// decoupling for DL1 *hits*) over an EMSHR-enhanced DL1 (retained-entry
/// capture of DL1 *misses*) — the two mechanisms target disjoint access
/// classes, so the stack composes them without interference.
pub const HYBRID_STACK: StackSpec = StackSpec {
    name: "NVM + VWB/EMSHR hybrid",
    outer: StageSpec::Vwb(VwbConfig {
        capacity_bits: 2048,
        hit_cycles: 1,
        promotion_cycles: 0,
        model_search_cost: false,
    }),
    inner: StageSpec::Emshr(EmshrConfig {
        capacity_bits: 2048,
        hit_cycles: 1,
    }),
};

/// One catalog row: an organization plus what the harnesses need to
/// present it that the organization does not say itself (its name and
/// front-buffer capacity come from [`DCacheOrganization::name`] and
/// [`DCacheOrganization::stages`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrgEntry {
    /// Stable lowercase key for CLI flags (`--org <cli>`).
    pub cli: &'static str,
    /// The organization value to build a platform from.
    pub organization: DCacheOrganization,
    /// Where the organization comes from in the paper.
    pub provenance: &'static str,
}

/// Every evaluated organization, SRAM reference first.
pub fn catalog() -> Vec<OrgEntry> {
    vec![
        OrgEntry {
            cli: "sram",
            organization: DCacheOrganization::SramBaseline,
            provenance: "Fig. 1 (100 % reference)",
        },
        OrgEntry {
            cli: "nvm",
            organization: DCacheOrganization::NvmDropIn,
            provenance: "Fig. 1",
        },
        OrgEntry {
            cli: "vwb",
            organization: DCacheOrganization::nvm_vwb_default(),
            provenance: "Figs. 3-7, 9 (the proposal)",
        },
        OrgEntry {
            cli: "l0",
            organization: DCacheOrganization::nvm_l0_default(),
            provenance: "Fig. 8",
        },
        OrgEntry {
            cli: "emshr",
            organization: DCacheOrganization::nvm_emshr_default(),
            provenance: "Fig. 8",
        },
        OrgEntry {
            cli: "hybrid",
            organization: DCacheOrganization::nvm_hybrid_default(),
            provenance: "beyond-paper stage composition",
        },
    ]
}

/// Looks an organization up by its CLI key.
pub fn by_cli(key: &str) -> Option<OrgEntry> {
    catalog().into_iter().find(|e| e.cli == key)
}

/// Total data capacity of `organization`'s front buffers in bits (0 for
/// none).
fn front_buffer_bits(organization: DCacheOrganization) -> usize {
    organization
        .stages()
        .into_iter()
        .map(StageSpec::capacity_bits)
        .sum()
}

/// The catalog as a Markdown table (the README's organization table is
/// generated from this; a test keeps them in sync).
pub fn readme_table() -> String {
    let mut s = String::from(
        "| Organization | CLI key | Front buffer | Provenance |\n\
         |---|---|---|---|\n",
    );
    for e in catalog() {
        let bits = front_buffer_bits(e.organization);
        let capacity = if bits == 0 {
            "—".to_string()
        } else {
            format!("{} Kbit", bits / 1024)
        };
        s.push_str(&format!(
            "| {} | `{}` | {} | {} |\n",
            e.organization.name(),
            e.cli,
            capacity,
            e.provenance
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Platform;

    #[test]
    fn catalog_is_complete_and_consistent() {
        let entries = catalog();
        assert_eq!(entries.len(), 6);
        assert_eq!(entries[0].organization, DCacheOrganization::SramBaseline);
        for e in &entries {
            // Every entry must construct a valid platform.
            Platform::new(e.organization)
                .unwrap_or_else(|err| panic!("catalog entry {} does not build: {err}", e.cli));
        }
        let mut keys: Vec<&str> = entries.iter().map(|e| e.cli).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), entries.len(), "duplicate CLI keys");
    }

    #[test]
    fn cli_lookup_round_trips() {
        for e in catalog() {
            assert_eq!(by_cli(e.cli).unwrap().organization, e.organization);
        }
        assert!(by_cli("no-such-org").is_none());
    }

    #[test]
    fn hybrid_capacity_sums_both_stages() {
        let hybrid = DCacheOrganization::nvm_hybrid_default();
        assert_eq!(front_buffer_bits(hybrid), 4096);
        assert_eq!(hybrid.name(), "NVM + VWB/EMSHR hybrid");
    }

    #[test]
    fn readme_organization_table_is_in_sync() {
        let readme = include_str!("../../../README.md");
        for line in readme_table().lines() {
            assert!(
                readme.contains(line),
                "README.md is missing the catalog row:\n{line}\n\
                 regenerate the organization table from \
                 sttcache::catalog::readme_table()"
            );
        }
    }
}
