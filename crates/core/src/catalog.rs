//! The organization catalog.
//!
//! One authoritative enumeration of every evaluated L1 D-cache
//! organization — name, CLI key, constructor, front-buffer capacity and
//! paper-figure provenance — so the platform tests, figure binaries,
//! extension sweeps and the differential fuzzer all walk the same list
//! instead of keeping private hard-coded copies. Adding an organization
//! here (a list of line buffers: one [`StageSpec`], or two as a
//! [`StackSpec`]) makes it show up everywhere at once, with no front-end
//! or figure-path changes.

use crate::baselines::{EmshrConfig, L0Config};
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

/// One catalog row: an organization plus everything the harnesses need
/// to present it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrgEntry {
    /// Human-readable name (identical to
    /// [`DCacheOrganization::name`]).
    pub name: &'static str,
    /// Stable lowercase key for CLI flags (`--org <cli>`).
    pub cli: &'static str,
    /// The organization value to build a platform from.
    pub organization: DCacheOrganization,
    /// Total front-buffer data capacity in bits (0 = none).
    pub capacity_bits: usize,
    /// Where the organization comes from in the paper.
    pub provenance: &'static str,
}

/// Every evaluated organization, SRAM reference first.
pub fn catalog() -> Vec<OrgEntry> {
    let vwb = VwbConfig::default();
    let l0 = L0Config::default();
    let emshr = EmshrConfig::default();
    vec![
        OrgEntry {
            name: "SRAM baseline",
            cli: "sram",
            organization: DCacheOrganization::SramBaseline,
            capacity_bits: 0,
            provenance: "Fig. 1 (100 % reference)",
        },
        OrgEntry {
            name: "NVM drop-in",
            cli: "nvm",
            organization: DCacheOrganization::NvmDropIn,
            capacity_bits: 0,
            provenance: "Fig. 1",
        },
        OrgEntry {
            name: "NVM + VWB",
            cli: "vwb",
            organization: DCacheOrganization::NvmVwb(vwb),
            capacity_bits: vwb.capacity_bits,
            provenance: "Figs. 3-7, 9 (the proposal)",
        },
        OrgEntry {
            name: "NVM + L0",
            cli: "l0",
            organization: DCacheOrganization::NvmL0(l0),
            capacity_bits: l0.capacity_bits,
            provenance: "Fig. 8",
        },
        OrgEntry {
            name: "NVM + EMSHR",
            cli: "emshr",
            organization: DCacheOrganization::NvmEmshr(emshr),
            capacity_bits: emshr.capacity_bits,
            provenance: "Fig. 8",
        },
        OrgEntry {
            name: HYBRID_STACK.name,
            cli: "hybrid",
            organization: DCacheOrganization::NvmStack(HYBRID_STACK),
            capacity_bits: HYBRID_STACK.capacity_bits(),
            provenance: "beyond-paper stage composition",
        },
    ]
}

/// Looks an organization up by its CLI key.
pub fn by_cli(key: &str) -> Option<OrgEntry> {
    catalog().into_iter().find(|e| e.cli == key)
}

/// The catalog as a Markdown table (the README's organization table is
/// generated from this; a test keeps them in sync).
pub fn readme_table() -> String {
    let mut s = String::from(
        "| Organization | CLI key | Front buffer | Provenance |\n\
         |---|---|---|---|\n",
    );
    for e in catalog() {
        let capacity = if e.capacity_bits == 0 {
            "—".to_string()
        } else {
            format!("{} Kbit", e.capacity_bits / 1024)
        };
        s.push_str(&format!(
            "| {} | `{}` | {} | {} |\n",
            e.name, e.cli, capacity, e.provenance
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
            assert_eq!(e.name, e.organization.name(), "{}", e.cli);
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
        assert_eq!(HYBRID_STACK.capacity_bits(), 4096);
        assert_eq!(
            DCacheOrganization::nvm_hybrid_default().name(),
            "NVM + VWB/EMSHR hybrid"
        );
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
