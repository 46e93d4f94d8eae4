//! The paper's code-transformation toggles (§V).

/// Which of the paper's transformation families a kernel run applies.
///
/// The paper steers these "manually by the use of intrinsic functions";
/// here they select between pre-written kernel variants — the same thing a
/// compiler flag selects between generated code paths.
///
/// # Example
///
/// ```
/// use sttcache_workloads::Transformations;
///
/// let t = Transformations::all();
/// assert!(t.vectorize && t.prefetch && t.others);
/// assert_eq!(Transformations::none(), Transformations::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Transformations {
    /// Innermost-loop vectorization (4-wide).
    pub vectorize: bool,
    /// Software prefetch of critical loop arrays into the VWB.
    pub prefetch: bool,
    /// Alignment, loop unrolling and branch-less conversion intrinsics.
    pub others: bool,
}

impl Transformations {
    /// No transformations (the paper's unoptimized runs).
    pub fn none() -> Self {
        Transformations::default()
    }

    /// All three families (the paper's fully optimized runs, Fig. 5).
    pub fn all() -> Self {
        Transformations {
            vectorize: true,
            prefetch: true,
            others: true,
        }
    }

    /// Only vectorization (the kernels' own tests).
    pub fn only_vectorize() -> Self {
        Transformations {
            vectorize: true,
            ..Self::none()
        }
    }

    /// Only prefetching (Ext. 2, and the kernels' own tests).
    pub fn only_prefetch() -> Self {
        Transformations {
            prefetch: true,
            ..Self::none()
        }
    }

    /// Only the "others" intrinsics (the kernels' own tests).
    pub fn only_others() -> Self {
        Transformations {
            others: true,
            ..Self::none()
        }
    }

    /// The unroll factor loop overhead is divided by under `others`.
    pub fn unroll_factor(&self) -> u64 {
        if self.others {
            4
        } else {
            1
        }
    }

    /// Short label for figure output, e.g. `"v+p+o"`.
    pub fn label(&self) -> String {
        if *self == Transformations::none() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if self.vectorize {
            parts.push("v");
        }
        if self.prefetch {
            parts.push("p");
        }
        if self.others {
            parts.push("o");
        }
        parts.join("+")
    }
}

impl std::fmt::Display for Transformations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Transformations::none().label(), "none");
        assert_eq!(Transformations::all().label(), "v+p+o");
        assert_eq!(Transformations::only_prefetch().label(), "p");
        assert_eq!(Transformations::only_vectorize().to_string(), "v");
    }

    #[test]
    fn unroll_factor_follows_others() {
        assert_eq!(Transformations::none().unroll_factor(), 1);
        assert_eq!(Transformations::only_others().unroll_factor(), 4);
    }
}
