//! The three optimization levels evaluated in the paper's Fig. 3.

use csd_hls::{NumericFormat, Pragmas};

/// Which of the paper's incremental optimization configurations a design
/// is built with (§III-D, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizationLevel {
    /// Kernel parallelization only (§III-C); loops carry no pragmas beyond
    /// the toolchain's default innermost-loop pipelining.
    Vanilla,
    /// Adds the initiation-interval recipe: `PIPELINE II=1`, partial
    /// `UNROLL`, and complete `ARRAY_PARTITION` on the hot loops.
    IiOptimized,
    /// Adds decimal 10^6 fixed-point arithmetic. The cheaper integer
    /// operators reach II = 1 through the MAC accumulation *and* leave
    /// enough DSP headroom to flatten the gate matrix entirely, so the
    /// row loop pipelines across sequence items.
    FixedPoint,
}

impl OptimizationLevel {
    /// All three levels in Fig. 3's presentation order (most to least
    /// optimized is reversed there; we use build-up order).
    pub const ALL: [OptimizationLevel; 3] = [
        OptimizationLevel::Vanilla,
        OptimizationLevel::IiOptimized,
        OptimizationLevel::FixedPoint,
    ];

    /// The arithmetic format kernels are synthesized in.
    pub fn format(self) -> NumericFormat {
        match self {
            OptimizationLevel::FixedPoint => NumericFormat::FixedPoint64,
            _ => NumericFormat::Float32,
        }
    }

    /// `true` when the level executes with quantized integers.
    pub fn is_fixed_point(self) -> bool {
        self == OptimizationLevel::FixedPoint
    }

    /// Pragmas applied to innermost compute loops.
    ///
    /// Vanilla gets bare auto-pipelining (Vitis pipelines innermost loops
    /// by default); the optimized levels add the paper's unroll/partition
    /// recipe, with full unrolling requested at the fixed-point level.
    pub fn inner_loop_pragmas(self) -> Pragmas {
        match self {
            OptimizationLevel::Vanilla => Pragmas::new().pipeline(1),
            OptimizationLevel::IiOptimized => Pragmas::new().pipeline(1).unroll(4).partition(),
            OptimizationLevel::FixedPoint => Pragmas::new().pipeline(1).unroll_full().partition(),
        }
    }

    /// Pragmas applied to outer (row) loops. Only the fixed-point level
    /// requests row-level pipelining/unrolling — for the float levels the
    /// fully-unrolled inner loop it would require does not fit the DSP
    /// budget economically (§III-D's resource argument).
    pub fn outer_loop_pragmas(self) -> Pragmas {
        match self {
            OptimizationLevel::FixedPoint => Pragmas::new().pipeline(1).unroll_full(),
            _ => Pragmas::new(),
        }
    }

    /// Display label matching Fig. 3's x-axis.
    pub fn label(self) -> &'static str {
        match self {
            OptimizationLevel::Vanilla => "Vanilla",
            OptimizationLevel::IiOptimized => "II",
            OptimizationLevel::FixedPoint => "Fixed-point",
        }
    }
}

impl std::fmt::Display for OptimizationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats() {
        assert_eq!(OptimizationLevel::Vanilla.format(), NumericFormat::Float32);
        assert_eq!(
            OptimizationLevel::FixedPoint.format(),
            NumericFormat::FixedPoint64
        );
        assert!(OptimizationLevel::FixedPoint.is_fixed_point());
        assert!(!OptimizationLevel::IiOptimized.is_fixed_point());
    }

    #[test]
    fn pragma_recipes_escalate() {
        let v = OptimizationLevel::Vanilla.inner_loop_pragmas();
        assert!(!v.is_partitioned());
        let ii = OptimizationLevel::IiOptimized.inner_loop_pragmas();
        assert!(ii.is_partitioned());
        assert_eq!(ii.unroll_factor(40), 4);
        let fx = OptimizationLevel::FixedPoint.inner_loop_pragmas();
        assert!(fx.is_fully_unrolled());
    }

    #[test]
    fn only_fixed_point_pipelines_outer_loops() {
        assert_eq!(
            OptimizationLevel::Vanilla
                .outer_loop_pragmas()
                .pipeline_ii(),
            None
        );
        assert_eq!(
            OptimizationLevel::IiOptimized
                .outer_loop_pragmas()
                .pipeline_ii(),
            None
        );
        assert_eq!(
            OptimizationLevel::FixedPoint
                .outer_loop_pragmas()
                .pipeline_ii(),
            Some(1)
        );
    }

    #[test]
    fn labels_match_fig3() {
        let labels: Vec<&str> = OptimizationLevel::ALL.iter().map(|l| l.label()).collect();
        assert_eq!(labels, vec!["Vanilla", "II", "Fixed-point"]);
        assert_eq!(OptimizationLevel::FixedPoint.to_string(), "Fixed-point");
    }
}
