//! Primitive operations, their latencies, and their resource costs.
//!
//! Latency and resource constants follow typical Vitis HLS characterization
//! for UltraScale+ fabric at a 300 MHz kernel clock. They are the *only*
//! calibration surface of the whole timing model (DESIGN.md §5): every
//! difference between the paper's Vanilla / +II / +Fixed-point
//! configurations emerges structurally from these per-op numbers, the loop
//! trip counts, and the pragmas — never from per-configuration fudge
//! factors.

use crate::resource::ResourceEstimate;

/// The arithmetic format a kernel is synthesized in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumericFormat {
    /// IEEE single-precision floating point (the paper's baseline).
    Float32,
    /// The paper's 10^6-scaled decimal fixed point carried in wide integers.
    FixedPoint64,
    /// Narrow decimal fixed point (scale ≤ 10^4): operands fit a single
    /// DSP48 multiplier — the low half of a mixed-precision design (§VI).
    FixedPoint32,
}

/// Primitive operations appearing in kernel bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Addition / subtraction.
    Add,
    /// Multiplication.
    Mul,
    /// Division (softsign denominator, fixed-point rescale when not a
    /// power-of-ten shift).
    Div,
    /// `exp()` — the operation the paper eliminates by replacing `tanh`
    /// with `softsign` (§III-D).
    Exp,
    /// Absolute value / negation.
    Abs,
    /// Comparison / select (PWL sigmoid segment choice).
    Cmp,
    /// One read from a (possibly partitioned) on-chip buffer.
    MemRead,
}

/// Per-operation latencies in kernel clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpLatencies {
    /// Cycles for [`Op::Add`].
    pub add: u32,
    /// Cycles for [`Op::Mul`].
    pub mul: u32,
    /// Cycles for [`Op::Div`].
    pub div: u32,
    /// Cycles for [`Op::Exp`].
    pub exp: u32,
    /// Cycles for [`Op::Abs`].
    pub abs: u32,
    /// Cycles for [`Op::Cmp`].
    pub cmp: u32,
    /// Cycles for [`Op::MemRead`].
    pub mem_read: u32,
}

impl OpLatencies {
    /// Vitis-HLS-typical single-precision latencies at 300 MHz
    /// (low-latency operator configs): `fadd` 4, `fmul` 4, `fdiv` 28,
    /// `fexp` 20.
    pub fn float32() -> Self {
        Self {
            add: 4,
            mul: 4,
            div: 28,
            exp: 20,
            abs: 1,
            cmp: 1,
            mem_read: 2,
        }
    }

    /// DSP48-mapped integer latencies: single-cycle add, 3-cycle wide
    /// multiply, 36-cycle restoring divide. `exp` is unsynthesizable in
    /// fixed point (the paper removes it); modelled as a deep CORDIC.
    pub fn fixed_point64() -> Self {
        Self {
            add: 1,
            mul: 3,
            div: 36,
            exp: 60,
            abs: 1,
            cmp: 1,
            mem_read: 1,
        }
    }

    /// Narrow fixed point: a single-DSP multiply completes in 2 cycles.
    fn fixed_point32() -> Self {
        Self {
            mul: 2,
            ..Self::fixed_point64()
        }
    }

    /// The latency table for `format`.
    pub fn for_format(format: NumericFormat) -> Self {
        match format {
            NumericFormat::Float32 => Self::float32(),
            NumericFormat::FixedPoint64 => Self::fixed_point64(),
            NumericFormat::FixedPoint32 => Self::fixed_point32(),
        }
    }

    /// Latency of a single op.
    pub fn of(&self, op: Op) -> u32 {
        match op {
            Op::Add => self.add,
            Op::Mul => self.mul,
            Op::Div => self.div,
            Op::Exp => self.exp,
            Op::Abs => self.abs,
            Op::Cmp => self.cmp,
            Op::MemRead => self.mem_read,
        }
    }

    /// Combined latency of a dependent chain of ops.
    pub fn chain(&self, ops: &[Op]) -> u32 {
        ops.iter().map(|&o| self.of(o)).sum()
    }
}

/// Per-operation resource costs for one instantiated operator.
///
/// Numbers follow AMD's operator characterization: an `fmul` consumes 3
/// DSP48s, an `fadd` 2, while a 34-bit fixed-point multiply fits in 2 DSPs
/// and fixed adds are pure fabric — the resource asymmetry that lets
/// fixed-point designs unroll further on the same device (§III-D:
/// "Efficient DSP utilization also reduces FPGA Look-Up Table
/// consumption").
pub fn op_cost(format: NumericFormat, op: Op) -> ResourceEstimate {
    use NumericFormat::*;
    let (dsp, lut, ff) = match (format, op) {
        (Float32, Op::Add) => (2, 364, 670),
        (Float32, Op::Mul) => (3, 135, 300),
        (Float32, Op::Div) => (0, 994, 1430),
        (Float32, Op::Exp) => (7, 1700, 2500),
        (Float32, Op::Abs) => (0, 32, 33),
        (Float32, Op::Cmp) => (0, 66, 66),
        (Float32, Op::MemRead) => (0, 8, 8),
        (FixedPoint64, Op::Add) => (0, 64, 64),
        (FixedPoint64, Op::Mul) => (2, 90, 180),
        (FixedPoint64, Op::Div) => (0, 1200, 1800),
        (FixedPoint64, Op::Exp) => (4, 2600, 3800),
        (FixedPoint64, Op::Abs) => (0, 64, 64),
        (FixedPoint64, Op::Cmp) => (0, 64, 64),
        (FixedPoint64, Op::MemRead) => (0, 8, 8),
        (FixedPoint32, Op::Add) => (0, 32, 32),
        (FixedPoint32, Op::Mul) => (1, 45, 90),
        (FixedPoint32, Op::Div) => (0, 600, 900),
        (FixedPoint32, Op::Exp) => (2, 1300, 1900),
        (FixedPoint32, Op::Abs) => (0, 32, 32),
        (FixedPoint32, Op::Cmp) => (0, 32, 32),
        (FixedPoint32, Op::MemRead) => (0, 8, 8),
    };
    ResourceEstimate {
        dsp,
        lut,
        ff,
        bram: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_point_is_faster_where_it_matters() {
        let f = OpLatencies::float32();
        let x = OpLatencies::fixed_point64();
        assert!(x.add < f.add, "integer add beats fadd");
        assert!(x.mul < f.mul, "DSP multiply beats fmul");
        assert!(x.mem_read <= f.mem_read);
    }

    #[test]
    fn exp_is_the_expensive_op() {
        // The motivation for softsign: exp dominates everything else.
        let f = OpLatencies::float32();
        for op in [Op::Add, Op::Mul, Op::Abs, Op::Cmp, Op::MemRead] {
            assert!(f.exp > f.of(op));
        }
    }

    #[test]
    fn chain_sums_latencies() {
        let f = OpLatencies::float32();
        assert_eq!(f.chain(&[Op::Mul, Op::Add]), 8);
        assert_eq!(f.chain(&[]), 0);
    }

    #[test]
    fn for_format_dispatch() {
        assert_eq!(
            OpLatencies::for_format(NumericFormat::Float32),
            OpLatencies::float32()
        );
        assert_eq!(
            OpLatencies::for_format(NumericFormat::FixedPoint64),
            OpLatencies::fixed_point64()
        );
    }

    #[test]
    fn fixed_mul_uses_fewer_dsps_than_float() {
        let f = op_cost(NumericFormat::Float32, Op::Mul);
        let x = op_cost(NumericFormat::FixedPoint64, Op::Mul);
        assert!(x.dsp < f.dsp);
    }

    #[test]
    fn narrow_fixed_point_is_cheapest() {
        let wide = op_cost(NumericFormat::FixedPoint64, Op::Mul);
        let narrow = op_cost(NumericFormat::FixedPoint32, Op::Mul);
        assert!(narrow.dsp < wide.dsp);
        assert!(OpLatencies::fixed_point32().mul <= OpLatencies::fixed_point64().mul);
    }

    #[test]
    fn fixed_add_is_dsp_free() {
        assert_eq!(op_cost(NumericFormat::FixedPoint64, Op::Add).dsp, 0);
        assert!(op_cost(NumericFormat::Float32, Op::Add).dsp > 0);
    }
}
