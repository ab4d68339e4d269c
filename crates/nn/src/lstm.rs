//! From-scratch LSTM cell and layer with full backpropagation-through-time.
//!
//! Implements exactly the formulation in the paper's §III-A ("LSTM inner
//! workings"):
//!
//! ```text
//! i_t = σ(W_i [h_{t−1}, x_t] + b_i)
//! f_t = σ(W_f [h_{t−1}, x_t] + b_f)
//! o_t = σ(W_o [h_{t−1}, x_t] + b_o)
//! C'_t = g(W_C' [h_{t−1}, x_t] + b_C')
//! C_t = f_t ∗ C_{t−1} + i_t ∗ C'_t
//! h_t = o_t ∗ g(C_t)
//! ```
//!
//! where `g` is `tanh` classically or `softsign` in the paper's optimized
//! deployment. With input dim 8 and hidden size 32 the cell holds the
//! paper's 5,248 LSTM parameters: `4 × (32 × (32+8) + 32)`.
//!
//! # The flat path
//!
//! Every LSTM forward pass and BPTT in the crate — training and
//! prediction of `SequenceClassifier` and [`LstmLayer`] — runs one
//! path. A sequence's `z_t = [h_{t−1}, x_t]`, gate pre-activations, gate
//! outputs, `C_t` and `h_t` each live in one contiguous `f64` array of a
//! `Tape`, which a thread sizes once and reuses. A `PackedCell` holds the weights laid out for it: all four
//! gates' `Wᵀ` side by side, so a forward step is one
//! [`bptt::gate_preact`] over the `4H` gate rows and then one activation
//! loop a gate; and all four gates' `W` stacked in gate order, so a BPTT
//! step is the element-wise gate loop and one [`bptt::back_product_gates`]
//! over the `4H × Z` block. The weight gradient (laid out in
//! `SequenceClassifier::flatten_params` order, so `W_i W_f W_C' W_o` is
//! the same `4H × Z` block) takes every step's rank-1 update in one
//! [`bptt::rank1_add`] at the end.
//!
//! Every element keeps the operation sequence of the per-step `Vector`
//! code this replaced, which the tests keep as the reference
//! (`reference`): one sequence's gradient is the same to the bit on every
//! host. A trained model is the same to the bit at every
//! `TrainOptions::threads`: a batch's gradient is summed over fixed
//! sub-batches (`trainer::GRADIENT_SUB_BATCH`), whichever worker runs
//! each one.

use csd_tensor::{bptt, Initializer, Matrix, Vector};

use crate::activation::Activation;

/// Gate indices into the cell's weight arrays (TensorFlow `i, f, c, o`
/// order, which the weight export in [`crate::weights`] preserves).
pub const GATE_I: usize = 0;
/// Forget gate index.
pub const GATE_F: usize = 1;
/// Cell-candidate (`C'`) index.
pub const GATE_C: usize = 2;
/// Output gate index.
pub const GATE_O: usize = 3;

/// The recurrent state `(h, C)` carried between timesteps.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden state `h_t`.
    pub h: Vector<f64>,
    /// Cell state `C_t` (never leaves `kernel_hidden_state` on the FPGA).
    pub c: Vector<f64>,
}

impl LstmState {
    /// The all-zero initial state.
    pub fn zeros(hidden: usize) -> Self {
        Self {
            h: Vector::zeros(hidden),
            c: Vector::zeros(hidden),
        }
    }
}

/// A single LSTM cell: four gates over the concatenated `[h_{t−1}, x_t]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmCell {
    input_dim: usize,
    hidden: usize,
    /// Gate weights, each `hidden × (hidden + input_dim)`, gate order
    /// `i, f, c, o`. Column layout is `[h-part | x-part]`, matching the
    /// paper's `[h_{t−1}, x_t]` concatenation.
    w: [Matrix<f64>; 4],
    b: [Vector<f64>; 4],
    cell_act: Activation,
}

impl LstmCell {
    /// Creates a cell with Xavier-initialized weights and zero biases
    /// (forget-gate bias set to 1, the standard trick TensorFlow applies via
    /// `unit_forget_bias=True`).
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `hidden` is zero, or `cell_act` is
    /// [`Activation::Sigmoid`] (a sigmoid cell activation cannot represent
    /// negative cell updates).
    pub fn new(input_dim: usize, hidden: usize, cell_act: Activation, seed: u64) -> Self {
        assert!(input_dim > 0 && hidden > 0, "dims must be positive");
        assert!(
            cell_act != Activation::Sigmoid,
            "cell activation must be tanh or softsign"
        );
        let z = hidden + input_dim;
        let w = [
            Initializer::XavierUniform.matrix(hidden, z, seed.wrapping_mul(4).wrapping_add(1)),
            Initializer::XavierUniform.matrix(hidden, z, seed.wrapping_mul(4).wrapping_add(2)),
            Initializer::XavierUniform.matrix(hidden, z, seed.wrapping_mul(4).wrapping_add(3)),
            Initializer::XavierUniform.matrix(hidden, z, seed.wrapping_mul(4).wrapping_add(4)),
        ];
        let mut b = [
            Vector::zeros(hidden),
            Vector::zeros(hidden),
            Vector::zeros(hidden),
            Vector::zeros(hidden),
        ];
        b[GATE_F].as_mut_slice().fill(1.0);
        Self {
            input_dim,
            hidden,
            w,
            b,
            cell_act,
        }
    }

    /// Input dimension `X` (the embedding size).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden size `H`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The cell activation `g` (tanh or softsign).
    pub fn cell_activation(&self) -> Activation {
        self.cell_act
    }

    /// Gate weight matrix (gate order `i, f, c, o`).
    ///
    /// # Panics
    ///
    /// Panics if `gate > 3`.
    pub fn weight(&self, gate: usize) -> &Matrix<f64> {
        &self.w[gate]
    }

    /// Gate bias vector.
    ///
    /// # Panics
    ///
    /// Panics if `gate > 3`.
    pub fn bias(&self, gate: usize) -> &Vector<f64> {
        &self.b[gate]
    }

    /// Mutable gate weight (used by weight import).
    pub(crate) fn weight_mut(&mut self, gate: usize) -> &mut Matrix<f64> {
        &mut self.w[gate]
    }

    /// Mutable gate bias (used by weight import).
    pub(crate) fn bias_mut(&mut self, gate: usize) -> &mut Vector<f64> {
        &mut self.b[gate]
    }

    /// Number of trainable parameters: `4 × (H × (H+X) + H)`.
    pub fn num_parameters(&self) -> usize {
        4 * (self.hidden * (self.hidden + self.input_dim) + self.hidden)
    }

    /// The weights laid out for the flat path.
    pub(crate) fn pack(&self) -> PackedCell<'_> {
        let (h, z) = (self.hidden, self.hidden + self.input_dim);
        let rows = 4 * h;
        let mut w_t = vec![0.0; z * rows];
        for (g, w) in self.w.iter().enumerate() {
            for r in 0..h {
                for (c, &v) in w.row(r).iter().enumerate() {
                    w_t[c * rows + g * h + r] = v;
                }
            }
        }
        PackedCell {
            cell: self,
            w_t,
            w: self
                .w
                .iter()
                .flat_map(|w| w.as_flat().iter().copied())
                .collect(),
            b: self.b.iter().flat_map(|b| b.iter().copied()).collect(),
        }
    }
}

/// An [`LstmCell`]'s weights laid out for the flat path: every gate's
/// `W` transposed, side by side (`(H+X) × 4H`), the gates' `W` stacked in
/// gate order (`4H × (H+X)`), and the biases stacked in gate order
/// (`4H`).
#[derive(Debug)]
pub(crate) struct PackedCell<'a> {
    cell: &'a LstmCell,
    w_t: Vec<f64>,
    w: Vec<f64>,
    b: Vec<f64>,
}

/// One sequence's forward activations and BPTT scratch, each in one flat
/// array. A tape grows to the longest sequence it has held and is reused,
/// so a thread that keeps one allocates nothing per timestep.
#[derive(Debug, Default)]
pub(crate) struct Tape {
    steps: usize,
    hidden: usize,
    input_dim: usize,
    /// `steps × Z`: `z_t = [h_{t−1}, x_t]`.
    z: Vec<f64>,
    /// `steps × 4H`: gate pre-activations in gate order.
    pre: Vec<f64>,
    /// `steps × 4H`: gate outputs.
    gate: Vec<f64>,
    /// `(steps + 1) × H`: `C_0 = 0`, then `C_t`.
    c: Vec<f64>,
    /// `steps × H`: `h_t`.
    h: Vec<f64>,
    /// BPTT's running `∂L/∂h_t` and `∂L/∂C_t` (`H` each) and `z_t`'s
    /// gradient (`Z`).
    d_h: Vec<f64>,
    d_c: Vec<f64>,
    d_z: Vec<f64>,
    /// `steps × 4H`: the gate pre-activations' gradients.
    d_pre: Vec<f64>,
    /// `steps × X`: every input's gradient.
    d_x: Vec<f64>,
}

/// `v[..n]`, growing `v` first if it is shorter.
fn at_least(v: &mut Vec<f64>, n: usize) -> &mut [f64] {
    if v.len() < n {
        v.resize(n, 0.0);
    }
    &mut v[..n]
}

impl Tape {
    /// The final hidden state `h_T` of the last forward pass.
    pub(crate) fn h_last(&self) -> &[f64] {
        let h = self.hidden;
        &self.h[(self.steps - 1) * h..self.steps * h]
    }

    /// The final cell state `C_T` of the last forward pass.
    pub(crate) fn c_last(&self) -> &[f64] {
        let h = self.hidden;
        &self.c[self.steps * h..(self.steps + 1) * h]
    }

    /// The last BPTT's input gradients, `steps × X`, in input order.
    pub(crate) fn d_x(&self) -> &[f64] {
        &self.d_x[..self.steps * self.input_dim]
    }
}

impl PackedCell<'_> {
    /// Runs the cell over `xs` from the zero state, recording the sequence
    /// on `tape`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or an input's length is not the cell's
    /// input dimension.
    pub(crate) fn forward<'x>(
        &self,
        tape: &mut Tape,
        xs: impl ExactSizeIterator<Item = &'x [f64]>,
    ) {
        let cell = self.cell;
        let (h, act) = (cell.hidden, cell.cell_act);
        let (zl, rows) = (h + cell.input_dim, 4 * h);
        let steps = xs.len();
        assert!(steps > 0, "empty sequence");
        tape.steps = steps;
        tape.hidden = h;
        tape.input_dim = cell.input_dim;
        let z = at_least(&mut tape.z, steps * zl);
        let pre = at_least(&mut tape.pre, steps * rows);
        let gate = at_least(&mut tape.gate, steps * rows);
        let c = at_least(&mut tape.c, (steps + 1) * h);
        let hs = at_least(&mut tape.h, steps * h);
        c[..h].fill(0.0);
        for (t, x) in xs.enumerate() {
            assert_eq!(x.len(), cell.input_dim, "input dim mismatch");
            let z = &mut z[t * zl..(t + 1) * zl];
            let (z_h, z_x) = z.split_at_mut(h);
            match t {
                0 => z_h.fill(0.0),
                _ => z_h.copy_from_slice(&hs[(t - 1) * h..t * h]),
            }
            z_x.copy_from_slice(x);
            let pre = &mut pre[t * rows..(t + 1) * rows];
            bptt::gate_preact(&self.w_t, z, &self.b, pre);
            let gate = &mut gate[t * rows..(t + 1) * rows];
            for (g, (pre, gate)) in pre
                .chunks_exact(h)
                .zip(gate.chunks_exact_mut(h))
                .enumerate()
            {
                let f = if g == GATE_C {
                    act
                } else {
                    Activation::Sigmoid
                };
                f.apply_each(pre, gate);
            }
            let [i, f, cc, o] = gates(gate, h);
            let (c_prev, c_t) = c[t * h..(t + 2) * h].split_at_mut(h);
            let h_t = &mut hs[t * h..(t + 1) * h];
            for j in 0..h {
                // C_t = f ∗ C_{t−1} + i ∗ C'
                c_t[j] = f[j] * c_prev[j] + i[j] * cc[j];
                // h_t = o ∗ g(C_t)
                h_t[j] = o[j] * act.apply(c_t[j]);
            }
        }
    }

    /// BPTT over the sequence on `tape` from `d_h_final = ∂L/∂h_T`.
    /// Adds each step's gate weight and bias gradients into `g_w` (`4H ×
    /// (H+X)`, gate order) and `g_b` (`4H`), last step first — in one
    /// [`bptt::rank1_add`] once every step's gate gradients are known —
    /// and leaves every input's gradient in [`Tape::d_x`].
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths, or if `tape` holds no sequence of
    /// this cell's shape.
    pub(crate) fn backward(
        &self,
        tape: &mut Tape,
        d_h_final: &[f64],
        g_w: &mut [f64],
        g_b: &mut [f64],
    ) {
        let cell = self.cell;
        let (h, x, act) = (cell.hidden, cell.input_dim, cell.cell_act);
        let (zl, rows) = (h + x, 4 * h);
        assert_eq!(
            (tape.hidden, tape.input_dim),
            (h, x),
            "tape holds another cell's sequence"
        );
        assert_eq!(d_h_final.len(), h, "hidden dim mismatch");
        let sigmoid = Activation::Sigmoid;
        let steps = tape.steps;
        let d_h = at_least(&mut tape.d_h, h);
        let d_c = at_least(&mut tape.d_c, h);
        let d_pres = at_least(&mut tape.d_pre, steps * rows);
        let d_z = at_least(&mut tape.d_z, zl);
        let d_x = at_least(&mut tape.d_x, steps * x);
        d_h.copy_from_slice(d_h_final);
        d_c.fill(0.0);
        for t in (0..steps).rev() {
            let [i, f, cc, o] = gates(&tape.gate[t * rows..(t + 1) * rows], h);
            let pre_c = &tape.pre[t * rows + GATE_C * h..t * rows + (GATE_C + 1) * h];
            let (c_prev, c_t) = tape.c[t * h..(t + 2) * h].split_at(h);
            let d_pre = &mut d_pres[t * rows..(t + 1) * rows];
            let [d_i, d_f, d_cc, d_o] = gates_mut(d_pre, h);
            for j in 0..h {
                // dC_t = dC_future + dh ∗ o ∗ g'(C_t)
                d_c[j] += d_h[j] * o[j] * act.derivative(c_t[j]);
                // do = dh ∗ g(C_t); da_o = do σ'(a_o)
                d_o[j] = d_h[j] * act.apply(c_t[j]) * sigmoid.derivative_from_output(o[j]);
                // df = dC ∗ C_{t−1}
                d_f[j] = d_c[j] * c_prev[j] * sigmoid.derivative_from_output(f[j]);
                // di = dC ∗ C'
                d_i[j] = d_c[j] * cc[j] * sigmoid.derivative_from_output(i[j]);
                // dC' = dC ∗ i
                d_cc[j] = d_c[j] * i[j] * act.derivative(pre_c[j]);
            }
            // dz = Σ_g W_gᵀ da_g
            d_z.fill(0.0);
            bptt::back_product_gates(&self.w, d_pre, d_z);
            let (dz_h, dz_x) = d_z.split_at(h);
            d_h.copy_from_slice(dz_h);
            d_x[t * x..(t + 1) * x].copy_from_slice(dz_x);
            // dC_{t−1} = dC_t ∗ f
            for j in 0..h {
                d_c[j] *= f[j];
            }
        }
        // dW_g += da_g ⊗ z ; db_g += da_g, for every step.
        bptt::rank1_add(d_pres, &tape.z[..steps * zl], g_w, g_b);
    }
}

/// The four gates' rows of a `4H` array, in gate order.
fn gates(v: &[f64], h: usize) -> [&[f64]; 4] {
    let (i, rest) = v.split_at(h);
    let (f, rest) = rest.split_at(h);
    let (c, o) = rest.split_at(h);
    [i, f, c, &o[..h]]
}

/// [`gates`], mutable.
fn gates_mut(v: &mut [f64], h: usize) -> [&mut [f64]; 4] {
    let (i, rest) = v.split_at_mut(h);
    let (f, rest) = rest.split_at_mut(h);
    let (c, o) = rest.split_at_mut(h);
    [i, f, c, &mut o[..h]]
}

/// Runs an [`LstmCell`] over whole sequences, producing the final hidden
/// state (the paper classifies from `h_T` only).
#[derive(Debug, Clone, PartialEq)]
pub struct LstmLayer {
    cell: LstmCell,
}

impl LstmLayer {
    /// Wraps a cell.
    pub fn new(cell: LstmCell) -> Self {
        Self { cell }
    }

    /// The wrapped cell.
    pub fn cell(&self) -> &LstmCell {
        &self.cell
    }

    /// Mutable access to the wrapped cell.
    pub fn cell_mut(&mut self) -> &mut LstmCell {
        &mut self.cell
    }

    /// Forward pass over a sequence of input vectors from the zero state,
    /// returning the final state.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or an input's length is not the cell's
    /// input dimension.
    pub fn forward(&self, xs: &[Vector<f64>]) -> LstmState {
        let tape = self.run(xs.iter().map(|x| x.as_slice()));
        LstmState {
            h: Vector::from(tape.h_last().to_vec()),
            c: Vector::from(tape.c_last().to_vec()),
        }
    }

    /// The flat path's forward over `xs`, on a fresh tape.
    pub(crate) fn run<'x>(&self, xs: impl ExactSizeIterator<Item = &'x [f64]>) -> Tape {
        let mut tape = Tape::default();
        self.cell.pack().forward(&mut tape, xs);
        tape
    }
}

/// The per-step `Vector` code the flat path replaced, kept as the
/// reference the bit-identity tests compare it with.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Per-timestep cache retained by the forward pass for BPTT.
    #[derive(Debug, Clone)]
    pub(crate) struct StepCache {
        /// Concatenated input `z = [h_{t−1}, x_t]`.
        pub z: Vector<f64>,
        /// Gate pre-activations `a_g = W_g z + b_g` in gate order.
        pub pre: [Vector<f64>; 4],
        /// Gate outputs (`i`, `f`, `C'`, `o`).
        pub gate: [Vector<f64>; 4],
        /// Previous cell state `C_{t−1}`.
        pub c_prev: Vector<f64>,
        /// New cell state `C_t`.
        pub c: Vector<f64>,
    }

    /// Gradients for one LSTM cell, with the same shapes as its parameters.
    #[derive(Debug, Clone)]
    pub(crate) struct LstmGrads {
        /// Per-gate weight gradients (`H × (H+X)` each).
        pub w: [Matrix<f64>; 4],
        /// Per-gate bias gradients.
        pub b: [Vector<f64>; 4],
    }

    impl LstmGrads {
        /// The weights then the biases, each in gate order.
        pub fn flatten(&self) -> (Vec<f64>, Vec<f64>) {
            let w = self.w.iter().flat_map(|w| w.to_f64_flat()).collect();
            let b = self.b.iter().flat_map(|b| b.to_f64_vec()).collect();
            (w, b)
        }
    }

    impl LstmCell {
        /// One forward timestep, returning the new state and the BPTT cache.
        pub(crate) fn step(&self, x: &Vector<f64>, state: &LstmState) -> (LstmState, StepCache) {
            assert_eq!(x.len(), self.input_dim, "input dim mismatch");
            assert_eq!(state.h.len(), self.hidden, "hidden dim mismatch");
            let z = state.h.concat(x);
            let pre: [Vector<f64>; 4] =
                std::array::from_fn(|g| self.w[g].matvec(&z).add(&self.b[g]));
            let gate: [Vector<f64>; 4] = std::array::from_fn(|g| {
                let act = if g == GATE_C {
                    self.cell_act
                } else {
                    Activation::Sigmoid
                };
                pre[g].map(|v| act.apply(v))
            });
            // C_t = f ∗ C_{t−1} + i ∗ C'
            let c = gate[GATE_F]
                .hadamard(&state.c)
                .add(&gate[GATE_I].hadamard(&gate[GATE_C]));
            // h_t = o ∗ g(C_t)
            let h = gate[GATE_O].hadamard(&c.map(|v| self.cell_act.apply(v)));
            let cache = StepCache {
                z,
                pre,
                gate,
                c_prev: state.c.clone(),
                c: c.clone(),
            };
            (LstmState { h, c }, cache)
        }

        /// Zero-initialized gradients with this cell's shapes.
        pub(crate) fn zero_grads(&self) -> LstmGrads {
            let z = self.hidden + self.input_dim;
            LstmGrads {
                w: std::array::from_fn(|_| Matrix::zeros(self.hidden, z)),
                b: std::array::from_fn(|_| Vector::zeros(self.hidden)),
            }
        }

        /// One BPTT step: consumes `d_h` (gradient wrt `h_t`) and `d_c`
        /// (gradient wrt `C_t` from the future), accumulates into `grads`,
        /// and returns `(d_h_prev, d_c_prev, d_x)`.
        pub(crate) fn step_backward(
            &self,
            cache: &StepCache,
            d_h: &Vector<f64>,
            d_c_future: &Vector<f64>,
            grads: &mut LstmGrads,
        ) -> (Vector<f64>, Vector<f64>, Vector<f64>) {
            let h = self.hidden;
            // dC_t = dC_future + dh ∗ o ∗ g'(C_t)
            let g_of_c = cache.c.map(|v| self.cell_act.apply(v));
            let mut d_c = Vector::zeros(h);
            for j in 0..h {
                let gp = self.cell_act.derivative(cache.c[j]);
                d_c[j] = d_c_future[j] + d_h[j] * cache.gate[GATE_O][j] * gp;
            }
            // Per-gate pre-activation gradients.
            let mut d_pre: [Vector<f64>; 4] = std::array::from_fn(|_| Vector::zeros(h));
            for j in 0..h {
                // do = dh ∗ g(C_t); da_o = do σ'(a_o)
                d_pre[GATE_O][j] = d_h[j]
                    * g_of_c[j]
                    * Activation::Sigmoid.derivative_from_output(cache.gate[GATE_O][j]);
                // df = dC ∗ C_{t−1}
                d_pre[GATE_F][j] = d_c[j]
                    * cache.c_prev[j]
                    * Activation::Sigmoid.derivative_from_output(cache.gate[GATE_F][j]);
                // di = dC ∗ C'
                d_pre[GATE_I][j] = d_c[j]
                    * cache.gate[GATE_C][j]
                    * Activation::Sigmoid.derivative_from_output(cache.gate[GATE_I][j]);
                // dC' = dC ∗ i
                d_pre[GATE_C][j] =
                    d_c[j] * cache.gate[GATE_I][j] * self.cell_act.derivative(cache.pre[GATE_C][j]);
            }
            // Weight/bias gradients: dW_g += da_g ⊗ z ; db_g += da_g.
            let zlen = cache.z.len();
            for ((dpg, gw), gb) in d_pre.iter().zip(&mut grads.w).zip(&mut grads.b) {
                for (r, &dv) in dpg.as_slice().iter().enumerate() {
                    if dv == 0.0 {
                        continue;
                    }
                    for (c, &zc) in cache.z.as_slice().iter().enumerate() {
                        *gw.get_mut(r, c) += dv * zc;
                    }
                    gb[r] += dv;
                }
            }
            // dz = Σ_g W_gᵀ da_g
            let mut d_z = Vector::zeros(zlen);
            for (wg, dpg) in self.w.iter().zip(&d_pre) {
                d_z = d_z.add(&wg.vecmat(dpg));
            }
            let d_h_prev = Vector::from(d_z.as_slice()[..h].to_vec());
            let d_x = Vector::from(d_z.as_slice()[h..].to_vec());
            // dC_{t−1} = dC_t ∗ f
            let d_c_prev = d_c.hadamard(&cache.gate[GATE_F]);
            (d_h_prev, d_c_prev, d_x)
        }
    }

    /// Forward pass over a sequence, returning the final state and
    /// per-step caches.
    pub(crate) fn forward(cell: &LstmCell, xs: &[Vector<f64>]) -> (LstmState, Vec<StepCache>) {
        assert!(!xs.is_empty(), "empty sequence");
        let mut state = LstmState::zeros(cell.hidden());
        let mut caches = Vec::with_capacity(xs.len());
        for x in xs {
            let (next, cache) = cell.step(x, &state);
            state = next;
            caches.push(cache);
        }
        (state, caches)
    }

    /// Full BPTT from a gradient on the final hidden state; returns the
    /// gradient with respect to each input vector, in input order.
    pub(crate) fn backward(
        cell: &LstmCell,
        caches: &[StepCache],
        d_h_final: &Vector<f64>,
        grads: &mut LstmGrads,
    ) -> Vec<Vector<f64>> {
        let mut d_h = d_h_final.clone();
        let mut d_c = Vector::zeros(cell.hidden());
        let mut d_xs = Vec::with_capacity(caches.len());
        for cache in caches.iter().rev() {
            let (d_h_prev, d_c_prev, d_x) = cell.step_backward(cache, &d_h, &d_c, grads);
            d_h = d_h_prev;
            d_c = d_c_prev;
            d_xs.push(d_x);
        }
        d_xs.reverse();
        d_xs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;

    fn tiny_cell(act: Activation) -> LstmCell {
        LstmCell::new(3, 4, act, 7)
    }

    fn run(cell: &LstmCell, xs: &[Vector<f64>]) -> Tape {
        LstmLayer::new(cell.clone()).run(xs.iter().map(|x| x.as_slice()))
    }

    /// The flat path's gradients of `sum(h_T)`: `(g_w, g_b, d_x)`.
    fn grads_of_sum(cell: &LstmCell, xs: &[Vector<f64>]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let (h, z) = (cell.hidden(), cell.hidden() + cell.input_dim());
        let (mut g_w, mut g_b) = (vec![0.0; 4 * h * z], vec![0.0; 4 * h]);
        let mut tape = run(cell, xs);
        cell.pack()
            .backward(&mut tape, &vec![1.0; h], &mut g_w, &mut g_b);
        (g_w, g_b, tape.d_x().to_vec())
    }

    fn sum_h(cell: &LstmCell, xs: &[Vector<f64>]) -> f64 {
        LstmLayer::new(cell.clone()).forward(xs).h.iter().sum()
    }

    #[test]
    fn paper_parameter_count() {
        let cell = LstmCell::new(8, 32, Activation::Softsign, 0);
        assert_eq!(cell.num_parameters(), 5_248);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let cell = tiny_cell(Activation::Tanh);
        assert!(cell.bias(GATE_F).iter().all(|&v| v == 1.0));
        assert!(cell.bias(GATE_I).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn forward_shapes() {
        let layer = LstmLayer::new(tiny_cell(Activation::Softsign));
        let state = layer.forward(&[Vector::zeros(3)]);
        assert_eq!(state.h.len(), 4);
        assert_eq!(state.c.len(), 4);
    }

    #[test]
    fn hidden_state_bounded_by_one() {
        // |h| = |o ∗ g(C)| < 1 since σ < 1 and |g| < 1.
        let cell = tiny_cell(Activation::Softsign);
        let xs: Vec<Vector<f64>> = (0..200)
            .map(|t| Vector::from(vec![(t as f64).sin() * 5.0, 1.0, -2.0]))
            .collect();
        let tape = run(&cell, &xs);
        for (t, h) in tape.h.chunks_exact(4).enumerate() {
            assert!(h.iter().all(|&v| v.abs() < 1.0), "t={t}");
        }
    }

    #[test]
    fn cell_state_growth_at_most_linear() {
        // |C_t| <= f·|C_{t−1}| + i·|C'| <= |C_{t−1}| + 1.
        let cell = tiny_cell(Activation::Tanh);
        let xs = vec![Vector::from(vec![3.0, -3.0, 3.0]); 100];
        let tape = run(&cell, &xs);
        for (t, c) in tape.c.chunks_exact(4).enumerate() {
            assert!(c.iter().all(|&v| v.abs() <= t as f64 + 1e-9), "t={t}");
        }
    }

    /// The flat path is the per-step reference to the bit: final state,
    /// gate gradients and input gradients, at every timestep count.
    #[test]
    fn flat_path_is_the_per_step_reference() {
        for act in [Activation::Tanh, Activation::Softsign] {
            let cell = tiny_cell(act);
            for len in [1usize, 2, 7] {
                let xs: Vec<Vector<f64>> = (0..len)
                    .map(|t| Vector::from(vec![0.4 * t as f64, -1.5, 0.25 * t as f64]))
                    .collect();
                let (state, caches) = reference::forward(&cell, &xs);
                let mut want = cell.zero_grads();
                let d_xs =
                    reference::backward(&cell, &caches, &Vector::from(vec![1.0; 4]), &mut want);
                let (want_w, want_b) = want.flatten();
                let want_x: Vec<f64> = d_xs.iter().flat_map(|d| d.to_f64_vec()).collect();

                let flat = LstmLayer::new(cell.clone()).forward(&xs);
                let (g_w, g_b, d_x) = grads_of_sum(&cell, &xs);
                assert_eq!(bits(flat.h.as_slice()), bits(state.h.as_slice()));
                assert_eq!(bits(flat.c.as_slice()), bits(state.c.as_slice()));
                assert_eq!(bits(&g_w), bits(&want_w), "{act:?} len {len}");
                assert_eq!(bits(&g_b), bits(&want_b), "{act:?} len {len}");
                assert_eq!(bits(&d_x), bits(&want_x), "{act:?} len {len}");
            }
        }
    }

    /// Numerical-gradient check of the full BPTT path — the canonical test
    /// that the hand-derived backward pass is correct.
    #[test]
    fn bptt_matches_numerical_gradient() {
        for act in [Activation::Tanh, Activation::Softsign] {
            let mut cell = tiny_cell(act);
            let xs: Vec<Vector<f64>> = (0..5)
                .map(|t| Vector::from(vec![0.3 * t as f64, -0.2, 0.1 * t as f64]))
                .collect();
            // Loss = sum(h_T): d_h_final = ones.
            let (g_w, g_b, _) = grads_of_sum(&cell, &xs);

            let eps = 1e-6;
            // Spot-check several weight coordinates in every gate.
            for g in 0..4 {
                for &(r, c) in &[(0usize, 0usize), (1, 3), (3, 6), (2, 2)] {
                    let orig = cell.weight(g).get(r, c);
                    *cell.weight_mut(g).get_mut(r, c) = orig + eps;
                    let up = sum_h(&cell, &xs);
                    *cell.weight_mut(g).get_mut(r, c) = orig - eps;
                    let down = sum_h(&cell, &xs);
                    *cell.weight_mut(g).get_mut(r, c) = orig;
                    let numeric = (up - down) / (2.0 * eps);
                    let analytic = g_w[(g * 4 + r) * 7 + c];
                    assert!(
                        (numeric - analytic).abs() < 1e-4,
                        "{act:?} gate {g} ({r},{c}): numeric {numeric} vs analytic {analytic}"
                    );
                }
                // And one bias coordinate.
                let orig = cell.bias(g)[1];
                cell.bias_mut(g)[1] = orig + eps;
                let up = sum_h(&cell, &xs);
                cell.bias_mut(g)[1] = orig - eps;
                let down = sum_h(&cell, &xs);
                cell.bias_mut(g)[1] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - g_b[g * 4 + 1]).abs() < 1e-4,
                    "{act:?} gate {g} bias"
                );
            }
        }
    }

    #[test]
    fn bptt_input_gradient_matches_numerical() {
        let cell = tiny_cell(Activation::Softsign);
        let xs: Vec<Vector<f64>> = (0..4)
            .map(|t| Vector::from(vec![0.2 * t as f64, 0.5, -0.4]))
            .collect();
        let (_, _, d_x) = grads_of_sum(&cell, &xs);

        let eps = 1e-6;
        for (t, k) in [(0usize, 1usize), (2, 0), (3, 2)] {
            let bump = |delta: f64| -> f64 {
                let mut xs2 = xs.clone();
                xs2[t][k] += delta;
                sum_h(&cell, &xs2)
            };
            let numeric = (bump(eps) - bump(-eps)) / (2.0 * eps);
            assert!(
                (numeric - d_x[t * 3 + k]).abs() < 1e-4,
                "input ({t},{k}): numeric {numeric} vs {:?}",
                d_x[t * 3 + k]
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_rejected() {
        let _ = LstmLayer::new(tiny_cell(Activation::Tanh)).forward(&[]);
    }

    #[test]
    #[should_panic(expected = "tanh or softsign")]
    fn sigmoid_cell_activation_rejected() {
        let _ = LstmCell::new(2, 2, Activation::Sigmoid, 0);
    }
}
