//! A fully-connected layer with input-major weights and a sparse-binary
//! input fast path.

use crate::infer::affine;
use crate::init::he_normal;
use crate::matrix::{axpy, dot, Mat};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Layer input: either a dense vector or the active indices of a binary
/// vector (the sparse encoding of the labeling state).
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// Dense real-valued input.
    Dense(&'a [f32]),
    /// Sparse binary input: sorted indices of the `1` entries.
    Sparse(&'a [u32]),
}

impl<'a> Input<'a> {
    /// Number of active (nonzero) entries, for cost accounting.
    pub fn active(&self) -> usize {
        match self {
            Input::Dense(x) => x.len(),
            Input::Sparse(idx) => idx.len(),
        }
    }
}

/// A minibatch of layer inputs: one dense row per sample, or one sparse
/// active-index row per sample.
#[derive(Debug, Clone, Copy)]
pub enum BatchInput<'a> {
    /// Dense inputs, `batch x fan_in`.
    Dense(&'a Mat),
    /// Sparse binary inputs: per sample, the sorted indices of the `1`s.
    Sparse(&'a [&'a [u32]]),
}

impl<'a> BatchInput<'a> {
    /// Number of samples in the batch.
    pub fn batch(&self) -> usize {
        match self {
            BatchInput::Dense(x) => x.rows(),
            BatchInput::Sparse(rows) => rows.len(),
        }
    }

    /// The `s`-th sample as a scalar-path [`Input`].
    pub fn sample(&self, s: usize) -> Input<'a> {
        match *self {
            BatchInput::Dense(x) => Input::Dense(x.row(s)),
            BatchInput::Sparse(rows) => Input::Sparse(rows[s]),
        }
    }
}

/// A dense layer `y = W^T x + b`, with `W` stored input-major
/// (`w.row(i)` holds the fan-out weights of input `i`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weights, `fan_in x fan_out`, input-major.
    pub w: Mat,
    /// Biases, `fan_out`.
    pub b: Vec<f32>,
}

/// Gradient accumulator matching a [`Dense`] layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DenseGrad {
    /// Weight gradients, same shape as the layer's `w`.
    pub w: Mat,
    /// Bias gradients.
    pub b: Vec<f32>,
}

impl Dense {
    /// He-initialized layer.
    pub fn new(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Self {
        Self {
            w: he_normal(fan_in, fan_out, rng),
            b: vec![0.0; fan_out],
        }
    }

    /// Input dimension.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass into `out` (`out.len() == fan_out`).
    pub fn forward(&self, input: Input<'_>, out: &mut [f32]) {
        self.forward_act::<false>(input, out);
    }

    /// [`Dense::forward`], then ReLU (`< 0` becomes `0`) when `RELU`.
    ///
    /// A sparse input runs the inference kernel's register-tiled
    /// [`affine`]: per output element `b[c]`, then `+= w[i][c]` for each
    /// active `i` in the order given — the ops of `+= 1.0 · w[i][c]`,
    /// since multiplying by one is exact — so one kernel serves serving,
    /// acting and learning.
    pub(crate) fn forward_act<const RELU: bool>(&self, input: Input<'_>, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.fan_out());
        match input {
            Input::Dense(x) => {
                debug_assert_eq!(x.len(), self.fan_in());
                out.copy_from_slice(&self.b);
                for (i, &xi) in x.iter().enumerate() {
                    if xi != 0.0 {
                        axpy(out, self.w.row(i), xi);
                    }
                }
                if RELU {
                    relu(out);
                }
            }
            Input::Sparse(idx) => {
                affine::<true, RELU>(self.w.as_slice(), self.fan_out(), &self.b, idx, &[], out);
            }
        }
    }

    /// [`Dense::forward_act`] on the dense input `x` whose non-zero
    /// entries are `nz` (ascending, as `infer::nonzero` collects them),
    /// through the tiled [`affine`]: per output element `b[c]`, then
    /// `+= x[i] · w[i][c]` over `nz` — the dense arm's ops in its order,
    /// without its per-entry branch.
    pub(crate) fn forward_nz<const RELU: bool>(&self, x: &[f32], nz: &[u32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.fan_in());
        debug_assert_eq!(out.len(), self.fan_out());
        affine::<false, RELU>(self.w.as_slice(), self.fan_out(), &self.b, nz, x, out);
    }

    /// Backward pass: accumulate weight/bias gradients into `grad` and
    /// optionally produce the gradient w.r.t. the input.
    ///
    /// `grad_out` is `dL/dy`; `input` must be the forward-pass input.
    pub fn backward(
        &self,
        input: Input<'_>,
        grad_out: &[f32],
        grad: &mut DenseGrad,
        mut grad_in: Option<&mut [f32]>,
    ) {
        debug_assert_eq!(grad_out.len(), self.fan_out());
        for (gb, go) in grad.b.iter_mut().zip(grad_out) {
            *gb += go;
        }
        match input {
            Input::Dense(x) => {
                for (i, &xi) in x.iter().enumerate() {
                    if xi != 0.0 {
                        axpy(grad.w.row_mut(i), grad_out, xi);
                    }
                    if let Some(gi) = grad_in.as_deref_mut() {
                        gi[i] += dot(self.w.row(i), grad_out);
                    }
                }
            }
            Input::Sparse(idx) => {
                for &i in idx {
                    axpy(grad.w.row_mut(i as usize), grad_out, 1.0);
                }
                if let Some(gi) = grad_in {
                    for (i, g) in gi.iter_mut().enumerate() {
                        *g += dot(self.w.row(i), grad_out);
                    }
                }
            }
        }
    }

    /// Batched forward pass: `out[s] = W^T x[s] + b` for every sample.
    ///
    /// `out` is reshaped to `batch x fan_out`. For dense inputs the kernel
    /// iterates inputs in the outer loop so each weight row `w[i]` is
    /// streamed once per batch instead of once per sample — the blocked
    /// GEMM access pattern that makes minibatch training cache-friendly.
    /// Per output element the accumulation order over `i` matches the
    /// scalar [`Dense::forward`], so this kernel's results are bitwise
    /// identical (callers that route through transposed head kernels get
    /// float-rounding equality instead; see `QNet::forward_batch`). A
    /// sparse batch runs [`Dense::forward`]'s tiled kernel row by row.
    pub fn forward_batch(&self, input: BatchInput<'_>, out: &mut Mat) {
        self.forward_batch_act::<false>(input, out);
    }

    /// [`Dense::forward_batch`], then ReLU when `RELU`.
    pub(crate) fn forward_batch_act<const RELU: bool>(&self, input: BatchInput<'_>, out: &mut Mat) {
        let batch = input.batch();
        out.resize_zeroed(batch, self.fan_out());
        match input {
            BatchInput::Dense(x) => {
                debug_assert_eq!(x.cols(), self.fan_in());
                for s in 0..batch {
                    out.row_mut(s).copy_from_slice(&self.b);
                }
                for i in 0..self.fan_in() {
                    let w_row = self.w.row(i);
                    for s in 0..batch {
                        let xi = x.get(s, i);
                        if xi != 0.0 {
                            axpy(out.row_mut(s), w_row, xi);
                        }
                    }
                }
                if RELU {
                    relu(out.as_mut_slice());
                }
            }
            BatchInput::Sparse(rows) => {
                for (s, idx) in rows.iter().enumerate() {
                    self.forward_act::<RELU>(Input::Sparse(idx), out.row_mut(s));
                }
            }
        }
    }

    /// Batched backward pass: accumulate `dW`/`db` over the whole batch and
    /// optionally produce per-sample input gradients.
    ///
    /// `grad_out` is `batch x fan_out`; `input` must be the forward-pass
    /// batch. When `grad_in` is given it must be `batch x fan_in` and is
    /// **accumulated into** (matching the scalar path's `+=` semantics), so
    /// zero it first unless summing head streams.
    pub fn backward_batch(
        &self,
        input: BatchInput<'_>,
        grad_out: &Mat,
        grad: &mut DenseGrad,
        mut grad_in: Option<&mut Mat>,
    ) {
        let batch = input.batch();
        debug_assert_eq!(grad_out.rows(), batch);
        debug_assert_eq!(grad_out.cols(), self.fan_out());
        for s in 0..batch {
            let go = grad_out.row(s);
            for (gb, g) in grad.b.iter_mut().zip(go) {
                *gb += g;
            }
        }
        match input {
            BatchInput::Dense(x) => {
                // i-outer loops keep w[i] / dW[i] hot across the batch.
                for i in 0..self.fan_in() {
                    let grad_row = grad.w.row_mut(i);
                    for s in 0..batch {
                        let xi = x.get(s, i);
                        if xi != 0.0 {
                            axpy(grad_row, grad_out.row(s), xi);
                        }
                    }
                }
                if let Some(gi) = grad_in.as_deref_mut() {
                    debug_assert_eq!((gi.rows(), gi.cols()), (batch, self.fan_in()));
                    for i in 0..self.fan_in() {
                        let w_row = self.w.row(i);
                        for s in 0..batch {
                            *gi.get_mut(s, i) += dot(w_row, grad_out.row(s));
                        }
                    }
                }
            }
            BatchInput::Sparse(rows) => {
                for (s, idx) in rows.iter().enumerate() {
                    let go = grad_out.row(s);
                    for &i in *idx {
                        axpy(grad.w.row_mut(i as usize), go, 1.0);
                    }
                }
                if let Some(gi) = grad_in {
                    debug_assert_eq!((gi.rows(), gi.cols()), (batch, self.fan_in()));
                    for i in 0..self.fan_in() {
                        let w_row = self.w.row(i);
                        for s in 0..batch {
                            *gi.get_mut(s, i) += dot(w_row, grad_out.row(s));
                        }
                    }
                }
            }
        }
    }

    /// Zeroed gradient accumulator with matching shape.
    pub fn zero_grad(&self) -> DenseGrad {
        DenseGrad {
            w: Mat::zeros(self.w.rows(), self.w.cols()),
            b: vec![0.0; self.b.len()],
        }
    }
}

/// ReLU in place: `< 0` becomes `0` (NaN and `-0.0` pass through).
pub(crate) fn relu(x: &mut [f32]) {
    for a in x {
        if *a < 0.0 {
            *a = 0.0;
        }
    }
}

impl DenseGrad {
    /// Reset accumulators to zero.
    pub fn zero(&mut self) {
        self.w.fill_zero();
        self.b.fill(0.0);
    }

    /// Scale all accumulated gradients by `s` (e.g. `1 / batch`).
    pub fn scale(&mut self, s: f32) {
        for g in self.w.as_mut_slice() {
            *g *= s;
        }
        for g in &mut self.b {
            *g *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn layer() -> Dense {
        let mut rng = StdRng::seed_from_u64(7);
        Dense::new(6, 4, &mut rng)
    }

    #[test]
    fn sparse_matches_dense_binary() {
        let l = layer();
        let mut dense_in = vec![0.0f32; 6];
        dense_in[1] = 1.0;
        dense_in[4] = 1.0;
        let sparse = vec![1u32, 4];
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        l.forward(Input::Dense(&dense_in), &mut a);
        l.forward(Input::Sparse(&sparse), &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    /// The kernel path of a dense input is the branchy reference arm bit
    /// for bit, with and without ReLU: signed zeros are skipped, NaN is
    /// not.
    #[test]
    fn forward_nz_is_the_dense_arm() {
        let mut rng = StdRng::seed_from_u64(5);
        let l = Dense::new(7, 13, &mut rng);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for x in [
            [0.0, -0.0, 1.5, -2.25, 0.0, 0.0, 3.0],
            [0.0, 1.0, 0.0, f32::NAN, -0.0, 0.5, 0.0],
        ] {
            let mut nz = Vec::new();
            crate::infer::nonzero(&x, &mut nz);
            let (mut want, mut got) = (vec![0.0; 13], vec![0.0; 13]);
            l.forward_act::<false>(Input::Dense(&x), &mut want);
            l.forward_nz::<false>(&x, &nz, &mut got);
            assert_eq!(bits(&got), bits(&want));
            l.forward_act::<true>(Input::Dense(&x), &mut want);
            l.forward_nz::<true>(&x, &nz, &mut got);
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn forward_is_affine() {
        let l = layer();
        let mut zero_out = vec![0.0; 4];
        l.forward(Input::Dense(&[0.0; 6]), &mut zero_out);
        assert_eq!(zero_out, l.b, "zero input yields bias");
    }

    /// Finite-difference check of all gradients.
    #[test]
    fn gradients_match_finite_differences() {
        let mut l = layer();
        let x: Vec<f32> = (0..6).map(|i| (i as f32 * 0.37).sin()).collect();
        // L = 0.5 * ||y||^2, so dL/dy = y.
        let loss = |l: &Dense, x: &[f32]| {
            let mut y = vec![0.0; 4];
            l.forward(Input::Dense(x), &mut y);
            0.5 * y.iter().map(|v| v * v).sum::<f32>()
        };
        let mut y = vec![0.0; 4];
        l.forward(Input::Dense(&x), &mut y);
        let mut grad = l.zero_grad();
        let mut gin = vec![0.0; 6];
        l.backward(Input::Dense(&x), &y.clone(), &mut grad, Some(&mut gin));

        let eps = 1e-3f32;
        // weight grads
        for i in 0..6 {
            for o in 0..4 {
                let orig = l.w.get(i, o);
                *l.w.get_mut(i, o) = orig + eps;
                let lp = loss(&l, &x);
                *l.w.get_mut(i, o) = orig - eps;
                let lm = loss(&l, &x);
                *l.w.get_mut(i, o) = orig;
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grad.w.get(i, o)).abs() < 1e-2,
                    "dW[{i}][{o}]: fd={fd} analytic={}",
                    grad.w.get(i, o)
                );
            }
        }
        // bias grads
        for o in 0..4 {
            let orig = l.b[o];
            l.b[o] = orig + eps;
            let lp = loss(&l, &x);
            l.b[o] = orig - eps;
            let lm = loss(&l, &x);
            l.b[o] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.b[o]).abs() < 1e-2,
                "db[{o}]: fd={fd} analytic={}",
                grad.b[o]
            );
        }
        // input grads
        let mut x2 = x.clone();
        for i in 0..6 {
            let orig = x2[i];
            x2[i] = orig + eps;
            let lp = loss(&l, &x2);
            x2[i] = orig - eps;
            let lm = loss(&l, &x2);
            x2[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gin[i]).abs() < 1e-2,
                "dx[{i}]: fd={fd} analytic={}",
                gin[i]
            );
        }
    }

    #[test]
    fn sparse_backward_touches_only_active_rows() {
        let l = layer();
        let mut grad = l.zero_grad();
        l.backward(Input::Sparse(&[2]), &[1.0, 1.0, 1.0, 1.0], &mut grad, None);
        for i in 0..6 {
            let row_norm: f32 = grad.w.row(i).iter().map(|g| g.abs()).sum();
            if i == 2 {
                assert!(row_norm > 0.0);
            } else {
                assert_eq!(row_norm, 0.0, "row {i} should be untouched");
            }
        }
        assert_eq!(grad.b, vec![1.0; 4]);
    }

    #[test]
    fn grad_zero_and_scale() {
        let l = layer();
        let mut grad = l.zero_grad();
        l.backward(Input::Sparse(&[0]), &[2.0, 0.0, 0.0, 0.0], &mut grad, None);
        grad.scale(0.5);
        assert_eq!(grad.b[0], 1.0);
        grad.zero();
        assert_eq!(grad.b[0], 0.0);
        assert_eq!(grad.w.norm(), 0.0);
    }
}
